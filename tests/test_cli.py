"""End-to-end CLI contract: subcommands, files, exit codes."""
import json
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import ocds.cli
import ocds.primal
from ocds.cli import _best_f1, main
from ocds.data import SYNTH_PARAMS, load_csv, synth
from ocds.inference import anomaly_score, compute_metrics
from ocds.kernels import KernelSpec
from ocds.kods import KodsHyper, kods_train
from ocds.persistence import data_fingerprint, load_model, save_model
from ocds.primal import (FramePair, GodsHyper, TrainedPrimalModel, primal_scores_batch,
                         train_primal)
from ocds.solver import SolverConfig


def _axis_model():
    # unit-axis hyperplane pair: s1 = x[0], s2 = x[1]
    frames = FramePair(
        w1=np.array([[1.0], [0.0]]), b1=np.array([0.0]),
        w2=np.array([[0.0], [1.0]]), b2=np.array([0.0]),
    )
    hyper = GodsHyper(variant="bods", k=1, eta=0.3, normalize=False)
    return TrainedPrimalModel(frames=frames, hyper=hyper, eta_effective=0.3,
                              feature_dim=2, normalization=False)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    gauss = d / "gauss.csv"
    assert main(["synth", "--kind", "gaussian", "--n", "60", "--d", "3",
                 "--mean", "1.5", "--cov", "0.2", "--seed", "0",
                 "--out", str(gauss)]) == 0
    model = d / "gods.json"
    assert main(["train", "--data", str(gauss), "--variant", "gods", "--k", "2",
                 "--max-iters", "120", "--seed", "0", "--out", str(model)]) == 0
    return d


# ---------------------------------------------------------------------------
# train


def test_train_writes_model_and_report(workdir):
    model_path = workdir / "gods.json"
    assert model_path.exists()
    report = json.loads((workdir / "gods.json.report.json").read_text())
    trace = report["objective_trace"]
    assert all(b <= a for a, b in zip(trace, trace[1:]))
    assert report["variant"] == "gods"
    assert report["n_train"] == 60


def test_train_is_byte_deterministic(workdir, tmp_path):
    out = tmp_path / "again.json"
    rc = main(["train", "--data", str(workdir / "gauss.csv"), "--variant", "gods",
               "--k", "2", "--max-iters", "120", "--seed", "0", "--out", str(out)])
    assert rc == 0
    assert out.read_bytes() == (workdir / "gods.json").read_bytes()


@pytest.mark.parametrize("variant", ["gods", "kods"])
def test_train_without_hyper_flags_uses_the_library_defaults(workdir, tmp_path, variant):
    data, out = workdir / "gauss.csv", tmp_path / "cli.json"
    flags = ["--variant", variant] if variant != GodsHyper.variant else []
    assert main(["train", "--data", str(data), *flags, "--out", str(out)]) == 0
    x = load_csv(data).features
    if variant == "kods":
        model, _ = kods_train(x, KernelSpec(), KodsHyper(), seed=0)
    else:
        model, _ = train_primal(x, GodsHyper(), seed=0)
    lib = tmp_path / "lib.json"
    save_model(model, lib, fingerprint={"seed": 0, "data_sha256": data_fingerprint(x)})
    assert out.read_bytes() == lib.read_bytes()


def test_train_missing_data_exits_1(tmp_path, capsys):
    rc = main(["train", "--data", str(tmp_path / "nope.csv"),
               "--out", str(tmp_path / "m.json")])
    assert rc == 1
    assert "input error" in capsys.readouterr().err


def test_train_non_utf8_data_exits_1(tmp_path, capsys):
    csv = tmp_path / "latin1.csv"
    csv.write_bytes(b"1.0,2.0\n3.0,4.0\xff\n")
    rc = main(["train", "--data", str(csv), "--out", str(tmp_path / "m.json")])
    assert rc == 1
    assert "input error:" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--delimiter", ";;"], ["--delimiter="]])
def test_train_bad_delimiter_exits_1(workdir, tmp_path, capsys, flag):
    rc = main(["train", "--data", str(workdir / "gauss.csv"), *flag,
               "--out", str(tmp_path / "m.json")])
    assert rc == 1
    assert "input error: bad CSV delimiter" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


def test_train_data_path_is_a_directory_exits_1(tmp_path, capsys):
    rc = main(["train", "--data", str(tmp_path), "--out", str(tmp_path / "m.json")])
    assert rc == 1
    assert "input error:" in capsys.readouterr().err


def test_train_labeled_data_needs_target(tmp_path):
    csv = tmp_path / "lab.csv"
    csv.write_text("1.0,2.0,a\n2.0,1.0,b\n")
    rc = main(["train", "--data", str(csv), "--label-column", "2",
               "--out", str(tmp_path / "m.json")])
    assert rc == 1


def test_train_kods_variant(workdir, tmp_path):
    out = tmp_path / "kods.json"
    rc = main(["train", "--data", str(workdir / "gauss.csv"), "--variant", "kods",
               "--kernel", "rbf", "--sigma", "0.8", "--k", "2",
               "--max-iters", "80", "--seed", "0", "--out", str(out)])
    assert rc == 0
    back = load_model(out)
    assert type(back).__name__ == "KodsModel"


def test_train_numeric_failure_exits_2(tmp_path, capsys):
    csv = tmp_path / "zeros.csv"
    csv.write_text("0.0,0.0\n0.0,0.0\n0.0,0.0\n")
    rc = main(["train", "--data", str(csv), "--variant", "kods", "--kernel", "linear",
               "--k", "1", "--no-normalize", "--out", str(tmp_path / "m.json")])
    assert rc == 2
    assert "numeric error" in capsys.readouterr().err


def test_train_kods_overflowing_kernel_exits_2_without_traceback(tmp_path, capsys):
    # degree 400 overflows the polynomial Gram to inf/NaN
    csv = tmp_path / "wide.csv"
    np.savetxt(csv, 10.0 * np.random.default_rng(0).standard_normal((20, 3)), delimiter=",")
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(["train", "--data", str(csv), "--variant", "kods",
                   "--kernel", "polynomial", "--degree", "400", "--k", "1",
                   "--no-normalize", "--out", str(tmp_path / "m.json")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "numeric error:" in err
    assert "Traceback" not in err
    assert not (tmp_path / "m.json").exists()


def test_train_gods_n_scale_underflow_exits_2(tmp_path, capsys):
    csv = tmp_path / "g.csv"
    assert main(["synth", "--kind", "gaussian", "--n", "80", "--d", "3",
                 "--seed", "0", "--out", str(csv)]) == 0
    rc = main(["train", "--data", str(csv), "--variant", "gods_n", "--k", "2",
               "--max-iters", "50", "--p-norm", "2", "--out", str(tmp_path / "m.json")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "numeric error" in err and "Traceback" not in err


def test_train_kods_huge_integer_degree_exits_1_without_traceback(workdir, tmp_path, capsys):
    rc = main(["train", "--data", str(workdir / "gauss.csv"), "--variant", "kods",
               "--kernel", "polynomial", "--degree", "1" + "0" * 400,
               "--out", str(tmp_path / "m.json")])
    err = capsys.readouterr().err
    assert rc == 1
    assert "input error" in err and "degree" in err
    assert not (tmp_path / "m.json").exists()


FOREIGN_TRAIN_FLAGS = [
    ("kods", ["--nu", "2"], "--nu"),
    ("kods", ["--p-norm", "2"], "--p-norm"),
    ("gods", ["--kernel", "rbf"], "--kernel"),
    ("gods", ["--sigma", "0.5"], "--sigma"),
    ("gods_n", ["--degree", "2"], "--degree"),
    ("bods", ["--offset", "0.5"], "--offset"),
    ("gods", ["--lambda", "5"], "--lambda"),
    ("bods", ["--lambda", "5"], "--lambda"),
    ("gods", ["--p-norm", "2"], "--p-norm"),
    ("bods", ["--p-norm", "2"], "--p-norm"),
    ("gods_o", ["--p-norm", "2"], "--p-norm"),
    ("gods_e", ["--p-norm", "2"], "--p-norm"),
]


@pytest.mark.parametrize("variant, flags, name", FOREIGN_TRAIN_FLAGS,
                         ids=[f"{v}{f[0]}" for v, f, _ in FOREIGN_TRAIN_FLAGS])
def test_train_rejects_a_flag_its_family_does_not_take(workdir, tmp_path, capsys,
                                                       variant, flags, name):
    out = tmp_path / "m.json"
    rc = main(["train", "--data", str(workdir / "gauss.csv"), "--variant", variant,
               *flags, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "input error" in err and name in err
    assert not out.exists()


@pytest.mark.parametrize("variant", ["gods", "kods"])
def test_train_takes_the_shared_flags_in_both_families(workdir, tmp_path, variant):
    rc = main(["train", "--data", str(workdir / "gauss.csv"), "--variant", variant,
               "--k", "1", "--eta", "0.2", "--no-normalize",
               "--max-iters", "3", "--seed", "1", "--out", str(tmp_path / "m.json")])
    assert rc == 0


@pytest.mark.parametrize("variant, flags", [
    ("gods_n", ["--lambda", "0.5", "--p-norm", "2"]),
    ("gods_o", ["--lambda", "0.5"]),
    ("gods_e", ["--lambda", "0.5"]),
    ("kods", ["--lambda", "0.5"]),
])
def test_train_takes_the_penalty_flags_its_variant_reads(workdir, tmp_path, variant, flags):
    rc = main(["train", "--data", str(workdir / "gauss.csv"), "--variant", variant,
               "--k", "1", *flags, "--max-iters", "3", "--out", str(tmp_path / "m.json")])
    assert rc == 0


def test_train_kods_k_above_the_distinct_row_count_exits_1(tmp_path, capsys):
    csv = tmp_path / "same.csv"
    csv.write_text("0.5,1.0\n" * 6)
    rc = main(["train", "--data", str(csv), "--variant", "kods", "--k", "2",
               "--out", str(tmp_path / "m.json")])
    err = capsys.readouterr().err
    assert rc == 1
    assert "input error" in err and "k=2" in err and "distinct training rows 1" in err
    assert not (tmp_path / "m.json").exists()


def test_train_report_holds_the_accepted_steps(workdir):
    report = json.loads((workdir / "gods.json.report.json").read_text())
    steps = report["step_trace"]
    assert len(steps) == report["iterations"] > 0
    for step in steps:
        assert 0.0 < step <= 1.0 and np.frexp(step)[0] == 0.5
    assert "step_trace" not in (workdir / "gods.json").read_text()


def test_train_report_says_why_the_fit_stopped(workdir):
    report = json.loads((workdir / "gods.json.report.json").read_text())
    assert report["stop_reason"] in ("grad_tol", "progress", "max_iters", "stall")
    assert report["converged"] == (report["stop_reason"] in ("grad_tol", "progress"))
    assert "stop_reason" not in (workdir / "gods.json").read_text()


_CALL_FIELDS = ("cost_evals", "grad_evals", "retractions", "feasibility")


def test_train_report_holds_the_call_counts_and_feasibility(workdir):
    report = json.loads((workdir / "gods.json.report.json").read_text())
    assert report["grad_evals"] == report["iterations"] + 1
    assert report["cost_evals"] - 1 <= report["retractions"]
    assert report["retractions"] >= report["iterations"]
    assert 0.0 <= report["feasibility"] <= 1e-8
    text = (workdir / "gods.json").read_text()
    assert not any(f'"{name}"' in text for name in _CALL_FIELDS)


def test_the_model_file_does_not_depend_on_the_report(workdir, tmp_path, monkeypatch):
    args = ["train", "--data", str(workdir / "gauss.csv"), "--variant", "gods",
            "--k", "2", "--max-iters", "120", "--seed", "0"]
    train = ocds.cli.train_primal

    def other_report(*a, **kw):
        model, report = train(*a, **kw)
        return model, replace(report, objective_trace=report.objective_trace[:1],
                              cost_evals=0, retractions=0, feasibility=1.0)

    monkeypatch.setattr(ocds.cli, "train_primal", other_report)
    assert main([*args, "--out", str(tmp_path / "m.json")]) == 0
    changed = json.loads((tmp_path / "m.json.report.json").read_text())
    ours = json.loads((workdir / "gods.json.report.json").read_text())
    assert [changed[n] for n in _CALL_FIELDS] == [0, 1, 0, 1.0]
    assert [ours[n] for n in _CALL_FIELDS] != [0, 1, 0, 1.0]
    assert (tmp_path / "m.json").read_bytes() == (workdir / "gods.json").read_bytes()


# ---------------------------------------------------------------------------
# predict


def test_predict_stdout_matches_batch_scores(workdir, capsys):
    rc = main(["predict", "--model", str(workdir / "gods.json"),
               "--data", str(workdir / "gauss.csv")])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "s1,s2,anomaly_score,label"
    assert len(lines) == 61
    model = load_model(workdir / "gods.json")
    feats = load_csv(workdir / "gauss.csv").features
    s1, s2 = primal_scores_batch(model, feats)
    got_s1 = np.array([float(l.split(",")[0]) for l in lines[1:]])
    got_s2 = np.array([float(l.split(",")[1]) for l in lines[1:]])
    np.testing.assert_array_equal(got_s1, s1)
    np.testing.assert_array_equal(got_s2, s2)
    assert set(l.split(",")[3] for l in lines[1:]) <= {"in-class", "anomaly"}


def test_predict_labels_every_kods_training_row_in_class(tmp_path, capsys):
    # A fit whose intercepts, read off a product other than the scorer's,
    # once left one training row an ulp outside a margin.
    csv, model = tmp_path / "ring.csv", tmp_path / "kods.json"
    assert main(["synth", "--kind", "ring", "--n", "300", "--seed", "6", "--out", str(csv)]) == 0
    assert main(["train", "--data", str(csv), "--variant", "kods", "--kernel", "rbf",
                 "--sigma", "0.2", "--k", "2", "--no-normalize", "--max-iters", "80",
                 "--seed", "6", "--out", str(model)]) == 0
    capsys.readouterr()
    assert main(["predict", "--model", str(model), "--data", str(csv)]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert [line.rsplit(",", 1)[1] for line in lines[1:]] == ["in-class"] * 300


def test_predict_out_file(workdir, tmp_path):
    out = tmp_path / "pred.csv"
    rc = main(["predict", "--model", str(workdir / "gods.json"),
               "--data", str(workdir / "gauss.csv"), "--out", str(out)])
    assert rc == 0
    assert out.read_text().startswith("s1,s2,anomaly_score,label\n")


def test_predict_dimension_mismatch_exits_1(workdir, tmp_path):
    csv = tmp_path / "wide.csv"
    csv.write_text("1.0,2.0,3.0,4.0\n")
    rc = main(["predict", "--model", str(workdir / "gods.json"), "--data", str(csv)])
    assert rc == 1


def test_predict_deeply_nested_model_exits_1(workdir, tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 5000 + "]" * 5000)
    rc = main(["predict", "--model", str(deep), "--data", str(workdir / "gauss.csv")])
    err = capsys.readouterr().err
    assert rc == 1
    assert "input error: model file" in err
    assert "Traceback" not in err


def test_predict_non_utf8_model_exits_1(workdir, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes((workdir / "gods.json").read_bytes() + b"\x80")
    rc = main(["predict", "--model", str(bad), "--data", str(workdir / "gauss.csv")])
    assert rc == 1
    assert "input error: model file" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [("frames", 5), ("feature_dim", "abc")])
def test_predict_malformed_model_exits_1(workdir, tmp_path, capsys, field, value):
    doc = json.loads((workdir / "gods.json").read_text())
    doc[field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc = main(["predict", "--model", str(bad), "--data", str(workdir / "gauss.csv")])
    assert rc == 1
    assert "input error: model file" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# eval


def _write_separable(tmp_path):
    model_path = tmp_path / "axis.json"
    save_model(_axis_model(), model_path)
    csv = tmp_path / "labeled.csv"
    csv.write_text(
        "1.0,-1.0,pos\n0.8,-0.9,pos\n0.5,-0.5,pos\n-1.0,1.0,neg\n0.0,0.0,neg\n"
    )
    return model_path, csv


def test_eval_perfect_separation_reports_unit_f1(tmp_path, capsys):
    model_path, csv = _write_separable(tmp_path)
    rc = main(["eval", "--model", str(model_path), "--data", str(csv),
               "--label-column", "2", "--target", "pos"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["f1"] == 1.0
    assert doc["f1bar"] == 1.0
    assert doc["accuracy"] == 1.0
    assert doc["far"] == 0.0
    assert doc["auc"] == 1.0
    assert doc["confusion"] == {"tp": 3, "fp": 0, "tn": 2, "fn": 0}


def test_eval_report_key_order(tmp_path, capsys):
    model_path, csv = _write_separable(tmp_path)
    rc = main(["eval", "--model", str(model_path), "--data", str(csv),
               "--label-column", "2", "--target", "pos"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == ["n", "n_in_class", "n_anomalous", "threshold", "accuracy",
                         "f1", "f1bar", "tnr", "npv", "far", "auc", "confusion"]
    assert list(doc["confusion"]) == ["tp", "fp", "tn", "fn"]
    assert (doc["n"], doc["n_in_class"], doc["n_anomalous"], doc["threshold"]) == (5, 3, 2, 0.3)


def test_eval_writes_roc_points(tmp_path):
    model_path, csv = _write_separable(tmp_path)
    roc = tmp_path / "roc.csv"
    rc = main(["eval", "--model", str(model_path), "--data", str(csv),
               "--label-column", "2", "--target", "pos",
               "--out", str(tmp_path / "report.json"), "--roc", str(roc)])
    assert rc == 0
    lines = roc.read_text().strip().split("\n")
    assert lines[0] == "fpr,tpr"
    assert lines[-1] == "1.0,1.0"
    assert (tmp_path / "report.json").exists()


def test_eval_on_training_data_accepts_most_points(tmp_path):
    ds = synth("gaussian", 100, seed=0, d=2, mean=2.0, cov=0.01)
    csv = tmp_path / "train.csv"
    csv.write_text("".join(f"{float(a)!r},{float(b)!r},pos\n" for a, b in ds.features))
    model_path = tmp_path / "m.json"
    rc = main(["train", "--data", str(csv), "--label-column", "2", "--target", "pos",
               "--variant", "gods", "--k", "2", "--nu", "20.0", "--seed", "0",
               "--out", str(model_path)])
    assert rc == 0
    # re-threshold at an operating point inside the trained score band,
    # the quantity a validation calibration would pick
    save_model(replace(load_model(model_path), eta_effective=0.2), model_path)
    rc = main(["eval", "--model", str(model_path), "--data", str(csv),
               "--label-column", "2", "--target", "pos",
               "--out", str(tmp_path / "rep.json")])
    assert rc == 0
    doc = json.loads((tmp_path / "rep.json").read_text())
    assert doc["accuracy"] >= 0.9


def test_eval_requires_target_and_labels(workdir, tmp_path):
    model_path, csv = _write_separable(tmp_path)
    rc = main(["eval", "--model", str(model_path), "--data", str(csv),
               "--label-column", "2"])
    assert rc == 1
    rc = main(["eval", "--model", str(model_path), "--data", str(csv),
               "--target", "pos"])
    assert rc == 1


def test_eval_absent_target_label_exits_1(tmp_path):
    model_path, csv = _write_separable(tmp_path)
    rc = main(["eval", "--model", str(model_path), "--data", str(csv),
               "--label-column", "2", "--target", "ghost"])
    assert rc == 1


# ---------------------------------------------------------------------------
# calibrate


def test_calibrate_worked_example(tmp_path, capsys):
    model_path = tmp_path / "axis.json"
    save_model(_axis_model(), model_path)
    csv = tmp_path / "val.csv"
    csv.write_text("0.1,-0.5,a\n0.12,-0.48,a\n0.5,-0.12,b\n0.52,-0.1,b\n")
    before = model_path.read_bytes()
    out = tmp_path / "calibrated.json"
    rc = main(["calibrate", "--model", str(model_path), "--data", str(csv),
               "--label-column", "2", "--out", str(out)])
    assert rc == 0
    assert "0.3 -> 0.395" in capsys.readouterr().out
    assert model_path.read_bytes() == before
    back = load_model(out)
    assert abs(back.eta_effective - 0.395) <= 1e-12
    doc = json.loads(out.read_text())
    assert doc["fingerprint"]["eta_before"] == 0.3
    assert abs(doc["fingerprint"]["eta_after"] - 0.395) <= 1e-12


def test_calibrate_single_label_exits_1(tmp_path, capsys):
    model_path = tmp_path / "axis.json"
    save_model(_axis_model(), model_path)
    csv = tmp_path / "val.csv"
    csv.write_text("0.5,-0.5,a\n0.6,-0.6,a\n")
    rc = main(["calibrate", "--model", str(model_path), "--data", str(csv),
               "--label-column", "2", "--out", str(tmp_path / "c.json")])
    assert rc == 1
    assert "both classes" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# synth


def test_synth_ring_round_trips(tmp_path):
    out = tmp_path / "ring.csv"
    rc = main(["synth", "--kind", "ring", "--n", "300", "--seed", "7", "--out", str(out)])
    assert rc == 0
    loaded = load_csv(out)
    assert loaded.n == 300
    np.testing.assert_array_equal(loaded.features, synth("ring", 300, seed=7).features)


def test_synth_is_reproducible(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for p in (a, b):
        assert main(["synth", "--kind", "ring3d", "--n", "50", "--seed", "3",
                     "--out", str(p)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_synth_rejects_unknown_kind(tmp_path):
    rc = main(["synth", "--kind", "spiral", "--n", "10",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 1


def test_synth_rejects_a_flag_its_kind_does_not_take(tmp_path, capsys):
    out = tmp_path / "x.csv"
    rc = main(["synth", "--kind", "gaussian", "--n", "10", "--height", "0.5", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "input error" in err and "height" in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# gradcheck


def test_gradcheck_passes_all_objectives(capsys):
    rc = main(["gradcheck", "--seed", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "all 6 objectives within 1e-05" in out
    for name in ("bods", "gods", "gods_n", "gods_o", "gods_e", "kods"):
        assert name in out
    assert out.count("PASS") == 6


def test_gradcheck_corrupted_gradient_exits_2(capsys, monkeypatch):
    exact = ocds.primal.gods_egrad

    def corrupted(frames, x, hyper):
        g = exact(frames, x, hyper)
        if hyper.variant == "gods":
            g.w1 = g.w1.copy()
            g.w1.flat[0] += 1e-3
        return g

    monkeypatch.setattr(ocds.primal, "gods_egrad", corrupted)
    rc = main(["gradcheck", "--seed", "0"])
    captured = capsys.readouterr()
    assert rc == 2
    verdicts = {line.split()[0]: line.split()[-1] for line in captured.out.splitlines()}
    assert verdicts["gods"] == "FAIL"
    assert [v for name, v in verdicts.items() if name != "gods"] == ["PASS"] * 5
    assert "gradient check FAILED" in captured.err


def test_gradcheck_has_no_corrupt_flag():
    assert main(["gradcheck", "--corrupt", "gods"]) == 1


# ---------------------------------------------------------------------------
# best-F1 sweep


def _best_f1_by_cut(s1, s2, eta, truth):
    # compute_metrics at every distinct anomaly score, one cut at a time.
    scores = np.array([anomaly_score(a, b, eta) for a, b in zip(s1, s2)])
    best = 0.0
    for cut in np.unique(scores):
        f1 = compute_metrics(scores <= cut, truth).f1
        if f1 is not None and f1 > best:
            best = f1
    return best


@pytest.mark.parametrize("seed", range(10))
def test_best_f1_matches_the_per_cut_sweep(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 80))
    s1 = np.round(rng.normal(0.3, 0.2, n), 1)   # coarse rounding makes ties
    s2 = np.round(rng.normal(-0.3, 0.2, n), 1)
    truth = rng.random(n) < rng.random()
    assert _best_f1(s1, s2, 0.3, truth) == _best_f1_by_cut(s1, s2, 0.3, truth)


_SPREAD = (np.array([0.4, 0.1, 0.4, -0.2]), np.array([-0.5, -0.4, -0.5, 0.0]))


@pytest.mark.parametrize("s1, s2, truth, want", [
    (np.full(6, 0.5), np.full(6, -0.5), np.array([1, 0, 1, 1, 0, 0], bool), 6 / 9),
    (*_SPREAD, np.ones(4, bool), 1.0),
    (*_SPREAD, np.zeros(4, bool), 0.0),
], ids=["all-tied", "all-in-class", "no-in-class"])
def test_best_f1_edge_cases(s1, s2, truth, want):
    assert _best_f1(s1, s2, 0.3, truth) == _best_f1_by_cut(s1, s2, 0.3, truth) == want


def test_best_f1_of_no_rows_is_zero():
    assert _best_f1(np.array([]), np.array([]), 0.3, np.array([], dtype=bool)) == 0.0


# ---------------------------------------------------------------------------
# bench-uci


def test_bench_missing_config_dir_exits_1(tmp_path):
    assert main(["bench-uci", "--config-dir", str(tmp_path / "none")]) == 1


def test_bench_empty_config_dir_exits_1(tmp_path):
    assert main(["bench-uci", "--config-dir", str(tmp_path)]) == 1


def test_bench_skips_datasets_without_csv(tmp_path, capsys):
    cfg = {"name": "ghost", "csv": "ghost.csv", "label_column": 4, "target": "a"}
    (tmp_path / "ghost.json").write_text(json.dumps(cfg))
    rc = main(["bench-uci", "--config-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "skipped" in out
    assert "nothing benchmarked" in out


def test_bench_bad_config_exits_1(tmp_path):
    (tmp_path / "bad.json").write_text("{\"name\": \"x\"}")
    assert main(["bench-uci", "--config-dir", str(tmp_path)]) == 1


def test_bench_non_object_config_exits_1(tmp_path, capsys):
    (tmp_path / "list.json").write_text("[1, 2]")
    assert main(["bench-uci", "--config-dir", str(tmp_path)]) == 1
    assert "top level must be an object" in capsys.readouterr().err


def test_bench_deeply_nested_config_exits_1(tmp_path, capsys):
    (tmp_path / "deep.json").write_text("[" * 5000 + "]" * 5000)
    assert main(["bench-uci", "--config-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "input error: bad dataset config" in err
    assert "Traceback" not in err


def test_bench_non_numeric_kernel_parameter_exits_1(tmp_path, capsys):
    cfg = {"name": "x", "csv": "x.csv", "label_column": 0, "target": "a",
           "kernel": {"sigma": "abc"}}
    (tmp_path / "x.json").write_text(json.dumps(cfg))
    assert main(["bench-uci", "--config-dir", str(tmp_path)]) == 1
    assert "bad dataset config" in capsys.readouterr().err


@pytest.mark.parametrize("kernel_text", [
    '{"sgima": 0.5}',
    '{"family": "polynomial", "degree": 1e999}',
    '[1, 2]',
    '"rbf"',
    '{"family": "polynomial", "sigma": "abc"}',
], ids=["misspelt-key", "infinite-degree", "list-block", "string-block", "text-sigma"])
def test_bench_bad_kernel_block_exits_1(tmp_path, capsys, kernel_text):
    cfg = ('{"name": "x", "csv": "x.csv", "label_column": 0, "target": "a", '
           f'"kernel": {kernel_text}}}')
    (tmp_path / "x.json").write_text(cfg)
    assert main(["bench-uci", "--config-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "input error: bad dataset config" in err
    assert "Traceback" not in err


def test_shipped_bench_configs_parse_to_the_cubic_polynomial_kernel(tmp_path, monkeypatch):
    # Each shipped config runs against a stand-in CSV, and the kernel that
    # reaches the benchmark loop is recorded.
    shipped = sorted((Path(__file__).resolve().parents[1] / "bench" / "uci").glob("*.json"))
    assert shipped
    (tmp_path / "data.csv").write_text("0.0\n")
    for path in shipped:
        doc = json.loads(path.read_text())
        doc["csv"] = "data.csv"
        (tmp_path / path.name).write_text(json.dumps(doc))
    kernels = []

    def bench_one(ds, target, seeds, kernel):
        kernels.append(kernel)
        return np.zeros(1), np.zeros(1)

    monkeypatch.setattr(ocds.cli, "load_csv", lambda *args, **kwargs: None)
    monkeypatch.setattr(ocds.cli, "_bench_one", bench_one)
    assert main(["bench-uci", "--config-dir", str(tmp_path), "--seeds", "1"]) == 0
    assert kernels == [KernelSpec("polynomial", 0.1, 3, 1.0)] * len(shipped)


def test_bench_toy_dataset_end_to_end(tmp_path, capsys):
    rng = np.random.default_rng(0)
    rows = []
    for label, center in (("a", 1.5), ("b", -1.5)):
        block = rng.standard_normal((60, 4)) * 0.3 + center
        rows += [",".join(repr(float(v)) for v in r) + f",{label}" for r in block]
    (tmp_path / "toy.csv").write_text("\n".join(rows) + "\n")
    cfg = {"name": "toy", "csv": "toy.csv", "label_column": 4, "target": "a",
           "kernel": {"family": "rbf", "sigma": 0.1}}
    (tmp_path / "toy.json").write_text(json.dumps(cfg))
    table = tmp_path / "table.md"
    rc = main(["bench-uci", "--config-dir", str(tmp_path), "--seeds", "2",
               "--out", str(table)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "toy: gods F1" in out
    assert "| toy |" in table.read_text()


# ---------------------------------------------------------------------------
# flag validation: bad values are input errors (exit 1), never tracebacks


def _gods(workdir, tmp_path, *flags):
    return ["train", "--data", str(workdir / "gauss.csv"), "--variant", "gods", "--k", "2",
            "--max-iters", "5", "--out", str(tmp_path / "m.json"), *flags]


def _kods(workdir, tmp_path, *flags):
    return ["train", "--data", str(workdir / "gauss.csv"), "--variant", "kods", "--k", "2",
            "--max-iters", "5", "--out", str(tmp_path / "m.json"), *flags]


def _bench(tmp_path, *flags):
    # A runnable config, so only the flag can stop the run.
    x = np.random.default_rng(0).uniform(0.5, 1.5, (40, 3))
    rows = [",".join(map(repr, r.tolist())) + (",a" if i % 2 else ",b") for i, r in enumerate(x)]
    (tmp_path / "toy.csv").write_text("\n".join(rows) + "\n")
    cfg = {"name": "toy", "csv": "toy.csv", "label_column": 3, "target": "a"}
    (tmp_path / "toy.json").write_text(json.dumps(cfg))
    return ["bench-uci", "--config-dir", str(tmp_path), *flags]


BAD_FLAGS = {
    "max-iters -1": lambda w, t: _gods(w, t, "--max-iters", "-1"),
    "gods seed -1": lambda w, t: _gods(w, t, "--seed", "-1"),
    "kods seed -1": lambda w, t: _kods(w, t, "--seed", "-1"),
    "seed 1.5": lambda w, t: _gods(w, t, "--seed", "1.5"),
    "synth seed -1": lambda w, t: ["synth", "--kind", "ring", "--n", "5", "--seed", "-1",
                                   "--out", str(t / "r.csv")],
    "gradcheck seed -1": lambda w, t: ["gradcheck", "--seed", "-1"],
    "bench seeds 0": lambda w, t: _bench(t, "--seeds", "0"),
    "eta nan": lambda w, t: _gods(w, t, "--eta", "nan"),
    "eta inf": lambda w, t: _gods(w, t, "--eta", "inf"),
    "nu nan": lambda w, t: _gods(w, t, "--nu", "nan"),
    "p-norm nan": lambda w, t: _gods(w, t, "--variant", "gods_n", "--p-norm", "nan"),
    "lambda nan": lambda w, t: _gods(w, t, "--variant", "gods_e", "--lambda", "nan"),
    "kods eta nan": lambda w, t: _kods(w, t, "--eta", "nan"),
    "offset nan": lambda w, t: _kods(w, t, "--kernel", "polynomial", "--offset", "nan"),
    "sigma inf": lambda w, t: _kods(w, t, "--sigma", "inf"),
    "sigma 1e-200": lambda w, t: _kods(w, t, "--sigma", "1e-200"),
    "sigma 1e-160": lambda w, t: _kods(w, t, "--sigma", "1e-160"),
    "synth d 0": lambda w, t: ["synth", "--kind", "gaussian", "--n", "5", "--d", "0",
                               "--out", str(t / "g.csv")],
    "synth cov -1": lambda w, t: ["synth", "--kind", "gaussian", "--n", "5", "--cov", "-1",
                                  "--out", str(t / "g.csv")],
}


@pytest.mark.parametrize("case", list(BAD_FLAGS))
def test_bad_flag_values_exit_1(workdir, tmp_path, capsys, case):
    rc = main(BAD_FLAGS[case](workdir, tmp_path))
    err = capsys.readouterr().err
    assert rc == 1
    assert "input error" in err or "error: argument" in err
    assert "Traceback" not in err
    assert not (tmp_path / "m.json").exists()


# ---------------------------------------------------------------------------
# top level


def test_help_exits_0():
    assert main(["--help"]) == 0


HELP_DEFAULTS = {
    "train": [("--variant", GodsHyper.variant), ("--kernel", KernelSpec.family),
              ("--sigma", KernelSpec.sigma), ("--degree", KernelSpec.degree),
              ("--offset", KernelSpec.offset), ("--k", GodsHyper.k), ("--eta", GodsHyper.eta),
              ("--nu", GodsHyper.nu), ("--lambda", GodsHyper.lam),
              ("--p-norm", GodsHyper.p_norm), ("--max-iters", SolverConfig.max_iters)],
    "synth": [(f"--{name.replace('_', '-')}", default)
              for params in SYNTH_PARAMS.values() for name, default in params.items()],
}


@pytest.mark.parametrize("command", list(HELP_DEFAULTS))
def test_help_shows_the_library_defaults(capsys, command):
    assert main([command, "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    for flag, default in HELP_DEFAULTS[command]:
        pattern = rf"{flag} \S+ [^()]*\(default: {re.escape(str(default))}[;)]"
        assert re.search(pattern, text), (flag, default)


def test_unknown_command_exits_1():
    assert main(["frobnicate"]) == 1


def test_no_arguments_exits_1():
    assert main([]) == 1


def test_console_script_is_installed(tmp_path):
    proc = subprocess.run([sys.executable, "-m", "ocds.cli", "synth", "--kind", "ring",
                           "--n", "5", "--out", str(tmp_path / "r.csv")],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert (tmp_path / "r.csv").exists()
