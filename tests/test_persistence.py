"""Model file round trips, byte determinism, schema validation, fingerprints."""
import json

import numpy as np
import pytest

from ocds.cli import main
from ocds.data import synth
from ocds.errors import SchemaError
from ocds.kernels import KernelSpec
from ocds.kods import KodsHyper, kods_scores_batch, kods_train
from ocds.persistence import SCHEMA_VERSION, data_fingerprint, load_model, save_model
from ocds.primal import GodsHyper, primal_scores_batch, train_primal
from ocds.solver import SolverConfig

CFG = SolverConfig(max_iters=80)


@pytest.fixture(scope="module")
def gods_model():
    x = synth("gaussian", 40, seed=0, d=3, mean=1.5, cov=0.2).features
    model, _ = train_primal(x, GodsHyper(variant="gods", k=2), cfg=CFG, seed=0)
    return model


@pytest.fixture(scope="module")
def kods_model():
    x = synth("gaussian", 25, seed=1, d=3, mean=1.5, cov=0.2).features
    model, _ = kods_train(x, KernelSpec(family="rbf", sigma=0.8), KodsHyper(k=2), cfg=CFG, seed=0)
    return model


def test_schema_version_is_one():
    assert SCHEMA_VERSION == 1


def test_primal_round_trip_is_bit_exact(gods_model, tmp_path):
    path = tmp_path / "m.json"
    save_model(gods_model, path)
    back = load_model(path)
    np.testing.assert_array_equal(back.frames.w1, gods_model.frames.w1)
    np.testing.assert_array_equal(back.frames.b1, gods_model.frames.b1)
    np.testing.assert_array_equal(back.frames.w2, gods_model.frames.w2)
    np.testing.assert_array_equal(back.frames.b2, gods_model.frames.b2)
    assert back.hyper == gods_model.hyper
    assert back.eta_effective == gods_model.eta_effective
    assert back.feature_dim == gods_model.feature_dim
    assert back.normalization == gods_model.normalization


def test_primal_round_trip_scores_match_bitwise(gods_model, tmp_path):
    path = tmp_path / "m.json"
    save_model(gods_model, path)
    back = load_model(path)
    pts = np.random.default_rng(9).standard_normal((100, 3))
    s1a, s2a = primal_scores_batch(gods_model, pts)
    s1b, s2b = primal_scores_batch(back, pts)
    np.testing.assert_array_equal(s1a, s1b)
    np.testing.assert_array_equal(s2a, s2b)


def test_scaled_variant_keeps_its_scale_vectors(tmp_path):
    x = synth("gaussian", 30, seed=2, d=3, mean=1.2, cov=0.3).features
    model, _ = train_primal(x, GodsHyper(variant="gods_n", k=2), cfg=CFG, seed=0)
    path = tmp_path / "n.json"
    save_model(model, path)
    back = load_model(path)
    assert back.frames.r1 is not None
    np.testing.assert_array_equal(back.frames.r1, model.frames.r1)
    np.testing.assert_array_equal(back.frames.r2, model.frames.r2)


def test_plain_variant_round_trips_without_scales(gods_model, tmp_path):
    path = tmp_path / "m.json"
    save_model(gods_model, path)
    assert load_model(path).frames.r1 is None


def test_kods_round_trip_is_bit_exact(kods_model, tmp_path):
    path = tmp_path / "k.json"
    save_model(kods_model, path)
    back = load_model(path)
    np.testing.assert_array_equal(back.duals.y, kods_model.duals.y)
    np.testing.assert_array_equal(back.duals.z, kods_model.duals.z)
    np.testing.assert_array_equal(back.support, kods_model.support)
    np.testing.assert_array_equal(back.b1, kods_model.b1)
    np.testing.assert_array_equal(back.b2, kods_model.b2)
    assert back.kernel == kods_model.kernel
    assert back.jitter == kods_model.jitter
    assert back.hyper == kods_model.hyper


def test_kods_round_trip_scores_match_bitwise(kods_model, tmp_path):
    path = tmp_path / "k.json"
    save_model(kods_model, path)
    back = load_model(path)
    pts = np.random.default_rng(10).standard_normal((100, 3))
    s1a, s2a = kods_scores_batch(kods_model, pts)
    s1b, s2b = kods_scores_batch(back, pts)
    np.testing.assert_array_equal(s1a, s1b)
    np.testing.assert_array_equal(s2a, s2b)


def test_repeated_saves_are_byte_identical(gods_model, tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_model(gods_model, p1)
    save_model(gods_model, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_retraining_with_one_seed_gives_one_file(tmp_path):
    x = synth("gaussian", 30, seed=3, d=3, mean=1.5, cov=0.2).features
    paths = []
    for name in ("r1.json", "r2.json"):
        model, _ = train_primal(x, GodsHyper(variant="gods", k=2), cfg=CFG, seed=4)
        save_model(model, tmp_path / name)
        paths.append(tmp_path / name)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_file_is_sorted_indented_json(gods_model, tmp_path):
    path = tmp_path / "m.json"
    save_model(gods_model, path)
    text = path.read_text()
    assert text.endswith("\n")
    doc = json.loads(text)
    assert doc["schema_version"] == SCHEMA_VERSION
    assert list(doc) == sorted(doc)


def test_fingerprint_block_is_written_when_given(gods_model, tmp_path):
    path = tmp_path / "m.json"
    save_model(gods_model, path, fingerprint={"seed": 7, "data_sha256": "ab" * 32})
    doc = json.loads(path.read_text())
    assert doc["fingerprint"] == {"seed": 7, "data_sha256": "ab" * 32}


# ---------------------------------------------------------------------------
# fingerprint


def test_fingerprint_is_deterministic_and_content_sensitive():
    x = np.arange(6.0).reshape(2, 3)
    f = data_fingerprint(x)
    assert f == data_fingerprint(x.copy())
    assert len(f) == 64
    y = x.copy()
    y[0, 0] += 1e-12
    assert data_fingerprint(y) != f


def test_fingerprint_distinguishes_shapes_with_equal_bytes():
    x = np.arange(6.0)
    assert data_fingerprint(x.reshape(2, 3)) != data_fingerprint(x.reshape(3, 2))


# ---------------------------------------------------------------------------
# schema failures


def test_missing_file_raises(tmp_path):
    with pytest.raises(SchemaError, match="no such model file"):
        load_model(tmp_path / "absent.json")


def test_invalid_json_raises(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{ not json")
    with pytest.raises(SchemaError, match="not valid JSON"):
        load_model(p)


def test_non_object_top_level_raises(tmp_path):
    p = tmp_path / "list.json"
    p.write_text("[1, 2]")
    with pytest.raises(SchemaError, match="top level"):
        load_model(p)


def test_wrong_schema_version_raises(gods_model, tmp_path):
    p = tmp_path / "v.json"
    save_model(gods_model, p)
    doc = json.loads(p.read_text())
    doc["schema_version"] = 99
    p.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="schema_version 99"):
        load_model(p)


def test_unknown_kind_raises(tmp_path):
    p = tmp_path / "kind.json"
    p.write_text(json.dumps({"schema_version": SCHEMA_VERSION, "kind": "mystery"}))
    with pytest.raises(SchemaError, match="unknown kind 'mystery'"):
        load_model(p)


def test_missing_field_raises(gods_model, tmp_path):
    p = tmp_path / "field.json"
    save_model(gods_model, p)
    doc = json.loads(p.read_text())
    del doc["frames"]["w1"]
    p.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="missing field 'w1'"):
        load_model(p)


def test_corrupt_array_raises(gods_model, tmp_path):
    p = tmp_path / "arr.json"
    save_model(gods_model, p)
    doc = json.loads(p.read_text())
    doc["frames"]["w1"]["shape"] = [5, 5]  # no longer matches the payload
    p.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="bad array field 'w1'"):
        load_model(p)


def test_bad_hyper_block_raises(gods_model, tmp_path):
    p = tmp_path / "hyp.json"
    save_model(gods_model, p)
    doc = json.loads(p.read_text())
    del doc["hyper"]["eta"]
    p.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="bad hyper block"):
        load_model(p)


@pytest.mark.parametrize("model, field, value", [
    ("gods_model", "frames", 5),
    ("gods_model", "hyper", 5),
    ("gods_model", "feature_dim", "abc"),
    ("gods_model", "eta_effective", "abc"),
    ("kods_model", "duals", 5),
    ("kods_model", "kernel", 5),
    ("kods_model", "jitter", "abc"),
    ("kods_model", "eta_effective", [1.0]),
])
def test_malformed_field_raises(request, tmp_path, model, field, value):
    p = tmp_path / "malformed.json"
    save_model(request.getfixturevalue(model), p)
    doc = json.loads(p.read_text())
    doc[field] = value
    p.write_text(json.dumps(doc))
    with pytest.raises(SchemaError):
        load_model(p)


def test_unserializable_object_raises():
    with pytest.raises(SchemaError, match="cannot serialize"):
        save_model({"not": "a model"}, "/tmp/never.json")


# ---------------------------------------------------------------------------
# malformed files: wrong types, bad values, inconsistent shapes


def _set(*keys, value):
    def mutate(doc):
        for key in keys[:-1]:
            doc = doc[key]
        doc[keys[-1]] = value
    return mutate


def _transpose(*keys):
    def mutate(doc):
        for key in keys:
            doc = doc[key]
        rows, cols = doc["shape"]
        doc["data"] = np.reshape(doc["data"], (rows, cols)).T.ravel().tolist()
        doc["shape"] = [cols, rows]
    return mutate


def _stray_r1(doc):
    k = doc["hyper"]["k"]
    doc["frames"]["r1"] = {"shape": [k], "data": [2.0] * k}


def _nan_entry(doc):
    doc["frames"]["w1"]["data"][0] = float("nan")


MALFORMED = {
    "eta_effective_nan": ("gods_model", _set("eta_effective", value=float("nan"))),
    "eta_effective_negative": ("gods_model", _set("eta_effective", value=-1.0)),
    "jitter_nan": ("kods_model", _set("jitter", value=float("nan"))),
    "w1_transposed": ("gods_model", _transpose("frames", "w1")),
    "y_transposed": ("kods_model", _transpose("duals", "y")),
    "r1_without_r2": ("gods_model", _stray_r1),
    "kods_b1_1x1": ("kods_model", _set("b1", value={"shape": [1, 1], "data": [0.5]})),
    "w1_nan_entry": ("gods_model", _nan_entry),
    "variant_int": ("gods_model", _set("hyper", "variant", value=5)),
    "family_int": ("kods_model", _set("kernel", "family", value=5)),
    "k_fractional": ("gods_model", _set("hyper", "k", value=2.7)),
    "normalize_string": ("gods_model", _set("hyper", "normalize", value="no")),
    "kind_list": ("gods_model", _set("kind", value=[])),
}


def _malformed_file(request, tmp_path, case):
    fixture, mutate = MALFORMED[case]
    model = request.getfixturevalue(fixture)
    p = tmp_path / f"{case}.json"
    save_model(model, p)
    doc = json.loads(p.read_text())
    mutate(doc)
    p.write_text(json.dumps(doc))
    return p


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_file_raises_schema_error(request, tmp_path, case):
    with pytest.raises(SchemaError, match="model file"):
        load_model(_malformed_file(request, tmp_path, case))


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_file_fails_predict_with_exit_1(request, tmp_path, capsys, case):
    bad = _malformed_file(request, tmp_path, case)
    csv = tmp_path / "rows.csv"
    csv.write_text("0.5,1.0,1.5\n1.0,1.5,2.0\n")
    rc = main(["predict", "--model", str(bad), "--data", str(csv)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "input error: model file" in err
    assert "Traceback" not in err


def test_scaled_variant_needs_both_scale_vectors(tmp_path):
    x = synth("gaussian", 30, seed=2, d=3, mean=1.2, cov=0.3).features
    model, _ = train_primal(x, GodsHyper(variant="gods_n", k=2), cfg=CFG, seed=0)
    p = tmp_path / "n.json"
    save_model(model, p)
    doc = json.loads(p.read_text())
    del doc["frames"]["r2"]
    p.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="frames.r2"):
        load_model(p)


def test_integer_valued_float_fields_load_as_floats(gods_model, tmp_path):
    p = tmp_path / "int.json"
    save_model(gods_model, p)
    doc = json.loads(p.read_text())
    doc["hyper"]["nu"] = 2
    p.write_text(json.dumps(doc))
    back = load_model(p)
    assert back.hyper.nu == 2.0 and type(back.hyper.nu) is float
