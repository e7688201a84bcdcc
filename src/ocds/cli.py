"""Command-line interface.

Subcommands: train, predict, eval, calibrate, synth, gradcheck, bench-uci.
Exit codes: 0 on success, 1 for input problems (files, schemas, shapes,
labels, flags), 2 for numeric failures (non-finite values, conditioning,
gradient-check failures).
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from . import errors
from .data import SYNTH_KINDS, SYNTH_PARAMS, Dataset, load_csv, one_class_split, synth, write_csv
from .inference import _cut_counts, anomaly_score, calibrate_eta, classify, compute_metrics, roc_points
from .kernels import FAMILIES, KernelSpec, ensure_pd, gram
from .kods import KodsHyper, KodsModel, build_kods_problem, kods_scores_batch, kods_train
from .persistence import data_fingerprint, load_model, save_model
from .primal import (
    VARIANTS,
    GodsHyper,
    TrainedPrimalModel,
    build_primal_problem,
    primal_scores_batch,
    train_primal,
)
from .solver import SolveReport, SolverConfig, fd_gradient_check

GRADCHECK_TOL = 1e-5
_INPUT_ERRORS = errors.INPUT_ERRORS + (OSError,)
_NUMERIC_ERRORS = errors.NUMERIC_ERRORS + (np.linalg.LinAlgError,)


def _int_at_least(low: int):
    """argparse type for integers >= low; anything else is a usage error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def _add_hyper_flags(p: argparse.ArgumentParser) -> None:
    # Flags left unset stay None, so the dataclasses apply their own defaults.
    p.add_argument("--variant", default=GodsHyper.variant, choices=list(VARIANTS) + ["kods"],
                   help=f"model variant (default: {GodsHyper.variant})")
    p.add_argument("--kernel", dest="family", choices=list(FAMILIES),
                   help=f"kernel family for kods (default: {KernelSpec.family})")
    p.add_argument("--sigma", type=float, help=f"rbf bandwidth (default: {KernelSpec.sigma})")
    p.add_argument("--degree", type=int, help=f"polynomial degree (default: {KernelSpec.degree})")
    p.add_argument("--offset", type=float, help=f"polynomial offset (default: {KernelSpec.offset})")
    p.add_argument("--k", type=int,
                   help=f"number of components per frame (default: {GodsHyper.k}; bods forces 1)")
    p.add_argument("--eta", type=float, help=f"margin threshold (default: {GodsHyper.eta})")
    p.add_argument("--nu", type=float, help=f"hinge weight (default: {GodsHyper.nu})")
    p.add_argument("--lambda", dest="lam", type=float,
                   help=f"penalty weight (default: {GodsHyper.lam})")
    p.add_argument("--p-norm", type=float,
                   help=f"scale-penalty norm order for gods_n (default: {GodsHyper.p_norm})")
    p.add_argument("--seed", type=_int_at_least(0), default=0, help="PRNG seed (default: 0)")
    p.add_argument("--no-normalize", dest="normalize", action="store_false", default=None,
                   help="skip l2 normalization of feature rows")
    p.add_argument("--max-iters", type=_int_at_least(0),
                   help=f"solver iteration cap (default: {SolverConfig.max_iters})")


def _given(args, names) -> dict:
    """The flags among names, or among the fields of dataclass names, that
    were given on the command line."""
    if isinstance(names, type):
        names = [f.name for f in fields(names)]
    return {n: getattr(args, n) for n in names if getattr(args, n, None) is not None}


def _load_labeled(args, need_labels: bool) -> Dataset:
    label_col = getattr(args, "label_column", None)
    if need_labels and label_col is None:
        raise errors.SchemaError("this command needs --label-column")
    col: int | str | None = label_col
    if isinstance(col, str):
        try:
            col = int(col)
        except ValueError:
            pass  # treat as a header name
    return load_csv(args.data, label_column=col,
                    delimiter=args.delimiter, has_header=args.header)


def _training_matrix(ds: Dataset, args) -> np.ndarray:
    if ds.labels is None:
        return ds.features
    if args.target is None:
        raise errors.SchemaError(
            "the data file has labels; give --target to pick the training class"
        )
    mask = ds.labels == args.target
    if not mask.any():
        raise errors.DataError(f"target label {args.target!r} not present in {args.data}")
    return ds.features[mask]


def _score_file(args, need_labels: bool):
    """(model, dataset, s1, s2): the --model file's scores on the --data rows.
    The steps are module globals looked up at call time, so tracing can wrap them."""
    model = load_model(args.model)
    ds = _load_labeled(args, need_labels)
    if isinstance(model, KodsModel):
        s1, s2 = kods_scores_batch(model, ds.features)
    else:
        s1, s2 = primal_scores_batch(model, ds.features)
    return model, ds, s1, s2


def _write_out(text: str, out, what: str) -> None:
    """Write text to the file out and say so, or to stdout without one."""
    if out:
        Path(out).write_text(text)
        print(f"wrote {what} -> {out}")
    else:
        sys.stdout.write(text)


# The hyperparameter fields each variant reads; a flag for any other field
# would have no effect.
_PRIMAL = ("variant", "k", "eta", "nu", "normalize")
_VARIANT_FIELDS = {
    "bods": _PRIMAL,
    "gods": _PRIMAL,
    "gods_n": (*_PRIMAL, "lam", "p_norm"),
    "gods_o": (*_PRIMAL, "lam"),
    "gods_e": (*_PRIMAL, "lam"),
    "kods": ("variant", *(f.name for f in fields(KodsHyper) + fields(KernelSpec))),
}
_FLAG_NAMES = {"family": "--kernel", "lam": "--lambda"}


def cmd_train(args) -> int:
    given = set(_given(args, GodsHyper)) | set(_given(args, KernelSpec))
    foreign = given - set(_VARIANT_FIELDS[args.variant])
    if foreign:
        flags = sorted(_FLAG_NAMES.get(n, "--" + n.replace("_", "-")) for n in foreign)
        raise errors.SchemaError(f"--variant {args.variant} does not take {', '.join(flags)}")
    ds = _load_labeled(args, need_labels=False)
    x = _training_matrix(ds, args)
    cfg = SolverConfig(**_given(args, SolverConfig))
    if args.variant == "kods":
        kernel = KernelSpec(**_given(args, KernelSpec))
        hyper = KodsHyper(**_given(args, KodsHyper))
        model, report = kods_train(x, kernel, hyper, cfg, seed=args.seed)
    else:
        hyper = _given(args, GodsHyper)
        if args.variant == "bods":
            hyper.setdefault("k", 1)
        model, report = train_primal(x, GodsHyper(**hyper), cfg, seed=args.seed)

    fingerprint = {"seed": args.seed, "data_sha256": data_fingerprint(x)}
    save_model(model, args.out, fingerprint=fingerprint)
    report_doc = {
        "variant": args.variant,
        "n_train": int(x.shape[0]),
        "feature_dim": int(x.shape[1]),
        **{name: getattr(report, name)
           for name, attr in vars(SolveReport).items() if isinstance(attr, property)},
        **asdict(report),
    }
    report_path = Path(str(args.out) + ".report.json")
    report_path.write_text(json.dumps(report_doc, indent=1) + "\n")
    print(
        f"trained {args.variant} on {x.shape[0]} rows: "
        f"{report.iterations} iterations, converged={report.converged} "
        f"(stop: {report.stop_reason}), "
        f"final objective {report.objective_trace[-1]:.6g} -> {args.out}"
    )
    return 0


def cmd_predict(args) -> int:
    model, ds, s1, s2 = _score_file(args, need_labels=False)
    eta = model.eta_effective
    in_class = classify(s1, s2, eta)
    scores = anomaly_score(s1, s2, eta)
    lines = ["s1,s2,anomaly_score,label"]
    for a, b, score, ok in zip(s1.tolist(), s2.tolist(), scores.tolist(), in_class.tolist()):
        lines.append(f"{a!r},{b!r},{score!r},{'in-class' if ok else 'anomaly'}")
    _write_out("\n".join(lines) + "\n", args.out, f"{ds.n} predictions")
    return 0


def cmd_eval(args) -> int:
    if args.target is None:
        raise errors.SchemaError("eval needs --target naming the in-class label")
    model, ds, s1, s2 = _score_file(args, need_labels=True)
    eta = model.eta_effective
    preds = classify(s1, s2, eta)
    scores = anomaly_score(s1, s2, eta)
    truth = ds.labels == args.target
    if not truth.any():
        raise errors.DataError(f"target label {args.target!r} not present in the data")
    report = compute_metrics(preds, truth, scores=scores, threshold=eta)
    if args.roc:
        fpr, tpr = roc_points(truth, scores)  # raises before anything is written
    doc = {
        "n": int(ds.n),
        "n_in_class": int(truth.sum()),
        "n_anomalous": int((~truth).sum()),
        "threshold": report.threshold,  # listed here so it precedes the metrics
        **asdict(report),
    }
    _write_out(json.dumps(doc, indent=1) + "\n", args.out, "evaluation report")
    if args.roc:
        roc_text = "fpr,tpr\n" + "\n".join(
            f"{float(f)!r},{float(t)!r}" for f, t in zip(fpr, tpr)
        ) + "\n"
        Path(args.roc).write_text(roc_text)
        print(f"wrote {fpr.size} roc points -> {args.roc}")
    return 0


def cmd_calibrate(args) -> int:
    model, ds, s1, s2 = _score_file(args, need_labels=True)
    distinct = set(ds.labels.tolist())
    if len(distinct) < 2:
        raise errors.DataError(
            f"calibration needs a validation set with both classes; found labels {sorted(distinct)}"
        )
    eta = model.eta_effective
    eta_prime = calibrate_eta(s1, s2, eta)
    calibrated = replace(model, eta_effective=float(eta_prime))
    save_model(
        calibrated,
        args.out,
        fingerprint={
            "calibrated_from": str(args.model),
            "eta_before": float(eta),
            "eta_after": float(eta_prime),
        },
    )
    print(f"calibrated threshold: {eta:.6g} -> {eta_prime:.6g}; wrote {args.out}")
    return 0


def cmd_synth(args) -> int:
    names = {name for params in SYNTH_PARAMS.values() for name in params}
    ds = synth(args.kind, args.n, seed=args.seed, **_given(args, names))
    write_csv(ds, args.out)
    print(f"wrote {ds.n} x {ds.dim} {args.kind} rows -> {args.out}")
    return 0


def _gradcheck_entries(seed: int):
    """(name, max relative error) for each objective at seeded feasible points."""
    rng_data = np.random.default_rng(seed)
    x = rng_data.standard_normal((12, 5))
    entries = []
    checks = []
    for variant in VARIANTS:
        k = 1 if variant == "bods" else 2
        hyper = GodsHyper(variant=variant, k=k, normalize=False)
        problem = build_primal_problem(x, hyper)
        checks.append((variant, problem.manifold, problem.objective))

    xk = rng_data.standard_normal((8, 3))
    kernel = KernelSpec(family="rbf", sigma=0.8)
    gram_pd, _ = ensure_pd(gram(kernel, xk))
    manifold_k, objective_k = build_kods_problem(gram_pd, KodsHyper(k=2))
    checks.append(("kods", manifold_k, objective_k))

    for name, manifold, objective in checks:
        worst = 0.0
        for trial in range(5):
            point = manifold.random_point(seed + 17 * trial)
            worst = max(worst, fd_gradient_check(objective, point))
        entries.append((name, worst))
    return entries


def cmd_gradcheck(args) -> int:
    entries = _gradcheck_entries(args.seed)
    failed = False
    for name, err in entries:
        ok = err <= GRADCHECK_TOL
        failed = failed or not ok
        print(f"{name:8s} max rel err {err:.3e}  {'PASS' if ok else 'FAIL'}")
    if failed:
        print(f"gradient check FAILED (tolerance {GRADCHECK_TOL:g})", file=sys.stderr)
        return 2
    print(f"all {len(entries)} objectives within {GRADCHECK_TOL:g}")
    return 0


def _best_f1(s1: np.ndarray, s2: np.ndarray, eta: float, truth: np.ndarray) -> float:
    """Best F1 over the anomaly-score sweep.

    The squared-hinge training objective settles the min-responses at
    eta*nu/(1+nu), strictly inside the margin, so thresholding the raw
    scores at eta itself rejects most in-class points for any finite nu.
    The benchmark therefore reports each split's best operating point on
    the scalar score, the threshold-free summary the table targets.

    Each distinct score is a cut predicting in-class for score <= cut; the
    threshold sweep's counts give every cut's compute_metrics F1.
    """
    tp, fp = _cut_counts(truth, anomaly_score(s1, s2, eta))
    fn = tp[-1:] - tp  # tp[-1] counts every in-class row; no rows, no cuts
    # Every cut predicts at least one row in-class, so 2tp + fp >= 1.
    return float((2 * tp / (2 * tp + fp + fn)).max(initial=0.0))


def _bench_one(ds: Dataset, target: str, seeds: int, kernel: KernelSpec):
    gods_f1, kods_f1 = [], []
    for seed in range(seeds):
        train_ds, test_ds = one_class_split(ds, target, ratio=0.7, seed=seed)
        truth = test_ds.labels == target

        model_g, _ = train_primal(train_ds.features, GodsHyper(variant="gods"), seed=seed)
        s1, s2 = primal_scores_batch(model_g, test_ds.features)
        gods_f1.append(_best_f1(s1, s2, model_g.eta_effective, truth))

        model_k, _ = kods_train(train_ds.features, kernel, KodsHyper(), seed=seed)
        s1, s2 = kods_scores_batch(model_k, test_ds.features)
        kods_f1.append(_best_f1(s1, s2, model_k.eta_effective, truth))
    return np.asarray(gods_f1), np.asarray(kods_f1)


def _dataset_config(path: Path):
    """(name, csv path, load_csv keyword arguments, target label, KernelSpec)
    from one bench-uci dataset config; a relative csv path is taken from
    the config's directory. A config that does not parse raises SchemaError."""
    try:
        doc = json.loads(path.read_text())
        if not isinstance(doc, dict):
            raise TypeError(f"top level must be an object, got {type(doc).__name__}")
        load_args = {"label_column": doc["label_column"],
                     "delimiter": doc.get("delimiter", ","),
                     "has_header": doc.get("has_header", False)}
        return (doc.get("name", path.stem), path.parent / doc["csv"], load_args,
                str(doc["target"]), KernelSpec(**doc.get("kernel", {})))
    except (AttributeError, KeyError, TypeError, ValueError, RecursionError) as exc:
        # TypeError covers a kernel block that is not an object or has an
        # unknown key; ValueError, bad JSON and bad kernel parameters;
        # RecursionError, JSON nested deeper than the parser's stack.
        raise errors.SchemaError(f"bad dataset config {path}: {exc}") from None


def cmd_bench_uci(args) -> int:
    config_dir = Path(args.config_dir)
    if not config_dir.is_dir():
        raise errors.DataError(f"config directory not found: {config_dir}")
    configs = sorted(config_dir.glob("*.json"))
    if not configs:
        raise errors.DataError(f"no dataset configs (*.json) in {config_dir}")

    rows = []
    for cfg_path in configs:
        name, csv_path, load_args, target, kernel = _dataset_config(cfg_path)
        if not csv_path.exists():
            print(f"{name}: skipped (csv not found at {csv_path})")
            continue
        ds = load_csv(csv_path, **load_args)
        gods_f1, kods_f1 = _bench_one(ds, target, args.seeds, kernel)
        rows.append((name, gods_f1, kods_f1))
        print(
            f"{name}: gods F1 {gods_f1.mean():.3f} +/- {gods_f1.std():.3f}, "
            f"kods F1 {kods_f1.mean():.3f} +/- {kods_f1.std():.3f} "
            f"({args.seeds} seeds)"
        )

    if rows:
        lines = [
            "| dataset | gods F1 | kods F1 |",
            "|---|---|---|",
        ]
        for name, g, k in rows:
            lines.append(
                f"| {name} | {g.mean():.3f} +/- {g.std():.3f} "
                f"| {k.mean():.3f} +/- {k.std():.3f} |"
            )
        table = "\n".join(lines) + "\n"
        sys.stdout.write(table)
        if args.out:
            Path(args.out).write_text(table)
            print(f"wrote benchmark table -> {args.out}")
    else:
        print("no datasets were available; nothing benchmarked")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ocds",
        description="Train and evaluate complementary-classifier one-class models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_data_flags(p, with_target: bool = True):
        p.add_argument("--data", required=True, help="CSV file of feature rows")
        p.add_argument("--label-column", default=None,
                       help="label column: 0-based index, or name with --header")
        p.add_argument("--delimiter", default=",", help="CSV delimiter (default: ,)")
        p.add_argument("--header", action="store_true", help="first CSV row is a header")
        if with_target:
            p.add_argument("--target", default=None, help="label value of the in-class rows")

    p_train = sub.add_parser("train", help="fit a model on one-class data")
    add_data_flags(p_train)
    _add_hyper_flags(p_train)
    p_train.add_argument("--out", required=True, help="path for the model file")
    p_train.set_defaults(func=cmd_train)

    p_pred = sub.add_parser("predict", help="score rows with a trained model")
    p_pred.add_argument("--model", required=True)
    add_data_flags(p_pred, with_target=False)
    p_pred.add_argument("--out", default=None, help="write predictions here instead of stdout")
    p_pred.set_defaults(func=cmd_predict)

    p_eval = sub.add_parser("eval", help="evaluate a model on labeled data")
    p_eval.add_argument("--model", required=True)
    add_data_flags(p_eval)
    p_eval.add_argument("--out", default=None, help="write the JSON report here")
    p_eval.add_argument("--roc", default=None, help="write ROC points (fpr,tpr CSV) here")
    p_eval.set_defaults(func=cmd_eval)

    p_cal = sub.add_parser("calibrate", help="refine the threshold on validation data")
    p_cal.add_argument("--model", required=True)
    add_data_flags(p_cal, with_target=False)
    p_cal.add_argument("--out", required=True, help="path for the recalibrated model file")
    p_cal.set_defaults(func=cmd_calibrate)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset CSV")
    p_synth.add_argument("--kind", required=True, choices=list(SYNTH_KINDS))
    p_synth.add_argument("--n", type=int, required=True)
    p_synth.add_argument("--seed", type=_int_at_least(0), default=0)
    # Per-kind flags stay None unless given; synth rejects one its kind does not take.
    g, r = SYNTH_PARAMS["gaussian"], SYNTH_PARAMS["ring3d"]
    p_synth.add_argument("--d", type=int, help=f"gaussian dimension (default: {g['d']})")
    p_synth.add_argument("--mean", type=float, help=f"gaussian mean (default: {g['mean']})")
    p_synth.add_argument("--cov", type=float, help=f"gaussian variance (default: {g['cov']})")
    p_synth.add_argument("--r-in", type=float, help=f"ring inner radius (default: {r['r_in']})")
    p_synth.add_argument("--r-out", type=float, help=f"ring outer radius (default: {r['r_out']})")
    p_synth.add_argument("--height", type=float, help=f"ring3d thickness (default: {r['height']})")
    p_synth.add_argument("--out", required=True)
    p_synth.set_defaults(func=cmd_synth)

    p_gc = sub.add_parser("gradcheck", help="finite-difference check of every objective")
    p_gc.add_argument("--seed", type=_int_at_least(0), default=0)
    p_gc.set_defaults(func=cmd_gradcheck)

    p_bench = sub.add_parser("bench-uci", help="one-class benchmark over configured datasets")
    p_bench.add_argument("--config-dir", required=True,
                         help="directory of per-dataset JSON configs")
    p_bench.add_argument("--seeds", type=_int_at_least(1), default=5)
    p_bench.add_argument("--out", default=None, help="write the markdown table here")
    p_bench.set_defaults(func=cmd_bench_uci)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; bad flags are input problems here.
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except _NUMERIC_ERRORS as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 2
    except _INPUT_ERRORS as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
