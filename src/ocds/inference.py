"""Decision rule, threshold calibration, and evaluation metrics.

Scores come in pairs (s1, s2): s1 is the smallest response of the lower
classifier, s2 the largest response of the upper one. A point is in-class
when s1 >= eta and s2 <= -eta simultaneously. The in-class label is the
positive class for every metric here.

Both model families form their responses on one path. _response_block
multiplies a (2K, n) weight block, the lower classifier's K rows over
the upper's, by a family's tiles of the rows chunk by chunk: the frames
[W1 W2]^T times row slices for the primal models, the signed kernel
weights times cross-Gram chunks for KODS. The (2K, m) block it returns
is reduced to (s1, s2) by _extremes, and to the intercepts that put
every row of it inside both margins by _intercepts, the one intercept
rule.

Every ranking metric (roc_points, AUC, the CLI's best F1) reads one
threshold sweep, _cut_counts, which checks that the ground truth and the
scores are matching 1-D arrays and that every score is finite.

Undefined ratios (zero denominators) are reported as None rather than
being coerced to 0, so a degenerate evaluation is visible instead of
silently optimistic.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError, _check_number

__all__ = [
    "ConfusionCounts",
    "EvalReport",
    "classify",
    "anomaly_score",
    "two_means",
    "calibrate_eta",
    "compute_metrics",
    "roc_points",
    "ETA_FLOOR",
]

ETA_FLOOR = 1e-6  # calibrated thresholds are clamped here to stay positive
_TWO_MEANS_SCALE_ABOVE = 2.0**500  # two_means rescales values past this

# Operand entries per chunk in _response_block: 2**17 float64 values
# (1 MB), so a chunk's tile stays in cache between the pass that forms it
# (one cdist call for an rbf cross-Gram) and the product that reads it; a
# 600-row support set scores 218 query rows per chunk, and 60 features
# 2184 primal rows. When it was chosen on 600 x 20000 rbf scoring (one
# BLAS thread, median of 15 calls, 4 rounds), 2**16 and 2**18 timed 6%
# and 10% slower, 2**15 15%, 2**14 28% and 2**19 40% slower.
_RESPONSE_CHUNK = 1 << 17


@dataclass
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0


@dataclass
class EvalReport:
    accuracy: float
    f1: float | None
    f1bar: float | None
    tnr: float | None
    npv: float | None
    far: float | None
    auc: float | None
    confusion: ConfusionCounts
    threshold: float | None = None


def classify(s1, s2, eta: float):
    """True where the score pair satisfies both margins at threshold eta.
    s1 and s2 are scalars or matching arrays."""
    return np.logical_and(s1 >= eta, s2 <= -eta)


def _extremes(p: np.ndarray, k: int):
    """(s1, s2) of a (2K, m) response block, lower-classifier responses in
    rows :K and upper-classifier responses in rows K:: per column, the
    smallest of rows :K and the largest of rows K:. Both model families
    score through it."""
    return p[:k].min(axis=0), p[k:].max(axis=0)


def _chunk_rows(n: int) -> int:
    """Rows per chunk of _response_block for operands of n columns."""
    return max(1, _RESPONSE_CHUNK // max(n, 1))


def _response_block(w: np.ndarray, m: int, tile) -> np.ndarray:
    """The (2K, m) block w @ tile(rows).T of the weights w (2K, n) over m
    rows: the one path by which both families form responses. tile(rows)
    returns the (h, n) operand of the rows `rows`, a slice of at most
    _chunk_rows(n) rows; each chunk's product is written into its columns
    of the block, so no m x n operand is formed here. A column's bits
    depend on the rows sharing its chunk, so any chunk-aligned slice of
    the rows gets the very same columns."""
    step = _chunk_rows(w.shape[1])
    resp = np.empty((w.shape[0], m))
    for i in range(0, m, step):
        rows = slice(i, min(i + step, m))
        np.matmul(w, tile(rows).T, out=resp[:, rows])
    return resp


def _intercepts(block: np.ndarray, k: int, eta: float):
    """Intercepts (b1, b2) that put every column of a (2K, m) response
    block on the feasible side of both margins, with at least one column
    on each to within one ulp of the larger of eta and the intercept.

    b1 is eta - min(lower) and b2 is -eta - max(upper), per component.
    Either subtraction rounds, so the margin column's score min(lower) +
    b1 can land an ulp below eta (max(upper) + b2 above -eta); such an
    intercept moves to the next float inward. The rounding error is at
    most half the gap to that float, so the one move puts the margin
    column inside."""
    low, high = block[:k].min(axis=1), block[k:].max(axis=1)
    b1, b2 = eta - low, -eta - high
    return (np.where(low + b1 < eta, np.nextafter(b1, np.inf), b1),
            np.where(high + b2 > -eta, np.nextafter(b2, -np.inf), b2))


def anomaly_score(s1, s2, eta: float):
    """Worst margin violation, elementwise; <= 0 exactly for in-class
    points. s1 and s2 are scalars or matching arrays."""
    return np.maximum(eta - s1, s2 + eta)


def _finite_1d(values, what: str) -> np.ndarray:
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or not np.isfinite(v).all():
        raise DataError(f"{what} must be a 1-D array of finite values, got shape {v.shape}")
    return v


def two_means(values) -> tuple[float, float]:
    """Exact 1-D 2-means: score every split of the sorted values and return
    the (low mean, high mean) pair of the split with the smallest
    within-cluster sum of squares. Ties keep the first (smallest) split: the
    first whose sum is within 1e-15 * max(min(1, top)**2, |min|) of the
    minimum, top being the largest magnitude. Below top = 1 the floor
    scales with the values, so scaling them by a power of two scales the
    means by it.

    Values past 2**500 in magnitude are first brought below 1 by a power
    of two, and the means scaled back; values under 2**-1022 of the
    largest then lose bits. Sums of squares that still overflow (thousands
    of values near 2**500) raise DataError."""
    v = np.sort(_finite_1d(values, "two_means values"))
    n = v.size
    if n < 2 or v[0] == v[-1]:
        raise DataError("two_means needs at least two distinct values")
    shift = 0
    top = max(-v[0], v[-1])
    if top > _TWO_MEANS_SCALE_ABOVE:
        shift = int(np.frexp(top)[1])
        v = np.ldexp(v, -shift)
    # An optimal 1-D 2-means partition is always a split of the sorted order.
    i = np.arange(1, n)  # split i puts the first i values in the low cluster
    with np.errstate(over="ignore", invalid="ignore"):
        csum = np.cumsum(v)
        csq = np.cumsum(v * v)
        left_sum, left_sq = csum[:-1], csq[:-1]
        right_sum = csum[-1] - left_sum
        right_sq = csq[-1] - left_sq
        wcss = (left_sq - left_sum * left_sum / i) + (right_sq - right_sum * right_sum / (n - i))
    if not np.isfinite(wcss).all():
        raise DataError(
            f"two_means: sums of squares overflow for {n} values up to {top:.3g} in magnitude"
        )
    best = wcss.min()
    j = np.argmax(wcss <= best + 1e-15 * max(min(1.0, top) ** 2, abs(best)))
    return (float(np.ldexp(left_sum[j] / i[j], shift)),
            float(np.ldexp(right_sum[j] / (n - i[j]), shift)))


def calibrate_eta(scores_l, scores_u, eta: float) -> float:
    """Refined threshold from validation score lists.

    scores_l holds the lower-classifier responses (s1 values) of the whole
    validation set, scores_u the upper-classifier responses (s2 values).
    Each list is clustered into two groups; the adjustment moves eta by
    half the unsatisfied-margin gap of the cluster centers. Degenerate
    inputs (too few distinct or non-finite scores) leave eta unchanged
    with a warning; a non-finite or non-positive eta raises DomainError.
    """
    _check_number(eta, "eta", 0.0, strict=True)
    try:
        c_l = two_means(scores_l)
        c_u = two_means(scores_u)
    except DataError as exc:
        warnings.warn(f"calibrate_eta: {exc}; threshold left at {eta}", stacklevel=2)
        return float(eta)
    delta = 0.5 * (max(0.0, eta - min(c_l)) - max(0.0, eta + min(c_u)))
    eta_prime = float(eta + delta)
    if eta_prime < ETA_FLOOR:
        warnings.warn(
            f"calibrate_eta: adjusted threshold {eta_prime:.3e} clamped to {ETA_FLOOR}",
            stacklevel=2,
        )
        eta_prime = ETA_FLOOR
    return eta_prime


def _ratio(num: int, den: int) -> float | None:
    return num / den if den > 0 else None


def compute_metrics(
    predictions,
    ground_truth,
    scores=None,
    threshold: float | None = None,
) -> EvalReport:
    """Confusion counts and derived metrics; in-class is the positive class.

    predictions and ground_truth are boolean (True = in-class); scores, if
    given, are anomaly scores (higher = more anomalous) used for AUC.
    """
    pred = np.asarray(predictions, dtype=bool)
    truth = np.asarray(ground_truth, dtype=bool)
    if pred.shape != truth.shape or pred.ndim != 1:
        raise DataError(
            f"predictions and ground truth must be matching 1-D arrays, "
            f"got {pred.shape} and {truth.shape}"
        )
    if pred.size == 0:
        raise DataError("compute_metrics needs at least one example")

    tp = int(np.sum(pred & truth))
    fp = int(np.sum(pred & ~truth))
    tn = int(np.sum(~pred & ~truth))
    fn = int(np.sum(~pred & truth))
    counts = ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn)

    accuracy = (tp + tn) / pred.size
    f1 = _ratio(2 * tp, 2 * tp + fp + fn)
    tnr = _ratio(tn, tn + fp)
    npv = _ratio(tn, tn + fn)
    if tnr is None or npv is None or (tnr + npv) <= 0.0:
        f1bar = None
    else:
        f1bar = 2.0 * tnr * npv / (tnr + npv)
    far = _ratio(fp, fp + tn)

    auc = None
    if scores is not None:
        roc = _roc(*_cut_counts(truth, scores))
        auc = None if roc is None else float(np.trapezoid(roc[1], roc[0]))

    return EvalReport(
        accuracy=float(accuracy),
        f1=f1,
        f1bar=f1bar,
        tnr=tnr,
        npv=npv,
        far=far,
        auc=auc,
        confusion=counts,
        threshold=threshold,
    )


def _cut_counts(ground_truth, scores) -> tuple[np.ndarray, np.ndarray]:
    """The threshold sweep: the in-class and anomalous row counts at or below
    each distinct score, ascending. DataError unless truth and scores are
    matching 1-D arrays of finite scores; empty input gives empty counts."""
    truth = np.asarray(ground_truth, dtype=bool)
    s = _finite_1d(scores, "scores")
    if truth.shape != s.shape:
        raise DataError(f"ground truth {truth.shape} and scores {s.shape} must match in shape")
    order = np.argsort(s, kind="mergesort")
    s, truth = s[order], truth[order]
    last = np.flatnonzero(np.r_[s[1:] != s[:-1], s.size > 0])  # end of each tie run
    return np.cumsum(truth)[last], np.cumsum(~truth)[last]


def _roc(cum_in: np.ndarray, cum_anom: np.ndarray):
    """(fpr, tpr) from the sweep's counts, or None when a class is empty.
    The descending cut at each distinct score flags the rows not below it."""
    if cum_in.size == 0 or cum_in[-1] == 0 or cum_anom[-1] == 0:
        return None
    fp = cum_in[-1] - np.r_[0, cum_in[:-1]][::-1]
    tp = cum_anom[-1] - np.r_[0, cum_anom[:-1]][::-1]
    return np.r_[0.0, fp / cum_in[-1]], np.r_[0.0, tp / cum_anom[-1]]


def roc_points(ground_truth, scores) -> tuple[np.ndarray, np.ndarray]:
    """ROC curve for detecting anomalies by thresholding the anomaly score.

    Returns (fpr, tpr) arrays over the unique score thresholds, starting at
    (0, 0) and ending at (1, 1). Anomalies (ground_truth False) are the
    detection positives. Raises DataError when either class is empty.
    """
    roc = _roc(*_cut_counts(ground_truth, scores))
    if roc is None:
        raise DataError("roc needs both classes present")
    return roc
