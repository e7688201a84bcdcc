"""Decision rule, threshold calibration, and evaluation metrics.

Scores come in pairs (s1, s2): s1 is the smallest response of the lower
classifier, s2 the largest response of the upper one. A point is in-class
when s1 >= eta and s2 <= -eta simultaneously. The in-class label is the
positive class for every metric here.

Undefined ratios (zero denominators) are reported as None rather than
being coerced to 0, so a degenerate evaluation is visible instead of
silently optimistic.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError

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


def anomaly_score(s1, s2, eta: float):
    """Worst margin violation, elementwise; <= 0 exactly for in-class
    points. s1 and s2 are scalars or matching arrays."""
    return np.maximum(eta - s1, s2 + eta)


def two_means(values) -> tuple[float, float]:
    """Exact 1-D 2-means: enumerate every split of the sorted values and
    return the (low mean, high mean) pair of the split with the smallest
    within-cluster sum of squares. Ties keep the first (smallest) split."""
    v = np.sort(np.asarray(values, dtype=np.float64))
    n = v.size
    if n < 2 or v[0] == v[-1]:
        raise DataError("two_means needs at least two distinct values")
    csum = np.cumsum(v)
    csq = np.cumsum(v * v)
    total_sum, total_sq = csum[-1], csq[-1]
    best = None
    best_i = 0
    # An optimal 1-D 2-means partition is always a split of the sorted order.
    for i in range(1, n):
        left_sum, left_sq = csum[i - 1], csq[i - 1]
        right_sum = total_sum - left_sum
        right_sq = total_sq - left_sq
        wcss = (left_sq - left_sum * left_sum / i) + (
            right_sq - right_sum * right_sum / (n - i)
        )
        if best is None or wcss < best - 1e-15 * max(1.0, abs(best)):
            best = wcss
            best_i = i
    lo = float(csum[best_i - 1] / best_i)
    hi = float((total_sum - csum[best_i - 1]) / (n - best_i))
    return lo, hi


def calibrate_eta(scores_l, scores_u, eta: float) -> float:
    """Refined threshold from validation score lists.

    scores_l holds the lower-classifier responses (s1 values) of the whole
    validation set, scores_u the upper-classifier responses (s2 values).
    Each list is clustered into two groups; the adjustment moves eta by
    half the unsatisfied-margin gap of the cluster centers. Degenerate
    inputs (too few distinct scores) leave eta unchanged with a warning.
    """
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
        s = np.asarray(scores, dtype=np.float64)
        if s.shape != truth.shape:
            raise DataError(
                f"scores shape {s.shape} does not match ground truth {truth.shape}"
            )
        auc = _auc(truth, s)

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


def roc_points(ground_truth, scores) -> tuple[np.ndarray, np.ndarray]:
    """ROC curve for detecting anomalies by thresholding the anomaly score.

    Returns (fpr, tpr) arrays over the unique score thresholds, starting at
    (0, 0) and ending at (1, 1). Anomalies (ground_truth False) are the
    detection positives. Raises DataError when either class is empty.
    """
    truth = np.asarray(ground_truth, dtype=bool)
    s = np.asarray(scores, dtype=np.float64)
    n_anom = int(np.sum(~truth))
    n_in = int(np.sum(truth))
    if n_anom == 0 or n_in == 0:
        raise DataError("roc needs both classes present")
    order = np.argsort(-s, kind="mergesort")
    is_anom = (~truth)[order]
    sorted_scores = s[order]
    cum_tp = np.cumsum(is_anom)
    cum_fp = np.cumsum(~is_anom)
    # Keep one operating point per distinct threshold (ties collapse).
    boundary = np.r_[np.flatnonzero(np.diff(sorted_scores) != 0.0), s.size - 1]
    tpr = np.r_[0.0, cum_tp[boundary] / n_anom]
    fpr = np.r_[0.0, cum_fp[boundary] / n_in]
    return fpr, tpr


def _auc(truth: np.ndarray, scores: np.ndarray) -> float | None:
    if np.all(truth) or not np.any(truth):
        return None
    fpr, tpr = roc_points(truth, scores)
    return float(np.trapezoid(tpr, fpr))
