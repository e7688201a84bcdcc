"""Decision rule, threshold calibration, metrics, ROC."""
import warnings

import numpy as np
import pytest

from ocds.errors import DataError, DomainError
from ocds.inference import (
    ETA_FLOOR,
    _extremes,
    _intercepts,
    anomaly_score,
    calibrate_eta,
    classify,
    compute_metrics,
    roc_points,
    two_means,
)


# ---------------------------------------------------------------------------
# classify / anomaly_score


def test_classify_requires_both_margins():
    assert classify(0.5, -0.4, 0.3)
    assert not classify(0.2, -0.4, 0.3)   # lower margin missed
    assert not classify(0.5, -0.2, 0.3)   # upper margin missed
    assert classify(0.3, -0.3, 0.3)       # boundary counts as in-class


def test_anomaly_score_hand_value():
    assert abs(anomaly_score(0.1, -0.5, 0.3) - 0.2) <= 1e-15


def test_anomaly_score_sign_agrees_with_classify():
    rng = np.random.default_rng(0)
    for _ in range(200):
        s1, s2 = rng.uniform(-1, 1, size=2)
        eta = rng.uniform(0.05, 0.5)
        assert (anomaly_score(s1, s2, eta) <= 0.0) == classify(s1, s2, eta)


def test_anomaly_score_zero_exactly_on_the_boundary():
    assert anomaly_score(0.3, -0.3, 0.3) == 0.0


def test_decision_rule_over_arrays_matches_it_row_by_row():
    rng = np.random.default_rng(1)
    s1 = np.round(rng.uniform(-1, 1, 300), 1)   # rounding puts rows on the margins
    s2 = np.round(rng.uniform(-1, 1, 300), 1)
    eta = 0.3
    labels = classify(s1, s2, eta)
    scores = anomaly_score(s1, s2, eta)
    assert labels.dtype == bool and scores.shape == (300,)
    assert labels.tolist() == [bool(classify(a, b, eta)) for a, b in zip(s1, s2)]
    assert scores.tolist() == [float(anomaly_score(a, b, eta)) for a, b in zip(s1, s2)]
    assert scores.tolist() == [max(eta - a, b + eta) for a, b in zip(s1.tolist(), s2.tolist())]


def test_an_intercept_whose_subtraction_rounds_outside_moves_one_float_inward():
    # 0.9 + (0.3 - 0.9) rounds below 0.3 and 0.9 + (-0.3 - 0.9) above -0.3;
    # 0.2 + (0.3 - 0.2) and 0.1 + (-0.3 - 0.1) land on the margins exactly.
    eta = 0.3
    block = np.array([[0.9, 1.5, 2.0],     # lower component 0: min 0.9
                      [0.4, 0.2, 0.7],     # lower component 1: min 0.2
                      [-1.0, 0.9, -3.0],   # upper component 0: max 0.9
                      [0.1, -2.0, -0.5]])  # upper component 1: max 0.1
    assert 0.9 + (eta - 0.9) < eta and 0.9 + (-eta - 0.9) > -eta
    b1, b2 = _intercepts(block, 2, eta)
    assert b1.tolist() == [np.nextafter(eta - 0.9, np.inf), eta - 0.2]
    assert b2.tolist() == [np.nextafter(-eta - 0.9, -np.inf), -eta - 0.1]
    s1, s2 = _extremes(block + np.r_[b1, b2][:, None], 2)
    assert classify(s1, s2, eta).all()
    assert s1.min() - eta <= np.spacing(0.9) and -eta - s2.max() <= np.spacing(1.2)


# ---------------------------------------------------------------------------
# two_means


def test_two_means_hand_case():
    lo, hi = two_means([0.1, 0.12, 0.5, 0.52])
    assert abs(lo - 0.11) <= 1e-12
    assert abs(hi - 0.51) <= 1e-12


def test_two_means_two_values():
    assert two_means([3.0, 1.0]) == (1.0, 3.0)


def test_two_means_is_order_invariant():
    vals = [5.0, -1.0, 2.0, 2.5, -0.5]
    assert two_means(vals) == two_means(sorted(vals, reverse=True))


def test_two_means_matches_exhaustive_partition_search():
    # every 2-partition, not just sorted splits, scored by within-cluster
    # sum of squares; the sorted-split answer must be globally optimal
    rng = np.random.default_rng(1)
    for _ in range(20):
        v = rng.standard_normal(8)
        lo, hi = two_means(v)
        best = np.inf
        best_pair = None
        for mask_bits in range(1, 2**8 - 1):
            mask = np.array([(mask_bits >> i) & 1 for i in range(8)], dtype=bool)
            a, b = v[mask], v[~mask]
            wcss = ((a - a.mean()) ** 2).sum() + ((b - b.mean()) ** 2).sum()
            if wcss < best - 1e-12:
                best = wcss
                pair = (a.mean(), b.mean())
                best_pair = (min(pair), max(pair))
        assert abs(lo - best_pair[0]) <= 1e-9
        assert abs(hi - best_pair[1]) <= 1e-9


def test_two_means_tie_keeps_the_smallest_split():
    # {0},{1,2} and {0,1},{2} have equal cost; the first split wins
    assert two_means([0.0, 1.0, 2.0]) == (0.0, 1.5)


def test_two_means_rejects_degenerate_input():
    with pytest.raises(DataError, match="two distinct"):
        two_means([1.0])
    with pytest.raises(DataError, match="two distinct"):
        two_means([2.0, 2.0, 2.0])


@pytest.mark.parametrize("values", [
    [0.1, 0.2, np.nan, 0.9],
    [0.1, np.inf, 0.9],
    [[0.1, 0.2], [0.5, 0.9]],
], ids=["nan", "inf", "2-d"])
def test_two_means_rejects_non_finite_or_non_vector_input(values):
    with pytest.raises(DataError, match="1-D array of finite values"):
        two_means(values)


def test_two_means_past_2_to_the_500_scales_instead_of_overflowing():
    # v * v overflows here; the old code returned split 1, (0.0, 1.37e200).
    v = [0.0, 1.0, 2e200, 2.1e200]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert two_means(v) == (0.5, (2e200 + 2.1e200) / 2)
        assert two_means([-1.7e308, 1.6e308, 1.7e308]) == (-1.7e308, 1.6e308 / 2 + 1.7e308 / 2)


def test_two_means_raises_when_the_sums_of_squares_still_overflow():
    v = np.full(10000, 2.0**500)
    v[0] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="overflow"):
            two_means(v)


def _two_means_loop(values):
    # Reference: every split in a Python loop, keeping a running best that a
    # later split must beat by the tolerance.
    v = np.sort(np.asarray(values, dtype=np.float64))
    n = v.size
    csum, csq = np.cumsum(v), np.cumsum(v * v)
    best, best_i = None, 0
    for i in range(1, n):
        left_sum, left_sq = csum[i - 1], csq[i - 1]
        right_sum, right_sq = csum[-1] - left_sum, csq[-1] - left_sq
        wcss = (left_sq - left_sum * left_sum / i) + (right_sq - right_sum * right_sum / (n - i))
        if best is None or wcss < best - 1e-15 * max(min(1.0, np.abs(v).max()) ** 2, abs(best)):
            best, best_i = wcss, i
    return float(csum[best_i - 1] / best_i), float((csum[-1] - csum[best_i - 1]) / (n - best_i))


def test_two_means_equals_the_split_loop_on_tie_heavy_input():
    # The loop kept a running best and the vector form takes the first split
    # within the tolerance of the minimum; they part only on chains of
    # near-ties 1e-15 apart in absolute terms, which these scales never reach.
    rng = np.random.default_rng(11)
    for case in range(400):
        n = int(rng.integers(2, 40))
        scale = 10.0 ** rng.uniform(-3, 3)
        if case % 2:
            v = rng.integers(0, 4, n) * scale
        else:
            v = np.round(rng.normal(0.0, 1.0, n), 1) * scale
        if np.unique(v).size < 2:
            continue
        assert two_means(v) == _two_means_loop(v)


def test_two_means_takes_the_first_split_within_the_tolerance():
    # Split sums of squares 2.07e-15, 1.45e-15 and 4.7e-16. The tolerance
    # floor is 1e-15 * (8e-8)**2, so only the minimum is within it; an
    # absolute 1e-15 floor let the second split win.
    v = [0.0, 2e-8, 3e-8, 8e-8]
    assert two_means(v) == (5e-8 / 3, 8e-8)
    assert _two_means_loop(v) == (5e-8 / 3, 8e-8)
    for scale in (1.0, 2.0**-30, 2.0**-60):  # an exact tie keeps the first split
        assert two_means(np.array([0.0, 1.0, 2.0]) * scale) == (0.0, 1.5 * scale)


def test_two_means_below_one_commutes_with_power_of_two_scaling():
    rng = np.random.default_rng(12)
    for case in range(200):
        n = int(rng.integers(2, 40))
        scale = 10.0 ** rng.uniform(-12, -1)
        if case % 2:
            v = rng.integers(0, 4, n) * scale
        else:
            v = np.round(rng.normal(0.0, 1.0, n), 1) * scale
        if np.unique(v).size < 2:
            continue
        lo, hi = two_means(v)
        for j in (1, 7, 30, 60, 200):
            assert two_means(v * 2.0**-j) == (lo * 2.0**-j, hi * 2.0**-j)


# ---------------------------------------------------------------------------
# calibrate_eta


def test_calibrate_worked_example():
    s1 = [0.1, 0.12, 0.5, 0.52]
    s2 = [-0.5, -0.48, -0.12, -0.1]
    eta = calibrate_eta(s1, s2, 0.3)
    assert abs(eta - 0.395) <= 1e-12


def test_calibrate_leaves_a_satisfied_threshold_alone():
    s1 = [0.5, 0.52, 0.9, 0.92]   # lowest cluster center 0.51 > 0.3
    s2 = [-0.9, -0.92, -0.5, -0.52]
    assert calibrate_eta(s1, s2, 0.3) == 0.3


def test_calibrate_shrinks_eta_when_the_upper_side_violates():
    s1 = [0.5, 0.52, 0.9, 0.92]
    s2 = [-0.1, -0.12, -0.2, -0.22]  # best cluster center -0.21
    eta = calibrate_eta(s1, s2, 0.3)
    expect = 0.3 + 0.5 * (0.0 - (0.3 + (-0.21)))
    assert abs(eta - expect) <= 1e-12


def test_calibrate_is_translation_equivariant():
    s1 = [0.1, 0.12, 0.5, 0.52]
    s2 = [-0.5, -0.48, -0.12, -0.1]
    base = calibrate_eta(s1, s2, 0.3)
    c = 0.25
    shifted = calibrate_eta([v + c for v in s1], [v - c for v in s2], 0.3 + c)
    assert abs(shifted - (base + c)) <= 1e-12


def test_calibrate_clamps_at_the_floor_with_a_warning():
    # the upper-side correction can halve eta at most, so the floor only
    # engages when the starting threshold is already near it
    s1 = [0.5, 0.52, 0.9, 0.92]
    s2 = [-1e-8, -1.2e-8, -2e-8, -2.2e-8]
    with pytest.warns(UserWarning, match="clamped"):
        eta = calibrate_eta(s1, s2, 1.5e-6)
    assert eta == ETA_FLOOR


def test_calibrate_degenerate_scores_warn_and_pass_through():
    with pytest.warns(UserWarning, match="left at"):
        eta = calibrate_eta([0.4, 0.4, 0.4], [-0.5, -0.45, -0.6], 0.3)
    assert eta == 0.3


def test_calibrate_non_finite_scores_warn_and_pass_through():
    with pytest.warns(UserWarning, match="finite"):
        eta = calibrate_eta([0.1, 0.12, np.nan, 0.52], [-0.5, -0.48, -0.12, -0.1], 0.3)
    assert eta == 0.3


@pytest.mark.parametrize("eta", [np.nan, np.inf, -1.0, 0.0])
def test_calibrate_rejects_a_bad_starting_threshold(eta):
    with pytest.raises(DomainError, match="eta must be a finite number > 0"):
        calibrate_eta([0.1, 0.12, 0.5, 0.52], [-0.5, -0.48, -0.12, -0.1], eta)


# ---------------------------------------------------------------------------
# compute_metrics


def _counts_case():
    # tp=8, fn=2, fp=2, tn=8
    truth = np.r_[np.ones(10, bool), np.zeros(10, bool)]
    pred = np.r_[np.ones(8, bool), np.zeros(2, bool), np.ones(2, bool), np.zeros(8, bool)]
    return pred, truth


def test_metrics_hand_counts():
    pred, truth = _counts_case()
    rep = compute_metrics(pred, truth)
    assert (rep.confusion.tp, rep.confusion.fp, rep.confusion.tn, rep.confusion.fn) == (
        8, 2, 8, 2,
    )
    assert rep.tnr == 0.8      # TN / (TN + FP) = 8/10
    assert rep.npv == 0.8      # TN / (TN + FN) = 8/10
    assert abs(rep.f1bar - 0.8) <= 1e-15  # harmonic mean of two equal rates
    assert rep.f1 == 0.8
    assert rep.accuracy == 0.8
    assert rep.far == 0.2
    assert rep.auc is None     # no scores passed


def test_metrics_perfect_classifier():
    truth = np.r_[np.ones(5, bool), np.zeros(5, bool)]
    scores = np.r_[-np.ones(5), np.ones(5)]  # anomalies score higher
    rep = compute_metrics(truth, truth, scores=scores, threshold=0.3)
    assert rep.f1 == 1.0
    assert rep.f1bar == 1.0
    assert rep.accuracy == 1.0
    assert rep.far == 0.0
    assert rep.auc == 1.0
    assert rep.threshold == 0.3


def test_metrics_undefined_ratios_come_back_as_none():
    truth = np.ones(4, bool)
    pred = np.zeros(4, bool)
    rep = compute_metrics(pred, truth)
    assert rep.f1 == 0.0           # 0 / (0 + 0 + 4)
    assert rep.tnr is None         # no actual negatives
    assert rep.far is None
    assert rep.f1bar is None
    rep2 = compute_metrics(np.zeros(3, bool), np.zeros(3, bool))
    assert rep2.f1 is None         # no positives anywhere


def test_metrics_f1bar_equals_f1_with_roles_swapped():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 100:
        pred = rng.random(30) < 0.5
        truth = rng.random(30) < 0.5
        rep = compute_metrics(pred, truth)
        swapped = compute_metrics(~pred, ~truth)
        if rep.f1bar is None or swapped.f1 is None:
            continue
        assert abs(rep.f1bar - swapped.f1) <= 1e-12
        checked += 1


def test_metrics_validation():
    with pytest.raises(DataError):
        compute_metrics(np.ones(3, bool), np.ones(4, bool))
    with pytest.raises(DataError):
        compute_metrics(np.array([], dtype=bool), np.array([], dtype=bool))
    with pytest.raises(DataError, match="must match in shape"):
        compute_metrics(np.ones(3, bool), np.ones(3, bool), scores=np.zeros(2))
    with pytest.raises(DataError, match="finite"):
        compute_metrics(np.ones(3, bool), np.ones(3, bool), scores=[0.0, np.nan, 1.0])


def test_metrics_auc_none_when_truth_is_single_class():
    rep = compute_metrics(np.ones(4, bool), np.ones(4, bool), scores=np.arange(4.0))
    assert rep.auc is None


# ---------------------------------------------------------------------------
# roc_points and AUC


def test_roc_endpoints_and_monotonicity():
    rng = np.random.default_rng(2)
    truth = rng.random(50) < 0.6
    scores = rng.standard_normal(50)
    fpr, tpr = roc_points(truth, scores)
    assert fpr[0] == 0.0 and tpr[0] == 0.0
    assert fpr[-1] == 1.0 and tpr[-1] == 1.0
    assert np.all(np.diff(fpr) >= 0.0)
    assert np.all(np.diff(tpr) >= 0.0)


def test_roc_collapses_tied_scores():
    truth = np.array([True, False, True, False])
    scores = np.zeros(4)
    fpr, tpr = roc_points(truth, scores)
    np.testing.assert_array_equal(fpr, [0.0, 1.0])
    np.testing.assert_array_equal(tpr, [0.0, 1.0])


def test_roc_requires_both_classes():
    with pytest.raises(DataError):
        roc_points(np.ones(5, bool), np.arange(5.0))
    with pytest.raises(DataError, match="roc needs both classes present"):
        roc_points(np.array([], dtype=bool), np.array([]))


@pytest.mark.parametrize("scores", [[1.0, 2.0], [1.0, 2.0, 3.0, 4.0]], ids=["short", "long"])
def test_roc_rejects_scores_of_another_length(scores):
    with pytest.raises(DataError, match="must match in shape"):
        roc_points([True, False, True], scores)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_roc_rejects_non_finite_scores(bad):
    with pytest.raises(DataError, match="finite"):
        roc_points([True, False, True], [1.0, bad, 0.5])


def test_auc_perfect_and_inverted():
    truth = np.r_[np.ones(5, bool), np.zeros(5, bool)]
    scores = np.r_[np.zeros(5), np.ones(5)]
    assert compute_metrics(truth, truth, scores=scores).auc == 1.0
    assert compute_metrics(truth, truth, scores=-scores).auc == 0.0


def test_auc_of_random_scores_averages_to_half():
    # 50 seeded trials; the mean must sit within 0.05 of chance level
    aucs = []
    for seed in range(50):
        rng = np.random.default_rng(seed)
        truth = np.r_[np.ones(50, bool), np.zeros(50, bool)]
        scores = rng.standard_normal(100)
        rep = compute_metrics(truth, truth, scores=scores)
        aucs.append(rep.auc)
    assert abs(float(np.mean(aucs)) - 0.5) <= 0.05


def test_auc_equals_the_mann_whitney_statistic_with_ties():
    # Each (anomaly, in-class) pair scores 1 when the anomaly scores higher
    # and 1/2 on a tie; rounding to one decimal makes many ties.
    rng = np.random.default_rng(13)
    for _ in range(200):
        n = int(rng.integers(2, 60))
        truth = rng.random(n) < 0.5
        if truth.all() or not truth.any():
            continue
        scores = np.round(rng.normal(0.0, 1.0, n), 1)
        a, b = scores[~truth][:, None], scores[truth][None, :]
        mann_whitney = ((a > b).sum() + 0.5 * (a == b).sum()) / (a.size * b.size)
        auc = compute_metrics(truth, truth, scores=scores).auc
        assert abs(auc - mann_whitney) <= 4 * np.finfo(float).eps
