"""Kernel evaluation, Gram assembly, and positive-definiteness repair."""
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.linalg

import ocds.kernels
from ocds.errors import ConditioningError, DimensionError, DomainError
from ocds.kernels import FAMILIES, KernelSpec, ensure_pd, gram, kernel_eval


def _features(seed, n=5, d=3, nonneg=False):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    return np.abs(x) if nonneg else x


def _needs_nonneg(family):
    return family in ("chi2", "histogram")


# ---------------------------------------------------------------------------
# KernelSpec validation


def test_spec_lowercases_family():
    assert KernelSpec(family="RBF", sigma=1.0).family == "rbf"
    assert KernelSpec(family="Polynomial").family == "polynomial"


@pytest.mark.parametrize(
    "kwargs",
    [
        {"family": "cubic"},
        {"family": "rbf", "sigma": 0.0},
        {"family": "rbf", "sigma": -1.0},
        {"family": "polynomial", "degree": 0},
        {"family": "polynomial", "degree": 2.5},
        {"family": "polynomial", "offset": -0.1},
        {"family": "rbf", "sigma": float("nan")},
        {"family": "rbf", "sigma": float("inf")},
        {"family": "polynomial", "degree": float("nan")},
        {"family": "polynomial", "degree": float("inf")},
        {"family": "polynomial", "offset": float("nan")},
        {"family": "polynomial", "offset": float("inf")},
        {"family": 5},
        {"family": None},
        {"family": "polynomial", "degree": 10**400},
        {"family": "polynomial", "degree": True},
        {"family": "polynomial", "sigma": "abc"},
        {"family": "rbf", "offset": None},
    ],
)
def test_spec_rejects_bad_parameters(kwargs):
    with pytest.raises(DomainError):
        KernelSpec(**kwargs)


def test_spec_is_frozen():
    spec = KernelSpec(family="linear")
    with pytest.raises(Exception):
        spec.family = "rbf"


# ---------------------------------------------------------------------------
# kernel_eval hand values


def test_polynomial_half_dot_cubes_to_3_375():
    spec = KernelSpec(family="polynomial", degree=3, offset=1.0)
    x = np.array([0.5, 0.0])
    y = np.array([1.0, 1.0])
    assert kernel_eval(spec, x, y) == 3.375


def test_rbf_identical_inputs_give_one():
    spec = KernelSpec(family="rbf", sigma=0.37)
    x = np.array([0.1, -2.0, 3.0])
    assert kernel_eval(spec, x, x) == 1.0


def test_rbf_unit_sigma_distance_sqrt2():
    spec = KernelSpec(family="rbf", sigma=1.0)
    v = kernel_eval(spec, np.zeros(2), np.ones(2))
    assert abs(v - np.exp(-1.0)) <= 1e-15


def test_histogram_intersection_hand_value():
    spec = KernelSpec(family="histogram")
    v = kernel_eval(spec, np.array([0.2, 0.8]), np.array([0.5, 0.5]))
    assert abs(v - 0.7) <= 1e-15


def test_linear_orthogonal_vectors_give_zero():
    spec = KernelSpec(family="linear")
    assert kernel_eval(spec, np.array([1.0, 0.0]), np.array([0.0, 2.0])) == 0.0


def test_chi2_matches_elementwise_formula():
    spec = KernelSpec(family="chi2")
    x = np.array([0.2, 0.8, 0.0])
    y = np.array([0.5, 0.5, 0.0])
    expect = 2 * 0.2 * 0.5 / 0.7 + 2 * 0.8 * 0.5 / 1.3  # 0/0 slot contributes 0
    assert abs(kernel_eval(spec, x, y) - expect) <= 1e-15


def test_chi2_zero_over_zero_slots_are_dropped():
    spec = KernelSpec(family="chi2")
    assert kernel_eval(spec, np.zeros(3), np.zeros(3)) == 0.0


# ---------------------------------------------------------------------------
# kernel_eval validation


def test_eval_rejects_mismatched_lengths():
    with pytest.raises(DimensionError):
        kernel_eval(KernelSpec(), np.zeros(3), np.zeros(4))


def test_eval_rejects_matrices():
    with pytest.raises(DimensionError):
        kernel_eval(KernelSpec(), np.zeros((2, 2)), np.zeros((2, 2)))


@pytest.mark.parametrize("family", ["chi2", "histogram"])
def test_nonnegative_families_reject_negative_features(family):
    spec = KernelSpec(family=family)
    with pytest.raises(DomainError):
        kernel_eval(spec, np.array([-0.1, 0.5]), np.array([0.2, 0.3]))
    with pytest.raises(DomainError):
        gram(spec, np.array([[-0.1, 0.5]]))


# ---------------------------------------------------------------------------
# gram


@pytest.mark.parametrize("family", FAMILIES)
def test_gram_entries_match_single_evaluations_bitwise(family):
    spec = KernelSpec(family=family, sigma=0.8)
    x = _features(3, nonneg=_needs_nonneg(family))
    y = _features(4, n=4, nonneg=_needs_nonneg(family))
    g = gram(spec, x, y)
    assert g.shape == (5, 4)
    for i in range(5):
        for j in range(4):
            assert g[i, j] == kernel_eval(spec, x[i], y[j])


@pytest.mark.parametrize("family", FAMILIES)
def test_gram_is_exactly_symmetric(family):
    spec = KernelSpec(family=family, sigma=0.8)
    x = _features(7, nonneg=_needs_nonneg(family))
    g = gram(spec, x)
    np.testing.assert_array_equal(g, g.T)


@pytest.mark.parametrize("family", FAMILIES)
def test_gram_is_positive_semidefinite(family):
    spec = KernelSpec(family=family, sigma=0.8, degree=3, offset=1.0)
    for seed in range(10):
        x = _features(seed, n=8, d=4, nonneg=_needs_nonneg(family))
        g = gram(spec, x)
        scale = max(1.0, float(np.abs(g).max()))
        assert np.linalg.eigvalsh(g).min() >= -1e-10 * scale


def test_gram_rbf_50_seeded_instances_stay_psd():
    spec = KernelSpec(family="rbf", sigma=0.5)
    for seed in range(50):
        g = gram(spec, _features(seed, n=10, d=3))
        assert np.linalg.eigvalsh(g).min() >= -1e-10


def test_gram_rejects_bad_shapes():
    with pytest.raises(DimensionError):
        gram(KernelSpec(), np.zeros(3))
    with pytest.raises(DimensionError):
        gram(KernelSpec(), np.zeros((2, 3)), np.zeros((2, 4)))


@pytest.mark.parametrize("family", FAMILIES)
def test_zero_width_features_are_a_dimension_error(family):
    spec = KernelSpec(family=family)
    with pytest.raises(DimensionError):
        gram(spec, np.zeros((3, 0)))
    with pytest.raises(DimensionError):
        gram(spec, np.zeros((3, 0)), np.zeros((2, 0)))
    with pytest.raises(DimensionError):
        kernel_eval(spec, np.zeros(0), np.zeros(0))


# ---------------------------------------------------------------------------
# blocked evaluation
#
# gram fills its output in blocks of rows under ocds.kernels._BLOCK_ELEMENTS.
# Against 2**13 + 3 columns a block holds 3 rows, so 7 rows end in a
# partial block of 1.

_WIDE = (1 << 13) + 3


def _wide_operands(family, d, seed=0):
    nonneg = _needs_nonneg(family)
    x = _features(seed, n=7, d=d, nonneg=nonneg)
    y = _features(seed + 1, n=_WIDE, d=d, nonneg=nonneg)
    # scale so rbf values stay well above the underflow range
    return x / np.sqrt(d), y / np.sqrt(d)


@pytest.mark.parametrize("d", [1, 2, 7, 8, 9, 60])
@pytest.mark.parametrize("family", FAMILIES)
def test_blocked_gram_matches_single_evaluations_bitwise(family, d):
    spec = KernelSpec(family=family, sigma=0.8)
    x, y = _wide_operands(family, d)
    assert ocds.kernels._BLOCK_ELEMENTS // _WIDE == 3
    g = gram(spec, x, y)
    cols = np.r_[0, 1, np.random.default_rng(d).choice(_WIDE, 30), _WIDE - 2, _WIDE - 1]
    for i in range(x.shape[0]):
        for j in cols:
            assert g[i, j] == kernel_eval(spec, x[i], y[j])


@pytest.mark.parametrize("d", [2, 9])
@pytest.mark.parametrize("family", FAMILIES)
def test_gram_values_do_not_depend_on_the_block_size(family, d, monkeypatch):
    spec = KernelSpec(family=family, sigma=0.8)
    x, y = _wide_operands(family, d, seed=3)
    y = y[:500]
    want = gram(spec, x, y)
    for budget in (1, 1000, 1 << 20):
        monkeypatch.setattr(ocds.kernels, "_BLOCK_ELEMENTS", budget)
        assert gram(spec, x, y).tobytes() == want.tobytes()


@pytest.mark.parametrize("square", [False, True])
@pytest.mark.parametrize("family", FAMILIES)
def test_gram_fills_the_buffer_it_is_given(family, square):
    spec = KernelSpec(family=family, sigma=0.8)
    x = _features(3, n=7, nonneg=_needs_nonneg(family))
    y = None if square else _features(4, n=5, nonneg=_needs_nonneg(family))
    want = gram(spec, x, y)
    buf = np.full((9, want.shape[1]), np.nan)
    got = gram(spec, x, y, out=buf[:7])
    assert np.shares_memory(got, buf)
    assert got.tobytes() == want.tobytes()
    assert np.isnan(buf[7:]).all()


def test_gram_rejects_a_buffer_it_cannot_fill():
    x, y = _features(3, n=7), _features(4, n=5)
    for bad in (np.empty((7, 4)), np.empty((7, 5), dtype=np.float32), np.empty((5, 7)).T):
        with pytest.raises(DimensionError, match="out"):
            gram(KernelSpec(), x, y, out=bad)


@pytest.mark.parametrize("d", range(1, 8))
def test_gram_below_8_features_equals_a_row_by_row_sum(d):
    # below 8 terms numpy's sum(axis=1) adds in index order, as the
    # feature-major loop does, so the values are those of a row-by-row sum
    sigma = 0.8
    x, y = _wide_operands("rbf", d, seed=5)
    y = y[:3000]
    want = np.empty((x.shape[0], y.shape[0]))
    lin = np.empty_like(want)
    for i in range(x.shape[0]):
        diff = y - x[i]
        want[i] = np.exp((diff * diff).sum(axis=1) / (-2.0 * sigma * sigma))
        lin[i] = (y * x[i]).sum(axis=1)
    assert gram(KernelSpec(family="rbf", sigma=sigma), x, y).tobytes() == want.tobytes()
    assert gram(KernelSpec(family="linear"), x, y).tobytes() == lin.tobytes()


def _rbf_reference(x, y, sigma):
    # 0.0 plus the squared differences summed in feature order, then the
    # divide and the exp: the rbf Gram entry bit for bit, independent of
    # how gram computes it
    acc = np.zeros((x.shape[0], y.shape[0]))
    for f in range(x.shape[1]):
        diff = y[:, f][None, :] - x[:, f][:, None]
        acc = acc + diff * diff
    return np.exp(acc / (-2.0 * sigma * sigma))


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("d", [1, 2, 3, 8, 9, 17, 60, 61])
def test_rbf_gram_is_the_feature_order_sum_bitwise(d, scale):
    rng = np.random.default_rng(d)
    x = scale * rng.standard_normal((13, d))
    y = scale * rng.standard_normal((40, d))
    spec = KernelSpec(family="rbf", sigma=scale * np.sqrt(d))
    assert gram(spec, x).tobytes() == _rbf_reference(x, x, spec.sigma).tobytes()
    assert gram(spec, x, y).tobytes() == _rbf_reference(x, y, spec.sigma).tobytes()
    assert gram(spec, x, y).tobytes() == gram(spec, y, x).T.copy().tobytes()


def test_rbf_gram_of_far_apart_rows_is_zero_without_a_warning():
    # The squared distance overflows to inf, which the kernel maps to 0.
    spec = KernelSpec(family="rbf", sigma=0.5)
    far = np.array([[1e200, 0.0], [-1e200, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert gram(spec, far[:1], far[1:]).tolist() == [[0.0]]
        assert gram(spec, far).tolist() == [[1.0, 0.0], [0.0, 1.0]]
        assert kernel_eval(spec, far[0], far[1]) == 0.0


def test_a_fit_does_not_import_scipy_spatial():
    # Only an rbf cross-Gram needs it, and it costs about 9 MB of resident
    # memory and 0.14 s to import.
    code = ("import sys, numpy, ocds\n"
            "x = numpy.random.default_rng(0).standard_normal((30, 2))\n"
            "ocds.kods_train(x, ocds.KernelSpec('rbf', sigma=1.0), ocds.KodsHyper(k=1),\n"
            "                ocds.SolverConfig(max_iters=5))\n"
            "assert 'scipy.spatial' not in sys.modules\n")
    subprocess.run([sys.executable, "-c", code], check=True)


# ---------------------------------------------------------------------------
# ensure_pd


def test_ensure_pd_leaves_a_definite_matrix_alone():
    g = gram(KernelSpec(family="rbf", sigma=1.0), _features(1, n=4))
    out, eps = ensure_pd(g)
    assert eps == 0.0
    np.testing.assert_array_equal(out, (g + g.T) / 2.0)


def test_ensure_pd_repairs_a_singular_matrix_with_one_jitter_step():
    k = np.ones((2, 2))  # eigenvalues {0, 2}; Cholesky fails on the zero
    out, eps = ensure_pd(k)
    assert eps == 1e-10  # first rung of the ladder at mean diagonal 1.0
    np.linalg.cholesky(out)
    np.testing.assert_array_equal(out, k + eps * np.eye(2))


def test_ensure_pd_escalates_jitter_by_powers_of_ten():
    # mean diagonal 4 puts the ladder at 4e-10, 4e-9, 4e-8, 4e-7; the
    # smallest eigenvalue is -1.2e-7, so the fourth rung is the first to pass
    c = 1.0 + 3e-8
    k = 4.0 * np.array([[1.0, c], [c, 1.0]])  # eigenvalues {8 + 1.2e-7, -1.2e-7}
    out, eps = ensure_pd(k)
    assert abs(np.log10(eps / 4e-10) - 3.0) <= 1e-9
    np.linalg.cholesky(out)


def test_ensure_pd_gives_up_past_the_ceiling():
    with pytest.raises(ConditioningError):
        ensure_pd(np.diag([1.0, -1.0]))


def test_ensure_pd_rejects_asymmetry():
    k = np.eye(3)
    k[0, 1] = 0.5
    with pytest.raises(DomainError):
        ensure_pd(k)


def test_ensure_pd_rejects_non_square():
    with pytest.raises(DimensionError):
        ensure_pd(np.zeros((2, 3)))


def test_ensure_pd_rejects_an_empty_matrix():
    with pytest.raises(DimensionError, match="non-empty"):
        ensure_pd(np.zeros((0, 0)))


def test_ensure_pd_symmetrizes_roundoff_asymmetry():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 4))
    k = a @ a.T + 4.0 * np.eye(4)
    k[0, 1] += 1e-13  # within the symmetry tolerance
    out, eps = ensure_pd(k)
    np.testing.assert_array_equal(out, out.T)
    assert eps == 0.0


@pytest.mark.parametrize("family", ["rbf", "linear"])
def test_ensure_pd_returns_the_matrix_it_factored(family):
    # A linear Gram of 3-D rows has rank 3 and needs jitter; an RBF Gram
    # does not. Either way the bytes are those of (k + k.T) / 2 plus the
    # jitter times the identity.
    kernel = KernelSpec(family=family, sigma=1.0) if family == "rbf" else KernelSpec(family=family)
    k = gram(kernel, _features(2, n=20))
    out, eps = ensure_pd(k)
    assert (eps > 0.0) == (family == "linear")
    ksym = (k + k.T) / 2.0
    assert out.tobytes() == (ksym + eps * np.eye(20) if eps else ksym).tobytes()


def test_ensure_pd_hands_an_exactly_symmetric_definite_matrix_back_as_is():
    g = gram(KernelSpec(family="rbf", sigma=1.0), _features(1, n=6))
    assert ensure_pd(g)[0] is g


def test_ensure_pd_returns_a_finite_matrix_finite():
    # (k + k.T) / 2 once overflowed here, to inf on the diagonal with eps 0
    k = np.array([[1e308, 1e307], [1e307, 1e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out, eps = ensure_pd(k)
    assert eps == 0.0
    assert out.tobytes() == k.tobytes()


def test_ensure_pd_factor_is_the_one_cho_factor_makes():
    # KODS training hands this factor to the manifold in place of its own
    k = gram(KernelSpec(family="linear"), _features(2, n=20))
    out, eps, (c, lower) = ocds.kernels._factor_pd(k)
    want_pd, want_eps = ensure_pd(k)
    assert eps == want_eps > 0.0 and out.tobytes() == want_pd.tobytes()
    want, _ = scipy.linalg.cho_factor(out, lower=True)
    assert lower and c.tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_ensure_pd_rejects_non_finite_entries(bad):
    # numpy's cholesky accepts inf/NaN without raising, so without the check
    # the matrix came back unrepaired with eps 0
    k = np.eye(3)
    k[1, 2] = k[2, 1] = bad
    with pytest.raises(ConditioningError, match="non-finite"):
        ensure_pd(k)


def test_ensure_pd_rejects_an_overflowing_polynomial_gram():
    x = 10.0 * np.random.default_rng(0).standard_normal((20, 3))
    with np.errstate(over="ignore", invalid="ignore"):
        g = gram(KernelSpec(family="polynomial", degree=400), x)
    assert not np.isfinite(g).all()
    with pytest.raises(ConditioningError):
        ensure_pd(g)
