"""Training on degenerate data: every primal variant and KODS (rbf), with
and without row normalization, ends with finite scores, a finite objective
trace and feasible frames or duals."""
import numpy as np
import pytest

from ocds.errors import DataError
from ocds.kernels import KernelSpec
from ocds.kods import KodsHyper, kods_feasibility, kods_scores_batch, kods_train
from ocds.primal import VARIANTS, GodsHyper, frame_feasibility, primal_scores_batch, train_primal
from ocds.solver import SolverConfig

D = 4
K = 3
CFG = SolverConfig(max_iters=50)
RBF = KernelSpec(family="rbf", sigma=0.5)


def _duplicate_rows(rng):
    return np.tile(rng.standard_normal((5, D)), (6, 1))


def _constant_column(rng):
    x = rng.standard_normal((30, D))
    x[:, 2] = 3.0
    return x


def _zero_rows(rng):
    x = rng.standard_normal((30, D))
    x[::3] = 0.0
    return x


def _all_zero(rng):
    return np.zeros((30, D))


def _fewer_than_3k_rows(rng):
    return rng.standard_normal((3 * K - 1, D))


def _one_row(rng):
    return rng.standard_normal((1, D))


DATA = [_duplicate_rows, _constant_column, _zero_rows, _all_zero,
        _fewer_than_3k_rows, _one_row]


def _check_fit(scores, report, feasibility):
    assert all(np.isfinite(s).all() for s in scores)
    assert np.isfinite(report.objective_trace).all()
    assert feasibility < 1e-8


@pytest.mark.filterwarnings("ignore:l2_normalize")
@pytest.mark.filterwarnings("ignore:init_frames")
@pytest.mark.parametrize("normalize", [True, False])
@pytest.mark.parametrize("make", DATA, ids=lambda f: f.__name__.lstrip("_"))
@pytest.mark.parametrize("variant", VARIANTS)
def test_primal_fit_on_degenerate_data(variant, make, normalize):
    x = make(np.random.default_rng(0))
    hyper = GodsHyper(variant=variant, k=1 if variant == "bods" else K, normalize=normalize)
    model, report = train_primal(x, hyper, CFG, seed=0)
    _check_fit(primal_scores_batch(model, x), report, frame_feasibility(model))


def _kods_k(x):
    # Identical rows span one kernel function: only k = 1 is well posed.
    distinct = np.unique(x, axis=0).shape[0]
    return 1 if distinct == 1 else min(K, x.shape[0])


@pytest.mark.filterwarnings("ignore:l2_normalize")
@pytest.mark.parametrize("normalize", [True, False])
@pytest.mark.parametrize("make", DATA, ids=lambda f: f.__name__.lstrip("_"))
def test_kods_fit_on_degenerate_data(make, normalize):
    x = make(np.random.default_rng(0))
    hyper = KodsHyper(k=_kods_k(x), normalize=normalize)
    model, report = kods_train(x, RBF, hyper, CFG, seed=0)
    _check_fit(kods_scores_batch(model, x), report, kods_feasibility(model))


@pytest.mark.filterwarnings("ignore:l2_normalize")
@pytest.mark.parametrize("normalize", [True, False])
def test_kods_with_k_above_the_distinct_row_count_is_a_data_error(normalize):
    # The Gram is rank one plus jitter, so no fit could tell k = 2
    # components apart; the data is refused before the fit starts.
    with pytest.raises(DataError, match=r"k=2 exceeds the number of distinct training rows 1"):
        kods_train(np.zeros((30, D)), RBF, KodsHyper(k=2, normalize=normalize), CFG)


def test_kods_counts_distinct_rows_after_normalization():
    # Rows that differ only in scale are one row once normalized.
    x = np.outer(np.linspace(0.5, 1.5, 30), np.full(D, 0.5))
    kods_train(x, RBF, KodsHyper(k=2, normalize=False), CFG)
    with pytest.raises(DataError, match="distinct training rows 1 after normalization"):
        kods_train(x, RBF, KodsHyper(k=2, normalize=True), CFG)
