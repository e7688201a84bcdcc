"""Property: scoring one row gives the score of that row in a batch, for
random models and rows, to within 4 * eps * (1 + |s|).

The two cannot agree bit for bit: a one-row product goes through a
different BLAS kernel than a many-row one and rounds differently. The
models are drawn the way training leaves them: frame columns of unit
norm, KODS duals of size ~1/sqrt(n) over a unit-norm support, so each
score is a sum of terms of size <= ~1 and the rounding is a few eps.
"""
import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from ocds.kernels import FAMILIES, KernelSpec  # noqa: E402
from ocds.kods import DualVars, KodsHyper, KodsModel, kods_scores, kods_scores_batch  # noqa: E402
from ocds.primal import (  # noqa: E402
    VARIANTS,
    FramePair,
    GodsHyper,
    TrainedPrimalModel,
    primal_scores,
    primal_scores_batch,
)

EPS = np.finfo(np.float64).eps
# kernels that need nonnegative features get the absolute values
NONNEGATIVE_FAMILIES = ("histogram", "chi2")


def _uniform(shape, bound):
    return arrays(np.float64, shape, elements=st.floats(-bound, bound))


def _unit_columns(draw, d, k):
    w = draw(_uniform((d, k), 1.0))
    norms = np.linalg.norm(w, axis=0)
    assume(np.all(norms > 1e-3))
    return w / norms


@st.composite
def primal_cases(draw):
    variant = draw(st.sampled_from(VARIANTS))
    k = 1 if variant == "bods" else draw(st.integers(1, 3))
    d = draw(st.integers(1, 8))
    # training leaves gods_n's scales at the smallest normal float
    scales = arrays(np.float64, (k,), elements=st.one_of(
        st.just(np.finfo(np.float64).tiny), st.floats(1e-3, 1.0)))
    scaled = variant == "gods_n"
    frames = FramePair(
        w1=_unit_columns(draw, d, k), b1=draw(_uniform((k,), 2.0)),
        w2=_unit_columns(draw, d, k), b2=draw(_uniform((k,), 2.0)),
        r1=draw(scales) if scaled else None, r2=draw(scales) if scaled else None,
    )
    normalize = draw(st.booleans())
    model = TrainedPrimalModel(frames=frames, hyper=GodsHyper(variant=variant, k=k),
                               eta_effective=0.1, feature_dim=d, normalization=normalize)
    # rows of norm <= 1 as they reach the frames; the model normalizes its own
    rows = draw(_uniform((draw(st.integers(2, 12)), d), 10.0 if normalize else 1.0 / np.sqrt(d)))
    if normalize:
        assume(np.all(np.abs(rows).max(axis=1) > 1e-3))
    return model, rows


@st.composite
def kods_cases(draw):
    k = draw(st.integers(1, 3))
    n = draw(st.integers(1, 12))
    d = draw(st.integers(1, 5))
    family = draw(st.sampled_from(FAMILIES))
    kernel = KernelSpec(family=family, sigma=draw(st.floats(0.1, 2.0)),
                        degree=draw(st.integers(1, 4)), offset=draw(st.floats(0.0, 1.0)))
    support = draw(_uniform((n, d), 1.0))
    norms = np.linalg.norm(support, axis=1)
    assume(np.all(norms > 1e-3))
    support = support / norms[:, None]
    rows = draw(_uniform((draw(st.integers(2, 12)), d), 3.0))
    assume(np.all(np.abs(rows).max(axis=1) > 1e-3))
    if family in NONNEGATIVE_FAMILIES:
        support, rows = np.abs(support), np.abs(rows)
    model = KodsModel(
        duals=DualVars(y=draw(_uniform((k, n), 1.0)) / np.sqrt(n),
                       z=draw(_uniform((k, n), 1.0)) / np.sqrt(n)),
        kernel=kernel, support=support,
        b1=draw(_uniform((k,), 2.0)), b2=draw(_uniform((k,), 2.0)),
        eta_effective=0.1, jitter=0.0, normalization=True, hyper=KodsHyper(k=k),
    )
    return model, rows


def _assert_rows_match_batch(single, batch, rows):
    s1, s2 = batch(rows)
    for i, row in enumerate(rows):
        for got, want in zip(single(row), (s1[i], s2[i])):
            assert abs(got - want) <= 4.0 * EPS * (1.0 + abs(want)), (i, got, want)


@settings(max_examples=200, deadline=None)
@given(primal_cases())
def test_primal_single_row_scores_match_the_batch(case):
    model, rows = case
    _assert_rows_match_batch(lambda x: primal_scores(model, x),
                             lambda x: primal_scores_batch(model, x), rows)


@settings(max_examples=200, deadline=None)
@given(kods_cases())
def test_kods_single_row_scores_match_the_batch(case):
    model, rows = case
    _assert_rows_match_batch(lambda x: kods_scores(model, x),
                             lambda x: kods_scores_batch(model, x), rows)
