"""Property: over random shapes, every manifold's retraction lands on the
manifold and its tangent projection lands in the tangent space, both to
rounding level. Covers the KODS (Y, Z) pair as build_kods_problem builds it."""
import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ocds.errors import DegenerateStepError  # noqa: E402
from ocds.kods import KodsHyper, build_kods_problem  # noqa: E402
from ocds.manifolds import (  # noqa: E402
    GeneralizedStiefel,
    Oblique,
    PositiveVector,
    Sphere,
    Stiefel,
    tree_map,
)

TOL = 1e-10


def _pd_gram(n, rng):
    a = rng.standard_normal((n, n))
    return a @ a.T / n + np.eye(n)


@st.composite
def cases(draw):
    """(manifold, seed): a random shape of one manifold family."""
    family = draw(st.sampled_from(
        ["sphere", "stiefel", "oblique", "positive", "generalized", "kods_pair"]))
    d = draw(st.integers(1, 12))
    k = draw(st.integers(1, d))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if family == "sphere":
        man = Sphere(d)
    elif family == "stiefel":
        man = Stiefel(d, k)
    elif family == "oblique":
        man = Oblique(d, k)
    elif family == "positive":
        man = PositiveVector(k)
    elif family == "generalized":
        man = GeneralizedStiefel(d, k, _pd_gram(d, rng))
    else:
        man, _ = build_kods_problem(_pd_gram(d, rng), KodsHyper(k=k))
    return man, seed


@settings(max_examples=150, deadline=None)
@given(cases(), st.floats(1e-3, 2.0))
def test_retraction_stays_feasible_and_projection_stays_tangent(case, scale):
    man, seed = case
    rng = np.random.default_rng(seed + 1)
    point = man.random_point(seed)
    assert man.feasibility(point) <= TOL

    ambient = tree_map(lambda x: scale * rng.standard_normal(x.shape), point)
    tangent = man.project_tangent(point, ambient)
    assert man.tangency(point, tangent) <= TOL * max(1.0, scale)

    try:
        moved = man.retract(point, tangent)
    except DegenerateStepError:
        assume(False)
    assert man.feasibility(moved) <= TOL
    assert man.tangency(moved, man.transport(point, moved, tangent)) <= TOL * max(1.0, scale)
