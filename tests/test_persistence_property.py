"""Property: save -> load -> save is byte-identical and every array comes
back bit for bit, for random models of every variant (finite floats,
subnormals and -0.0 included)."""
import dataclasses
import tempfile
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from ocds.kernels import FAMILIES, KernelSpec  # noqa: E402
from ocds.kods import DualVars, KodsHyper, KodsModel  # noqa: E402
from ocds.persistence import load_model, save_model  # noqa: E402
from ocds.primal import VARIANTS, FramePair, GodsHyper, TrainedPrimalModel  # noqa: E402

FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308]
)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
NONNEGATIVE = st.floats(min_value=0.0, allow_infinity=False) | st.just(-0.0)


def _array(shape):
    return arrays(np.float64, shape, elements=FINITE)


@st.composite
def primal_models(draw):
    variant = draw(st.sampled_from(VARIANTS))
    k = 1 if variant == "bods" else draw(st.integers(1, 3))
    d = draw(st.integers(1, 4))
    hyper = GodsHyper(
        variant=variant, k=k, eta=draw(POSITIVE), nu=draw(POSITIVE),
        lam=draw(NONNEGATIVE), p_norm=draw(st.floats(min_value=1.0, allow_infinity=False)),
        normalize=draw(st.booleans()),
    )
    scaled = variant == "gods_n"
    frames = FramePair(
        w1=draw(_array((d, k))), b1=draw(_array((k,))),
        w2=draw(_array((d, k))), b2=draw(_array((k,))),
        r1=draw(_array((k,))) if scaled else None,
        r2=draw(_array((k,))) if scaled else None,
    )
    return TrainedPrimalModel(frames=frames, hyper=hyper, eta_effective=draw(POSITIVE),
                              feature_dim=d, normalization=draw(st.booleans()))


@st.composite
def kods_models(draw):
    k = draw(st.integers(1, 3))
    n = draw(st.integers(1, 4))
    d = draw(st.integers(1, 3))
    kernel = KernelSpec(family=draw(st.sampled_from(FAMILIES)), sigma=draw(POSITIVE),
                        degree=draw(st.integers(1, 5)), offset=draw(NONNEGATIVE))
    return KodsModel(
        duals=DualVars(y=draw(_array((k, n))), z=draw(_array((k, n)))),
        kernel=kernel, support=draw(_array((n, d))),
        b1=draw(_array((k,))), b2=draw(_array((k,))),
        eta_effective=draw(POSITIVE), jitter=draw(NONNEGATIVE),
        normalization=draw(st.booleans()),
        hyper=KodsHyper(k=k, eta=draw(POSITIVE), lam=draw(NONNEGATIVE),
                        normalize=draw(st.booleans())),
    )


def _assert_bit_exact(a, b):
    """Same dataclass tree; arrays equal in shape and bytes, scalars equal
    in type and value (so -0.0 stays -0.0)."""
    assert type(a) is type(b)
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if dataclasses.is_dataclass(x):
            _assert_bit_exact(x, y)
        elif isinstance(x, np.ndarray):
            assert y.dtype == np.float64 and y.shape == x.shape
            assert y.tobytes() == x.tobytes(), f.name
        else:
            assert type(y) is type(x) and repr(y) == repr(x), f.name


@settings(max_examples=150, deadline=None)
@given(st.one_of(primal_models(), kods_models()))
def test_save_load_save_is_byte_identical_and_bit_exact(model):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "a.json"), Path(tmp, "b.json")
        save_model(model, first)
        back = load_model(first)
        save_model(back, second)
        assert second.read_bytes() == first.read_bytes()
    _assert_bit_exact(model, back)
