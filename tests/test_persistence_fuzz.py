"""Fuzz: load_model on random bytes and on saved models whose JSON was
mutated (type swaps, shape edits, deleted or extra keys, deep nesting)
either returns a model or raises SchemaError, and nothing else."""
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ocds.errors import SchemaError  # noqa: E402
from ocds.kernels import KernelSpec  # noqa: E402
from ocds.kods import DualVars, KodsHyper, KodsModel  # noqa: E402
from ocds.persistence import load_model, save_model  # noqa: E402
from ocds.primal import FramePair, GodsHyper, TrainedPrimalModel  # noqa: E402

# Stands for a deeply nested array until the mutated document is written out:
# json.dumps cannot write nesting that deep itself.
_NEST = "\x00nest\x00"


def _saved_text(model) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_model(model, path, fingerprint={"seed": 0})
        return path.read_text(encoding="utf-8")


def _primal(variant: str, k: int, d: int = 3) -> TrainedPrimalModel:
    rng = np.random.default_rng(k)
    scales = np.ones(k) if variant == "gods_n" else None
    frames = FramePair(w1=rng.standard_normal((d, k)), b1=rng.standard_normal(k),
                       w2=rng.standard_normal((d, k)), b2=rng.standard_normal(k),
                       r1=scales, r2=scales)
    return TrainedPrimalModel(frames=frames, hyper=GodsHyper(variant=variant, k=k),
                              eta_effective=0.3, feature_dim=d, normalization=True)


def _kods(k: int = 2, n: int = 4, d: int = 3) -> KodsModel:
    rng = np.random.default_rng(7)
    return KodsModel(
        duals=DualVars(y=rng.standard_normal((k, n)), z=rng.standard_normal((k, n))),
        kernel=KernelSpec(family="polynomial"), support=rng.standard_normal((n, d)),
        b1=rng.standard_normal(k), b2=rng.standard_normal(k), eta_effective=0.3,
        jitter=1e-10, normalization=False, hyper=KodsHyper(k=k),
    )


SAVED = [_saved_text(m) for m in
         (_primal("gods", 2), _primal("gods_n", 2), _primal("bods", 1), _kods())]

VALUES = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
          | st.lists(st.integers(-2, 3), max_size=3)
          | st.dictionaries(st.sampled_from(["shape", "data", "k"]), st.integers(-1, 3),
                            max_size=2))
SHAPES = st.lists(st.integers(-2, 5) | st.sampled_from([2**31, 2**63, 10**30]), max_size=4)


def _nested(depth: int) -> str:
    return "[" * depth + "]" * depth


@st.composite
def mutated_models(draw):
    doc = json.loads(draw(st.sampled_from(SAVED)))
    depth = draw(st.sampled_from([1, 50, 500, 900, 1000, 5000]))
    for _ in range(draw(st.integers(1, 3))):
        parent, key, node = None, None, doc
        while isinstance(node, (dict, list)) and node and draw(st.booleans()):
            key = draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                       else range(len(node))))
            parent, node = node, node[key]
        op = draw(st.sampled_from(["swap", "nest", "delete", "extra", "shape"]))
        if op == "extra" and isinstance(node, dict):
            node[draw(st.text(max_size=6))] = draw(VALUES)
        elif op == "extra" and isinstance(node, list):
            node.append(draw(VALUES))
        elif op == "shape" and isinstance(node, dict) and "shape" in node:
            node["shape"] = draw(SHAPES)
        elif op == "delete" and parent is not None:
            del parent[key]
        else:
            value = _NEST if op == "nest" else draw(VALUES)
            if parent is None:
                doc = value
            else:
                parent[key] = value
    return json.dumps(doc).replace(json.dumps(_NEST), _nested(depth)).encode("utf-8")


def _load(raw: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.json"
        path.write_bytes(raw)
        try:
            model = load_model(path)
        except SchemaError:
            return
    assert isinstance(model, (TrainedPrimalModel, KodsModel))


def test_saved_models_load():
    for text in SAVED:
        _load(text.encode("utf-8"))


@settings(max_examples=300, deadline=None)
@given(raw=mutated_models())
@example(raw=SAVED[0].replace('"hyper": {', '"deep": ' + _nested(5000) + ', "hyper": {', 1)
         .encode("utf-8"))
def test_mutated_model_file_loads_or_raises_schema_error(raw):
    _load(raw)


@settings(max_examples=200, deadline=None)
@given(raw=st.binary(max_size=256))
@example(raw=_nested(5000).encode("utf-8"))
def test_random_bytes_load_or_raise_schema_error(raw):
    _load(raw)
