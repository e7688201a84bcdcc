"""Model serialization: versioned, human-diffable JSON.

A model file is the model's dataclass tree, written by one encoder and
read back by one decoder that both walk the dataclass fields. Arrays are
{"shape", "data"} objects; None fields (r1/r2 outside gods_n) are left
out. On load each JSON value must have its field's type, and the rebuilt
dataclasses check finiteness, ranges and shape agreement themselves, so
wrong types, non-finite values and inconsistent shapes all surface as
`SchemaError` (CLI exit 1).

Floats are emitted through Python's repr (the json module's default),
which round-trips every finite double exactly, so a save/load cycle is
bit-exact and two saves of the same model are byte-identical. Training
wall time and other run-dependent values are deliberately excluded.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import typing
from pathlib import Path

import numpy as np

from .errors import SchemaError
from .kods import KodsModel
from .primal import TrainedPrimalModel

__all__ = ["SCHEMA_VERSION", "save_model", "load_model", "data_fingerprint"]

SCHEMA_VERSION = 1

_KINDS = {"primal": TrainedPrimalModel, "kods": KodsModel}


def data_fingerprint(x: np.ndarray) -> str:
    """SHA-256 over the training matrix bytes plus its shape."""
    x = np.ascontiguousarray(np.asarray(x, dtype=np.float64))
    h = hashlib.sha256()
    h.update(str(x.shape).encode())
    h.update(x.tobytes())
    return h.hexdigest()


def _fields(cls):
    """(field, type) pairs of a dataclass, with `X | None` reduced to X."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        args = [a for a in typing.get_args(hints[f.name]) if a is not type(None)]
        yield f, (args[0] if args else hints[f.name])


def _encode(obj) -> dict:
    doc = {}
    for f, tp in _fields(type(obj)):
        value = getattr(obj, f.name)
        if value is None:
            continue
        if dataclasses.is_dataclass(tp):
            doc[f.name] = _encode(value)
        elif tp is np.ndarray:
            a = np.asarray(value, dtype=np.float64)
            doc[f.name] = {"shape": list(a.shape), "data": [float(v) for v in a.ravel()]}
        else:
            doc[f.name] = tp(value)
    return doc


def _decode_value(tp, value):
    if dataclasses.is_dataclass(tp):
        return _decode(tp, value)
    if tp is np.ndarray:
        shape = [_decode_value(int, s) for s in value["shape"]]
        return np.asarray(value["data"], dtype=np.float64).reshape(shape)
    # bool subclasses int in Python: it fills a bool field and nothing else
    if isinstance(value, bool) is not (tp is bool) or not isinstance(
        value, (int, float) if tp is float else tp
    ):
        raise SchemaError(f"expected {tp.__name__}, got {value!r}")
    return tp(value)


def _decode(cls, doc):
    """Build dataclass cls from a JSON object; fields defaulting to None may
    be absent. Every failure, the dataclass's own checks included, is a
    SchemaError naming the offending field."""
    if not isinstance(doc, dict):
        raise SchemaError(f"expected an object, got {type(doc).__name__}")
    kwargs = {}
    for f, tp in _fields(cls):
        if f.name not in doc:
            if f.default is None:
                continue
            raise SchemaError(f"missing field {f.name!r}")
        try:
            kwargs[f.name] = _decode_value(tp, doc[f.name])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            label = (f"{f.name} block" if dataclasses.is_dataclass(tp)
                     else f"array field {f.name!r}" if tp is np.ndarray
                     else f"field {f.name!r}")
            raise SchemaError(f"bad {label}: {exc}") from None
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise SchemaError(str(exc)) from None


def save_model(model, path, fingerprint: dict | None = None) -> None:
    """Write a trained model (either family) to path as JSON."""
    kind = next((k for k, cls in _KINDS.items() if isinstance(model, cls)), None)
    if kind is None:
        raise SchemaError(f"cannot serialize object of type {type(model).__name__}")
    doc = _encode(model)
    doc["kind"] = kind
    doc["schema_version"] = SCHEMA_VERSION
    if fingerprint is not None:
        doc["fingerprint"] = fingerprint
    text = json.dumps(doc, sort_keys=True, indent=1)
    Path(path).write_text(text + "\n", encoding="utf-8")


def load_model(path):
    """Read a model file back into its dataclass form."""
    path = Path(path)
    if not path.exists():
        raise SchemaError(f"no such model file: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise SchemaError(f"model file {path} is not UTF-8 text: {exc}") from None
    except (json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: brackets nested deeper than the parser's stack.
        raise SchemaError(f"model file {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaError(f"model file {path}: top level must be an object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaError(
            f"model file {path}: schema_version {version!r} unsupported "
            f"(expected {SCHEMA_VERSION})"
        )
    kind = doc.get("kind")
    cls = _KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise SchemaError(f"model file {path}: unknown kind {kind!r}")
    try:
        return _decode(cls, doc)
    except SchemaError as exc:
        raise SchemaError(f"model file {path}: {exc}") from None
