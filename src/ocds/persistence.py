"""Model serialization: versioned, human-diffable JSON.

Floats are emitted through Python's repr (the json module's default),
which round-trips every finite double exactly, so a save/load cycle is
bit-exact and two saves of the same model are byte-identical. Training
wall time and other run-dependent values are deliberately excluded.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .errors import SchemaError
from .kernels import KernelSpec
from .kods import DualVars, KodsHyper, KodsModel
from .primal import FramePair, GodsHyper, TrainedPrimalModel

__all__ = ["SCHEMA_VERSION", "save_model", "load_model", "data_fingerprint"]

SCHEMA_VERSION = 1


def _encode_array(a: np.ndarray) -> dict:
    a = np.asarray(a, dtype=np.float64)
    return {"shape": list(a.shape), "data": [float(v) for v in a.ravel()]}


def _decode_array(obj, what: str) -> np.ndarray:
    try:
        shape = tuple(int(s) for s in obj["shape"])
        data = np.asarray(obj["data"], dtype=np.float64)
        return data.reshape(shape)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"model file: bad array field {what!r}: {exc}") from None


def data_fingerprint(x: np.ndarray) -> str:
    """SHA-256 over the training matrix bytes plus its shape."""
    x = np.ascontiguousarray(np.asarray(x, dtype=np.float64))
    h = hashlib.sha256()
    h.update(str(x.shape).encode())
    h.update(x.tobytes())
    return h.hexdigest()


def save_model(model, path, fingerprint: dict | None = None) -> None:
    """Write a trained model (either family) to path as JSON."""
    if isinstance(model, TrainedPrimalModel):
        doc = _primal_doc(model)
    elif isinstance(model, KodsModel):
        doc = _kods_doc(model)
    else:
        raise SchemaError(f"cannot serialize object of type {type(model).__name__}")
    doc["schema_version"] = SCHEMA_VERSION
    if fingerprint is not None:
        doc["fingerprint"] = fingerprint
    text = json.dumps(doc, sort_keys=True, indent=1)
    Path(path).write_text(text + "\n")


def _primal_doc(model: TrainedPrimalModel) -> dict:
    fr = model.frames
    h = model.hyper
    doc = {
        "kind": "primal",
        "hyper": {
            "variant": h.variant,
            "k": h.k,
            "eta": h.eta,
            "nu": h.nu,
            "lam": h.lam,
            "p_norm": h.p_norm,
            "normalize": h.normalize,
        },
        "eta_effective": float(model.eta_effective),
        "feature_dim": int(model.feature_dim),
        "normalization": bool(model.normalization),
        "frames": {
            "w1": _encode_array(fr.w1),
            "b1": _encode_array(fr.b1),
            "w2": _encode_array(fr.w2),
            "b2": _encode_array(fr.b2),
        },
    }
    if fr.r1 is not None:
        doc["frames"]["r1"] = _encode_array(fr.r1)
        doc["frames"]["r2"] = _encode_array(fr.r2)
    return doc


def _kods_doc(model: KodsModel) -> dict:
    h = model.hyper
    ker = model.kernel
    return {
        "kind": "kods",
        "hyper": {
            "k": h.k,
            "eta": h.eta,
            "lam": h.lam,
            "normalize": h.normalize,
        },
        "kernel": {
            "family": ker.family,
            "sigma": ker.sigma,
            "degree": ker.degree,
            "offset": ker.offset,
        },
        "eta_effective": float(model.eta_effective),
        "jitter": float(model.jitter),
        "normalization": bool(model.normalization),
        "duals": {
            "y": _encode_array(model.duals.y),
            "z": _encode_array(model.duals.z),
        },
        "b1": _encode_array(model.b1),
        "b2": _encode_array(model.b2),
        "support": _encode_array(model.support),
    }


def load_model(path):
    """Read a model file back into its dataclass form."""
    path = Path(path)
    if not path.exists():
        raise SchemaError(f"no such model file: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
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
    if kind == "primal":
        return _load_primal(doc)
    if kind == "kods":
        return _load_kods(doc)
    raise SchemaError(f"model file {path}: unknown kind {kind!r}")


def _need(doc: dict, key: str):
    if not isinstance(doc, dict):
        raise SchemaError(
            f"model file: expected an object with field {key!r}, got {type(doc).__name__}"
        )
    if key not in doc:
        raise SchemaError(f"model file: missing field {key!r}")
    return doc[key]


def _scalar(doc: dict, key: str, cast):
    value = _need(doc, key)
    try:
        return cast(value)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"model file: bad field {key!r}: {exc}") from None


def _load_primal(doc: dict) -> TrainedPrimalModel:
    h = _need(doc, "hyper")
    try:
        hyper = GodsHyper(
            variant=h["variant"],
            k=int(h["k"]),
            eta=float(h["eta"]),
            nu=float(h["nu"]),
            lam=float(h["lam"]),
            p_norm=float(h["p_norm"]),
            normalize=bool(h["normalize"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"model file: bad hyper block: {exc}") from None
    fr = _need(doc, "frames")
    frames = FramePair(
        w1=_decode_array(_need(fr, "w1"), "w1"),
        b1=_decode_array(_need(fr, "b1"), "b1"),
        w2=_decode_array(_need(fr, "w2"), "w2"),
        b2=_decode_array(_need(fr, "b2"), "b2"),
        r1=_decode_array(fr["r1"], "r1") if "r1" in fr else None,
        r2=_decode_array(fr["r2"], "r2") if "r2" in fr else None,
    )
    return TrainedPrimalModel(
        frames=frames,
        hyper=hyper,
        eta_effective=_scalar(doc, "eta_effective", float),
        feature_dim=_scalar(doc, "feature_dim", int),
        normalization=bool(_need(doc, "normalization")),
    )


def _load_kods(doc: dict) -> KodsModel:
    h = _need(doc, "hyper")
    ker = _need(doc, "kernel")
    try:
        hyper = KodsHyper(
            k=int(h["k"]),
            eta=float(h["eta"]),
            lam=float(h["lam"]),
            normalize=bool(h["normalize"]),
        )
        kernel = KernelSpec(
            family=ker["family"],
            sigma=float(ker["sigma"]),
            degree=int(ker["degree"]),
            offset=float(ker["offset"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"model file: bad hyper/kernel block: {exc}") from None
    duals_doc = _need(doc, "duals")
    duals = DualVars(
        y=_decode_array(_need(duals_doc, "y"), "y"),
        z=_decode_array(_need(duals_doc, "z"), "z"),
    )
    return KodsModel(
        duals=duals,
        kernel=kernel,
        support=_decode_array(_need(doc, "support"), "support"),
        b1=_decode_array(_need(doc, "b1"), "b1"),
        b2=_decode_array(_need(doc, "b2"), "b2"),
        eta_effective=_scalar(doc, "eta_effective", float),
        jitter=_scalar(doc, "jitter", float),
        normalization=bool(_need(doc, "normalization")),
        hyper=hyper,
    )
