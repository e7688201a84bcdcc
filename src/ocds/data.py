"""Dataset ingestion, normalization, splits, and synthetic generators.

All randomness flows through numpy's default_rng (PCG64), seeded
explicitly, so every split and every generated dataset is reproducible
across platforms.
"""
from __future__ import annotations

import csv
import io
import math
import numbers
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError, DimensionError, DomainError, SchemaError

__all__ = [
    "Dataset",
    "load_csv",
    "write_csv",
    "l2_normalize",
    "one_class_split",
    "synth",
    "SYNTH_KINDS",
    "SYNTH_PARAMS",
]

# The parameters each synthetic kind takes, with their defaults; synth
# rejects any other.
SYNTH_PARAMS = {
    "gaussian": {"d": 2, "mean": 0.0, "cov": 1.0},
    "arbitrary": {},
    "ring": {"r_in": 0.7, "r_out": 1.0},
    "ring3d": {"r_in": 0.7, "r_out": 1.0, "height": 0.3},
}
SYNTH_KINDS = tuple(SYNTH_PARAMS)

# Values per string write_csv joins before writing it: at most ~100 KB of
# text, under glibc's 128 KB mmap threshold. Larger blocks are mapped and
# unmapped, which raises that threshold, and then a process that writes
# 4000x60 rows peaks ~28 MB higher (seen at 2**15).
_CSV_BLOCK_VALUES = 2**12


@dataclass
class Dataset:
    features: np.ndarray                      # (n, d) float64, all finite
    labels: np.ndarray | None = None          # (n,) strings, or None
    source: str = ""

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2 or min(self.features.shape) < 1:
            raise DataError(
                f"dataset needs a 2-D feature matrix with at least one row and one "
                f"column, got shape {self.features.shape}"
            )
        if not np.isfinite(self.features).all():
            raise DataError("dataset features contain non-finite values")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=object)
            if self.labels.shape != (self.features.shape[0],):
                raise DataError(
                    f"labels length {self.labels.shape} does not match "
                    f"{self.features.shape[0]} rows"
                )

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


def load_csv(
    path,
    label_column: int | str | None = None,
    delimiter: str = ",",
    has_header: bool = False,
) -> Dataset:
    """Read a numeric CSV into a Dataset.

    label_column may be a 0-based index or, when has_header is set, a
    column name. The file is read as UTF-8; a leading byte-order mark is
    dropped. A header, when there is one, sets the column count. A
    delimiter the csv module rejects (anything but one character) raises
    SchemaError before the file is opened. Undecodable bytes, unparseable
    fields and ragged rows raise DataError, the latter two with the file
    line on which the offending record ends (blank lines and quoted line
    breaks counted); rows that parse to non-finite values are dropped with
    a warning listing their indices.
    """
    try:
        csv.reader((), delimiter=delimiter)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"bad CSV delimiter {delimiter!r}: {exc}") from None
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh, delimiter=delimiter)
            # (file line on which the record ends, record), blank records skipped
            rows = [(reader.line_num, row) for row in reader if any(cell.strip() for cell in row)]
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text: {exc}") from None
    except csv.Error as exc:
        raise DataError(f"{path}: {exc}") from None
    if not rows:
        raise DataError(f"{path}: no data rows")

    header: list[str] | None = None
    if has_header:
        header = [cell.strip() for cell in rows[0][1]]
        rows = rows[1:]
        if not rows:
            raise DataError(f"{path}: header only, no data rows")

    ncols = len(header if header is not None else rows[0][1])
    label_idx: int | None = None
    if label_column is not None:
        if isinstance(label_column, str):
            if header is None:
                raise SchemaError(
                    f"label column {label_column!r} given by name but the file has no header"
                )
            try:
                label_idx = header.index(label_column)
            except ValueError:
                raise SchemaError(
                    f"label column {label_column!r} not in header {header}"
                ) from None
        else:
            label_idx = int(label_column)
            if label_idx < 0:
                label_idx += ncols
            if not (0 <= label_idx < ncols):
                raise SchemaError(
                    f"label column index {label_column} out of range for {ncols} columns"
                )

    feats: list[list[float]] = []
    labels: list[str] = []
    for lineno, row in rows:
        if len(row) != ncols:
            raise DataError(
                f"{path}: line {lineno} has {len(row)} fields, expected {ncols}"
            )
        vals: list[float] = []
        for ci, cell in enumerate(row):
            if ci == label_idx:
                labels.append(cell.strip())
                continue
            try:
                vals.append(float(cell))
            except ValueError:
                raise DataError(
                    f"{path}: line {lineno}, column {ci}: cannot parse {cell.strip()!r} as a number"
                ) from None
        feats.append(vals)

    x = np.asarray(feats, dtype=np.float64)
    if x.shape[1] == 0:
        raise DataError(f"{path}: no feature columns left")
    finite = np.isfinite(x).all(axis=1)
    if not finite.all():
        bad = np.flatnonzero(~finite)
        warnings.warn(
            f"{path}: dropped {bad.size} row(s) with non-finite values "
            f"(row indices {bad.tolist()})",
            stacklevel=2,
        )
        x = x[finite]
        if label_idx is not None:
            labels = [lab for lab, ok in zip(labels, finite) if ok]
        if x.shape[0] == 0:
            raise DataError(f"{path}: every row was non-finite")

    return Dataset(
        features=x,
        labels=np.asarray(labels, dtype=object) if label_idx is not None else None,
        source=str(path),
    )


def write_csv(dataset: Dataset, path) -> None:
    """Write features (and labels, if present, as the last column) as UTF-8
    CSV. Floats are written with repr so a load_csv round trip is bit-exact.

    The bytes are those csv.writer writes: repr never needs quoting, and
    each distinct label is quoted by csv.writer itself. Rows are joined
    into one string per block of about _CSV_BLOCK_VALUES values.
    """
    x = dataset.features
    cells = labels = None
    if dataset.labels is not None:
        labels = [str(label) for label in dataset.labels]
        cells = {}
        for label in set(labels):
            buf = io.StringIO()
            csv.writer(buf).writerow(["", label])
            cells[label] = buf.getvalue()[1:-2]  # drop the leading "," and the "\r\n"
    step = max(1, _CSV_BLOCK_VALUES // x.shape[1])
    with open(Path(path), "w", newline="", encoding="utf-8") as fh:
        for start in range(0, x.shape[0], step):
            rows = [",".join(map(repr, row)) for row in x[start:start + step].tolist()]
            if cells is not None:
                rows = [f"{row},{cells[label]}"
                        for row, label in zip(rows, labels[start:start + step])]
            fh.write("".join(row + "\r\n" for row in rows))


def l2_normalize(x: np.ndarray) -> np.ndarray:
    """Scale every row to unit Euclidean norm. Zero rows are left alone and
    counted in a warning; a row with a non-finite entry raises DataError."""
    x = np.asarray(x, dtype=np.float64, order="C")
    if x.ndim != 2:
        raise DimensionError(f"l2_normalize expects a 2-D array, got shape {x.shape}")
    rows, norms = _unit_rows(x)
    return rows / norms[:, None]


def _unit_rows(x: np.ndarray, stacklevel: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """(rows, norms) of a C-ordered 2-D float64 array, with rows / norms[:, None]
    bit for bit l2_normalize(x).

    norms are np.sqrt(np.einsum("ij,ij->i", rows, rows)), which makes no
    (n, d) temporary; a row's norm is the same bits in any batch, except
    alone with more than 8192 features, where einsum buffers it. rows is x,
    or a copy in which each nonzero row whose squared norm under- or
    overflows is divided by its largest magnitude. A zero row gets norm
    1.0 (dividing by it keeps -0.0) and is counted in a warning raised
    stacklevel frames up. A non-finite row, found from the norms, raises
    DataError.
    """
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.einsum("ij,ij->i", x, x))
    rows = x
    nz = norms > 0.0
    if not (nz.all() and norms.max(initial=0.0) < np.inf):
        suspect = np.flatnonzero(~nz | np.isinf(norms))  # NaN norms fail nz
        _reject_non_finite(suspect[~np.isfinite(x[suspect]).all(axis=1)])
        redo = suspect[x[suspect].any(axis=1)]
        if redo.size:
            rows = x.copy()
            rows[redo] /= np.abs(x[redo]).max(axis=1, keepdims=True)
            norms[redo] = np.sqrt(np.einsum("ij,ij->i", rows[redo], rows[redo]))
        nz[redo] = True
        norms[~nz] = 1.0
    zeros = int((~nz).sum())
    if zeros:
        warnings.warn(f"l2_normalize: {zeros} zero row(s) left unscaled",
                      stacklevel=stacklevel)
    return rows, norms


def _training_rows(x) -> np.ndarray:
    """A model's training matrix as float64, checked 2-D with at least one
    row and one feature column, and finite."""
    x = np.asarray(x, dtype=np.float64, order="C")
    if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] < 1:
        raise DataError(
            f"training data must be a 2-D array with at least one row and one "
            f"feature column, got shape {x.shape}"
        )
    if not np.isfinite(x).all():
        raise DataError("training data contains non-finite values")
    return x


def _check_hyper(k, eta, lam) -> None:
    """The k, eta and lam checks of both hyperparameter dataclasses."""
    if not (isinstance(k, numbers.Integral) and not isinstance(k, bool) and k >= 1):
        raise DomainError(f"k must be an integer >= 1, got {k!r}")
    if not (math.isfinite(eta) and eta > 0.0):
        raise DomainError(f"eta must be positive and finite, got {eta}")
    if not (math.isfinite(lam) and lam >= 0.0):
        raise DomainError(f"lam must be finite and >= 0, got {lam}")


def _query_rows(x, dim: int, normalize: bool):
    """(rows, norms) of the rows of length dim to score. When the model was
    trained on l2-normalized rows, they are _unit_rows(x), with a zero-row
    warning attributed to the scorer's caller; otherwise rows is x and
    norms is None. A row with a non-finite entry raises DataError."""
    x = np.asarray(x, dtype=np.float64, order="C")
    if x.ndim != 2 or x.shape[1] != dim:
        raise DimensionError(f"expected rows of length {dim}, got shape {x.shape}")
    if normalize:
        return _unit_rows(x, stacklevel=4)
    _reject_non_finite(np.flatnonzero(~np.isfinite(x).all(axis=1)))
    return x, None


def _reject_non_finite(bad: np.ndarray) -> None:
    """DataError naming the first of the rows `bad`, if there are any."""
    if bad.size:
        raise DataError(f"row {bad[0]} has non-finite values ({bad.size} such row(s))")


def _score_one(score_batch, model, x, dim: int) -> tuple[float, float]:
    """(s1, s2) of one feature vector of length dim, via its family's batch scorer."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != dim:
        raise DimensionError(f"expected a vector of length {dim}, got shape {x.shape}")
    s1, s2 = score_batch(model, x[None, :])
    return float(s1[0]), float(s2[0])


def _check_model(eta_effective, arrays) -> None:
    """Checks shared by both trained-model dataclasses: a finite threshold
    > 0 (DomainError), and for each (name, array, shape) a finite array of
    exactly that shape, or no array where shape is None (DimensionError)."""
    if not (math.isfinite(eta_effective) and eta_effective > 0.0):
        raise DomainError(f"eta_effective must be finite and > 0, got {eta_effective}")
    for name, a, shape in arrays:
        got = None if a is None else np.shape(a)
        if got != shape:
            want_s, got_s = ("no array" if s is None else f"shape {s}" for s in (shape, got))
            raise DimensionError(f"{name}: expected {want_s}, got {got_s}")
        if a is not None and not np.isfinite(a).all():
            raise DimensionError(f"{name} has non-finite entries")


def one_class_split(
    dataset: Dataset, target: str, ratio: float = 0.7, seed: int = 0
) -> tuple[Dataset, Dataset]:
    """Split for one-class evaluation: the training set holds
    floor(ratio * n_target) rows of the target label, chosen by a seeded
    permutation; the test set holds every remaining row (leftover target
    rows plus all other labels), in original row order."""
    if dataset.labels is None:
        raise DataError("one_class_split needs a labeled dataset")
    if not (0.0 < ratio < 1.0):
        raise DataError(f"split ratio must be in (0, 1), got {ratio}")
    labels = dataset.labels
    pos = np.flatnonzero(labels == target)
    if pos.size == 0:
        raise DataError(f"target label {target!r} not present in the dataset")
    n_train = int(np.floor(ratio * pos.size))
    if n_train < 1:
        raise DataError(
            f"target label {target!r} has too few rows ({pos.size}) for ratio {ratio}"
        )
    rng = np.random.default_rng(seed)
    perm = rng.permutation(pos.size)
    train_idx = np.sort(pos[perm[:n_train]])
    rest = np.ones(dataset.n, dtype=bool)
    rest[train_idx] = False
    test_idx = np.flatnonzero(rest)
    train = Dataset(
        features=dataset.features[train_idx],
        labels=labels[train_idx],
        source=f"{dataset.source}[train]",
    )
    test = Dataset(
        features=dataset.features[test_idx],
        labels=labels[test_idx],
        source=f"{dataset.source}[test]",
    )
    return train, test


def synth(kind: str, n: int, seed: int = 0, **params) -> Dataset:
    """Generate a synthetic positive-class dataset.

    Kinds, with the parameters each takes (defaults in SYNTH_PARAMS):
      gaussian  -- d-dimensional normal; params d, mean, cov (scalar
                   variance >= 0 or a symmetric positive definite
                   covariance matrix), all checked before any draw
      arbitrary -- 1-D curve pairs (x, sqrt(x) * (x + s*u)) with
                   x ~ Uniform(0, 2], s a random sign, u ~ Uniform[0, 1);
                   draw order is x, then signs, then u
      ring      -- planar annulus; params r_in, r_out
      ring3d    -- the same annulus with a uniform vertical thickness;
                   params r_in, r_out, height
    A parameter the kind does not take raises DataError.
    """
    if kind not in SYNTH_KINDS:
        raise DataError(f"unknown synthetic kind {kind!r}; choose from {SYNTH_KINDS}")
    if not (isinstance(n, numbers.Integral) and not isinstance(n, bool) and n >= 1):
        raise DataError(f"synth needs an integer n >= 1, got {n!r}")
    unknown = sorted(set(params) - set(SYNTH_PARAMS[kind]))
    if unknown:
        raise DataError(f"unknown parameters for synth kind {kind!r}: {unknown}")
    params = {**SYNTH_PARAMS[kind], **params}
    rng = np.random.default_rng(seed)

    if kind == "gaussian":
        d, mean, cov_arr = _gaussian_params(params["d"], params["mean"], params["cov"])
        if cov_arr.ndim == 0:
            x = mean + np.sqrt(float(cov_arr)) * rng.standard_normal((n, d))
        else:
            x = rng.multivariate_normal(mean, cov_arr, size=n, method="cholesky")
    elif kind == "arbitrary":
        # 2 - U[0, 2) lands in the half-open interval (0, 2].
        x1 = 2.0 - rng.uniform(0.0, 2.0, size=n)
        signs = np.sign(rng.standard_normal(n))
        signs[signs == 0.0] = 1.0
        u = rng.uniform(0.0, 1.0, size=n)
        x2 = np.sqrt(x1) * (x1 + signs * u)
        x = np.column_stack([x1, x2])
    elif kind == "ring":
        r_in, r_out = float(params["r_in"]), float(params["r_out"])
        _check_ring(r_in, r_out)
        theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
        radius = rng.uniform(r_in, r_out, size=n)
        x = np.column_stack([radius * np.cos(theta), radius * np.sin(theta)])
    else:  # ring3d
        r_in, r_out = float(params["r_in"]), float(params["r_out"])
        height = float(params["height"])
        _check_ring(r_in, r_out)
        if height <= 0.0:
            raise DataError(f"ring3d height must be positive, got {height}")
        theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
        radius = rng.uniform(r_in, r_out, size=n)
        z = rng.uniform(-height / 2.0, height / 2.0, size=n)
        x = np.column_stack([radius * np.cos(theta), radius * np.sin(theta), z])

    return Dataset(features=x, labels=None, source=f"synth:{kind}:seed={seed}")


def _gaussian_params(d, mean, cov):
    """synth("gaussian")'s (d, mean, cov) checked before any draw: d a
    whole number >= 1, mean a finite scalar or d-vector (returned as a
    d-vector), cov a finite variance >= 0 or a symmetric positive definite
    d x d matrix, the only kind its Cholesky draw reads in full."""
    try:
        whole = int(d) == d and d >= 1 and not isinstance(d, bool)
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not whole:
        raise DataError(f"gaussian synth needs a whole number d >= 1, got {d!r}")
    d = int(d)
    try:
        mean, cov = np.asarray(mean, dtype=np.float64), np.asarray(cov, dtype=np.float64)
    except (TypeError, ValueError):
        raise DataError(f"gaussian synth needs numeric mean and cov, got {mean!r}, {cov!r}") from None
    if mean.shape not in ((), (d,)):
        raise DimensionError(f"mean must be scalar or of length {d}, got shape {mean.shape}")
    if not np.isfinite(mean).all():
        raise DataError("gaussian synth needs a finite mean")
    if cov.ndim == 0:
        if not (math.isfinite(cov) and cov >= 0.0):
            raise DataError(f"gaussian synth needs a finite variance >= 0, got {float(cov)}")
    else:
        if cov.shape != (d, d):
            raise DimensionError(f"covariance must be scalar or {d}x{d}, got shape {cov.shape}")
        if not np.isfinite(cov).all():
            raise DataError("covariance matrix has non-finite entries")
        if not np.array_equal(cov, cov.T):
            raise DataError("covariance matrix is not symmetric")
        try:
            np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise DataError("covariance matrix is not positive definite") from None
    return d, np.broadcast_to(mean, (d,)), cov


def _check_ring(r_in: float, r_out: float) -> None:
    if not (0.0 < r_in < r_out):
        raise DataError(f"ring radii must satisfy 0 < r_in < r_out, got {r_in}, {r_out}")
