"""CSV ingestion, row normalization, one-class splits, synthetic sets."""
import csv
import warnings

import numpy as np
import pytest

from ocds.data import (Dataset, _unit_rows, l2_normalize, load_csv, one_class_split, synth,
                       write_csv)
from ocds.errors import DataError, DimensionError, SchemaError


# ---------------------------------------------------------------------------
# Dataset


def test_dataset_basic_properties():
    ds = Dataset(features=np.zeros((4, 3)))
    assert ds.n == 4 and ds.dim == 3
    assert ds.labels is None


def test_dataset_rejects_bad_inputs():
    with pytest.raises(DataError):
        Dataset(features=np.zeros((0, 3)))
    with pytest.raises(DataError):
        Dataset(features=np.zeros(5))
    with pytest.raises(DataError):
        Dataset(features=np.array([[1.0, np.nan]]))
    with pytest.raises(DataError):
        Dataset(features=np.zeros((3, 2)), labels=np.array(["a", "b"], dtype=object))
    # write_csv would otherwise divide its block size by zero columns
    with pytest.raises(DataError, match="one column"):
        Dataset(features=np.empty((3, 0)))


def test_dataset_names_its_first_non_finite_row():
    x = np.zeros((4, 2))
    x[2, 1] = np.inf
    with pytest.raises(DataError, match=r"^row 2 has non-finite values \(1 such row"):
        Dataset(features=x)


# ---------------------------------------------------------------------------
# load_csv


def test_load_plain_numeric_csv(tmp_path):
    p = tmp_path / "plain.csv"
    p.write_text("1.5,2.5\n-3.0,4.0\n")
    ds = load_csv(p)
    np.testing.assert_array_equal(ds.features, [[1.5, 2.5], [-3.0, 4.0]])
    assert ds.labels is None
    assert ds.source == str(p)


def test_load_with_label_index(tmp_path):
    p = tmp_path / "lab.csv"
    p.write_text("1,2,yes\n3,4,no\n")
    ds = load_csv(p, label_column=-1)
    np.testing.assert_array_equal(ds.features, [[1.0, 2.0], [3.0, 4.0]])
    assert list(ds.labels) == ["yes", "no"]


def test_load_with_header_and_named_label(tmp_path):
    p = tmp_path / "head.csv"
    p.write_text("a,b,cls\n0.5,1.0,g\n2.0,3.0,h\n")
    ds = load_csv(p, label_column="cls", has_header=True)
    np.testing.assert_array_equal(ds.features, [[0.5, 1.0], [2.0, 3.0]])
    assert list(ds.labels) == ["g", "h"]


def test_load_custom_delimiter(tmp_path):
    p = tmp_path / "semi.csv"
    p.write_text("1;2\n3;4\n")
    ds = load_csv(p, delimiter=";")
    np.testing.assert_array_equal(ds.features, [[1.0, 2.0], [3.0, 4.0]])


def test_load_skips_blank_lines(tmp_path):
    p = tmp_path / "blank.csv"
    p.write_text("1,2\n\n  ,\n3,4\n")
    ds = load_csv(p)
    assert ds.n == 2


def test_load_missing_file():
    with pytest.raises(DataError, match="no such file"):
        load_csv("/nonexistent/nowhere.csv")


def test_load_empty_file(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("")
    with pytest.raises(DataError, match="no data rows"):
        load_csv(p)


def test_load_header_only_file(tmp_path):
    p = tmp_path / "honly.csv"
    p.write_text("a,b\n")
    with pytest.raises(DataError, match="header only"):
        load_csv(p, has_header=True)


def test_load_ragged_row_names_its_line(tmp_path):
    p = tmp_path / "ragged.csv"
    p.write_text("1,2\n3,4,5\n")
    with pytest.raises(DataError, match="line 2 has 3 fields"):
        load_csv(p)


def test_load_ragged_line_numbers_account_for_header(tmp_path):
    p = tmp_path / "ragged2.csv"
    p.write_text("a,b\n1,2\n3\n")
    with pytest.raises(DataError, match="line 3 has 1 fields"):
        load_csv(p, has_header=True)


def test_load_header_wider_than_the_rows_names_the_first_row(tmp_path):
    p = tmp_path / "wide.csv"
    p.write_text("a,b,c,lab\n1,2\n3,4\n")
    with pytest.raises(DataError, match="line 2 has 2 fields, expected 4"):
        load_csv(p, label_column="lab", has_header=True)


def test_load_drops_a_utf8_byte_order_mark(tmp_path):
    p = tmp_path / "bom.csv"
    p.write_bytes(b"\xef\xbb\xbf1,2\n3,4\n")
    np.testing.assert_array_equal(load_csv(p).features, [[1.0, 2.0], [3.0, 4.0]])


def test_load_unparseable_cell_names_line_and_column(tmp_path):
    p = tmp_path / "badcell.csv"
    p.write_text("1,2\n3,oops\n")
    with pytest.raises(DataError, match=r"line 2, column 1: cannot parse 'oops'"):
        load_csv(p)


def test_load_line_numbers_count_blank_lines(tmp_path):
    p = tmp_path / "gaps.csv"
    p.write_text("1,2\n\n\n3,x\n")
    with pytest.raises(DataError, match=r"line 4, column 1: cannot parse 'x'"):
        load_csv(p)
    p.write_text("a,b\n1,2\n\n3\n")
    with pytest.raises(DataError, match="line 4 has 1 fields"):
        load_csv(p, has_header=True)


def test_load_line_numbers_count_line_breaks_inside_quoted_labels(tmp_path):
    # a record is named by the line it ends on
    p = tmp_path / "multiline.csv"
    p.write_text('1,"two\nlines"\noops,b\n')
    with pytest.raises(DataError, match=r"line 3, column 0: cannot parse 'oops'"):
        load_csv(p, label_column=1)
    p.write_text('1,"two\nlines"\n3\n')
    with pytest.raises(DataError, match="line 3 has 1 fields"):
        load_csv(p, label_column=1)
    p.write_text('"1\n2",a\n')
    with pytest.raises(DataError, match=r"line 2, column 0"):
        load_csv(p, label_column=1)


def test_load_named_label_without_header_is_a_schema_error(tmp_path):
    p = tmp_path / "nh.csv"
    p.write_text("1,2\n")
    with pytest.raises(SchemaError, match="no header"):
        load_csv(p, label_column="cls")


def test_load_unknown_label_name_is_a_schema_error(tmp_path):
    p = tmp_path / "unk.csv"
    p.write_text("a,b\n1,2\n")
    with pytest.raises(SchemaError, match="not in header"):
        load_csv(p, label_column="cls", has_header=True)


def test_load_label_index_out_of_range(tmp_path):
    p = tmp_path / "oor.csv"
    p.write_text("1,2\n")
    with pytest.raises(SchemaError, match="out of range"):
        load_csv(p, label_column=5)


def test_load_non_utf8_bytes_is_a_data_error(tmp_path):
    p = tmp_path / "latin1.csv"
    p.write_bytes("1,2,caf\u00e9\n".encode("latin-1"))
    with pytest.raises(DataError, match="not UTF-8"):
        load_csv(p, label_column=-1)


def test_load_oversized_field_is_a_data_error(tmp_path):
    p = tmp_path / "huge.csv"
    p.write_text("1," + "2" * 200_000 + "\n")  # past the csv module's field limit
    with pytest.raises(DataError, match="field larger than field limit"):
        load_csv(p)


@pytest.mark.parametrize("delimiter", [";;", "", None, 5])
def test_load_rejects_a_delimiter_that_is_not_one_character(tmp_path, delimiter):
    # checked before the file is read: the path need not exist
    with pytest.raises(SchemaError, match="delimiter"):
        load_csv(tmp_path / "absent.csv", delimiter=delimiter)


def test_load_rejects_a_non_finite_row_naming_its_line(tmp_path):
    # Dropping the row would shift every later row's label or prediction.
    p = tmp_path / "inf.csv"
    p.write_text("x,y,label\n1,2,a\n\ninf,3,b\n4,5,c\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match=r"inf\.csv: line 4 has non-finite values \(1 such row"):
            load_csv(p, label_column="label", has_header=True)


def test_load_with_every_row_non_finite_names_the_first(tmp_path):
    p = tmp_path / "allinf.csv"
    p.write_text("inf,1\nnan,2\n")
    with pytest.raises(DataError, match=r"line 1 has non-finite values \(2 such row"):
        load_csv(p)


# ---------------------------------------------------------------------------
# write_csv round trips


def test_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    ds = Dataset(features=rng.standard_normal((6, 4)) * 1e3)
    p = tmp_path / "rt.csv"
    write_csv(ds, p)
    back = load_csv(p)
    np.testing.assert_array_equal(back.features, ds.features)


def test_round_trip_with_labels_last(tmp_path):
    ds = Dataset(
        features=np.array([[0.1, 0.2], [0.3, 0.4]]),
        labels=np.array(["in", "out"], dtype=object),
    )
    p = tmp_path / "rtl.csv"
    write_csv(ds, p)
    back = load_csv(p, label_column=-1)
    np.testing.assert_array_equal(back.features, ds.features)
    assert list(back.labels) == ["in", "out"]


def test_round_trip_writes_utf8_labels(tmp_path):
    ds = Dataset(features=np.array([[0.5]]), labels=np.array(["\u00e9t\u00e9"], dtype=object))
    p = tmp_path / "rtu.csv"
    write_csv(ds, p)
    assert p.read_bytes() == "0.5,\u00e9t\u00e9\r\n".encode("utf-8")
    assert list(load_csv(p, label_column=-1).labels) == ["\u00e9t\u00e9"]


def _csv_writer_bytes(features, labels, path):
    """The bytes csv.writer writes for the rows write_csv documents."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for i, row in enumerate(features):
            cells = [repr(float(v)) for v in row]
            if labels is not None:
                cells.append(str(labels[i]))
            writer.writerow(cells)
    return path.read_bytes()


WRITE_LABELS = ["in", "", "a,b", 'say "hi"', "two\nlines", "cr\r", " padded ",
                "\u00e9t\u00e9", "1.5", "'q'", 7]


@pytest.mark.parametrize("labeled", [False, True])
@pytest.mark.parametrize("n", [40, 12000])  # one block; two, the last one partial
def test_write_csv_bytes_equal_csv_writer(tmp_path, labeled, n):
    rng = np.random.default_rng(5)
    x = rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-300, 300, (n, 3))
    x[0] = [np.nan, np.inf, -np.inf]
    x[1] = [-0.0, 0.0, 5e-324]
    x[2] = [2.2250738585072014e-308 / 3.0, -1e-320, np.finfo(np.float64).max]
    labels = None
    if labeled:
        labels = np.array([WRITE_LABELS[i % len(WRITE_LABELS)] for i in range(n)],
                          dtype=object)
    ds = Dataset(features=np.ones((n, 3)), labels=labels)
    ds.features = x  # non-finite values cannot come through Dataset's check
    write_csv(ds, tmp_path / "w.csv")
    want = _csv_writer_bytes(x, labels, tmp_path / "ref.csv")
    assert (tmp_path / "w.csv").read_bytes() == want


def test_round_trip_with_labels_first(tmp_path):
    a, b = 1.0 / 3.0, 2.0 / 7.0
    p = tmp_path / "rtf.csv"
    p.write_text(f"z,{a!r},{b!r}\n")
    back = load_csv(p, label_column=0)
    np.testing.assert_array_equal(back.features, [[a, b]])
    assert list(back.labels) == ["z"]


# ---------------------------------------------------------------------------
# l2_normalize


def test_l2_normalize_unit_rows():
    x = np.array([[3.0, 4.0], [0.0, 2.0]])
    out = l2_normalize(x)
    np.testing.assert_allclose(np.linalg.norm(out, axis=1), [1.0, 1.0], rtol=1e-15)
    np.testing.assert_array_equal(x, [[3.0, 4.0], [0.0, 2.0]])  # input untouched


def test_l2_normalize_leaves_zero_rows_and_warns():
    x = np.array([[0.0, 0.0], [1.0, 1.0]])
    with pytest.warns(UserWarning, match="1 zero row"):
        out = l2_normalize(x)
    np.testing.assert_array_equal(out[0], [0.0, 0.0])


def _einsum_norms(x):
    """The package's row norm, over C-ordered rows."""
    c = np.ascontiguousarray(x)
    return np.sqrt(np.einsum("ij,ij->i", c, c))


def _masked_l2_normalize(x):
    """Row normalization by masked fancy indexing: zero rows are skipped."""
    norms = _einsum_norms(x)
    out = x.copy()
    nz = norms > 0.0
    out[nz] = out[nz] / norms[nz, None]
    return out


@pytest.mark.parametrize("shape", [(4000, 60), (2000, 60), (20000, 2), (500, 20)])
def test_l2_normalize_bit_equals_the_masked_form(shape):
    rng = np.random.default_rng(6)
    # Row scales from 1e-100 to 1e100: no squared norm under- or overflows.
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-100, 100, (shape[0], 1))
    x[::7] = 0.0
    x[3::11] = -0.0
    x[1, 0] = 5e-324
    zeros = len(set(range(0, shape[0], 7)) | set(range(3, shape[0], 11)))
    with pytest.warns(UserWarning, match=f"l2_normalize: {zeros} zero row\\(s\\) left unscaled"):
        out = l2_normalize(x)
    assert out.tobytes() == _masked_l2_normalize(x).tobytes()
    assert np.signbit(out[3::11]).all()  # -0.0 rows keep their sign


def test_l2_normalize_rescales_rows_whose_squared_norm_under_or_overflows():
    # (3e-170)^2 underflows to 0 and (3e160)^2 overflows to inf; both rows
    # are divided by their largest entry first, the middle row is untouched
    x = np.array([[3e-170, 4e-170], [1.0, 0.0], [3e160, 4e160]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = l2_normalize(x)
    np.testing.assert_allclose(out, [[0.6, 0.8], [1.0, 0.0], [0.6, 0.8]], rtol=1e-15)
    assert out[1].tobytes() == np.array([1.0, 0.0]).tobytes()


def test_l2_normalize_rejects_vectors():
    with pytest.raises(DimensionError):
        l2_normalize(np.ones(3))


def test_l2_normalize_names_a_scalar_by_its_own_shape():
    with pytest.raises(DimensionError, match=r"got shape \(\)"):
        l2_normalize(3.0)


def _awkward_rows(n, d, seed):
    """Rows at scales 1e-100 to 1e100, with zero and -0.0 rows and rows whose
    squared norm under- or overflows."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-100, 100, (n, 1))
    x[::7] = 0.0
    x[3::11] = -0.0
    x[1::13] = 3e-170 * np.sign(rng.standard_normal((x[1::13].shape[0], d)))
    x[2::17] = 3e160
    x[5::19] = 1e154  # each square is finite, their sum is not
    return x


@pytest.mark.parametrize("layout", ["C", "F", "column slice"])
@pytest.mark.parametrize("shape", [(1, 3), (4000, 60), (20000, 2), (137, 61), (9, 9000)])
def test_unit_rows_reproduce_l2_normalize_bit_for_bit(shape, layout):
    x = _awkward_rows(shape[0], shape[1] * (2 if layout == "column slice" else 1), 8)
    x = {"C": x, "F": np.asfortranarray(x), "column slice": x[:, ::2]}[layout]
    c = np.ascontiguousarray(x)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        warnings.simplefilter("error", RuntimeWarning)
        rows, norms = _unit_rows(c)
        out = l2_normalize(x)
    assert out.flags.c_contiguous
    assert (rows / norms[:, None]).tobytes() == out.tobytes()
    with np.errstate(over="ignore"):
        ref = _einsum_norms(x)
    ordinary = (ref > 0.0) & (ref < np.inf)  # rows kept as they are
    assert norms[ordinary].tobytes() == ref[ordinary].tobytes()
    assert rows[ordinary].tobytes() == c[ordinary].tobytes()
    # The Euclidean norm, summed in another order: d squares, each rounded.
    np.testing.assert_allclose(norms[ordinary], np.linalg.norm(c[ordinary], axis=1),
                               rtol=c.shape[1] * np.finfo(np.float64).eps, atol=0.0)


@pytest.mark.parametrize("d", [1, 3, 60, 61, 1000, 8192])
def test_a_row_norm_is_the_same_in_any_batch(d):
    rng = np.random.default_rng(d)
    x = rng.standard_normal((50, d)) * 10.0 ** rng.integers(-50, 50, (50, 1))
    _, whole = _unit_rows(x)
    for start, stop in [(0, 1), (7, 8), (49, 50), (3, 20), (13, 50), (1, 3)]:
        _, part = _unit_rows(x[start:stop])
        assert part.tobytes() == whole[start:stop].tobytes()
    _, shuffled = _unit_rows(x[::-1].copy())
    assert shuffled[::-1].tobytes() == whole.tobytes()


def test_l2_normalize_warns_nothing_when_a_squared_norm_sum_overflows():
    # 1e154**2 is finite but the sum of two of them is not: the row is
    # rescaled like any other overflowing row, with no RuntimeWarning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = l2_normalize(np.array([[1e154, 1e154], [3.0, 4.0]]))
    np.testing.assert_array_equal(out, [[1.0 / np.sqrt(2.0)] * 2, [0.6, 0.8]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_l2_normalize_rejects_non_finite_rows_naming_the_first(bad):
    x = np.ones((6, 3))
    x[2, 1] = bad
    x[4, 0] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match=r"row 2 has non-finite values \(2 such row"):
            l2_normalize(x)


# ---------------------------------------------------------------------------
# one_class_split


def _labeled(n_target=10, n_other=4):
    feats = np.arange(float(n_target + n_other))[:, None]
    labels = np.array(
        ["t"] * n_target + ["o"] * n_other, dtype=object
    )
    return Dataset(features=feats, labels=labels, source="unit")


def test_split_sizes_and_purity():
    train, test = one_class_split(_labeled(), "t", ratio=0.7, seed=0)
    assert train.n == 7  # floor(0.7 * 10)
    assert set(train.labels) == {"t"}
    assert train.n + test.n == 14
    assert (test.labels == "o").sum() == 4


def test_split_test_rows_keep_original_order():
    train, test = one_class_split(_labeled(), "t", ratio=0.5, seed=3)
    order = test.features[:, 0]
    assert np.all(np.diff(order) > 0)  # features were row indices


def test_split_is_deterministic_per_seed():
    a_train, _ = one_class_split(_labeled(), "t", seed=11)
    b_train, _ = one_class_split(_labeled(), "t", seed=11)
    np.testing.assert_array_equal(a_train.features, b_train.features)
    c_train, _ = one_class_split(_labeled(50, 5), "t", seed=12)
    d_train, _ = one_class_split(_labeled(50, 5), "t", seed=13)
    assert not np.array_equal(c_train.features, d_train.features)


def test_split_errors():
    with pytest.raises(DataError, match="labeled"):
        one_class_split(Dataset(features=np.zeros((3, 1))), "t")
    with pytest.raises(DataError, match="ratio"):
        one_class_split(_labeled(), "t", ratio=1.0)
    with pytest.raises(DataError, match="not present"):
        one_class_split(_labeled(), "missing")
    with pytest.raises(DataError, match="too few"):
        one_class_split(_labeled(n_target=1), "t", ratio=0.5)


# ---------------------------------------------------------------------------
# synth


def test_gaussian_sample_mean_within_three_sigma_of_zero():
    # 3 / sqrt(100) per-coordinate bound; seeds pinned after checking
    for seed in range(5):
        ds = synth("gaussian", 100, seed=seed)
        assert ds.features.shape == (100, 2)
        assert np.abs(ds.features.mean(axis=0)).max() < 0.3


def test_gaussian_honors_mean_and_variance():
    ds = synth("gaussian", 2000, seed=1, d=3, mean=5.0, cov=0.01)
    assert ds.features.shape == (2000, 3)
    assert np.abs(ds.features.mean(axis=0) - 5.0).max() < 0.02
    assert abs(ds.features.std() - 0.1) < 0.02


def test_gaussian_full_covariance_matrix():
    cov = np.array([[1.0, 0.6], [0.6, 1.0]])
    ds = synth("gaussian", 4000, seed=2, cov=cov)
    sample = np.cov(ds.features.T)
    assert np.abs(sample - cov).max() < 0.1


def test_gaussian_rejects_empty_dimension():
    with pytest.raises(DataError):
        synth("gaussian", 5, d=0)


def test_gaussian_rejects_misshapen_covariance():
    with pytest.raises(DimensionError):
        synth("gaussian", 10, d=3, cov=np.eye(2))


class _NoDraws:
    def __getattr__(self, name):
        raise AssertionError(f"synth drew ({name}) before rejecting its parameters")


@pytest.mark.parametrize("params, error", [
    ({"cov": -0.5}, DataError),
    ({"cov": float("nan")}, DataError),
    ({"cov": np.array([[1.0, 2.0], [2.0, 1.0]])}, DataError),   # indefinite
    ({"cov": np.array([[1.0, 1.0], [1.0, 1.0]])}, DataError),   # singular
    ({"cov": np.array([[1.0, 0.5], [0.0, 1.0]])}, DataError),   # asymmetric
    ({"cov": np.array([[1.0, np.inf], [np.inf, 1.0]])}, DataError),
    ({"cov": "abc"}, DataError),
    ({"mean": [1.0, 2.0, 3.0]}, DimensionError),
    ({"mean": float("inf")}, DataError),
    ({"d": 2.5}, DataError),
    ({"d": True}, DataError),
    ({"d": float("nan")}, DataError),
], ids=["negative-variance", "nan-variance", "indefinite", "singular", "asymmetric",
        "inf-matrix", "text-cov", "mean-length", "inf-mean", "fractional-d", "bool-d", "nan-d"])
def test_gaussian_rejects_bad_parameters_before_any_draw(monkeypatch, params, error):
    monkeypatch.setattr(np.random, "default_rng", lambda seed=None: _NoDraws())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            synth("gaussian", 10, **params)


def test_gaussian_draws_are_the_generators_own():
    # Checking the parameters first must not change a single draw.
    cov = np.array([[1.0, 0.6], [0.6, 2.0]])
    got = synth("gaussian", 50, seed=3, mean=[1.0, -1.0], cov=cov).features
    want = np.random.default_rng(3).multivariate_normal([1.0, -1.0], cov, size=50,
                                                        method="cholesky")
    assert got.tobytes() == want.tobytes()
    got = synth("gaussian", 50, seed=4, d=3.0, mean=2.0, cov=0.25).features
    want = 2.0 + np.sqrt(0.25) * np.random.default_rng(4).standard_normal((50, 3))
    assert got.tobytes() == want.tobytes()


def test_arbitrary_single_draw_matches_documented_order():
    ds = synth("arbitrary", 1, seed=0)
    rng = np.random.default_rng(0)
    x1 = 2.0 - rng.uniform(0.0, 2.0, size=1)
    signs = np.sign(rng.standard_normal(1))
    signs[signs == 0.0] = 1.0
    u = rng.uniform(0.0, 1.0, size=1)
    x2 = np.sqrt(x1) * (x1 + signs * u)
    np.testing.assert_array_equal(ds.features, np.column_stack([x1, x2]))


def test_arbitrary_stays_inside_the_envelope():
    ds = synth("arbitrary", 500, seed=4)
    x1 = ds.features[:, 0]
    x2 = ds.features[:, 1]
    assert np.all(x1 > 0.0) and np.all(x1 <= 2.0)
    envelope = np.sqrt(x1) * (x1 + 1.0)
    floor = np.sqrt(x1) * (x1 - 1.0)
    assert np.all(x2 <= envelope + 1e-12)
    assert np.all(x2 >= floor - 1e-12)


def test_ring_radii_within_bounds():
    ds = synth("ring", 400, seed=5, r_in=0.5, r_out=0.9)
    r = np.linalg.norm(ds.features, axis=1)
    assert r.min() >= 0.5 - 1e-12
    assert r.max() <= 0.9 + 1e-12
    assert ds.source == "synth:ring:seed=5"


def test_ring3d_height_and_radius_bounds():
    ds = synth("ring3d", 400, seed=6, height=0.2)
    assert ds.features.shape == (400, 3)
    r = np.linalg.norm(ds.features[:, :2], axis=1)
    assert r.min() >= 0.7 - 1e-12 and r.max() <= 1.0 + 1e-12
    assert np.abs(ds.features[:, 2]).max() <= 0.1 + 1e-12


def test_synth_deterministic_per_seed():
    a = synth("ring", 50, seed=7)
    b = synth("ring", 50, seed=7)
    np.testing.assert_array_equal(a.features, b.features)
    c = synth("ring", 50, seed=8)
    assert not np.array_equal(a.features, c.features)


def test_synth_errors():
    with pytest.raises(DataError, match="unknown synthetic kind"):
        synth("spiral", 10)
    with pytest.raises(DataError, match="n >= 1"):
        synth("ring", 0)
    with pytest.raises(DataError, match="unknown parameters"):
        synth("ring", 10, wobble=2.0)
    with pytest.raises(DataError, match="radii"):
        synth("ring", 10, r_in=1.0, r_out=0.5)
    with pytest.raises(DataError, match="height"):
        synth("ring3d", 10, height=0.0)


@pytest.mark.parametrize("n", [2.5, True, "3"])
def test_synth_rejects_a_non_integer_row_count(n):
    with pytest.raises(DataError, match="integer n >= 1"):
        synth("ring", n)
