"""Fuzz: load_csv on random text and bytes either returns a Dataset or
raises the package's DataError / SchemaError, whatever the file holds and
whatever header, label-column and delimiter settings it is read with."""
import tempfile
import warnings
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ocds.data import Dataset, load_csv  # noqa: E402
from ocds.errors import DataError, SchemaError  # noqa: E402

CELLS = st.sampled_from([
    "1", "-2.5", " 3e-2 ", "nan", "NaN", "inf", "-inf", "1e999", "", " ",
    "abc", "0x1", "1_000", '"', '"4"', "a,b", "\t", "é", "5e-324", "-0.0",
]) | st.floats().map(repr) | st.text(max_size=4)

DELIMITERS = st.sampled_from([",", ";", "\t", " ", '"', "\n", ";;", ""]) | st.text(max_size=2)

LABEL_COLUMNS = st.none() | st.integers(-4, 4) | st.sampled_from(["a", "label", "", "1"])


@st.composite
def csv_texts(draw):
    sep = draw(st.sampled_from([",", ";", "\t"]))
    ncols = draw(st.integers(1, 4))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.booleans()):  # ragged: a row of its own width
            width = draw(st.integers(0, 5))
        else:
            width = ncols
        rows.append(sep.join(draw(st.lists(CELLS, min_size=width, max_size=width))))
        if draw(st.integers(0, 4)) == 0:
            rows.append(draw(st.sampled_from(["", " ", sep])))  # blank line
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(rows).encode("utf-8")


def _load(raw: bytes, **kwargs):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.csv"
        path.write_bytes(raw)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # dropped non-finite rows
            try:
                ds = load_csv(path, **kwargs)
            except (DataError, SchemaError):
                return
    assert isinstance(ds, Dataset)


@settings(max_examples=200, deadline=None)
@given(raw=csv_texts() | st.binary(max_size=64), label_column=LABEL_COLUMNS,
       has_header=st.booleans(), delimiter=DELIMITERS)
def test_load_csv_returns_a_dataset_or_a_package_error(raw, label_column, has_header,
                                                       delimiter):
    _load(raw, label_column=label_column, has_header=has_header, delimiter=delimiter)


@settings(max_examples=60, deadline=None)
@given(text=csv_texts(), junk=st.binary(min_size=1, max_size=4), at=st.integers(0, 1 << 16))
def test_load_csv_with_stray_bytes_in_a_valid_file(text, junk, at):
    at %= len(text) + 1
    _load(text[:at] + junk + text[at:])
