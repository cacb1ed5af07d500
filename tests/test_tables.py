import os
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from strel.errors import ValidationError
from strel.tables import CHUNK_ROWS, read_columns, read_table, write_columns, write_table

NAMES = ("iteration", "scene_id", "confidence")
DTYPES = (np.int64, np.int64, np.float64)
ECHO = {"policy": "catm", "beta": 1.0, "alpha_inc": 0.4}


def per_cell_writer(path, header, rows, echo):
    """The row-at-a-time writer that the columnar writer must match byte for byte."""

    def format_cell(value):
        if isinstance(value, float):
            return repr(value)
        return str(value)

    with open(path, "w", encoding="utf-8") as fh:
        for key in sorted(echo or {}):
            fh.write(f"# {key}={echo[key]}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format_cell(v) for v in row) + "\n")


def as_rows(columns):
    return zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns))


class TestFormatContract:
    def test_columns_match_the_per_cell_writer(self, tmp_path):
        ints = np.array([0, 7, -3, 2**63 - 1, -(2**63)], dtype=np.int64)
        floats = np.array([0.1, 1e-300, 1.0, -0.0, 1.7976931348623157e308])
        columns = [ints, floats, ["head", "tail", "a b", "", "x"], [1, -1, 0.5, 2.0, 3]]
        header = ("i", "f", "name", "mixed")
        write_columns(tmp_path / "new.csv", header, columns, ECHO)
        per_cell_writer(tmp_path / "old.csv", header, as_rows(columns), ECHO)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_chunked_and_row_writers_agree(self, tmp_path):
        n = 2 * CHUNK_ROWS + 5
        rng = np.random.default_rng(0)
        columns = [np.arange(n), rng.standard_normal(n), rng.integers(-5, 5, n)]
        write_columns(tmp_path / "cols.csv", NAMES, columns, ECHO)
        write_table(tmp_path / "rows.csv", NAMES, list(as_rows(columns)), ECHO)
        per_cell_writer(tmp_path / "old.csv", NAMES, as_rows(columns), ECHO)
        expected = (tmp_path / "old.csv").read_bytes()
        assert (tmp_path / "cols.csv").read_bytes() == expected
        assert (tmp_path / "rows.csv").read_bytes() == expected

    def test_empty_table_is_echo_and_header(self, tmp_path):
        write_table(tmp_path / "t.csv", NAMES, [], {"a": 1})
        assert (tmp_path / "t.csv").read_text() == "# a=1\niteration,scene_id,confidence\n"


FLOAT_ELEMENTS = st.floats(allow_nan=False, allow_subnormal=True)


@st.composite
def tables(draw):
    """Columns of one length: two int64 columns and one float64 column."""
    n = draw(st.integers(0, 40))
    ints = hnp.arrays(np.int64, n)
    return [draw(ints), draw(ints), draw(hnp.arrays(np.float64, n, elements=FLOAT_ELEMENTS))]


@given(tables())
@example([np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0)])
def test_columns_round_trip_exactly(tmp_path_factory, columns):
    path = tmp_path_factory.mktemp("rt") / "t.csv"
    write_columns(path, NAMES, columns, ECHO)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a header-only table reads without a warning
        back = read_columns(path, NAMES, DTYPES)
    for got, want in zip(back, columns):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


CORRUPTIONS = {
    "missing cell": lambda cells, col: cells.pop(col),
    "extra cell": lambda cells, col: cells.insert(col, "1"),
    "empty cell": lambda cells, col: cells.__setitem__(col, ""),
    "non-numeric cell": lambda cells, col: cells.__setitem__(col, "x1"),
    "float in an int column": lambda cells, col: cells.__setitem__(col % 2, "1.5"),
    "int beyond int64": lambda cells, col: cells.__setitem__(col % 2, str(2**63)),
}


@given(tables().filter(lambda c: len(c[0]) > 0), st.sampled_from(sorted(CORRUPTIONS)), st.data())
def test_corrupt_table_is_a_one_line_validation_error(tmp_path_factory, columns, kind, data):
    path = tmp_path_factory.mktemp("bad") / "t.csv"
    write_columns(path, NAMES, columns, ECHO)
    lines = path.read_text().splitlines()
    first_row = len(ECHO) + 1
    at = data.draw(st.integers(first_row, len(lines) - 1))
    cells = lines[at].split(",")
    CORRUPTIONS[kind](cells, data.draw(st.integers(0, len(NAMES) - 1)))
    lines[at] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError) as err:
        read_columns(path, NAMES, DTYPES)
    assert "\n" not in str(err.value) and str(path) in str(err.value)
    assert f": line {at + 1}: " in str(err.value) and " at row " not in str(err.value)


def test_unequal_columns_keep_the_earlier_table(tmp_path):
    path = tmp_path / "t.csv"
    write_columns(path, NAMES, [[1], [2], [0.5]], ECHO)
    before = path.read_bytes()
    with pytest.raises(ValueError):
        write_columns(path, NAMES, [[1, 2], [2], [0.5]], ECHO)
    assert path.read_bytes() == before and os.listdir(tmp_path) == ["t.csv"]


def test_wrong_header_is_a_validation_error(tmp_path):
    write_table(tmp_path / "t.csv", ("iteration", "scene", "confidence"), [(1, 2, 0.5)], ECHO)
    with pytest.raises(ValidationError, match="header"):
        read_columns(tmp_path / "t.csv", NAMES, DTYPES)


def test_read_table_skips_echo_and_blank_lines(tmp_path):
    (tmp_path / "t.csv").write_text("# a=1\n\na,b\n1,x\n\n# note\n2,y\n")
    assert read_table(tmp_path / "t.csv") == (["a", "b"], [["1", "x"], ["2", "y"]])
