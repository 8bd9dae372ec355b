import numpy as np
import pytest

from maxsurf.records import fmt, read_csv, read_record, record_lines, write_csv, write_record


def test_fmt_ints_and_bools():
    assert fmt(3) == "3"
    assert fmt(True) == "1"
    assert fmt(False) == "0"
    assert fmt(np.int64(7)) == "7"


def test_fmt_floats_round_trip():
    for x in (0.1, 1.0 / 3.0, -2.5e-17, 1e300, 0.0):
        assert float(fmt(x)) == x


def test_fmt_strings_pass_through():
    assert fmt("truncated") == "truncated"


def test_record_round_trip(tmp_path):
    path = tmp_path / "r.txt"
    write_record(path, [("iterations", 4), ("residual", 1.5e-11), ("converged", True)])
    back = read_record(path)
    assert back["iterations"] == "4"
    assert float(back["residual"]) == 1.5e-11
    assert back["converged"] == "1"


def test_record_lines_shape():
    lines = record_lines([("a", 1), ("b", 2.0)])
    assert lines == ["a=1", "b=2"]


def test_csv_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    a = np.array([1.0, 2.0, 0.125])
    b = np.array([-1.0, 0.3, 7.0])
    write_csv(path, "r,eta", [a, b])
    data = read_csv(path, "r,eta")
    np.testing.assert_array_equal(data[:, 0], a)
    np.testing.assert_array_equal(data[:, 1], b)


def test_csv_header_checked(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, "r,eta", [np.arange(3.0), np.arange(3.0)])
    with pytest.raises(ValueError, match="header"):
        read_csv(path, "L,diff")


def test_csv_header_only_is_empty(tmp_path, recwarn):
    path = tmp_path / "t.csv"
    write_csv(path, "r,eta,x", [np.empty(0), np.empty(0), np.empty(0)])
    data = read_csv(path, "r,eta,x")
    assert data.shape == (0, 3)
    assert len(recwarn) == 0


def test_csv_single_row_and_column(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, "r", [np.array([0.5])])
    assert read_csv(path, "r").shape == (1, 1)


@pytest.mark.parametrize("body", [
    "1,2\n3\n",            # ragged
    "1,2,3\n4,5,6\n",      # every row too wide
    "1,abc\n",             # non-numeric token
    "1,2\n,3\n",           # empty field
    "# comment\n1,2\n",    # '#' is data, not a comment
    "1,2 # trailing\n",
])
def test_csv_bad_rows_rejected(tmp_path, body):
    path = tmp_path / "t.csv"
    path.write_text("r,eta\n" + body)
    with pytest.raises(ValueError):
        read_csv(path, "r,eta")
