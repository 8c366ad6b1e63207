import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpdiv import EmptyCloud, HPDivError, PointCloud
from hpdiv import io as hpio
from hpdiv.io import (
    InvalidPair,
    LabelMissing,
    ParseError,
    RaggedRows,
    UnknownClass,
    class_pair,
    load_labeled,
    load_points,
    save_points,
)


class TestLoadPoints:
    def test_basic(self, tmp_path):
        f = tmp_path / "pts.csv"
        f.write_text("0,0\n1,1\n")
        cloud = load_points(f)
        assert len(cloud) == 2 and cloud.dim == 2

    def test_ragged(self, tmp_path):
        f = tmp_path / "pts.csv"
        f.write_text("0,0\n1\n")
        with pytest.raises(RaggedRows) as exc:
            load_points(f)
        assert exc.value.row == 2

    def test_empty(self, tmp_path):
        f = tmp_path / "pts.csv"
        f.write_text("")
        with pytest.raises(EmptyCloud):
            load_points(f)

    def test_parse_error_position(self, tmp_path):
        f = tmp_path / "pts.csv"
        f.write_text("0,0\n1,oops\n")
        with pytest.raises(ParseError) as exc:
            load_points(f)
        assert exc.value.row == 2 and exc.value.col == 2

    @pytest.mark.parametrize(
        "data, row",
        [
            (b"1,2\n3,4\n5,\xff6\n", 3),
            (b"\xff\n", 1),
            (b"1,2\r\n\r\n\xfe,1\n", 3),  # a blank line keeps its number
            (b"1,2\x0c3,\xc3", 2),  # \x0c ends a line; a cut two-byte sequence
            (b"1,2\r\xe2\x82", 2),
        ],
    )
    def test_invalid_utf8_names_row(self, tmp_path, data, row):
        f = tmp_path / "pts.csv"
        f.write_bytes(data)
        with pytest.raises(ParseError) as exc:
            load_points(f)
        assert exc.value.row == row
        f.write_bytes(data.replace(b"1,2", b"1,2,a"))
        with pytest.raises(ParseError) as exc:
            load_labeled(f)
        assert exc.value.row == row

    @pytest.mark.parametrize("seed", range(4))
    def test_round_trip_value_identical(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        cloud = PointCloud(rng.normal(size=(25, 3)) * 10.0 ** float(rng.integers(-8, 8)))
        f = tmp_path / "rt.csv"
        save_points(f, cloud)
        back = load_points(f)
        np.testing.assert_array_equal(back.points, cloud.points)


def line_parser(path):
    """The rows as the line parser alone reads them (after one leading BOM)."""
    rows = [hpio._floats(n, cells) for n, cells in hpio._rows(path.read_text(encoding="utf-8-sig"))]
    if not rows:
        raise EmptyCloud(f"no data rows in {path}")
    return np.asarray(rows, dtype=np.float64)


def outcome(read, path):
    """Array bytes and shape on success, else the error type, row and col."""
    try:
        points = PointCloud(read(path)).points
    except HPDivError as exc:
        return type(exc), getattr(exc, "row", None), getattr(exc, "col", None)
    return points.tobytes(), points.shape


def assert_parsers_agree(path):
    assert outcome(lambda p: load_points(p).points, path) == outcome(line_parser, path)
    fast = hpio._c_reader(path.read_bytes())
    if fast is not None:  # the C reader accepted: the line parser must give the same bytes
        assert fast.tobytes() == line_parser(path).tobytes()


PIECES = ["0", "1", "7", "9", ".", "e", "-", "_", ",", " ", "\t", "\r\n", "\r", "\n",
          "\x0c", "\x0b", "\x1f", "\xa0", "\x85", "\u2028", "\u0663", "\uff17", "nan",
          "inf", "\ufeff"]
NUMBERS = st.one_of(
    st.integers(-999, 999).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["1e5", ".5", "5.", "-0", "+3", "1E-3", "1_0", "1e999", "nan", "-inf"]),
)
PADDING = st.sampled_from(["", " ", "\t", "  ", "\x0c", "\xa0"])


@st.composite
def csv_texts(draw):
    """Mostly well-formed rows, with junk pieces mixed into cells, widths
    and line ends, so that both acceptance and every error are reached."""
    width = draw(st.integers(1, 3))
    cell = st.one_of(
        st.tuples(PADDING, NUMBERS, PADDING).map("".join),
        st.lists(st.sampled_from(PIECES), max_size=4).map("".join),
    )
    clean = draw(st.booleans())
    cells = NUMBERS if clean else cell
    rows = draw(st.lists(st.lists(cells, min_size=width, max_size=width + (0 if clean else 1)),
                         max_size=6))
    ends = st.sampled_from(["\n", "\r\n", "\r"] if clean else ["\n", "\r\n", "\r", "\n \n", "\x0c"])
    bom = "" if clean else draw(st.sampled_from(["", "\ufeff"]))
    return bom + "".join(",".join(r) + draw(ends) for r in rows)


class TestReadersAgree:
    """load_points (C reader first) against the line parser alone."""

    @given(csv_texts())
    @settings(max_examples=400, deadline=None)
    def test_generated_files(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "agree.csv"
        path.write_bytes(text.encode("utf-8"))
        assert_parsers_agree(path)

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("", EmptyCloud),
            ("\n\n", EmptyCloud),
            (" \n\t\n", EmptyCloud),
            ("1,2\n \n\t\n3,4\n", (2, 2)),
            ("1\n-2.5\n3e2\n", (3, 1)),
            ("1,2,\n3,4,\n", ParseError),
            ("1,2\r3,4\r", (2, 2)),
            ("1,\x0c2\n", ParseError),
            ("\ufeff1,2\n", (1, 2)),
            ("1_0,\u0663\n", (1, 2)),
            ("\ufeff", EmptyCloud),
            ("\ufeff\ufeff1,2\n", ParseError),
        ],
    )
    def test_edge_files(self, tmp_path, text, expected):
        path = tmp_path / "edge.csv"
        path.write_bytes(text.encode("utf-8"))
        assert_parsers_agree(path)
        if isinstance(expected, tuple):
            assert load_points(path).points.shape == expected
        else:
            with pytest.raises(expected):
                load_points(path)

    def test_plain_file_takes_the_c_reader(self, tmp_path, monkeypatch):
        path = tmp_path / "plain.csv"
        path.write_text("0.5,1\r\n-2, 3e-1\n")

        def no_lines(*args):
            raise AssertionError("a plain file reached the line parser")

        monkeypatch.setattr(hpio, "_rows", no_lines)
        np.testing.assert_array_equal(load_points(path).points, [[0.5, 1.0], [-2.0, 0.3]])


class TestByteOrderMark:
    """One leading UTF-8 BOM, as Excel's "CSV UTF-8" export writes, is dropped."""

    @pytest.mark.parametrize("text", ["0.5,1\r\n-2, 3e-1\n", "1_0,\u0663\n2,3\n"])
    def test_same_points_with_and_without(self, tmp_path, text):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        np.testing.assert_array_equal(load_points(marked).points, load_points(plain).points)

    def test_same_labels_with_and_without(self, tmp_path):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text("0,1,a\n2,3,b\n", encoding="utf-8")
        marked.write_text("0,1,a\n2,3,b\n", encoding="utf-8-sig")
        got, want = load_labeled(marked), load_labeled(plain)
        np.testing.assert_array_equal(got.features.points, want.features.points)
        assert got.labels == want.labels == ("a", "b")

    def test_marked_plain_file_takes_the_c_reader(self, tmp_path, monkeypatch):
        path = tmp_path / "marked.csv"
        path.write_text("0.5,1\n-2,3\n", encoding="utf-8-sig")

        def no_lines(*args):
            raise AssertionError("a plain file reached the line parser")

        monkeypatch.setattr(hpio, "_rows", no_lines)
        np.testing.assert_array_equal(load_points(path).points, [[0.5, 1.0], [-2.0, 3.0]])

    def test_mark_alone_is_empty(self, tmp_path):
        path = tmp_path / "mark.csv"
        path.write_bytes(b"\xef\xbb\xbf")
        with pytest.raises(EmptyCloud):
            load_points(path)
        with pytest.raises(EmptyCloud):
            load_labeled(path)

    @pytest.mark.parametrize("text, row, col", [
        ("1,2\n\ufeff3,4\n", 2, 1),
        ("1,\ufeff2\n", 1, 2),
        ("\ufeff\ufeff1,2\n", 1, 1),
    ])
    def test_mark_anywhere_else_is_a_parse_error(self, tmp_path, text, row, col):
        path = tmp_path / "marked.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            load_points(path)
        assert (exc.value.row, exc.value.col) == (row, col)
        path.write_text(text.replace("\n", ",a\n"), encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            load_labeled(path)
        assert (exc.value.row, exc.value.col) == (row, col)


class TestLoadLabeled:
    def test_counts(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("0,0,a\n1,1,a\n2,2,b\n")
        ds = load_labeled(f)
        assert ds.class_counts == {"a": 2, "b": 1}
        assert ds.features.dim == 2 and len(ds) == 3

    def test_bad_feature(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("0,0,a\n1,x,b\n")
        with pytest.raises(ParseError) as exc:
            load_labeled(f)
        assert exc.value.row == 2

    @pytest.mark.parametrize("text, error, match", [
        ("0,a\n1, \n", LabelMissing, "row 2: empty label"),
        ("\n\n", EmptyCloud, "no data rows"),
    ])
    def test_empty_label_or_file(self, tmp_path, text, error, match):
        f = tmp_path / "d.csv"
        f.write_text(text)
        with pytest.raises(error, match=match):
            load_labeled(f)

    def test_too_narrow(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("a\nb\n")
        with pytest.raises(LabelMissing):
            load_labeled(f)


class TestClassPair:
    @pytest.fixture
    def ds(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("0,0,a\n1,1,a\n2,2,b\n")
        return load_labeled(f)

    def test_extraction_preserves_order(self, ds):
        x, y = class_pair(ds, "a", "b")
        assert len(x) == 2 and len(y) == 1
        np.testing.assert_array_equal(x.points, [[0, 0], [1, 1]])

    def test_unknown_class(self, ds):
        with pytest.raises(UnknownClass):
            class_pair(ds, "a", "c")

    def test_same_class_rejected(self, ds):
        with pytest.raises(InvalidPair):
            class_pair(ds, "a", "a")

    def test_partition_bound(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("0,0,a\n1,1,b\n2,2,c\n3,3,a\n")
        ds = load_labeled(f)
        x, y = class_pair(ds, "a", "b")
        assert len(x) + len(y) < len(ds)
        x, y = class_pair(ds, "a", "c")
        assert len(x) + len(y) < len(ds)
