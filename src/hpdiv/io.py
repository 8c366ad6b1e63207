"""CSV ingestion: plain point files and labeled datasets (features + class).

Files are UTF-8 with one optional leading byte order mark (as Excel's "CSV
UTF-8" writes), comma-separated, no quoting, one row per point. Duplicate
feature rows are kept as-is; neighbor queries break their distance ties.

A point file of printable ASCII is read by numpy's C reader (loadtxt). Any
other file, and one that reader rejects or reads as empty, goes to the line
parser, which takes every spelling ``float()`` takes (``1_0``, non-ASCII
digits) and names the row and column of an error. Both round cells through
one C routine, so they agree wherever both accept. Labeled files always
take the line parser.
"""

from __future__ import annotations

import csv
import warnings
from codecs import BOM_UTF8
from collections import Counter
from dataclasses import dataclass
from io import BytesIO, TextIOWrapper
from pathlib import Path

import numpy as np

from .core import EmptyCloud, HPDivError, PointCloud


class ParseError(HPDivError):
    """Malformed cell; carries 1-based row and column positions."""

    def __init__(self, message: str, row: int, col: int | None = None):
        super().__init__(message)
        self.row = row
        self.col = col


class RaggedRows(HPDivError):
    """Rows with inconsistent widths."""

    def __init__(self, message: str, row: int):
        super().__init__(message)
        self.row = row


class LabelMissing(HPDivError):
    """A row has no label column."""


class UnknownClass(HPDivError):
    """Requested class absent from the dataset."""


class InvalidPair(HPDivError):
    """The two requested classes must differ."""


@dataclass(frozen=True)
class LabeledDataset:
    """Feature rows with one class label per row."""

    features: PointCloud
    labels: tuple[str, ...]
    class_counts: dict[str, int]

    def __len__(self) -> int:
        return len(self.features)


def _rows(text: str):
    """(line number, cells) for each non-blank line; rows must agree in width."""
    width = None
    for i, line in enumerate(text.splitlines()):
        line = line.strip()
        if not line:
            continue
        cells = line.split(",")
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise RaggedRows(
                f"row {i + 1} has {len(cells)} columns, expected {width}", row=i + 1
            )
        yield i + 1, cells


def _text(data: bytes) -> str:
    """The UTF-8 text of a file; a bad byte raises ParseError at its row."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        row = len((data[: exc.start].decode("utf-8") + "x").splitlines())  # as _rows counts
        raise ParseError(f"row {row}: invalid UTF-8 at byte offset {exc.start}", row=row) from None


def _floats(lineno: int, cells: list[str]) -> list[float]:
    out = []
    for col, cell in enumerate(cells, 1):
        try:
            out.append(float(cell))
        except ValueError:
            msg = f"row {lineno}, column {col}: {cell!r} is not a number"
            raise ParseError(msg, row=lineno, col=col) from None
    return out


# Bytes on which the C reader and the line parser see the same lines and
# cells. Other bytes go to the line parser: str.splitlines, for one, ends a
# line at \x0b, \x0c, \x1c-\x1e and non-ASCII breaks, where loadtxt does not.
_PLAIN = bytes(range(0x20, 0x7F)) + b"\t\n\r"


def _c_reader(data: bytes) -> np.ndarray | None:
    """The rows of a plain file by numpy's C reader; None for any other file
    and for one the reader rejects or reads as empty (it warns on those)."""
    if data.translate(None, _PLAIN):
        return None
    text = TextIOWrapper(BytesIO(data), encoding="ascii")  # \r and \r\n become \n
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.loadtxt(text, delimiter=",", ndmin=2, comments=None)
    except (ValueError, Warning):
        return None


def load_points(path) -> PointCloud:
    """Read a point cloud from CSV; every row must have the same width."""
    data = Path(path).read_bytes().removeprefix(BOM_UTF8)
    points = _c_reader(data)
    if points is None:
        rows = [_floats(lineno, cells) for lineno, cells in _rows(_text(data))]
        if not rows:
            raise EmptyCloud(f"no data rows in {path}")
        points = np.asarray(rows, dtype=np.float64)
    return PointCloud(points)


def save_points(path, cloud: PointCloud) -> None:
    """Write a point cloud as CSV, one row per point, each cell the float's
    round-trip-exact ``repr`` (csv.writer's text for a float)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(cloud.points.tolist())


def load_labeled(path) -> LabeledDataset:
    """Read a labeled dataset: numeric feature columns, then a class token
    in the last column. Rows must agree in width.
    """
    feats = []
    labels = []
    for lineno, cells in _rows(_text(Path(path).read_bytes().removeprefix(BOM_UTF8))):
        if len(cells) < 2:
            raise LabelMissing(f"row {lineno}: need at least one feature and a label")
        label = cells[-1].strip()
        if not label:
            raise LabelMissing(f"row {lineno}: empty label")
        feats.append(_floats(lineno, cells[:-1]))
        labels.append(label)
    if not feats:
        raise EmptyCloud(f"no data rows in {path}")
    return LabeledDataset(
        features=PointCloud(np.asarray(feats, dtype=np.float64)),
        labels=tuple(labels),
        class_counts=dict(Counter(labels)),
    )


def class_pair(
    ds: LabeledDataset, class_a: str, class_b: str
) -> tuple[PointCloud, PointCloud]:
    """Extract (X, Y) clouds for two distinct classes, preserving row order."""
    if class_a == class_b:
        raise InvalidPair(f"classes must differ, both are {class_a!r}")
    for cls in (class_a, class_b):
        if cls not in ds.class_counts:
            raise UnknownClass(f"class {cls!r} not present in the dataset")
    lab = np.asarray(ds.labels)
    x = ds.features.points[lab == class_a]
    y = ds.features.points[lab == class_b]
    return PointCloud(x), PointCloud(y)
