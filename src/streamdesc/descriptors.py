"""Descriptor records, the Canberra distance, and file persistence."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError
from .graph import text_lines

DIMENSIONS = {"gabe": 17, "maeve": 20}
# Graphs with fewer vertices have no pattern to count: all-zero values.
MIN_ORDER = {"gabe": 2, "maeve": 1}

_META_FIELDS = ("graph_id", "method", "b", "seed", "n", "m")

# canberra_matrix's temporaries hold this many (row, column, coordinate)
# terms at a time: 128 KiB per float array, whatever the stacks' sizes.
# Blocks this small time no slower than one broadcast over all pairs.
CANBERRA_BLOCK_TERMS = 1 << 14


@dataclass
class Descriptor:
    """A fixed-length descriptor vector with its provenance metadata."""

    graph_id: int
    method: str
    b: int
    seed: int
    n: int
    m: int
    values: np.ndarray

    def __post_init__(self):
        if self.method not in DIMENSIONS:
            raise ValueError(
                f"unknown method {self.method!r}, expected one of {sorted(DIMENSIONS)}")
        self.values = np.asarray(self.values, dtype=float)
        expected = DIMENSIONS[self.method]
        if self.values.shape != (expected,):
            raise ValueError(
                f"a {self.method} descriptor has {expected} values, "
                f"got shape {self.values.shape}")

    @property
    def degenerate(self) -> bool:
        """True when the graph is too small for the method (all zeros)."""
        return self.n < MIN_ORDER[self.method]


def canberra(x, y) -> float:
    """Sum over coordinates of |x_i - y_i| / (|x_i| + |y_i|).

    A coordinate where both entries are zero contributes zero, so the
    result is finite, and bounded by the vector length.
    """
    ax = np.asarray(x, dtype=float)
    ay = np.asarray(y, dtype=float)
    if ax.shape != ay.shape:
        raise ValueError(f"length mismatch: {ax.shape} vs {ay.shape}")
    num = np.abs(ax - ay)
    den = np.abs(ax) + np.abs(ay)
    terms = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
    return float(terms.sum())


def canberra_matrix(xs, ys) -> np.ndarray:
    """All-pairs Canberra distances between two stacks of row vectors.

    The result is filled a block of rows of xs at a time, so the
    temporaries hold about CANBERRA_BLOCK_TERMS terms, or one row's
    len(ys) * dim when that is more.  Each entry is the same sum over
    its dim terms that canberra takes, whatever the block.
    """
    a = np.asarray(xs, dtype=float)
    b = np.asarray(ys, dtype=float)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError(f"incompatible shapes: {a.shape} vs {b.shape}")
    out = np.empty((len(a), len(b)))
    abs_b = np.abs(b)
    step = max(1, CANBERRA_BLOCK_TERMS // max(1, b.size))
    for i in range(0, len(a), step):
        block = a[i:i + step, None, :]
        num = np.abs(block - b)
        den = np.abs(block) + abs_b
        terms = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
        out[i:i + step] = terms.sum(axis=2)
    return out


def _check_single_method(descriptors) -> None:
    methods = {d.method for d in descriptors}
    if len(methods) > 1:
        raise ValueError(f"mixed methods in one collection: {sorted(methods)}")


def _check_format(format: str) -> None:
    if format not in ("csv", "jsonl"):
        raise ValueError(f"unknown format {format!r}, expected 'csv' or 'jsonl'")


def write_descriptors(descriptors, fh, format: str = "csv") -> None:
    """Serialize to an open text handle; rows ordered by graph_id.

    Values are written with repr precision so a load restores the exact
    doubles.
    """
    _check_format(format)
    descriptors = sorted(descriptors, key=lambda d: d.graph_id)
    _check_single_method(descriptors)
    if format == "csv":
        writer = csv.writer(fh)
        dim = len(descriptors[0].values) if descriptors else 0
        writer.writerow(list(_META_FIELDS) + [f"v{i}" for i in range(dim)])
        for d in descriptors:
            writer.writerow([getattr(d, f) for f in _META_FIELDS]
                            + [repr(float(x)) for x in d.values])
    else:
        for d in descriptors:
            record = {f: getattr(d, f) for f in _META_FIELDS}
            record["values"] = [float(x) for x in d.values]
            fh.write(json.dumps(record) + "\n")


def save_descriptors(descriptors, path, format: str = "csv") -> None:
    """write_descriptors to a file, checked before the file is opened, so
    a refused call leaves an existing file as it was."""
    descriptors = list(descriptors)
    _check_format(format)
    _check_single_method(descriptors)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        write_descriptors(descriptors, fh, format)


def load_descriptors(path, format: str = "csv") -> list[Descriptor]:
    """Load a descriptor file; malformed rows, and values that are not
    finite (no descriptor holds nan or inf), report their line number.

    The two formats differ only in how a line becomes its fields, as
    text (a JSON number, bool or null as its JSON text); each row is
    then built, checked and tagged with "path:lineno" here, so a token
    is refused alike in either: a float or a bool is no integer field,
    a bool or null no value.
    """
    _check_format(format)
    out: list[Descriptor] = []
    lines = text_lines(path, newline="")
    if format == "csv":
        rows, to_fields = _csv_rows(path, (line for _, line in lines))
    else:
        rows = ((i, line) for i, line in lines if line.strip())
        to_fields = _json_object
    for lineno, row in rows:
        try:
            f = to_fields(row)
            values = np.array([float(x) for x in f["values"]])
            finite = np.isfinite(values)
            if not finite.all():
                i = int(finite.argmin())
                raise ValueError(f"v{i} is {values[i]}, expected a finite number")
            d = Descriptor(
                graph_id=int(f["graph_id"]), method=str(f["method"]), b=int(f["b"]),
                seed=int(f["seed"]), n=int(f["n"]), m=int(f["m"]), values=values)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DataFormatError(f"{path}:{lineno}: {exc}") from None
        if out and d.method != out[0].method:
            raise DataFormatError(f"{path}:{lineno}: mixed method tags in one file")
        out.append(d)
    return out


def _csv_rows(path, lines):
    """Check the header; return the (lineno, row) pairs of the data rows
    and the function that turns a row into its fields."""
    reader = csv.reader(lines)
    header = next(reader, None)
    if header is None:
        raise DataFormatError(f"{path}: empty file, expected a header")
    if tuple(header[:6]) != _META_FIELDS:
        raise DataFormatError(
            f"{path}:1: bad header, expected it to start with "
            f"{','.join(_META_FIELDS)}")
    width = len(header)

    def to_fields(row):
        if len(row) != width:
            raise ValueError(f"expected {width} fields, got {len(row)}")
        return dict(zip(_META_FIELDS, row), values=row[6:])

    return ((reader.line_num, row) for row in reader if row), to_fields


def _json_object(line):
    record = json.loads(line)
    if not isinstance(record, dict):
        raise ValueError(f"expected a JSON object, got {type(record).__name__}")
    if not isinstance(record.get("values", []), list):
        raise ValueError(f"values must be a JSON array, got {type(record['values']).__name__}")
    return {key: list(map(_json_text, x)) if isinstance(x, list) else _json_text(x)
            for key, x in record.items()}


def _json_text(x) -> str:
    """A JSON value as the text a CSV cell holds for it."""
    return x if isinstance(x, str) else json.dumps(x)
