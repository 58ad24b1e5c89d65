"""Descriptor records, the Canberra distance, and file persistence."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError

DIMENSIONS = {"gabe": 17, "maeve": 20}
# Graphs with fewer vertices have no pattern to count: all-zero values.
MIN_ORDER = {"gabe": 2, "maeve": 1}

_META_FIELDS = ("graph_id", "method", "b", "seed", "n", "m")


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
    """All-pairs Canberra distances between two stacks of row vectors."""
    a = np.asarray(xs, dtype=float)
    b = np.asarray(ys, dtype=float)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError(f"incompatible shapes: {a.shape} vs {b.shape}")
    num = np.abs(a[:, None, :] - b[None, :, :])
    den = np.abs(a)[:, None, :] + np.abs(b)[None, :, :]
    terms = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
    return terms.sum(axis=2)


def _check_single_method(descriptors) -> None:
    methods = {d.method for d in descriptors}
    if len(methods) > 1:
        raise ValueError(f"mixed methods in one collection: {sorted(methods)}")


def write_descriptors(descriptors, fh, format: str = "csv") -> None:
    """Serialize to an open text handle; rows ordered by graph_id.

    Values are written with repr precision so a load restores the exact
    doubles.
    """
    descriptors = sorted(descriptors, key=lambda d: d.graph_id)
    _check_single_method(descriptors)
    if format == "csv":
        writer = csv.writer(fh)
        dim = len(descriptors[0].values) if descriptors else 0
        writer.writerow(list(_META_FIELDS) + [f"v{i}" for i in range(dim)])
        for d in descriptors:
            writer.writerow(
                [d.graph_id, d.method, d.b, d.seed, d.n, d.m]
                + [repr(float(x)) for x in d.values])
    elif format == "jsonl":
        for d in descriptors:
            record = {
                "graph_id": d.graph_id,
                "method": d.method,
                "b": d.b,
                "seed": d.seed,
                "n": d.n,
                "m": d.m,
                "values": [float(x) for x in d.values],
            }
            fh.write(json.dumps(record) + "\n")
    else:
        raise ValueError(f"unknown format {format!r}, expected 'csv' or 'jsonl'")


def save_descriptors(descriptors, path, format: str = "csv") -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        write_descriptors(descriptors, fh, format)


def load_descriptors(path, format: str = "csv") -> list[Descriptor]:
    """Load a descriptor file; malformed rows report their line number."""
    if format == "csv":
        return _load_csv(path)
    if format == "jsonl":
        return _load_jsonl(path)
    raise ValueError(f"unknown format {format!r}, expected 'csv' or 'jsonl'")


def _build(path, lineno, graph_id, method, b, seed, n, m, values) -> Descriptor:
    try:
        return Descriptor(
            graph_id=int(graph_id), method=str(method), b=int(b),
            seed=int(seed), n=int(n), m=int(m),
            values=np.array([float(x) for x in values]))
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}:{lineno}: {exc}") from None


def _load_csv(path) -> list[Descriptor]:
    out: list[Descriptor] = []
    methods: set[str] = set()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file, expected a header") from None
        if tuple(header[:6]) != _META_FIELDS:
            raise DataFormatError(
                f"{path}:1: bad header, expected it to start with "
                f"{','.join(_META_FIELDS)}")
        width = len(header)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != width:
                raise DataFormatError(
                    f"{path}:{lineno}: expected {width} fields, got {len(row)}")
            d = _build(path, lineno, *row[:6], row[6:])
            methods.add(d.method)
            if len(methods) > 1:
                raise DataFormatError(
                    f"{path}:{lineno}: mixed method tags in one file")
            out.append(d)
    return out


def _load_jsonl(path) -> list[Descriptor]:
    out: list[Descriptor] = []
    methods: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                record = json.loads(text)
                d = _build(
                    path, lineno, record["graph_id"], record["method"],
                    record["b"], record["seed"], record["n"], record["m"],
                    record["values"])
            except (json.JSONDecodeError, KeyError) as exc:
                raise DataFormatError(f"{path}:{lineno}: {exc}") from None
            methods.add(d.method)
            if len(methods) > 1:
                raise DataFormatError(
                    f"{path}:{lineno}: mixed method tags in one file")
            out.append(d)
    return out
