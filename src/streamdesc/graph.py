"""Edge streams, stream preprocessing, and the exact in-memory graph."""

from __future__ import annotations

import hashlib
import io
import random
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError

Edge = tuple[int, int]


def vertex_count(low: int, high: int, n_hint: int | None) -> int:
    """Vertex count of a graph whose labels lie in [low, high] (high is
    -1 when there are none): n_hint when given, else high + 1.

    A negative label, or one at or above n_hint, raises ValueError.
    """
    if low < 0:
        raise ValueError(f"vertex labels must be non-negative, got {low}")
    if n_hint is None:
        return high + 1
    if n_hint <= high:
        raise ValueError(f"n_hint={n_hint} is below max vertex label {high}")
    return n_hint


def _label_range(edges) -> tuple[int, int]:
    """(lowest, highest) endpoint label of an edge list; (0, -1) if empty."""
    return min(map(min, edges), default=0), max(map(max, edges), default=-1)


@dataclass
class EdgeStream:
    """An ordered sequence of normalized edges.

    n_hint overrides the vertex count for graphs whose trailing vertices
    are isolated and therefore never appear in any edge.
    """

    edges: list[Edge]
    n_hint: int | None = None

    def __iter__(self):
        return iter(self.edges)

    def __len__(self) -> int:
        return len(self.edges)

    @property
    def n(self) -> int:
        """Vertex count: n_hint when given, without a scan (build_graph
        and the estimators check the labels against it), else by
        vertex_count over every endpoint (0 if empty)."""
        if self.n_hint is not None:
            return self.n_hint
        return vertex_count(*_label_range(self.edges), None)


def _label_pairs(raw_edges) -> np.ndarray:
    """raw_edges as an (m, 2) int64 array.  The first pair holding a
    label that is not an integer in [0, 2**63) raises ValueError, named
    as given: numpy would truncate a float and wrap a uint64."""
    pairs = np.asarray(raw_edges)
    if pairs.dtype.kind in "iu" and not ((pairs < 0) | (pairs > 2 ** 63 - 1)).any():
        return pairs.astype(np.int64, copy=False).reshape(len(raw_edges), 2)
    for a, b in raw_edges:
        if not all(isinstance(x, (int, np.integer)) for x in (a, b)):
            raise ValueError(f"vertex labels must be integers, got ({a}, {b})")
        low, high = sorted((int(a), int(b)))
        if not -2 ** 63 <= low <= high < 2 ** 63:
            raise ValueError(f"vertex labels must lie in [0, 2**63), got ({a}, {b})")
        if low < 0:
            raise ValueError(f"vertex labels must be non-negative, got ({a}, {b})")
    return pairs.astype(np.int64).reshape(len(raw_edges), 2)


def preprocess(raw_edges, seed: int) -> EdgeStream:
    """Clean raw (u, v) pairs, a list of pairs or an (m, 2) integer
    array such as read_edge_list returns, into a stream ready for the
    estimators.

    Self-loops are dropped, duplicates (in either orientation) keep the
    first occurrence, labels are remapped to a contiguous 0-based range
    in order of first appearance, and the result is shuffled by a seeded
    permutation.  An input that is empty after cleaning yields an empty
    stream, not an error.  A label that is not an integer in [0, 2**63)
    raises ValueError naming its pair as given.
    """
    pairs = _label_pairs(raw_edges)
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    # A duplicate's endpoints already have their labels, so labelling
    # every surviving pair by first appearance before the dedupe gives
    # the same labels as labelling only the kept edges.
    _, first, inverse = np.unique(pairs.ravel(), return_index=True, return_inverse=True)
    n = len(first)
    rank = first.argsort().argsort()  # each vertex's place in first-appearance order
    ends = rank[inverse].reshape(-1, 2)
    lo, hi = ends.min(axis=1), ends.max(axis=1)
    kept = np.zeros(len(lo), dtype=bool)
    kept[np.unique(lo * n + hi, return_index=True)[1]] = True
    # One shared int object per vertex, as a relabelling dict would give.
    labels = np.array(range(n), dtype=object)
    edges = list(zip(labels[lo[kept]].tolist(), labels[hi[kept]].tolist()))
    random.Random(seed).shuffle(edges)
    return EdgeStream(edges)


@dataclass
class Graph:
    """Symmetric adjacency view of a simple undirected graph."""

    n: int
    adj: list[set[int]]
    m: int

    def degree(self, v: int) -> int:
        return len(self.adj[v])


def build_graph(stream: EdgeStream) -> Graph:
    """Materialize a stream as an exact adjacency structure.

    Self-loops, duplicate edges and labels outside [0, n) are rejected;
    run preprocess first on raw data.
    """
    n = vertex_count(*_label_range(stream.edges), stream.n_hint)
    adj: list[set[int]] = [set() for _ in range(n)]
    m = 0
    for u, v in stream:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if v in adj[u]:
            raise ValueError(
                f"duplicate edge ({min(u, v)}, {max(u, v)}); preprocess the stream first")
        adj[u].add(v)
        adj[v].add(u)
        m += 1
    return Graph(n=n, adj=adj, m=m)


def text_lines(path, newline=None):
    """Yield (lineno, line) for each line of a UTF-8 text file; a byte
    that is not UTF-8 raises DataFormatError starting with "path:lineno"."""
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            yield from enumerate(fh, start=1)
    except UnicodeDecodeError as exc:
        # exc.start counts from the chunk the reader decoded, not the
        # file; read again, each bad byte as a lone surrogate
        with open(path, encoding="utf-8", errors="surrogateescape", newline=newline) as fh:
            lineno = next(i for i, line in enumerate(fh, start=1)
                          if any("\udc80" <= c <= "\udcff" for c in line))
        raise DataFormatError(f"{path}:{lineno}: not UTF-8 text ({exc.reason})") from None


def int_rows(path, width: int):
    """Yield (lineno, row) for each data line of a text file of integers.

    The line-by-line reference parser: int_columns reads every file and
    runs this one only to name a fault or to skip comment lines.
    Fields are separated by commas and/or whitespace.  Blank lines and
    lines whose first field starts with '#' are skipped.  row is a tuple
    of `width` ints; any other field count, a field int() rejects, or a
    value outside the int64 range raises DataFormatError starting with
    "path:lineno".
    """
    for lineno, line in text_lines(path):
        parts = line.replace(",", " ").split()
        # Blank and comment lines fail one of the two checks below, so
        # a data line pays for neither skip test.
        if len(parts) != width:
            if not parts or parts[0].startswith("#"):
                continue
            raise DataFormatError(
                f"{path}:{lineno}: expected {width} fields, got {line.strip()!r}")
        try:
            row = tuple(map(int, parts))
        except ValueError:
            if parts[0].startswith("#"):
                continue
            raise DataFormatError(
                f"{path}:{lineno}: non-integer field in {line.strip()!r}") from None
        if not all(-2 ** 63 <= x < 2 ** 63 for x in row):
            raise DataFormatError(
                f"{path}:{lineno}: integer outside the 64-bit range in {line.strip()!r}")
        yield lineno, row


def int_columns(path, width: int) -> np.ndarray:
    """Read a text file of integers (the format of int_rows) as a
    (rows, width) int64 array.

    One np.loadtxt call parses a well-formed file, negative values
    included: each caller checks its own range.  On anything else (an
    exception or warning, a width mismatch, a '#' line) the file is
    parsed again by int_rows, which raises its path:line error or
    returns the rows without the comment lines.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # Text mode, so line ends are the universal newlines of int_rows.
            with open(path, encoding="utf-8") as fh:
                text = fh.read().replace(",", " ")
            rows = np.loadtxt(io.StringIO(text), dtype=np.int64, comments=None, ndmin=2)
        if rows.shape[1] == width:
            return rows
    except Exception:  # int_rows below raises the real error, if there is one
        pass
    rows = [row for _, row in int_rows(path, width)]
    return np.array(rows, dtype=np.int64).reshape(len(rows), width)


def raise_first_fault(path, width: int, fault) -> None:
    """Re-read an int_rows file and raise, naming path:line, the first
    fault in file order: int_rows' own, or the message fault(row) returns
    for a row it refuses (a falsy value for a good row)."""
    for lineno, row in int_rows(path, width):
        message = fault(row)
        if message:
            raise DataFormatError(f"{path}:{lineno}: {message}")


def read_edge_list(path) -> np.ndarray:
    """Parse a text edge list into an (m, 2) int64 array: one "u v" or
    "u, v" pair per line, '#' starts a comment line (see int_columns).
    A negative label raises DataFormatError naming path:line; of several
    faults, the first in the file is reported."""
    try:
        pairs = int_columns(path, 2)
    except DataFormatError:
        pairs = None
    if pairs is None or (pairs < 0).any():
        raise_first_fault(path, 2, lambda row: min(row) < 0 and f"negative vertex label in {row}")
    return pairs


def derive_seed(*parts) -> int:
    """Stable 63-bit seed derived from the given parts.

    Hash-based so that unrelated consumers (per-graph shuffles, replica
    reservoirs, fold shuffles) get independent streams from one root seed.
    """
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1
