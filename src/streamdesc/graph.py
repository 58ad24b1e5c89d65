"""Edge streams, stream preprocessing, and the exact in-memory graph."""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

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


def preprocess(raw_edges, seed: int) -> EdgeStream:
    """Clean a raw pair list into a stream ready for the estimators.

    Self-loops are dropped, duplicates (in either orientation) keep the
    first occurrence, labels are remapped to a contiguous 0-based range
    in order of first appearance, and the result is shuffled by a seeded
    permutation.  An input that is empty after cleaning yields an empty
    stream, not an error.
    """
    seen: set[Edge] = set()
    relabel: dict[int, int] = {}
    edges: list[Edge] = []
    for a, b in raw_edges:
        if a < 0 or b < 0:
            raise ValueError(f"vertex labels must be non-negative, got ({a}, {b})")
        if a == b:
            continue
        # A duplicate's endpoints already have their labels, so labelling
        # before the duplicate check keeps the first-appearance order.
        ra = relabel.setdefault(a, len(relabel))
        rb = relabel.setdefault(b, len(relabel))
        edge = (ra, rb) if ra < rb else (rb, ra)
        if edge not in seen:
            seen.add(edge)
            edges.append(edge)
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


def int_rows(path, width: int):
    """Yield (lineno, row) for each data line of a text file of integers.

    Fields are separated by commas and/or whitespace.  Blank lines and
    lines whose first field starts with '#' are skipped.  row is a tuple
    of `width` ints; any other field count, or a field int() rejects,
    raises DataFormatError starting with "path:lineno".
    """
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
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
            yield lineno, row


def read_edge_list(path) -> list[tuple[int, int]]:
    """Parse a text edge list: one "u v" or "u, v" pair per line, '#'
    starts a comment line (see int_rows)."""
    pairs: list[tuple[int, int]] = []
    for lineno, row in int_rows(path, 2):
        if row[0] < 0 or row[1] < 0:
            raise DataFormatError(f"{path}:{lineno}: negative vertex label in {row}")
        pairs.append(row)
    return pairs


def derive_seed(*parts) -> int:
    """Stable 63-bit seed derived from the given parts.

    Hash-based so that unrelated consumers (per-graph shuffles, replica
    reservoirs, fold shuffles) get independent streams from one root seed.
    """
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1
