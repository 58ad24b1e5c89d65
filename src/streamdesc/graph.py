"""Edge streams, stream preprocessing, and the exact in-memory graph."""

from __future__ import annotations

import array
import codecs
import hashlib
import io
import itertools
import random
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError

Edge = tuple[int, int]

# int_columns reads a file this many bytes at a time (run on to a line
# end), so it holds one chunk of the text, not the whole file.
READ_CHUNK_BYTES = 1 << 21


def vertex_count(low: int, high: int, n_hint: int | None) -> int:
    """Vertex count of a graph whose labels lie in [low, high] (high is
    -1 when there are none): n_hint when given, else high + 1.

    A negative label, a negative n_hint, or a label at or above n_hint
    raises ValueError.
    """
    if low < 0:
        raise ValueError(f"vertex labels must be non-negative, got {low}")
    if n_hint is None:
        return high + 1
    if n_hint < 0:
        raise ValueError(f"n_hint must be non-negative, got {n_hint}")
    if n_hint <= high:
        raise ValueError(f"n_hint={n_hint} is below max vertex label {high}")
    return n_hint


class EdgeStream:
    """An ordered sequence of edges, held as two int64 columns: edge i
    is (labels[u[i]], labels[v[i]]), where labels is an object array of
    one Python int per vertex, sorted.  That is 16 bytes per edge and
    about 40 per vertex, where a list of tuples takes about 67 per edge.

    pairs(start, stop) builds a slice of the stream as a list of tuples;
    edges and iter() build the whole of it when read.  Every endpoint of
    one vertex is the same int object, as a relabelling dict would give,
    so the estimators' set and dict lookups take the identity shortcut.

    A stream from preprocess holds its columns in the order cleaning
    leaves them, with the seed of its shuffle pending: the first read of
    the order (u, v, pairs, edges or iteration) draws the permutation,
    shuffle(order, random.Random(seed)), and puts the columns in it,
    once.  columns() hands out the columns as they are held, for readers
    of the edge set alone (the degrees, the label range, build_graph, a
    prefix that is the whole stream), so at b >= m, with any number of
    replicas, and in the oracles, no permutation is drawn.  The edges, and every
    ordered read, are those of shuffling up front.

    EdgeStream(pairs) holds a sequence of (u, v) pairs as given, in
    order, self-loops, duplicates and any labels included (build_graph
    and the estimators refuse them); an input that is neither empty nor
    of shape (m, 2) raises ValueError.  preprocess builds its columns
    directly.  n_hint overrides the vertex count for graphs whose
    trailing vertices are isolated and therefore never appear in any
    edge.
    """

    __slots__ = ("labels", "_u", "_v", "_seed", "n_hint")

    def __init__(self, pairs, n_hint: int | None = None):
        labels, ends = dense_ends(_pair_array(pairs).reshape(-1))
        self.labels = np.array(labels.tolist(), dtype=object)
        self._u, self._v = ends[0::2].copy(), ends[1::2].copy()
        self._seed = None
        self.n_hint = n_hint

    @classmethod
    def from_columns(cls, labels: np.ndarray, u: np.ndarray, v: np.ndarray,
                     seed: int | None = None) -> EdgeStream:
        """The stream of edges (labels[u[i]], labels[v[i]]), with no copy;
        with a seed, in the order shuffle(order, random.Random(seed))
        gives them, drawn on the first ordered read."""
        stream = cls.__new__(cls)
        stream.labels, stream._u, stream._v = labels, u, v
        stream._seed, stream.n_hint = seed, None
        return stream

    def _order(self) -> None:
        """Draw the pending permutation, if any, and put the columns in it."""
        if self._seed is None:
            return
        # shuffle picks its swaps from the length and its random numbers
        # alone, so shuffling positions and gathering the columns by them
        # gives the order shuffling a list of the edges would.  An int64
        # array shuffles about as fast as a list, with no int object per edge.
        order = array.array("q", np.arange(len(self._u), dtype=np.int64).tobytes())
        shuffle(order, random.Random(self._seed))
        order = np.frombuffer(order, dtype=np.int64)
        self._u, self._v, self._seed = self._u[order], self._v[order], None

    @property
    def u(self) -> np.ndarray:
        """Each edge's first end, as an index into labels, in stream order."""
        self._order()
        return self._u

    @property
    def v(self) -> np.ndarray:
        """Each edge's second end, as an index into labels, in stream order."""
        self._order()
        return self._v

    def columns(self) -> tuple[np.ndarray, np.ndarray]:
        """(u, v) as held, in stream order only once it is drawn: for a
        reader of the edge set alone, which then draws no permutation."""
        return self._u, self._v

    def pairs(self, start: int, stop: int) -> list[Edge]:
        """Edges start to stop - 1 (as a list slice clips them), as tuples."""
        return edge_tuples(self.labels, self.u[start:stop], self.v[start:stop])

    @property
    def edges(self) -> list[Edge]:
        """Every edge, as a new list of tuples."""
        return self.pairs(0, len(self))

    def __iter__(self):
        return iter(self.edges)

    def __len__(self) -> int:
        return len(self._u)

    def _label_range(self) -> tuple[int, int]:
        """(lowest, highest) endpoint label; (0, -1) if empty.  labels is
        sorted, so these are the labels of the extreme indices."""
        if not len(self):
            return 0, -1
        u, v = self.columns()
        return self.labels[min(u.min(), v.min())], self.labels[max(u.max(), v.max())]

    @property
    def n(self) -> int:
        """Vertex count by vertex_count: a given n_hint is checked alone,
        without a scan (build_graph and the estimators check the labels
        against it), else the columns' label range gives it (0 if
        empty)."""
        if self.n_hint is not None:
            return vertex_count(0, -1, self.n_hint)
        return vertex_count(*self._label_range(), None)


def edge_tuples(labels: np.ndarray, u: np.ndarray, v: np.ndarray) -> list[Edge]:
    """The edges (labels[u[i]], labels[v[i]]) as a list of tuples."""
    return list(zip(labels[u].tolist(), labels[v].tolist()))


def _pair_array(pairs) -> np.ndarray:
    """pairs as an array; one that is neither empty nor of shape (m, 2)
    raises ValueError."""
    pairs = np.asarray(pairs)
    if len(pairs) and pairs.shape != (len(pairs), 2):
        raise ValueError(f"expected (u, v) pairs, got an array of shape {pairs.shape}")
    return pairs


def _label_pairs(raw_edges) -> np.ndarray:
    """raw_edges as an (m, 2) int64 array, checked by _pair_array.  The
    first pair holding a label that is not an integer in [0, 2**63)
    raises ValueError, named as given: numpy would truncate a float and
    wrap a uint64."""
    pairs = _pair_array(raw_edges)
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


def dense_ends(flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(labels, ends) for a 1-D array of vertex labels: labels[ends] is
    flat, and each end indexes labels, which is sorted.

    Labels that already lie in [0, 2 * len(flat)) are their own ends,
    over labels = arange(max + 1), found with no sort; a label in that
    range that flat lacks is then an index no end takes.  Any others
    (negative ones, larger ones, Python ints in an object array) are
    made dense by np.unique, so no array outgrows O(len(flat)) whatever
    the labels.
    """
    if flat.dtype == np.int64 and len(flat):
        high = int(flat.max())
        if high < 2 * len(flat) and flat.min() >= 0:
            return np.arange(high + 1), flat
    return np.unique(flat, return_inverse=True)


def _simple_edges(raw_edges) -> tuple[np.ndarray, np.ndarray, int]:
    """(lo, hi, n) for raw (u, v) pairs: the edges without self-loops
    and with the first of each set of duplicates (in either
    orientation), in input order, their labels remapped to 0..n-1 in
    order of first appearance, lo[i] < hi[i].

    The labels go through dense_ends; then each vertex's first position
    comes from direct addressing (np.minimum.at), and marking those
    positions lists the vertices in first-appearance order, with no
    sort.  One sort of the edge keys lo * n + hi finds duplicates; only
    when there is one does the stable np.unique that keeps first
    occurrences run.  Each array is dropped once the next is built,
    which keeps the peak near 50 bytes per edge above the input when
    the labels index themselves.
    """
    pairs = _label_pairs(raw_edges)
    ends = dense_ends(pairs[pairs[:, 0] != pairs[:, 1]].ravel())[1]
    del pairs
    size = len(ends)
    # A duplicate's endpoints already have their labels, so labelling
    # every surviving pair by first appearance before the dedupe gives
    # the same labels as labelling only the kept edges.
    first = np.full(ends.max(initial=-1) + 1, size)
    np.minimum.at(first, ends, np.arange(size))
    opens = np.zeros(size, dtype=bool)  # the positions of first appearances
    opens[first[first < size]] = True
    n = int(opens.sum())
    rank = np.empty_like(first)  # each vertex's place in first-appearance order
    rank[ends[opens]] = np.arange(n)
    u, v = rank[ends[0::2]], rank[ends[1::2]]
    del ends, opens
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    del u, v
    key = lo * n + hi
    key_sorted = np.sort(key)
    if (key_sorted[1:] == key_sorted[:-1]).any():
        kept = np.zeros(len(key), dtype=bool)
        kept[np.unique(key, return_index=True)[1]] = True
        lo, hi = lo[kept], hi[kept]
    return lo, hi, n


def preprocess(raw_edges, seed: int) -> EdgeStream:
    """Clean raw (u, v) pairs, a list of pairs or an (m, 2) integer
    array such as read_edge_list returns, into a stream ready for the
    estimators.

    Self-loops are dropped, duplicates (in either orientation) keep the
    first occurrence, labels are remapped to a contiguous 0-based range
    in order of first appearance (see _simple_edges), and the stream's
    order is a seeded permutation of the result, which the stream draws
    on its first ordered read (see EdgeStream), not here.  An input that
    is empty after cleaning yields an empty stream, not an error.  Input
    that is not (u, v) pairs raises ValueError naming its shape, and a
    label that is not an integer in [0, 2**63) one naming its pair.
    """
    lo, hi, n = _simple_edges(raw_edges)
    # One shared int object per vertex, as a relabelling dict would give.
    return EdgeStream.from_columns(np.array(range(n), dtype=object), lo, hi, seed)


def shuffle(x, rng: random.Random) -> None:
    """Shuffle the mutable sequence x in place: Fisher-Yates from the
    end, each swap index below a bound drawn inline as getrandbits of
    the bound's bit length, again while the value is not below it.

    This loop, not the standard library, defines the order preprocess
    gives every stream, on any interpreter.  On CPython 3.10-3.13 it is
    rng.shuffle(x)'s, with the same getrandbits calls (what
    Random._randbelow_with_getrandbits draws), and two Python calls per
    element fewer."""
    getrandbits = rng.getrandbits
    for i in reversed(range(1, len(x))):
        n = i + 1
        k = n.bit_length()
        j = getrandbits(k)
        while j >= n:
            j = getrandbits(k)
        x[i], x[j] = x[j], x[i]


@dataclass
class Graph:
    """Symmetric adjacency view of a simple undirected graph."""

    n: int
    adj: list[set[int]]
    m: int

    def degree(self, v: int) -> int:
        return len(self.adj[v])


def build_graph(stream: EdgeStream) -> Graph:
    """Materialize a stream as an exact adjacency structure, from its
    columns as held: the graph is the same in any order, so no
    permutation is drawn.

    Self-loops, duplicate edges and labels outside [0, n) are rejected;
    run preprocess first on raw data.
    """
    n = vertex_count(*stream._label_range(), stream.n_hint)
    adj: list[set[int]] = [set() for _ in range(n)]
    m = 0
    for u, v in edge_tuples(stream.labels, *stream.columns()):
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
    """Yield (lineno, line) for each line of a UTF-8 text file, without
    the byte-order mark it may start with; a byte that is not UTF-8
    raises DataFormatError starting with "path:lineno"."""
    try:
        with open(path, encoding="utf-8-sig", newline=newline) as fh:
            yield from enumerate(fh, start=1)
    except UnicodeDecodeError as exc:
        # exc.start counts from the chunk the reader decoded, not the
        # file; read again, each bad byte as a lone surrogate
        with open(path, encoding="utf-8-sig", errors="surrogateescape",
                  newline=newline) as fh:
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
    included: each caller checks its own range.  It reads the lines of
    _byte_lines, so the file is held a chunk of bytes at a time.  On
    anything else (an exception or warning, a width mismatch, a '#'
    line, a line ended by a lone carriage return) the file is parsed
    again by int_rows, which raises its path:line error or returns the
    rows without the comment lines.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with open(path, "rb") as fh:
                rows = np.loadtxt(_byte_lines(fh), dtype=np.int64, comments=None,
                                  ndmin=2, encoding="utf-8")
        if rows.shape[1] == width:
            return rows
    except Exception:  # int_rows below raises the real error, if there is one
        pass
    rows = [row for _, row in int_rows(path, width)]
    return np.array(rows, dtype=np.int64).reshape(len(rows), width)


def _byte_lines(fh):
    """The lines of a binary file as bytes, commas replaced by spaces,
    without the UTF-8 byte-order mark it may start with (as text_lines
    drops it).  The file is read READ_CHUNK_BYTES at a time, each chunk
    run on to its line end, and the lines of each come from a BytesIO
    over it, which neither copies it nor widens it to UCS-4, as a
    StringIO of its text would."""
    if fh.peek(3)[:3] == codecs.BOM_UTF8:
        fh.read(3)

    def chunks():
        # peek finds the end: a read at the end would first allocate
        # READ_CHUNK_BYTES, and freeing that raises glibc's mmap
        # threshold, which moves where later large arrays live
        while fh.peek(1):
            yield io.BytesIO((fh.read(READ_CHUNK_BYTES) + fh.readline()).replace(b",", b" "))

    return itertools.chain.from_iterable(chunks())


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
