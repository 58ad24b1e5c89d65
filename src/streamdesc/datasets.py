"""Benchmark bundle loading and synthetic graph corpora."""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataFormatError
from .graph import EdgeStream, derive_seed, int_columns, preprocess, raise_first_fault


@dataclass
class Dataset:
    graphs: list[EdgeStream]
    labels: list[int]
    name: str = ""

    def __post_init__(self):
        if len(self.graphs) != len(self.labels):
            raise ValueError(
                f"{len(self.graphs)} graphs but {len(self.labels)} labels")

    def __len__(self) -> int:
        return len(self.graphs)


def load_benchmark_dataset(directory, seed: int = 0) -> Dataset:
    """Load a multi-graph classification bundle from a directory.

    Expects PREFIX_A.txt (1-indexed edge endpoints),
    PREFIX_graph_indicator.txt (vertex -> graph id), and
    PREFIX_graph_labels.txt (graph -> class), all read by int_columns.
    The range and cross-graph checks and the split into graphs are array
    operations; a faulty edge row is then named by path:line, the first
    in the file whatever its fault.  Each graph comes out as a
    preprocessed 0-based stream with n_hint preserving its isolated
    vertices.
    """
    root = Path(directory)
    if not root.is_dir():
        raise DataFormatError(f"{directory}: not a directory")
    candidates = sorted(root.glob("*_A.txt"))
    if not candidates:
        raise DataFormatError(f"{directory}: no *_A.txt file found")
    if len(candidates) > 1:
        names = ", ".join(p.name for p in candidates)
        raise DataFormatError(f"{directory}: multiple *_A.txt files: {names}")
    a_path = candidates[0]
    prefix = a_path.name[: -len("_A.txt")]
    indicator_path = root / f"{prefix}_graph_indicator.txt"
    labels_path = root / f"{prefix}_graph_labels.txt"
    for p in (indicator_path, labels_path):
        if not p.is_file():
            raise DataFormatError(f"{directory}: missing {p.name}")

    indicator = int_columns(indicator_path, 1)[:, 0]
    labels = int_columns(labels_path, 1)[:, 0].tolist()
    if not len(indicator):
        raise DataFormatError(f"{indicator_path}: no vertices listed")
    n_graphs = len(labels)
    lo, hi = int(indicator.min()), int(indicator.max())
    if lo < 1 or hi > n_graphs:
        raise DataFormatError(
            f"{indicator_path}: graph ids span [{lo}, {hi}] but "
            f"{labels_path.name} lists {n_graphs} graphs")

    n_total = len(indicator)

    def fault(row):
        u, v = row
        if not (1 <= u <= n_total and 1 <= v <= n_total):
            return f"vertex id out of range in ({u}, {v})"
        gu, gv = indicator[u - 1], indicator[v - 1]
        return gu != gv and f"edge ({u}, {v}) crosses graphs {gu} and {gv}"

    try:
        edges = int_columns(a_path, 2)
        bad = ((edges < 1) | (edges > n_total)).any(axis=1)
        gids = indicator[np.where(bad[:, None], 1, edges) - 1]
        bad |= gids[:, 0] != gids[:, 1]
    except DataFormatError:
        bad = None
    if bad is None or bad.any():
        raise_first_fault(a_path, 2, fault)

    # Each graph's edges in file order; row 0 is graph 0, which has none.
    # preprocess relabels by first appearance, so the global ids can stay.
    by_graph = gids[:, 0].argsort(kind="stable")
    per_graph = np.split(edges[by_graph],
                         np.cumsum(np.bincount(gids[:, 0], minlength=n_graphs + 1))[:-1])
    n_vertices = np.bincount(indicator, minlength=n_graphs + 1).tolist()
    graphs = []
    for g in range(1, n_graphs + 1):
        stream = preprocess(per_graph[g], seed=derive_seed(seed, "shuffle", g))
        stream.n_hint = n_vertices[g]
        graphs.append(stream)
    return Dataset(graphs=graphs, labels=labels, name=prefix)


# A G(n, p) graph with at least this many vertex pairs draws them in
# numpy; a smaller one loops in Python.  Timed in process on a 2-vCPU
# host (min of 51 calls, p = 0.1): 990 pairs (45 vertices) take 0.06 ms
# in the loop and 0.29 ms in numpy, whose fixed cost is mostly the
# RandomState it builds; the two meet near 8,128 pairs (128 vertices);
# 19,900 pairs take 0.92 ms in the loop and 0.51 ms in numpy.  Every
# graph of a 30-60 vertex bundle (at most 1,770 pairs) stays in the loop.
GNP_BULK_PAIRS = 2 ** 13
# The numpy path draws this many pairs at a time: 2 MiB of doubles and
# 256 KiB of mask a chunk, plus 24 bytes of int64 indices per kept pair.
# On 3,000 vertices (4.5M pairs) chunks of 2**16 to 2**22 pairs all took
# 42-57 ms, most of it MT19937 itself.
GNP_CHUNK = 2 ** 18


def gnp_edges(n: int, p: float, rng: random.Random) -> list[tuple[int, int]]:
    """Edge list of one uniform random graph: each pair kept with probability p.

    The pairs (u, v), u < v, are visited in row-major order and each is
    kept when one rng.random() is below p; the edges come out in that
    order.  That per-pair loop defines the result: every path gives its
    edges and leaves rng in its final state.  When rng is exactly a
    random.Random, p a float and the graph has at least two vertices and
    GNP_BULK_PAIRS pairs, the draws are made in numpy instead: rng's
    Mersenne Twister state goes into a numpy RandomState, whose legacy
    stream NEP 19 freezes and whose random_sample makes each double from
    the same two 32-bit words as random() does, GNP_CHUNK pairs at a
    time (about 2.3 MiB each); the advanced state goes back into rng,
    its pending gauss() kept.  A subclass of random.Random, which may
    override random(), and any other generator get the loop.
    """
    pairs = n * (n - 1) // 2
    if (n > 1 and pairs >= GNP_BULK_PAIRS
            and type(rng) is random.Random and type(p) is float):
        return _gnp_edges_bulk(n, pairs, p, rng)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.append((u, v))
    return edges


def _gnp_edges_bulk(n: int, pairs: int, p: float, rng: random.Random):
    version, internal, gauss_next = rng.getstate()
    mt = np.random.RandomState()
    mt.set_state(("MT19937", np.array(internal[:-1], dtype=np.uint32), internal[-1]))
    # row u holds the n - 1 - u pairs (u, v > u) from flat index starts[u] on
    rows = np.arange(n, dtype=np.int64)
    starts = rows * (2 * n - rows - 1) // 2
    kept = []
    for offset in range(0, pairs, GNP_CHUNK):
        size = min(GNP_CHUNK, pairs - offset)
        kept.append(np.flatnonzero(mt.random_sample(size) < p) + offset)
    flat = np.concatenate(kept)
    u = np.searchsorted(starts, flat, side="right") - 1
    v = flat - starts[u] + u + 1
    _, key, pos, *_ = mt.get_state()
    rng.setstate((version, (*key.tolist(), pos), gauss_next))
    return list(zip(u.tolist(), v.tolist()))


def preferential_attachment_edges(
    n: int, m_attach: int, rng: random.Random
) -> list[tuple[int, int]]:
    """Growth model: each new vertex attaches to m_attach distinct existing
    vertices chosen proportionally to degree, which yields the heavy-tailed
    degree profile random graphs lack.

    Vertices 0..m_attach-1 start the graph and vertex m_attach joins
    them all; each later vertex v draws endpoints of the edges so far,
    uniformly with repeats, until it holds m_attach distinct targets,
    and its edges (u, v) follow in ascending u.  Each endpoint is drawn
    inline as an index below the endpoint count: getrandbits of its bit
    length, again while the value is not below it.  This loop, not the
    standard library, defines the edges and rng's final state on any
    interpreter; on CPython 3.10-3.13 they are rng.choice's, with the
    same getrandbits calls and fewer Python calls per draw.
    """
    if m_attach < 1:
        raise ValueError("m_attach must be at least 1")
    if n < m_attach + 1:
        raise ValueError(f"need n >= m_attach + 1, got n={n} m_attach={m_attach}")
    edges: list[tuple[int, int]] = []
    weighted: list[int] = []  # one entry per incident edge endpoint
    getrandbits = rng.getrandbits
    for v in range(m_attach, n):
        if weighted:
            targets: set[int] = set()
            size = len(weighted)
            k = size.bit_length()
            while len(targets) < m_attach:
                i = getrandbits(k)
                while i >= size:
                    i = getrandbits(k)
                targets.add(weighted[i])
        else:
            targets = set(range(m_attach))
        for u in sorted(targets):
            edges.append((u, v))
            weighted.append(u)
            weighted.append(v)
    return edges


def synthetic_two_class_dataset(
    per_class: int = 60,
    n_range: tuple[int, int] = (50, 100),
    seed: int = 0,
) -> Dataset:
    """Uniform random graphs with edge probability 0.1 (class 0) versus
    preferential-attachment graphs with 3 attachments per vertex
    (class 1), sizes drawn uniformly from n_range, which must satisfy
    4 <= lo <= hi (the attachment graphs need 4 vertices)."""
    lo, hi = n_range
    if not 4 <= lo <= hi:
        raise ValueError(f"n_range must satisfy 4 <= lo <= hi, got n_range={n_range!r}")
    graphs: list[EdgeStream] = []
    labels: list[int] = []
    models = (("gnp", gnp_edges, 0.1), ("pa", preferential_attachment_edges, 3))
    for label, (tag, edges, param) in enumerate(models):
        for i in range(per_class):
            rng = random.Random(derive_seed(seed, tag, i))
            n = rng.randint(lo, hi)
            stream = preprocess(edges(n, param, rng),
                                seed=derive_seed(seed, f"{tag}-shuffle", i))
            stream.n_hint = n
            graphs.append(stream)
            labels.append(label)
    return Dataset(graphs=graphs, labels=labels, name="synthetic-two-class")
