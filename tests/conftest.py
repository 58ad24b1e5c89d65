"""Shared fixtures and an independent brute-force counting oracle.

The reference enumerator (reference.py) classifies vertex subsets through
a degree-sequence fingerprint and converts between count kinds with the
overlap matrix.
The oracle below shares none of that machinery: it recognizes patterns by
permutation matching against a hand-typed catalog and tallies both count
kinds by direct enumeration.  Slow, but an honest second opinion.
"""

import itertools
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from streamdesc import EdgeStream, Graph, preprocess
from streamdesc.datasets import gnp_edges, preferential_attachment_edges

# Stream-driven property tests replay the same examples on every run and
# never fail on a slow host's timing; per-test max_examples still apply.
settings.register_profile("streamdesc", derandomize=True, deadline=None)
settings.load_profile("streamdesc")

# id -> (order, reference edge tuple); ids follow the canonical ordering
HAND_CATALOG = {
    1: (2, ()),
    2: (2, ((0, 1),)),
    3: (3, ()),
    4: (3, ((0, 1),)),
    5: (3, ((0, 1), (1, 2))),
    6: (3, ((0, 1), (1, 2), (0, 2))),
    7: (4, ()),
    8: (4, ((0, 1),)),
    9: (4, ((0, 1), (2, 3))),
    10: (4, ((0, 1), (1, 2))),
    11: (4, ((0, 1), (1, 2), (0, 2))),
    12: (4, ((0, 1), (0, 2), (0, 3))),
    13: (4, ((0, 1), (1, 2), (2, 3))),
    14: (4, ((0, 1), (1, 2), (2, 3), (0, 3))),
    15: (4, ((0, 1), (1, 2), (0, 2), (0, 3))),
    16: (4, ((0, 1), (1, 2), (0, 2), (0, 3), (1, 3))),
    17: (4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))),
}


def _permuted(edges, perm):
    return frozenset(
        (min(perm[a], perm[b]), max(perm[a], perm[b])) for a, b in edges)


def _edgeset_tables():
    """Per order: every labeled edge set on k vertices -> pattern id."""
    tables = {2: {}, 3: {}, 4: {}}
    for pid, (k, edges) in HAND_CATALOG.items():
        for perm in itertools.permutations(range(k)):
            key = _permuted(edges, perm)
            claimed = tables[k].setdefault(key, pid)
            assert claimed == pid, "two patterns claim one labeled edge set"
    for k, table in tables.items():
        # the catalog must cover every possible edge subset of K_k
        assert len(table) == 2 ** (k * (k - 1) // 2)
    return tables


EDGESET_TO_ID = _edgeset_tables()


def brute_force_counts(g: Graph):
    """(subgraph, induced) 17-vectors by raw enumeration.

    A subgraph copy of a pattern is a (vertex k-subset, edge subset of
    the induced edges) pair; an induced copy fixes the edge subset to
    all induced edges.  No overlap matrix, no fingerprints.
    """
    sub = np.zeros(17)
    ind = np.zeros(17)
    for k in (2, 3, 4):
        table = EDGESET_TO_ID[k]
        for combo in itertools.combinations(range(g.n), k):
            pos = {v: i for i, v in enumerate(combo)}
            edges = [
                (pos[u], pos[v])
                for u, v in itertools.combinations(combo, 2)
                if v in g.adj[u]
            ]
            ind[table[frozenset(edges)] - 1] += 1
            for r in range(len(edges) + 1):
                for subset in itertools.combinations(edges, r):
                    sub[table[frozenset(subset)] - 1] += 1
    return sub, ind


def random_stream(n: int, p: float, seed: int) -> EdgeStream:
    """One preprocessed G(n, p) stream; n_hint keeps isolated vertices."""
    rng = random.Random(seed)
    stream = preprocess(gnp_edges(n, p, rng), seed=seed)
    stream.n_hint = n
    return stream


@st.composite
def gnp_or_pa_streams(draw):
    """A preprocessed G(n, p) or preferential-attachment stream."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    if draw(st.booleans()):
        edges = gnp_edges(draw(st.integers(2, 24)), draw(st.floats(0.05, 0.9)), rng)
    else:
        attach = draw(st.integers(1, 4))
        edges = preferential_attachment_edges(draw(st.integers(attach + 1, 30)), attach, rng)
    return preprocess(edges, seed=draw(st.integers(0, 99)))


@pytest.fixture(scope="session")
def small_corpus():
    """60 mixed-density streams with n in [4, 10], shared across modules."""
    return [
        random_stream(4 + i % 7, (0.2, 0.5, 0.8)[i % 3], seed=1000 + i)
        for i in range(60)
    ]


# The six connected patterns the stream estimator counts, by catalog id:
# triangle, path-4, cycle-4, paw, diamond, K4.
CONNECTED_IDS = (6, 13, 14, 15, 16, 17)


def completed_copies(sample, edge):
    """Per connected pattern id, the copies in sample + edge that contain
    edge, every other edge of the copy taken from sample.

    Enumerates the vertex sets holding both endpoints and, on each, every
    edge subset that includes edge; classifies by the hand catalog.
    """
    u, v = edge
    present = {frozenset(e) for e in sample}  # edge itself is not in it
    others = sorted({x for e in sample for x in e} - {u, v})
    counts = Counter()
    for extra in itertools.chain(
            itertools.combinations(others, 1), itertools.combinations(others, 2)):
        combo = (u, v, *extra)
        rest = [
            (i, j) for i, j in itertools.combinations(range(len(combo)), 2)
            if frozenset((combo[i], combo[j])) in present
        ]
        for r in range(len(rest) + 1):
            for subset in itertools.combinations(rest, r):
                pid = EDGESET_TO_ID[len(combo)][frozenset(((0, 1), *subset))]
                if pid in CONNECTED_IDS:
                    counts[pid] += 1
    return counts


def triangles_per_vertex(edges):
    """Vertex -> number of triangles on it, by enumerating vertex triples."""
    adj = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    tri = Counter()
    for x, y, z in itertools.combinations(sorted(adj), 3):
        if y in adj[x] and z in adj[x] and z in adj[y]:
            tri.update((x, y, z))
    return tri


def triangles_per_edge(edges):
    """Edge (a frozenset of its ends) -> number of triangles on it, for
    the edges on any, by enumerating vertex triples."""
    adj = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    tri = Counter()
    for x, y, z in itertools.combinations(sorted(adj), 3):
        if y in adj[x] and z in adj[x] and z in adj[y]:
            tri.update([frozenset((x, y)), frozenset((x, z)), frozenset((y, z))])
    return dict(tri)
