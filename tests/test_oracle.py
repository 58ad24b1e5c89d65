"""Exact counting oracle, cross-checked against an independent enumerator."""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamdesc import (
    ORDER_SLICES,
    EdgeStream,
    PatternId,
    build_graph,
    edge_centric_induced_counts,
    exact_vertex_features,
    overlap_matrix,
    phi_from_induced,
    subgraph_to_induced,
)
from streamdesc.maeve import features_from_counts

from conftest import brute_force_counts, random_stream
from reference import (
    ORACLE_LIMIT, exact_induced_counts, exact_subgraph_counts,
    exact_vertex_triangle_path_counts, induced_to_subgraph)


def graph_of(edges, n_hint=None):
    return build_graph(EdgeStream(list(edges), n_hint=n_hint))


K3 = graph_of([(0, 1), (1, 2), (0, 2)])
K4 = graph_of(itertools.combinations(range(4), 2))
P3 = graph_of([(0, 1), (1, 2)])
CLAW = graph_of([(0, 1), (0, 2), (0, 3)])


def test_k3_subgraph_counts():
    sub = exact_subgraph_counts(K3)
    assert sub[PatternId.EDGE] == 3
    assert sub[PatternId.WEDGE] == 3
    assert sub[PatternId.TRIANGLE] == 1
    assert sub[PatternId.EDGELESS_2] == 3
    assert sub[PatternId.EDGELESS_3] == 1
    assert sub[PatternId.EDGE_PLUS_ISOLATED] == 3
    assert np.all(sub.order_block(4) == 0)


def test_k4_subgraph_counts():
    sub = exact_subgraph_counts(K4)
    expected = {
        PatternId.TRIANGLE: 4, PatternId.WEDGE: 12, PatternId.PATH_4: 12,
        PatternId.CYCLE_4: 3, PatternId.PAW: 12, PatternId.DIAMOND: 6,
        PatternId.K4: 1, PatternId.CLAW: 4,
    }
    for pid, count in expected.items():
        assert sub[pid] == count


def test_edgeless_graph_counts():
    g = graph_of([], n_hint=5)
    sub = exact_subgraph_counts(g)
    ind = exact_induced_counts(g)
    for pid in PatternId:
        if pid.edge_count:
            assert sub[pid] == 0
    assert sub[PatternId.EDGELESS_2] == 10
    assert sub[PatternId.EDGELESS_3] == 10
    assert sub[PatternId.EDGELESS_4] == 5
    assert np.array_equal(ind.values, sub.values)  # nothing overlaps


def test_p3_induced_counts():
    ind = exact_induced_counts(P3)
    assert ind[PatternId.WEDGE] == 1
    assert ind[PatternId.TRIANGLE] == 0
    assert ind[PatternId.EDGE_PLUS_ISOLATED] == 0
    assert ind[PatternId.EDGELESS_3] == 0
    assert ind[PatternId.EDGE] == 2
    assert ind[PatternId.EDGELESS_2] == 1


def test_k4_induced_counts():
    ind = exact_induced_counts(K4)
    assert ind[PatternId.K4] == 1
    block = ind.order_block(4)
    assert block.sum() == 1  # the only order-4 subset is K4 itself


def test_k3_induced_order3_vector():
    ind = exact_induced_counts(K3)
    assert list(ind.order_block(3)) == [0, 0, 0, 1]


@pytest.mark.parametrize("idx", range(0, 60, 12))
def test_counts_against_independent_enumerator(idx, small_corpus):
    g = build_graph(small_corpus[idx])
    sub_brute, ind_brute = brute_force_counts(g)
    assert np.array_equal(exact_subgraph_counts(g).values, sub_brute)
    assert np.array_equal(exact_induced_counts(g).values, ind_brute)


def test_counts_against_independent_enumerator_larger():
    for i in range(20):
        g = build_graph(random_stream(12, (0.15, 0.4, 0.7)[i % 3], seed=400 + i))
        sub_brute, ind_brute = brute_force_counts(g)
        assert np.array_equal(exact_subgraph_counts(g).values, sub_brute)
        assert np.array_equal(exact_induced_counts(g).values, ind_brute)


@pytest.mark.parametrize("p", [0.05, 0.2, 0.5, 0.7])
def test_counts_against_networkx_at_oracle_limit(p):
    nx = pytest.importorskip("networkx")
    stream = random_stream(ORACLE_LIMIT, p, seed=int(900 + 100 * p))
    g = build_graph(stream)
    assert g.n == ORACLE_LIMIT
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(stream)
    k4 = 0
    for clique in nx.enumerate_all_cliques(h):  # yielded by growing size
        if len(clique) > 4:
            break
        k4 += len(clique) == 4
    sub = exact_subgraph_counts(g)
    assert sub[PatternId.TRIANGLE] == sum(nx.triangles(h).values()) // 3
    assert sub[PatternId.K4] == k4
    assert exact_induced_counts(g).order_block(4).sum() == math.comb(ORACLE_LIMIT, 4)


@pytest.mark.parametrize("p", [0.03, 0.1, 0.3, 0.6])
def test_vertex_features_against_networkx(p):
    nx = pytest.importorskip("networkx")
    stream = random_stream(60, p, seed=int(1300 + 100 * p))
    g = build_graph(stream)
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(stream)
    clustering = nx.clustering(h)
    avg_nbr_deg = nx.average_neighbor_degree(h)
    for v in range(g.n):
        degree, clust, avg, _, _ = exact_vertex_features(g, v)
        assert degree == h.degree[v]
        assert clust == clustering[v], v
        assert avg == avg_nbr_deg[v], v


def test_subgraph_equals_overlap_times_induced(small_corpus):
    o = overlap_matrix()
    for stream in small_corpus[:30]:
        g = build_graph(stream)
        ind = exact_induced_counts(g).values
        sub = exact_subgraph_counts(g).values
        assert np.array_equal(o @ ind, sub)
        assert np.allclose(subgraph_to_induced(sub), ind, atol=1e-9)


def test_induced_order_blocks_sum_to_binomials(small_corpus):
    for stream in small_corpus[:30]:
        g = build_graph(stream)
        ind = exact_induced_counts(g)
        for k in (2, 3, 4):
            assert ind.order_block(k).sum() == math.comb(g.n, k)


def test_counts_invariant_under_relabeling():
    stream = random_stream(9, 0.5, seed=77)
    base = build_graph(stream)
    perm = list(range(base.n))
    random.Random(3).shuffle(perm)
    relabeled = graph_of(
        sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in stream),
        n_hint=base.n)
    assert np.array_equal(
        exact_subgraph_counts(base).values, exact_subgraph_counts(relabeled).values)
    assert np.array_equal(
        exact_induced_counts(base).values, exact_induced_counts(relabeled).values)


def test_oracle_size_limit():
    # the cap is checked before any enumeration, so this stays cheap
    big = graph_of([(i, i + 1) for i in range(ORACLE_LIMIT)])
    assert big.n == ORACLE_LIMIT + 1
    with pytest.raises(ValueError, match=f"limited to {ORACLE_LIMIT}"):
        exact_subgraph_counts(big)
    with pytest.raises(ValueError, match=f"limited to {ORACLE_LIMIT}"):
        exact_induced_counts(big)


def _hex(values):
    return [float(x).hex() for x in values]


@given(n=st.integers(0, ORACLE_LIMIT),
       p=st.sampled_from([0.0, 0.05, 0.1, 0.2, 0.35, 0.5, 0.7, 0.9, 1.0]),
       isolated=st.integers(0, 3), seed=st.integers(0, 2**16))
@settings(max_examples=120)
def test_edge_centric_counts_equal_enumerator(n, p, isolated, seed):
    # the last `isolated` vertices appear in no edge, only in n_hint
    k = max(n - isolated, 0)
    g = graph_of(random_stream(k, p, seed).edges, n_hint=n)
    assert g.n == n
    assert _hex(edge_centric_induced_counts(g).values) == _hex(exact_induced_counts(g).values)


def test_edge_centric_counts_by_hand():
    k33 = graph_of((u, v) for u in range(3) for v in range(3, 6))
    assert edge_centric_induced_counts(k33)[PatternId.CYCLE_4] == 9
    k5 = graph_of(itertools.combinations(range(5), 2))
    counts = edge_centric_induced_counts(k5)
    assert counts[PatternId.K4] == 5
    assert counts.order_block(4).sum() == 5
    assert counts[PatternId.TRIANGLE] == 10


def test_edge_centric_counts_of_a_huge_edgeless_graph():
    # C(n, 4) is above 2**63 here: the counts must be Python ints until
    # the one conversion to float
    n = 200_000
    assert math.comb(n, 4) > 2**63
    counts = edge_centric_induced_counts(graph_of([], n_hint=n))
    assert counts[PatternId.EDGELESS_4] == float(math.comb(n, 4))
    assert counts[PatternId.EDGELESS_3] == float(math.comb(n, 3))
    assert set(np.flatnonzero(counts.values) + 1) == {
        PatternId.EDGELESS_2, PatternId.EDGELESS_3, PatternId.EDGELESS_4}


def test_edge_centric_counts_against_networkx_past_the_cap():
    nx = pytest.importorskip("networkx")
    n = 2 * ORACLE_LIMIT
    stream = random_stream(n, 0.08, seed=1200)
    g = build_graph(stream)
    h = nx.Graph()
    h.add_nodes_from(range(n))
    h.add_edges_from(stream)
    k4 = 0
    for clique in nx.enumerate_all_cliques(h):  # yielded by growing size
        if len(clique) > 4:
            break
        k4 += len(clique) == 4
    cycles4 = sum(len(c) == 4 for c in nx.simple_cycles(h, length_bound=4))
    induced = edge_centric_induced_counts(g)
    sub = induced_to_subgraph(induced.values)
    assert sub[PatternId.TRIANGLE - 1] == sum(nx.triangles(h).values()) // 3
    assert sub[PatternId.CYCLE_4 - 1] == cycles4 > 0
    assert sub[PatternId.K4 - 1] == k4 > 0
    assert induced.order_block(4).sum() == math.comb(n, 4)


def test_vertex_triangle_path_counts_k3():
    tri, path = exact_vertex_triangle_path_counts(K3)
    assert list(tri) == [1, 1, 1]
    assert list(path) == [2, 2, 2]


def test_vertex_triangle_path_counts_claw():
    tri, path = exact_vertex_triangle_path_counts(CLAW)
    assert list(tri) == [0, 0, 0, 0]
    assert list(path) == [0, 2, 2, 2]


def test_vertex_sums_match_global_counts(small_corpus):
    # every triangle has 3 incident vertices, every wedge 2 endpoints
    for stream in small_corpus[:20]:
        g = build_graph(stream)
        sub = exact_subgraph_counts(g)
        tri, path = exact_vertex_triangle_path_counts(g)
        assert tri.sum() == 3 * sub[PatternId.TRIANGLE]
        assert path.sum() == 2 * sub[PatternId.WEDGE]


def test_vertex_features_examples():
    assert exact_vertex_features(CLAW, 0) == (3, 0, 1, 3, 0)
    assert exact_vertex_features(CLAW, 1) == (1, 0, 3, 1, 2)
    assert exact_vertex_features(K3, 0) == (2, 1, 2, 3, 0)


def test_vertex_features_isolated_vertex():
    g = graph_of([(0, 1)], n_hint=3)
    assert exact_vertex_features(g, 2) == (0, 0, 0, 0, 0)


def test_vertex_features_out_of_range():
    with pytest.raises(IndexError):
        exact_vertex_features(K3, 3)


def test_feature_identity_against_egonet(small_corpus):
    # (d, T, P) derivation must match the explicit egonet computation
    for stream in small_corpus[:25]:
        g = build_graph(stream)
        tri, path = exact_vertex_triangle_path_counts(g)
        for v in range(g.n):
            derived = features_from_counts(g.degree(v), tri[v], path[v])
            assert derived.as_tuple() == exact_vertex_features(g, v)


def test_phi_from_induced_k3():
    phi = phi_from_induced(exact_induced_counts(K3).values, 3)
    assert np.allclose(phi[0:2], [0, 1])
    assert np.allclose(phi[2:6], [0, 0, 0, 1])
    assert np.all(phi[6:] == 0)  # C(3,4) = 0 block is defined as zeros


def test_phi_from_induced_p3():
    phi = phi_from_induced(exact_induced_counts(P3).values, 3)
    assert np.allclose(phi[0:2], [1 / 3, 2 / 3])
    assert np.allclose(phi[2:6], [0, 0, 1, 0])


def test_phi_blocks_sum_to_one(small_corpus):
    for stream in small_corpus[:20]:
        g = build_graph(stream)
        phi = phi_from_induced(exact_induced_counts(g).values, g.n)
        for k in (2, 3, 4):
            if math.comb(g.n, k):
                assert abs(phi[ORDER_SLICES[k]].sum() - 1) < 1e-12
