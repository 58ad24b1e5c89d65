"""Pattern catalog, degree-sequence classification, and the overlap matrix."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamdesc import (
    N_PATTERNS,
    ORDER_SLICES,
    STREAM_ESTIMATED,
    PatternCounts,
    PatternId,
    overlap_matrix,
    subgraph_to_induced,
)
from streamdesc.patterns import DEGREE_SEQUENCE

import reference
from reference import classify_degree_sequence, induced_to_subgraph


def test_canonical_ordering():
    assert [p.value for p in PatternId] == list(range(1, 18))
    assert [p.name for p in PatternId] == [
        "EDGELESS_2", "EDGE",
        "EDGELESS_3", "EDGE_PLUS_ISOLATED", "WEDGE", "TRIANGLE",
        "EDGELESS_4", "EDGE_PLUS_2_ISOLATED", "TWO_DISJOINT_EDGES",
        "WEDGE_PLUS_ISOLATED", "TRIANGLE_PLUS_ISOLATED", "CLAW",
        "PATH_4", "CYCLE_4", "PAW", "DIAMOND", "K4",
    ]
    assert N_PATTERNS == 17


def test_orders_and_edge_counts():
    orders = [p.order for p in PatternId]
    assert orders == [2, 2] + [3] * 4 + [4] * 11
    # within each order, edge counts never decrease
    for k in (2, 3, 4):
        counts = [p.edge_count for p in PatternId if p.order == k]
        assert counts == sorted(counts)
    assert PatternId.EDGE.edge_count == 1
    assert PatternId.EDGELESS_4.edge_count == 0
    assert PatternId.DIAMOND.edge_count == 5
    assert PatternId.K4.edge_count == 6


def test_stream_estimated_set():
    assert set(STREAM_ESTIMATED) == {
        PatternId.TRIANGLE, PatternId.PATH_4, PatternId.CYCLE_4,
        PatternId.PAW, PatternId.DIAMOND, PatternId.K4,
    }


def test_order_slices_partition():
    assert ORDER_SLICES[2] == slice(0, 2)
    assert ORDER_SLICES[3] == slice(2, 6)
    assert ORDER_SLICES[4] == slice(6, 17)


def test_degree_sequences_are_distinct():
    # the whole classification strategy rests on this
    assert len(set(DEGREE_SEQUENCE.values())) == 17


@pytest.mark.parametrize(
    "seq,expected",
    [
        ((0, 0), PatternId.EDGELESS_2),
        ((1, 1), PatternId.EDGE),
        ((0, 1, 1), PatternId.EDGE_PLUS_ISOLATED),
        ((1, 1, 2), PatternId.WEDGE),
        ((2, 2, 2), PatternId.TRIANGLE),
        ((0, 0, 1, 1), PatternId.EDGE_PLUS_2_ISOLATED),
        ((1, 1, 1, 1), PatternId.TWO_DISJOINT_EDGES),
        ((0, 1, 1, 2), PatternId.WEDGE_PLUS_ISOLATED),
        ((0, 2, 2, 2), PatternId.TRIANGLE_PLUS_ISOLATED),
        ((1, 1, 1, 3), PatternId.CLAW),
        ((1, 1, 2, 2), PatternId.PATH_4),
        ((2, 2, 2, 2), PatternId.CYCLE_4),
        ((1, 2, 2, 3), PatternId.PAW),
        ((2, 2, 3, 3), PatternId.DIAMOND),
        ((3, 3, 3, 3), PatternId.K4),
    ],
)
def test_classify_degree_sequence(seq, expected):
    assert classify_degree_sequence(seq) is expected


def test_classify_rejects_unknown_sequence():
    with pytest.raises(ValueError):
        classify_degree_sequence((1, 2))
    with pytest.raises(ValueError):
        classify_degree_sequence((5, 5, 5, 5))


def test_overlap_matrix_structure():
    o = overlap_matrix()
    assert o.shape == (17, 17)
    assert np.array_equal(np.diag(o), np.ones(17))
    assert np.all(np.tril(o, -1) == 0)
    # block diagonal: no mixing across orders
    for i in PatternId:
        for j in PatternId:
            if i.order != j.order:
                assert o[i - 1, j - 1] == 0


def test_overlap_matrix_spot_values():
    o = overlap_matrix()
    assert o[PatternId.WEDGE - 1, PatternId.TRIANGLE - 1] == 3
    assert o[PatternId.EDGELESS_3 - 1, PatternId.TRIANGLE - 1] == 1
    assert o[PatternId.EDGE_PLUS_ISOLATED - 1, PatternId.WEDGE - 1] == 2
    assert o[PatternId.TWO_DISJOINT_EDGES - 1, PatternId.PATH_4 - 1] == 1
    assert o[PatternId.PATH_4 - 1, PatternId.CYCLE_4 - 1] == 4
    assert o[PatternId.PATH_4 - 1, PatternId.DIAMOND - 1] == 6
    assert o[PatternId.CYCLE_4 - 1, PatternId.DIAMOND - 1] == 1
    assert o[PatternId.PAW - 1, PatternId.DIAMOND - 1] == 4


def test_overlap_matrix_k4_column():
    # spanning subgraphs of K4 per pattern, small enough to count by hand
    o = overlap_matrix()
    expected = {
        PatternId.EDGELESS_4: 1,
        PatternId.EDGE_PLUS_2_ISOLATED: 6,
        PatternId.TWO_DISJOINT_EDGES: 3,
        PatternId.WEDGE_PLUS_ISOLATED: 12,
        PatternId.TRIANGLE_PLUS_ISOLATED: 4,
        PatternId.CLAW: 4,
        PatternId.PATH_4: 12,
        PatternId.CYCLE_4: 3,
        PatternId.PAW: 12,
        PatternId.DIAMOND: 6,
        PatternId.K4: 1,
    }
    for pid, count in expected.items():
        assert o[pid - 1, PatternId.K4 - 1] == count
    # sanity: column sums to the number of edge subsets of K4
    col = o[:, PatternId.K4 - 1]
    assert col.sum() == 2 ** 6


def test_overlap_column_sums_count_edge_subsets():
    # every column must partition the 2^{|E_j|} edge subsets of pattern j
    o = overlap_matrix()
    for j in PatternId:
        assert o[:, j - 1].sum() == 2 ** j.edge_count


def test_solve_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(20):
        h = rng.uniform(0, 50, size=17)
        induced = subgraph_to_induced(h)
        assert np.allclose(induced_to_subgraph(induced), h, atol=1e-9)


@given(st.lists(st.floats(-1e15, 1e15) | st.integers(0, 10 ** 9), min_size=17, max_size=17))
@settings(max_examples=200)
def test_solve_keeps_the_bits_of_casting_each_row(counts):
    want = reference.subgraph_to_induced(counts)
    assert [x.hex() for x in subgraph_to_induced(counts)] == [x.hex() for x in want]


def test_overlap_matrix_copy_does_not_leak_into_conversions():
    h = np.arange(1, 18, dtype=float)
    before = subgraph_to_induced(h)
    back = induced_to_subgraph(before)
    o = overlap_matrix()
    o[:] = 0
    o[0, 16] = 99
    assert np.array_equal(subgraph_to_induced(h), before)
    assert np.array_equal(induced_to_subgraph(before), back)
    assert overlap_matrix()[0, 16] == 0


def test_pattern_counts_validation():
    PatternCounts(values=np.zeros(17))
    with pytest.raises(ValueError):
        PatternCounts(values=np.zeros(16))
    with pytest.raises(ValueError):
        PatternCounts(values=np.zeros((17, 1)))


def test_pattern_counts_access():
    values = np.arange(17, dtype=float)
    counts = PatternCounts(values=values)
    assert counts[PatternId.EDGELESS_2] == 0.0
    assert counts[PatternId.K4] == 16.0
    assert np.array_equal(counts.order_block(3), values[2:6])
    assert counts.order_block(4).shape == (11,)
