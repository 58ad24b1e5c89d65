"""Stream preprocessing, graph construction, file input, seed derivation."""

import random
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from streamdesc import (
    EdgeStream,
    build_graph,
    derive_seed,
    normalize_edge,
    preprocess,
    read_edge_list,
)
from streamdesc.errors import DataFormatError
from streamdesc.graph import int_rows


def test_normalize_edge_orders_endpoints():
    assert normalize_edge(3, 1) == (1, 3)
    assert normalize_edge(0, 7) == (0, 7)


def test_normalize_edge_rejects_bad_input():
    with pytest.raises(ValueError):
        normalize_edge(2, 2)
    with pytest.raises(ValueError):
        normalize_edge(-1, 3)


def test_preprocess_drops_self_loops_and_duplicates():
    stream = preprocess([(0, 0), (1, 2), (2, 1)], seed=7)
    assert list(stream) == [(0, 1)]


def test_preprocess_drops_orientation_duplicates():
    stream = preprocess([(5, 9), (9, 5), (5, 7)], seed=3)
    assert len(stream) == 2
    labels = {v for e in stream for v in e}
    assert labels == {0, 1, 2}


def test_preprocess_relabels_by_first_appearance():
    # labels are minted only for surviving edges, in encounter order
    stream = preprocess([(10, 20), (20, 30)], seed=0)
    assert sorted(stream) == [(0, 1), (1, 2)]


def reference_preprocess_edges(raw_edges):
    """Dedupe on the raw labels, then label the kept edges in order."""
    seen, relabel, edges = set(), {}, []
    for a, b in raw_edges:
        key = (min(a, b), max(a, b))
        if a == b or key in seen:
            continue
        seen.add(key)
        for x in (a, b):
            relabel.setdefault(x, len(relabel))
        edges.append(normalize_edge(relabel[a], relabel[b]))
    return edges


@given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), max_size=40),
       st.integers(0, 3))
@settings(max_examples=200)
def test_preprocess_matches_reference(raw, seed):
    # labelling before the duplicate check must not change any label
    expected = reference_preprocess_edges(raw)
    random.Random(seed).shuffle(expected)
    assert preprocess(raw, seed=seed).edges == expected


def test_preprocess_is_deterministic():
    raw = [(i, j) for i in range(10) for j in range(i + 1, 10)]
    a = preprocess(raw, seed=11)
    b = preprocess(raw, seed=11)
    assert list(a) == list(b)
    c = preprocess(raw, seed=12)
    assert sorted(c) == sorted(a)  # same edge set, different order


def test_preprocess_empty_after_cleaning():
    stream = preprocess([(4, 4)], seed=0)
    assert len(stream) == 0
    assert stream.n == 0


def test_edge_stream_n():
    assert EdgeStream([(0, 1), (1, 2)]).n == 3
    assert EdgeStream([(0, 1)], n_hint=10).n == 10
    assert EdgeStream([]).n == 0


def test_build_graph_basic():
    g = build_graph(EdgeStream([(0, 1), (1, 2)]))
    assert (g.n, g.m) == (3, 2)
    assert g.degrees() == [1, 2, 1]
    assert g.neighbors(1) == [0, 2]
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 2)


def test_build_graph_empty_with_hint():
    g = build_graph(EdgeStream([], n_hint=4))
    assert (g.n, g.m) == (4, 0)
    assert g.degrees() == [0, 0, 0, 0]


def test_build_graph_k4_degrees():
    edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    g = build_graph(EdgeStream(edges))
    assert g.degrees() == [3, 3, 3, 3]
    assert sorted(g.edges()) == sorted(edges)


def test_build_graph_rejects_duplicates():
    with pytest.raises(ValueError):
        build_graph(EdgeStream([(0, 1), (1, 0)]))


def test_build_graph_rejects_small_hint():
    with pytest.raises(ValueError):
        build_graph(EdgeStream([(0, 5)], n_hint=3))


def test_read_edge_list(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("# a comment\n0 1\n\n1 2\n")
    assert read_edge_list(path) == [(0, 1), (1, 2)]


def test_read_edge_list_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 1\nnot numbers\n")
    with pytest.raises(DataFormatError, match=r"bad\.txt:2"):
        read_edge_list(path)
    path.write_text("0 1 2\n")
    with pytest.raises(DataFormatError, match=r"bad\.txt:1"):
        read_edge_list(path)
    path.write_text("0 1\n2, -3\n")
    with pytest.raises(DataFormatError, match=r"bad\.txt:2: negative"):
        read_edge_list(path)


SEPARATORS = (" ", "\t", ", ", ",")
SKIPPED_LINES = ("", "\n", "   \n", "# a comment\n", "#\n", "  # indented, 1 2\n")


def _not_an_int(token):
    try:
        int(token)
    except ValueError:
        return True
    return False


int_tokens = st.integers(-10 ** 12, 10 ** 12).map(str)
bad_tokens = st.text(alphabet="0123456789abx.+-_", min_size=1, max_size=5).filter(_not_an_int)


@given(st.lists(st.tuples(
    st.integers(0, 10 ** 12), st.integers(0, 10 ** 12),
    st.sampled_from(SEPARATORS), st.sampled_from(SKIPPED_LINES)), max_size=25))
@settings(max_examples=150)
def test_read_edge_list_round_trip(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("edges") / "edges.txt"
    path.write_text("".join(f"{skipped}{u}{sep}{v}\n" for u, v, sep, skipped in rows))
    assert read_edge_list(path) == [(u, v) for u, v, _, _ in rows]


@given(
    width=st.integers(1, 3),
    before=st.lists(st.sampled_from(SKIPPED_LINES + (None,)), max_size=6),
    tokens=st.lists(int_tokens | bad_tokens, min_size=1, max_size=4),
    seps=st.lists(st.sampled_from(SEPARATORS), min_size=3, max_size=3),
)
@settings(max_examples=200)
def test_malformed_line_reports_its_line(tmp_path_factory, width, before, tokens, seps):
    # None in `before` stands for a well-formed row
    assume(len(tokens) != width or any(_not_an_int(t) for t in tokens))
    good = " ".join(["7", "8", "9"][:width]) + "\n"
    head = "".join(good if line is None else line for line in before)
    bad = tokens[0] + "".join(sep + t for sep, t in zip(seps, tokens[1:]))
    path = tmp_path_factory.mktemp("rows") / "rows.txt"
    path.write_text(head + bad + "\n" + good)
    where = re.escape(f"{path}:{head.count(chr(10)) + 1}: ")
    with pytest.raises(DataFormatError, match=f"^{where}"):
        list(int_rows(path, width))
    if width == 2:
        with pytest.raises(DataFormatError, match=f"^{where}"):
            read_edge_list(path)


def test_int_rows_yields_line_numbers(tmp_path):
    path = tmp_path / "rows.txt"
    path.write_text("# header\n1, 2\n\n3\t4\n  5 ,6  \n")
    assert list(int_rows(path, 2)) == [(2, (1, 2)), (4, (3, 4)), (5, (5, 6))]


def test_derive_seed_stable_and_distinct():
    assert derive_seed(1, "graph", 0) == derive_seed(1, "graph", 0)
    seen = {derive_seed(1, "graph", i) for i in range(100)}
    assert len(seen) == 100
    # mixed part types hash by their string form, so these must differ
    assert derive_seed(1, 23) != derive_seed(1, 2, 3)
    assert all(0 <= s < 2 ** 63 for s in seen)
