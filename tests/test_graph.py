"""Stream preprocessing, graph construction, file input, seed derivation."""

import array
import random
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from streamdesc import (
    EdgeStream,
    build_graph,
    derive_seed,
    preprocess,
    read_edge_list,
)
from streamdesc.datasets import preferential_attachment_edges
from streamdesc.errors import DataFormatError
from streamdesc import graph
from streamdesc.graph import edge_tuples, int_columns, int_rows, shuffle, vertex_count

import reference


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


# Maps from small ids to raw labels that reach each branch of preprocess:
# labels below twice the endpoint count index themselves ("dense", and
# "gappy" with labels no edge holds, once there are enough edges), the
# others are compacted by np.unique first ("sparse" up to 2**63 - 1, and
# "mixed").  Small ids give self-loops and duplicates in both
# orientations.
LABEL_MAPS = {
    "dense": lambda x: x,
    "gappy": lambda x: 3 * x + 1,
    "sparse": lambda x: 2 ** 63 - 1 - 2 ** 58 * x,
    "mixed": lambda x: x if x % 2 else 2 ** 63 - 1 - x,
}


@given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), max_size=40),
       st.sampled_from(sorted(LABEL_MAPS)), st.integers(0, 3))
@example([], "dense", 0)  # empty
@example([(3, 3), (0, 0), (3, 3)], "sparse", 1)  # empty after cleaning
@example([(0, 1), (2, 1), (1, 0), (2, 2)], "dense", 2)  # dense, duplicate
@example([(0, 1), (1, 2), (2, 0)], "gappy", 3)  # dense with gaps, no duplicate
@example([(4, 1), (1, 2), (2, 4), (2, 1)], "sparse", 3)  # compacted, duplicate
@example([(1, 2), (2, 3), (4, 5)], "mixed", 0)  # compacted, no duplicate
@settings(max_examples=300)
def test_preprocess_matches_reference(ids, labels, seed):
    # labelling before the duplicate check must not change any label, and
    # shuffling positions must give the order shuffling the tuples gave
    label = LABEL_MAPS[labels]
    raw = [(label(a), label(b)) for a, b in ids]
    expected = reference.preprocess(raw, seed)
    ends = [x for a, b in raw if a != b for x in (a, b)]
    event("dense labels" if ends and max(ends) < 2 * len(ends) else "compacted labels")
    event("duplicates" if 2 * len(expected) < len(ends) else "no duplicates")
    as_array = np.array(raw, dtype=np.int64).reshape(len(raw), 2)
    for pairs in (raw, as_array):
        stream = preprocess(pairs, seed=seed)
        assert list(stream) == expected
        assert stream.edges == expected
        assert len(stream) == len(expected)
        assert all(type(x) is int for edge in stream.edges for x in edge)


# Each read of a stream's order, as a list of its edges.
ORDERED_READS = {
    "u then v": lambda s: [s.labels[s.u].tolist(), s.labels[s.v].tolist()],
    "v then u": lambda s: [s.labels[s.v].tolist(), s.labels[s.u].tolist()][::-1],
    "pairs": lambda s: s.pairs(0, len(s)),
    "edges": lambda s: s.edges,
    "iter": list,
}


@given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), max_size=40),
       st.sampled_from(sorted(LABEL_MAPS)), st.integers(0, 3),
       st.sampled_from(sorted(ORDERED_READS)), st.booleans())
@example([(0, 1), (1, 2), (2, 0), (2, 3)], "dense", 7, "u then v", True)
@settings(max_examples=300)
def test_ordered_reads_give_the_reference_order(ids, labels, seed, first, order_free_first):
    # the permutation is drawn on the first read of the order, whichever
    # it is, and reads of the edge set alone before it do not move it
    label = LABEL_MAPS[labels]
    raw = [(label(a), label(b)) for a, b in ids]
    expected = reference.preprocess(raw, seed)
    stream = preprocess(raw, seed=seed)
    if order_free_first:
        held = edge_tuples(stream.labels, *stream.columns())
        assert sorted(held) == sorted(expected)
        assert len(stream) == len(expected)
        assert build_graph(stream).m == len(expected)
        assert stream.n == len({x for edge in expected for x in edge})
    want = {name: read(EdgeStream(expected)) for name, read in ORDERED_READS.items()}
    assert ORDERED_READS[first](stream) == want[first]
    for name, read in ORDERED_READS.items():
        assert read(stream) == want[name], name
    assert stream.edges == expected
    u, v = stream.columns()
    assert u is stream.u and v is stream.v  # held in stream order once drawn


@given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), max_size=40),
       st.sampled_from(sorted(LABEL_MAPS)))
@example([], "dense")  # an empty list and an empty (0, 2) array
def test_edge_stream_keeps_pairs_as_given(ids, labels):
    # self-loops, duplicates, orientation and order stay; only the storage
    # changes
    label = LABEL_MAPS[labels]
    raw = [(label(a), label(b)) for a, b in ids]
    for pairs in (raw, np.array(raw, dtype=np.int64).reshape(len(raw), 2)):
        stream = EdgeStream(pairs)
        assert stream.edges == list(stream) == raw
        assert len(stream) == len(raw)
        assert stream.pairs(1, 4) == raw[1:4]
    assert EdgeStream(raw).n == max((x for edge in raw for x in edge), default=-1) + 1


def test_edge_stream_keeps_labels_outside_int64_indices():
    for raw in ([(-3, 5), (5, -3), (2 ** 63 - 1, -2 ** 63)], [(2 ** 64, 1), (1, 1)]):
        assert EdgeStream(raw).edges == raw


@pytest.mark.parametrize("pairs", [
    [(0, 1, 2)], [(0, 1, 2), (3, 4, 5)], [0, 1], [(0,)], [[]], np.zeros((3, 2, 1), int),
], ids=["triple", "two-triples", "flat", "single", "empty-row", "3-d"])
def test_edge_stream_refuses_what_is_not_pairs(pairs):
    with pytest.raises(ValueError, match="expected \\(u, v\\) pairs"):
        EdgeStream(pairs)


def test_preprocess_keeps_the_stream_as_columns():
    # the preprocessed stream is two int64 columns and one int per vertex,
    # not a tuple per edge (about 67 bytes); building it stays below 100
    # bytes per edge above the input, where a list of tuples took about 150
    raw = preferential_attachment_edges(5_000, 5, random.Random(1))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        stream = preprocess(raw, seed=1)
        kept, peak = (x - before for x in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    m, n = len(stream), stream.n
    assert (m, n) == (24_975, 5_000)
    assert kept <= 24 * m + 40 * n, kept / m
    assert peak <= 100 * m, peak / m


def test_preprocess_labels_share_one_int_per_vertex():
    # every occurrence of a vertex is one int object, also above the small
    # ints CPython caches, whether the labels are compacted (far above the
    # endpoint count) or index themselves (0..800)
    for raw in ([(5000, 20000 + i) for i in range(400)] + [(20000 + i, 9) for i in range(400)],
                [(800, i) for i in range(400)] + [(400 + i, i) for i in range(400)]):
        ids = {}
        for edge in preprocess(raw, seed=0).edges:
            for x in edge:
                ids.setdefault(x, set()).add(id(x))
        assert max(ids) > 256 and all(len(s) == 1 for s in ids.values())


def test_preprocess_memory_follows_the_edges_not_the_labels():
    # labels near 2**62 are compacted first, so no array spans them
    rng = np.random.default_rng(5)
    dense = rng.integers(0, 3000, size=(10 ** 4, 2))
    peaks = []
    for raw in (dense, dense + 2 ** 62, dense * 2 ** 50 + 2 ** 62):
        tracemalloc.start()
        try:
            preprocess(raw, seed=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 2 * peaks[0], peaks


def test_preprocess_rejects_negative_labels():
    for pairs in ([(0, 1), (2, -3), (-1, 4)], np.array([[0, 1], [2, -3]])):
        with pytest.raises(ValueError, match=re.escape("non-negative, got (2, -3)")):
            preprocess(pairs, seed=0)


def test_preprocess_rejects_labels_beyond_int64():
    for pairs, bad in (([(2 ** 63, 1)], "(9223372036854775808, 1)"),
                       ([(0, 1), (1, 2 ** 64), (-1, 0)], "(1, 18446744073709551616)"),
                       ([(0, 1), (-2 ** 63 - 1, 2)], "(-9223372036854775809, 2)")):
        with pytest.raises(ValueError, match=re.escape(f"[0, 2**63), got {bad}")):
            preprocess(pairs, seed=0)


@pytest.mark.parametrize("pairs, shown", [
    ([(0, 1), (0.5, 1.5)], "integers, got (0.5, 1.5)"),
    (np.array([[0.5, 1.7], [2.2, 3]]), "integers, got (0.5, 1.7)"),
    (np.array([[0, 1], [2 ** 63, 1]], dtype=np.uint64),
     "[0, 2**63), got (9223372036854775808, 1)"),
], ids=["float list", "float array", "uint64 array"])
def test_preprocess_names_a_label_numpy_would_truncate_or_wrap(pairs, shown):
    with pytest.raises(ValueError, match=re.escape(shown)):
        preprocess(pairs, seed=0)


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
    assert EdgeStream([(5, 1)]).n == 6  # every endpoint counts
    with pytest.raises(ValueError, match="non-negative"):
        EdgeStream([(-1, 1)]).n


def test_build_graph_basic():
    g = build_graph(EdgeStream([(0, 1), (1, 2)]))
    assert (g.n, g.m) == (3, 2)
    assert g.adj == [{1}, {0, 2}, {1}]
    assert [g.degree(v) for v in range(3)] == [1, 2, 1]


def test_build_graph_empty_with_hint():
    g = build_graph(EdgeStream([], n_hint=4))
    assert (g.n, g.m) == (4, 0)
    assert g.adj == [set(), set(), set(), set()]


def test_build_graph_k4_degrees():
    edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    g = build_graph(EdgeStream(edges))
    assert g.adj == [set(range(4)) - {v} for v in range(4)]
    assert g.m == 6


def test_build_graph_rejects_duplicates():
    with pytest.raises(ValueError):
        build_graph(EdgeStream([(0, 1), (1, 0)]))


def test_build_graph_rejects_small_hint():
    with pytest.raises(ValueError):
        build_graph(EdgeStream([(0, 5)], n_hint=3))


def test_build_graph_accepts_either_orientation():
    g = build_graph(EdgeStream([(3, 1), (0, 7)]))
    assert (g.n, g.m) == (8, 2)
    assert g.adj[1] == {3} and g.adj[7] == {0}


def test_build_graph_rejects_self_loops_and_negative_labels():
    with pytest.raises(ValueError, match="self-loop at vertex 2"):
        build_graph(EdgeStream([(0, 1), (2, 2)]))
    for edge in ((-1, 3), (3, -1)):
        for n_hint in (None, 4):
            with pytest.raises(ValueError, match="non-negative"):
                build_graph(EdgeStream([edge], n_hint=n_hint))


def test_vertex_count_rule():
    assert vertex_count(0, -1, None) == 0
    assert vertex_count(0, 4, None) == 5
    assert vertex_count(0, 4, 9) == 9
    with pytest.raises(ValueError, match="n_hint=4 is below max vertex label 4"):
        vertex_count(0, 4, 4)
    with pytest.raises(ValueError, match="non-negative, got -2"):
        vertex_count(-2, 4, 9)


def test_read_edge_list(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("# a comment\n0 1\n\n1 2\n")
    pairs = read_edge_list(path)
    assert pairs.dtype == np.int64
    assert pairs.tolist() == [[0, 1], [1, 2]]


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
    # the first fault in the file is reported, whichever its kind
    for text in ("# c\n\n0 1\n\n5 -0\n2\t-3\n", "0 1\n\n\n\n\n2, -3\nx y\n"):
        path.write_text(text)
        with pytest.raises(DataFormatError,
                           match=re.escape(f"{path}:6: negative vertex label in (2, -3)")):
            read_edge_list(path)
    path.write_text("0 1\nx y\n2 -3\n")
    with pytest.raises(DataFormatError, match=r"bad\.txt:2: non-integer"):
        read_edge_list(path)


def test_labels_beyond_int64_are_refused(tmp_path):
    path = tmp_path / "big.txt"
    path.write_text(f"0 1\n{2 ** 63 - 1} 0\n")
    assert read_edge_list(path).tolist() == [[0, 1], [2 ** 63 - 1, 0]]
    for line in (f"# c\n{2 ** 63} 0\n", f"\n0, {10 ** 30}\n", f"5 1\n0 {-2 ** 63 - 1}\n"):
        path.write_text(line)
        with pytest.raises(DataFormatError, match=re.escape(f"{path}:2: integer outside")):
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
    assert read_edge_list(path).tolist() == [[u, v] for u, v, _, _ in rows]


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


def test_int_columns_reads_clean_file_without_int_rows(tmp_path, monkeypatch):
    path = tmp_path / "rows.txt"
    path.write_text("1, 2\n\n3\t4\r\n  5 ,6  \n")

    def refuse(*_):
        raise AssertionError("int_rows called on a clean file")

    monkeypatch.setattr("streamdesc.graph.int_rows", refuse)
    assert int_columns(path, 2).tolist() == [[1, 2], [3, 4], [5, 6]]


def test_int_columns_reads_in_chunks(tmp_path, monkeypatch):
    # a chunk ends anywhere and runs on to its line end, so every chunk
    # size gives the array one chunk gives, on the loadtxt path throughout
    rows = preferential_attachment_edges(30, 2, random.Random(5))
    forms = {"plain": ("{} {}\n", ""), "comma": ("{},{}\n", ""),
             "crlf": ("{} {}\r\n", ""), "bom": ("{} {}\n", "\ufeff")}
    for name, (line, start) in forms.items():
        path = tmp_path / f"{name}.txt"
        path.write_text(start + "".join(line.format(u, v) for u, v in rows),
                        encoding="utf-8", newline="")
        want = int_columns(path, 2)
        assert want.tolist() == [list(row) for row in rows], name
        with monkeypatch.context() as patch:
            patch.setattr(graph, "int_rows", None)  # the fallback would fail
            for chunk in (1, 2, 3, 7, 64):
                patch.setattr(graph, "READ_CHUNK_BYTES", chunk)
                got = int_columns(path, 2)
                assert got.dtype == np.int64 and np.array_equal(got, want), (name, chunk)


# the sizes around which the bit length of a swap's bound changes
SHUFFLE_SIZES = sorted({0, 1, 2} | {2 ** k + d for k in range(1, 18) for d in (-1, 0, 1)})


def test_shuffle_pins_the_reference_order():
    # graph.shuffle defines every stream's order on any interpreter: the
    # permutation and the generator state of reference.shuffle's plain
    # Fisher-Yates loop over reference.randbelow
    for m in SHUFFLE_SIZES:
        rng, want_rng = random.Random(m), random.Random(m)
        got = array.array("q", range(m))
        shuffle(got, rng)
        want = list(range(m))
        reference.shuffle(want, want_rng)
        assert got.tolist() == want, m
        assert rng.getstate() == want_rng.getstate(), m


@pytest.mark.skipif(
    sys.version_info[:2] > (3, 13),
    reason="random.shuffle matches graph.shuffle on CPython 3.10-3.13; "
           "graph.shuffle, not random.shuffle, defines the stream's order")
def test_shuffle_is_cpython_random_shuffle():
    # where the stream's order was random.shuffle's, it still is
    for m in SHUFFLE_SIZES:
        rng, want_rng = random.Random(m), random.Random(m)
        got = array.array("q", range(m))
        shuffle(got, rng)
        want = list(range(m))
        want_rng.shuffle(want)
        assert got.tolist() == want, m
        assert rng.getstate() == want_rng.getstate(), m


def test_int_columns_empty_and_comment_only_files(tmp_path):
    path = tmp_path / "rows.txt"
    for text in ("", "\n\n", "# only\n#\n\n  # a comment, 1 2\n"):
        path.write_text(text)
        for width in (1, 2, 3):
            rows = int_columns(path, width)
            assert rows.shape == (0, width) and rows.dtype == np.int64


COLUMN_SEPARATORS = (" ", "\t", ",", ", ", "\x0b", "\x0c", "\xa0", "\x1c", "\x85")
LINE_ENDS = ("\n", "\r\n", "\r")
odd_tokens = st.sampled_from(
    ("+5", "-0", "007", "1_000", "1.0", "0x1", "\u0663", str(2 ** 63 - 1), str(2 ** 63),
     str(-2 ** 63), "#", "#7"))


def column_lines(width):
    """One line of an integer file; most data lines have `width` fields."""
    token = st.integers(0, 10 ** 6).map(str) | st.integers(-3, 3).map(str) | odd_tokens
    tokens = st.sampled_from((width,) * 6 + (1, 2, 3, 4)).flatmap(
        lambda k: st.lists(token, min_size=k, max_size=k))
    seps = st.sampled_from(COLUMN_SEPARATORS)
    edge = st.sampled_from(("", "", "") + COLUMN_SEPARATORS)
    data = st.builds(
        lambda ts, sep, lead, trail: lead + sep.join(ts) + trail, tokens, seps, edge, edge)
    return data | st.sampled_from(("", " ", "\t", "", "# comment", " #3, 4"))


@given(st.data())
@settings(max_examples=400)
def test_int_columns_matches_int_rows(tmp_path_factory, data):
    width = data.draw(st.integers(1, 3), label="width")
    lines = data.draw(st.lists(
        st.tuples(column_lines(width), st.sampled_from(LINE_ENDS)), max_size=8), label="lines")
    last_end = data.draw(st.booleans(), label="last_end")
    text = "".join(line + end for line, end in lines)
    if lines and not last_end:
        text = text[: -len(lines[-1][1])]
    path = tmp_path_factory.mktemp("cols") / "rows.txt"
    path.write_bytes(text.encode("utf-8"))
    try:
        expected = [list(row) for _, row in int_rows(path, width)]
    except DataFormatError as err:
        with pytest.raises(DataFormatError) as got:
            int_columns(path, width)
        assert str(got.value) == str(err)
    else:
        rows = int_columns(path, width)
        assert rows.dtype == np.int64 and rows.shape == (len(expected), width)
        assert rows.tolist() == expected


def test_derive_seed_stable_and_distinct():
    assert derive_seed(1, "graph", 0) == derive_seed(1, "graph", 0)
    seen = {derive_seed(1, "graph", i) for i in range(100)}
    assert len(seen) == 100
    # mixed part types hash by their string form, so these must differ
    assert derive_seed(1, 23) != derive_seed(1, 2, 3)
    assert all(0 <= s < 2 ** 63 for s in seen)
