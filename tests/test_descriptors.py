"""Canberra distance and descriptor persistence."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamdesc import (
    Descriptor,
    canberra,
    canberra_matrix,
    load_descriptors,
    save_descriptors,
)
from streamdesc.errors import DataFormatError

finite = st.floats(min_value=-1e6, max_value=1e6)


def make_descriptor(graph_id, method="gabe", scale=1.0, seed=0):
    dim = 17 if method == "gabe" else 20
    rng = np.random.default_rng(seed + graph_id)
    return Descriptor(
        graph_id=graph_id, method=method, b=10 + graph_id, seed=seed,
        n=5, m=8, values=rng.normal(scale=scale, size=dim))


def test_canberra_examples():
    assert canberra([1, 2, 3], [1, 2, 3]) == 0.0
    assert canberra([1, 0], [0, 1]) == 2.0
    assert canberra([3, 1], [1, 1]) == 0.5


def test_canberra_zero_coordinate_convention():
    assert canberra([0, 1], [0, 1]) == 0.0
    assert canberra([0, 2], [0, 0]) == 1.0


def test_canberra_handles_negative_values():
    # opposite signs saturate the per-coordinate term at 1
    assert canberra([-1], [1]) == 1.0
    assert canberra([-3, 1], [-1, 1]) == 0.5


def test_canberra_shape_mismatch():
    with pytest.raises(ValueError):
        canberra([1, 2], [1, 2, 3])


@given(
    st.lists(finite, min_size=1, max_size=20),
    st.lists(finite, min_size=1, max_size=20),
)
@settings(max_examples=150)
def test_canberra_metric_properties(x, y):
    size = min(len(x), len(y))
    x, y = x[:size], y[:size]
    d = canberra(x, y)
    assert 0 <= d <= size + 1e-12
    assert d == pytest.approx(canberra(y, x), abs=1e-12)
    if x == y:
        assert d == 0.0


@given(st.lists(st.tuples(finite, finite, finite), min_size=1, max_size=10))
@settings(max_examples=100)
def test_canberra_triangle_inequality(coords):
    x = [c[0] for c in coords]
    y = [c[1] for c in coords]
    z = [c[2] for c in coords]
    assert canberra(x, z) <= canberra(x, y) + canberra(y, z) + 1e-9


def test_canberra_matrix_matches_pairwise_loop():
    xs = np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 1.0]])
    ys = np.array([[1.0, 1.0, 1.0], [2.0, 0.0, 2.0], [0.0, 0.0, 0.0]])
    mat = canberra_matrix(xs, ys)
    assert mat.shape == (2, 3)
    for i in range(2):
        for j in range(3):
            assert mat[i, j] == pytest.approx(canberra(xs[i], ys[j]), abs=1e-12)


def test_descriptor_validation():
    make_descriptor(0, "gabe")
    make_descriptor(0, "maeve")
    with pytest.raises(ValueError):
        Descriptor(graph_id=0, method="gabe", b=5, seed=0, n=3, m=3,
                   values=np.zeros(16))
    with pytest.raises(ValueError):
        Descriptor(graph_id=0, method="other", b=5, seed=0, n=3, m=3,
                   values=np.zeros(17))


@pytest.mark.parametrize("format", ["csv", "jsonl"])
@pytest.mark.parametrize("method", ["gabe", "maeve"])
def test_round_trip_is_bit_exact(tmp_path, format, method):
    path = tmp_path / f"out.{format}"
    descriptors = [
        make_descriptor(i, method, scale=10.0 ** (i % 7 - 3), seed=42)
        for i in range(100)
    ]
    save_descriptors(descriptors, path, format=format)
    loaded = load_descriptors(path, format=format)
    assert len(loaded) == 100
    for orig, back in zip(descriptors, loaded):
        assert back.graph_id == orig.graph_id
        assert back.method == orig.method
        assert (back.b, back.seed, back.n, back.m) == (
            orig.b, orig.seed, orig.n, orig.m)
        assert np.array_equal(back.values, orig.values)


def test_rows_ordered_by_graph_id(tmp_path):
    path = tmp_path / "out.csv"
    descriptors = [make_descriptor(i) for i in (5, 1, 3)]
    save_descriptors(descriptors, path)
    loaded = load_descriptors(path)
    assert [d.graph_id for d in loaded] == [1, 3, 5]


def test_csv_header_layout(tmp_path):
    path = tmp_path / "out.csv"
    save_descriptors([make_descriptor(0, "maeve")], path)
    header = path.read_text().splitlines()[0]
    assert header.startswith("graph_id,method,b,seed,n,m,v0,")
    assert header.endswith(",v19")


def test_file_bytes_are_pinned(tmp_path):
    # field order, JSONL key order and repr floats, byte for byte
    d = Descriptor(graph_id=7, method="gabe", b=12, seed=3, n=9, m=20,
                   values=[0.1, 1 / 3, -2.5, 1e16, 1e-20, -0.0] + [0.0] * 11)
    save_descriptors([d], tmp_path / "out.csv")
    assert (tmp_path / "out.csv").read_bytes().split(b"\r\n")[1] == (
        b"7,gabe,12,3,9,20,0.1,0.3333333333333333,-2.5,1e+16,1e-20,-0.0"
        + b",0.0" * 11)
    save_descriptors([d], tmp_path / "out.jsonl", format="jsonl")
    assert (tmp_path / "out.jsonl").read_bytes() == (
        b'{"graph_id": 7, "method": "gabe", "b": 12, "seed": 3, "n": 9, "m": 20, '
        b'"values": [0.1, 0.3333333333333333, -2.5, 1e+16, 1e-20, -0.0'
        + b", 0.0" * 11 + b"]}\n")


def test_empty_collection_round_trip(tmp_path):
    path = tmp_path / "empty.csv"
    save_descriptors([], path)
    assert path.read_text().startswith("graph_id,method,b,seed,n,m")
    assert load_descriptors(path) == []
    jl = tmp_path / "empty.jsonl"
    save_descriptors([], jl, format="jsonl")
    assert load_descriptors(jl, format="jsonl") == []


def test_corrupt_csv_reports_line(tmp_path):
    path = tmp_path / "out.csv"
    save_descriptors([make_descriptor(i) for i in range(3)], path)
    lines = path.read_text().splitlines()
    lines[2] = lines[2].rsplit(",", 1)[0] + ",not-a-number"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError, match=r"out\.csv:3"):
        load_descriptors(path)


def test_short_csv_row_reports_line(tmp_path):
    path = tmp_path / "out.csv"
    save_descriptors([make_descriptor(i) for i in range(2)], path)
    lines = path.read_text().splitlines()
    lines[1] = ",".join(lines[1].split(",")[:10])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError, match=r"out\.csv:2"):
        load_descriptors(path)


def test_bad_csv_header_rejected(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("id,method\n")
    with pytest.raises(DataFormatError, match="header"):
        load_descriptors(path)
    empty = tmp_path / "none.csv"
    empty.write_text("")
    with pytest.raises(DataFormatError):
        load_descriptors(empty)


def test_mixed_methods_rejected_on_save(tmp_path):
    with pytest.raises(ValueError):
        save_descriptors(
            [make_descriptor(0, "gabe"), make_descriptor(1, "maeve")],
            tmp_path / "mixed.csv")


def test_refused_save_leaves_existing_file_unchanged(tmp_path):
    path = tmp_path / "keep.csv"
    save_descriptors([make_descriptor(0, "gabe")], path)
    before = path.read_bytes()
    for descriptors, format in (([make_descriptor(0, "gabe")], "xml"),
                                ([make_descriptor(0, "gabe"), make_descriptor(1, "maeve")], "csv")):
        with pytest.raises(ValueError):
            save_descriptors(descriptors, path, format=format)
        assert path.read_bytes() == before


def test_mixed_methods_rejected_on_load(tmp_path):
    # a stitched CSV trips the width check (17 vs 20 values); jsonl rows
    # carry their own widths, so it reaches the explicit method check
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    save_descriptors([make_descriptor(0, "gabe")], pa)
    save_descriptors([make_descriptor(1, "maeve")], pb)
    stitched = tmp_path / "mixed.csv"
    stitched.write_text(
        pa.read_text() + pb.read_text().splitlines()[1] + "\n")
    with pytest.raises(DataFormatError):
        load_descriptors(stitched)

    ja, jb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_descriptors([make_descriptor(0, "gabe")], ja, format="jsonl")
    save_descriptors([make_descriptor(1, "maeve")], jb, format="jsonl")
    mixed = tmp_path / "mixed.jsonl"
    mixed.write_text(ja.read_text() + jb.read_text())
    with pytest.raises(DataFormatError, match="mixed"):
        load_descriptors(mixed, format="jsonl")


def test_corrupt_jsonl_reports_line(tmp_path):
    path = tmp_path / "out.jsonl"
    save_descriptors([make_descriptor(i) for i in range(2)], path, format="jsonl")
    lines = path.read_text().splitlines()
    lines.append("{ not json }")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError, match=r"out\.jsonl:3"):
        load_descriptors(path, format="jsonl")


def test_jsonl_missing_key_reports_line(tmp_path):
    path = tmp_path / "out.jsonl"
    path.write_text('{"graph_id": 0, "method": "gabe"}\n')
    with pytest.raises(DataFormatError, match=r"out\.jsonl:1"):
        load_descriptors(path, format="jsonl")


@pytest.mark.parametrize("line", ["[1, 2]", '"gabe"', "5", "null"])
def test_jsonl_non_object_reports_line(tmp_path, line):
    path = tmp_path / "out.jsonl"
    save_descriptors([make_descriptor(0)], path, format="jsonl")
    path.write_text(path.read_text() + "\n" + line + "\n")
    with pytest.raises(DataFormatError, match=r"out\.jsonl:3: expected a JSON object"):
        load_descriptors(path, format="jsonl")


@pytest.mark.parametrize("values", ['"12345678901234567"', "17", '{"v0": 1}'],
                         ids=["digit-string", "number", "object"])
def test_jsonl_values_not_an_array_reports_line(tmp_path, values):
    # a string of 17 digits once loaded as the descriptor [1, 2, ..., 7]
    path = tmp_path / "out.jsonl"
    save_descriptors([make_descriptor(0)], path, format="jsonl")
    record = json.loads(path.read_text())
    line = json.dumps(record).replace(json.dumps(record["values"]), values)
    path.write_text(path.read_text() + line + "\n")
    with pytest.raises(DataFormatError, match=r"out\.jsonl:2: values must be a JSON array"):
        load_descriptors(path, format="jsonl")


def test_csv_and_jsonl_rows_report_the_same_errors(tmp_path):
    # one row loop builds both formats, from the JSON text of a number,
    # bool or null, so a bad field reads alike in each: a float or a bool
    # is no integer field, a bool or null no value
    columns = ["graph_id", "method", "b", "seed", "n", "m", *(f"v{i}" for i in range(17))]
    meta = (0, "gabe", 4, 0, 5, 8)
    cases = [("b", "x", "x"), ("b", "2.7", 2.7), ("seed", "true", True),
             ("graph_id", "1.0", 1.0), ("n", "false", False), ("m", "8.0", 8.0),
             ("v3", "true", True), ("v16", "null", None)]
    for column, cell, token in cases:
        row = [*map(str, meta), *["0.5"] * 17]
        row[columns.index(column)] = cell
        record = dict(zip(columns, meta), values=[0.5] * 17)
        if column.startswith("v"):
            record["values"][int(column[1:])] = token
        else:
            record[column] = token
        csv_path = tmp_path / "bad.csv"
        csv_path.write_text(",".join(columns) + "\n" + ",".join(row) + "\n")
        jsonl_path = tmp_path / "bad.jsonl"
        jsonl_path.write_text(json.dumps(record) + "\n")
        messages = []
        for path, format, lineno in ((csv_path, "csv", 2), (jsonl_path, "jsonl", 1)):
            with pytest.raises(DataFormatError, match=rf"bad\.{format}:{lineno}: ") as info:
                load_descriptors(path, format=format)
            messages.append(str(info.value).split(": ", 1)[1])
        assert messages[0] == messages[1], column


@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
def test_csv_non_finite_value_reports_line(tmp_path, text):
    path = tmp_path / "out.csv"
    save_descriptors([make_descriptor(i) for i in range(2)], path)
    lines = path.read_text().splitlines()
    row = lines[2].split(",")
    row[6 + 4] = text
    lines[2] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError, match=r"out\.csv:3: v4 is -?(nan|inf)"):
        load_descriptors(path)


@pytest.mark.parametrize("field, token", [
    ("values", "NaN"), ("values", "Infinity"), ("values", "-Infinity"), ("values", "1e400"),
    ("b", "Infinity"),
])
def test_jsonl_non_finite_value_reports_line(tmp_path, field, token):
    # json reads NaN, Infinity and out-of-range numbers as non-finite floats
    path = tmp_path / "out.jsonl"
    save_descriptors([make_descriptor(i) for i in range(2)], path, format="jsonl")
    lines = path.read_text().splitlines()
    record = json.loads(lines[1])
    record[field] = "TOKEN" if field == "b" else [0.5] * 16 + ["TOKEN"]
    lines[1] = json.dumps(record).replace('"TOKEN"', token)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError, match=r"out\.jsonl:2: "):
        load_descriptors(path, format="jsonl")


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(ValueError):
        save_descriptors([make_descriptor(0)], tmp_path / "x", format="xml")
    with pytest.raises(ValueError):
        load_descriptors(tmp_path / "x", format="xml")