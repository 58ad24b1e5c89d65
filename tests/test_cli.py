"""End-to-end command-line checks driven through main(argv)."""

import itertools
import random
import tempfile
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from streamdesc import Descriptor, load_descriptors, save_descriptors
from streamdesc.datasets import gnp_edges
from streamdesc.cli import main


def edge_file(tmp_path, name, edges):
    path = tmp_path / name
    path.write_text("".join(f"{u} {v}\n" for u, v in edges))
    return str(path)


def k4_file(tmp_path):
    pairs = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    return edge_file(tmp_path, "k4.txt", pairs)


def classify_bundle(tmp_path):
    """Three triangles (class 0) against three 3-leaf stars (class 1)."""
    edges = []
    indicator = []
    at = 1
    for _ in range(3):
        a, b, c = at, at + 1, at + 2
        edges += [(a, b), (b, c), (a, c)]
        indicator += [len(indicator) // 3 + 1] * 3
        at += 3
    gid = 4
    for _ in range(3):
        hub = at
        edges += [(hub, hub + 1), (hub, hub + 2), (hub, hub + 3)]
        indicator += [gid] * 4
        at += 4
        gid += 1
    root = tmp_path / "bundle"
    root.mkdir()
    (root / "TOY_A.txt").write_text(
        "".join(f"{u}, {v}\n" for u, v in edges))
    (root / "TOY_graph_indicator.txt").write_text(
        "".join(f"{g}\n" for g in indicator))
    (root / "TOY_graph_labels.txt").write_text("0\n0\n0\n1\n1\n1\n")
    return str(root)


# --------------------------------------------------------------- descriptor


def test_descriptor_to_file(tmp_path):
    out = tmp_path / "out.csv"
    code = main([
        "descriptor", "--input", k4_file(tmp_path), "--method", "gabe",
        "--budget", "1.0", "--output", str(out)])
    assert code == 0
    loaded = load_descriptors(out)
    assert len(loaded) == 1
    assert loaded[0].method == "gabe"
    assert loaded[0].m == 6
    assert loaded[0].values.shape == (17,)


def test_descriptor_to_stdout(tmp_path, capsys):
    code = main([
        "descriptor", "--input", k4_file(tmp_path), "--method", "maeve",
        "--budget-abs", "6", "--format", "csv"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("graph_id,method,b,seed,n,m,v0,")


SQUARE = (4, [(0, 1), (1, 2), (2, 3), (0, 3)])
K5 = (5, list(itertools.combinations(range(5), 2)))


def test_descriptor_budget_warning_keeps_exit_zero(tmp_path, capsys):
    # at fraction 0.5 the square gets b = 2, below gabe's minimum of 5,
    # and K5 gets b = 5: the square is skipped, K5 is estimated
    root = tmp_path / "bundle"
    write_bundle(root, [SQUARE, K5])
    code = main([
        "descriptor", "--dataset", str(root), "--method", "gabe",
        "--budget", "0.5"])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.err == (
        "warning: graph 0: budget fraction 0.5 gives b = 2; "
        "need at least 5 for gabe\n")
    header, row = captured.out.splitlines()
    assert header.startswith("graph_id,method,b,seed,n,m")
    graph_id, method, b, _, n, m = row.split(",")[:6]
    assert (graph_id, method, b, n, m) == ("1", "gabe", "5", "5", "10")


@pytest.mark.parametrize("command", ["descriptor", "classify"])
def test_budget_abs_below_minimum_exits_one(tmp_path, capsys, command):
    # every graph would be skipped, so the run is refused before any is read
    out = tmp_path / "out.csv"
    code = main([
        command, "--dataset", classify_bundle(tmp_path), "--method", "gabe",
        "--budget-abs", "3", "--output", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "error: budget 3 cannot detect 6-edge patterns; need at least 5\n")
    assert captured.out == ""
    assert not out.exists()


def test_descriptor_budget_flags_are_exclusive(tmp_path, capsys):
    path = k4_file(tmp_path)
    base = ["descriptor", "--input", path, "--method", "gabe"]
    assert main(base + ["--budget", "0.5", "--budget-abs", "5"]) == 1
    assert main(base) == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["descriptor", "--method", "gabe", "--budget-abs", "x"],
    ["descriptor", "--method", "gabe", "--budget", "0.5", "--workers", "1.5"],
    ["classify", "--method", "gabe", "--budget", "0.5", "--folds", "1.5"],
    ["classify", "--method", "gabe", "--budget", "0.5", "--repeats", "1.5"],
    ["experiment", "error-vs-budget", "--method", "gabe", "--trials", "1.5"],
], ids=["budget-abs", "workers", "folds", "repeats", "trials"])
def test_non_integer_count_exits_one(capsys, argv):
    # parsing fails before the input is read
    source = ["--dataset" if argv[0] == "classify" else "--input", "unread"]
    assert main(argv + source) == 1
    err = capsys.readouterr().err
    assert err.endswith(f": must be an integer, got '{argv[-1]}'\n")
    assert "_positive_int" not in err


def test_descriptor_reads_comma_separated_edges(tmp_path, capsys):
    pairs = [(u, v) for u in range(6) for v in range(u + 1, 6) if (u + v) % 3]
    plain = edge_file(tmp_path, "plain.txt", pairs)
    commas = tmp_path / "commas.txt"
    commas.write_text("".join(
        f"{u},{v}\n" if i % 2 else f"{u}, {v}\n" for i, (u, v) in enumerate(pairs)))
    outputs = []
    for path in (plain, str(commas)):
        code = main([
            "descriptor", "--input", path, "--method", "gabe",
            "--budget", "1.0", "--seed", "3"])
        assert code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("value", ["inf", "nan", "1e308"])
def test_non_finite_budget_exits_one(tmp_path, capsys, value):
    # 1e308 is finite, but 1e308 * m is not
    path = k4_file(tmp_path)
    commands = [
        ["descriptor", "--input", path, "--method", "gabe", "--budget", value],
        ["experiment", "error-vs-budget", "--input", path, "--method", "maeve",
         "--budgets", f"0.5,{value}"],
    ]
    for argv in commands:
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err


def test_descriptor_missing_file(tmp_path, capsys):
    code = main([
        "descriptor", "--input", str(tmp_path / "nope.txt"),
        "--method", "gabe", "--budget", "0.5"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_descriptor_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2\nfoo bar\n")
    code = main([
        "descriptor", "--input", str(bad), "--method", "gabe",
        "--budget", "0.5"])
    assert code == 2
    assert "bad.txt:2" in capsys.readouterr().err
    bad.write_text(f"1 2\n{2 ** 63} 0\n")
    assert main(["descriptor", "--input", str(bad), "--method", "gabe", "--budget", "0.5"]) == 2
    assert "bad.txt:2: integer outside the 64-bit range" in capsys.readouterr().err


def test_descriptor_same_for_either_parser_path(tmp_path, capsys):
    # a clean file takes the numpy path; comments, CRLF and commas the
    # int_rows fallback
    edges = [(u, v) for u in range(8) for v in range(u + 1, 8) if (u * v) % 3]
    plain = tmp_path / "plain.txt"
    plain.write_text("".join(f"{u} {v}\n" for u, v in edges))
    other = tmp_path / "other.txt"
    other.write_bytes(("# header\r\n" + "".join(f"{u},{v}\r\n" for u, v in edges)).encode())
    outputs = []
    for path in (plain, other):
        assert main(["descriptor", "--method", "maeve", "--budget-abs", "2",
                     "--input", str(path)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] and outputs[0].count("\n") == 2


# -------------------------------------------------------------------- exact


def test_exact_descriptor_stdout(tmp_path, capsys):
    tri = edge_file(tmp_path, "tri.txt", [(0, 1), (1, 2), (0, 2)])
    code = main(["exact", "--input", tri, "--method", "maeve"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("graph_id,method,b,seed,n,m,v0,")
    assert lines[0].rstrip().endswith("v19")
    assert len(lines) == 2
    row = lines[1].split(",")
    assert row[6] == "2.0"  # mean degree of a triangle


def test_exact_takes_no_seed(tmp_path, capsys):
    # a seed would only reorder the stream, which the oracles ignore
    tri = edge_file(tmp_path, "tri.txt", [(0, 1), (1, 2), (0, 2)])
    assert main(["exact", "--input", tri, "--method", "gabe", "--seed", "1"]) == 1
    assert "--seed" in capsys.readouterr().err


def test_exact_gabe_past_the_enumeration_cap(tmp_path, capsys):
    star = edge_file(tmp_path, "star.txt", [(0, i) for i in range(1, 62)])
    code = main(["exact", "--input", star, "--method", "gabe"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    row = lines[1].split(",")
    assert row[4:6] == ["62", "61"]
    # every 4-subset holding the hub is a claw
    assert float(row[6 + 11]) == comb(61, 3) / comb(62, 4)


def test_error_vs_budget_gabe_past_the_enumeration_cap(tmp_path, capsys):
    n = 61
    edges = gnp_edges(n, 0.1, random.Random(5))
    root = tmp_path / "bundle"
    root.mkdir()
    (root / "BIG_A.txt").write_text("".join(f"{u + 1}, {v + 1}\n" for u, v in edges))
    (root / "BIG_graph_indicator.txt").write_text("1\n" * n)
    (root / "BIG_graph_labels.txt").write_text("0\n")
    code = main([
        "experiment", "error-vs-budget", "--dataset", str(root), "--method", "gabe",
        "--budgets", "0.5,1.0", "--trials", "2"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[2] == "1.0,0.0"  # full budget is exact, bit for bit


# ----------------------------------------------------------------- distance


def write_descriptor_file(path, graph_ids, method="gabe", offset=0.0):
    dim = 17 if method == "gabe" else 20
    descs = [
        Descriptor(
            graph_id=g, method=method, b=5, seed=0, n=4, m=3,
            values=np.full(dim, 1.0 + offset + g))
        for g in graph_ids]
    save_descriptors(descs, path)
    return str(path)


def test_distance_cross_product(tmp_path, capsys):
    a = write_descriptor_file(tmp_path / "a.csv", [0, 1])
    b = write_descriptor_file(tmp_path / "b.csv", [0, 1, 2])
    code = main(["distance", a, b])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "graph_id_a,graph_id_b,distance"
    assert len(lines) == 1 + 2 * 3
    first = lines[1].split(",")
    assert first[:2] == ["0", "0"]
    assert float(first[2]) == 0.0  # identical vectors
    assert all(float(line.split(",")[2]) >= 0 for line in lines[1:])


def test_distance_rejects_mixed_methods(tmp_path, capsys):
    a = write_descriptor_file(tmp_path / "a.csv", [0])
    b = write_descriptor_file(tmp_path / "b.csv", [0], method="maeve")
    code = main(["distance", a, b])
    assert code == 2
    assert "different methods" in capsys.readouterr().err


def test_distance_rejects_non_object_jsonl(tmp_path, capsys):
    good = tmp_path / "good.jsonl"
    save_descriptors(
        [Descriptor(graph_id=0, method="gabe", b=5, seed=0, n=4, m=3,
                    values=np.ones(17))], good, format="jsonl")
    bad = tmp_path / "bad.jsonl"
    bad.write_text("[1, 2]\n")
    assert main(["distance", str(good), str(bad), "--format", "jsonl"]) == 2
    err = capsys.readouterr().err
    assert "bad.jsonl:1" in err
    assert "Traceback" not in err


def test_distance_rejects_a_non_finite_value(tmp_path, capsys):
    a = write_descriptor_file(tmp_path / "a.csv", [0])
    header, row = (tmp_path / "a.csv").read_text().splitlines()
    fields = row.split(",")
    fields[6] = "nan"
    (tmp_path / "a.csv").write_text(f"{header}\n{','.join(fields)}\n")
    assert main(["distance", a, a]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "a.csv:2: v0 is nan" in captured.err
    assert "Traceback" not in captured.err


def test_distance_missing_file(tmp_path, capsys):
    a = write_descriptor_file(tmp_path / "a.csv", [0])
    assert main(["distance", a, str(tmp_path / "nope.csv")]) == 2
    capsys.readouterr()


# ------------------------------------------------------- non-UTF-8 input


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("lines_before", [1, 3000], ids=["short", "past-first-chunk"])
def test_edge_list_not_utf8_exits_two_naming_the_line(tmp_path, capsys, end, lines_before):
    # the text reader decodes in chunks of a few KB; the line is counted
    # from the start of the file, with each line end as text mode reads it
    path = tmp_path / "latin.txt"
    path.write_bytes(f"0 1{end}".encode() * lines_before + b"\xff\xfe 2" + end.encode())
    assert main(["exact", "--method", "gabe", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"latin.txt:{lines_before + 1}: not UTF-8 text" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name, line", [("TOY_A.txt", 4), ("TOY_graph_indicator.txt", 2)])
def test_bundle_file_not_utf8_exits_two_naming_the_line(tmp_path, capsys, name, line):
    bundle = Path(classify_bundle(tmp_path))
    path = bundle / name
    lines = path.read_bytes().splitlines(keepends=True)
    lines[line - 1] = b"\xff" + lines[line - 1]
    path.write_bytes(b"".join(lines))
    assert main(["exact", "--method", "maeve", "--dataset", str(bundle)]) == 2
    err = capsys.readouterr().err
    assert f"{name}:{line}: not UTF-8 text" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("format", ["csv", "jsonl"])
def test_distance_file_not_utf8_exits_two_naming_the_line(tmp_path, capsys, format):
    path = tmp_path / f"a.{format}"
    save_descriptors(
        [Descriptor(graph_id=g, method="gabe", b=5, seed=0, n=4, m=3,
                    values=np.ones(17)) for g in range(3)], path, format=format)
    text = path.read_bytes().replace(b'gabe', b'g\xe9be')
    path.write_bytes(text)
    assert main(["distance", str(path), str(path), "--format", format]) == 2
    err = capsys.readouterr().err
    assert f"a.{format}:{2 if format == 'csv' else 1}: not UTF-8 text" in err
    assert "Traceback" not in err


# ----------------------------------------------------------------- classify


def test_classify_bundle(tmp_path, capsys):
    bundle = classify_bundle(tmp_path)
    folds_csv = tmp_path / "folds.csv"
    # seed 3 avoids the one-class folds an unstratified 2-way split of six
    # graphs can produce; with both classes in every training half, the
    # exact-budget descriptors separate the two shapes perfectly
    code = main([
        "classify", "--dataset", bundle, "--method", "maeve",
        "--budget-abs", "3", "--folds", "2", "--repeats", "2",
        "--seed", "3", "--output", str(folds_csv)])
    assert code == 0
    out = capsys.readouterr().out
    assert "mean_accuracy 1.0000" in out
    assert "std_accuracy 0.0000" in out
    assert "folds 2 repeats 2" in out
    lines = folds_csv.read_text().strip().splitlines()
    assert lines[0] == "fold,accuracy"
    assert len(lines) == 1 + 2 * 2


@pytest.mark.parametrize("command", [
    ["descriptor", "--budget", "0.5"],
    ["classify", "--budget", "0.5", "--folds", "2"],
    ["experiment", "error-vs-budget", "--budgets", "0.5"],
], ids=["descriptor", "classify", "error-vs-budget"])
def test_budget_fraction_skipping_every_graph_exits_one(tmp_path, capsys, command):
    # a triangle and a 2-path: at fraction 0.5 they get b = 2 and b = 1,
    # both below gabe's minimum of 5
    root = tmp_path / "bundle"
    write_bundle(root, [(3, [(0, 1), (1, 2), (0, 2)]), (3, [(0, 1), (1, 2)])])
    (root / "DEG_graph_labels.txt").write_text("0\n1\n")
    code = main([*command, "--dataset", str(root), "--method", "gabe"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: budget fraction 0.5 gives every graph a budget below the "
        "minimum of 5 for gabe\n")


def test_classify_requires_dataset(tmp_path, capsys):
    code = main([
        "classify", "--input", "whatever.txt", "--method", "maeve",
        "--budget-abs", "3"])
    assert code == 1
    capsys.readouterr()


# -------------------------------------------------------------- experiments


def test_error_vs_budget_experiment(tmp_path, capsys):
    tri = edge_file(tmp_path, "tri.txt", [(0, 1), (1, 2), (0, 2)])
    code = main([
        "experiment", "error-vs-budget", "--input", tri, "--method", "maeve",
        "--budgets", "0.5,1.0", "--trials", "2"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "budget,mean_error"
    assert len(lines) == 3
    assert lines[1].startswith("0.5,")
    assert lines[2].startswith("1.0,")
    assert float(lines[2].split(",")[1]) == 0.0  # full budget is exact


def test_error_vs_budget_warns_of_each_skipped_graph(tmp_path, capsys):
    # an 8-edge graph gets b = 4 at fraction 0.5 and the square b = 2 and
    # b = 4 at 0.5 and 1.0, all below gabe's minimum of 5; K5 always runs
    eight = (6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 2), (3, 5)])
    root = tmp_path / "bundle"
    write_bundle(root, [eight, K5, SQUARE])
    code = main([
        "experiment", "error-vs-budget", "--dataset", str(root),
        "--method", "gabe", "--budgets", "0.5,1.0", "--trials", "2"])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "warning: graph 0: budget fraction 0.5 gives b = 4; need at least 5 for gabe",
        "warning: graph 2: budget fraction 0.5 gives b = 2; need at least 5 for gabe",
        "warning: graph 2: budget fraction 1.0 gives b = 4; need at least 5 for gabe",
    ]
    lines = captured.out.splitlines()
    assert lines[0] == "budget,mean_error"
    assert [line.split(",")[0] for line in lines[1:]] == ["0.5", "1.0"]
    assert np.isfinite([float(line.split(",")[1]) for line in lines[1:]]).all()
    assert float(lines[2].split(",")[1]) < 1e-12  # b = m is exact


def test_error_vs_budget_bad_budget_list(tmp_path, capsys):
    tri = edge_file(tmp_path, "tri.txt", [(0, 1), (1, 2), (0, 2)])
    base = ["experiment", "error-vs-budget", "--input", tri,
            "--method", "maeve"]
    assert main(base + ["--budgets", "abc"]) == 1
    assert "comma-separated" in capsys.readouterr().err
    assert main(base + ["--budgets", ","]) == 1
    assert "empty" in capsys.readouterr().err


@st.composite
def degenerate_bundles(draw):
    """(n, edges) per graph: n = 0 (an id no vertex names), edgeless
    graphs, n < 4, and vertices known only from the indicator file.  A
    bundle that lists no vertex at all is a data error, so one has some."""
    graphs = []
    for n in draw(st.lists(st.integers(0, 6), min_size=1, max_size=4).filter(any)):
        pairs = list(itertools.combinations(range(n), 2))
        edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        graphs.append((n, edges))
    return graphs


def write_bundle(root: Path, graphs) -> None:
    root.mkdir()
    a_lines, indicator = [], []
    for gid, (n, edges) in enumerate(graphs, start=1):
        offset = len(indicator) + 1
        a_lines += [f"{u + offset}, {v + offset}\n" for u, v in edges]
        indicator += [f"{gid}\n"] * n
    (root / "DEG_A.txt").write_text("".join(a_lines))
    (root / "DEG_graph_indicator.txt").write_text("".join(indicator))
    (root / "DEG_graph_labels.txt").write_text("0\n" * len(graphs))


@pytest.mark.parametrize("method", ["gabe", "maeve"])
@given(graphs=degenerate_bundles())
@example(graphs=[(3, []), (2, [(0, 1)]), (5, [(0, 1), (1, 2)]),
                 (4, list(itertools.combinations(range(4), 2)))])
@settings(max_examples=40)
def test_degenerate_bundles_estimate_equals_exact(method, graphs):
    # a budget that holds every graph's stream makes the estimate exact
    budget = max(5, *(len(edges) for _, edges in graphs))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_bundle(root / "bundle", graphs)
        est, ex = root / "est.csv", root / "exact.csv"
        assert main(["descriptor", "--dataset", str(root / "bundle"), "--method", method,
                     "--budget-abs", str(budget), "--output", str(est)]) == 0
        assert main(["exact", "--dataset", str(root / "bundle"), "--method", method,
                     "--output", str(ex)]) == 0
        got, want = ([line.split(",") for line in path.read_text().splitlines()[1:]]
                     for path in (est, ex))
    # CSV columns: graph_id, method, b, seed, n, m, values
    expected = [[str(i), str(n), str(len(edges))] for i, (n, edges) in enumerate(graphs)]
    assert [row[:1] + row[4:6] for row in got] == expected
    assert [row[:1] + row[4:6] for row in want] == expected
    if method == "maeve":
        assert [row[6:] for row in got] == [row[6:] for row in want]
    else:
        for a, b in zip(got, want):
            assert np.allclose(np.array(a[6:], float), np.array(b[6:], float),
                               rtol=0.0, atol=1e-12)


# ------------------------------------------------------------------ general


def test_module_entry_point(tmp_path):
    import os
    import subprocess
    import sys

    import streamdesc

    # the child imports the same package as this process, installed or
    # not, and runs outside the checkout, so the test tree is not on its
    # path and an import of test code from the package fails there
    path = [str(Path(streamdesc.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    tri = edge_file(tmp_path, "tri.txt", [(0, 1), (1, 2), (0, 2)])
    for method in ("gabe", "maeve"):
        for command in (["exact"], ["descriptor", "--budget-abs", "5"]):
            proc = subprocess.run(
                [sys.executable, "-m", "streamdesc", *command, "--input", tri,
                 "--method", method],
                capture_output=True, text=True, env=env, cwd=tmp_path)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.startswith("graph_id,method,")


def test_help_exits_zero(capsys):
    assert main(["-h"]) == 0
    assert "COMMAND" in capsys.readouterr().out


def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    capsys.readouterr()
