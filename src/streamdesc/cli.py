"""Command-line interface.

Exit codes: 0 on success, 1 for usage problems, 2 for data problems
(unreadable or malformed inputs, graphs beyond the exact oracle).
"""

from __future__ import annotations

import argparse
import sys

from .datasets import Dataset, load_benchmark_dataset
from .descriptors import canberra, load_descriptors, save_descriptors, write_descriptors
from .errors import BudgetTooSmallError, DataFormatError, OracleSizeError
from .graph import build_graph, derive_seed, preprocess, read_edge_list
from .harness import (
    METHODS,
    BudgetSpec,
    compute_descriptors,
    cross_validate,
    error_vs_budget,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract here reserves
    # 2 for data problems, so route usage failures to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_input_options(parser, dataset_only: bool = False):
    if dataset_only:
        parser.add_argument(
            "--dataset", required=True,
            help="benchmark bundle directory (PREFIX_A.txt and friends)")
        return
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--input", help="edge-list file, one 'u v' or 'u,v' pair per line, '#' comments")
    group.add_argument(
        "--dataset", help="benchmark bundle directory (PREFIX_A.txt and friends)")


def _add_budget_options(parser):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--budget", type=float,
        help="edge budget as a fraction of each graph's edge count")
    group.add_argument(
        "--budget-abs", type=_positive_int, help="absolute edge budget")


def _add_output_options(parser):
    parser.add_argument("--output", help="destination file (default: stdout)")
    parser.add_argument(
        "--format", choices=("csv", "jsonl"), default="csv",
        help="serialization format (default: csv)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="streamdesc",
        description="Single-pass bounded-memory graph descriptors.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser(
        "descriptor", help="estimate descriptors from edge streams")
    _add_input_options(p)
    _add_budget_options(p)
    p.add_argument("--method", choices=tuple(METHODS), required=True)
    p.add_argument("--workers", type=_positive_int, default=1,
                   help="independent replicas averaged per graph (default: 1)")
    p.add_argument("--seed", type=int, default=0)
    _add_output_options(p)
    p.set_defaults(func=_cmd_descriptor)

    p = sub.add_parser("exact", help="exact descriptors from the oracle")
    _add_input_options(p)
    p.add_argument("--method", choices=tuple(METHODS), required=True)
    p.add_argument("--seed", type=int, default=0,
                   help="seed for dataset preprocessing shuffles")
    _add_output_options(p)
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser(
        "distance", help="pairwise Canberra distances between two files")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv",
                   help="format of the two descriptor files")
    p.add_argument("--output", help="destination CSV (default: stdout)")
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser(
        "classify", help="1-NN cross-validated accuracy on a labeled bundle")
    _add_input_options(p, dataset_only=True)
    _add_budget_options(p)
    p.add_argument("--method", choices=tuple(METHODS), required=True)
    p.add_argument("--workers", type=_positive_int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--folds", type=_positive_int, default=10)
    p.add_argument("--repeats", type=_positive_int, default=10)
    p.add_argument("--output", help="per-fold accuracy CSV (default: none)")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("experiment", help="run a named experiment")
    exp = p.add_subparsers(dest="experiment", required=True, metavar="NAME")
    e = exp.add_parser(
        "error-vs-budget",
        help="mean distance to the exact descriptor per budget fraction")
    _add_input_options(e)
    e.add_argument("--method", choices=tuple(METHODS), required=True)
    e.add_argument("--budgets", default="0.1,0.3,0.5",
                   help="comma-separated budget fractions (default: 0.1,0.3,0.5)")
    e.add_argument("--trials", type=_positive_int, default=5)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--output", help="destination CSV (default: stdout)")
    e.set_defaults(func=_cmd_error_vs_budget)

    return parser


def _load_input(args) -> Dataset:
    if getattr(args, "input", None):
        raw = read_edge_list(args.input)
        stream = preprocess(raw, seed=derive_seed(args.seed, "shuffle", 0))
        return Dataset(graphs=[stream], labels=[0], name=args.input)
    return load_benchmark_dataset(args.dataset, seed=args.seed)


def _budget_spec(args) -> BudgetSpec:
    if args.budget is not None:
        return BudgetSpec(fraction=args.budget)
    return BudgetSpec(edges=args.budget_abs)


def _emit_descriptors(descriptors, args):
    if args.output:
        save_descriptors(descriptors, args.output, args.format)
    else:
        write_descriptors(descriptors, sys.stdout, args.format)


def _emit_rows(header, rows, output):
    lines = [header] + [",".join(str(x) for x in row) for row in rows]
    text = "\n".join(lines) + "\n"
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_descriptor(args) -> int:
    ds = _load_input(args)
    descriptors, errors = compute_descriptors(
        ds, args.method, _budget_spec(args), workers=args.workers, seed=args.seed)
    for err in errors:
        if err:
            print(f"warning: {err}", file=sys.stderr)
    _emit_descriptors([d for d in descriptors if d is not None], args)
    return EXIT_OK


def _cmd_exact(args) -> int:
    ds = _load_input(args)
    out = []
    for idx, stream in enumerate(ds.graphs):
        d = METHODS[args.method].exact(build_graph(stream))
        d.graph_id = idx
        out.append(d)
    _emit_descriptors(out, args)
    return EXIT_OK


def _cmd_distance(args) -> int:
    side_a = load_descriptors(args.file_a, format=args.format)
    side_b = load_descriptors(args.file_b, format=args.format)
    methods = {d.method for d in side_a} | {d.method for d in side_b}
    if len(methods) > 1:
        raise DataFormatError(
            f"descriptor files use different methods: {sorted(methods)}")
    rows = []
    for da in side_a:
        for db in side_b:
            rows.append((da.graph_id, db.graph_id,
                         repr(canberra(da.values, db.values))))
    _emit_rows("graph_id_a,graph_id_b,distance", rows, args.output)
    return EXIT_OK


def _cmd_classify(args) -> int:
    ds = load_benchmark_dataset(args.dataset, seed=args.seed)
    descriptors, errors = compute_descriptors(
        ds, args.method, _budget_spec(args), workers=args.workers, seed=args.seed)
    for err in errors:
        if err:
            print(f"warning: {err}", file=sys.stderr)
    kept = [(d, label) for d, label in zip(descriptors, ds.labels) if d is not None]
    report = cross_validate(
        [d for d, _ in kept], [label for _, label in kept],
        folds=args.folds, repeats=args.repeats, seed=args.seed)
    print(f"mean_accuracy {report.mean_accuracy:.4f}")
    print(f"std_accuracy {report.std_accuracy:.4f}")
    print(f"folds {args.folds} repeats {args.repeats}")
    if args.output:
        rows = [(i, repr(acc)) for i, acc in enumerate(report.fold_accuracies)]
        _emit_rows("fold,accuracy", rows, args.output)
    return EXIT_OK


def _cmd_error_vs_budget(args) -> int:
    try:
        budgets = [float(part) for part in args.budgets.split(",") if part.strip()]
    except ValueError:
        print(f"error: --budgets must be comma-separated numbers, "
              f"got {args.budgets!r}", file=sys.stderr)
        return EXIT_USAGE
    if not budgets:
        print("error: --budgets is empty", file=sys.stderr)
        return EXIT_USAGE
    ds = _load_input(args)
    rows = error_vs_budget(ds, args.method, budgets, args.trials, seed=args.seed)
    _emit_rows("budget,mean_error", [(f, repr(e)) for f, e in rows], args.output)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (DataFormatError, OracleSizeError, FileNotFoundError, IsADirectoryError,
            PermissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (BudgetTooSmallError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
