"""Command-line front end.

Subcommands: generate (random | projective | from-graph), solve, gap,
bench, export-sdp.  Reports are JSON with rationals as 'p/q' strings (never
floats); set and vertex ids in files and reports are 1-based.  Exit codes:
0 success, 2 input error (or, for bench, any row with an internal error),
3 resource cap exceeded.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .bench import (
    has_internal_error,
    parse_bench_config,
    render_csv,
    run_algorithm,
    run_bench,
)
from .exact import ORACLE_CAP
from .instance import (
    conflict_graph,
    gen_projective_plane,
    gen_random,
    instance_from_graph,
    parse_graph,
    parse_instance,
    serialize_instance,
)
from .relaxation import CLIQUE_CAP, export_theta3_sdp, gap_report
from .util import CapExceededError, DEFAULT_WORK_LIMIT, format_fraction, parse_fraction


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        Path(out).write_text(text)


def _read(path: str) -> str:
    return Path(path).read_text()


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.kind == "random":
        weight_range = None
        if args.weights is not None:
            parts = args.weights.split(":")
            if len(parts) != 2:
                raise ValueError(f"bad --weights {args.weights!r} (use lo:hi)")
            weight_range = (parse_fraction(parts[0]), parse_fraction(parts[1]))
        instance = gen_random(args.universe, args.n, args.k, args.seed, weight_range)
    elif args.kind == "projective":
        instance = gen_projective_plane(args.q)
    else:  # from-graph
        vertex_count, edges, weights = parse_graph(_read(args.graph))
        instance = instance_from_graph(vertex_count, edges, weights)
    Path(args.out).write_text(serialize_instance(instance))
    print(
        f"wrote {args.out}: universe={instance.universe_size} "
        f"sets={instance.n} k={instance.k}"
    )
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    instance = parse_instance(_read(args.instance))
    run = run_algorithm(
        instance, args.algorithm, work_limit=args.work_limit, oracle_cap=args.oracle_cap
    )
    report = {
        "algorithm": run.token,
        "value": format_fraction(run.value),
        "members": [m + 1 for m in run.members],
        "iterations": run.iterations,
        "work": run.work,
    }
    _emit(json.dumps(report, indent=2), args.out)
    return 0


def _cmd_gap(args: argparse.Namespace) -> int:
    instance = parse_instance(_read(args.instance))
    rep = gap_report(
        instance, args.variant, oracle_cap=args.oracle_cap, clique_cap=args.clique_cap
    )
    report = {
        "variant": rep.variant,
        "lp_value": format_fraction(rep.lp_value),
        "ilp_value": format_fraction(rep.ilp_value),
        "gap": format_fraction(rep.gap),
    }
    _emit(json.dumps(report, indent=2), args.out)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    config = parse_bench_config(_read(args.config))
    rows = run_bench(config)
    _emit(render_csv(rows), args.out)
    if has_internal_error(rows):
        return 2
    if rows and not any(row.get("status") == "ok" for row in rows):
        if any(row.get("status") == "cap_exceeded" for row in rows):
            return 3
        return 2
    return 0


def _cmd_export_sdp(args: argparse.Namespace) -> int:
    instance = parse_instance(_read(args.instance))
    graph = conflict_graph(instance)
    text = export_theta3_sdp(graph)
    Path(args.out).write_text(text)
    constraints = sum(1 for _ in graph.edges()) + 1
    print(f"wrote {args.out}: block size {graph.vertex_count}, {constraints} constraints")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ksetpack",
        description="k-set packing: local search, exact oracles, LP gaps, SDP export",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write an instance file")
    genkind = gen.add_subparsers(dest="kind", required=True)
    g_random = genkind.add_parser("random", help="uniform random k-subsets")
    g_random.add_argument("--universe", type=int, required=True)
    g_random.add_argument("--n", type=int, required=True, help="number of sets")
    g_random.add_argument("--k", type=int, required=True)
    g_random.add_argument("--seed", type=int, required=True)
    g_random.add_argument("--weights", help="rational range lo:hi")
    g_random.add_argument("--out", required=True)
    g_random.set_defaults(func=_cmd_generate)
    g_proj = genkind.add_parser("projective", help="projective plane of prime order")
    g_proj.add_argument("--q", type=int, required=True)
    g_proj.add_argument("--out", required=True)
    g_proj.set_defaults(func=_cmd_generate)
    g_graph = genkind.add_parser(
        "from-graph", help="encode a weighted graph (vertices become sets)"
    )
    g_graph.add_argument("--graph", required=True, help="graph file path")
    g_graph.add_argument("--out", required=True)
    g_graph.set_defaults(func=_cmd_generate)

    solve = sub.add_parser("solve", help="run one algorithm, print a JSON report")
    solve.add_argument("instance")
    solve.add_argument(
        "--algorithm",
        required=True,
        help="exact | greedy | local:<t> | loglocal:<eps> | wishful | "
        "squareimp | power:<alpha>:<t>",
    )
    solve.add_argument("--work-limit", type=int, default=DEFAULT_WORK_LIMIT)
    solve.add_argument("--oracle-cap", type=int, default=ORACLE_CAP)
    solve.add_argument("--out")
    solve.set_defaults(func=_cmd_solve)

    gap = sub.add_parser("gap", help="LP relaxation value vs exact optimum")
    gap.add_argument("instance")
    gap.add_argument(
        "--variant", choices=["standard", "intersecting"], default="standard"
    )
    gap.add_argument("--oracle-cap", type=int, default=ORACLE_CAP)
    gap.add_argument("--clique-cap", type=int, default=CLIQUE_CAP)
    gap.add_argument("--out")
    gap.set_defaults(func=_cmd_gap)

    bench = sub.add_parser("bench", help="run a config of families x algorithms")
    bench.add_argument("config")
    bench.add_argument("--out")
    bench.set_defaults(func=_cmd_bench)

    sdp = sub.add_parser("export-sdp", help="write the theta-3 SDP (SDPA sparse)")
    sdp.add_argument("instance")
    sdp.add_argument("--out", required=True)
    sdp.set_defaults(func=_cmd_export_sdp)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
