"""ksetpack benchmark: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload swap-unit --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory, never from an installed copy.  The run builds the
workload's fixed operation list from the seed, sets up (import, instance
generation, file-format round trip, warm-up) several times and keeps the
median, then times whole passes over the list until the pass count nearest
to `--seconds` is reached.  The first pass checks every output against the
benchmark's own computations; later passes must reproduce it exactly.
Every time is scaled to the machine's reference speed by a calibration loop
timed beside it (`calibrate.py`); the wall times go to the raw output.

`--trace 0` reports the end-to-end metrics; `--trace 1` wraps the package's
public functions and reports per-layer figures per operation instead.  The
last line of standard output is one JSON object; the raw timings and the
trace table go to `perfbench/out/`.  Exit code 0 on a correct run, 1 when
an output check fails, 2 when the package source is missing.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import calibrate
import checks
from tracing import LAYERS, Tracer
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_ROUNDS = 7
# Calibration loops timed before each set-up step (import counts as one).
SETUP_LOOPS = 3
# Each operation is timed once per pass and scored by the median of its
# scaled times over the passes.
MIN_PASSES = 3
# The tail is the highest whole percentile up to TAIL_MAX with at least
# TAIL_BEYOND operations of the list beyond it.  Above p90 the tail of a
# list of random instances is set by its few hardest ones, which the seed
# picks.
TAIL_BEYOND = 10
TAIL_MAX = 90

# Per-layer figures of the traced run, each per timed operation (except
# `instance.parse_instance.s`, per set-up round).  kind: calls = span count,
# self = self seconds, count = observer count, setup = self seconds in set-up.
PER_LAYER = [
    ("instance.conflict_graph.calls", "count", "calls", "instance.conflict_graph"),
    ("instance.conflict_graph.s", "s", "self", "instance.conflict_graph"),
    ("instance.parse_instance.s", "s", "setup", "instance.parse_instance"),
    ("local_search.find_improving_set.calls", "count", "calls", "local_search.find_improving_set"),
    ("local_search.find_improving_set.s", "s", "self", "local_search.find_improving_set"),
    ("local_search.apply_improving_set.s", "s", "self", "local_search.apply_improving_set"),
    ("local_search.log_improvement_search.calls", "count", "calls", "local_search.log_improvement_search"),
    ("local_search.log_improvement_search.s", "s", "self", "local_search.log_improvement_search"),
    ("local_search.build_auxiliary_multigraph.s", "s", "self", "local_search.build_auxiliary_multigraph"),
    ("local_search.work_units", "count", "count", "local_search.work_units"),
    ("local_search.swaps", "count", "count", "local_search.swaps"),
    ("multigraph.induced_edge_count.calls", "count", "calls", "multigraph.induced_edge_count"),
    ("multigraph.induced_edge_count.s", "s", "self", "multigraph.induced_edge_count"),
    ("multigraph.find_dense_subgraph.calls", "count", "calls", "multigraph.find_dense_subgraph"),
    ("weighted.find_nice_claw.calls", "count", "calls", "weighted.find_nice_claw"),
    ("weighted.find_nice_claw.s", "s", "self", "weighted.find_nice_claw"),
    ("weighted.apply_claw.s", "s", "self", "weighted.apply_claw"),
    # the claw-free check is time in instance.max_independent_in_neighborhood,
    # whose only caller is weighted._assert_claw_free
    ("weighted.claw_free_check.s", "s", "self", "instance.max_independent_in_neighborhood"),
    ("weighted.wishful_thinking.s", "s", "self", "weighted.wishful_thinking"),
    ("weighted.square_imp.s", "s", "self", "weighted.square_imp"),
    ("weighted.power_local_search.s", "s", "self", "weighted.power_local_search"),
    ("weighted.work_units", "count", "count", "weighted.work_units"),
    ("weighted.swaps", "count", "count", "weighted.swaps"),
    ("exact.max_independent_set_exact.calls", "count", "calls", "exact.max_independent_set_exact"),
    ("exact.max_independent_set_exact.s", "s", "self", "exact.max_independent_set_exact"),
    ("relaxation.build_standard_lp.s", "s", "self", "relaxation.build_standard_lp"),
    ("relaxation.build_intersecting_family_lp.s", "s", "self", "relaxation.build_intersecting_family_lp"),
    ("relaxation.enumerate_maximal_cliques.s", "s", "self", "relaxation.enumerate_maximal_cliques"),
    ("relaxation.cliques", "count", "count", "relaxation.cliques"),
    ("lp.solve_lp.calls", "count", "calls", "lp.solve_lp"),
    ("lp.solve_lp.s", "s", "self", "lp.solve_lp"),
    ("lp.certify_optimal.s", "s", "self", "lp.certify_optimal"),
    ("lp.rows", "count", "count", "lp.rows"),
    ("bench.run_bench.self_s", "s", "self", "bench.run_bench"),
    ("bench.render_csv.s", "s", "self", "bench.render_csv"),
]


def _algo_run_counts(args, kwargs, run):
    token = args[1] if len(args) > 1 else kwargs["token"]
    if token.startswith(("exact", "greedy")):
        return ()
    layer = "local_search" if token.startswith(("local", "loglocal")) else "weighted"
    return ((f"{layer}.work_units", run.work), (f"{layer}.swaps", run.iterations))


def _lp_rows(args, kwargs, solution):
    lp = args[0] if args else kwargs["lp"]
    return (("lp.rows", len(lp.constraints) + sum(u is not None for u in lp.upper)),)


OBSERVERS = {
    "bench.run_algorithm": _algo_run_counts,
    "lp.solve_lp": _lp_rows,
    "relaxation.enumerate_maximal_cliques": lambda a, k, cliques: (
        ("relaxation.cliques", len(cliques)),
    ),
}


def load_package():
    """Import ksetpack from this checkout's src/, or raise ImportError."""
    if not (SRC / "ksetpack" / "__init__.py").is_file():
        raise ImportError(f"no package source at {SRC}")
    sys.path.insert(0, str(SRC))
    import ksetpack
    import ksetpack.bench  # noqa: F401  (not imported by the package itself)

    if Path(ksetpack.__file__).resolve().parent != SRC / "ksetpack":
        raise ImportError(f"ksetpack came from {ksetpack.__file__}, not {SRC}")
    return ksetpack


def measure(ops, seconds: float, min_passes: int, failures_of: tuple):
    """Whole passes over `ops`, each operation preceded by one calibration
    loop.  Returns (walls, loops, attempted, failures, mismatches): `walls`
    holds one wall time per attempt in order (None when it failed), `loops`
    the loop time taken just before it.  Stops at the pass count nearest to
    `seconds` of timed operations, once `min_passes` passes are made."""
    walls: list[float | None] = []
    loops: list[float] = []
    failures: list[str] = []
    mismatches: list[str] = []
    verified: dict[int, object] = {}
    passes = 0
    elapsed = 0.0
    while True:
        pass_s = 0.0
        for i, op in enumerate(ops):
            loops.append(calibrate.loop_s())
            start = perf_counter()
            try:
                out = op.run()
            except failures_of as exc:
                walls.append(None)
                failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
                continue
            took = perf_counter() - start
            walls.append(took)
            pass_s += took
            try:
                if i not in verified:
                    op.check(out)
                    verified[i] = out
                elif out != verified[i]:
                    raise checks.Mismatch("output differs from the first pass")
            except checks.Mismatch as exc:
                mismatches.append(f"{op.label}: {exc}")
        passes += 1
        elapsed += pass_s
        done = passes >= min_passes and elapsed + pass_s / 2 >= seconds
        if done or not verified:  # with every operation failing, stop too
            return walls, loops, len(walls), failures, mismatches


def tail_percentile(count: int) -> int:
    """Highest whole percentile p <= TAIL_MAX with TAIL_BEYOND of `count`
    values above its nearest rank (50 when the list is too short for a
    tail)."""
    p = TAIL_MAX
    while p > 50 and count - math.ceil(p / 100 * count) < TAIL_BEYOND:
        p -= 1
    return p


def percentile(samples: list[float], p: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def main(argv: list[str] | None = None) -> int:
    started = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="smallest inputs, at least one pass"
    )
    args = parser.parse_args(argv)

    try:
        pkg = load_package()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import_s = perf_counter() - started

    build = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = Tracer(OBSERVERS)
        tracer.install()

    # Import is scaled by the loops right after it, each round by those
    # right before it.
    setup_loops = [calibrate.loop_s() for _ in range(SETUP_LOOPS)]
    import_ref_s = import_s * calibrate.factor(setup_loops)
    setup_rounds = []
    rounds_ref_s = []
    for _ in range(SETUP_ROUNDS):
        nearby = [calibrate.loop_s() for _ in range(SETUP_LOOPS)]
        setup_loops += nearby
        start = perf_counter()
        ops = build(pkg, args.seed, args.smoke)
        # Warm up on the workload's smallest inputs: the same code paths, at a
        # cost that does not depend on which instances the seed drew.
        for op in build(pkg, args.seed, True):
            op.run()
        setup_rounds.append(perf_counter() - start)
        rounds_ref_s.append(setup_rounds[-1] * calibrate.factor(nearby))
    setup_trace = {}
    if tracer is not None:
        setup_trace = {name: s / SETUP_ROUNDS for name, s in tracer.self_s.items()}
        tracer.reset()
    # The operation list stays alive for the whole run, which a CLI call never
    # holds; keep the collector from rescanning it during timed operations.
    start = perf_counter()
    gc.collect()
    gc.freeze()
    freeze_s = perf_counter() - start
    setup_wall_s = import_s + statistics.median(setup_rounds) + freeze_s
    setup_s = (
        import_ref_s
        + statistics.median(rounds_ref_s)
        + freeze_s * calibrate.factor(nearby)
    )

    failures_of = (pkg.util.CapExceededError, ValueError, RuntimeError)
    min_passes = 1 if args.smoke else MIN_PASSES
    walls, loops, attempted, failures, mismatches = measure(
        ops, args.seconds, min_passes, failures_of
    )
    for line in failures + mismatches:
        print(line, file=sys.stderr)
    scaled = calibrate.scale(walls, loops)
    per_op = [
        [t for t in scaled[i :: len(ops)] if t is not None] for i in range(len(ops))
    ]
    scores = [statistics.median(s) for s in per_op if s]
    if not scores:
        print("error: every operation failed", file=sys.stderr)
        return 1

    timed = sum(t is not None for t in walls)
    timed_s = sum(t for t in walls if t is not None)
    # per-layer seconds are scaled by the run's median speed factor
    run_factor = calibrate.factor(loops)
    if tracer is None:
        values = {
            "ops_per_s": (len(scores) / sum(scores), "1/s"),
            "op_s.p50": (statistics.median(scores), "s"),
            "op_s.tail": (percentile(scores, tail_percentile(len(ops))), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        values = {}
        for name, unit, kind, source in PER_LAYER:
            if kind == "setup":
                values[name] = (setup_trace.get(source, 0.0) * calibrate.factor(setup_loops), unit)
                continue
            table = {"calls": tracer.calls, "self": tracer.self_s, "count": tracer.counts}
            value = table[kind].get(source, 0) / timed
            values[name] = (value * run_factor if kind == "self" else value, unit)
        for layer in LAYERS:
            values[f"{layer}.share"] = (100 * tracer.layer_self_s(layer) / timed_s, "%")
        values["traced.ops_per_s"] = (len(scores) / sum(scores), "1/s")
        values["traced.op_s.p50"] = (statistics.median(scores), "s")

    OUT_DIR.mkdir(exist_ok=True)
    raw = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_rounds_s": setup_rounds,
        "setup_loops_s": setup_loops,
        "setup_wall_s": setup_wall_s,
        "import_s": import_s,
        "attempted": attempted,
        "failures": failures,
        "mismatches": mismatches,
        "op_wall_s": walls,
        "loop_s": loops,
        "op_scores_s": scores,
        "labels": [op.label for op in ops],
    }
    if tracer is not None:
        raw["spans"] = {
            name: {
                "calls": tracer.calls[name],
                "total_s": tracer.total_s[name],
                "self_s": tracer.self_s[name],
            }
            for name in sorted(tracer.calls)
        }
        raw["counts"] = dict(tracer.counts)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(raw, indent=1) + "\n")

    result = {
        "correct": not mismatches,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in values.items()},
    }
    print(json.dumps(result))
    return 0 if not mismatches else 1


if __name__ == "__main__":
    sys.exit(main())
