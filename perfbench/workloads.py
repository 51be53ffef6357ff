"""The four workloads: the fixed list of operations a run times.

Each list is built from the run's seed alone.  Every operation is one
in-process call that the CLI makes: `run_algorithm` for `ksetpack solve`,
`run_bench` then `render_csv` for `ksetpack bench`.  Instances reach the
operations through the file format (serialize, then `parse_instance`), as
they would from disk.  Package functions are looked up on their modules at
call time, so the traced run sees the wrapped ones.

The cost of one search varies by instance far more than by run (2^|packing|
subsets for `loglocal:1`), so a pass holds 46 to 350 distinct small
instances rather than a few large ones: a run's figures then depend little
on which instances its seed drew.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import checks

UNIT_SIZE = 3  # k of every random instance
WEIGHTS = (Fraction(1), Fraction(5))
GAP_TAIL = "algorithms exact greedy\ngaps standard intersecting\n"
PLANE_ORDERS = (2, 3, 5)
# Claw-weighted sizes at which the three algorithms cost about the same, so
# the median and the tail are not set by where one algorithm's cluster ends.
CLAW_SIZES = (("wishful", 100), ("squareimp", 50), ("power:2:2", 45))
# One size for the random gap instances, for the same reason.
GAP_SIZE = 7
# loglocal:1 costs 2^|packing| subsets, so one size gives clusters of
# times; seven sizes in turn smooth them.
LOGLOCAL_SIZES = range(33, 40)


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]


def instance_seed(seed: int, j: int) -> int:
    return seed * 100_000 + j


def _random(pkg, n: int, seed: int, weighted: bool):
    raw = pkg.instance.gen_random(
        n * 3 // 2, n, UNIT_SIZE, seed, WEIGHTS if weighted else None
    )
    return pkg.instance.parse_instance(pkg.instance.serialize_instance(raw))


def _solve(pkg, inst, token: str, check, label: str) -> Op:
    return Op(
        label=f"{token} {label}",
        run=lambda: pkg.bench.run_algorithm(inst, token),
        check=lambda out: check(inst, out),
    )


def build_swap_unit(pkg, seed: int, smoke: bool) -> list[Op]:
    count, n = (1, 30) if smoke else (46, 100)
    return [
        _solve(
            pkg,
            _random(pkg, n, instance_seed(seed, j), weighted=False),
            "local:2",
            checks.two_local_unit,
            f"n={n} #{j}",
        )
        for j in range(count)
    ]


def build_claw_weighted(pkg, seed: int, smoke: bool) -> list[Op]:
    count = 3 if smoke else 252
    ops = []
    for j in range(count):
        token, n = CLAW_SIZES[j % len(CLAW_SIZES)]
        n = 20 if smoke else n
        check = checks.wishful_local if token == "wishful" else checks.square_local
        inst = _random(pkg, n, instance_seed(seed, j), weighted=True)
        ops.append(_solve(pkg, inst, token, check, f"n={n} #{j}"))
    return ops


def _gap_op(pkg, family: str, inst, plane_q: int | None, label: str) -> Op:
    config = pkg.bench.parse_bench_config(family + "\n" + GAP_TAIL)
    return Op(
        label=label,
        run=lambda: pkg.bench.render_csv(pkg.bench.run_bench(config)),
        check=lambda text: checks.gap_rows(inst, plane_q, text),
    )


def build_gap_sweep(pkg, seed: int, smoke: bool) -> list[Op]:
    count = 1 if smoke else 240
    ops = []
    for j in range(count):
        n = 6 if smoke else GAP_SIZE
        s = instance_seed(seed, j)
        family = (
            f"family r{j} random universe={n * 3 // 2} n={n} k={UNIT_SIZE} "
            f"seeds={s} weights={WEIGHTS[0]}:{WEIGHTS[1]}"
        )
        inst = _random(pkg, n, s, weighted=True)
        ops.append(_gap_op(pkg, family, inst, None, f"random n={n} #{j}"))
    for q in PLANE_ORDERS[:1] if smoke else PLANE_ORDERS:
        plane = pkg.instance.gen_projective_plane(q)
        inst = pkg.instance.parse_instance(pkg.instance.serialize_instance(plane))
        ops.append(_gap_op(pkg, f"family pp{q} projective q={q}", inst, q, f"plane q={q}"))
    return ops


def build_loglocal_unit(pkg, seed: int, smoke: bool) -> list[Op]:
    count = 1 if smoke else 350
    ops = []
    for j in range(count):
        n = 20 if smoke else LOGLOCAL_SIZES[j % len(LOGLOCAL_SIZES)]
        inst = _random(pkg, n, instance_seed(seed, j), weighted=False)
        ops.append(_solve(pkg, inst, "loglocal:1", checks.two_local_unit, f"n={n} #{j}"))
    return ops


# name -> build(package, seed, smoke) -> the operation list of one pass
WORKLOADS = {
    "swap-unit": build_swap_unit,
    "claw-weighted": build_claw_weighted,
    "gap-sweep": build_gap_sweep,
    "loglocal-unit": build_loglocal_unit,
}
