"""Regression fixture: the outputs of every search algorithm, frozen.

`search_fixture.json` holds, for each (algorithm, instance) pair, the
members, iteration count and work units that `run_algorithm` returned when
it was written, plus the bytes of one bench CSV.  Any refactor of the search
engines must reproduce them exactly.  Members and iterations are checked
apart from work units, and the CSV's other columns apart from its `work`
column, so a change that only moves the work shows which outputs held.
Regenerate (only when an output change is intended) with::

    PYTHONPATH=src python tests/test_search_fixture.py --write
"""
from __future__ import annotations

import csv
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ksetpack import conflict_graph, gen_projective_plane, gen_random, rescaled_run
from ksetpack.bench import parse_bench_config, render_csv, run_algorithm, run_bench
from ksetpack.util import SearchStats, WorkBudget

FIXTURE = Path(__file__).with_name("search_fixture.json")
TOKENS = (
    "greedy",
    "local:1",
    "local:2",
    "local:3",
    "loglocal:1",
    "wishful",
    "squareimp",
    "power:1:2",
    "power:2:2",
    "power:3/2:2",
)
WEIGHTS = (Fraction(1), Fraction(5))
# exact, both gaps, and one family above the oracle cap (no exact, no gaps)
BENCH_CONFIG = """\
family small random universe=15 n=10 k=3 seeds=1..3 weights=1:5
family fano projective q=2
family big random universe=63 n=42 k=3 seeds=1
algorithms exact greedy local:2 wishful squareimp
gaps standard intersecting
"""


def instances():
    for n in (10, 20):
        for weighted in (False, True):
            for seed in range(1, 9):
                label = f"random n={n} {'w1:5' if weighted else 'unit'} seed={seed}"
                yield label, gen_random(n * 3 // 2, n, 3, seed, WEIGHTS if weighted else None)
    for q in (2, 3):
        yield f"plane q={q}", gen_projective_plane(q)


def compute() -> dict:
    runs = {}
    for label, inst in instances():
        for token in TOKENS:
            run = run_algorithm(inst, token)
            runs[f"{token} | {label}"] = [list(run.members), run.iterations, run.work]
        budget, stats = WorkBudget(), SearchStats()
        chosen = rescaled_run(conflict_graph(inst), 3, budget, stats)
        runs[f"rescaled:3 | {label}"] = [sorted(chosen), stats.iterations, budget.spent]
    csv_text = render_csv(run_bench(parse_bench_config(BENCH_CONFIG)))
    return {"runs": runs, "bench_csv": csv_text}


@pytest.fixture(scope="module")
def frozen_and_now():
    return json.loads(FIXTURE.read_text()), compute()


def _changed(frozen, now, part) -> list[str]:
    assert set(now["runs"]) == set(frozen["runs"])
    return [key for key in frozen["runs"] if part(now["runs"][key]) != part(frozen["runs"][key])]


def test_members_and_iterations_match(frozen_and_now):
    differ = _changed(*frozen_and_now, lambda run: run[:2])
    assert not differ, f"{len(differ)} runs changed, first: {differ[0]}"


def test_work_matches(frozen_and_now):
    differ = _changed(*frozen_and_now, lambda run: run[2])
    assert not differ, f"{len(differ)} runs changed their work, first: {differ[0]}"


def _csv_columns(text: str, keep) -> list:
    """The CSV's header comment, then each row cut to the columns `keep`
    selects."""
    lines = text.splitlines()
    rows = list(csv.reader(lines[1:]))
    chosen = [i for i, name in enumerate(rows[0]) if keep(name)]
    return [lines[0]] + [[row[i] for i in chosen] for row in rows]


def test_bench_csv_outputs_match(frozen_and_now):
    frozen, now = frozen_and_now
    outputs = lambda text: _csv_columns(text, lambda name: name != "work")
    assert outputs(now["bench_csv"]) == outputs(frozen["bench_csv"])


def test_bench_csv_work_matches(frozen_and_now):
    frozen, now = frozen_and_now
    work = lambda text: _csv_columns(text, lambda name: name == "work")
    assert work(now["bench_csv"]) == work(frozen["bench_csv"])
    assert now["bench_csv"] == frozen["bench_csv"], "same fields, other bytes"


def test_fixture_covers_caps(frozen_and_now):
    frozen, _ = frozen_and_now
    rows = list(csv.DictReader(frozen["bench_csv"].splitlines()[1:]))
    big = [row for row in rows if row["family"] == "big"]
    assert big and not any(row["exact"] or row["gap_standard"] for row in big)
    assert all(row["gap_intersecting"] for row in rows if row["family"] != "big")
    assert len(frozen["runs"]) == 34 * (len(TOKENS) + 1)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    FIXTURE.write_text(json.dumps(compute(), indent=0, sort_keys=True) + "\n")
