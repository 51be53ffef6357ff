"""Benchmark harness: run algorithm suites over instance families to CSV.

The config file is flat text, one directive per line ('c' comments and blank
lines ignored)::

    family <name> random universe=15 n=20 k=3 seeds=1..5 [weights=1:5]
    family <name> projective q=2
    algorithms greedy local:2 wishful exact
    gaps standard intersecting
    oracle_cap 40
    work_limit 20000000

Output is CSV with a versioned comment header.  One row per (instance,
algorithm) in config order; failures are isolated per row via the status
column (ok | cap_exceeded | error; an internal error's note starts with
'internal:').  Everything is deterministic for a fixed config.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction

from .exact import ORACLE_CAP, max_packing_exact
from .instance import (
    Instance,
    Packing,
    conflict_graph,
    gen_projective_plane,
    gen_random,
    packing_value,
)
from .local_search import log_local_search, t_local_search
from .relaxation import CLIQUE_CAP, relaxation_value
from .util import (
    CapExceededError,
    DEFAULT_WORK_LIMIT,
    ParseError,
    SearchStats,
    WorkBudget,
    format_fraction,
    parse_fraction,
)
from .weighted import greedy_weighted, power_local_search, square_imp, wishful_thinking

CSV_VERSION = "ksetpack-bench-csv v1"
CSV_COLUMNS = [
    "family",
    "kind",
    "seed",
    "universe",
    "n",
    "k",
    "algorithm",
    "status",
    "value",
    "exact",
    "ratio",
    "gap_standard",
    "gap_intersecting",
    "iterations",
    "work",
    "note",
]

GAP_VARIANTS = ("standard", "intersecting")


def parse_algorithm(token: str) -> tuple[str, tuple]:
    """Validate an algorithm token; returns (name, parsed args).

    Tokens: exact | greedy | local:<t> | loglocal:<eps> | wishful |
    squareimp | power:<alpha>:<t>
    """
    name, _, rest = token.partition(":")
    if name in ("exact", "greedy", "wishful", "squareimp"):
        if rest:
            raise ValueError(f"algorithm {name} takes no parameter")
        return name, ()
    if name == "local":
        try:
            t = int(rest)
        except ValueError:
            raise ValueError(f"bad swap size in {token!r}") from None
        if t < 1:
            raise ValueError("local:<t> needs t >= 1")
        return name, (t,)
    if name == "loglocal":
        eps = parse_fraction(rest)
        if eps <= 0:
            raise ValueError("loglocal:<eps> needs eps > 0")
        return name, (eps,)
    if name == "power":
        parts = rest.split(":")
        if len(parts) != 2:
            raise ValueError(f"expected power:<alpha>:<t>, got {token!r}")
        try:
            alpha = Fraction(parts[0])
            t = int(parts[1])
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"bad parameters in {token!r}") from None
        if alpha <= 0 or t < 1:
            raise ValueError("power:<alpha>:<t> needs alpha > 0 and t >= 1")
        return name, (alpha, t)
    raise ValueError(f"unknown algorithm {token!r}")


@dataclass(frozen=True)
class AlgoRun:
    token: str
    members: tuple[int, ...]
    value: Fraction
    iterations: int
    work: int


def run_algorithm(
    instance: Instance,
    token: str,
    work_limit: int | None = DEFAULT_WORK_LIMIT,
    oracle_cap: int = ORACLE_CAP,
) -> AlgoRun:
    """Dispatch one algorithm token against an instance."""
    name, args = parse_algorithm(token)
    budget = WorkBudget(limit=work_limit)
    stats = SearchStats()
    if name == "exact":
        members = max_packing_exact(instance, cap=oracle_cap).members
    elif name == "local":
        members = t_local_search(instance, args[0], budget, stats).members
    elif name == "loglocal":
        members = log_local_search(instance, args[0], budget, stats).members
    else:  # the weighted searches, on the conflict graph
        graph = conflict_graph(instance)
        if name == "greedy":
            chosen = greedy_weighted(graph)
        elif name == "wishful":
            chosen = wishful_thinking(graph, instance.k + 1, budget=budget, stats=stats)
        elif name == "squareimp":
            chosen = square_imp(
                graph, max_talons=instance.k, budget=budget, stats=stats
            )
        else:  # power
            chosen = power_local_search(
                graph, args[0], args[1], budget=budget, stats=stats
            )
        members = tuple(sorted(chosen))
    value = packing_value(instance, Packing(members=members))
    return AlgoRun(
        token=token,
        members=members,
        value=value,
        iterations=stats.iterations,
        work=budget.spent,
    )


@dataclass(frozen=True)
class FamilySpec:
    name: str
    kind: str  # random | projective
    universe: int = 0
    n: int = 0
    k: int = 0
    q: int = 0
    weights: tuple[Fraction, Fraction] | None = None
    seeds: tuple[int | None, ...] = (None,)


@dataclass(frozen=True)
class BenchConfig:
    families: tuple[FamilySpec, ...]
    algorithms: tuple[str, ...]
    gaps: tuple[str, ...]
    oracle_cap: int = ORACLE_CAP
    clique_cap: int = CLIQUE_CAP
    work_limit: int = DEFAULT_WORK_LIMIT


def _parse_seeds(text: str, lineno: int) -> tuple[int, ...]:
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            lo, hi = int(lo), int(hi)
            if hi < lo:
                raise ValueError
            return tuple(range(lo, hi + 1))
        return tuple(int(f) for f in text.split(","))
    except ValueError:
        raise ParseError(f"bad seeds {text!r} (use 1..5 or 1,2,3)", lineno) from None


def _parse_weight_range(text: str, lineno: int) -> tuple[Fraction, Fraction]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ParseError(f"bad weights {text!r} (use lo:hi)", lineno)
    lo, hi = parse_fraction(parts[0]), parse_fraction(parts[1])
    if lo <= 0 or hi < lo:
        raise ParseError("weight range needs 0 < lo <= hi", lineno)
    return lo, hi


def _parse_family(fields: list[str], lineno: int) -> FamilySpec:
    if len(fields) < 3:
        raise ParseError("family lines are 'family <name> <kind> key=value...'", lineno)
    name, kind = fields[1], fields[2]
    pairs = {}
    for tok in fields[3:]:
        key, sep, value = tok.partition("=")
        if not sep or not value or key in pairs:
            raise ParseError(f"bad family parameter {tok!r}", lineno)
        pairs[key] = value

    def take_int(key: str) -> int:
        if key not in pairs:
            raise ParseError(f"family {name!r} needs {key}=", lineno)
        try:
            return int(pairs.pop(key))
        except ValueError:
            raise ParseError(f"{key} must be an integer", lineno) from None

    if kind == "random":
        universe = take_int("universe")
        n = take_int("n")
        k = take_int("k")
        seeds = _parse_seeds(pairs.pop("seeds", "0"), lineno)
        weights = None
        if "weights" in pairs:
            weights = _parse_weight_range(pairs.pop("weights"), lineno)
        if pairs:
            raise ParseError(f"unknown family parameters {sorted(pairs)}", lineno)
        return FamilySpec(
            name=name,
            kind=kind,
            universe=universe,
            n=n,
            k=k,
            weights=weights,
            seeds=seeds,
        )
    if kind == "projective":
        q = take_int("q")
        if pairs:
            raise ParseError(f"unknown family parameters {sorted(pairs)}", lineno)
        return FamilySpec(name=name, kind=kind, q=q, seeds=(None,))
    raise ParseError(f"unknown family kind {kind!r}", lineno)


def parse_bench_config(text: str) -> BenchConfig:
    families: list[FamilySpec] = []
    algorithms: tuple[str, ...] = ()
    gaps: tuple[str, ...] = ()
    caps = {
        "oracle_cap": ORACLE_CAP,
        "clique_cap": CLIQUE_CAP,
        "work_limit": DEFAULT_WORK_LIMIT,
    }
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c ") or line == "c":
            continue
        fields = line.split()
        key = fields[0]
        if key == "family":
            families.append(_parse_family(fields, lineno))
        elif key == "algorithms":
            for tok in fields[1:]:
                try:
                    parse_algorithm(tok)  # fail fast on typos
                except ValueError as exc:
                    raise ParseError(str(exc), lineno) from None
            algorithms = tuple(fields[1:])
        elif key == "gaps":
            for tok in fields[1:]:
                if tok not in GAP_VARIANTS:
                    raise ParseError(f"unknown gap variant {tok!r}", lineno)
            gaps = tuple(fields[1:])
        elif key in caps:
            try:
                caps[key] = int(fields[1])
            except (IndexError, ValueError):
                raise ParseError(f"{key} needs one integer", lineno) from None
        else:
            raise ParseError(f"unknown directive {key!r}", lineno)
    if not families:
        raise ParseError("config lists no instance families")
    return BenchConfig(
        families=tuple(families),
        algorithms=algorithms,
        gaps=gaps,
        oracle_cap=caps["oracle_cap"],
        clique_cap=caps["clique_cap"],
        work_limit=caps["work_limit"],
    )


def make_instance(spec: FamilySpec, seed: int | None) -> Instance:
    if spec.kind == "random":
        return gen_random(spec.universe, spec.n, spec.k, seed, spec.weights)
    return gen_projective_plane(spec.q)


def _internal_note(exc: RuntimeError) -> str:
    text = str(exc)
    return text if text.startswith("internal:") else f"internal: {text}"


def _error_rows(
    base: dict[str, str], tokens: tuple[str, ...], note: str
) -> list[dict[str, str]]:
    return [{**base, "algorithm": t, "status": "error", "note": note} for t in tokens]


def _reference(
    instance: Instance, config: BenchConfig
) -> tuple[AlgoRun | None, dict[str, str]]:
    """One oracle call per instance: it feeds the exact column, the gaps and
    the `exact` rows.  Without it there are no gaps."""
    try:
        optimum = max_packing_exact(instance, cap=config.oracle_cap)
    except CapExceededError:
        return None, {}
    value = packing_value(instance, optimum)
    columns = {"exact": format_fraction(value)}
    for variant in config.gaps:
        try:
            lp_value = relaxation_value(instance, variant, clique_cap=config.clique_cap)
            columns[f"gap_{variant}"] = format_fraction(lp_value / value)
        except CapExceededError:
            pass
    return AlgoRun("exact", optimum.members, value, 0, 0), columns


def run_bench(config: BenchConfig) -> list[dict[str, str]]:
    """One CSV row dict per (instance, algorithm), in config order.  A failed
    instance or algorithm becomes a row status, never an exception; an
    internal error (a failed postcondition) gets a note starting with
    'internal:'."""
    rows: list[dict[str, str]] = []
    for spec in config.families:
        for seed in spec.seeds:
            base = {
                "family": spec.name,
                "kind": spec.kind,
                "seed": "" if seed is None else str(seed),
            }
            try:
                instance = make_instance(spec, seed)
            except ValueError as exc:
                rows += _error_rows(base, config.algorithms, f"generation failed: {exc}")
                continue
            base.update(
                universe=str(instance.universe_size),
                n=str(instance.n),
                k=str(instance.k),
            )
            try:
                exact, columns = _reference(instance, config)
            except RuntimeError as exc:
                rows += _error_rows(base, config.algorithms, _internal_note(exc))
                continue
            base.update(columns)

            for token in config.algorithms:
                row = dict(base)
                row["algorithm"] = token
                try:
                    if token == "exact" and exact is not None:
                        run = exact
                    else:
                        run = run_algorithm(
                            instance,
                            token,
                            work_limit=config.work_limit,
                            oracle_cap=config.oracle_cap,
                        )
                except CapExceededError as exc:
                    row["status"] = "cap_exceeded"
                    row["note"] = str(exc)
                except ValueError as exc:
                    row["status"] = "error"
                    row["note"] = str(exc)
                except RuntimeError as exc:
                    row["status"] = "error"
                    row["note"] = _internal_note(exc)
                else:
                    row["status"] = "ok"
                    row["value"] = format_fraction(run.value)
                    row["iterations"] = str(run.iterations)
                    row["work"] = str(run.work)
                    if exact is not None:
                        row["ratio"] = format_fraction(exact.value / run.value)
                rows.append(row)
    return rows


def has_internal_error(rows: list[dict[str, str]]) -> bool:
    return any(
        row.get("status") == "error" and row.get("note", "").startswith("internal:")
        for row in rows
    )


def render_csv(rows: list[dict[str, str]]) -> str:
    buf = io.StringIO()
    buf.write(f"# {CSV_VERSION}\n")
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({col: row.get(col, "") for col in CSV_COLUMNS})
    return buf.getvalue()
