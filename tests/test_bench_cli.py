import csv
import io
import json
from fractions import Fraction

import pytest

from ksetpack import gen_projective_plane, parse_instance, parse_sdpa, serialize_instance
from ksetpack.bench import (
    CSV_COLUMNS,
    CSV_VERSION,
    BenchConfig,
    FamilySpec,
    parse_algorithm,
    parse_bench_config,
    render_csv,
    run_algorithm,
    run_bench,
)
from ksetpack.cli import main
from ksetpack.util import ParseError

F = Fraction

FIG_GRAPH_TEXT = (
    "c two heavy hubs against five spokes\n"
    "p graph 7 6\n"
    "w 10 10 10 10 10 18 18\n"
    "6 2\n6 3\n6 1\n7 1\n7 4\n7 5\n"
)


class TestParseAlgorithm:
    @pytest.mark.parametrize(
        "token, want",
        [
            ("exact", ("exact", ())),
            ("greedy", ("greedy", ())),
            ("wishful", ("wishful", ())),
            ("squareimp", ("squareimp", ())),
            ("local:2", ("local", (2,))),
            ("loglocal:1/2", ("loglocal", (F(1, 2),))),
            ("power:3/2:2", ("power", (F(3, 2), 2))),
            ("power:1.5:1", ("power", (F(3, 2), 1))),
        ],
    )
    def test_valid(self, token, want):
        assert parse_algorithm(token) == want

    @pytest.mark.parametrize(
        "token",
        [
            "fancy",
            "local",
            "local:0",
            "local:x",
            "loglocal:0",
            "loglocal:",
            "exact:3",
            "wishful:2",
            "power:2",
            "power:0:2",
            "power:2:0",
            "power:x:y",
        ],
    )
    def test_invalid(self, token):
        with pytest.raises(ValueError):
            parse_algorithm(token)


class TestRunAlgorithm:
    @pytest.mark.parametrize(
        "token",
        ["exact", "greedy", "local:2", "loglocal:1", "wishful", "squareimp", "power:2:1"],
    )
    def test_every_token_on_fano(self, fano, token):
        run = run_algorithm(fano, token)
        assert run.value == 1
        assert len(run.members) == 1

    def test_weighted_worked_example(self):
        from ksetpack import instance_from_graph, parse_graph

        got = instance_from_graph(*parse_graph(FIG_GRAPH_TEXT))
        assert run_algorithm(got, "exact").value == 50
        wishful = run_algorithm(got, "wishful")
        assert wishful.value == 36
        assert wishful.members == (5, 6)
        assert wishful.work > 0

    def test_unlimited_work(self, fano):
        assert run_algorithm(fano, "local:2", work_limit=None).value == 1

    def test_oracle_cap(self, fano):
        from ksetpack import CapExceededError

        with pytest.raises(CapExceededError):
            run_algorithm(fano, "exact", oracle_cap=3)


CONFIG_TEXT = """\
c families first
family tiny random universe=8 n=6 k=3 seeds=1..2
family fano projective q=2
algorithms greedy local:2 exact
gaps standard intersecting
oracle_cap 40
clique_cap 1000
work_limit 100000
"""


class TestParseBenchConfig:
    def test_full_config(self):
        config = parse_bench_config(CONFIG_TEXT)
        assert config.families == (
            FamilySpec(name="tiny", kind="random", universe=8, n=6, k=3, seeds=(1, 2)),
            FamilySpec(name="fano", kind="projective", q=2, seeds=(None,)),
        )
        assert config.algorithms == ("greedy", "local:2", "exact")
        assert config.gaps == ("standard", "intersecting")
        assert config.oracle_cap == 40
        assert config.clique_cap == 1000
        assert config.work_limit == 100000

    def test_seed_list_form(self):
        config = parse_bench_config(
            "family f random universe=8 n=4 k=2 seeds=3,5,9\n"
        )
        assert config.families[0].seeds == (3, 5, 9)

    def test_seeds_default_to_zero(self):
        config = parse_bench_config("family f random universe=8 n=4 k=2\n")
        assert config.families[0].seeds == (0,)

    def test_weighted_family(self):
        config = parse_bench_config(
            "family f random universe=8 n=4 k=2 weights=1:5/2\n"
        )
        assert config.families[0].weights == (F(1), F(5, 2))

    def test_clique_cap_not_eaten_by_comment_rule(self):
        config = parse_bench_config("family f projective q=2\nclique_cap 7\n")
        assert config.clique_cap == 7

    @pytest.mark.parametrize(
        "text",
        [
            "algorithms greedy\n",  # no family
            "family f random universe=8 n=4\n",  # missing k
            "family f random universe=8 n=4 k=2 seeds=9..1\n",
            "family f random universe=8 n=4 k=2 universe=9\n",  # duplicate param
            "family f random universe=8 n=4 k=2 extra=1\n",
            "family f mystery q=2\n",
            "family f projective q=x\n",
            "family f\n",
            "algorithms warp\nfamily f projective q=2\n",
            "gaps diagonal\nfamily f projective q=2\n",
            "oracle_cap\nfamily f projective q=2\n",
            "oracle_cap ten\nfamily f projective q=2\n",
            "mystery 3\nfamily f projective q=2\n",
            "family f random universe=8 n=4 k=2 weights=5:1\n",
        ],
    )
    def test_rejects(self, text):
        with pytest.raises(ParseError):
            parse_bench_config(text)


class TestRunBench:
    def test_rows_in_config_order(self):
        config = parse_bench_config(
            "family a projective q=2\nfamily b random universe=8 n=5 k=2 seeds=1..2\n"
            "algorithms greedy exact\n"
        )
        rows = run_bench(config)
        assert [(r["family"], r["algorithm"]) for r in rows] == [
            ("a", "greedy"),
            ("a", "exact"),
            ("b", "greedy"),
            ("b", "exact"),
            ("b", "greedy"),
            ("b", "exact"),
        ]
        assert all(r["status"] == "ok" for r in rows)

    def test_ratio_and_gap_columns(self):
        config = parse_bench_config(
            "family fano projective q=2\nalgorithms greedy\ngaps standard\n"
        )
        row = run_bench(config)[0]
        assert row["exact"] == "1"
        assert row["value"] == "1"
        assert row["ratio"] == "1"
        assert row["gap_standard"] == "7/3"
        assert "gap_intersecting" not in row

    def test_oracle_cap_isolation(self):
        config = parse_bench_config(
            "family fano projective q=2\nalgorithms exact greedy\noracle_cap 3\n"
        )
        rows = run_bench(config)
        assert rows[0]["status"] == "cap_exceeded"
        assert "cap" in rows[0]["note"] or "oracle" in rows[0]["note"]
        assert rows[1]["status"] == "ok"
        assert "exact" not in rows[1] and "ratio" not in rows[1]

    def test_generation_failure_isolated(self):
        config = parse_bench_config(
            "family broken random universe=4 n=9 k=2 seeds=0,1\n"
            "family fine projective q=2\nalgorithms greedy\n"
        )
        rows = run_bench(config)
        assert [r["status"] for r in rows] == ["error", "error", "ok"]
        assert "generation failed" in rows[0]["note"]

    def test_no_algorithms_means_no_rows(self):
        config = parse_bench_config("family fano projective q=2\n")
        assert run_bench(config) == []

    def test_internal_error_isolated_per_instance(self, monkeypatch):
        import ksetpack.relaxation

        real = ksetpack.relaxation.solve_lp
        calls = []

        def fail_first(lp):
            calls.append(lp)
            if len(calls) == 1:
                raise RuntimeError("internal: optimum failed certification: test")
            return real(lp)

        monkeypatch.setattr(ksetpack.relaxation, "solve_lp", fail_first)
        config = parse_bench_config(
            "family fano projective q=2\nfamily b random universe=8 n=5 k=2 seeds=1\n"
            "algorithms greedy exact\ngaps standard\n"
        )
        rows = run_bench(config)
        assert [(r["family"], r["status"]) for r in rows] == [
            ("fano", "error"),
            ("fano", "error"),
            ("b", "ok"),
            ("b", "ok"),
        ]
        assert all(
            r["note"] == "internal: optimum failed certification: test" for r in rows[:2]
        )
        assert "exact" not in rows[0] and rows[0]["n"] == "7"
        assert rows[2]["gap_standard"]

    def test_internal_error_isolated_per_row(self, monkeypatch):
        import ksetpack.bench

        def broken(*args):
            raise RuntimeError("applied swap broke disjointness")

        monkeypatch.setattr(ksetpack.bench, "t_local_search", broken)
        config = parse_bench_config(
            "family fano projective q=2\nalgorithms local:2 greedy\n"
        )
        rows = run_bench(config)
        assert [r["status"] for r in rows] == ["error", "ok"]
        assert rows[0]["note"] == "internal: applied swap broke disjointness"

    def test_weighted_family_runs(self):
        config = parse_bench_config(
            "family w random universe=9 n=7 k=3 seeds=1 weights=1:5\n"
            "algorithms wishful squareimp exact\n"
        )
        rows = run_bench(config)
        assert all(r["status"] == "ok" for r in rows)
        for row in rows:
            assert F(row["ratio"]) >= 1


class TestRenderCsv:
    def test_versioned_header(self):
        text = render_csv([])
        lines = text.splitlines()
        assert lines[0] == f"# {CSV_VERSION}"
        assert lines[1] == ",".join(CSV_COLUMNS)
        assert len(lines) == 2

    def test_rows_parse_back(self):
        config = parse_bench_config(
            "family fano projective q=2\nalgorithms greedy exact\ngaps standard\n"
        )
        text = render_csv(run_bench(config))
        body = "\n".join(text.splitlines()[1:])
        parsed = list(csv.DictReader(io.StringIO(body)))
        assert len(parsed) == 2
        assert parsed[0]["algorithm"] == "greedy"
        assert parsed[0]["gap_standard"] == "7/3"
        assert parsed[1]["algorithm"] == "exact"
        assert parsed[1]["k"] == "3"


@pytest.fixture()
def fano_file(tmp_path):
    path = tmp_path / "fano.sp"
    path.write_text(serialize_instance(gen_projective_plane(2)))
    return str(path)


class TestCli:
    def test_generate_random_deterministic(self, tmp_path, capsys):
        args = [
            "generate", "random", "--universe", "10", "--n", "8", "--k", "3",
            "--seed", "5",
        ]
        out1, out2 = tmp_path / "a.sp", tmp_path / "b.sp"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_text() == out2.read_text()
        assert "wrote" in capsys.readouterr().out
        got = parse_instance(out1.read_text())
        assert (got.universe_size, got.n, got.k) == (10, 8, 3)

    def test_generate_weighted_random(self, tmp_path):
        out = tmp_path / "w.sp"
        assert (
            main(
                [
                    "generate", "random", "--universe", "10", "--n", "8", "--k", "3",
                    "--seed", "5", "--weights", "1:5", "--out", str(out),
                ]
            )
            == 0
        )
        got = parse_instance(out.read_text())
        assert got.weights is not None
        assert all(F(1) <= w <= F(5) for w in got.weights)

    def test_generate_projective(self, tmp_path, capsys):
        out = tmp_path / "fano.sp"
        assert main(["generate", "projective", "--q", "2", "--out", str(out)]) == 0
        assert "universe=7 sets=7 k=3" in capsys.readouterr().out
        got = parse_instance(out.read_text())
        assert got.n == 7

    def test_generate_projective_rejects_nonprime(self, tmp_path, capsys):
        out = tmp_path / "nope.sp"
        assert main(["generate", "projective", "--q", "6", "--out", str(out)]) == 2
        assert "error" in capsys.readouterr().err
        assert not out.exists()

    def test_generate_from_graph(self, tmp_path, capsys):
        graph_file = tmp_path / "fig.gr"
        graph_file.write_text(FIG_GRAPH_TEXT)
        out = tmp_path / "fig.sp"
        assert main(["generate", "from-graph", "--graph", str(graph_file), "--out", str(out)]) == 0
        got = parse_instance(out.read_text())
        assert got.n == 7
        assert got.weights[5] == 18

    def test_solve_json_report(self, tmp_path, capsys):
        graph_file = tmp_path / "fig.gr"
        graph_file.write_text(FIG_GRAPH_TEXT)
        inst_file = tmp_path / "fig.sp"
        main(["generate", "from-graph", "--graph", str(graph_file), "--out", str(inst_file)])
        capsys.readouterr()
        assert main(["solve", str(inst_file), "--algorithm", "wishful"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report == {
            "algorithm": "wishful",
            "value": "36",
            "members": [6, 7],
            "iterations": report["iterations"],
            "work": report["work"],
        }
        assert isinstance(report["value"], str)
        assert report["iterations"] >= 1

    def test_solve_exact_to_file(self, tmp_path, fano_file):
        out = tmp_path / "report.json"
        assert main(["solve", fano_file, "--algorithm", "exact", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["value"] == "1"
        assert len(report["members"]) == 1

    def test_solve_oracle_cap(self, fano_file, capsys):
        assert main(["solve", fano_file, "--algorithm", "exact", "--oracle-cap", "7"]) == 0
        assert main(["solve", fano_file, "--algorithm", "exact", "--oracle-cap", "6"]) == 3
        assert "oracle cap" in capsys.readouterr().err

    def test_solve_unknown_algorithm(self, fano_file, capsys):
        assert main(["solve", fano_file, "--algorithm", "warp"]) == 2
        assert "error" in capsys.readouterr().err

    def test_solve_work_limit_exhaustion(self, tmp_path, capsys):
        inst = tmp_path / "x.sp"
        inst.write_text("p setpack 6 5 3\n1 2 3\n4 5 6\n1 4\n2 5\n3 6\n")
        assert main(["solve", str(inst), "--algorithm", "local:2", "--work-limit", "1"]) == 3
        assert "work budget" in capsys.readouterr().err

    def test_solve_missing_file(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "absent.sp"), "--algorithm", "greedy"]) == 2

    def test_solve_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.sp"
        bad.write_text("p setpack 5 2 2\n1 2\n")
        assert main(["solve", str(bad), "--algorithm", "greedy"]) == 2
        assert "error" in capsys.readouterr().err

    def test_gap_default_variant(self, fano_file, capsys):
        assert main(["gap", fano_file]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report == {
            "variant": "standard",
            "lp_value": "7/3",
            "ilp_value": "1",
            "gap": "7/3",
        }

    def test_gap_oracle_cap(self, fano_file, capsys):
        assert main(["gap", fano_file, "--oracle-cap", "7"]) == 0
        assert main(["gap", fano_file, "--oracle-cap", "6"]) == 3
        assert "oracle cap" in capsys.readouterr().err

    def test_gap_clique_cap(self, fano_file, capsys):
        # the Fano plane's conflict graph is K7: exactly one maximal clique
        args = ["gap", fano_file, "--variant", "intersecting", "--clique-cap"]
        assert main(args + ["1"]) == 0
        assert main(args + ["0"]) == 3
        assert "maximal cliques" in capsys.readouterr().err

    def test_gap_intersecting(self, fano_file, capsys):
        assert main(["gap", fano_file, "--variant", "intersecting"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["gap"] == "1"

    def test_export_sdp(self, tmp_path, fano_file, capsys):
        out = tmp_path / "fano.sdpa"
        assert main(["export-sdp", fano_file, "--out", str(out)]) == 0
        assert "block size 7, 22 constraints" in capsys.readouterr().out
        problem = parse_sdpa(out.read_text())
        assert problem.num_constraints == 22

    def test_bench_ok(self, tmp_path, capsys):
        config = tmp_path / "bench.cfg"
        config.write_text(
            "family fano projective q=2\nalgorithms greedy exact\ngaps standard\n"
        )
        out = tmp_path / "rows.csv"
        assert main(["bench", str(config), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == f"# {CSV_VERSION}"
        assert len(lines) == 4

    def test_bench_all_capped(self, tmp_path):
        config = tmp_path / "bench.cfg"
        config.write_text("family fano projective q=2\nalgorithms exact\noracle_cap 2\n")
        assert main(["bench", str(config)]) == 3

    def test_bench_all_errors(self, tmp_path):
        config = tmp_path / "bench.cfg"
        config.write_text(
            "family broken random universe=4 n=9 k=2\nalgorithms greedy\n"
        )
        assert main(["bench", str(config)]) == 2

    def test_bench_no_rows_is_success(self, tmp_path):
        config = tmp_path / "bench.cfg"
        config.write_text("family fano projective q=2\n")
        assert main(["bench", str(config)]) == 0

    def test_bench_bad_config(self, tmp_path, capsys):
        config = tmp_path / "bench.cfg"
        config.write_text("algorithms greedy\n")
        assert main(["bench", str(config)]) == 2

    def test_bench_internal_error_exits_2(self, tmp_path, monkeypatch):
        import ksetpack.relaxation

        def broken(lp):
            raise RuntimeError("internal: optimum failed certification: test")

        monkeypatch.setattr(ksetpack.relaxation, "solve_lp", broken)
        config = tmp_path / "bench.cfg"
        # the oracle cap skips the Fano plane's gap, so its row stays ok
        config.write_text(
            "family fano projective q=2\nfamily b random universe=8 n=5 k=2 seeds=1\n"
            "algorithms greedy\ngaps standard\noracle_cap 6\n"
        )
        out = tmp_path / "rows.csv"
        assert main(["bench", str(config), "--out", str(out)]) == 2
        rows = list(csv.DictReader(out.read_text().splitlines()[1:]))
        assert [r["status"] for r in rows] == ["ok", "error"]
        config.write_text("family fano projective q=2\nalgorithms greedy\n")
        assert main(["bench", str(config), "--out", str(out)]) == 0
