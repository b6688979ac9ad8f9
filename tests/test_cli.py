"""Unit tests for the command-line interface (repro.cli)."""

import json

import pytest

from repro.cli import build_parser, main
from repro.domains import wan_example
from repro.io import save_instance


@pytest.fixture()
def wan_file(tmp_path):
    path = tmp_path / "wan.json"
    save_instance(path, *wan_example())
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_synthesize_defaults(self):
        args = build_parser().parse_args(["synthesize", "x.json"])
        assert args.pruning == "lemmas" and args.strategy == "auto"

    def test_unknown_demo_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["demo", "nonsense"])


class TestTables:
    def test_tables_prints_both(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "Table 2" in out
        assert "10.38" in out and "197.20" in out


class TestSynthesize:
    def test_full_pipeline_with_outputs(self, wan_file, tmp_path, capsys):
        out_json = tmp_path / "result.json"
        out_svg = tmp_path / "impl.svg"
        out_dot = tmp_path / "impl.dot"
        code = main([
            "synthesize", str(wan_file),
            "--out", str(out_json),
            "--svg", str(out_svg),
            "--dot", str(out_dot),
        ])
        assert code == 0
        report = capsys.readouterr().out
        assert "merge(a4+a5+a6)" in report

        summary = json.loads(out_json.read_text())
        assert summary["total_cost"] == pytest.approx(464579.35, rel=1e-4)
        assert out_svg.read_text().startswith("<svg")
        assert out_dot.read_text().startswith("digraph")

    def test_quiet_suppresses_report(self, wan_file, capsys):
        assert main(["synthesize", str(wan_file), "--quiet"]) == 0
        assert "Totals" not in capsys.readouterr().out

    def test_pruning_none(self, wan_file, capsys):
        assert main(["synthesize", str(wan_file), "--pruning", "none", "--max-arity", "3"]) == 0
        assert "merge(a4+a5+a6)" in capsys.readouterr().out


class TestLid:
    def test_lid_sweep_on_soc(self, tmp_path, capsys):
        from repro.domains import soc_example

        path = tmp_path / "soc.json"
        save_instance(path, *soc_example())
        code = main(["lid", str(path), "--l-clock", "5.0", "2.0", "--max-arity", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "buffers" in out and "relays" in out
        # two sweep rows
        assert out.count("\n") >= 5

    def test_lid_custom_weights(self, tmp_path, capsys):
        from repro.domains import soc_example

        path = tmp_path / "soc.json"
        save_instance(path, *soc_example())
        code = main([
            "lid", str(path), "--l-clock", "2.0",
            "--c-buffer", "2.0", "--c-relay", "20.0", "--max-arity", "2",
        ])
        assert code == 0


class TestSimulate:
    def test_design_point_sustained(self, wan_file, capsys):
        code = main(["simulate", str(wan_file), "--scale", "1.0", "--duration", "20"])
        assert code == 0
        out = capsys.readouterr().out
        assert "True" in out

    def test_overload_reported_but_exit_zero(self, wan_file, capsys):
        # overload probes (> 1.0) are informational, not failures
        code = main(["simulate", str(wan_file), "--scale", "1.0", "1.5", "--duration", "20"])
        assert code == 0
        out = capsys.readouterr().out
        assert "False" in out  # the 1.5x row shows starvation


class TestPareto:
    def test_pareto_sweep_with_svg(self, wan_file, tmp_path, capsys):
        svg_path = tmp_path / "front.svg"
        code = main([
            "pareto", str(wan_file), "--budgets", "0", "2",
            "--max-arity", "3", "--svg", str(svg_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "worst hops" in out and "inf" in out
        assert svg_path.read_text().startswith("<svg")


class TestDemo:
    def test_demo_save(self, tmp_path, capsys):
        path = tmp_path / "soc.json"
        assert main(["demo", "soc", "--save", str(path)]) == 0
        data = json.loads(path.read_text())
        assert "constraint_graph" in data and "library" in data

    def test_demo_synthesize(self, capsys):
        assert main(["demo", "soc"]) == 0
        out = capsys.readouterr().out
        assert "Demo: soc" in out and "Totals" in out

    def test_demo_wan_matches_paper(self, capsys):
        assert main(["demo", "wan"]) == 0
        assert "merge(a4+a5+a6)" in capsys.readouterr().out


class TestExitCodes:
    """The documented exit-code taxonomy: 0 ok, 2 infeasible, 3 budget
    exceeded before anything servable, 4 validation failure."""

    def test_help_documents_exit_codes(self, capsys):
        with pytest.raises(SystemExit):
            main(["synthesize", "--help"])
        out = capsys.readouterr().out
        assert "exit codes" in out
        for code in ("2", "3", "4"):
            assert code in out

    def test_deadline_run_reports_runtime_quality(self, wan_file, capsys):
        code = main(["synthesize", str(wan_file), "--deadline", "30"])
        assert code == 0
        out = capsys.readouterr().out
        assert "runtime: quality=optimal" in out

    def test_infeasible_instance_exits_2(self, tmp_path, capsys):
        from repro import CommunicationLibrary, ConstraintGraph, Link, Point

        graph = ConstraintGraph(name="too-fat")
        graph.add_port("a", Point(0, 0))
        graph.add_port("b", Point(10, 0))
        graph.add_channel("c", "a", "b", bandwidth=5.0)
        lib = CommunicationLibrary("thin")  # 1.0 < 5.0 and no mux/demux
        lib.add_link(Link("thin", bandwidth=1.0, cost_per_unit=1.0))
        path = tmp_path / "infeasible.json"
        save_instance(path, graph, lib)

        assert main(["synthesize", str(path)]) == 2
        assert "infeasible" in capsys.readouterr().err

    def test_tiny_deadline_exits_3(self, wan_file, capsys):
        code = main(["synthesize", str(wan_file), "--deadline", "1e-9"])
        assert code == 3
        assert "budget exceeded" in capsys.readouterr().err

    def test_validation_failure_exits_4(self, wan_file, capsys, monkeypatch):
        import repro.core.synthesis as synthesis_mod
        from repro.core.exceptions import ValidationError

        def broken_validate(impl, graph):
            raise ValidationError("forced for the exit-code test")

        monkeypatch.setattr(synthesis_mod, "validate", broken_validate)
        assert main(["synthesize", str(wan_file)]) == 4
        assert "validation failed" in capsys.readouterr().err

    def test_on_budget_exhausted_fail_exits_3(self, wan_file, capsys):
        from repro import FaultInjector, FaultSpec

        plan = [
            FaultSpec(site="bnb.*", kind="error"),
            FaultSpec(site="ilp.*", kind="error"),
        ]
        with FaultInjector(plan):
            code = main([
                "synthesize", str(wan_file),
                "--deadline", "30", "--on-budget-exhausted", "fail",
            ])
        assert code == 3
        assert "budget exceeded" in capsys.readouterr().err


class TestArgumentValidation:
    """Zero/negative resource arguments die at the parser with exit 2
    and a diagnostic naming the offending value — never downstream."""

    @pytest.mark.parametrize("argv", [
        ["synthesize", "x.json", "--deadline", "0"],
        ["synthesize", "x.json", "--deadline", "-1.5"],
        ["synthesize", "x.json", "--max-arity", "0"],
        ["synthesize", "x.json", "--max-arity", "-2"],
        ["batch", "corpus", "--deadline-per-instance", "0"],
        ["batch", "corpus", "--deadline-per-instance", "-3"],
        ["batch", "corpus", "--jobs", "0"],
        ["serve", "--workers", "0"],
        ["serve", "--queue-limit", "-1"],
        ["serve", "--default-deadline", "0"],
        ["serve", "--max-deadline", "-2"],
        ["serve", "--drain-grace", "-1"],
        ["demo", "wan", "--max-arity", "0"],
        ["demo", "wan", "--max-arity", "-2"],
        ["batch", "corpus", "--max-arity", "0"],
        ["batch", "corpus", "--max-arity", "-2"],
    ])
    def test_nonpositive_values_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "must be" in err or "not a number" in err or "not an integer" in err

    @pytest.mark.parametrize("argv", [
        ["synthesize", "x.json", "--deadline", "soon"],
        ["synthesize", "x.json", "--max-arity", "many"],
    ])
    def test_non_numeric_values_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", [
        ["synthesize", "x.json"], ["batch", "corpus"], ["tune", "x.json"],
    ], ids=["synthesize", "batch", "tune"])
    def test_removed_colgen_strategy_is_a_usage_error(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(command + ["--strategy", "colgen"])
        assert exc.value.code == 2
        assert "--strategy" in capsys.readouterr().err

    def test_removed_kernels_flag_is_a_usage_error(self, capsys):
        for command, flag, value in (
            (["synthesize", "x.json"], "--kernels", "numpy"),
            (["synthesize", "x.json"], "--solver", "bnb"),
            (["batch", "x.json"], "--solver", "bnb"),
            (["synthesize", "x.json"], "--max-cluster-arcs", "4"),
            (["synthesize", "x.json"], "--jobs", "2"),
            (["demo", "wan"], "--jobs", "2"),
        ):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(command + [flag, value])
            assert exc.value.code == 2
            assert flag in capsys.readouterr().err

    def test_valid_values_still_accepted(self):
        args = build_parser().parse_args(
            ["synthesize", "x.json", "--deadline", "2.5", "--max-arity", "4"]
        )
        assert args.deadline == 2.5 and args.max_arity == 4

    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 8349 and args.workers == 2
        assert args.queue_limit == 64 and args.queue_limit_per_client is None
        assert args.drain_grace == 30.0
