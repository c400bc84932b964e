"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_search_defaults(self):
        args = build_parser().parse_args(["search", "exp1"])
        assert args.solver == "progressive"
        assert args.budget == 30.0

    def test_invalid_solver_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["search", "exp1", "--solver", "SGD"])

    def test_figure_numbers(self):
        for n in ("4", "5", "6"):
            args = build_parser().parse_args(["figure", n])
            assert args.number == n
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "7"])

    def test_trace_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace"])

    def test_trace_summarize_args(self):
        args = build_parser().parse_args(["trace", "summarize", "run.jsonl", "--json"])
        assert args.journal == "run.jsonl"
        assert args.json is True

    def test_search_quantization_args(self):
        args = build_parser().parse_args(
            ["search", "exp1", "--methods", "C3,C8", "--latency-batch", "8",
             "--max-latency-ms", "50", "--max-weight-mem", "3000000"]
        )
        assert args.methods == "C3,C8"
        assert args.latency_batch == 8
        assert args.max_latency_ms == 50.0
        assert args.max_weight_mem == 3_000_000


class TestCommands:
    def test_inspect(self, capsys):
        assert main(["inspect"]) == 0
        out = capsys.readouterr().out
        assert "4230 strategies" in out
        assert "experience records" in out

    def test_inspect_with_graph(self, capsys):
        assert main(["inspect", "--graph"]) == 0
        out = capsys.readouterr().out
        assert "KnowledgeGraph" in out

    def test_search_tiny_budget(self, capsys):
        assert main(["search", "exp1", "--solver", "random", "--budget", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "Random" in out and "Pareto" in out

    def test_search_with_journal_then_summarize(self, capsys, tmp_path):
        journal = str(tmp_path / "run.jsonl")
        assert main(["search", "exp1", "--solver", "random", "--budget", "0.2",
                     "--journal", journal]) == 0
        out = capsys.readouterr().out
        assert "run journal written" in out

        assert main(["trace", "summarize", journal]) == 0
        out = capsys.readouterr().out
        assert "fresh" in out and "simulated cost" in out

        assert main(["trace", "summarize", journal, "--json"]) == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        assert payload["fresh_evaluations"] > 0

    def test_trace_summarize_missing_file(self, capsys, tmp_path):
        assert main(["trace", "summarize", str(tmp_path / "nope.jsonl")]) == 2
        assert "no such journal" in capsys.readouterr().err

    def test_evaluate_scheme(self, capsys):
        code = main(["evaluate", "exp1", "C3[HP1=0.5,HP2=0.2,HP6=0.9]"])
        assert code == 0
        out = capsys.readouterr().out
        assert "PR 2" in out or "PR 1" in out  # ~20% reduction
        assert "step 1: C3" in out
