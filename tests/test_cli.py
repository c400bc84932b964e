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

    def test_bench_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert args.smoke is False
        assert args.repeats == 5
        assert args.only is None
        assert args.output is None
        assert args.suite == "nn"
        assert args.compare is None

    def test_bench_quant_suite_args(self):
        args = build_parser().parse_args(
            ["bench", "--suite", "quant", "--compare", "old.json"]
        )
        assert args.suite == "quant"
        assert args.compare == "old.json"

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

    def test_bench_smoke(self, capsys, tmp_path):
        import json

        report_path = str(tmp_path / "BENCH_nn.json")
        assert main(["bench", "--smoke", "--repeats", "1",
                     "--only", "batchnorm_eval", "--output", report_path]) == 0
        out = capsys.readouterr().out
        assert "batchnorm_eval" in out
        payload = json.loads(open(report_path).read())
        assert payload["sizes"] == "smoke"
        assert payload["current"]["results_s"]["batchnorm_eval"] > 0

    def test_bench_quant_smoke(self, capsys, tmp_path):
        import json

        report_path = str(tmp_path / "BENCH_quant.json")
        assert main(["bench", "--suite", "quant", "--smoke", "--repeats", "1",
                     "--output", report_path]) == 0
        out = capsys.readouterr().out
        assert "inference_int8" in out
        payload = json.loads(open(report_path).read())
        assert payload["suite"] == "repro.nn quantized inference"
        assert payload["current"]["results_s"]["inference_int8"] > 0

    def test_bench_compare_degrades_on_missing_baseline(self, capsys, tmp_path):
        missing = str(tmp_path / "nope.json")
        assert main(["bench", "--suite", "quant", "--smoke", "--repeats", "1",
                     "--compare", missing]) == 0
        captured = capsys.readouterr()
        assert "no baseline usable" in captured.err
        assert "recording fresh numbers" in captured.err
        assert "inference_int8" in captured.out

    def test_bench_compare_against_own_report(self, capsys, tmp_path):
        report_path = str(tmp_path / "first.json")
        assert main(["bench", "--smoke", "--repeats", "1",
                     "--only", "batchnorm_eval", "--output", report_path]) == 0
        capsys.readouterr()
        assert main(["bench", "--smoke", "--repeats", "1",
                     "--only", "batchnorm_eval", "--compare", report_path]) == 0
        captured = capsys.readouterr()
        assert "batchnorm_eval" in captured.out
        assert "no baseline usable" not in captured.err

    def test_evaluate_scheme(self, capsys):
        code = main(["evaluate", "exp1", "C3[HP1=0.5,HP2=0.2,HP6=0.9]"])
        assert code == 0
        out = capsys.readouterr().out
        assert "PR 2" in out or "PR 1" in out  # ~20% reduction
        assert "step 1: C3" in out
