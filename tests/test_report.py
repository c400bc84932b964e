"""Tests for the one-shot full-report runner."""

import json
import os

import pytest

from repro.core.search import SearchResult
from repro.experiments import ExperimentConfig
from repro.experiments.report import format_attribution, run_full_report

TINY = ExperimentConfig(
    budget_hours=0.5,
    grid_evals_per_method=2,
    embedding_rounds=1,
    transr_epochs_per_round=1,
    nn_exp_epochs_per_round=3,
    sample_size=2,
    evals_per_round=2,
    candidate_subsample=48,
    seed=0,
)


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("reports"))
    return run_full_report(TINY, output_dir=out)


class TestFullReport:
    def test_all_artifacts_written(self, report):
        expected = {
            "table2.txt", "table2_vs_paper.txt", "table3.txt",
            "figure4.txt", "figure6.txt", "attribution.txt",
            "table2.json", "table3.json",
        }
        assert expected <= set(report.artifacts)
        for path in report.artifacts.values():
            assert os.path.exists(path)
            assert os.path.getsize(path) > 0

    def test_figure5_opt_in(self, report):
        assert report.figure5 is None
        assert "figure5.txt" not in report.artifacts

    def test_json_artifacts_parse(self, report):
        with open(report.artifacts["table2.json"]) as handle:
            payload = json.load(handle)
        assert "rows" in payload and "baselines" in payload
        assert payload["baselines"]["Exp1"]["accuracy"] == pytest.approx(0.9104, abs=1e-6)

    def test_searches_shared_not_rerun(self, report):
        """Figure 4/6 reuse Table 2's search objects (no duplicate runs)."""
        for exp, searches in report.table2.search_results.items():
            assert report.figure4.searches[exp]["AutoMC"] is searches["AutoMC"]
            assert report.figure6.searches[exp] is searches["AutoMC"]

    def test_summary_lists_artifacts(self, report):
        text = report.summary()
        assert "table2.txt" in text and "->" in text

    def test_attribution_rows_cover_all_searches(self, report):
        with open(report.artifacts["attribution.txt"]) as handle:
            text = handle.read()
        for exp, searches in report.table2.search_results.items():
            assert exp in text
            for algo in searches:
                assert algo in text
        assert "sec/eval" in text


def test_attribution_counts_each_pruned_candidate_once():
    """``budget_filtered`` counts the same ``is_feasible`` refusals as
    ``budget_pruned``; only pruned plus lint-rejected is summed."""
    result = SearchResult(
        algorithm="random", pareto=[], front=[], trajectory=[], total_cost=1.0,
        evaluations=4, gamma=0.3,
        engine_stats={"budget_pruned": 6, "budget_filtered": 6, "budget_rejects": 1},
    )
    row = format_attribution({"Exp1": {"random": result}}).splitlines()[4]
    assert row.split()[:2] == ["Exp1", "random"]
    assert row.split()[6] == "7"
