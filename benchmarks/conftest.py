"""Shared benchmark configuration.

Budgets are controlled by environment variables so the same harness can run
quick CI sweeps or full paper-shaped reproductions:

    REPRO_BENCH_HOURS   simulated GPU-hours per search algorithm (default 30)
    REPRO_BENCH_GRID    grid-search evaluations per human method (default 36)
    REPRO_BENCH_SEED    seed (default 0)

Formatted outputs are written to ``benchmarks/out/``.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import ExperimentConfig

OUT_DIR = Path(__file__).parent / "out"


def bench_config() -> ExperimentConfig:
    return ExperimentConfig(
        budget_hours=float(os.environ.get("REPRO_BENCH_HOURS", "30")),
        grid_evals_per_method=int(os.environ.get("REPRO_BENCH_GRID", "36")),
        embedding_rounds=2,
        transr_epochs_per_round=2,
        nn_exp_epochs_per_round=15,
        sample_size=8,
        evals_per_round=8,
        candidate_subsample=4230,
        seed=int(os.environ.get("REPRO_BENCH_SEED", "0")),
    )


@pytest.fixture(scope="session")
def config() -> ExperimentConfig:
    return bench_config()


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(0)


def write_report(name: str, text: str) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / name).write_text(text + "\n")
    print()
    print(text)


@pytest.fixture(scope="session")
def table2_result(config):
    """Table 2 searches are reused by the Table 3 / Figure 4 / 6 benches."""
    from repro.experiments import run_table2

    return run_table2(config)
