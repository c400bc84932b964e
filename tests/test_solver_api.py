"""Tests for the unified Solver API (repro.core.solver).

Covers the PR's acceptance criteria: registry round-trip over the whole
zoo, the driver's budget-accounting invariant for every registered solver,
serial-vs-parallel bit-identity through the EvaluationEngine, and seeded
determinism pins for ``sa``, ``regevo``, ``amc`` and ``evolution``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.costmodel import Budget
from repro.core.engine import EvaluationEngine
from repro.core.evaluator import SurrogateEvaluator
from repro.core.progressive import ProgressiveConfig
from repro.core.solver import (
    SOLVER_REGISTRY,
    Solver,
    get_solver,
    list_solvers,
    make_solver,
    register_solver,
    run_solver,
)
from repro.data.tasks import EXP1, transfer_task
from repro.knowledge.embedding import StrategyEmbeddings
from repro.models import resnet20
from repro.space import StrategySpace

ALL_SOLVERS = ["amc", "evolution", "grid", "progressive", "random", "regevo", "rl", "sa"]
GOLDEN_PATH = Path(__file__).parent / "goldens" / "solver_best.json"
#: solvers whose seeded best scheme is pinned in ``solver_best.json``
PINNED_SOLVERS = ["sa", "regevo", "amc", "evolution"]


def make_evaluator(seed=0):
    from repro.core.config import EvaluatorConfig

    task = transfer_task(EXP1, "resnet20", 0.27, 0.08, EXP1.model_accuracy)
    return SurrogateEvaluator(
        lambda: resnet20(num_classes=10), "resnet20", "cifar10", task,
        config=EvaluatorConfig(seed=seed),
    )


@pytest.fixture(scope="module")
def small_space():
    return StrategySpace(method_labels=["C3", "C4"])


@pytest.fixture(scope="module")
def embeddings(small_space):
    rng = np.random.default_rng(0)
    return StrategyEmbeddings(
        table=rng.normal(0, 0.1, size=(len(small_space), 16)), space=small_space
    )


def solver_kwargs(name, embeddings):
    """Small per-solver settings so every zoo member runs in seconds."""
    return {
        "progressive": dict(
            embeddings=embeddings,
            config=ProgressiveConfig(sample_size=2, evals_per_round=2,
                                     candidate_subsample=32),
            experience=None,
        ),
        "evolution": dict(population_size=4, offspring_per_generation=3),
        "regevo": dict(population_size=4, tournament_size=2, children_per_round=3),
        "rl": dict(batch_size=2),
        "sa": dict(chains=2),
        "amc": dict(episodes_per_round=2),
        "grid": dict(max_evals_per_round=6),
    }.get(name, {})


# --------------------------------------------------------------------------- #
class TestRegistry:
    def test_all_builtin_solvers_registered(self):
        assert list_solvers() == ALL_SOLVERS

    def test_round_trip_every_name(self):
        for name in ALL_SOLVERS:
            cls = get_solver(name)
            assert issubclass(cls, Solver)
            assert cls.solver_name == name

    def test_unknown_name_raises_with_catalogue(self):
        with pytest.raises(KeyError, match="progressive"):
            get_solver("gradient-descent")

    def test_reregistering_same_class_is_idempotent(self):
        cls = get_solver("random")
        assert register_solver("random")(cls) is cls

    def test_reregistering_different_class_is_an_error(self):
        class Impostor(Solver):
            def propose(self, state):  # pragma: no cover - never run
                return []

        with pytest.raises(ValueError, match="already registered"):
            register_solver("random")(Impostor)

    def test_new_registration_and_cleanup(self):
        @register_solver("one-shot", label="OneShot")
        class OneShot(Solver):
            def propose(self, state):
                return [state.random_scheme()]

            def done(self):
                return self.strategy.rounds_completed >= 1

        try:
            assert get_solver("one-shot") is OneShot
            result = run_solver(
                "one-shot", make_evaluator(),
                StrategySpace(method_labels=["C3"]),
                gamma=0.2, budget_hours=0.5, seed=0,
            )
            assert result.algorithm == "OneShot"
            assert result.solver == "one-shot"
            assert result.rounds == 1
        finally:
            SOLVER_REGISTRY.pop("one-shot", None)


# --------------------------------------------------------------------------- #
class TestAccountingInvariant:
    @pytest.mark.parametrize("name", ALL_SOLVERS)
    def test_every_proposal_pruned_or_evaluated(self, name, small_space, embeddings):
        """proposals_total == proposals_pruned + evaluated_proposals, always.

        A static budget tight enough to reject weak-compression schemes
        exercises the pruning arm; pruned proposals are charged nothing.
        """
        evaluator = make_evaluator(seed=2)
        evaluator.set_budget(Budget(max_params=230_000))
        solver = make_solver(
            name, evaluator, small_space,
            gamma=0.2, budget_hours=0.8, seed=2,
            **solver_kwargs(name, embeddings),
        )
        result = solver.run()
        st = solver.strategy
        assert st.proposals_total == st.proposals_pruned + st.evaluated_proposals
        # feasible() is also used inside progressive's scoring, so the
        # zero-cost static-rejection count dominates the driver-gate count.
        assert st.budget_pruned >= st.proposals_pruned
        # repeats are deduplicated by the evaluator's result map, never
        # charged twice — fresh evaluations cannot exceed submissions (plus
        # progressive's setup(), which charges the empty-scheme baseline
        # outside the proposal gate).
        setup_evals = 1 if name == "progressive" else 0
        assert result.evaluations <= st.evaluated_proposals + setup_evals
        stats = result.solver_stats
        assert stats["proposals_total"] == st.proposals_total
        assert stats["proposals_pruned"] == st.proposals_pruned
        assert stats["evaluated_proposals"] == st.evaluated_proposals
        assert stats["budget_pruned"] == st.budget_pruned

    @pytest.mark.parametrize("name", ALL_SOLVERS)
    def test_result_carries_solver_identity(self, name, small_space, embeddings):
        result = run_solver(
            name, make_evaluator(), small_space,
            gamma=0.2, budget_hours=0.5, seed=1,
            **solver_kwargs(name, embeddings),
        )
        assert result.solver == name
        assert result.rounds >= 1
        assert f"solver={name}" in result.summary()


# --------------------------------------------------------------------------- #
class TestSerialParallelIdentity:
    @pytest.mark.parametrize("name", ALL_SOLVERS)
    def test_bit_identical_through_engine(self, name, small_space, embeddings):
        """Two workers and serial evaluation produce the same search."""
        kwargs = solver_kwargs(name, embeddings)
        serial_engine = EvaluationEngine(make_evaluator(seed=4), workers=0)
        serial = run_solver(
            name, serial_engine, small_space,
            gamma=0.2, budget_hours=0.5, seed=4, **kwargs,
        )
        with EvaluationEngine(make_evaluator(seed=4), workers=2) as engine:
            parallel = run_solver(
                name, engine, small_space,
                gamma=0.2, budget_hours=0.5, seed=4, **kwargs,
            )
        assert serial.total_cost == parallel.total_cost
        assert serial.evaluations == parallel.evaluations
        assert (
            [r.scheme.identifier for r in serial.pareto]
            == [r.scheme.identifier for r in parallel.pareto]
        )
        assert [p.hypervolume for p in serial.trajectory] == [
            p.hypervolume for p in parallel.trajectory
        ]


# --------------------------------------------------------------------------- #
class TestSeededDeterminism:
    def _best_identifiers(self, small_space, embeddings):
        best = {}
        for name in PINNED_SOLVERS:
            result = run_solver(
                name, make_evaluator(seed=0), small_space,
                gamma=0.2, budget_hours=0.8, seed=0,
                **solver_kwargs(name, embeddings),
            )
            assert result.best is not None, f"{name} found nothing feasible"
            best[name] = result.best.scheme.identifier
        return best

    def test_new_solvers_match_goldens(self, small_space, embeddings, update_goldens):
        measured = self._best_identifiers(small_space, embeddings)

        if update_goldens:
            GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
            GOLDEN_PATH.write_text(
                json.dumps(measured, indent=2, sort_keys=True) + "\n"
            )
            pytest.skip("solver goldens regenerated; review the diff")

        assert GOLDEN_PATH.exists(), (
            f"missing {GOLDEN_PATH}; generate with pytest --update-goldens"
        )
        goldens = json.loads(GOLDEN_PATH.read_text())
        assert measured == goldens


# --------------------------------------------------------------------------- #
class TestCLISurface:
    def test_solver_flag_parsed(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["search", "exp1", "--solver", "sa"])
        assert args.solver == "sa"

    def test_solver_flag_rejects_unknown(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["search", "exp1", "--solver", "sgd"])

    def test_every_registered_solver_is_a_cli_choice(self):
        from repro.cli import build_parser

        parser = build_parser()
        for name in list_solvers():
            args = parser.parse_args(["search", "exp1", "--solver", name])
            assert args.solver == name

    @pytest.mark.parametrize("command", [["search"], ["job", "submit"]], ids=" ".join)
    def test_solver_choices_equal_the_registry(self, command):
        """The hard-coded ``--solver`` choices list no more and no fewer
        solvers than the registry holds."""
        import argparse

        from repro.cli import build_parser

        parser = build_parser()
        for name in command:
            subparsers = next(
                a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
            )
            parser = subparsers.choices[name]
        solver = next(a for a in parser._actions if "--solver" in a.option_strings)
        assert sorted(solver.choices) == list_solvers()

    def test_trace_summarize_accepts_multiple_journals(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["trace", "summarize", "a.jsonl", "b.jsonl", "c.jsonl"]
        )
        assert args.journal == "a.jsonl"
        assert args.more_journals == ["b.jsonl", "c.jsonl"]
