"""First-class solver abstraction: registry + shared round-loop driver.

Every search algorithm — the paper's progressive search and every baseline —
is a :class:`Solver`: a propose/observe/done state machine registered under a
short name.  The shared :class:`~repro.core.search.SearchStrategy` keeps
ownership of budget accounting, static ``feasible()`` pruning, Pareto/HV
trajectory recording and journaling; the :meth:`Solver.run` driver owns the
round loop and submits each round's proposals through
``Evaluator.evaluate_many`` as one batch, so every solver inherits the
:class:`~repro.core.engine.EvaluationEngine`'s worker fan-out, result cache
and prefix-affinity lanes for free.

Adding a solver::

    from repro.core.solver import Solver, register_solver

    @register_solver("mine", label="Mine")
    class MySolver(Solver):
        def propose(self, state):
            return [state.random_scheme() for _ in range(4)]

    result = run_solver("mine", evaluator, space, budget_hours=2.0)

The driver enforces one accounting invariant for every registered solver:
each proposed (non-empty) scheme is either statically pruned by the budget
at zero cost or submitted for evaluation, so
``proposals_total == proposals_pruned + evaluated_proposals`` always holds
on the strategy state (see ``tests/test_solver_api.py``).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Type

from ..space.scheme import CompressionScheme
from ..space.strategy import StrategySpace
from .evaluator import EvaluationResult
from .interface import Evaluator
from .search import SearchResult, SearchStrategy

#: name -> Solver subclass; populated by :func:`register_solver`
SOLVER_REGISTRY: Dict[str, Type["Solver"]] = {}


def register_solver(
    name: str, label: Optional[str] = None
) -> Callable[[Type["Solver"]], Type["Solver"]]:
    """Class decorator: register a :class:`Solver` under ``name``.

    ``label`` sets the human-facing algorithm name used in
    :attr:`SearchResult.algorithm` (defaults to the class's ``label``).
    Re-registering a name with a *different* class is an error — solver
    names are part of the CLI/config surface.
    """

    def decorate(cls: Type["Solver"]) -> Type["Solver"]:
        existing = SOLVER_REGISTRY.get(name)
        if existing is not None and existing is not cls:
            raise ValueError(
                f"solver name {name!r} already registered to {existing.__name__}"
            )
        cls.solver_name = name
        if label is not None:
            cls.label = label
        SOLVER_REGISTRY[name] = cls
        return cls

    return decorate


def _ensure_builtin_solvers() -> None:
    """Import the modules that register the built-in solvers (idempotent)."""
    from . import progressive  # noqa: F401  (registers "progressive")
    from .. import baselines  # noqa: F401  (registers the other seven)


def list_solvers() -> List[str]:
    """Sorted names of every registered solver."""
    _ensure_builtin_solvers()
    return sorted(SOLVER_REGISTRY)


def get_solver(name: str) -> Type["Solver"]:
    """The :class:`Solver` subclass registered under ``name``."""
    _ensure_builtin_solvers()
    try:
        return SOLVER_REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown solver {name!r}; registered: {', '.join(list_solvers())}"
        ) from None


def make_solver(
    name: str,
    evaluator: Evaluator,
    space: Optional[StrategySpace] = None,
    *,
    gamma: float = 0.3,
    budget_hours: float = 24.0,
    max_length: int = 5,
    seed: int = 0,
    tracer=None,
    **solver_kwargs,
) -> "Solver":
    """Construct a registered solver on a fresh :class:`SearchStrategy`."""
    cls = get_solver(name)
    strategy = SearchStrategy(
        evaluator,
        space if space is not None else StrategySpace(),
        gamma=gamma,
        budget_hours=budget_hours,
        max_length=max_length,
        seed=seed,
        tracer=tracer,
    )
    return cls(strategy, **solver_kwargs)


def run_solver(
    name: str,
    evaluator: Evaluator,
    space: Optional[StrategySpace] = None,
    **kwargs,
) -> SearchResult:
    """One-call convenience: build the solver and run it to completion."""
    return make_solver(name, evaluator, space, **kwargs).run()


class Solver:
    """Base class: a propose/observe/done state machine over schemes.

    Subclasses implement:

    * :meth:`propose` — the next round's candidate schemes (may repeat or
      return schemes already evaluated: the evaluator's result map dedups
      and charges nothing for repeats);
    * :meth:`observe` — fold the round's evaluation results back into
      solver state (train a surrogate, update a population, cool a
      temperature...).  Results arrive in proposal order but may be fewer
      than proposed when the static budget pruned some candidates;
    * :meth:`done` — optional early termination before the budget runs out;
    * :meth:`setup` — optional pre-loop work (seed evaluations).

    The driver in :meth:`run` owns everything else: budget checking, the
    static feasibility gate (zero cost for pruned proposals), batched
    evaluation, trajectory recording and the per-round journal span.
    """

    #: registry name, set by :func:`register_solver`
    solver_name = "base"
    #: human-facing algorithm label (SearchResult.algorithm)
    label = "Solver"
    #: consecutive all-pruned rounds tolerated before giving up
    max_empty_rounds = 8

    def __init__(self, strategy: SearchStrategy):
        self.strategy = strategy
        strategy.solver_name = self.solver_name
        strategy.name = self.label
        #: extra attributes for the current round's journal span
        self._round_attrs: Dict[str, object] = {}

    # -- convenience proxies into the shared strategy state ---------------- #
    @property
    def name(self) -> str:
        """Display name (``SearchResult.algorithm``)."""
        return self.strategy.name

    @property
    def rng(self):
        return self.strategy.rng

    @property
    def space(self) -> StrategySpace:
        return self.strategy.space

    @property
    def evaluator(self) -> Evaluator:
        return self.strategy.evaluator

    @property
    def gamma(self) -> float:
        return self.strategy.gamma

    @property
    def max_length(self) -> int:
        return self.strategy.max_length

    @property
    def seed(self) -> int:
        return self.strategy.seed

    def scalar_reward(self, result: EvaluationResult) -> float:
        """The shared single-objective scalarisation: ``AR - 2·max(0, γ-PR)``.

        Used by every solver that needs a scalar fitness (RL, SA, RegEvo,
        AMC) so their rewards are directly comparable.
        """
        return result.ar - 2.0 * max(0.0, self.gamma - result.pr)

    # -- the solver contract ----------------------------------------------- #
    def setup(self) -> None:
        """Optional pre-loop hook (runs before the first trajectory point)."""

    def propose(self, state: SearchStrategy) -> List[CompressionScheme]:
        """The next round's candidate schemes (empty list = exhausted)."""
        raise NotImplementedError

    def observe(self, results: List[EvaluationResult]) -> None:
        """Fold the round's evaluation results into solver state."""

    def done(self) -> bool:
        """Early-termination signal checked before each round."""
        return False

    # -- the shared round loop --------------------------------------------- #
    def run(
        self,
        stop: Optional[Callable[[], bool]] = None,
        on_round: Optional[Callable[[SearchStrategy], None]] = None,
    ) -> SearchResult:
        """Drive the solver to completion; returns the finished result.

        ``stop`` is a cooperative cancellation hook polled at every round
        boundary: when it returns true the loop exits cleanly and the
        partial result is finished exactly like a budget exhaustion — the
        multi-tenant server uses this for job cancellation.  ``on_round``
        runs after each completed round (post ``record()``), letting a
        caller stream progress (Pareto fronts, costs) without changing the
        search: neither hook runs inside the round, so a run with hooks is
        bit-identical to one without.
        """
        st = self.strategy
        tracer = st.tracer
        tracer.annotate_run(solver=self.solver_name, algorithm=st.name)
        self.setup()
        st.record()

        round_index = 0
        empty_rounds = 0
        while st.budget_left() > 0 and not self.done():
            if stop is not None and stop():
                break
            with tracer.span(
                "search.round",
                algorithm=st.name,
                solver=self.solver_name,
                round=round_index,
            ) as span:
                self._round_attrs = {}
                proposals = [s for s in self.propose(st) if not s.is_empty]
                batch: List[CompressionScheme] = []
                for scheme in proposals:
                    # The accounting gate: every proposal is either pruned
                    # here at zero cost or submitted for evaluation.
                    st.proposals_total += 1
                    if st.feasible(scheme):
                        batch.append(scheme)
                    else:
                        st.proposals_pruned += 1
                span.set(proposals=len(proposals), batch=len(batch))
                if not proposals:
                    break
                results: List[EvaluationResult] = []
                if batch:
                    empty_rounds = 0
                    st.evaluated_proposals += len(batch)
                    results = st.evaluator.evaluate_many(batch)
                else:
                    empty_rounds += 1
                self.observe(results)
                st.record()
                st.rounds_completed += 1
                if on_round is not None:
                    on_round(st)
                span.set(**self._round_attrs)
                if not batch and empty_rounds >= self.max_empty_rounds:
                    break
            round_index += 1
        return st.finish()
