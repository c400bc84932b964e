"""Algorithm 2 — AutoMC's progressive search strategy (§3.3.2).

Each optimisation round:

1. sample a subset H_sub of the evaluated schemes (Pareto-preferred);
2. form the step search space S_step = {(seq, s) : seq in H_sub, s in
   Next_seq} where Next_seq are seq's *unexplored* next strategies;
3. score every option with F_mo and Eq. 4's (ACC, PAR) projections;
4. evaluate the Pareto-optimal options (capped, crowding-diverse);
5. train F_mo on the observed (AR_step, PR_step) targets (Eq. 5);
6. fold the new schemes into H_scheme and update the Next bookkeeping.

The search stops when the simulated GPU-hour budget is exhausted and returns
the Pareto-optimal schemes whose parameter reduction meets the target γ.

:class:`ProgressiveSolver` implements the algorithm on the shared
:class:`~repro.core.solver.Solver` round loop (registered as
``"progressive"``).  It needs learned strategy embeddings: run it through
:class:`~repro.core.api.AutoMC`, which learns them (Algorithm 1) and loads
the experience base, or pass them as ``embeddings`` when building it with
:func:`~repro.core.solver.make_solver`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from ..knowledge.embedding import StrategyEmbeddings
from ..space.scheme import CompressionScheme
from .evaluator import EvaluationResult
from .fmo import Fmo
from .pareto import pareto_indices, select_diverse
from .search import SearchStrategy
from .solver import Solver, register_solver


class Options(NamedTuple):
    """One round's scored (seq, s) options as parallel arrays."""

    parent: np.ndarray     # index of the option's parent seq in H_sub
    candidate: np.ndarray  # strategy index s into the space
    acc_proj: np.ndarray   # Eq. 4 projected ACC
    par_proj: np.ndarray   # Eq. 4 projected PAR


@dataclass
class ProgressiveConfig:
    """Tunables of Algorithm 2."""

    sample_size: int = 8          # |H_sub| per round
    evals_per_round: int = 6      # cap on |ParetoO|
    fmo_epochs: int = 25          # Eq. 5 epochs per round
    # Annealed noise on F_mo predictions; AR_step signals are O(0.005), so
    # the noise floor must sit well below that once a few rounds have run.
    exploration_noise: float = 0.004
    max_nominal_pr: float = 0.9   # skip candidates whose HP2 sum exceeds this
    candidate_subsample: int = 4230   # candidates scored per scheme per round
    # Design-choice toggles (exercised by benchmarks/test_design_ablations.py):
    stratified_sampling: bool = True   # PR-stratified H_sub sampling
    feasible_bias: bool = True         # half the evals target PR in [γ, 0.8]


@register_solver("progressive", label="AutoMC")
class ProgressiveSolver(Solver):
    """AutoMC: knowledge-guided, progressively expanding scheme search."""

    def __init__(
        self,
        strategy: SearchStrategy,
        embeddings: StrategyEmbeddings,
        config: Optional[ProgressiveConfig] = None,
        experience=None,
    ):
        super().__init__(strategy)
        self.config = config or ProgressiveConfig()
        self.embeddings = embeddings
        self.fmo = Fmo(embeddings, max_length=strategy.max_length, seed=strategy.seed)
        if experience:
            self.fmo.pretrain_from_experience(experience)
        # Next_seq bookkeeping: scheme id -> boolean mask of unexplored ops.
        self._unexplored: Dict[str, np.ndarray] = {}
        self._results_by_id: Dict[str, EvaluationResult] = {}
        # the round's (parent, candidate_index) selection, set by propose()
        self._selected: List[Tuple[EvaluationResult, int]] = []
        self._round_index = 0

    # ------------------------------------------------------------------ #
    def _ensure_tracked(self, result: EvaluationResult) -> None:
        key = result.scheme.identifier
        if key not in self._unexplored and result.scheme.length < self.max_length:
            self._unexplored[key] = np.ones(len(self.space), dtype=bool)
        self._results_by_id[key] = result

    #: parent-sampling strata over cumulative PR — extensions of shallow
    #: schemes are what keep the feasible band [gamma, ~0.5] populated, so
    #: every stratum stays in play for the whole search.
    _PR_BINS = ((0.0, 0.15), (0.15, 0.30), (0.30, 0.50), (0.50, 1.01))

    def _sample_h_sub(self) -> List[EvaluationResult]:
        """PR-stratified, Pareto-preferred sample of expandable schemes."""
        expandable = [
            r
            for key, r in self._results_by_id.items()
            if key in self._unexplored and self._unexplored[key].any()
        ]
        if not expandable:
            return []
        chosen: List[int] = []
        if self.config.stratified_sampling:
            # One best-accuracy parent per PR stratum.
            for low, high in self._PR_BINS:
                members = [
                    i for i, r in enumerate(expandable) if low <= r.pr < high
                ]
                if members:
                    chosen.append(max(members, key=lambda i: expandable[i].accuracy))
        # Fill the rest with a crowding-diverse Pareto pick plus randoms.
        points = np.stack([r.objectives for r in expandable])
        for i in select_diverse(points, self.config.sample_size):
            if len(chosen) >= self.config.sample_size:
                break
            if int(i) not in chosen:
                chosen.append(int(i))
        remaining = [i for i in range(len(expandable)) if i not in set(chosen)]
        extra = self.config.sample_size - len(chosen)
        if extra > 0 and remaining:
            picks = self.rng.choice(
                remaining, size=min(extra, len(remaining)), replace=False
            )
            chosen.extend(int(i) for i in picks)
        return [expandable[i] for i in chosen[: self.config.sample_size]]

    def _state_of(self, result: EvaluationResult) -> np.ndarray:
        return Fmo.state_features(
            result.accuracy / max(result.base_accuracy, 1e-9),
            result.params / max(result.base_params, 1),
            result.scheme.length,
            result.scheme.total_param_step,
            self.max_length,
        )

    # ------------------------------------------------------------------ #
    def _score_round(
        self, h_sub: List[EvaluationResult], round_index: int
    ) -> Options:
        """All (seq, s) options with Eq. 4 projections, as parallel arrays."""
        scored: List[Options] = []
        noise_scale = self.config.exploration_noise / np.sqrt(1 + round_index)
        for p, result in enumerate(h_sub):
            mask = self._unexplored[result.scheme.identifier]
            candidates = np.flatnonzero(mask)
            if len(candidates) == 0:
                continue
            if len(candidates) > self.config.candidate_subsample:
                candidates = self.rng.choice(
                    candidates, size=self.config.candidate_subsample, replace=False
                )
            # Budget filter: drop candidates whose nominal PR would explode.
            nominal = result.scheme.total_param_step
            keep = nominal + self.space.param_steps[candidates] <= self.config.max_nominal_pr
            candidates = candidates[keep]
            if len(candidates) == 0:
                continue
            # Static feasibility filter: abstractly interpret each extension
            # against the evaluator's budget and drop the infeasible ones
            # before they are ever scored or evaluated.  Infeasibility is a
            # property of the (parent, strategy) pair, so the mask is
            # permanently retired for those ops — each pair is checked once.
            if getattr(self.evaluator, "budget", None) is not None:
                feasible = np.ones(len(candidates), dtype=bool)
                for j, i in enumerate(candidates):
                    child = result.scheme.extend(self.space[int(i)])
                    if not self.strategy.feasible(child):
                        feasible[j] = False
                        mask[int(i)] = False
                candidates = candidates[feasible]
                if len(candidates) == 0:
                    continue
            state = self._state_of(result)
            predictions = self.fmo.predict(result.scheme, state, candidates)
            predictions = predictions + self.rng.normal(
                0, noise_scale, size=predictions.shape
            )
            acc_proj = result.accuracy * (1.0 + predictions[:, 0])  # Eq. 4 ACC
            par_proj = result.params * (1.0 - predictions[:, 1])    # Eq. 4 PAR
            parent = np.full(len(candidates), p, dtype=np.int64)
            scored.append(Options(parent, candidates, acc_proj, par_proj))
        if not scored:
            return Options(*(np.empty(0, dtype=t) for t in (np.int64, np.int64, float, float)))
        return Options(*(np.concatenate(column) for column in zip(*scored)))

    def _select_pareto_options(
        self, h_sub: List[EvaluationResult], options: Options
    ) -> List[Tuple[EvaluationResult, int]]:
        """ParetoO = argmax [ACC, -PAR], capped and diversity-selected.

        With ``feasible_bias`` on, half of the evaluation slots go to the
        highest-projected-ACC Pareto options whose projected cumulative PR
        lands in [gamma, 0.8] — Definition 1 constrains the final answer to
        PR >= γ, so that region is where evaluations buy the most; the rest
        is spread over the whole front by crowding distance (exploration).
        """
        if len(options.candidate) == 0:
            return []
        points = np.stack([options.acc_proj, -options.par_proj], axis=1)
        budget = self.config.evals_per_round

        chosen: List[int] = []
        if self.config.feasible_bias:
            base_params = max(
                next(iter(self._results_by_id.values())).base_params, 1
            )
            front = pareto_indices(points)
            pr_projected = 1.0 - options.par_proj[front] / base_params
            feasible = front[(self.gamma <= pr_projected) & (pr_projected <= 0.8)]
            # by projected ACC; stable, so ties keep option order
            feasible = feasible[np.argsort(-points[feasible, 0], kind="stable")]
            chosen = [int(i) for i in feasible[: max(budget // 2, 1)]]

        remaining = budget - len(chosen)
        if remaining > 0:
            spread = select_diverse(points, budget)
            for i in spread:
                if int(i) not in chosen and remaining > 0:
                    chosen.append(int(i))
                    remaining -= 1
        return [(h_sub[options.parent[i]], int(options.candidate[i])) for i in chosen]

    # ------------------------------------------------------------------ #
    def setup(self) -> None:
        start = self.evaluator.evaluate(CompressionScheme())
        self._ensure_tracked(start)

    def propose(self, state: SearchStrategy) -> List[CompressionScheme]:
        h_sub = self._sample_h_sub()
        if not h_sub:
            self._selected = []
            return []
        options = self._score_round(h_sub, self._round_index)
        selected = self._select_pareto_options(h_sub, options)
        self._round_attrs = {
            "parents": len(h_sub), "options": len(options.candidate), "selected": len(selected)
        }
        self._selected = selected
        return [parent.scheme.extend(self.space[c]) for parent, c in selected]

    def observe(self, results: List[EvaluationResult]) -> None:
        # The driver may have pruned some proposals (only possible when the
        # evaluator exposes is_feasible without a budget attribute — the
        # in-round filter in _score_round otherwise pre-vets every child),
        # so match results back to the selection by identifier.  Distinct
        # (parent, candidate) pairs always produce distinct identifiers.
        by_id = {r.scheme.identifier: r for r in results}
        observed = False
        for parent, candidate_index in self._selected:
            child_scheme = parent.scheme.extend(self.space[candidate_index])
            child = by_id.get(child_scheme.identifier)
            if child is None:
                continue
            self._ensure_tracked(child)
            # Mark s as explored under seq (Algorithm 2, line 9).
            self._unexplored[parent.scheme.identifier][candidate_index] = False
            # Observed step targets for Eq. 5.
            ar_step = (child.accuracy - parent.accuracy) / max(parent.accuracy, 1e-9)
            pr_step = (parent.params - child.params) / max(parent.params, 1)
            self.fmo.observe(
                parent.scheme, self._state_of(parent), candidate_index,
                ar_step, pr_step,
            )
            observed = True
        if observed:
            self.fmo.train(epochs=self.config.fmo_epochs)
        self._round_index += 1
