"""RL baseline (§4.1): REINFORCE with a recurrent controller.

The controller is a small recurrent network built on :mod:`repro.nn`.  At
each position it consumes the embedding of the previous method, updates its
hidden state, and emits:

* a *continue/stop* head (schemes may be shorter than L);
* a *method* head over the six compression methods;
* one head per hyperparameter of the chosen method over its value grid.

The reward scalarises the two objectives — ``AR - 2 * max(0, γ - PR)`` — and
policy gradients flow through the sampled log-probabilities with a moving
average baseline.  This matches the classic non-progressive RL-NAS setup the
paper compares against: complete schemes are sampled, evaluated and
reinforced; no intermediate information is reused.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..nn import Adam, Linear, Module, Parameter, Tensor
from ..nn import functional as F
from ..space.hyperparams import HP_GRID, METHOD_HPS
from ..space.scheme import CompressionScheme
from ..space.strategy import make_strategy
from ..core.evaluator import EvaluationResult
from ..core.search import SearchStrategy
from ..core.solver import Solver, register_solver


class ControllerRNN(Module):
    """Vanilla RNN cell with per-decision softmax heads."""

    def __init__(self, method_labels: List[str], hidden: int = 32, seed: int = 0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.method_labels = list(method_labels)
        self.hidden_size = hidden
        n_methods = len(self.method_labels)
        # token embeddings: one per method plus a start token
        self.token = Parameter(rng.normal(0, 0.1, size=(n_methods + 1, hidden)))
        self.w_x = Linear(hidden, hidden, rng=rng)
        self.w_h = Linear(hidden, hidden, rng=rng)
        self.stop_head = Linear(hidden, 2, rng=rng)
        self.method_head = Linear(hidden, n_methods, rng=rng)
        self.hp_heads: Dict[str, Linear] = {}
        for label in self.method_labels:
            for hp in METHOD_HPS[label]:
                if hp not in self.hp_heads:
                    head = Linear(hidden, len(HP_GRID[hp]), rng=rng)
                    self.hp_heads[hp] = head
                    self.add_module(f"hp_{hp}", head)

    def step(self, token_index: int, hidden: Tensor) -> Tensor:
        x = self.token[np.array([token_index])]
        return (self.w_x(x) + self.w_h(hidden)).tanh()


@register_solver("rl", label="RL")
class RLSolver(Solver):
    """Non-progressive REINFORCE over complete schemes.

    The controller is only updated after each batch, so sampling the whole
    batch first is independent of the evaluations and an engine can fan the
    batch out across workers.
    """

    def __init__(
        self,
        strategy: SearchStrategy,
        batch_size: int = 4,
        learning_rate: float = 5e-3,
    ):
        super().__init__(strategy)
        self.controller = ControllerRNN(self.space.method_labels, seed=self.seed)
        self.optimizer = Adam(self.controller.parameters(), lr=learning_rate)
        self.batch_size = batch_size
        self._baseline = 0.0
        self._baseline_initialised = False
        self._pending: List[Tuple[CompressionScheme, List[Tensor]]] = []

    # ------------------------------------------------------------------ #
    def _sample_scheme(self) -> Tuple[CompressionScheme, List[Tensor]]:
        """Sample one scheme, returning the log-probs of every decision."""
        hidden = Tensor(np.zeros((1, self.controller.hidden_size)))
        token = len(self.controller.method_labels)  # start token
        scheme = CompressionScheme()
        log_probs: List[Tensor] = []
        for position in range(self.max_length):
            hidden = self.controller.step(token, hidden)
            if position > 0:
                stop_logits = self.controller.stop_head(hidden)
                stop_probs = F.softmax(stop_logits, axis=-1)
                stop = int(self.rng.random() < stop_probs.data[0, 1])
                log_probs.append(F.log_softmax(stop_logits, axis=-1)[0, stop])
                if stop:
                    break
            method_logits = self.controller.method_head(hidden)
            probs = F.softmax(method_logits, axis=-1).data[0]
            method_index = int(self.rng.choice(len(probs), p=probs / probs.sum()))
            log_probs.append(F.log_softmax(method_logits, axis=-1)[0, method_index])
            label = self.controller.method_labels[method_index]

            hp: Dict[str, object] = {}
            for name in METHOD_HPS[label]:
                head = self.controller.hp_heads[name]
                logits = head(hidden)
                hp_probs = F.softmax(logits, axis=-1).data[0]
                value_index = int(self.rng.choice(len(hp_probs), p=hp_probs / hp_probs.sum()))
                log_probs.append(F.log_softmax(logits, axis=-1)[0, value_index])
                hp[name] = HP_GRID[name][value_index]

            strategy = self.space.by_identifier(make_strategy(label, hp).identifier)
            if scheme.total_param_step + strategy.param_step > 0.9:
                break
            scheme = scheme.extend(strategy)
            token = method_index
        return scheme, log_probs

    def _reward(self, result: EvaluationResult) -> float:
        return self.scalar_reward(result)

    # ------------------------------------------------------------------ #
    def propose(self, state: SearchStrategy) -> List[CompressionScheme]:
        sampled: List[Tuple[CompressionScheme, List[Tensor]]] = []
        for _ in range(self.batch_size):
            scheme, log_probs = self._sample_scheme()
            if scheme.is_empty or not log_probs:
                continue
            sampled.append((scheme, log_probs))
        self._pending = sampled
        return [scheme for scheme, _ in sampled]

    def observe(self, results: List[EvaluationResult]) -> None:
        # Statically-infeasible samples were dropped by the driver for free —
        # the controller still consumed its decisions, but no evaluation cost
        # was charged and no gradient flows from the sample.
        by_id = {r.scheme.identifier: r for r in results}
        batch: List[Tuple[List[Tensor], float]] = [
            (log_probs, self._reward(by_id[scheme.identifier]))
            for scheme, log_probs in self._pending
            if scheme.identifier in by_id
        ]
        if not batch:
            return
        rewards = np.array([r for _, r in batch])
        if not self._baseline_initialised:
            self._baseline = float(rewards.mean())
            self._baseline_initialised = True
        # REINFORCE with moving-average baseline.
        loss = None
        for log_probs, reward in batch:
            advantage = reward - self._baseline
            total_logp = log_probs[0]
            for lp in log_probs[1:]:
                total_logp = total_logp + lp
            term = total_logp * (-advantage)
            loss = term if loss is None else loss + term
        loss = loss * (1.0 / len(batch))
        self.optimizer.zero_grad()
        loss.backward()
        self.optimizer.step()
        self._baseline = 0.9 * self._baseline + 0.1 * float(rewards.mean())
        self._round_attrs = {"mean_reward": float(rewards.mean())}
