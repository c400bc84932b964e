"""AMC-style solver: DDPG-lite layer-by-layer sparsity agent (He et al., 2018).

AMC searches compression *step by step*: at each position the agent observes
a small state vector (position, cumulative nominal PR, remaining headroom,
last action) and emits a continuous sparsity action which is clipped to the
remaining nominal-PR headroom — the paper's budget-clipped action space.
The action is snapped to the nearest strategy in the discrete space by
``param_step``, so every episode produces a valid scheme; a round's episodes
are evaluated as one batch.

The agent is a deterministic actor plus a Q-critic on :mod:`repro.nn`
(DDPG without target networks or a persistent replay across runs — "lite"):
the critic regresses episode rewards (the shared ``AR - 2·max(0, γ-PR)``
scalarisation) on (state, action), and the actor ascends the critic with
annealed Gaussian exploration noise on top.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..core.evaluator import EvaluationResult
from ..core.search import SearchStrategy
from ..core.solver import Solver, register_solver
from ..nn import Adam, Linear, Module, Tensor
from ..space.scheme import CompressionScheme

#: cap on cumulative nominal PR — matches random_scheme / the GA guard
_MAX_NOMINAL = 0.9


class _Actor(Module):
    """state (4,) -> action in [0, _MAX_NOMINAL]."""

    def __init__(self, hidden: int, rng: np.random.Generator):
        super().__init__()
        self.fc1 = Linear(4, hidden, rng=rng)
        self.fc2 = Linear(hidden, 1, rng=rng)

    def forward(self, state: Tensor) -> Tensor:
        raw = self.fc2(self.fc1(state).tanh()).sigmoid()
        return raw * _MAX_NOMINAL


class _Critic(Module):
    """Q(state, action) -> scalar value."""

    def __init__(self, hidden: int, rng: np.random.Generator):
        super().__init__()
        self.fc_s = Linear(4, hidden, rng=rng)
        self.fc_a = Linear(1, hidden, rng=rng)
        self.out = Linear(hidden, 1, rng=rng)

    def forward(self, state: Tensor, action: Tensor) -> Tensor:
        return self.out((self.fc_s(state) + self.fc_a(action)).tanh())


@register_solver("amc", label="AMC")
class AMCSolver(Solver):
    """Layer-by-layer DDPG-lite sparsity agent over the strategy space."""

    def __init__(
        self,
        strategy: SearchStrategy,
        episodes_per_round: int = 4,
        hidden: int = 16,
        actor_lr: float = 1e-2,
        critic_lr: float = 1e-2,
        noise: float = 0.15,
        noise_decay: float = 0.95,
        replay_size: int = 64,
    ):
        super().__init__(strategy)
        self.episodes_per_round = episodes_per_round
        self.noise_scale = noise
        self.noise_decay = noise_decay
        self.replay_size = replay_size
        net_rng = np.random.default_rng(strategy.seed)
        self.actor = _Actor(hidden, net_rng)
        self.critic = _Critic(hidden, net_rng)
        self.actor_opt = Adam(self.actor.parameters(), lr=actor_lr)
        self.critic_opt = Adam(self.critic.parameters(), lr=critic_lr)
        #: (state, clipped action, episode reward) transitions
        self._replay: List[Tuple[np.ndarray, float, float]] = []
        #: the round's (scheme, transitions) episodes awaiting rewards
        self._pending: List[Tuple[CompressionScheme, List[Tuple[np.ndarray, float]]]] = []

    # ------------------------------------------------------------------ #
    def _state_vector(self, position: int, cumulative: float, last: float) -> np.ndarray:
        return np.array(
            [
                position / self.max_length,
                cumulative,
                _MAX_NOMINAL - cumulative,
                last,
            ],
            dtype=np.float32,
        )

    def _rollout(self) -> Tuple[CompressionScheme, List[Tuple[np.ndarray, float]]]:
        """One episode: build a scheme position by position."""
        scheme = CompressionScheme()
        transitions: List[Tuple[np.ndarray, float]] = []
        cumulative = 0.0
        last = 0.0
        for position in range(self.max_length):
            state = self._state_vector(position, cumulative, last)
            action = float(self.actor(Tensor(state[None, :])).data[0, 0])
            action += float(self.rng.normal(0.0, self.noise_scale))
            remaining = _MAX_NOMINAL - cumulative
            # Budget clip: the action can never exceed the remaining
            # nominal-PR headroom (AMC's constrained action space).
            action = float(np.clip(action, 0.0, remaining))
            usable = self.space.param_steps <= remaining + 1e-9
            if not usable.any():
                break
            distance = np.where(
                usable, np.abs(self.space.param_steps - action), np.inf
            )
            index = int(np.argmin(distance))
            chosen = self.space[index]
            scheme = scheme.extend(chosen)
            transitions.append((state, action))
            cumulative += chosen.param_step
            last = chosen.param_step
            # stochastic stop: deeper schemes only while headroom remains
            if cumulative >= self.gamma and self.rng.random() < 0.5:
                break
        return scheme, transitions

    # ------------------------------------------------------------------ #
    def propose(self, state: SearchStrategy) -> List[CompressionScheme]:
        episodes = []
        for _ in range(self.episodes_per_round):
            scheme, transitions = self._rollout()
            if scheme.is_empty or not transitions:
                continue
            episodes.append((scheme, transitions))
        self._pending = episodes
        self.noise_scale *= self.noise_decay
        return [scheme for scheme, _ in episodes]

    def observe(self, results: List[EvaluationResult]) -> None:
        by_id = {r.scheme.identifier: r for r in results}
        for scheme, transitions in self._pending:
            result = by_id.get(scheme.identifier)
            if result is None:  # budget-pruned episode: no reward signal
                continue
            reward = self.scalar_reward(result)
            for state, action in transitions:
                self._replay.append((state, action, reward))
        self._replay = self._replay[-self.replay_size:]
        if not self._replay:
            return
        states = Tensor(np.stack([s for s, _, _ in self._replay]))
        actions = Tensor(
            np.array([[a] for _, a, _ in self._replay], dtype=np.float32)
        )
        returns = Tensor(
            np.array([[r] for _, _, r in self._replay], dtype=np.float32)
        )
        # Critic: MSE on the observed episode rewards.
        diff = self.critic(states, actions) - returns
        critic_loss = (diff * diff).mean()
        self.critic_opt.zero_grad()
        self.actor_opt.zero_grad()
        critic_loss.backward()
        self.critic_opt.step()
        # Actor: deterministic policy gradient through the (frozen) critic —
        # only the actor's optimizer steps, so critic weights are untouched.
        actor_loss = self.critic(states, self.actor(states)).mean() * -1.0
        self.critic_opt.zero_grad()
        self.actor_opt.zero_grad()
        actor_loss.backward()
        self.actor_opt.step()
        self._round_attrs = {
            "replay": len(self._replay),
            "noise": round(self.noise_scale, 6),
        }
