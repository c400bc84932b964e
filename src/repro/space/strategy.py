"""Compression strategies — method + concrete hyperparameter setting (§3.2).

A :class:`CompressionStrategy` is one atom of the search space; the full
:class:`StrategySpace` enumerates the cartesian product of Table 1's grids
(4,230 strategies with our HP2 reconstruction).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..compression import EXTENSION_METHODS, METHODS, CompressionMethod
from .hyperparams import HP_GRID, METHOD_HPS


def _num_eq(raw: str, candidate: object) -> bool:
    """True when ``raw`` parses to the same number as ``candidate``."""
    try:
        return float(raw) == float(candidate)
    except (TypeError, ValueError):
        return False


@dataclass(frozen=True)
class CompressionStrategy:
    """One compression method under one specific hyperparameter setting."""

    method_label: str
    hp_items: Tuple[Tuple[str, object], ...]  # sorted (name, value) pairs
    index: int = -1  # position inside the owning StrategySpace

    @property
    def hp(self) -> Dict[str, object]:
        return dict(self.hp_items)

    @property
    def method(self) -> CompressionMethod:
        if self.method_label in METHODS:
            return METHODS[self.method_label]
        return EXTENSION_METHODS[self.method_label]

    @property
    def identifier(self) -> str:
        inner = ",".join(f"{k}={v}" for k, v in self.hp_items)
        return f"{self.method_label}[{inner}]"

    @property
    def param_step(self) -> float:
        """The HP2 value (fraction of P(M) this strategy removes), or 0."""
        return float(self.hp.get("HP2", 0.0))

    def __str__(self) -> str:
        return self.identifier


def make_strategy(method_label: str, hp: Dict[str, object], index: int = -1) -> CompressionStrategy:
    """Construct a strategy with validated, canonically ordered hyperparameters."""
    expected = METHOD_HPS[method_label]
    missing = [name for name in expected if name not in hp]
    if missing:
        raise ValueError(f"{method_label} missing hyperparameters {missing}")
    items = tuple((name, hp[name]) for name in expected)
    return CompressionStrategy(method_label=method_label, hp_items=items, index=index)


class StrategySpace:
    """The enumerated set C of compression strategies (Table 1).

    Iteration order is deterministic: methods in label order, grids in the
    order declared in :data:`~repro.space.hyperparams.METHOD_HPS`.
    """

    def __init__(
        self,
        method_labels: Optional[Sequence[str]] = None,
        include_quantization: bool = False,
    ):
        if method_labels is None:
            method_labels = sorted(METHODS)
            if include_quantization:
                method_labels = method_labels + sorted(EXTENSION_METHODS)
        self.method_labels = list(method_labels)
        self._strategies: List[CompressionStrategy] = []
        self._by_id: Dict[str, CompressionStrategy] = {}
        for label in self.method_labels:
            hp_names = METHOD_HPS[label]
            for values in itertools.product(*(HP_GRID[name] for name in hp_names)):
                strategy = CompressionStrategy(
                    method_label=label,
                    hp_items=tuple(zip(hp_names, values)),
                    index=len(self._strategies),
                )
                self._strategies.append(strategy)
                self._by_id[strategy.identifier] = strategy
        #: read-only float64 array of every strategy's ``param_step`` (HP2)
        self.param_steps = np.array([s.param_step for s in self._strategies], dtype=np.float64)
        self.param_steps.setflags(write=False)
        self._hp_columns: Dict[str, Tuple[np.ndarray, Dict[str, np.ndarray]]] = {}

    def __len__(self) -> int:
        return len(self._strategies)

    def __iter__(self) -> Iterator[CompressionStrategy]:
        return iter(self._strategies)

    def __getitem__(self, index: int) -> CompressionStrategy:
        return self._strategies[index]

    def by_identifier(self, identifier: str) -> CompressionStrategy:
        return self._by_id[identifier]

    def of_method(self, label: str) -> List[CompressionStrategy]:
        return [s for s in self._strategies if s.method_label == label]

    def hp_columns(self, label: str) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
        """``label``'s strategy indices and one read-only column per HP.

        Numeric hyperparameters are float64 columns, categorical ones string
        columns, each aligned with the indices (which follow ``of_method``).
        Built on first use and kept on the space.
        """
        if label not in self._hp_columns:
            members = self.of_method(label)
            indices = np.array([s.index for s in members], dtype=np.int64)
            columns: Dict[str, np.ndarray] = {}
            for position, (name, value) in enumerate(members[0].hp_items if members else ()):
                raw = [s.hp_items[position][1] for s in members]
                dtype = None if isinstance(value, str) else np.float64
                columns[name] = np.array(raw, dtype=dtype)
            for array in (indices, *columns.values()):
                array.setflags(write=False)
            self._hp_columns[label] = (indices, columns)
        return self._hp_columns[label]

    def restrict(self, method_labels: Sequence[str]) -> "StrategySpace":
        """A smaller space over the given methods (AutoMC-MultipleSource)."""
        return StrategySpace(method_labels=list(method_labels))

    def parse_strategy(self, text: str) -> CompressionStrategy:
        """Parse a strategy identifier like ``C2[HP1=0.3,HP2=0.2,...]``.

        Values are matched against the grids, so ``0.3`` and ``0.30`` both
        resolve; raises ``KeyError`` for strategies outside this space.
        """
        from .hyperparams import HP_GRID

        text = text.strip()
        if "[" not in text or not text.endswith("]"):
            raise ValueError(f"malformed strategy identifier {text!r}")
        label, inner = text[:-1].split("[", 1)
        label = label.strip()
        hp: Dict[str, object] = {}
        for item in inner.split(","):
            name, _, raw = item.partition("=")
            name = name.strip()
            raw = raw.strip()
            if name not in HP_GRID:
                raise ValueError(f"unknown hyperparameter {name!r} in {text!r}")
            for candidate in HP_GRID[name]:
                if str(candidate) == raw or (
                    not isinstance(candidate, str)
                    and _num_eq(raw, candidate)
                ):
                    hp[name] = candidate
                    break
            else:
                raise ValueError(f"value {raw!r} not in grid of {name}")
        return self.by_identifier(make_strategy(label, hp).identifier)

    def parse_scheme(self, text: str):
        """Parse a scheme identifier (strategies joined by ``->``)."""
        from .scheme import CompressionScheme

        text = text.strip()
        if text in ("", "START"):
            return CompressionScheme()
        parts = [part for part in text.split("->") if part.strip()]
        return CompressionScheme(tuple(self.parse_strategy(p) for p in parts))

    def neighbor(self, strategy: CompressionStrategy, rng) -> CompressionStrategy:
        """A strategy one grid step away in a random hyperparameter.

        Used by the evolutionary baseline's mutation operator; falls back to
        the input strategy when no move is possible.
        """
        from .hyperparams import HP_GRID

        hp = strategy.hp
        names = list(hp)
        rng.shuffle(names)
        for name in names:
            grid = HP_GRID[name]
            position = grid.index(hp[name])
            moves = [p for p in (position - 1, position + 1) if 0 <= p < len(grid)]
            if not moves:
                continue
            new_hp = dict(hp)
            new_hp[name] = grid[int(rng.choice(moves))]
            candidate = make_strategy(strategy.method_label, new_hp)
            found = self._by_id.get(candidate.identifier)
            if found is not None:
                return found
        return strategy

    def __repr__(self) -> str:
        return f"StrategySpace({len(self)} strategies over {self.method_labels})"
