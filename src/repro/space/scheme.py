"""Compression schemes — sequences of strategies (§3.2).

The search space S is the tree of all strategy sequences with length <= L;
each path from the START node is one scheme.  Schemes are immutable value
objects, hashable by their strategy identifiers, so search history can live
in sets and dicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterator, Tuple

from .strategy import CompressionStrategy, _uncached_state

#: the paper's maximum scheme length (§4.1 sets L=5 for all searches)
MAX_SCHEME_LENGTH = 5


@dataclass(frozen=True)
class CompressionScheme:
    """An ordered sequence of compression strategies, executed left to right."""

    strategies: Tuple[CompressionStrategy, ...] = ()

    @property
    def length(self) -> int:
        return len(self.strategies)

    @property
    def is_empty(self) -> bool:
        return not self.strategies

    @cached_property
    def identifier(self) -> str:
        if self.is_empty:
            return "START"
        return " -> ".join(s.identifier for s in self.strategies)

    def __getstate__(self) -> Dict[str, object]:
        return _uncached_state(self)

    @property
    def total_param_step(self) -> float:
        """Sum of HP2 fractions — the nominal parameter reduction target."""
        return sum(s.param_step for s in self.strategies)

    def extend(self, strategy: CompressionStrategy) -> "CompressionScheme":
        """The child scheme in the search tree."""
        return CompressionScheme(strategies=self.strategies + (strategy,))

    def prefix(self, length: int) -> "CompressionScheme":
        return CompressionScheme(strategies=self.strategies[:length])

    def __iter__(self) -> Iterator[CompressionStrategy]:
        return iter(self.strategies)

    def __len__(self) -> int:
        return len(self.strategies)

    def __str__(self) -> str:
        return self.identifier


START = CompressionScheme()


def tree_size(num_strategies: int, max_length: int = MAX_SCHEME_LENGTH) -> int:
    """|S| = sum_{l=0..L} n^l — the number of schemes in the search tree."""
    return sum(num_strategies ** level for level in range(max_length + 1))
