"""Pareto-front utilities for the bi-objective (AR, PR) optimisation.

Conventions: points are (n, m) arrays where every objective is to be
*maximised* (callers negate minimisation objectives).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np


def pareto_mask(points: np.ndarray) -> np.ndarray:
    """Boolean mask of non-dominated rows of ``(n, 2)`` points (maximised).

    Domination is strict: equal rows all survive, and a row containing NaN
    is kept and dominates nothing.  A sort-and-sweep in O(n log n): after
    ordering by first objective descending (second descending within ties),
    a row is dominated when an earlier x-group reaches its second objective,
    or a row of its own x-group strictly exceeds it.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError("pareto_mask expects (n, 2) points")
    mask = np.ones(len(points), dtype=bool)
    rows = np.flatnonzero(~np.isnan(points).any(axis=1))
    order = rows[np.lexsort((-points[rows, 1], -points[rows, 0]))]
    x, y = points[order, 0], points[order, 1]
    new_group = np.ones(len(order), dtype=bool)
    new_group[1:] = x[1:] != x[:-1]
    group = np.cumsum(new_group) - 1
    top = y[new_group]  # each x-group's largest second objective
    best_before = np.maximum.accumulate(top)
    dominated = y < top[group]
    later = group > 0
    dominated[later] |= y[later] <= best_before[group[later] - 1]
    mask[order[dominated]] = False
    return mask


def pareto_indices(points: np.ndarray) -> np.ndarray:
    """Indices of non-dominated rows."""
    return np.flatnonzero(pareto_mask(points))


def nondominated_sort(points: np.ndarray) -> List[np.ndarray]:
    """NSGA-II fast non-dominated sorting into fronts (best first)."""
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    dominated_count = np.zeros(n, dtype=np.int64)
    dominates: List[List[int]] = [[] for _ in range(n)]
    for i in range(n):
        better_eq = np.all(points >= points[i], axis=1)
        strictly = np.any(points > points[i], axis=1)
        dominators = np.flatnonzero(better_eq & strictly)
        dominated_count[i] = len(dominators)
        for j in dominators:
            dominates[j].append(i)
    fronts: List[np.ndarray] = []
    current = np.flatnonzero(dominated_count == 0)
    while len(current):
        fronts.append(current)
        next_front = []
        for i in current:
            for j in dominates[i]:
                dominated_count[j] -= 1
                if dominated_count[j] == 0:
                    next_front.append(j)
        current = np.asarray(sorted(set(next_front)), dtype=np.int64)
    return fronts


def crowding_distance(points: np.ndarray) -> np.ndarray:
    """NSGA-II crowding distance (inf at the extremes of each objective)."""
    points = np.asarray(points, dtype=np.float64)
    n, m = points.shape
    distance = np.zeros(n)
    if n <= 2:
        return np.full(n, np.inf)
    for k in range(m):
        order = np.argsort(points[:, k])
        span = points[order[-1], k] - points[order[0], k]
        distance[order[0]] = distance[order[-1]] = np.inf
        if span <= 0:
            continue
        gaps = (points[order[2:], k] - points[order[:-2], k]) / span
        distance[order[1:-1]] += gaps
    return distance


def hypervolume_2d(points: np.ndarray, reference: Sequence[float]) -> float:
    """Dominated hypervolume for two maximised objectives.

    ``reference`` is the worst corner; points not dominating it contribute
    nothing.
    """
    points = np.asarray(points, dtype=np.float64)
    ref = np.asarray(reference, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError("hypervolume_2d expects (n, 2) points")
    useful = points[np.all(points > ref, axis=1)]
    if len(useful) == 0:
        return 0.0
    front = useful[pareto_mask(useful)]
    front = front[np.argsort(-front[:, 0])]  # descending first objective
    volume = 0.0
    prev_y = ref[1]
    for x, y in front:
        if y > prev_y:
            volume += (x - ref[0]) * (y - prev_y)
            prev_y = y
    return float(volume)


def select_diverse(points: np.ndarray, k: int) -> np.ndarray:
    """Pick up to ``k`` indices from the Pareto front, preferring spread."""
    front = pareto_indices(points)
    if len(front) <= k:
        return front
    distance = crowding_distance(points[front])
    order = np.argsort(-distance)
    return front[order[:k]]
