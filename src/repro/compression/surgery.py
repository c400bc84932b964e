"""Structural model surgery: channel removal, rewiring and width scaling.

All pruning-based compression methods express their decisions as per-channel
scores over the model's :class:`~repro.models.pruning.PrunableUnit` list; the
functions here turn those scores into *real* structural edits — weight arrays
get smaller, batch-norm statistics are sliced, and downstream consumers have
their input channels removed.  Parameter and FLOP reductions are therefore
measured, never estimated.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..models.pruning import PrunableUnit
from ..nn import BatchNorm2d, Conv2d, Linear, Module


class SurgeryError(RuntimeError):
    """Raised when a structural edit cannot be applied."""


#: when True, :func:`prune_unit` re-checks the unit's channel wiring after
#: every edit (see :func:`check_unit`); toggled by `self_verifying_surgery`.
_SELF_VERIFY = False


def set_self_verify(enabled: bool) -> bool:
    """Enable/disable post-edit unit checks globally; returns previous value."""
    global _SELF_VERIFY
    previous = _SELF_VERIFY
    _SELF_VERIFY = bool(enabled)
    return previous


@contextlib.contextmanager
def self_verifying_surgery() -> Iterator[None]:
    """Context manager: every ``prune_unit`` verifies its wiring afterwards."""
    previous = set_self_verify(True)
    try:
        yield
    finally:
        set_self_verify(previous)


def _channel_count(module: Module, attr: str) -> Optional[int]:
    for name in (attr, attr.replace("channels", "features")):
        value = getattr(module, name, None)
        if value is not None:
            return int(value)
    return None


def check_unit(unit: PrunableUnit) -> None:
    """Verify a unit's producer/bn/consumer channel counts are consistent.

    Raises :class:`SurgeryError` on the first mismatch — the structural
    analogue of the V001/V002 rules in :mod:`repro.analysis`, applied right
    at the edit site so a botched rewiring fails loudly instead of surfacing
    later as a shape error deep inside a forward pass.
    """
    out = unit.out_channels
    if out <= 0:
        raise SurgeryError(f"{unit.name}: producer has {out} output channels")
    if unit.bn is not None and unit.bn.num_features != out:
        raise SurgeryError(
            f"{unit.name}: batch norm tracks {unit.bn.num_features} features "
            f"but producer emits {out} channels"
        )
    for consumer in unit.consumers:
        expected = _channel_count(consumer, "in_channels")
        if expected is not None and expected != out:
            raise SurgeryError(
                f"{unit.name}: consumer {type(consumer).__name__} expects "
                f"{expected} input channels but producer emits {out}"
            )


# --------------------------------------------------------------------------- #
# Channel shrink primitives
# --------------------------------------------------------------------------- #
def _require_nonempty(keep: np.ndarray, module: Module, role: str) -> np.ndarray:
    keep = np.asarray(keep)
    if keep.size == 0:
        raise SurgeryError(
            f"cannot remove every {role} channel of {type(module).__name__}"
        )
    return keep


def shrink_output(module: Module, keep: np.ndarray) -> None:
    """Remove output channels of ``module``, keeping indices ``keep``."""
    keep = _require_nonempty(keep, module, "output")
    custom = getattr(module, "shrink_output_channels", None)
    if custom is not None:
        custom(keep)
        return
    if isinstance(module, (Conv2d, Linear)):
        module.weight.data = np.ascontiguousarray(module.weight.data[keep])
        module.weight.grad = None
        if module.bias is not None:
            module.bias.data = np.ascontiguousarray(module.bias.data[keep])
            module.bias.grad = None
        return
    raise SurgeryError(f"cannot shrink output channels of {type(module).__name__}")


def shrink_input(module: Module, keep: np.ndarray) -> None:
    """Remove input channels of ``module``, keeping indices ``keep``."""
    keep = _require_nonempty(keep, module, "input")
    custom = getattr(module, "shrink_input_channels", None)
    if custom is not None:
        custom(keep)
        return
    if isinstance(module, (Conv2d, Linear)):
        module.weight.data = np.ascontiguousarray(module.weight.data[:, keep])
        module.weight.grad = None
        return
    raise SurgeryError(f"cannot shrink input channels of {type(module).__name__}")


def shrink_bn(bn: BatchNorm2d, keep: np.ndarray) -> None:
    """Slice a batch-norm's affine parameters and running statistics."""
    keep = _require_nonempty(keep, bn, "normalised")
    bn.gamma.data = np.ascontiguousarray(bn.gamma.data[keep])
    bn.beta.data = np.ascontiguousarray(bn.beta.data[keep])
    bn.gamma.grad = None
    bn.beta.grad = None
    bn._buffers["running_mean"] = np.ascontiguousarray(bn.running_mean[keep])
    bn._buffers["running_var"] = np.ascontiguousarray(bn.running_var[keep])
    object.__setattr__(bn, "running_mean", bn._buffers["running_mean"])
    object.__setattr__(bn, "running_var", bn._buffers["running_var"])


def prune_unit(unit: PrunableUnit, keep: np.ndarray) -> None:
    """Remove all channels of ``unit`` not listed in ``keep``."""
    keep = np.sort(np.asarray(keep, dtype=np.int64))
    if keep.size == 0:
        raise SurgeryError(f"cannot remove every channel of {unit.name}")
    shrink_output(unit.producer, keep)
    if unit.bn is not None:
        shrink_bn(unit.bn, keep)
    for consumer in unit.consumers:
        shrink_input(consumer, keep)
    if _SELF_VERIFY:
        check_unit(unit)


# --------------------------------------------------------------------------- #
# Cost accounting
# --------------------------------------------------------------------------- #
def _input_cost_per_channel(module: Module) -> int:
    custom = getattr(module, "input_cost_per_channel", None)
    if custom is not None:
        return int(custom())
    if isinstance(module, Conv2d):
        f, _, kh, kw = module.weight.shape
        return f * kh * kw
    if isinstance(module, Linear):
        return module.weight.shape[0]
    raise SurgeryError(f"no input-cost rule for {type(module).__name__}")


def params_per_channel(unit: PrunableUnit) -> int:
    """How many parameters disappear when one channel of ``unit`` is removed."""
    w = unit.producer.weight
    cost = int(np.prod(w.shape[1:]))  # one filter of the producer
    if getattr(unit.producer, "bias", None) is not None:
        cost += 1
    if unit.bn is not None:
        cost += 2  # gamma + beta (running stats are buffers, not parameters)
    for consumer in unit.consumers:
        cost += _input_cost_per_channel(consumer)
    return cost


# --------------------------------------------------------------------------- #
# Global greedy pruning
# --------------------------------------------------------------------------- #
@dataclass
class PruningPlan:
    """Outcome of planning a global prune: which channels each unit keeps."""

    keep: Dict[str, np.ndarray]
    params_removed: int


def greedy_removal(
    scores: np.ndarray,
    counts: Sequence[int],
    limits: Sequence[int],
    costs: Sequence[int],
    budget: float,
) -> Tuple[np.ndarray, int]:
    """The global pruning greedy, over every unit's channels at once.

    ``scores`` holds every unit's channel scores back to back, unit ``u``
    owning the next ``counts[u]`` of them.  Channels go in ascending score
    order across all units; the sort is stable, so tied scores go in
    (unit, channel) order.  A channel of unit ``u`` is eligible while fewer
    than ``counts[u] - limits[u]`` of its unit's channels came before it,
    and an eligible channel is taken while the eligible channels before it
    cost (``costs[u]`` parameters each) less than ``budget``.  Scores must
    not be NaN.

    Returns the boolean "dropped" mask over ``scores`` and the parameters
    removed.
    """
    counts = np.asarray(counts, dtype=np.int64)
    order = np.argsort(scores, kind="stable")
    unit = np.repeat(np.arange(len(counts)), counts)[order]
    # each channel's rank among its own unit's channels, in removal order
    by_unit = np.argsort(unit, kind="stable")
    rank = np.empty(len(order), dtype=np.int64)
    rank[by_unit] = np.arange(len(order)) - np.repeat(np.cumsum(counts) - counts, counts)
    eligible = rank < (counts - np.asarray(limits, dtype=np.int64))[unit]
    cost = np.where(eligible, np.asarray(costs, dtype=np.int64)[unit], 0)
    taken = eligible & (np.cumsum(cost) - cost < budget)
    dropped = np.zeros(len(order), dtype=bool)
    dropped[order[taken]] = True
    return dropped, int(cost[taken].sum())


def channel_limits(
    counts: Sequence[int], max_ratio: float, min_channels: int = 1
) -> List[int]:
    """Fewest channels each unit may keep: ``min_channels``, and at most
    ``max_ratio`` of its ``counts`` channels removed."""
    return [max(min_channels, int(np.ceil(n * (1.0 - max_ratio)))) for n in counts]


def plan_from_dropped(
    names: Sequence[str], counts: Sequence[int], dropped: np.ndarray, removed: int
) -> PruningPlan:
    """The :class:`PruningPlan` of a :func:`greedy_removal` result over the
    units ``names``, of ``counts`` channels each."""
    keep = {
        name: np.flatnonzero(~mask)
        for name, mask in zip(names, np.split(dropped, np.cumsum(counts)[:-1]))
    }
    return PruningPlan(keep=keep, params_removed=removed)


def plan_global_pruning(
    units: Sequence[PrunableUnit],
    scores: Dict[str, np.ndarray],
    param_budget: int,
    max_ratio: float = 0.9,
    min_channels: int = 1,
) -> PruningPlan:
    """Plan the removal of the lowest-scored channels across all units.

    Channels are removed in ascending score order (globally; tied scores in
    (unit, channel) order) until at least ``param_budget`` parameters would
    be removed, while each unit keeps at least ``min_channels`` channels and
    loses at most ``max_ratio`` of them.  See :func:`greedy_removal`.
    """
    unit_scores = [np.asarray(scores[unit.name], dtype=np.float64) for unit in units]
    for unit, values in zip(units, unit_scores):
        if values.shape[0] != unit.out_channels:
            raise SurgeryError(
                f"score length {values.shape[0]} != channels "
                f"{unit.out_channels} for {unit.name}"
            )
    counts = [unit.out_channels for unit in units]
    dropped, removed = greedy_removal(
        np.concatenate([np.empty(0), *unit_scores]),
        counts,
        channel_limits(counts, max_ratio, min_channels),
        [params_per_channel(u) for u in units],
        param_budget,
    )
    return plan_from_dropped([unit.name for unit in units], counts, dropped, removed)


def execute_plan(units: Sequence[PrunableUnit], plan: PruningPlan) -> None:
    """Apply a :class:`PruningPlan` to the model the units belong to."""
    for unit in units:
        kept = plan.keep[unit.name]
        if kept.size < unit.out_channels:
            prune_unit(unit, kept)


def prune_in_rounds(
    count_params: Callable[[], int],
    prune_once: Callable[[int], int],
    param_budget: int,
    rounds: int = 3,
) -> int:
    """Prune, re-measure and top up until ``param_budget`` parameters are gone.

    ``prune_once(remaining)`` prunes toward ``remaining`` more parameters
    and returns the removal it planned; 0 ends the rounds.  They also end
    once the measured removal is within 2% of the budget (or one parameter)
    and after ``rounds`` passes.  Returns the parameters actually removed,
    as ``count_params`` measures them.
    """
    start = count_params()
    for _ in range(max(rounds, 1)):
        remaining = param_budget - (start - count_params())
        if remaining <= max(0.02 * param_budget, 1) or prune_once(remaining) == 0:
            break
    return start - count_params()


def prune_by_scores(
    model: Module,
    scores: Dict[str, np.ndarray],
    param_budget: int,
    max_ratio: float = 0.9,
    score_fn: Optional[Callable[[PrunableUnit], np.ndarray]] = None,
    rounds: int = 3,
) -> int:
    """Globally prune the lowest-scored channels until ``param_budget`` params go.

    Planning costs are estimated on the *current* structure; in chain
    topologies (VGG) simultaneous removals interact, so the prune iterates
    (:func:`prune_in_rounds`): plan, execute, re-measure, and top up with
    fresh scores (``score_fn`` when given, else L2 norms) until the measured
    removal reaches the budget or ``rounds`` passes have run.

    Returns the number of parameters actually removed (measured).
    """
    def prune_once(remaining: int) -> int:
        nonlocal scores
        units = model.pruning_units()
        if scores is None:
            scores = {u.name: (score_fn or filter_l2_norms)(u) for u in units}
        plan = plan_global_pruning(units, scores, remaining, max_ratio=max_ratio)
        execute_plan(units, plan)
        scores = None  # later rounds must re-score the new structure
        return plan.params_removed

    return prune_in_rounds(model.num_parameters, prune_once, param_budget, rounds)


# --------------------------------------------------------------------------- #
# Scoring criteria shared by several methods
# --------------------------------------------------------------------------- #
def filter_l1_norms(unit: PrunableUnit) -> np.ndarray:
    """L1 norm of each producer filter."""
    w = unit.producer.weight.data
    return np.abs(w).reshape(w.shape[0], -1).sum(axis=1)


def filter_l2_norms(unit: PrunableUnit) -> np.ndarray:
    """L2 norm of each producer filter."""
    w = unit.producer.weight.data
    return np.sqrt((w ** 2).reshape(w.shape[0], -1).sum(axis=1))


def bn_scale_magnitudes(unit: PrunableUnit) -> np.ndarray:
    """|gamma| of the unit's batch norm (network-slimming criterion)."""
    if unit.bn is None:
        return filter_l2_norms(unit)
    return np.abs(unit.bn.gamma.data)


# --------------------------------------------------------------------------- #
# Width scaling (used to build distillation students)
# --------------------------------------------------------------------------- #
def drop_uniformly(
    units: Sequence,
    channels: Callable[[object], int],
    cost: Callable[[object], int],
    drop: Callable[[object, int], None],
    param_budget: int,
    max_ratio: float,
) -> int:
    """Drop the same fraction of every unit's channels, rounded down.

    The fraction is ``param_budget`` over all units' ``cost * channels``
    parameters, at most ``max_ratio``, and every unit keeps a channel.
    ``drop(unit, n)`` removes ``n`` channels of ``unit``.  Returns the
    parameters removed, at each unit's cost just before its drop.
    """
    total_prunable = sum(cost(u) * channels(u) for u in units)
    fraction = min(max_ratio, param_budget / max(total_prunable, 1))
    removed = 0
    for unit in units:
        n = channels(unit)
        n_drop = min(int(np.floor(n * fraction)), n - 1)
        if n_drop <= 0:
            continue
        unit_cost = cost(unit)
        drop(unit, n_drop)
        removed += n_drop * unit_cost
    return removed


#: most of a unit's channels :func:`uniform_width_scale` removes by default
UNIFORM_MAX_RATIO = 0.95


def uniform_width_scale(
    model: Module, param_budget: int, max_ratio: float = UNIFORM_MAX_RATIO
) -> int:
    """Shrink every prunable unit proportionally until ``param_budget`` params go.

    Channels with the smallest L2 norms are dropped first within each unit.
    Returns parameters actually removed.
    """
    units = model.pruning_units()
    if not units:
        return 0

    def drop(unit: PrunableUnit, n_drop: int) -> None:
        prune_unit(unit, np.sort(np.argsort(filter_l2_norms(unit))[n_drop:]))

    removed = drop_uniformly(
        units, lambda u: u.out_channels, params_per_channel, drop, param_budget, max_ratio
    )
    # Rounding down per unit can undershoot the budget; top up with a global
    # greedy pass over the remaining smallest-norm channels.
    if removed < param_budget:
        units = model.pruning_units()
        scores = {u.name: filter_l2_norms(u) for u in units}
        plan = plan_global_pruning(units, scores, param_budget - removed, max_ratio=max_ratio)
        execute_plan(units, plan)
        removed += plan.params_removed
    return removed
