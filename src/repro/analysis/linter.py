"""Static linting of compression schemes before any evaluator cost is paid.

Search budgets are the scarce resource in AutoMC (simulated GPU-hours), so a
scheme that is *guaranteed* to fail or to waste its steps should be rejected
before `Evaluator` backends charge for it — the AMC-style "reject invalid
actions early" discipline.  :func:`lint_scheme` validates a
:class:`~repro.space.scheme.CompressionScheme` purely from its strategy
metadata (no model, no dataset):

* ``L001`` unknown-method, ``L002`` unknown-hyperparameter,
  ``L003`` missing-hyperparameter — the strategy does not describe any
  executable method (errors);
* ``L005`` invalid-value — a hyperparameter is outside its sane domain,
  e.g. HP2 outside (0, 1) (error); ``L004`` off-grid-value — legal but not a
  Table 1 grid point (warning: still executable, used by the human-baseline
  grids);
* ``L006`` scheme-too-long — exceeds the search-tree depth L (error);
* ``L007`` over-unity-compression — the nominal HP2 targets sum to >= 100%
  of the original parameters, which no execution can satisfy (error);
  ``L008`` aggressive-compression — the sum is above the feasibility bound
  built-in searches enforce (warning);
* ``L009`` duplicate-quantization — a quantizing method (C7 INQ, C8 PTQ)
  applied twice is a guaranteed no-op or an outright execution failure:
  the model is already in quantized form after the first pass (error);
* ``L010`` repeated-strategy — the same strategy twice in a row likely
  re-buys work already done (warning);
* ``L011`` structural-after-quantization — any later strategy retrains or
  rewrites weights and silently destroys the quantized format (warning);
* ``L012`` prune-after-factorization — factorised layers leave the prunable
  set, so later pruning has fewer units to work with (warning).

When a :class:`~repro.analysis.costmodel.Budget` and a
:class:`~repro.analysis.costmodel.SchemeCostModel` are supplied, the linter
additionally runs the ``S###`` budget-feasibility rules (S001 params, S002
FLOPs, S003 activation memory, S004 latency proxy, S005 weight memory at the
effective quantized width): the scheme is abstractly
interpreted and every predicted cost exceeding its ceiling is an error —
still without paying any evaluation cost.

:class:`SchemeRejected` is the exception evaluators raise when a lint error
fires; it carries the full report so searches can log *why* a candidate was
discarded without charging budget.
"""

from __future__ import annotations

from numbers import Number
from typing import TYPE_CHECKING, Optional

from ..space.hyperparams import HP_GRID, METHOD_HPS
from ..space.scheme import MAX_SCHEME_LENGTH, CompressionScheme
from .diagnostics import Report

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from .costmodel import Budget, SchemeCostModel

#: nominal total HP2 beyond which built-in searches refuse to extend schemes
AGGRESSIVE_TOTAL_STEP = 0.9
#: factorisation methods whose layers drop out of the prunable set
_FACTORIZING = {"C5", "C6"}
#: pruning methods that consume PrunableUnits
_PRUNING = {"C2", "C3", "C4"}
#: quantizing methods — at most one per scheme, and nothing structural after
QUANTIZING_METHODS = {"C7", "C8"}
#: open-interval (0, 1) hyperparameters
_UNIT_INTERVAL_HPS = {"HP1", "HP2", "HP6", "HP7", "HP9", "HP13", "HP18"}
#: strictly positive hyperparameters
_POSITIVE_HPS = {"HP4", "HP5", "HP10", "HP14", "HP15", "HP17", "HP20"}


class SchemeRejected(ValueError):
    """A scheme failed linting and was rejected before evaluation."""

    def __init__(self, scheme: CompressionScheme, report: Report):
        self.scheme = scheme
        self.report = report
        rules = ", ".join(sorted({d.rule for d in report.errors}))
        super().__init__(
            f"scheme {scheme.identifier!r} rejected by linter ({rules})"
        )


def _check_value(report: Report, where: str, name: str, value: object) -> None:
    grid = HP_GRID.get(name)
    if grid is None:
        return  # unknown hp already reported as L002
    if isinstance(grid[0], str):
        if value not in grid:
            report.error(
                "L005", where, f"{name} categorical value is not recognised",
                expected=f"one of {grid}", actual=value,
            )
        return
    if not isinstance(value, Number):
        report.error(
            "L005", where, f"{name} must be numeric", expected="number", actual=value,
        )
        return
    value_f = float(value)
    if name in _UNIT_INTERVAL_HPS and not 0.0 < value_f < 1.0:
        report.error(
            "L005", where, f"{name} must lie strictly inside (0, 1)",
            expected="(0, 1)", actual=value,
        )
        return
    if name in _POSITIVE_HPS and value_f <= 0:
        report.error(
            "L005", where, f"{name} must be positive", expected="> 0", actual=value,
        )
        return
    if not any(
        not isinstance(candidate, str) and float(candidate) == value_f
        for candidate in grid
    ):
        report.warn(
            "L004", where, f"{name} is not a Table 1 grid point",
            expected=f"one of {grid}", actual=value,
        )


def lint_scheme(
    scheme: CompressionScheme,
    max_length: int = MAX_SCHEME_LENGTH,
    name: Optional[str] = None,
    budget: Optional["Budget"] = None,
    cost_model: Optional["SchemeCostModel"] = None,
) -> Report:
    """Statically validate a compression scheme; see the module docstring.

    ``budget`` + ``cost_model`` enable the ``S###`` feasibility rules on top
    of the metadata-only ``L###`` checks.
    """
    report = Report(subject=name or scheme.identifier)
    if scheme.is_empty:
        report.note("L000", "", "empty scheme (START) — nothing to lint")
        return report

    if scheme.length > max_length:
        report.error(
            "L006", "", "scheme exceeds the maximum search depth",
            expected=f"<= {max_length} strategies", actual=scheme.length,
        )

    quantized_at: Optional[int] = None
    factorized_at: Optional[int] = None
    for position, strategy in enumerate(scheme.strategies):
        where = f"step {position + 1} ({strategy.method_label})"
        expected_hps = METHOD_HPS.get(strategy.method_label)
        if expected_hps is None:
            report.error(
                "L001", where, "unknown compression method",
                expected=f"one of {sorted(METHOD_HPS)}", actual=strategy.method_label,
            )
            continue
        hp = strategy.hp
        for hp_name in hp:
            if hp_name not in expected_hps:
                report.error(
                    "L002", where,
                    f"{hp_name} is not a hyperparameter of {strategy.method_label}",
                    expected=f"subset of {list(expected_hps)}", actual=hp_name,
                )
        for hp_name in expected_hps:
            if hp_name not in hp:
                report.error(
                    "L003", where, f"{hp_name} is required but missing",
                    expected=hp_name, actual=None,
                )
        for hp_name, value in hp.items():
            if hp_name in expected_hps:
                _check_value(report, where, hp_name, value)

        if strategy.method_label in QUANTIZING_METHODS:
            if quantized_at is not None:
                report.error(
                    "L009", where,
                    "quantization applied twice — the model is already in "
                    "quantized form after the first pass",
                )
            quantized_at = position
        elif quantized_at is not None:
            report.warn(
                "L011", where,
                "strategy after quantization retrains or rewrites weights and "
                f"destroys the quantized format from step {quantized_at + 1}",
            )
        if strategy.method_label in _FACTORIZING:
            factorized_at = position
        elif (
            factorized_at is not None
            and strategy.method_label in _PRUNING
        ):
            report.warn(
                "L012", where,
                "pruning after factorisation: factorised layers are no longer "
                "prunable, so this step works on a reduced unit set",
            )
        if (
            position > 0
            and scheme.strategies[position - 1].identifier == strategy.identifier
        ):
            report.warn(
                "L010", where,
                "identical strategy repeated back-to-back — likely wasted budget",
            )

    total = scheme.total_param_step
    if total >= 1.0:
        report.error(
            "L007", "",
            "nominal HP2 targets remove >= 100% of the original parameters",
            expected="< 1.0", actual=round(total, 3),
        )
    elif total > AGGRESSIVE_TOTAL_STEP:
        report.warn(
            "L008", "",
            "nominal compression target is beyond the feasibility bound "
            "built-in searches enforce",
            expected=f"<= {AGGRESSIVE_TOTAL_STEP}", actual=round(total, 3),
        )

    if budget is not None and cost_model is not None and not budget.is_null:
        # Only S-check schemes that are structurally executable — abstract
        # interpretation needs valid strategies.
        if not report.errors:
            from .costmodel import check_budget

            check_budget(report, scheme, budget, cost_model)
    return report
