"""Static analysis and runtime sanitizers for models and schemes.

Three passes, one severity model (``ok``/``warning``/``error``), structured
:class:`Diagnostic` findings with stable rule ids:

* **Static graph verifier** (:func:`verify_model`) — traces any ``Module``
  tree into a :class:`~repro.analysis.graph.ModelGraph` and runs shape /
  channel inference without a forward pass (``V###`` rules).
* **Scheme linter** (:func:`lint_scheme`) — validates compression schemes
  against the search space before evaluators charge simulated GPU-hours
  (``L###`` rules); :class:`SchemeRejected` is raised by evaluators when an
  error-severity finding fires.
* **Autodiff anomaly mode** (:func:`detect_anomaly`) — opt-in NaN/Inf
  sanitizer at op boundaries during forward/backward, reporting the
  originating op with its creation context.
* **Static cost model** (:class:`SchemeCostModel`) — abstract interpretation
  of compression schemes predicting post-scheme params/FLOPs/memory/latency
  without surgery; :class:`Budget` turns predictions into ``S###``
  feasibility rules the linter and evaluators enforce pre-cost.
  :func:`profile_model` measures a concrete model's P(M)/F(M) from the
  same traced graph.
* **Repo linter** (:mod:`repro.analysis.repolint`) — AST-based invariant
  checks on the source tree itself (``R###`` rules), run in CI.

``repro analyze`` exposes the verifier, linter, and cost model on the command
line; the rule catalogue is documented in ``docs/static_analysis.md``.
"""

from .anomaly import AnomalyError, anomaly_enabled, detect_anomaly
from .costmodel import (
    AbstractModel,
    Budget,
    CostPrediction,
    ModelProfile,
    S_RULES,
    SchemeCostModel,
    check_budget,
    count_flops,
    count_params,
    profile_model,
)
from .diagnostics import Diagnostic, Report, Severity, VerificationError
from .graph import GraphNode, GraphTracer, ModelGraph, TensorSpec, trace_model
from .linter import SchemeRejected, lint_scheme
from .verifier import (
    DEFAULT_INPUT_SHAPE,
    assert_valid,
    check_finite_parameters,
    verify_checkpoint,
    verify_model,
)

__all__ = [
    "AbstractModel",
    "AnomalyError",
    "Budget",
    "CostPrediction",
    "DEFAULT_INPUT_SHAPE",
    "Diagnostic",
    "GraphNode",
    "GraphTracer",
    "ModelGraph",
    "ModelProfile",
    "Report",
    "S_RULES",
    "SchemeCostModel",
    "SchemeRejected",
    "Severity",
    "TensorSpec",
    "VerificationError",
    "anomaly_enabled",
    "assert_valid",
    "check_budget",
    "check_finite_parameters",
    "count_flops",
    "count_params",
    "detect_anomaly",
    "lint_scheme",
    "profile_model",
    "trace_model",
    "verify_checkpoint",
    "verify_model",
]
