"""Static cost model: abstract interpretation accuracy and budget pruning.

Three layers of guarantees:

* the abstraction is *exact* on every untouched zoo architecture (params
  and FLOPs match a forward pass counted at the kernels, bit for bit);
* post-scheme predictions stay within the tolerances pinned in
  ``tests/goldens/costmodel_tolerance.json`` on every architecture;
* budgets reject statically — zero simulated cost — and pruning the search
  space up front is observationally identical to post-hoc filtering.
"""

import copy
import itertools
import json
import os

import pytest

from repro.analysis import Budget, SchemeCostModel, lint_scheme, profile_model
from repro.analysis.costmodel import AbstractModel, _tucker_walk
from repro.analysis.linter import SchemeRejected
from repro.compression import METHODS, ExecutionContext
from repro.core.config import EvaluatorConfig
from repro.data.tasks import EXP1, transfer_task
from repro.models import available_models, create_model, resnet20
from repro.space import StrategySpace
from repro.space.hyperparams import HP_GRID

from .test_profile import apply_scheme, reference_profile

GOLDEN = os.path.join(os.path.dirname(__file__), "goldens", "costmodel_tolerance.json")
PREDICTIONS = os.path.join(os.path.dirname(__file__), "goldens", "cost_predictions.json")

#: schemes whose predictions are pinned byte for byte: every method, every
#: C2 criterion and evolution budget, every C5 aggregation, chains of 2 and 3
PREDICTED_SCHEMES = [
    "C1[HP1=0.1,HP2=0.28,HP4=3,HP5=0.3]",
    "C1[HP1=0.1,HP2=0.44,HP4=3,HP5=0.3]",
    *(
        f"C2[HP1=0.1,HP2={hp2},HP6={hp6},HP7={hp7},HP8={hp8}]"
        for (hp7, hp8), hp2, hp6 in zip(
            itertools.product(HP_GRID["HP7"], HP_GRID["HP8"]),
            itertools.cycle([0.12, 0.28, 0.44, 0.2]),
            itertools.cycle([0.7, 0.9]),
        )
    ),
    "C3[HP1=0.1,HP2=0.12,HP6=0.7]",
    "C3[HP1=0.1,HP2=0.44,HP6=0.9]",
    "C4[HP2=0.28,HP9=0.1,HP10=3]",
    *(
        f"C5[HP1=0.1,HP2=0.28,HP11={hp11},HP12={hp12},HP13=0.3,HP14=1]"
        for hp11, hp12 in itertools.product(HP_GRID["HP11"], HP_GRID["HP12"])
    ),
    "C6[HP1=0.1,HP2=0.04,HP15=1,HP16=CE]",
    "C6[HP1=0.1,HP2=0.44,HP15=1,HP16=CE]",
    "C7[HP1=0.1,HP17=3,HP18=0.5]",
    "C8[HP19=int8,HP20=2]",
    "C8[HP19=fp16,HP20=2]",
    "C3[HP1=0.1,HP2=0.12,HP6=0.7] -> C5[HP1=0.1,HP2=0.2,HP11=P2,HP12=l1norm,HP13=0.3,HP14=1]",
    "C5[HP1=0.1,HP2=0.2,HP11=P1,HP12=k34,HP13=0.3,HP14=1] -> C2[HP1=0.1,HP2=0.2,HP6=0.9,HP7=0.5,HP8=l2_weight]",
    "C2[HP1=0.1,HP2=0.2,HP6=0.7,HP7=0.6,HP8=l1_weight] -> C6[HP1=0.1,HP2=0.2,HP15=1,HP16=CE]",
    "C1[HP1=0.1,HP2=0.12,HP4=3,HP5=0.3] -> C4[HP2=0.2,HP9=0.1,HP10=3] -> C8[HP19=int8,HP20=2]",
    "C3[HP1=0.1,HP2=0.12,HP6=0.9] -> C2[HP1=0.1,HP2=0.2,HP6=0.9,HP7=0.4,HP8=l2_bn_param]"
    " -> C7[HP1=0.1,HP17=5,HP18=0.5]",
    "C6[HP1=0.1,HP2=0.12,HP15=1,HP16=CE]"
    " -> C5[HP1=0.1,HP2=0.12,HP11=P3,HP12=l1norm,HP13=0.3,HP14=1]"
    " -> C3[HP1=0.1,HP2=0.12,HP6=0.7]",
]


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def space():
    return StrategySpace(include_quantization=True)


# --------------------------------------------------------------------------- #
# Exactness on base models
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("name", available_models())
def test_base_model_exact(name):
    model = create_model(name)
    measured = reference_profile(model)
    predicted = SchemeCostModel(model).base_prediction
    assert predicted.params == measured.params
    assert predicted.flops == measured.flops
    assert predicted.act_mem > 0
    assert predicted.latency_ms > 0


# --------------------------------------------------------------------------- #
# Post-scheme tolerance, pinned per golden
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("name", available_models())
def test_post_scheme_within_tolerance(name, golden, space):
    base = create_model(name)
    cost_model = SchemeCostModel(base)
    for text in golden["scheme_battery"]:
        scheme = space.parse_scheme(text)
        measured = profile_model(
            apply_scheme(copy.deepcopy(base), scheme, cost_model.base_params)
        )
        predicted = cost_model.predict(scheme)
        drift_params = 100.0 * abs(predicted.params - measured.params) / measured.params
        drift_flops = 100.0 * abs(predicted.flops - measured.flops) / measured.flops
        assert drift_params <= golden["params_pct"], (name, text, drift_params)
        assert drift_flops <= golden["flops_pct"], (name, text, drift_flops)


@pytest.mark.parametrize("name", available_models())
def test_predictions_match_goldens(name, space, update_goldens):
    """Every field of each pinned scheme's prediction, exactly."""
    cost_model = SchemeCostModel(create_model(name))
    predicted = {
        text: cost_model.predict(space.parse_scheme(text)).to_payload()
        for text in PREDICTED_SCHEMES
    }
    if update_goldens:
        goldens = {}
        if os.path.exists(PREDICTIONS):
            with open(PREDICTIONS) as handle:
                goldens = json.load(handle)
        goldens[name] = predicted
        with open(PREDICTIONS, "w") as handle:
            handle.write(json.dumps(goldens, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"cost predictions for {name} regenerated; review the diff")

    with open(PREDICTIONS) as handle:
        assert predicted == json.load(handle)[name]


# --------------------------------------------------------------------------- #
# The factorisation walk, layer by layer
# --------------------------------------------------------------------------- #
#: HOS at every HP11 x HP12 pair and LFB at every HP16, at two budgets each
WALK_STEPS = [
    *(
        f"C5[HP1=0.1,HP2={hp2},HP11={hp11},HP12={hp12},HP13=0.3,HP14=1]"
        for hp2 in (0.12, 0.44)
        for hp11, hp12 in itertools.product(HP_GRID["HP11"], HP_GRID["HP12"])
    ),
    *(
        f"C6[HP1=0.1,HP2={hp2},HP15=1,HP16={hp16}]"
        for hp2 in (0.12, 0.44)
        for hp16 in HP_GRID["HP16"]
    ),
]
#: pinned chains that run the walk after and before other steps
WALK_CHAINS = [
    "C3[HP1=0.1,HP2=0.12,HP6=0.7] -> C5[HP1=0.1,HP2=0.2,HP11=P2,HP12=l1norm,HP13=0.3,HP14=1]",
    "C6[HP1=0.1,HP2=0.12,HP15=1,HP16=CE]"
    " -> C5[HP1=0.1,HP2=0.12,HP11=P3,HP12=l1norm,HP13=0.3,HP14=1]"
    " -> C3[HP1=0.1,HP2=0.12,HP6=0.7]",
]


def _nodes(state: AbstractModel) -> list:
    """Path, kind, channels and factorisation (ranks, basis) of each op
    that carries parameters or FLOPs."""
    return [
        (op.path, op.kind, op.in_ch, op.out_ch, op.r_out, op.r_in, op.basis)
        for op in state.ops
        if op.kind != "zero"
    ]


def _channels(nodes: list) -> list:
    return [node[:4] for node in nodes]


@pytest.mark.parametrize("name", available_models())
def test_walk_matches_execution_layer_by_layer(name, space):
    """The cost model's C5/C6 effect signatures factorise the same layers,
    at the same ranks or basis sizes, as the executed methods.

    LFB has no pruning, so its predicted state equals the executed model
    node by node.  HOS first prunes by weight statistics, which the cost
    model predicts only statistically; so HOS's walk is checked on the
    executed TE6 result (the cost model's walk on its trace against the
    executed TE7), and the whole predicted state is checked wherever its
    channels equal the executed ones."""
    base = create_model(name)
    cost_model = SchemeCostModel(base)
    hos = METHODS["C5"]
    ctx = ExecutionContext(original_params=cost_model.base_params, train_enabled=False)
    for text in WALK_STEPS + WALK_CHAINS:
        scheme = space.parse_scheme(text)
        predicted = _nodes(cost_model.state(scheme))
        if text.startswith("C5") and "->" not in text:
            hp = scheme.strategies[0].hp
            budget = ctx.param_budget(float(hp["HP2"]))
            executed = copy.deepcopy(base)
            removed = hos.prune(executed, hp, budget)
            walked = AbstractModel.from_model(executed)
            hos.factorize(executed, budget - removed)
            _tucker_walk(walked, budget - removed)
            executed = _nodes(AbstractModel.from_model(executed))
            assert _nodes(walked) == executed, (name, text)
        else:
            executed = _nodes(AbstractModel.from_model(
                apply_scheme(copy.deepcopy(base), scheme, cost_model.base_params)
            ))
        if text.startswith("C6") and "->" not in text:
            assert predicted == executed, (name, text)
        elif _channels(predicted) == _channels(executed):
            assert predicted == executed, (name, text)


# --------------------------------------------------------------------------- #
# Structural steps after real PTQ
# --------------------------------------------------------------------------- #
PTQ = "C8[HP19=int8,HP20=2]"
#: one setting of every structural method
STRUCTURAL_STEPS = [
    "C1[HP1=0.1,HP2=0.28,HP4=3,HP5=0.3]",
    "C2[HP1=0.1,HP2=0.28,HP6=0.7,HP7=0.4,HP8=l1_weight]",
    "C3[HP1=0.1,HP2=0.28,HP6=0.9]",
    "C4[HP2=0.28,HP9=0.1,HP10=3]",
    "C5[HP1=0.1,HP2=0.28,HP11=P2,HP12=l1norm,HP13=0.3,HP14=1]",
    "C6[HP1=0.1,HP2=0.28,HP15=1,HP16=CE]",
]


#: PTQ in both modes, and after a factorisation whose factorised convs
#: keep their BatchNorms
PTQ_SCHEMES = [
    PTQ,
    "C8[HP19=fp16,HP20=2]",
    f"C6[HP1=0.1,HP2=0.28,HP15=1,HP16=CE] -> {PTQ}",
]


@pytest.mark.parametrize("name", available_models())
def test_ptq_predictions_fold_batchnorms_as_executed(name, space):
    """Executed PTQ folds each BatchNorm into the plain conv before it;
    the prediction must count the folded model exactly."""
    base = create_model(name)
    cost_model = SchemeCostModel(base)
    for text in PTQ_SCHEMES:
        scheme = space.parse_scheme(text)
        predicted = cost_model.predict(scheme)
        measured = profile_model(
            apply_scheme(copy.deepcopy(base), scheme, cost_model.base_params)
        )
        assert (predicted.params, predicted.flops) == (measured.params, measured.flops), (
            name, text
        )


@pytest.mark.parametrize("name", ["resnet20", "vgg8_tiny", "resnet29_bottleneck"])
def test_structural_steps_after_ptq_are_no_ops(name, space):
    """PTQ swaps every Conv2d for a QuantizedConv2d, which no C1–C6 step
    prunes or factorises: executed, a structural step after C8 changes
    nothing, and the prediction must not change either."""
    base = create_model(name)
    cost_model = SchemeCostModel(base)
    ptq = space.parse_scheme(PTQ)
    quantized = profile_model(apply_scheme(copy.deepcopy(base), ptq, cost_model.base_params))
    for step in STRUCTURAL_STEPS:
        scheme = space.parse_scheme(f"{PTQ} -> {step}")
        assert cost_model.predict(scheme) == cost_model.predict(ptq), (name, step)
        executed = apply_scheme(copy.deepcopy(base), scheme, cost_model.base_params)
        assert profile_model(executed) == quantized, (name, step)


def test_quantization_affects_weight_memory_only(space):
    model = resnet20(num_classes=10)
    cost_model = SchemeCostModel(model)
    scheme = space.parse_scheme("C7[HP1=0.1,HP17=5,HP18=0.5]")
    base = cost_model.base_prediction
    predicted = cost_model.predict(scheme)
    assert predicted.params == base.params
    assert predicted.flops == base.flops
    assert predicted.weight_bits == 5
    assert predicted.weight_mem < base.weight_mem


# --------------------------------------------------------------------------- #
# Budgets and S-rules
# --------------------------------------------------------------------------- #
def test_budget_null_and_payload_roundtrip():
    assert Budget().is_null
    budget = Budget(max_params=100, max_latency_ms=1.5)
    assert not budget.is_null
    assert Budget.from_payload(budget.to_payload()) == budget
    assert Budget.from_payload(None) is None


def test_s_rules_fire_per_dimension(space):
    cost_model = SchemeCostModel(resnet20(num_classes=10))
    scheme = space.parse_scheme("C3[HP1=0.1,HP2=0.12,HP6=0.7]")
    prediction = cost_model.predict(scheme)
    budget = Budget(
        max_params=prediction.params - 1,
        max_flops=prediction.flops - 1,
        max_act_mem=prediction.act_mem - 1,
        max_latency_ms=prediction.latency_ms / 2,
    )
    report = lint_scheme(scheme, budget=budget, cost_model=cost_model)
    assert {d.rule for d in report.errors} == {"S001", "S002", "S003", "S004"}
    # A generous budget is clean.
    ok = lint_scheme(
        scheme, budget=Budget(max_params=prediction.params), cost_model=cost_model
    )
    assert not ok.has_errors


def test_s_rules_skipped_when_l_rules_fail(space):
    """Malformed schemes are not cost-predicted (L-rules short-circuit)."""
    scheme = space.parse_scheme(
        "C3[HP1=0.1,HP2=0.44,HP6=0.9] -> C3[HP1=0.1,HP2=0.44,HP6=0.9]"
        " -> C3[HP1=0.1,HP2=0.44,HP6=0.9]"
    )
    cost_model = SchemeCostModel(resnet20(num_classes=10))
    report = lint_scheme(
        scheme, budget=Budget(max_params=1), cost_model=cost_model
    )
    assert report.has_errors
    assert not any(d.rule.startswith("S") for d in report.errors)


# --------------------------------------------------------------------------- #
# Evaluator integration: rejection costs nothing
# --------------------------------------------------------------------------- #
def make_evaluator(budget=None, seed=0):
    from repro.core.evaluator import SurrogateEvaluator

    task = transfer_task(EXP1, "resnet20", 0.27, 0.08, EXP1.model_accuracy)
    return SurrogateEvaluator(
        lambda: resnet20(num_classes=10),
        "resnet20",
        "cifar10",
        task,
        config=EvaluatorConfig(seed=seed, budget=budget),
    )


def tight_budget():
    """Rejects shallow schemes on resnet20 (base 272k params)."""
    return Budget(max_params=170_000)


def test_budget_rejection_is_free(space):
    evaluator = make_evaluator(budget=tight_budget())
    shallow = space.parse_scheme("C3[HP1=0.1,HP2=0.12,HP6=0.7]")
    before = evaluator.total_cost
    with pytest.raises(SchemeRejected) as excinfo:
        evaluator.evaluate(shallow)
    assert any(d.rule == "S001" for d in excinfo.value.report.errors)
    assert evaluator.total_cost == before
    assert evaluator.budget_rejects == 1
    assert evaluator.rejected_count == 1
    # A deep-enough scheme passes and gets a drift record.
    deep = space.parse_scheme("C3[HP1=0.1,HP2=0.44,HP6=0.9]")
    assert evaluator.is_feasible(deep)
    result = evaluator.evaluate(deep)
    assert result.params <= 170_000
    drift = evaluator.prediction_drift()
    assert drift["predicted_evals"] >= 1
    assert drift["drift_params_pct"] < 5.0


def test_is_feasible_counts_filtered(space):
    evaluator = make_evaluator(budget=tight_budget())
    shallow = space.parse_scheme("C3[HP1=0.1,HP2=0.12,HP6=0.7]")
    assert not evaluator.is_feasible(shallow)
    assert evaluator.budget_filtered == 1
    assert evaluator.total_cost == 0.0


def test_set_budget_round_trip(space):
    evaluator = make_evaluator()
    shallow = space.parse_scheme("C3[HP1=0.1,HP2=0.12,HP6=0.7]")
    assert evaluator.is_feasible(shallow)
    evaluator.set_budget(tight_budget())
    assert not evaluator.is_feasible(shallow)
    evaluator.set_budget(None)
    assert evaluator.budget is None
    assert evaluator.is_feasible(shallow)


def test_budget_excluded_from_fingerprint():
    plain = make_evaluator().config.fingerprint_payload()
    budgeted = make_evaluator(budget=tight_budget()).config.fingerprint_payload()
    assert plain == budgeted


# --------------------------------------------------------------------------- #
# Pruned search == post-hoc filtered search
# --------------------------------------------------------------------------- #
def sample_schemes(space, count=30, seed=7):
    """Uniform scheme draws, mirroring SearchStrategy.random_scheme."""
    import numpy as np

    from repro.space.scheme import CompressionScheme

    rng = np.random.default_rng(seed)
    schemes = []
    while len(schemes) < count:
        length = int(rng.integers(1, 6))
        scheme = CompressionScheme()
        for _ in range(length):
            for _ in range(20):
                strategy = space[int(rng.integers(0, len(space)))]
                if scheme.total_param_step + strategy.param_step <= 0.9:
                    scheme = scheme.extend(strategy)
                    break
        if not scheme.is_empty:
            schemes.append(scheme)
    return schemes


def test_static_pruning_matches_posthoc_filter():
    """A budget kills >=30% of candidates for free; survivors' results are
    bit-identical to evaluating everything and filtering afterwards."""
    space = StrategySpace()
    budget = Budget(max_params=130_000)  # ~52% PR floor on resnet20
    schemes = sample_schemes(space)

    unbudgeted = make_evaluator()
    all_results = unbudgeted.evaluate_many(schemes)
    cost_model = unbudgeted.cost_model
    keep = [cost_model.feasible(s, budget) for s in schemes]
    survivors = [s for s, ok in zip(schemes, keep) if ok]
    rejected = len(schemes) - len(survivors)
    assert rejected / len(schemes) >= 0.30

    budgeted = make_evaluator(budget=budget)
    assert [budgeted.is_feasible(s) for s in schemes] == keep
    pruned_results = budgeted.evaluate_many(survivors)
    posthoc = {r.scheme.identifier: r for r in all_results}
    for result in pruned_results:
        other = posthoc[result.scheme.identifier]
        assert result.accuracy == other.accuracy
        assert result.params == other.params
        assert result.flops == other.flops
        assert result.cost == other.cost
    # and the budget charged nothing for the rejected candidates
    assert budgeted.total_cost == pytest.approx(
        sum(r.cost for r in pruned_results)
    )


def test_search_strategy_feasible_counter():
    from repro.core.search import SearchStrategy

    space = StrategySpace()
    evaluator = make_evaluator(budget=tight_budget())
    searcher = SearchStrategy(evaluator, space)
    shallow = space.parse_scheme("C3[HP1=0.1,HP2=0.12,HP6=0.7]")
    deep = space.parse_scheme("C3[HP1=0.1,HP2=0.44,HP6=0.9]")
    assert searcher.feasible(deep)
    assert not searcher.feasible(shallow)
    assert searcher.budget_pruned == 1


def test_random_search_prunes_statically(tmp_path):
    """Random search under a budget: pruning is free and journaled."""
    from repro.core.solver import make_solver
    from repro.obs import RunJournal, Tracer, attach_tracer

    journal = tmp_path / "run.jsonl"
    evaluator = make_evaluator(budget=Budget(max_params=130_000))
    tracer = Tracer(journal=RunJournal(str(journal)))
    attach_tracer(evaluator, tracer)
    solver = make_solver(
        "random", evaluator, StrategySpace(), gamma=0.3, budget_hours=1.0, seed=3
    )
    result = solver.run()
    tracer.close()
    assert solver.strategy.budget_pruned > 0
    assert evaluator.budget_filtered == solver.strategy.budget_pruned
    for r in result.all_results:
        assert r.params <= 130_000
    text = journal.read_text()
    assert "budget_filter" in text
    assert "predicted_params" in text


def test_experiment_config_budget():
    from repro.experiments.common import ExperimentConfig

    assert ExperimentConfig().budget() is None
    config = ExperimentConfig(max_params=123, max_latency_ms=2.0)
    budget = config.budget()
    assert budget == Budget(max_params=123, max_latency_ms=2.0)


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #
def test_cli_analyze_space(capsys):
    from repro.cli import main

    code = main([
        "analyze", "space", "--target-model", "resnet20",
        "--max-params", "150000", "--max-flops", "40000000",
        "--samples", "60",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "statically eliminated" in out
    assert "S001" in out or "S002" in out


def test_cli_analyze_space_needs_a_cap(capsys):
    from repro.cli import main

    assert main(["analyze", "space"]) == 2


def test_cli_analyze_scheme_with_budget(capsys):
    from repro.cli import main

    code = main([
        "analyze", "resnet20", "--scheme", "C3[HP1=0.5,HP2=0.2,HP6=0.9]",
        "--max-params", "100000",
    ])
    out = capsys.readouterr().out
    assert code == 1
    assert "S001" in out
