"""Golden-regression tests for the surrogate evaluator's measured metrics
and for the hot nn kernels.

Params/PR/FLOPs/FR, the surrogate accuracy, the charged cost and the
per-step cost vector for a fixed set of reference schemes on the two paper
models (ResNet-56/CIFAR-10, VGG-16/CIFAR-100) are pinned to
``tests/goldens/surrogate_metrics.json``.  The chains include a 2-step
scheme evaluated after its 1-step prefix, so the evaluator's prefix resume
and incremental charging are covered too.  Any refactor of the model
builders, compression surgery, accuracy surrogate or cost accounting that
shifts these numbers fails here first — loudly and with the exact delta.

Forward values and gradients of ``conv2d``, ``avg_pool2d``,
``quant_conv2d`` and a whole ResNet-8 are pinned to
``tests/goldens/kernels.json``.

A full-size progressive search (Algorithm 2 over the whole 4,230-strategy
space, default :class:`~repro.core.progressive.ProgressiveConfig`) is pinned
to ``tests/goldens/progressive_search.json``: the ordered evaluated schemes
and the final front's params/FLOPs/accuracy.

The ten §4.5 ablation searches of Figure 5 (five variants on each
experiment) are pinned to ``tests/goldens/figure5.json``.

What traced runs write to their journals (every record but its wall-clock
fields, plus the counters and gauges) is pinned to
``tests/goldens/trace_journal.json``.

The weights C1, C5 and C6 train against their pre-step teacher are pinned,
as one sha256 per parameter, to ``tests/goldens/distillation.json``.

To intentionally re-baseline after a behaviour-changing PR::

    pytest tests/test_goldens.py --update-goldens

then review the JSON diff before committing.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.progressive import ProgressiveConfig
from repro.core.solver import run_solver
from repro.experiments.common import EXPERIMENTS, make_evaluator
from repro.knowledge.embedding import StrategyEmbeddings
from repro.models import resnet8
from repro.nn import Tensor
from repro.nn import functional as F
from repro.nn.quant import quant_conv2d, quantize_weight
from repro.space import CompressionScheme, StrategySpace

from .test_solver_api import make_evaluator as make_resnet20_evaluator

GOLDEN_PATH = Path(__file__).parent / "goldens" / "surrogate_metrics.json"

#: reference schemes per experiment, as (method_label, strategy_index) chains —
#: indices into ``space.of_method(label)``, stable because the HP grids are.
REFERENCE_CHAINS = [
    [("C3", 4)],
    [("C3", 4), ("C3", 8)],
    [("C2", 2)],
    [("C5", 7), ("C1", 3)],
]


def _reference_schemes(space: StrategySpace):
    for chain in REFERENCE_CHAINS:
        scheme = CompressionScheme()
        for label, index in chain:
            scheme = scheme.extend(space.of_method(label)[index])
        yield scheme


def _measure(exp_name: str, space: StrategySpace) -> dict:
    model_name, dataset_name, task = EXPERIMENTS[exp_name]
    evaluator = make_evaluator(model_name, dataset_name, task, seed=0)
    measured = {}
    for scheme in _reference_schemes(space):
        result = evaluator.evaluate(scheme)
        measured[scheme.identifier] = {
            "params": int(result.params),
            "pr": result.pr,
            "flops": int(result.flops),
            "fr": result.fr,
            "accuracy": result.accuracy,
            "cost": result.cost,
            "step_costs": list(result.step_costs),
        }
    return measured


@pytest.mark.parametrize("exp_name", sorted(EXPERIMENTS))
def test_surrogate_metrics_match_goldens(exp_name, space, update_goldens):
    measured = _measure(exp_name, space)

    if update_goldens:
        goldens = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
        goldens[exp_name] = measured
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"goldens for {exp_name} regenerated; review the diff")

    assert GOLDEN_PATH.exists(), (
        f"missing {GOLDEN_PATH}; generate it with pytest --update-goldens"
    )
    goldens = json.loads(GOLDEN_PATH.read_text())
    assert exp_name in goldens, f"no goldens for {exp_name}; run --update-goldens"
    expected = goldens[exp_name]

    assert set(measured) == set(expected), "reference scheme set drifted"
    for identifier, golden in expected.items():
        got = measured[identifier]
        # params/flops are exact integer structure counts; pr/fr derive from
        # them by division, so a tight relative tolerance guards against
        # platform float noise without hiding real drift.
        assert got["params"] == golden["params"], f"params drift for {identifier}"
        assert got["flops"] == golden["flops"], f"flops drift for {identifier}"
        assert got["pr"] == pytest.approx(golden["pr"], rel=1e-12), identifier
        assert got["fr"] == pytest.approx(golden["fr"], rel=1e-12), identifier
        assert got["accuracy"] == pytest.approx(golden["accuracy"], rel=1e-12), identifier
        assert got["cost"] == pytest.approx(golden["cost"], rel=1e-12), identifier
        assert got["step_costs"] == pytest.approx(golden["step_costs"], rel=1e-12), identifier


def test_goldens_file_is_well_formed():
    """The checked-in goldens cover both experiments and all chains."""
    goldens = json.loads(GOLDEN_PATH.read_text())
    assert set(goldens) == set(EXPERIMENTS)
    for exp_name, entries in goldens.items():
        assert len(entries) == len(REFERENCE_CHAINS)
        for identifier, metrics in entries.items():
            assert set(metrics) == {
                "params", "pr", "flops", "fr", "accuracy", "cost", "step_costs",
            }
            assert metrics["params"] > 0 and metrics["flops"] > 0
            assert 0.0 <= metrics["pr"] <= 1.0
            assert 0.0 <= metrics["accuracy"] <= 1.0
            assert len(metrics["step_costs"]) == identifier.count(" -> ") + 1
            assert metrics["cost"] > 0.0


# --------------------------------------------------------------------------- #
# Kernel goldens: conv2d / avg_pool2d / quant_conv2d / a whole ResNet
# --------------------------------------------------------------------------- #
KERNEL_GOLDEN_PATH = Path(__file__).parent / "goldens" / "kernels.json"

#: (n, c, h, w, f, k, stride, padding): stride-1 padded (overlapping tap
#: scatter), strided padded, pointwise, non-overlapping fast scatter.
KERNEL_CONV_CASES = [
    (2, 3, 8, 8, 4, 3, 1, 1),
    (2, 8, 9, 9, 5, 3, 2, 1),
    (1, 4, 7, 7, 6, 1, 1, 0),
    (2, 5, 8, 8, 3, 2, 2, 0),
]

#: (kernel, stride, size): non-overlapping, overlapping stride 1, strided.
KERNEL_POOL_CASES = [(2, 2, 8), (3, 1, 7), (3, 2, 9)]


def _kernel_outputs() -> dict:
    """Every pinned kernel array, keyed ``group/case/quantity``."""
    arrays = {}
    rng = np.random.default_rng(0)
    for case in KERNEL_CONV_CASES:
        n, c, h, w, f, k, stride, padding = case
        xd = rng.normal(size=(n, c, h, w)).astype(np.float32)
        wd = rng.normal(size=(f, c, k, k)).astype(np.float32)
        bd = rng.normal(size=(f,)).astype(np.float32)
        ho, wo = (h + 2 * padding - k) // stride + 1, (w + 2 * padding - k) // stride + 1
        gd = rng.normal(size=(n, f, ho, wo)).astype(np.float32)
        for activation in (None, "relu"):
            x = Tensor(xd.copy(), requires_grad=True)
            wt = Tensor(wd.copy(), requires_grad=True)
            b = Tensor(bd.copy(), requires_grad=True)
            out = F.conv2d(x, wt, b, stride=stride, padding=padding, activation=activation)
            out.backward(gd)
            key = "conv2d/" + "x".join(map(str, case)) + f"/{activation or 'linear'}"
            for name, value in (("out", out.data), ("dx", x.grad), ("dw", wt.grad), ("db", b.grad)):
                arrays[f"{key}/{name}"] = value

    for kernel, stride, size in KERNEL_POOL_CASES:
        x = Tensor(rng.normal(size=(2, 3, size, size)).astype(np.float32), requires_grad=True)
        out = F.avg_pool2d(x, kernel=kernel, stride=stride)
        out.backward(rng.normal(size=out.shape).astype(np.float32))
        key = f"avg_pool2d/k{kernel}s{stride}n{size}"
        arrays[f"{key}/out"] = out.data
        arrays[f"{key}/dx"] = x.grad

    xd = rng.normal(size=(2, 4, 7, 7)).astype(np.float32)
    qweight, wscale = quantize_weight(rng.normal(size=(5, 4, 3, 3)).astype(np.float32))
    qbias = rng.normal(size=(5,)).astype(np.float32)
    for scale_name, x_scale in (("dynamic", None), ("static", 0.025)):
        for padding in (0, 1):
            for stride in (1, 2):
                out = quant_conv2d(
                    Tensor(xd), qweight, wscale, qbias, stride, padding,
                    activation="relu" if stride == 2 else None, x_scale=x_scale,
                )
                arrays[f"quant_conv2d/{scale_name}/p{padding}s{stride}/out"] = out.data

    model = resnet8(num_classes=4).eval()
    logits = model(Tensor(rng.normal(size=(2, 3, 8, 8)).astype(np.float32)))
    logits.backward(rng.normal(size=logits.shape).astype(np.float32))
    arrays["resnet8/logits"] = logits.data
    for i, param in enumerate(model.parameters()):
        arrays[f"resnet8/grad{i:02d}"] = param.grad
    # str() of a float32 is its shortest round-trip spelling: exact, and half
    # the size of the float64 repr.
    return {
        key: {
            "shape": list(value.shape),
            "values": [float(str(v)) for v in value.astype(np.float32).ravel()],
        }
        for key, value in arrays.items()
    }


def _dump_kernel_goldens(goldens: dict) -> str:
    """One array per line, so a drifting kernel shows up as a readable diff."""
    lines = [
        f"  {json.dumps(key)}: {json.dumps(goldens[key], separators=(',', ':'))}"
        for key in sorted(goldens)
    ]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def test_kernels_match_goldens(update_goldens):
    """Forward values and gradients of the hot kernels, pinned to
    ``tests/goldens/kernels.json``.  The tolerance absorbs BLAS differences
    between machines; regenerating on the machine that wrote the file must
    leave it byte-identical unless a kernel's arithmetic changed."""
    measured = _kernel_outputs()
    if update_goldens:
        KERNEL_GOLDEN_PATH.write_text(_dump_kernel_goldens(measured))
        pytest.skip("kernel goldens regenerated; review the diff")

    goldens = json.loads(KERNEL_GOLDEN_PATH.read_text())
    assert set(measured) == set(goldens), "kernel golden set drifted"
    for key, golden in goldens.items():
        got = measured[key]
        assert got["shape"] == golden["shape"], key
        np.testing.assert_allclose(
            got["values"], golden["values"], rtol=1e-6, atol=1e-6, err_msg=key
        )


# --------------------------------------------------------------------------- #
# Progressive-search golden: full-size F_mo rounds over the whole space
# --------------------------------------------------------------------------- #
PROGRESSIVE_GOLDEN_PATH = Path(__file__).parent / "goldens" / "progressive_search.json"


def _progressive_run(space: StrategySpace) -> dict:
    """Five full-size rounds (~34k scored options each) on ResNet-20."""
    table = np.random.default_rng(0).normal(0, 0.1, size=(len(space), 16))
    evaluator = make_resnet20_evaluator(seed=0)
    result = run_solver(
        "progressive", evaluator, space,
        gamma=0.3, budget_hours=3.0, seed=0,
        embeddings=StrategyEmbeddings(table=table, space=space),
        config=ProgressiveConfig(),
    )
    return {
        "rounds": result.rounds,
        "evaluated": list(evaluator.results),
        "front": [
            {
                "scheme": r.scheme.identifier,
                "params": int(r.params),
                "flops": int(r.flops),
                "accuracy": r.accuracy,
            }
            for r in result.front
        ],
    }


def test_progressive_search_matches_goldens(space, update_goldens):
    """Which schemes a seeded full-size progressive search evaluates, in
    order, and what its front measures.  Any change to F_mo scoring, the
    Pareto selection of options or the pruning planners shows up here."""
    measured = _progressive_run(space)
    if update_goldens:
        PROGRESSIVE_GOLDEN_PATH.write_text(json.dumps(measured, indent=2) + "\n")
        pytest.skip("progressive goldens regenerated; review the diff")

    golden = json.loads(PROGRESSIVE_GOLDEN_PATH.read_text())
    assert golden["rounds"] >= 4
    assert measured["rounds"] == golden["rounds"]
    assert measured["evaluated"] == golden["evaluated"]
    assert [m["scheme"] for m in measured["front"]] == [
        g["scheme"] for g in golden["front"]
    ]
    for got, expected in zip(measured["front"], golden["front"]):
        assert got["params"] == expected["params"], got["scheme"]
        assert got["flops"] == expected["flops"], got["scheme"]
        assert got["accuracy"] == pytest.approx(expected["accuracy"], rel=1e-12), got["scheme"]


# --------------------------------------------------------------------------- #
# run_algorithm golden: the harness path from config to finished search
# --------------------------------------------------------------------------- #
RUN_ALGORITHM_GOLDEN_PATH = Path(__file__).parent / "goldens" / "run_algorithm.json"

#: a seconds-range Exp1 run with a params cap, so the static-budget and
#: cost-model drift stats land in ``engine_stats``; no engine wrap
RUN_ALGORITHM_CONFIG = dict(
    budget_hours=0.6,
    embedding_rounds=1,
    transr_epochs_per_round=1,
    nn_exp_epochs_per_round=3,
    sample_size=2,
    evals_per_round=2,
    candidate_subsample=48,
    seed=0,
    max_params=800_000,
)


def _run_algorithm_outcome(solver: str, journal: Path) -> dict:
    from repro.experiments.common import ExperimentConfig, run_algorithm
    from repro.obs import summarize_journal

    config = ExperimentConfig(journal=str(journal), **RUN_ALGORITHM_CONFIG)
    result = run_algorithm(solver, "Exp1", config)
    return {
        "algorithm": result.algorithm,
        "front": [
            {
                "scheme": r.scheme.identifier,
                "params": int(r.params),
                "flops": int(r.flops),
                "accuracy": r.accuracy,
            }
            for r in result.front
        ],
        "total_cost": result.total_cost,
        "evaluations": result.evaluations,
        "engine_stats": result.engine_stats,
        "journal_run": summarize_journal(journal).run,
    }


def _assert_same(got, expected, where="run_algorithm"):
    """Exact structure, ints and strings; floats to 1e-12 (platform noise)."""
    if isinstance(expected, dict):
        assert isinstance(got, dict) and set(got) == set(expected), where
        for key in expected:
            _assert_same(got[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert isinstance(got, list) and len(got) == len(expected), where
        for i, (g, e) in enumerate(zip(got, expected)):
            _assert_same(g, e, f"{where}[{i}]")
    elif isinstance(expected, float):
        assert got == pytest.approx(expected, rel=1e-12), where
    else:
        assert got == expected, where


def test_run_algorithm_matches_goldens(tmp_path, update_goldens):
    """What ``run_algorithm`` hands back for the progressive and random
    solvers on Exp1: the front, charged cost, evaluation count, budget and
    drift stats, and the run header of its journal.  Any change in how the
    harness assembles a search (embeddings, experience, solver options,
    tracer wiring) shows up here."""
    measured = {
        solver: _run_algorithm_outcome(solver, tmp_path / f"{solver}.jsonl")
        for solver in ("progressive", "random")
    }
    if update_goldens:
        RUN_ALGORITHM_GOLDEN_PATH.write_text(
            json.dumps(measured, indent=2, sort_keys=True) + "\n"
        )
        pytest.skip("run_algorithm goldens regenerated; review the diff")

    golden = json.loads(RUN_ALGORITHM_GOLDEN_PATH.read_text())
    for solver in golden:
        assert golden[solver]["front"], f"{solver}: empty golden front"
    _assert_same(measured, golden)


# --------------------------------------------------------------------------- #
# Embedding golden: Algorithm 1's learned table and loss histories, exact
# --------------------------------------------------------------------------- #
EMBEDDINGS_GOLDEN_PATH = Path(__file__).parent / "goldens" / "embeddings.json"


def _embedding_cases() -> dict:
    from repro.experiments.common import ExperimentConfig
    from repro.knowledge.embedding import EmbeddingConfig

    return {
        "experiment_seed3100": (StrategySpace(), ExperimentConfig(seed=3100).embedding_config()),
        "default": (StrategySpace(), EmbeddingConfig()),
        "no_kg": (StrategySpace(), EmbeddingConfig(use_kg=False)),
        "no_experience": (StrategySpace(), EmbeddingConfig(use_experience=False)),
        "c2_only": (StrategySpace(method_labels=["C2"]), EmbeddingConfig()),
    }


def _embedding_outcome(space: StrategySpace, config) -> dict:
    import hashlib

    from repro.knowledge.embedding import learn_embeddings

    learned = learn_embeddings(space, config=config)
    return {
        "table_sha256": hashlib.sha256(learned.table.tobytes()).hexdigest(),
        "shape": list(learned.table.shape),
        "transr_losses": learned.transr_losses,
        "nn_exp_losses": learned.nn_exp_losses,
    }


def test_embeddings_match_goldens(update_goldens):
    """Algorithm 1 (TransR alternating with NN_exp) on five configurations:
    the sha256 of the learned table's bytes and both loss histories as exact
    floats.  Any change to the arithmetic of TransR, record matching or
    NN_exp training, however small, changes a hash or a loss here."""
    measured = {
        name: _embedding_outcome(space, config)
        for name, (space, config) in _embedding_cases().items()
    }
    if update_goldens:
        EMBEDDINGS_GOLDEN_PATH.write_text(json.dumps(measured, indent=2, sort_keys=True) + "\n")
        pytest.skip("embedding goldens regenerated; review the diff")

    golden = json.loads(EMBEDDINGS_GOLDEN_PATH.read_text())
    assert set(measured) == set(golden)
    for name, expected in golden.items():
        assert measured[name] == expected, name


# --------------------------------------------------------------------------- #
# Knowledge-graph golden: G's entity ids, triplet rows and inspect output
# --------------------------------------------------------------------------- #
GRAPH_GOLDEN_PATH = Path(__file__).parent / "goldens" / "knowledge_graph.json"


def _graph_outcome(space: StrategySpace) -> dict:
    import hashlib

    from repro.knowledge.graph import ENTITY_TYPES, build_knowledge_graph

    def sha256(text: str) -> str:
        return hashlib.sha256(text.encode()).hexdigest()

    graph = build_knowledge_graph(space)
    names = sorted(graph.entity_index, key=graph.entity_index.__getitem__)
    return {
        "triplets_sha256": hashlib.sha256(graph.triplets.tobytes()).hexdigest(),
        "triplets_shape": list(graph.triplets.shape),
        "triplets_dtype": str(graph.triplets.dtype),
        "entity_names_sha256": sha256(json.dumps(names)),
        "skeleton_names": names[: len(names) - len(graph.strategy_entities)],
        "strategy_entities_sha256": sha256(json.dumps(list(graph.strategy_entities.items()))),
        "entity_type_counts": {t: len(graph.entities_of_type(t)) for t in ENTITY_TYPES},
    }


def test_knowledge_graph_matches_goldens(capsys, update_goldens):
    """G over the paper's space and the quantization-extended space: the
    triplet array's bytes, the entity names in id order, the strategy ->
    entity map and the per-type counts, plus ``repro inspect --graph``'s
    stdout.  TransR trains on these ids, so a reordered entity or triplet
    changes the learned embeddings even when the graph's facts are equal."""
    from repro.cli import main

    measured = {
        "default": _graph_outcome(StrategySpace()),
        "quantization": _graph_outcome(StrategySpace(include_quantization=True)),
    }
    capsys.readouterr()
    assert main(["inspect", "--graph"]) == 0
    measured["inspect_graph_stdout"] = capsys.readouterr().out
    if update_goldens:
        GRAPH_GOLDEN_PATH.write_text(json.dumps(measured, indent=2, sort_keys=True) + "\n")
        pytest.skip("knowledge-graph goldens regenerated; review the diff")

    golden = json.loads(GRAPH_GOLDEN_PATH.read_text())
    assert measured == golden


# --------------------------------------------------------------------------- #
# Figure 5 golden: the §4.5 ablation searches on both experiments
# --------------------------------------------------------------------------- #
FIGURE5_GOLDEN_PATH = Path(__file__).parent / "goldens" / "figure5.json"

#: a seconds-range config; its embedding epochs (3 TransR, 30 NN_exp per
#: round) are the ``EmbeddingConfig`` defaults
FIGURE5_CONFIG = dict(
    budget_hours=0.6,
    embedding_rounds=1,
    transr_epochs_per_round=3,
    nn_exp_epochs_per_round=30,
    sample_size=2,
    evals_per_round=2,
    candidate_subsample=48,
    seed=0,
)


def _figure5_outcome() -> dict:
    from repro.experiments import ExperimentConfig, run_figure5

    figure = run_figure5(ExperimentConfig(**FIGURE5_CONFIG))
    measured = {}
    for series in figure.series:
        search = figure.searches[series.experiment][series.variant]
        measured.setdefault(series.experiment, {})[series.variant] = {
            "evaluated": [r.scheme.identifier for r in search.all_results],
            "total_cost": search.total_cost,
            "evaluations": search.evaluations,
            "best_accuracy": series.best_accuracy,
            "hypervolume": series.hypervolume,
            "front": [
                {
                    "scheme": r.scheme.identifier,
                    "params": int(r.params),
                    "flops": int(r.flops),
                    "accuracy": r.accuracy,
                }
                for r in search.front
            ],
        }
    return measured


def test_figure5_matches_goldens(update_goldens):
    """Every (experiment, variant) search of the §4.5 ablation study: the
    evaluated schemes in order, the charged cost, the evaluation count, the
    final best accuracy and hypervolume, and the front.  Any change in how a
    variant's search is assembled (embeddings, experience, space, solver)
    shows up here."""
    measured = _figure5_outcome()
    if update_goldens:
        FIGURE5_GOLDEN_PATH.write_text(json.dumps(measured, indent=2, sort_keys=True) + "\n")
        pytest.skip("figure5 goldens regenerated; review the diff")

    golden = json.loads(FIGURE5_GOLDEN_PATH.read_text())
    assert sorted(golden) == ["Exp1", "Exp2"]
    for exp_name, variants in golden.items():
        assert len(variants) == 5, exp_name
        for variant, outcome in variants.items():
            assert outcome["front"], f"{exp_name}/{variant}: empty golden front"
    _assert_same(measured, golden, "figure5")


# --------------------------------------------------------------------------- #
# Trace-journal golden: every span, event and metric the program emits
# --------------------------------------------------------------------------- #
TRACE_GOLDEN_PATH = Path(__file__).parent / "goldens" / "trace_journal.json"

#: wall-clock fields of a journal record (span start, duration, meta time)
_WALL_CLOCK_FIELDS = ("t", "dur", "created")

#: counters whose value depends on what the process did before the run, so
#: only their being positive is pinned: the first module a process pickles
#: takes a few more bytes than later ones
_HISTORY_COUNTERS = ("snapshot.bytes_written",)


def _trace_surrogate(**config):
    from repro.core import EvaluatorConfig, SurrogateEvaluator
    from repro.data.tasks import EXP1, transfer_task
    from repro.models import resnet20

    task = transfer_task(EXP1, "resnet20", 0.27, 0.08, EXP1.model_accuracy)
    return SurrogateEvaluator(
        lambda: resnet20(num_classes=10), "resnet20", "cifar10", task,
        config=EvaluatorConfig(seed=0, **config),
    )


def _traced_outcome(path: Path, produce) -> dict:
    """Run ``produce(tracer)`` under a journaling tracer; return what it wrote.

    Each journal record keeps its type, name, ids, parent, attrs and cost;
    the counters and gauges of the tracer's metrics ride along.  Wall-clock
    fields and the ``dur.*`` histograms are left out, and history-dependent
    counters are reduced to whether they are positive.
    """
    from repro.obs import RunJournal, Tracer, read_journal

    tracer = Tracer(journal=RunJournal(path, run={"golden": path.stem}))
    try:
        produce(tracer)
    finally:
        tracer.close()
    records = [
        {key: value for key, value in record.items() if key not in _WALL_CLOCK_FIELDS}
        for record in read_journal(path)
    ]
    snapshot = tracer.metrics.snapshot()
    counters = {
        name: value > 0 if name in _HISTORY_COUNTERS else value
        for name, value in snapshot["counters"].items()
    }
    return {"records": records, "counters": counters, "gauges": snapshot["gauges"]}


def _trace_outcomes(tmp_path: Path, tiny_train) -> dict:
    from repro.analysis.costmodel import Budget
    from repro.analysis.linter import SchemeRejected
    from repro.core.engine import EvaluationEngine
    from repro.models import resnet8
    from repro.nn import Trainer
    from repro.obs import attach_tracer

    space = StrategySpace()
    snapshots = str(tmp_path / "snapshots")
    budget = Budget(max_flops=26_000_000)
    c3 = space.of_method("C3")
    over_budget = CompressionScheme((c3[0],))

    def surrogate_search(tracer):
        # Snapshot store, latency probe and a static FLOPs cap: budget
        # filtering, snapshot saves and latency spans; then memory hits
        # through evaluate and evaluate_many and one budget rejection.
        evaluator = _trace_surrogate(budget=budget, latency_batch=2, snapshot_dir=snapshots)
        attach_tracer(evaluator, tracer)
        result = run_solver("random", evaluator, space, gamma=0.3, budget_hours=1.2, seed=0)
        evaluated = [r.scheme for r in result.all_results]
        evaluator.evaluate(evaluated[0])
        evaluator.evaluate_many(evaluated[:2] + evaluated[:1])
        try:
            evaluator.evaluate(over_budget)
        except SchemeRejected:
            pass

    def snapshot_resume(tracer):
        # The same search on a fresh evaluator over the same store resumes
        # its multi-step schemes from disk snapshots.
        evaluator = _trace_surrogate(budget=budget, latency_batch=2, snapshot_dir=snapshots)
        attach_tracer(evaluator, tracer)
        run_solver("random", evaluator, space, gamma=0.3, budget_hours=1.2, seed=0)

    def engine_search(tracer):
        engine = EvaluationEngine(_trace_surrogate(), workers=2, cache_dir=tmp_path / "cache")
        with engine:
            attach_tracer(engine, tracer)
            run_solver(
                "evolution", engine, space, gamma=0.3, budget_hours=1.0, seed=0,
                population_size=4, offspring_per_generation=3,
            )

    def trainer_fit(tracer):
        trainer = Trainer(lr=0.05, batch_size=32, seed=0)
        trainer.tracer = tracer
        trainer.fit(resnet8(num_classes=4), tiny_train, epochs=1.5)

    return {
        "surrogate_search": _traced_outcome(tmp_path / "surrogate_search.jsonl", surrogate_search),
        "snapshot_resume": _traced_outcome(tmp_path / "snapshot_resume.jsonl", snapshot_resume),
        "engine_cold": _traced_outcome(tmp_path / "engine_cold.jsonl", engine_search),
        "engine_warm": _traced_outcome(tmp_path / "engine_warm.jsonl", engine_search),
        "trainer_fit": _traced_outcome(tmp_path / "trainer_fit.jsonl", trainer_fit),
    }


def test_trace_journal_matches_goldens(tmp_path, tiny_data, update_goldens):
    """What a traced run writes to its journal, record by record: a
    surrogate search with a snapshot store, the latency probe and a FLOPs
    cap (plus memory hits and a budget rejection), the same search resumed
    from the store, a two-worker engine search run twice over one result
    cache (the second takes disk hits), and a ``Trainer.fit``.  Any change
    in which spans and events the program emits, their nesting, attrs,
    costs or metrics shows up here."""
    measured = _trace_outcomes(tmp_path, tiny_data[0])
    if update_goldens:
        TRACE_GOLDEN_PATH.write_text(json.dumps(measured, indent=2, sort_keys=True) + "\n")
        pytest.skip("trace journal goldens regenerated; review the diff")

    golden = json.loads(TRACE_GOLDEN_PATH.read_text())
    _assert_same(measured, golden, "trace_journal")


# --------------------------------------------------------------------------- #
# Distillation golden: the weights C1, C5 and C6 train against their teacher
# --------------------------------------------------------------------------- #
DISTILLATION_GOLDEN_PATH = Path(__file__).parent / "goldens" / "distillation.json"

#: (method, model fixture, hyperparameters) per case: one LMA temperature /
#: alpha setting, one HOS reconstruction factor, every LFB auxiliary loss
DISTILLATION_CASES = {
    "C1_HP4=6_HP5=0.3": ("C1", "trained_resnet8", {"HP1": 0.2, "HP2": 0.2, "HP4": 6, "HP5": 0.3}),
    "C5_HP14=3": ("C5", "trained_resnet8", {
        "HP1": 0.2, "HP2": 0.2, "HP11": "P1", "HP12": "k34", "HP13": 0.3, "HP14": 3,
    }),
    "C6_HP16=NLL": ("C6", "trained_vgg8", {"HP1": 0.2, "HP2": 0.2, "HP15": 1.5, "HP16": "NLL"}),
    "C6_HP16=CE": ("C6", "trained_vgg8", {"HP1": 0.2, "HP2": 0.2, "HP15": 1.5, "HP16": "CE"}),
    "C6_HP16=MSE": ("C6", "trained_vgg8", {"HP1": 0.2, "HP2": 0.2, "HP15": 1.5, "HP16": "MSE"}),
}


def _distillation_outcome(label: str, source, hp: dict, tiny_data) -> dict:
    import copy
    import hashlib

    from repro.compression import METHODS, ExecutionContext
    from repro.nn import Trainer

    train, val = tiny_data
    model = copy.deepcopy(source)
    ctx = ExecutionContext(
        original_params=model.num_parameters(),
        pretrain_epochs=2,
        dataset=train,
        val_dataset=val,
        trainer=Trainer(lr=0.05, batch_size=32, seed=0),
        train_enabled=True,
        seed=0,
    )
    METHODS[label].apply(model, dict(hp), ctx)
    return {
        name: hashlib.sha256(param.data.tobytes()).hexdigest()
        for name, param in model.named_parameters()
    }


def test_distillation_matches_goldens(request, tiny_data, update_goldens):
    """C1, C5 and C6 distil the compressed model from a copy of itself taken
    before the step.  The sha256 of every trained parameter's bytes is
    pinned per case, so any change to the teacher copy, its forward pass or
    a per-method loss shows up here.  The LFB cases differ only in the
    auxiliary loss, so MSE must train other weights than CE.  (NLL of the
    log-softmax and CE are the same loss, and train the same weights.)"""
    measured = {
        name: _distillation_outcome(label, request.getfixturevalue(fixture), hp, tiny_data)
        for name, (label, fixture, hp) in DISTILLATION_CASES.items()
    }
    assert measured["C6_HP16=MSE"] != measured["C6_HP16=CE"]
    if update_goldens:
        DISTILLATION_GOLDEN_PATH.write_text(json.dumps(measured, indent=2, sort_keys=True) + "\n")
        pytest.skip("distillation goldens regenerated; review the diff")

    golden = json.loads(DISTILLATION_GOLDEN_PATH.read_text())
    assert set(measured) == set(golden)
    for name, expected in golden.items():
        assert measured[name] == expected, name
