"""AutoMC — the user-facing facade.

Typical use (paper scale, surrogate accuracy):

    from repro import AutoMC
    automc = AutoMC.paper_scale("resnet56", "cifar10", gamma=0.3, budget_hours=8)
    result = automc.search()
    print(result.summary())

Parallel evaluation with a persistent cross-run cache:

    automc = AutoMC.paper_scale(
        "resnet56", "cifar10", budget_hours=8,
        parallelism=4, cache_dir="runs/cache",
    )
    result = automc.search()  # repeated runs skip already-paid evaluations

Or fully real (tiny models, real training):

    automc = AutoMC.with_training(model_factory, train_data, val_data, gamma=0.2)
    result = automc.search()
"""

from __future__ import annotations

from typing import Callable, Optional, Union

from ..data.tasks import EXP1, EXP2, CompressionTask
from ..knowledge.embedding import EmbeddingConfig, StrategyEmbeddings, learn_embeddings
from ..nn import Module
from ..obs import NULL_TRACER, RunJournal, Tracer, attach_tracer
from ..space.strategy import StrategySpace
from .config import EvaluatorConfig
from .engine import EvaluationEngine
from .evaluator import SurrogateEvaluator, TrainingEvaluator
from .interface import Evaluator
from .progressive import ProgressiveConfig
from .search import SearchResult, SearchStrategy
from .solver import make_solver

_PAPER_TASKS = {
    ("resnet56", "cifar10"): EXP1,
    ("vgg16", "cifar100"): EXP2,
}


class AutoMC:
    """Automatic model compression with domain knowledge + progressive search.

    ``parallelism`` and ``cache_dir`` wrap the evaluator in an
    :class:`~repro.core.engine.EvaluationEngine`: candidate batches fan out
    across ``parallelism`` worker processes (0 = serial, with identical
    results), and evaluations persist under ``cache_dir`` so repeated runs
    with the same model/dataset/seed/config skip already-paid simulated
    GPU-hours.  ``snapshot_dir`` adds the disk-backed
    :class:`~repro.core.stores.ModelSnapshotStore`: trained prefix models
    are shared across workers and runs, so siblings of an evaluated scheme
    resume instead of replaying (results and charged costs are unchanged —
    only wall-clock drops).  ``snapshot_budget_mb`` caps the store's on-disk
    size (default 256 MB, LRU eviction).

    ``solver`` picks the search algorithm by registry name (default
    ``"progressive"`` — the paper's Algorithm 2; see
    :func:`repro.core.solver.list_solvers` for the zoo) and
    ``solver_kwargs`` passes per-solver options, e.g.
    ``AutoMC(evaluator, solver="sa", solver_kwargs={"chains": 8})``.

    ``AutoMC`` is where an evaluator, a space and a solver name become a
    running search: the experiment harnesses
    (:func:`repro.experiments.common.run_algorithm`) and the serve
    scheduler both go through it, and so do the §4.5 ablation variants
    (:mod:`repro.experiments.figure5`).  Behind an engine,
    :meth:`search` fills ``result.engine_stats`` with the engine's counters.

    ``trace`` turns on the :mod:`repro.obs` observability layer: pass
    ``True`` for an in-memory :class:`~repro.obs.Tracer` (inspect
    ``automc.tracer.spans`` / ``.metrics`` afterwards), a path to stream a
    JSONL run journal there (summarise with ``repro trace summarize``), or a
    ready-made :class:`~repro.obs.Tracer`.  The default traces nothing: it
    calls a shared no-op tracer.
    """

    def __init__(
        self,
        evaluator: Evaluator,
        space: Optional[StrategySpace] = None,
        embeddings: Optional[StrategyEmbeddings] = None,
        gamma: float = 0.3,
        budget_hours: float = 24.0,
        max_length: int = 5,
        embedding_config: Optional[EmbeddingConfig] = None,
        progressive_config: Optional[ProgressiveConfig] = None,
        solver: str = "progressive",
        solver_kwargs: Optional[dict] = None,
        seed: int = 0,
        parallelism: int = 0,
        cache_dir: Optional[str] = None,
        snapshot_dir: Optional[str] = None,
        snapshot_budget_mb: Optional[float] = None,
        trace: Union[None, bool, str, Tracer] = None,
    ):
        if snapshot_dir is not None:
            if not hasattr(evaluator, "set_snapshot_dir"):
                raise ValueError(
                    "snapshot_dir needs an evaluator with prefix-snapshot "
                    "support (SurrogateEvaluator / TrainingEvaluator)"
                )
            # Before the engine wrap: workers rebuild evaluators from the
            # config, so the store location must be recorded there.
            evaluator.set_snapshot_dir(snapshot_dir, budget_mb=snapshot_budget_mb)
        if parallelism > 0 or cache_dir is not None:
            evaluator = EvaluationEngine(
                evaluator, workers=parallelism, cache_dir=cache_dir
            )
        if trace is None or trace is False:
            self.tracer = NULL_TRACER
        elif isinstance(trace, Tracer):
            self.tracer = trace
        elif trace is True:
            self.tracer = Tracer()
        else:  # a journal path
            self.tracer = Tracer(journal=RunJournal(trace, run={"api": "AutoMC"}))
        if self.tracer.enabled:
            attach_tracer(evaluator, self.tracer)
        self.evaluator = evaluator
        self.space = space or StrategySpace()
        self.gamma = gamma
        self.budget_hours = budget_hours
        self.max_length = max_length
        self.seed = seed
        self.progressive_config = progressive_config
        self.solver = solver
        self.solver_kwargs = dict(solver_kwargs or {})
        # Embeddings are only needed by the progressive solver; learn them
        # lazily so AutoMC(solver="sa") and friends skip the KG training.
        self._embeddings = embeddings
        self._embedding_config = embedding_config

    # ------------------------------------------------------------------ #
    @classmethod
    def paper_scale(
        cls,
        model_name: str,
        dataset_name: str,
        gamma: float = 0.3,
        budget_hours: float = 24.0,
        task: Optional[CompressionTask] = None,
        seed: int = 0,
        **kwargs,
    ) -> "AutoMC":
        """Surrogate backend on a real full-size model (Exp1/Exp2 setups)."""
        from ..models import create_model

        if task is None:
            task = _PAPER_TASKS.get((model_name, dataset_name))
        if task is None:
            raise KeyError(
                f"no predefined task for ({model_name}, {dataset_name}); pass task="
            )
        num_classes = task.num_classes
        evaluator = SurrogateEvaluator(
            lambda: create_model(model_name, num_classes=num_classes),
            model_name,
            dataset_name,
            task,
            config=EvaluatorConfig(seed=seed),
        )
        return cls(evaluator, gamma=gamma, budget_hours=budget_hours, seed=seed, **kwargs)

    @classmethod
    def with_training(
        cls,
        model_factory: Callable[[], Module],
        train_data,
        val_data,
        gamma: float = 0.2,
        budget_hours: float = 2.0,
        pretrain_epochs: float = 2.0,
        seed: int = 0,
        **kwargs,
    ) -> "AutoMC":
        """Fully real backend: tiny models, real gradient training.

        Pass a registry model *name* (e.g. ``"resnet8"``) as ``model_factory``
        to make the evaluator rebuildable in worker processes — required for
        ``parallelism > 0``.
        """
        evaluator = TrainingEvaluator(
            model_factory,
            train_data,
            val_data,
            config=EvaluatorConfig(pretrain_epochs=pretrain_epochs, seed=seed),
        )
        return cls(evaluator, gamma=gamma, budget_hours=budget_hours, seed=seed, **kwargs)

    # ------------------------------------------------------------------ #
    @property
    def embeddings(self) -> StrategyEmbeddings:
        """Learned strategy embeddings (trained on first access)."""
        if self._embeddings is None:
            self._embeddings = learn_embeddings(
                self.space,
                config=self._embedding_config or EmbeddingConfig(seed=self.seed),
            )
        return self._embeddings

    def search(
        self,
        stop: Optional[Callable[[], bool]] = None,
        on_round: Optional[Callable[[SearchStrategy], None]] = None,
    ) -> SearchResult:
        """Run the selected solver and return the Pareto-optimal schemes.

        The default solver is the paper's progressive search (Algorithm 2);
        any registered solver name works — see
        :func:`repro.core.solver.list_solvers`.  ``stop`` and ``on_round``
        are forwarded to :meth:`repro.core.solver.Solver.run` (cooperative
        cancellation and per-round progress; neither changes the result).
        """
        try:
            kwargs = dict(self.solver_kwargs)
            if self.solver == "progressive":
                from ..knowledge.experience import default_experience

                kwargs.setdefault("embeddings", self.embeddings)
                kwargs.setdefault("config", self.progressive_config)
                kwargs.setdefault("experience", default_experience())
            searcher = make_solver(
                self.solver,
                self.evaluator,
                self.space,
                gamma=self.gamma,
                budget_hours=self.budget_hours,
                max_length=self.max_length,
                seed=self.seed,
                tracer=self.tracer if self.tracer.enabled else None,
                **kwargs,
            )
            result = searcher.run(stop=stop, on_round=on_round)
            engine = self.evaluator
            if isinstance(engine, EvaluationEngine):
                result.engine_stats = {
                    "workers": engine.workers,
                    "cache_hits": engine.cache_hits,
                    "cache_foreign_hits": engine.cache_foreign_hits,
                    "fresh_evaluations": engine.fresh_evaluations,
                    "steps_replayed": engine.steps_replayed,
                    "snapshot_hits": engine.snapshot_hits,
                    "snapshot_foreign_hits": engine.snapshot_foreign_hits,
                    "snapshot_steps_saved": engine.snapshot_steps_saved,
                }
            return result
        finally:
            self.close()

    def close(self) -> None:
        """Release engine workers and flush the trace journal (idempotent)."""
        if isinstance(self.evaluator, EvaluationEngine):
            self.evaluator.close()
        self.tracer.close()
