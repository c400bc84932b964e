"""AutoMC core: evaluators, engine, F_mo, progressive search, Pareto tools."""

from .api import AutoMC
from .config import EvaluatorConfig
from .engine import EvaluationEngine, WorkerError, plan_prefix_groups
from .evaluator import (
    EvaluationResult,
    ModelSnapshot,
    SchemeEvaluator,
    SurrogateEvaluator,
    TrainingEvaluator,
)
from .fmo import Fmo, FmoNetwork
from .interface import Evaluator
from .pareto import (
    crowding_distance,
    hypervolume_2d,
    nondominated_sort,
    pareto_indices,
    pareto_mask,
    select_diverse,
)
from .progressive import ProgressiveConfig, ProgressiveSolver
from .search import SearchResult, SearchStrategy, TrajectoryPoint
from .solver import (
    SOLVER_REGISTRY,
    Solver,
    get_solver,
    list_solvers,
    make_solver,
    register_solver,
    run_solver,
)
from .stores import ModelSnapshotStore, ResultCache, cache_stats, prune_cache

__all__ = [
    "AutoMC",
    "EvaluationEngine",
    "EvaluationResult",
    "Evaluator",
    "EvaluatorConfig",
    "Fmo",
    "FmoNetwork",
    "ModelSnapshot",
    "ModelSnapshotStore",
    "ProgressiveConfig",
    "ProgressiveSolver",
    "ResultCache",
    "SchemeEvaluator",
    "SOLVER_REGISTRY",
    "SearchResult",
    "SearchStrategy",
    "Solver",
    "SurrogateEvaluator",
    "TrainingEvaluator",
    "TrajectoryPoint",
    "WorkerError",
    "cache_stats",
    "crowding_distance",
    "get_solver",
    "hypervolume_2d",
    "list_solvers",
    "make_solver",
    "nondominated_sort",
    "pareto_indices",
    "pareto_mask",
    "plan_prefix_groups",
    "prune_cache",
    "register_solver",
    "run_solver",
    "select_diverse",
]
