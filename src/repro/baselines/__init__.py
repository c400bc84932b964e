"""AutoML baselines compared against AutoMC (§4.1).

Every search algorithm here is a registered :class:`repro.core.solver.Solver`
(``random``, ``evolution``, ``grid``, ``rl``, ``sa``, ``regevo``, ``amc``),
run through :func:`repro.core.solver.run_solver` / ``make_solver``.
"""

from .amc import AMCSolver
from .evolution import EvolutionSolver
from .grid import GridSearchOutcome, GridSolver, run_all_human_methods, run_human_method
from .moves import mutate_scheme
from .random_search import RandomSolver
from .regevo import RegularizedEvolutionSolver
from .rl import ControllerRNN, RLSolver
from .sa import SimulatedAnnealingSolver

__all__ = [
    "AMCSolver",
    "ControllerRNN",
    "EvolutionSolver",
    "GridSearchOutcome",
    "GridSolver",
    "RLSolver",
    "RandomSolver",
    "RegularizedEvolutionSolver",
    "SimulatedAnnealingSolver",
    "mutate_scheme",
    "run_all_human_methods",
    "run_human_method",
]
