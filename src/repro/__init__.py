"""AutoMC reproduction: automated model compression with domain knowledge
and a progressive search strategy (Wang, Wang, Shi — ICDE 2024).

Subpackages
-----------
``repro.nn``           numpy autodiff + neural-network substrate
``repro.models``       CIFAR-style ResNets/VGGs with pruning graphs
``repro.data``         synthetic datasets and task descriptors
``repro.compression``  the six compression methods of Table 1 (+ INQ ext.)
``repro.space``        the 4,230-strategy search space
``repro.knowledge``    knowledge graph, TransR, experience, NN_exp
``repro.sim``          calibrated paper-scale accuracy surrogate
``repro.core``         evaluators, F_mo, progressive search, AutoMC facade
``repro.baselines``    the seven baseline solvers (Random, Evolution, RL, Grid,
                       SA, RegEvo, AMC) and the human-method grids
``repro.experiments``  Table 2/3 and Figure 4/5/6 reproduction harnesses
"""

from .core.api import AutoMC
from .core.search import SearchResult
from .space import CompressionScheme, CompressionStrategy, StrategySpace

__version__ = "1.0.0"

__all__ = [
    "AutoMC",
    "CompressionScheme",
    "CompressionStrategy",
    "SearchResult",
    "StrategySpace",
    "__version__",
]
