"""Build-path tests for the §4.5 ablation variants.

Each variant is an ``AutoMC`` configuration run through ``run_algorithm``
(:mod:`repro.experiments.figure5`).  :func:`variant_solver` follows that
path up to the solver ``AutoMC.search`` builds and stops it before the
first evaluation, so the tests read the solver exactly as it would start.
"""

from unittest import mock

import pytest

from repro.core import api
from repro.core.progressive import ProgressiveSolver
from repro.core.solver import make_solver
from repro.experiments import ExperimentConfig
from repro.experiments.figure5 import VARIANTS, run_variant

#: embedding epochs (1 TransR, 3 NN_exp per round) below the EmbeddingConfig
#: defaults, so a variant that ignored the config would learn differently
CONFIG = ExperimentConfig(
    budget_hours=0.4,
    embedding_rounds=1,
    transr_epochs_per_round=1,
    nn_exp_epochs_per_round=3,
    sample_size=2,
    evals_per_round=2,
    candidate_subsample=48,
    seed=0,
)


class _Built(Exception):
    """Stops a search once its solver exists."""


def variant_solver(variant: str, config: ExperimentConfig = CONFIG):
    """The solver ``run_variant(variant, "Exp1", config)`` builds, unrun."""
    built = []

    def capture(*args, **kwargs):
        built.append(make_solver(*args, **kwargs))
        raise _Built

    with mock.patch.object(api, "make_solver", capture), pytest.raises(_Built):
        run_variant(variant, "Exp1", config)
    return built[0]


class TestVariantWiring:
    def test_variant_list(self):
        assert VARIANTS == (
            "AutoMC",
            "AutoMC-KG",
            "AutoMC-NNexp",
            "AutoMC-MultipleSource",
            "AutoMC-ProgressiveSearch",
        )

    def test_autockg_skips_transr(self):
        searcher = variant_solver("AutoMC-KG")
        assert searcher.fmo.embeddings.transr_losses == []
        assert searcher.fmo.embeddings.nn_exp_losses
        # Experience is still used: warm start happened.
        assert searcher.fmo.buffer

    def test_autonnexp_skips_experience_everywhere(self):
        searcher = variant_solver("AutoMC-NNexp")
        assert searcher.fmo.embeddings.transr_losses
        assert searcher.fmo.embeddings.nn_exp_losses == []
        assert searcher.fmo.buffer == []  # no warm start either

    def test_full_automc_uses_both(self):
        searcher = variant_solver("AutoMC")
        assert isinstance(searcher, ProgressiveSolver)
        assert len(searcher.space) == 4230
        assert searcher.fmo.embeddings.transr_losses
        assert searcher.fmo.embeddings.nn_exp_losses
        assert searcher.fmo.buffer

    def test_variants_honour_the_config_epochs(self):
        """One round of 1 TransR and 3 NN_exp epochs, as the config says."""
        expected = {
            "AutoMC": (1, 3),
            "AutoMC-KG": (0, 3),
            "AutoMC-NNexp": (1, 0),
            "AutoMC-MultipleSource": (1, 3),
        }
        for variant, epochs in expected.items():
            embeddings = variant_solver(variant).fmo.embeddings
            got = (len(embeddings.transr_losses), len(embeddings.nn_exp_losses))
            assert got == epochs, variant

    def test_progressive_search_variant_is_rl_on_full_space(self):
        searcher = variant_solver("AutoMC-ProgressiveSearch")
        assert searcher.solver_name == "rl"
        assert len(searcher.space) == 4230
