"""Build-path tests for the knowledge ablation variants (§4.5)."""


from repro.core.ablation import VARIANTS, build_variant
from repro.core.config import EvaluatorConfig
from repro.core.evaluator import SurrogateEvaluator
from repro.data.tasks import EXP1, transfer_task
from repro.models import resnet20


def _evaluator():
    task = transfer_task(EXP1, "resnet20", 0.27, 0.08, EXP1.model_accuracy)
    return SurrogateEvaluator(
        lambda: resnet20(num_classes=10), "resnet20", "cifar10", task,
        config=EvaluatorConfig(seed=0),
    )


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
        searcher = build_variant(
            "AutoMC-KG", _evaluator(), budget_hours=0.1, embedding_rounds=1
        )
        assert searcher.name == "AutoMC-KG"
        assert searcher.fmo.embeddings.transr_losses == []
        # Experience is still used: warm start happened.
        assert searcher.fmo.buffer

    def test_autonnexp_skips_experience_everywhere(self):
        searcher = build_variant(
            "AutoMC-NNexp", _evaluator(), budget_hours=0.1, embedding_rounds=1
        )
        assert searcher.fmo.embeddings.nn_exp_losses == []
        assert searcher.fmo.buffer == []  # no warm start either

    def test_full_automc_uses_both(self):
        searcher = build_variant(
            "AutoMC", _evaluator(), budget_hours=0.1, embedding_rounds=1
        )
        assert searcher.fmo.embeddings.transr_losses
        assert searcher.fmo.embeddings.nn_exp_losses
        assert searcher.fmo.buffer
