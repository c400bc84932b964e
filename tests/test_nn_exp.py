"""Tests for the NN_exp enhancement network in isolation."""

import numpy as np
import pytest

from repro.knowledge.experience import default_experience
from repro.knowledge.nn_exp import NNExp, enhance_embeddings
from repro.nn import Tensor
from repro.space import StrategySpace


@pytest.fixture(scope="module")
def small_space():
    return StrategySpace(method_labels=["C2", "C3"])


class TestNNExpNetwork:
    def test_forward_shape(self, rng):
        net = NNExp(embedding_dim=16)
        out = net(Tensor(rng.normal(size=(5, 16))), Tensor(rng.normal(size=(5, 7))))
        assert out.shape == (5, 2)


class TestEnhancement:
    def test_embeddings_change_only_for_matched(self, small_space, rng):
        table = rng.normal(0, 0.1, size=(len(small_space), 16))
        records = [r for r in default_experience() if r.method_label in ("C2", "C3")]
        result, net = enhance_embeddings(table, small_space, records, epochs=10, seed=0)
        assert result.matched_records == len(records)
        # Embedding of a strategy nobody reported on must be untouched...
        from repro.knowledge.experience import nearest_strategy

        touched = {nearest_strategy(small_space, r).index for r in records}
        untouched = next(i for i in range(len(small_space)) if i not in touched)
        np.testing.assert_array_equal(result.embeddings[untouched], table[untouched])
        # ...while matched ones moved.
        moved = next(iter(touched))
        assert not np.allclose(result.embeddings[moved], table[moved])

    def test_loss_decreases(self, small_space, rng):
        table = rng.normal(0, 0.1, size=(len(small_space), 16))
        records = [r for r in default_experience() if r.method_label == "C2"]
        result, _ = enhance_embeddings(table, small_space, records, epochs=40, seed=0)
        assert result.losses[-1] < result.losses[0]

    def test_no_matching_records_is_noop(self, small_space, rng):
        table = rng.normal(size=(len(small_space), 16))
        records = [r for r in default_experience() if r.method_label == "C5"]
        result, _ = enhance_embeddings(table, small_space, records, epochs=5)
        assert result.matched_records == 0
        np.testing.assert_array_equal(result.embeddings, table)

    def test_network_reusable_across_rounds(self, small_space, rng):
        table = rng.normal(0, 0.1, size=(len(small_space), 16))
        records = [r for r in default_experience() if r.method_label in ("C2", "C3")]
        result1, net = enhance_embeddings(table, small_space, records, epochs=10, seed=0)
        result2, net2 = enhance_embeddings(
            result1.embeddings, small_space, records, network=net, epochs=10, seed=0
        )
        assert net2 is net
        assert result2.losses[-1] <= result1.losses[0]
