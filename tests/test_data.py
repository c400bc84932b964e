"""Tests for synthetic datasets and task descriptors."""

import numpy as np
import pytest

from repro.data import (
    EXP1,
    EXP2,
    SyntheticImageDataset,
    task_from_dataset,
    tiny_dataset,
    transfer_task,
)


class TestSyntheticDataset:
    def test_shapes(self):
        data = SyntheticImageDataset(num_classes=5, num_samples=50, image_size=16)
        assert len(data) == 50
        x, y = data[0]
        assert x.shape == (3, 16, 16)
        assert 0 <= y < 5

    def test_standardised(self):
        data = SyntheticImageDataset(num_classes=10, num_samples=256, image_size=32)
        assert abs(data.images.mean()) < 0.05
        assert abs(data.images.std() - 1.0) < 0.05

    def test_deterministic_by_seed(self):
        a = tiny_dataset(seed=7)
        b = tiny_dataset(seed=7)
        np.testing.assert_array_equal(a.images, b.images)
        c = tiny_dataset(seed=8)
        assert np.abs(a.images - c.images).sum() > 0

    def test_all_classes_present(self):
        data = SyntheticImageDataset(num_classes=10, num_samples=100)
        assert set(np.unique(data.labels)) == set(range(10))

    def test_requires_one_sample_per_class(self):
        with pytest.raises(ValueError):
            SyntheticImageDataset(num_classes=10, num_samples=5)

    def test_learnable_signal(self):
        """Same-class images must correlate more than cross-class ones."""
        data = SyntheticImageDataset(num_classes=2, num_samples=40, noise=0.1, seed=0)
        flat = data.images.reshape(len(data), -1)
        flat = flat / np.linalg.norm(flat, axis=1, keepdims=True)
        sims = flat @ flat.T
        same = sims[data.labels[:, None] == data.labels[None, :]].mean()
        cross = sims[data.labels[:, None] != data.labels[None, :]].mean()
        assert same > cross + 0.1


class TestBatching:
    def test_iter_batches_covers_everything(self):
        data = tiny_dataset(num_samples=50)
        total = sum(len(y) for _, y in data.iter_batches(16))
        assert total == 50

    def test_with_indices(self):
        data = tiny_dataset(num_samples=40)
        for x, y, idx in data.iter_batches(8, with_indices=True):
            np.testing.assert_array_equal(data.labels[idx], y)

    def test_shuffle_changes_order(self):
        data = tiny_dataset(num_samples=64)
        first = next(iter(data.iter_batches(64, shuffle=False)))[1]
        shuffled = next(
            iter(data.iter_batches(64, shuffle=True, rng=np.random.default_rng(1)))
        )[1]
        assert not np.array_equal(first, shuffled)


class TestSplitsAndSubsampling:
    def test_split_fractions(self):
        data = tiny_dataset(num_samples=100)
        a, b = data.split(0.75, seed=0)
        assert len(a) == 75 and len(b) == 25

    def test_split_disjoint(self):
        data = tiny_dataset(num_samples=60)
        a, b = data.split(0.5, seed=0)
        # Images are unique per index, so row-wise comparison detects overlap.
        a_rows = {img.tobytes() for img in a.images}
        b_rows = {img.tobytes() for img in b.images}
        assert not (a_rows & b_rows)

    def test_subsample_stratified(self):
        data = SyntheticImageDataset(num_classes=4, num_samples=200, seed=0)
        sub = data.subsample(0.1, seed=0)
        counts = np.bincount(sub.labels, minlength=4)
        assert (counts >= 1).all()
        assert len(sub) == pytest.approx(20, abs=4)


class TestTasks:
    def test_feature_vector_length(self):
        assert EXP1.feature_vector().shape == (7,)
        assert EXP2.feature_vector().shape == (7,)

    def test_exp_constants_match_paper(self):
        assert EXP1.model_name == "resnet56" and EXP1.num_classes == 10
        assert EXP2.model_name == "vgg16" and EXP2.num_classes == 100
        assert EXP1.model_accuracy == pytest.approx(0.9104)
        assert EXP2.model_accuracy == pytest.approx(0.7003)

    def test_task_from_dataset(self, tiny_data, trained_resnet8):
        train, _ = tiny_data
        task = task_from_dataset(train, trained_resnet8, "resnet8", 0.8)
        assert task.num_classes == train.num_classes
        assert task.model_params > 0

    def test_transfer_task_keeps_dataset(self):
        moved = transfer_task(EXP1, "resnet20", 0.27, 0.08, 0.913)
        assert moved.num_classes == EXP1.num_classes
        assert moved.model_name == "resnet20"
        assert "resnet20" in moved.name
