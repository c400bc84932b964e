"""The disk-store contract shared by the result cache and the snapshot store.

Both tiers keep one file per identifier under
``<dir>/<fingerprint[:16]>/<sha256(identifier)[:24]><suffix>`` and must
agree on the same policies: atomic writes that leave nothing behind on a
failing encoder, identifier mismatches and unreadable files read as misses,
oldest-first eviction that spares the entry just written, and foreign-hit
detection through ``written_ids``.  Every test runs on both stores.
"""

import os
import time

import pytest

from repro.compression import StepReport
from repro.core import EvaluationResult, ModelSnapshot, ModelSnapshotStore, ResultCache
from repro.core.stores import cache_stats, prune_cache
from repro.nn import Linear
from repro.space import StrategySpace

FINGERPRINT = "0123456789abcdef0123456789abcdef01234567"
PINNED_ID = "C3[HP1=0.1,HP2=0.2,HP6=0.7]"
PINNED_NAME = "0123456789abcdef/18d74ebd14ffabd7482d3dc2"


@pytest.fixture(scope="module")
def schemes():
    space = StrategySpace()
    texts = [
        PINNED_ID,
        "C3[HP1=0.1,HP2=0.2,HP6=0.7] -> C2[HP1=0.1,HP2=0.04,HP6=0.7,HP7=0.4,HP8=l2_bn_param]",
        "C2[HP1=0.1,HP2=0.04,HP6=0.7,HP7=0.4,HP8=l2_bn_param]",
    ]
    return [space.parse_scheme(text) for text in texts]


class Results:
    """Drives a :class:`ResultCache`; entries are evaluation results."""

    suffix = ".json"

    def __init__(self, schemes):
        self.schemes = {s.identifier: s for s in schemes}

    def open(self, directory, two_fit=False):
        return ResultCache(directory, FINGERPRINT, max_entries=2 if two_fit else None)

    def put(self, store, identifier, bad=False):
        store.put(
            EvaluationResult(
                scheme=self.schemes[identifier],
                params=80, flops=160, accuracy=0.9,
                base_params=100, base_flops=200, base_accuracy=0.93,
                cost=0.25,
                step_reports=[StepReport("C3", 100, 80)],
                step_costs=[0.25],
                latency_ms=object() if bad else 1.5,
            )
        )

    def get(self, store, identifier):
        return store.get(self.schemes[identifier])


class Snapshots:
    """Drives a :class:`ModelSnapshotStore`; entries are prefix models."""

    suffix = ".snap"

    def __init__(self, schemes):
        self.model = Linear(4, 2)

    def open(self, directory, two_fit=False):
        if not two_fit:
            return ModelSnapshotStore(directory, FINGERPRINT)
        probe = ModelSnapshotStore(directory / "probe", FINGERPRINT)
        self.put(probe, PINNED_ID)
        one = os.path.getsize(probe._path(PINNED_ID))
        return ModelSnapshotStore(directory / "capped", FINGERPRINT, budget_bytes=int(2.5 * one))

    def put(self, store, identifier, bad=False):
        accuracy = (lambda: 0.9) if bad else 0.9  # a lambda does not pickle
        store.put(ModelSnapshot(identifier, self.model, accuracy, [], [0.25]))

    def get(self, store, identifier):
        return store.get(identifier)


@pytest.fixture(params=[Results, Snapshots], ids=["result-cache", "snapshot-store"])
def kind(request, schemes):
    return request.param(schemes)


def test_file_name_is_pinned(tmp_path, kind):
    store = kind.open(tmp_path)
    kind.put(store, PINNED_ID)
    path = store._path(PINNED_ID)
    assert path == tmp_path / (PINNED_NAME + kind.suffix)
    assert path.exists()


def test_failing_encoder_leaves_nothing(tmp_path, kind):
    store = kind.open(tmp_path)
    with pytest.raises(Exception):
        kind.put(store, PINNED_ID, bad=True)
    assert os.listdir(store.root) == []
    assert kind.get(store, PINNED_ID) is None


def test_identifier_mismatch_is_a_kept_miss(tmp_path, kind, schemes):
    store = kind.open(tmp_path)
    written, other = schemes[0].identifier, schemes[1].identifier
    kind.put(store, written)
    # a file at `other`'s path that holds `written`'s entry (a digest collision)
    store._path(other).write_bytes(store._path(written).read_bytes())
    assert kind.get(store, other) is None
    assert store._path(other).exists()
    assert kind.get(store, written) is not None


def test_unreadable_file_is_a_deleted_miss(tmp_path, kind):
    store = kind.open(tmp_path)
    path = store._path(PINNED_ID)
    path.write_bytes(b"\x00 neither json nor a pickle")
    assert kind.get(store, PINNED_ID) is None
    assert not path.exists()


def test_eviction_is_oldest_first_and_spares_the_new_entry(tmp_path, kind, schemes):
    store = kind.open(tmp_path, two_fit=True)
    a, b, c = (s.identifier for s in schemes)
    kind.put(store, a)
    kind.put(store, b)
    # push a and b into the future, so the next write is the oldest file
    future = time.time() + 1000
    os.utime(store._path(a), (future, future))
    os.utime(store._path(b), (future + 1, future + 1))
    kind.put(store, c)
    assert not store._path(a).exists()  # oldest of the rest goes first
    assert store._path(b).exists()
    assert store._path(c).exists()  # the entry just written is never evicted
    assert store.stats()["entries"] == 2


def test_second_instance_hits_are_foreign(tmp_path, kind, schemes):
    a, b = schemes[0].identifier, schemes[1].identifier
    first = kind.open(tmp_path)
    kind.put(first, a)
    second = kind.open(tmp_path)
    kind.put(second, b)
    assert kind.get(second, a) is not None
    assert kind.get(second, b) is not None
    assert a in first.written_ids and a not in second.written_ids  # foreign
    assert b in second.written_ids  # own


def test_repro_cache_counts_and_prunes_the_tier(tmp_path, kind, schemes):
    """``repro cache stats`` and ``prune`` read either tier's directory."""
    store = kind.open(tmp_path)
    for scheme in schemes:
        kind.put(store, scheme.identifier)
    stats = cache_stats(tmp_path)
    assert stats["entries"] == 3
    assert stats["bytes"] == store.stats()["bytes"] > 0
    pruned = prune_cache(tmp_path, max_entries=1)
    assert pruned["removed"] == 2
    assert pruned["entries"] == len(store.entries()) == 1
