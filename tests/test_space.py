"""Tests for the strategy/scheme search space (§3.2)."""

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.space import (
    HP_GRID,
    MAX_SCHEME_LENGTH,
    METHOD_HPS,
    START,
    CompressionScheme,
    StrategySpace,
    grid_size,
    make_strategy,
    tree_size,
)


class TestGrids:
    def test_documented_strategy_count(self, space):
        """Our HP2 reconstruction yields 4,230 strategies (see DESIGN.md)."""
        assert len(space) == 4230

    def test_per_method_counts(self):
        expected = {"C1": 480, "C2": 720, "C3": 60, "C4": 90, "C5": 2430, "C6": 450}
        for label, count in expected.items():
            assert grid_size(label) == count

    def test_every_method_has_hp2_except_extension(self):
        for label, hps in METHOD_HPS.items():
            if label in ("C7", "C8"):
                assert "HP2" not in hps
            else:
                assert "HP2" in hps

    def test_epoch_multipliers_in_range(self):
        for hp in ("HP1", "HP7", "HP9", "HP13"):
            assert all(0 < v <= 1 for v in HP_GRID[hp])


class TestStrategy:
    def test_identifier_roundtrip(self, space):
        for i in (0, 100, 4000):
            s = space[i]
            assert space.by_identifier(s.identifier) is s

    def test_make_strategy_validates(self):
        with pytest.raises(ValueError, match="missing"):
            make_strategy("C1", {"HP1": 0.1})

    def test_param_step_reads_hp2(self, space):
        s = space.of_method("C3")[0]
        assert s.param_step == s.hp["HP2"]
        assert space.param_steps.tolist() == [s.param_step for s in space]

    def test_method_resolution(self, space):
        s = space.of_method("C2")[0]
        assert s.method.label == "C2"

    def test_strategies_are_hashable_and_frozen(self, space):
        s = space[0]
        assert s in {s}
        with pytest.raises(AttributeError):
            s.method_label = "C9"

    def test_indices_are_positions(self, space):
        for i in (0, 17, 2500):
            assert space[i].index == i

    def test_identifiers_and_grid_positions_match_strategies(self):
        extended = StrategySpace(include_quantization=True)
        assert extended.identifiers == [s.identifier for s in extended]
        for label in extended.method_labels:
            indices, positions = extended.grid_positions(label)
            assert indices.tolist() == [s.index for s in extended.of_method(label)]
            for index, row in zip(indices.tolist(), positions.tolist()):
                assert extended[index].hp_items == tuple(
                    (name, HP_GRID[name][p]) for name, p in zip(METHOD_HPS[label], row)
                )

    def test_space_identifiers_match_freshly_formatted_ones(self):
        extended = StrategySpace(include_quantization=True)
        fresh = [make_strategy(s.method_label, s.hp).identifier for s in extended]
        assert fresh == extended.identifiers

    def test_quantization_extension_opt_in(self):
        extended = StrategySpace(include_quantization=True)
        assert len(extended) == 4230 + grid_size("C7") + grid_size("C8")

    def test_neighbor_moves_one_hp(self, space, rng):
        s = space.of_method("C1")[37]
        neighbor = space.neighbor(s, rng)
        assert neighbor.method_label == s.method_label
        diffs = [k for k in s.hp if s.hp[k] != neighbor.hp[k]]
        assert len(diffs) == 1
        assert neighbor is space.by_identifier(neighbor.identifier)


class TestScheme:
    def test_start_is_empty(self):
        assert START.is_empty
        assert START.identifier == "START"
        assert START.length == 0

    def test_extend_immutably(self, space):
        child = START.extend(space[0])
        assert START.is_empty
        assert child.length == 1
        grandchild = child.extend(space[1])
        assert child.length == 1 and grandchild.length == 2

    def test_identifier_arrow_format(self, space):
        scheme = START.extend(space[0]).extend(space[1])
        assert " -> " in scheme.identifier

    def test_total_param_step(self, space):
        s1, s2 = space.of_method("C3")[0], space.of_method("C4")[0]
        scheme = START.extend(s1).extend(s2)
        assert scheme.total_param_step == pytest.approx(s1.param_step + s2.param_step)

    def test_prefix(self, space):
        scheme = START.extend(space[0]).extend(space[1]).extend(space[2])
        assert scheme.prefix(2).identifier == START.extend(space[0]).extend(space[1]).identifier
        assert scheme.prefix(0).is_empty

    def test_schemes_hashable(self, space):
        a = START.extend(space[5])
        b = START.extend(space[5])
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_identifiers_are_computed_once(self, space):
        scheme = START.extend(space[5]).extend(space[9])
        assert scheme.identifier is scheme.identifier
        assert scheme.strategies[0].identifier is scheme.strategies[0].identifier

    def test_cached_identifiers_leave_value_semantics_alone(self, space):
        fresh = START.extend(space[5]).extend(space[9])
        read = START.extend(space[5]).extend(space[9])
        before = pickle.dumps(read)
        assert read.identifier == "%s -> %s" % (space[5].identifier, space[9].identifier)
        assert read == fresh and hash(read) == hash(fresh)
        # the cached string is not part of the pickled or copied state
        assert pickle.dumps(read) == before == pickle.dumps(fresh)
        for clone in (pickle.loads(before), copy.deepcopy(read)):
            assert clone == read and hash(clone) == hash(read)
            assert clone.identifier == read.identifier

    def test_tree_size_formula(self):
        assert tree_size(2, 3) == 1 + 2 + 4 + 8
        assert tree_size(4230, MAX_SCHEME_LENGTH) == sum(4230 ** l for l in range(6))


class TestHypothesisSpace:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=4229))
    def test_every_strategy_wellformed(self, index):
        space = _session_space()
        s = space[index]
        assert s.method_label in METHOD_HPS
        for name, value in s.hp_items:
            assert value in HP_GRID[name]
        assert set(s.hp) == set(METHOD_HPS[s.method_label])

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=4229), min_size=1, max_size=5))
    def test_scheme_roundtrip(self, indices):
        space = _session_space()
        scheme = CompressionScheme(tuple(space[i] for i in indices))
        assert scheme.length == len(indices)
        assert scheme.identifier.count(" -> ") == len(indices) - 1


_SPACE_CACHE = None


def _session_space() -> StrategySpace:
    global _SPACE_CACHE
    if _SPACE_CACHE is None:
        _SPACE_CACHE = StrategySpace()
    return _SPACE_CACHE
