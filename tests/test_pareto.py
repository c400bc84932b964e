"""Tests + properties for Pareto utilities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.pareto import (
    crowding_distance,
    hypervolume_2d,
    nondominated_sort,
    pareto_indices,
    pareto_mask,
    select_diverse,
)


def brute_force_pareto_mask(points):
    """The O(n^2) reference: drop every row some other row strictly dominates."""
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    mask = np.ones(n, dtype=bool)
    for i in range(n):
        if not mask[i]:
            continue
        dominated_by_i = np.all(points <= points[i], axis=1) & np.any(
            points < points[i], axis=1
        )
        mask &= ~dominated_by_i
        mask[i] = True
    return mask


#: small integer grid plus the special values, so ties, duplicates, infinities
#: and NaNs are all common
_SPECIAL = st.sampled_from([-np.inf, np.inf, np.nan, -0.0])
_GRID_VALUE = st.one_of(
    st.integers(-3, 3).map(float), _SPECIAL, st.floats(-2, 2, allow_nan=False)
)


def _points(n=8):
    return arrays(
        np.float64,
        (n, 2),
        elements=st.floats(-1, 1, allow_nan=False, allow_infinity=False),
    )


class TestParetoMask:
    def test_simple_domination(self):
        points = np.array([[1, 1], [0, 0], [2, 0], [0, 2]])
        mask = pareto_mask(points)
        np.testing.assert_array_equal(mask, [True, False, True, True])

    def test_duplicates_both_kept(self):
        points = np.array([[1, 1], [1, 1], [0, 0]])
        mask = pareto_mask(points)
        assert mask[0] and mask[1] and not mask[2]

    def test_single_point(self):
        assert pareto_mask(np.array([[3.0, 4.0]])).all()

    def test_empty(self):
        assert pareto_mask(np.zeros((0, 2))).shape == (0,)

    def test_infinities_compare_like_numbers(self):
        points = np.array([[np.inf, -np.inf], [0.0, -np.inf], [-np.inf, np.inf]])
        np.testing.assert_array_equal(pareto_mask(points), [True, False, True])

    def test_nan_row_kept_and_dominates_nothing(self):
        points = np.array([[np.nan, 5.0], [1.0, 1.0], [0.0, 0.0]])
        np.testing.assert_array_equal(pareto_mask(points), [True, True, False])

    @pytest.mark.parametrize("shape", [(4, 3), (4, 1), (4,), (2, 2, 2)])
    def test_non_2d_objectives_raise(self, shape):
        with pytest.raises(ValueError, match=r"\(n, 2\)"):
            pareto_mask(np.zeros(shape))

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 12).flatmap(
            lambda n: arrays(np.float64, (n, 2), elements=_GRID_VALUE)
        )
    )
    def test_matches_brute_force(self, points):
        np.testing.assert_array_equal(pareto_mask(points), brute_force_pareto_mask(points))

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_tiny_inputs_match_brute_force(self, n):
        rng = np.random.default_rng(n)
        for _ in range(50):
            points = rng.choice([-np.inf, -1.0, 0.0, 1.0, np.inf, np.nan], size=(n, 2))
            np.testing.assert_array_equal(
                pareto_mask(points), brute_force_pareto_mask(points)
            )

    def test_indices_consistent(self):
        points = np.array([[1, 0], [0, 1], [0.5, 0.5], [0.1, 0.1]])
        idx = pareto_indices(points)
        assert set(idx) == {0, 1, 2}


class TestNondominatedSort:
    def test_fronts_partition_everything(self):
        rng = np.random.default_rng(0)
        points = rng.normal(size=(30, 2))
        fronts = nondominated_sort(points)
        flat = np.concatenate(fronts)
        assert sorted(flat.tolist()) == list(range(30))

    def test_first_front_is_pareto(self):
        rng = np.random.default_rng(1)
        points = rng.normal(size=(20, 2))
        fronts = nondominated_sort(points)
        np.testing.assert_array_equal(np.sort(fronts[0]), pareto_indices(points))

    def test_later_fronts_dominated_by_earlier(self):
        points = np.array([[2, 2], [1, 1], [0, 0]])
        fronts = nondominated_sort(points)
        assert [f.tolist() for f in fronts] == [[0], [1], [2]]


class TestCrowding:
    def test_extremes_infinite(self):
        points = np.array([[0, 0], [1, 1], [2, 2], [3, 3]])
        d = crowding_distance(points)
        assert np.isinf(d[0]) and np.isinf(d[3])
        assert np.isfinite(d[1]) and np.isfinite(d[2])

    def test_small_sets_all_infinite(self):
        assert np.isinf(crowding_distance(np.array([[1.0, 2.0]]))).all()
        assert np.isinf(crowding_distance(np.array([[1.0, 2.0], [2.0, 1.0]]))).all()

    def test_denser_regions_lower_distance(self):
        points = np.array([[0, 3.0], [0.1, 2.9], [0.2, 2.8], [3.0, 0.0]])
        d = crowding_distance(points)
        assert d[1] < np.inf
        # middle of the tight cluster is more crowded than the gap point
        assert d[1] <= d[2] or np.isinf(d[2])


class TestHypervolume:
    def test_known_rectangle(self):
        points = np.array([[1.0, 1.0]])
        assert hypervolume_2d(points, (0, 0)) == pytest.approx(1.0)

    def test_two_point_staircase(self):
        points = np.array([[2.0, 1.0], [1.0, 2.0]])
        assert hypervolume_2d(points, (0, 0)) == pytest.approx(3.0)

    def test_dominated_point_adds_nothing(self):
        base = hypervolume_2d(np.array([[2.0, 2.0]]), (0, 0))
        more = hypervolume_2d(np.array([[2.0, 2.0], [1.0, 1.0]]), (0, 0))
        assert more == pytest.approx(base)

    def test_points_below_reference_ignored(self):
        assert hypervolume_2d(np.array([[-1.0, -1.0]]), (0, 0)) == 0.0

    def test_wrong_shape_raises(self):
        with pytest.raises(ValueError):
            hypervolume_2d(np.zeros((3, 3)), (0, 0, 0))


class TestSelectDiverse:
    def test_small_front_returned_whole(self):
        points = np.array([[1, 0], [0, 1]])
        assert set(select_diverse(points, 5)) == {0, 1}

    def test_cap_respected(self):
        rng = np.random.default_rng(2)
        # anti-correlated points: most are on the front
        x = rng.uniform(0, 1, 50)
        points = np.stack([x, 1 - x], axis=1)
        chosen = select_diverse(points, 7)
        assert len(chosen) == 7
        assert (pareto_mask(points)[chosen]).all()


class TestHypothesisProperties:
    @settings(max_examples=40, deadline=None)
    @given(_points(10))
    def test_front_members_not_dominated(self, points):
        mask = pareto_mask(points)
        assert mask.any()
        front = points[mask]
        for p in front:
            dominated = np.all(points >= p, axis=1) & np.any(points > p, axis=1)
            assert not dominated.any()

    @settings(max_examples=40, deadline=None)
    @given(_points(8))
    def test_adding_dominated_point_keeps_hv(self, points):
        hv = hypervolume_2d(points, (-2, -2))
        worst = points.min(axis=0) - 0.5
        hv2 = hypervolume_2d(np.vstack([points, worst]), (-2, -2))
        assert hv2 == pytest.approx(hv)

    @settings(max_examples=40, deadline=None)
    @given(_points(8))
    def test_hv_monotone_in_reference(self, points):
        assert hypervolume_2d(points, (-2, -2)) >= hypervolume_2d(points, (-1, -1)) - 1e-12
