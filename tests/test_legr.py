"""LeGR's candidate-independent planning equals the per-candidate re-plan.

``GlobalRanking`` computes the criterion scores, unit sizes, floors,
per-channel costs and total criterion mass once per apply.  The reference
below is the loop it replaced: for every candidate, build the per-unit
affine scores, run ``plan_global_pruning`` and sum the retained criterion
mass unit by unit.  Plans and fitness floats must agree exactly.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.compression.legr import _CRITERIA, GlobalRanking
from repro.compression.surgery import params_per_channel, plan_global_pruning
from repro.models import resnet56, vgg16


def reference_candidate(units, base_scores, alpha, kappa, budget, max_ratio):
    """The former per-candidate plan and analysis-only fitness."""
    scores = {u.name: alpha[i] * base_scores[i] + kappa[i] for i, u in enumerate(units)}
    plan = plan_global_pruning(units, scores, budget, max_ratio=max_ratio)
    retained = sum(
        float(base_scores[i][plan.keep[u.name]].sum()) for i, u in enumerate(units)
    )
    total = sum(float(s.sum()) for s in base_scores) + 1e-12
    return plan, retained / total


@pytest.fixture(scope="module")
def paper_units():
    """Pruning units of the two paper models, built once."""
    return {"resnet56": resnet56().pruning_units(), "vgg16": vgg16().pruning_units()}


coefficients = st.lists(
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False, width=64),
    min_size=27, max_size=27,
)


@pytest.mark.parametrize("model", ["resnet56", "vgg16"])
@pytest.mark.parametrize("criterion", sorted(_CRITERIA))
@pytest.mark.parametrize("max_ratio", [0.3, 0.9, 1.0])
@pytest.mark.parametrize("budget", ["zero", "fifth", "over_total"])
@settings(max_examples=12, deadline=None)
@given(alpha=coefficients, kappa=coefficients)
@example(alpha=[0.0] * 27, kappa=[0.0] * 27)  # every score tied
@example(alpha=[0.0] * 27, kappa=[0.1 * (i % 3) for i in range(27)])  # ties per unit
@example(alpha=[1.0] * 27, kappa=[0.0] * 27)  # the plain criterion
def test_matches_per_candidate_plan(paper_units, model, criterion, max_ratio, budget, alpha, kappa):
    units = paper_units[model]
    base_scores = [_CRITERIA[criterion](u) for u in units]
    total = sum(params_per_channel(u) * u.out_channels for u in units)
    param_budget = {"zero": 0, "fifth": total // 5, "over_total": total + 1}[budget]
    # LeGR draws alpha as |normal|; a zero alpha makes a unit's scores tie
    alpha = np.abs(np.asarray(alpha[: len(units)]))
    kappa = np.asarray(kappa[: len(units)])

    ranking = GlobalRanking(
        [u.name for u in units], base_scores,
        [params_per_channel(u) for u in units], param_budget, max_ratio,
    )
    plan = ranking.plan(alpha, kappa)
    expected, expected_fitness = reference_candidate(
        units, base_scores, alpha, kappa, param_budget, max_ratio
    )
    assert plan.params_removed == expected.params_removed
    assert list(plan.keep) == list(expected.keep)
    for name, kept in expected.keep.items():
        np.testing.assert_array_equal(plan.keep[name], kept, err_msg=name)
        assert plan.keep[name].dtype == kept.dtype
    fitness = ranking.retained_fraction(alpha, kappa)
    assert type(fitness) is float
    assert fitness == expected_fitness
