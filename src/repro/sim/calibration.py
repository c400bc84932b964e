"""Calibration anchors for the paper-scale accuracy surrogate.

Training ResNet-56/VGG-16 on CIFAR for the paper's 3-GPU-day searches is not
possible in this environment, so scheme *accuracy* at paper scale comes from
a response-surface model anchored to the paper's own measurements:

* Table 2 — each human method's best (grid-searched) accuracy at PR ≈ 40 and
  PR ≈ 70 on ResNet-56/CIFAR-10 and VGG-16/CIFAR-100;
* Table 3 — the PR = 40 transfer rows for ResNet-20/164 and VGG-13/19.

Anchors are stored as exact (pr, accuracy%) pairs.  Everything else
(parameters, FLOPs) is *measured* on the really-compressed numpy models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

#: baseline accuracies (%); ResNet-56 / VGG-16 are from Table 2, the others
#: are inferred from the transfer rows of Table 3 (see DESIGN.md).
BASELINE_ACCURACY: Dict[Tuple[str, str], float] = {
    ("resnet20", "cifar10"): 91.30,
    ("resnet56", "cifar10"): 91.04,
    ("resnet164", "cifar10"): 89.50,
    ("vgg13", "cifar100"): 70.90,
    ("vgg16", "cifar100"): 70.03,
    ("vgg19", "cifar100"): 69.90,
}

#: Table 2 anchors: (method, model, dataset) -> ((pr40, acc40), (pr70, acc70))
TABLE2_ANCHORS: Dict[Tuple[str, str, str], Tuple[Tuple[float, float], Tuple[float, float]]] = {
    ("C1", "resnet56", "cifar10"): ((0.4174, 79.61), (0.7040, 75.25)),
    ("C2", "resnet56", "cifar10"): ((0.4002, 90.69), (0.7003, 85.88)),
    ("C3", "resnet56", "cifar10"): ((0.4002, 89.19), (0.7005, 85.73)),
    ("C4", "resnet56", "cifar10"): ((0.3852, 88.24), (0.6807, 86.94)),
    ("C5", "resnet56", "cifar10"): ((0.4097, 90.18), (0.6888, 89.28)),
    ("C6", "resnet56", "cifar10"): ((0.4019, 89.99), (0.7003, 90.35)),
    ("C1", "vgg16", "cifar100"): ((0.4011, 42.11), (0.6998, 41.51)),
    ("C2", "vgg16", "cifar100"): ((0.3999, 69.97), (0.6999, 69.06)),
    ("C3", "vgg16", "cifar100"): ((0.4000, 70.01), (0.7001, 68.98)),
    ("C4", "vgg16", "cifar100"): ((0.3973, 69.62), (0.6972, 68.15)),
    ("C5", "vgg16", "cifar100"): ((0.3999, 64.34), (0.7005, 62.66)),
    ("C6", "vgg16", "cifar100"): ((0.3621, 60.94), (0.5744, 57.88)),
}

#: Table 3 anchors (PR = 40 transfer rows): (method, model, dataset) -> acc40
TABLE3_ACC40: Dict[Tuple[str, str, str], float] = {
    ("C1", "resnet20", "cifar10"): 77.61,
    ("C2", "resnet20", "cifar10"): 89.20,
    ("C3", "resnet20", "cifar10"): 88.78,
    ("C4", "resnet20", "cifar10"): 87.81,
    ("C5", "resnet20", "cifar10"): 88.81,
    ("C6", "resnet20", "cifar10"): 91.57,
    ("C1", "resnet164", "cifar10"): 58.21,
    ("C2", "resnet164", "cifar10"): 83.93,
    ("C3", "resnet164", "cifar10"): 83.84,
    ("C4", "resnet164", "cifar10"): 82.06,
    ("C5", "resnet164", "cifar10"): 84.12,
    ("C6", "resnet164", "cifar10"): 24.17,
    ("C1", "vgg13", "cifar100"): 47.16,
    ("C2", "vgg13", "cifar100"): 70.80,
    ("C3", "vgg13", "cifar100"): 70.48,
    ("C4", "vgg13", "cifar100"): 70.69,
    ("C5", "vgg13", "cifar100"): 64.13,
    ("C6", "vgg13", "cifar100"): 63.04,
    ("C1", "vgg19", "cifar100"): 40.02,
    ("C2", "vgg19", "cifar100"): 69.64,
    ("C3", "vgg19", "cifar100"): 69.34,
    ("C4", "vgg19", "cifar100"): 69.42,
    ("C5", "vgg19", "cifar100"): 63.37,
    ("C6", "vgg19", "cifar100"): 56.27,
}

#: how much above baseline a well-composed scheme can climb (percentage
#: points).  AutoMC reaches +1.57pp on Exp1 and +0.70pp on Exp2 (Table 2).
ACCURACY_HEADROOM: Dict[Tuple[str, str], float] = {
    ("resnet20", "cifar10"): 1.6,
    ("resnet56", "cifar10"): 2.0,
    ("resnet164", "cifar10"): 1.4,
    ("vgg13", "cifar100"): 1.4,
    ("vgg16", "cifar100"): 1.2,
    ("vgg19", "cifar100"): 1.2,
}


@dataclass(frozen=True)
class MethodCurve:
    """Cumulative accuracy-damage curve D(pr) = a*pr + b*pr^3 (in % points).

    Fit exactly through the two Table 2 anchors (or the Table 3 anchor plus a
    scaled second point for transfer models).  D is the damage of the
    method's *best-tuned single-shot* compression at that cumulative PR.

    Beyond the calibrated range (pr > 0.7) the cubic is an extrapolation and
    can even turn negative (LFB's anchors are concave); a steep quadratic
    penalty takes over there — pushing past ~80% reduction collapses any
    CIFAR model in practice.
    """

    a: float
    b: float

    _ANCHOR_LIMIT = 0.71  # just above the largest Table 2 anchor (0.7040)

    def damage(self, pr: float) -> float:
        limit = self._ANCHOR_LIMIT
        if pr <= limit:
            return self.a * pr + self.b * pr ** 3
        at_limit = self.a * limit + self.b * limit ** 3
        slope = max(self.a + 3 * self.b * limit ** 2, 8.0)
        extra = pr - limit
        return at_limit + slope * extra + 250.0 * extra ** 2


def _fit_curve(pr1: float, d1: float, pr2: float, d2: float) -> MethodCurve:
    """Solve a*pr + b*pr^3 through two (pr, damage) points."""
    import numpy as np

    matrix = np.array([[pr1, pr1 ** 3], [pr2, pr2 ** 3]])
    rhs = np.array([d1, d2])
    a, b = np.linalg.solve(matrix, rhs)
    return MethodCurve(a=float(a), b=float(b))


def method_curve(method: str, model: str, dataset: str) -> MethodCurve:
    """The calibrated damage curve for (method, model, dataset).

    For ResNet-56/VGG-16 both Table 2 anchors are used.  For transfer models
    the Table 3 PR=40 anchor is combined with a second point scaled from the
    reference model's 40->70 damage ratio.
    """
    base = BASELINE_ACCURACY[(model, dataset)]
    key = (method, model, dataset)
    if key in TABLE2_ANCHORS:
        (pr1, acc1), (pr2, acc2) = TABLE2_ANCHORS[key]
        return _fit_curve(pr1, base - acc1, pr2, base - acc2)
    if key in TABLE3_ACC40:
        reference_model = "resnet56" if dataset == "cifar10" else "vgg16"
        ref_base = BASELINE_ACCURACY[(reference_model, dataset)]
        (rp1, ra1), (rp2, ra2) = TABLE2_ANCHORS[(method, reference_model, dataset)]
        # Only the reference ratio needs guarding against ~zero damage; the
        # target's own anchor may legitimately be negative (LFB *gains*
        # accuracy on ResNet-20 at PR 40 in Table 3).
        ref_d1 = max(ref_base - ra1, 1e-3)
        ref_d2 = max(ref_base - ra2, 1e-3)
        d1 = base - TABLE3_ACC40[key]
        d2 = d1 * (ref_d2 / ref_d1)
        return _fit_curve(0.40, d1, 0.70, d2)
    raise KeyError(f"no calibration anchors for {key}")
