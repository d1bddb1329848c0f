"""Exact classicality analysis for the tilted spin-1 pair-measurement family.

Decides, with certificates, whether the family of compatible dichotomic
spin-1 pair measurements at tilt angle theta admits a noncontextual
hidden-variable description, and demonstrates that the answer is a
discontinuous function of the angle.
"""

from .angle_family import (
    AngleClass,
    RationalAngle,
    classify,
    delta_of_theta,
    g_of_delta,
    g_of_theta,
    rational_approximants,
    theta_of_delta,
)
from .assignment_model import (
    CycleAssignment,
    HiddenVariableModel,
    brute_force_min,
    cycle_correlation,
    min_correlation,
    mixture_for_target,
    optimal_assignment,
    uniform_assignment,
)
from .classicality import (
    ClassicalityVerdict,
    VectorSet,
    condition_p_threshold,
    decide_pair_family,
    decide_pair_family_generic,
    decide_row,
    ks_colorability,
)
from .spin_algebra import (
    Direction,
    commutator_norm,
    dichotomic,
    direction_from_angles,
    expectation,
    minus_one_eigenprojector,
    spin_operator,
    triple_product_check,
)

__version__ = "0.1.0"

__all__ = [
    "AngleClass",
    "ClassicalityVerdict",
    "CycleAssignment",
    "Direction",
    "HiddenVariableModel",
    "RationalAngle",
    "VectorSet",
    "brute_force_min",
    "classify",
    "commutator_norm",
    "condition_p_threshold",
    "cycle_correlation",
    "decide_pair_family",
    "decide_pair_family_generic",
    "decide_row",
    "delta_of_theta",
    "dichotomic",
    "direction_from_angles",
    "expectation",
    "g_of_delta",
    "g_of_theta",
    "ks_colorability",
    "min_correlation",
    "minus_one_eigenprojector",
    "mixture_for_target",
    "optimal_assignment",
    "rational_approximants",
    "spin_operator",
    "theta_of_delta",
    "triple_product_check",
    "uniform_assignment",
]
