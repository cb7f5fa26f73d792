"""Numerical toolkit for Bloch-type function spaces on the unit polydisk.

The package estimates weighted-derivative (p-Bloch) and Lipschitz-quotient
norms of holomorphic functions on U^n, evaluates the pointwise densities that
control composition operators C_phi(f) = f o phi between such spaces, and runs
boundedness / compactness detectors together with an independent
finite-difference / uniform-grid oracle.
"""

from .polydisk import (
    PolydiskPoint,
    Direction,
    MultiIndex,
    bergman_metric,
    boundary_distance,
    segment_point,
    replace_coord,
)
from .holo import (
    HoloFunction,
    Series,
    Const,
    MoebiusFactor,
    ScaledKernel,
    HoloSelfMap,
    SelfMapCertificate,
    compose,
    certify_self_map,
    moebius_automorphism,
    identity_map,
)
from .sampling import SamplingPlan, NormEstimate
from .norms import (
    bloch_density,
    bloch_norm_estimate,
    timoney_q,
    lipschitz_norm_estimate,
    pointeval_bound,
    little_bloch_gap,
)
from .testfuncs import (
    TestFunction,
    make_f,
    make_g,
    make_h,
    family_norm_bound,
    truncate_test,
    tail_bound,
)
from .criteria import (
    BoundaryPath,
    CriterionReport,
    Verdict,
    criterion_density,
    coordinate_density,
    boundedness_check,
    compactness_profile,
    classify,
    schwarz_expansion_range,
    little_bloch_operator_check,
    lip1_boundedness_check,
    operator_norm_lower_bound,
    make_boundary_paths,
)

__version__ = "0.1.0"
