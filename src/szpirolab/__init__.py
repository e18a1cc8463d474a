"""Exact-arithmetic toolkit for elliptic curves over Q.

Computes Weierstrass invariants, global minimal models, conductors via
Tate's algorithm, and modified Szpiro ratios, and verifies conductor
bounds, height bounds, and sharpness-family identities for the fifteen
rational torsion structures.
"""

from szpirolab.intarith import (
    Factorization,
    FactorBudgetError,
    factorize,
    is_squarefree,
    p_adic_valuation,
    radical,
)
from szpirolab.weierstrass import (
    AffinePoint,
    CertificateError,
    INFINITY,
    Isomorphism,
    ModelInvariants,
    SingularModelError,
    WeierstrassModel,
    compute_invariants,
    integral_model,
    j_invariant,
    point_order,
    transform,
)
from szpirolab.reduction import (
    CurveAnalysis,
    LocalReductionData,
    MinimalModelResult,
    analyze,
    conductor,
    minimal_model,
    tate_local,
)
from szpirolab.families import (
    FAMILIES,
    FamilyId,
    FamilyInstance,
    PaperContractViolation,
    ValidationError,
    build_model,
    delta_eval,
    recover_uT,
    validate_params,
)
from szpirolab.bounds import (
    PHI_FAMILIES,
    PhiSpec,
    exceeds,
    phi_eval,
    phi_scan,
    szpiro_ratio,
    verify_height_bound,
)
from szpirolab.sharpness import (
    SHARP_FAMILIES,
    SharpnessRecord,
    build_FT,
    convergence_scan,
    verify_sharp_consistency,
)
from szpirolab.sweeps import (
    check_instance,
    run_sweep,
)

__version__ = "0.1.0"
