"""Numerical engine for the derivative-sup function algebra on the right
half-plane and the resolvent-integral calculus of matrix semigroup generators.
"""

from .errors import (
    BesovCalcError,
    DepthExceeded,
    DivergenceSuspicion,
    EnvelopeViolated,
    IntegralNotNormConvergent,
    InvalidParameter,
    NonConvergence,
    NotDiagonalizable,
    ProfileDivergence,
    RangeViolation,
    SingularShift,
    SpectrumError,
    UnboundedSuspicion,
    UnknownSpec,
)
from .functions import (
    AnalyticFunction,
    BernsteinFunction,
    DecayProfile,
    HalfLineMeasure,
    add,
    band_function,
    bernstein_resolvent,
    cayley_pow,
    const,
    dilate,
    eta,
    exp_decay,
    exp_inv_shift,
    laplace_transform,
    mul,
    parse_function_spec,
    power,
    reciprocal,
    resolvent,
    scale,
    shift,
    vitse_reg,
)
from .norms import NormReport, b0_norm, b_norm, e0_norm, hinf_norm
from .duality import pairing, reproduce_residual
from .operators import (
    MatrixOperator,
    OperatorProfile,
    apply_calculus,
    apply_calculus_report,
    hp_apply,
    oracle_apply,
    parse_operator_spec,
    profile,
    resolvent_matrix,
    semigroup,
    semigroup_reconstruct_check,
)
from .quadrature import (
    DecayEnvelope,
    QuadratureConfig,
    integrate_halfline,
    integrate_interval,
    integrate_line,
    sup_on_vertical_line,
)
from .suite import run_suite

__version__ = "0.1.0"
