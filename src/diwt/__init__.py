"""Discrete index transforms built on Whittaker-type kernels.

Numerical library and command line tool for a family of discrete index
transforms: expanding functions on the positive half-line in Whittaker
W functions with imaginary second index, recovering the coefficients by
kernel integrals, and synthesizing functions from trigonometric profiles.
"""

__version__ = "0.1.0"

from .errors import (
    DiwtError,
    DomainError,
    IntegrabilityWarning,
    InvalidDecayScale,
    InvalidInterval,
    NonConvergence,
    OrderError,
    PersistenceError,
    PoleError,
    PrecisionBudgetExceeded,
    TailNotNegligible,
    UnknownCheckId,
)
from .quad import (
    DEFAULT_SPEC,
    IntegralResult,
    MellinBarnesSpec,
    QuadSpec,
    integrate_finite,
    integrate_finite_rows,
    integrate_semi_infinite,
    integrate_semi_infinite_rows,
    integrate_vertical_line,
    integrate_vertical_line_rows,
)
from .specfun import (
    ComplexIndex,
    WhittakerOrder,
    bessel_k_imag,
    erfc,
    erfcx,
    gamma_abs_squared,
    incomplete_bessel_j,
    parabolic_cylinder_d,
    whittaker_w_bessel,
    whittaker_w_mb,
)
from .kernels import (
    KernelKind,
    KernelTable,
    build_kernel_table,
    cylinder_cos_kernel,
    cylinder_sin_kernel,
    erfc_cos_kernel,
)
from .transforms import (
    CoefficientSeq,
    ForwardHandle,
    FourierPolynomial,
    FunctionHandle,
    InversionResult,
    ProfileHandle,
    SampledHandle,
    SynthesisResult,
    TransformParams,
    admissibility_sum,
    closed_form_coefficients,
    coefficient_transform,
    coefficient_transform_many,
    forward_series,
    function_from_profile,
    invert_many,
    invert_series,
    invert_series_kl,
    synthesize_series,
)
from .oracles import (
    CANONICAL_CASES,
    CHECK_IDS,
    CheckReport,
    canonical_suite,
    run_suite,
)
