"""fdmarch: arbitrary-order explicit finite-difference time marching.

Generate one-step update schemes of any temporal order for linear
constant-coefficient equations du/dt = a * d^m u/dx^m (and, via conserved
densities, for nonlinear advection), with exact rational coefficients,
single-mode stability analysis, and periodic 1-D experiment drivers.
"""

from .exact import (
    ConfigurationError,
    InvalidOffsetsError,
    OffsetSet,
    RatPoly,
    Rational,
    aux_polynomials,
    derivatives_at_zero,
    lagrange_basis,
)
from .schemes import (
    ErrorTerm,
    LaurentPoly,
    LayerTable,
    Scheme,
    SchemeSpec,
    StencilSizeError,
    UnsupportedSchemeError,
    advection_coefficients,
    default_offsets,
    error_term,
    first_order_scheme,
    format_scheme_dump,
    generation_function,
    master_scheme,
    nonlinear_layers,
    parse_scheme_dump,
    preferred_sign,
)
from .stability import (
    BoundAuditRow,
    Classification,
    StabilityReport,
    advection_family_scheme,
    advection_family_spec,
    advection_family_stability,
    amplification,
    classify_first_order,
    critical_courant,
    first_order_stable_r,
    max_growth,
    stability_bound_audit,
    stability_report,
    truncated_first_layer_critical,
)
from .solver import (
    ConvergenceResult,
    DensityFamily,
    GridField,
    LinearProblem,
    LinearTerm,
    burgers_densities,
    burgers_ramp,
    convergence_study,
    gaussian,
    identity_densities,
    make_profile,
    rectangle,
    run_linear,
    run_nonlinear,
    shock_front,
    sine_profile,
    step_linear,
    step_nonlinear,
    triangle,
)

__version__ = "0.1.0"
