"""Semiclassical transfer matrices across finite-order crossings of
characteristic curves for 2x2 systems.

The package computes, for a small parameter h, how incoming WKB
coefficients map to outgoing ones across a point where two characteristic
curves meet with finite contact order m: closed-form predictions with the
h^{1/(m+1)} off-diagonal scaling, numerical extraction from solved ODE
systems, h sweeps with power-law fits, and a batch CLI.
"""

from .errors import (
    CaseMismatch,
    CrossingKitError,
    DegenerateFit,
    GridTooCoarse,
    NoFiniteContact,
    NumericalError,
    SchemaError,
    StepFailure,
    TransversalUnsupported,
    ValidationError,
    ZeroGradient,
)
from .normalform import (
    NormalFormProblem,
    model_corpus,
    predict_transfer,
    transfer_numeric,
)
from .oscquad import (
    GridFunction,
    PhaseSpec,
    gaussian_pairing,
    osc_integral_numeric,
    osc_leading_term,
)
from .profiles import ZERO_BUMP, Bump, Poly1
from .schrodinger import (
    SchrodingerProblem,
    WkbBasis,
    build_crossing_data,
    numeric_transfer_case_i,
    predict_transfer_case_i,
    predict_transfer_case_ii,
    schrodinger_corpus,
)
from .sweep import (
    PowerLawFit,
    SweepReport,
    SweepRow,
    Verdict,
    attach_fits,
    check_grid,
    fit_power_law,
    read_csv,
    run_sweep,
    verify,
    write_csv,
)
from .symbolcalc import (
    CrossingData,
    Poly2,
    contact_order,
    crossing_data_from_symbols,
    iterated_bracket,
    mu_m,
    normal_form_constants,
    omega_general,
    poisson_bracket,
    sign_s,
    stationary_prefactor,
    theta_of,
    transfer_predicted_general,
)
from .transfer import Problem, TransferMatrix

__version__ = "0.1.0"

# The array backend of every numerical kernel, which the benchmark records.
BACKEND = "numpy"

__all__ = [
    "BACKEND",
    "Bump",
    "CaseMismatch",
    "CrossingData",
    "CrossingKitError",
    "DegenerateFit",
    "GridFunction",
    "GridTooCoarse",
    "NoFiniteContact",
    "NormalFormProblem",
    "NumericalError",
    "PhaseSpec",
    "Poly1",
    "Poly2",
    "PowerLawFit",
    "Problem",
    "SchemaError",
    "SchrodingerProblem",
    "StepFailure",
    "SweepReport",
    "SweepRow",
    "TransferMatrix",
    "TransversalUnsupported",
    "ValidationError",
    "Verdict",
    "WkbBasis",
    "ZERO_BUMP",
    "ZeroGradient",
    "attach_fits",
    "build_crossing_data",
    "check_grid",
    "contact_order",
    "crossing_data_from_symbols",
    "fit_power_law",
    "gaussian_pairing",
    "iterated_bracket",
    "model_corpus",
    "mu_m",
    "normal_form_constants",
    "numeric_transfer_case_i",
    "omega_general",
    "osc_integral_numeric",
    "osc_leading_term",
    "poisson_bracket",
    "predict_transfer",
    "predict_transfer_case_i",
    "predict_transfer_case_ii",
    "read_csv",
    "run_sweep",
    "schrodinger_corpus",
    "sign_s",
    "stationary_prefactor",
    "theta_of",
    "transfer_numeric",
    "transfer_predicted_general",
    "verify",
    "write_csv",
]
