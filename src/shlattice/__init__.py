"""Complex-amplitude lattice model of the Swift-Hohenberg equation,
with a direct high-resolution solver as verification oracle."""

__version__ = "0.1.0"

from .core import (
    AmplitudeState,
    BoundaryForcing,
    DivergenceError,
    FieldGrid,
    ForcingKind,
    ModelParams,
    conjugate_state,
    element_centers,
    make_params,
    mean_difference,
    second_difference,
)
from .amplitude_model import (
    SignChoice,
    Trajectory,
    gle_rhs,
    interior_rhs,
    left_boundary_rhs,
    max_stable_dt,
    model_rhs,
    reality_check,
    right_boundary_rhs,
    rk4_step,
    run_model,
)
from .direct_solver import (
    BoundedStepper,
    Scheme,
    SpectralStepper,
    integrate_bounded,
    integrate_spectral,
    measure_growth_rate,
)
from .subgrid import (
    boundary_profiles,
    extract_amplitudes,
    ibc_residual,
    lattice_field,
    reconstruct_boundary,
    reconstruct_interior,
)
from .analysis import (
    CompareConfig,
    ComparisonReport,
    boundary_equilibrium,
    boundary_mode_rates,
    compare_model_vs_direct,
    lattice_dispersion,
    longwave_quadratic_coefficient,
    modulated_profile,
    she_growth_rate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
