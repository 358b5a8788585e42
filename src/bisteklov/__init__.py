"""Biharmonic Steklov spectra in closed form, their counting laws with
explicit constants, and numerical recovery of the boundary symbols from the
half-space model problems."""

from .spectra import (
    BasisSizeError,
    EigenpairCheck,
    HarmonicPoly,
    ProblemKind,
    Spectrum,
    SpectrumEntry,
    ball_spectrum_p1,
    disk_spectrum_harmonic,
    disk_spectrum_p2,
    harmonic_basis,
    harmonic_dim,
    radial_verify_p2,
    verify_ball_eigenpair,
)
from .symbols import (
    BoundaryMetric,
    HomogeneousSymbol,
    quadratic_form,
    reciprocal_weight_symbol,
    steklov_symbol,
    symbol_compose,
    symbol_steklov,
    theta_symbol,
)
from .counting import (
    BoundaryWeight,
    CountingSeries,
    MonteCarloVolume,
    RemainderReport,
    WeylModel,
    ball_count_closed,
    boundary_integral,
    count_upto,
    gamma_identity_check,
    hormander_phase_volume,
    phase_volume_montecarlo,
    remainder_fit,
    sphere_area,
    unit_ball_volume,
    unit_circle_weight,
    unit_sphere_weight,
    weyl_leading,
)
from .halfspace import (
    AdequacyError,
    FourierDatum,
    HalfSpaceGrid,
    MetricBlock,
    SolverError,
    bvp_solve_p1,
    bvp_solve_p2,
    fourier_solution_p1,
    fourier_solution_p2,
    fourier_synthesis,
    kernel_K,
    solve_by_kernel,
    xi_norm,
)

__all__ = [name for name in dir() if not name.startswith("_")]
