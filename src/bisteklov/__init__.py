"""Biharmonic Steklov spectra in closed form, their counting laws with
explicit constants, and numerical recovery of the boundary symbols from the
half-space model problems.

The names below are re-exported lazily (PEP 562): ``bisteklov.X`` imports the
submodule that defines X on first use, so ``import bisteklov`` loads neither
numpy nor the half-space solvers.
"""

from importlib import import_module as _import_module

_EXPORTS = {
    "spectra": (
        "BasisSizeError", "EigenpairCheck", "HarmonicPoly", "ProblemKind", "Spectrum",
        "SpectrumEntry", "ball_spectrum_p1", "disk_spectrum_harmonic", "disk_spectrum_p2",
        "harmonic_basis", "harmonic_dim", "radial_verify_p2", "verify_ball_eigenpair",
    ),
    "symbols": (
        "AdequacyError", "BoundaryMetric", "HomogeneousSymbol", "SolverError",
        "quadratic_form", "reciprocal_weight_symbol", "steklov_symbol", "symbol_compose",
        "symbol_steklov", "theta_symbol",
    ),
    "counting": (
        "BoundaryWeight", "CountingSeries", "MonteCarloVolume", "RemainderReport", "WeylModel",
        "ball_count_closed", "boundary_integral", "count_upto", "gamma_identity_check",
        "hormander_phase_volume", "phase_volume_montecarlo", "remainder_fit", "sphere_area",
        "unit_ball_volume", "unit_circle_weight", "unit_sphere_weight", "weyl_leading",
    ),
    "halfspace": (
        "FourierDatum", "HalfSpaceGrid", "MetricBlock", "bvp_solve_p1", "bvp_solve_p2",
        "fourier_solution_p1", "fourier_solution_p2", "fourier_synthesis", "kernel_K",
        "solve_by_kernel", "xi_norm",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_MODULE_OF])


def __getattr__(name):
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
