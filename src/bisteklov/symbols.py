"""Principal-symbol algebra on the boundary cotangent bundle.

Symbols are positively homogeneous evaluators (x', eta') -> value.  The maps
of interest form the ellipsoidal family c(x') * q(eta')^(d/2) with q the
inverse-metric quadratic form; symbols built that way keep their coefficient
and metric so downstream volume integrals can use them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from .spectra import ProblemKind

if TYPE_CHECKING:  # pragma: no cover
    from .counting import BoundaryWeight


def _check_spd(matrix, what: str) -> np.ndarray:
    """``matrix`` as a float array, checked square, symmetric (to 1e-12) and
    positive definite; ``what`` names it in the error."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{what} must be square")
    if not np.allclose(a, a.T, rtol=0.0, atol=1e-12):
        raise ValueError(f"{what} must be symmetric")
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise ValueError(f"{what} must be positive definite") from None
    return a


@dataclass(frozen=True)
class BoundaryMetric:
    """Field of inverse boundary metrics g^{jk}(x'), SPD of size dim x dim."""

    g_inv: Callable[[Any], np.ndarray]
    dim: int

    def matrix_at(self, x) -> np.ndarray:
        g = np.asarray(self.g_inv(x), dtype=float)
        if g.shape != (self.dim, self.dim):
            raise ValueError(f"metric block must be {self.dim}x{self.dim}, got {g.shape}")
        return _check_spd(g, "metric block")

    @staticmethod
    def constant(matrix) -> "BoundaryMetric":
        g = np.asarray(matrix, dtype=float)
        return BoundaryMetric(lambda x: g, g.shape[0])

    @staticmethod
    def identity(dim: int) -> "BoundaryMetric":
        return BoundaryMetric.constant(np.eye(dim))


def quadratic_form(metric: BoundaryMetric, x, eta) -> float:
    """eta' . g^{-1}(x') . eta', rejecting a form that is zero, non-finite or
    out of double range."""
    eta = np.asarray(eta, dtype=float).reshape(-1)
    if eta.shape != (metric.dim,):
        raise ValueError(f"covector must have {metric.dim} components")
    q = float(eta @ metric.matrix_at(x) @ eta)
    if not 0.0 < q < math.inf:
        raise ValueError("covector must be nonzero and finite, with a form in double range")
    return q


@dataclass(frozen=True)
class HomogeneousSymbol:
    """Positively homogeneous function of (x', eta') with a known degree.

    ``coeff`` and ``metric`` are set for members of the ellipsoidal family
    c(x') * q^(degree/2); generic symbols (e.g. compositions) leave them unset.
    """

    degree: float
    fn: Callable[[Any, np.ndarray], float]
    label: str = ""
    coeff: Callable[[Any], float] | None = None
    metric: BoundaryMetric | None = None

    def __call__(self, x, eta) -> float:
        return self.fn(x, eta)

    @property
    def is_ellipsoidal(self) -> bool:
        return self.coeff is not None and self.metric is not None


def ellipsoidal_symbol(degree: float, coeff: Callable[[Any], float],
                       metric: BoundaryMetric, label: str = "") -> HomogeneousSymbol:
    def fn(x, eta):
        return coeff(x) * quadratic_form(metric, x, eta) ** (degree / 2.0)

    return HomogeneousSymbol(degree, fn, label, coeff, metric)


# ---------------------------------------------------------------------------
# the explicit symbols
# ---------------------------------------------------------------------------

def symbol_F(metric: BoundaryMetric, x, eta) -> float:
    """Degree-1 symbol of the trace-zero boundary map: twice the metric norm."""
    return 2.0 * quadratic_form(metric, x, eta) ** 0.5


def symbol_Theta(metric: BoundaryMetric, x, eta) -> float:
    """Degree-3 symbol of the flux map: twice the metric norm cubed."""
    return 2.0 * quadratic_form(metric, x, eta) ** 1.5


def f_symbol(metric: BoundaryMetric) -> HomogeneousSymbol:
    return ellipsoidal_symbol(1.0, lambda x: 2.0, metric, "F")


def theta_symbol(metric: BoundaryMetric) -> HomogeneousSymbol:
    return ellipsoidal_symbol(3.0, lambda x: 2.0, metric, "Theta")


def symbol_compose(a: HomogeneousSymbol, b: HomogeneousSymbol) -> HomogeneousSymbol:
    """Principal symbol of the operator composition: the pointwise product,
    with degrees adding."""
    label = f"{a.label or 'a'}*{b.label or 'b'}"
    return HomogeneousSymbol(a.degree + b.degree,
                             lambda x, eta: a.fn(x, eta) * b.fn(x, eta), label)


def reciprocal_weight_symbol(weight: "BoundaryWeight") -> HomogeneousSymbol:
    """Degree-0 symbol of multiplication by 1 / (rho + epsilon)."""
    return HomogeneousSymbol(0.0, lambda x, eta: 1.0 / weight.rho_plus_eps(x), "Z")


def symbol_steklov(problem: ProblemKind, metric: BoundaryMetric,
                   weight: "BoundaryWeight", x, eta) -> float:
    """Principal symbol of the weighted eigenvalue operator at (x', eta').

    Values are formed as products with the reciprocal weight so they bit-match
    compositions with the reciprocal symbol.
    """
    inv = 1.0 / weight.rho_plus_eps(x)
    if problem is ProblemKind.NEUMANN_TRACE:
        return symbol_F(metric, x, eta) * inv
    if problem is ProblemKind.DIRICHLET_TRACE:
        return symbol_Theta(metric, x, eta) * (inv * inv * inv)
    if problem is ProblemKind.HARMONIC_STEKLOV:
        return quadratic_form(metric, x, eta) ** 0.5 * inv
    raise ValueError(f"unknown problem kind {problem!r}")


def steklov_symbol(problem: ProblemKind, metric: BoundaryMetric,
                   weight: "BoundaryWeight") -> HomogeneousSymbol:
    """The weighted eigenvalue symbol as an ellipsoidal-family object."""
    if problem is ProblemKind.NEUMANN_TRACE:
        return ellipsoidal_symbol(1.0, lambda x: 2.0 / weight.rho_plus_eps(x),
                                  metric, "Q")
    if problem is ProblemKind.DIRICHLET_TRACE:
        return ellipsoidal_symbol(3.0, lambda x: 2.0 / weight.rho_plus_eps(x) ** 3,
                                  metric, "R")
    if problem is ProblemKind.HARMONIC_STEKLOV:
        return ellipsoidal_symbol(1.0, lambda x: 1.0 / weight.rho_plus_eps(x),
                                  metric, "N")
    raise ValueError(f"unknown problem kind {problem!r}")
