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

# The principal symbol of each problem's eigenvalue operator under the weight
# rho is coeff * q(eta')^(degree/2) / rho^degree: (degree, coeff) per problem.
_PRINCIPAL = {
    ProblemKind.NEUMANN_TRACE: (1.0, 2.0),
    ProblemKind.DIRICHLET_TRACE: (3.0, 2.0),
    ProblemKind.HARMONIC_STEKLOV: (1.0, 1.0),
}


def principal(problem: ProblemKind) -> tuple[float, float]:
    """(degree, coeff) of the problem's principal symbol; ValueError for an unknown problem."""
    return _PRINCIPAL[ProblemKind(problem)]


def principal_symbol(problem: ProblemKind, metric: BoundaryMetric,
                     label: str = "") -> HomogeneousSymbol:
    """The problem's unweighted principal symbol coeff * q^(degree/2)."""
    degree, coeff = principal(problem)
    return ellipsoidal_symbol(degree, lambda x: coeff, metric, label)


def f_symbol(metric: BoundaryMetric) -> HomogeneousSymbol:
    """Degree-1 symbol of the trace-zero boundary map: twice the metric norm."""
    return principal_symbol(ProblemKind.NEUMANN_TRACE, metric, "F")


def theta_symbol(metric: BoundaryMetric) -> HomogeneousSymbol:
    """Degree-3 symbol of the flux map: twice the metric norm cubed."""
    return principal_symbol(ProblemKind.DIRICHLET_TRACE, metric, "Theta")


def symbol_F(metric: BoundaryMetric, x, eta) -> float:
    return f_symbol(metric)(x, eta)


def symbol_Theta(metric: BoundaryMetric, x, eta) -> float:
    return theta_symbol(metric)(x, eta)


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
    """Principal symbol of the weighted eigenvalue operator at (x', eta')."""
    degree, coeff = principal(problem)
    inv = 1.0 / weight.rho_plus_eps(x)
    # the degree factors 1/rho multiply the unweighted value left to right: this order keeps
    # acceptance criterion 11 and the `symbol` golden CSV bit-exact
    return coeff * quadratic_form(metric, x, eta) ** (degree / 2.0) * math.prod([inv] * int(degree))


def steklov_symbol(problem: ProblemKind, metric: BoundaryMetric,
                   weight: "BoundaryWeight") -> HomogeneousSymbol:
    """The weighted eigenvalue symbol as an ellipsoidal-family object."""
    degree, coeff = principal(problem)

    def weighted(x):
        try:
            c = coeff / weight.rho_plus_eps(x) ** degree
        except (OverflowError, ZeroDivisionError):  # rho^degree past or below the double range
            c = 0.0
        if not 0.0 < c < math.inf:
            raise ValueError(f"weight out of range: {coeff:g} / rho^{degree:g} leaves the double range")
        return c

    return ellipsoidal_symbol(degree, weighted, metric)
