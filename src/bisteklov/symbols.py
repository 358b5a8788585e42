"""Principal-symbol algebra on the boundary cotangent bundle.

Symbols are positively homogeneous evaluators (x', eta') -> value.  The one
principal-symbol evaluator, ``steklov_symbol``, keeps the coefficient and the
metric of c(x') * q(eta')^(d/2) so downstream volume integrals can use them.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from .spectra import ProblemKind

# numpy is imported inside the functions that build arrays, so that the exact commands
# (spectrum, constant-weight weyl, identity-check) never load it
if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

    from .counting import BoundaryWeight


def _check_spd(matrix, what: str) -> np.ndarray:
    """A private, read-only float copy of ``matrix``, checked square, symmetric (to 1e-12)
    and positive definite; ``what`` names it in the error."""
    import numpy as np

    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{what} must be square")
    if not np.allclose(a, a.T, rtol=0.0, atol=1e-12):
        raise ValueError(f"{what} must be symmetric")
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise ValueError(f"{what} must be positive definite") from None
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class BoundaryMetric:
    """Constant inverse boundary metric g^{jk}, checked SPD when built; it keeps a
    read-only copy, so a later write to the caller's array cannot undo the check."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _check_spd(self.matrix, "metric"))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    # an alias of the constructor, kept because the benchmark's workloads call it
    @staticmethod
    def constant(matrix) -> "BoundaryMetric":
        return BoundaryMetric(matrix)

    @staticmethod
    def identity(dim: int) -> "BoundaryMetric":
        import numpy as np

        return BoundaryMetric(np.eye(dim))


class SolverError(RuntimeError):
    """Numerical failure inside a solve (singular system, blow-up)."""


class AdequacyError(ValueError):
    """Domain truncation too short for the requested covector."""


def in_double_range(compute: Callable[[], float], message: str) -> float:
    """``compute()``, bit for bit, if it is a positive normal double (a subnormal keeps only a
    few digits); else ValueError(message).  OverflowError and ZeroDivisionError count as inf."""
    try:
        value = compute()
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not sys.float_info.min <= value < math.inf:  # also False for nan
        raise ValueError(message)
    return value


def quadratic_form(metric: BoundaryMetric, eta) -> float:
    """eta' . g^{-1} . eta', rejecting a form that is zero, non-finite or
    outside the normal double range."""
    import numpy as np

    eta = np.asarray(eta, dtype=float).reshape(-1)
    if eta.shape != (metric.dim,):
        raise ValueError(f"covector must have {metric.dim} components")
    with np.errstate(over="ignore", invalid="ignore"):  # in_double_range refuses inf and nan
        return in_double_range(lambda: float(eta @ metric.matrix @ eta),
                               "covector must be nonzero and finite, with a form in double range")


@dataclass(frozen=True)
class HomogeneousSymbol:
    """Positively homogeneous function of (x', eta') with a known degree.

    ``coeff`` and ``metric`` are set for members of the ellipsoidal family
    c(x') * q^(degree/2); generic symbols (e.g. compositions) leave them unset.
    """

    degree: float
    fn: Callable[[Any, np.ndarray], float]
    coeff: Callable[[Any], float] | None = None
    metric: BoundaryMetric | None = None

    def __call__(self, x, eta) -> float:
        return self.fn(x, eta)

    @property
    def is_ellipsoidal(self) -> bool:
        return self.coeff is not None and self.metric is not None


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


def steklov_symbol(problem: ProblemKind, metric: BoundaryMetric,
                   weight: "BoundaryWeight | None" = None) -> HomogeneousSymbol:
    """The problem's principal symbol coeff * q^(degree/2) / rho^degree under the
    weight rho + epsilon; ``weight=None`` means rho = 1, the unweighted symbol."""
    degree, coeff = principal(problem)
    rho = (lambda x: 1.0) if weight is None else weight.rho_plus_eps
    weight_message = f"weight out of range: {coeff:g} / rho^{degree:g} leaves the double range"
    value_message = (f"symbol out of range: {coeff:g} q^{degree / 2:g} / rho^{degree:g} "
                     "leaves the double range")

    def weighted(r: float) -> float:
        return in_double_range(lambda: coeff / r ** degree, weight_message)

    def fn(x, eta) -> float:
        r = rho(x)
        inv = 1.0 / r
        q = quadratic_form(metric, eta)
        weighted(r)  # refuses a weight whose coeff / rho^degree leaves the double range
        # the degree factors 1/rho multiply the unweighted value left to right: this order keeps
        # acceptance criterion 11 and the `symbol` golden CSV bit-exact; with no weight they are
        # 1.0, which is exact
        return in_double_range(
            lambda: coeff * q ** (degree / 2.0) * math.prod([inv] * int(degree)), value_message)

    return HomogeneousSymbol(degree, fn, lambda x: weighted(rho(x)), metric)


# kept as one-line delegations because the benchmark's workloads call them by name
def theta_symbol(metric: BoundaryMetric) -> HomogeneousSymbol:
    """Degree-3 symbol of the flux map: twice the metric norm cubed."""
    return steklov_symbol(ProblemKind.DIRICHLET_TRACE, metric)


def symbol_steklov(problem: ProblemKind, metric: BoundaryMetric,
                   weight: "BoundaryWeight", x, eta) -> float:
    """Principal symbol of the weighted eigenvalue operator at (x', eta')."""
    return steklov_symbol(problem, metric, weight)(x, eta)


def symbol_compose(a: HomogeneousSymbol, b: HomogeneousSymbol) -> HomogeneousSymbol:
    """Principal symbol of the operator composition: the pointwise product,
    with degrees adding."""
    return HomogeneousSymbol(a.degree + b.degree, lambda x, eta: a.fn(x, eta) * b.fn(x, eta))


def reciprocal_weight_symbol(weight: "BoundaryWeight") -> HomogeneousSymbol:
    """Degree-0 symbol of multiplication by 1 / (rho + epsilon)."""
    return HomogeneousSymbol(0.0, lambda x, eta: 1.0 / weight.rho_plus_eps(x))
