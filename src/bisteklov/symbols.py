"""Principal-symbol algebra on the boundary cotangent bundle.

Symbols are positively homogeneous evaluators (x', eta') -> value.  The one
principal-symbol evaluator, ``steklov_symbol``, keeps the coefficient and the
metric of c(x') * q(eta')^(d/2) so downstream volume integrals can use them.
"""

from __future__ import annotations

import math
import sys
from operator import mul
from typing import TYPE_CHECKING, Any, Callable, NamedTuple

from .records import Record
from .spectra import ProblemKind

# symbols run on Python floats and never load numpy: BoundaryMetric builds its ndarray view
# only when an array consumer reads ``matrix``
if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

    from .counting import BoundaryWeight


def _check_spd(matrix, what: str) -> tuple[tuple[float, ...], ...]:
    """The rows of ``matrix`` as tuples of floats, checked square, symmetric (to 1e-12)
    and positive definite: every pivot of its Cholesky factorisation is positive and finite.
    ``what`` names it in the error."""
    try:
        rows = tuple(tuple([float(v) for v in row]) for row in matrix)
    except TypeError:  # a scalar, a 1-d sequence or deeper nesting
        raise ValueError(f"{what} must be square") from None
    dim = len(rows)
    if not dim or any(len(row) != dim for row in rows):
        raise ValueError(f"{what} must be square")
    # as np.allclose(a, a.T, rtol=0, atol=1e-12): equal infinities match, a nan matches nothing
    if not all(a == b or abs(a - b) <= 1e-12
               for row, column in zip(rows, zip(*rows)) for a, b in zip(row, column)):
        raise ValueError(f"{what} must be symmetric")
    factor: list[list[float]] = []  # the Cholesky factor, row by row
    for j, row in enumerate(rows):
        lower: list[float] = []
        for k in range(j):
            lower.append((row[k] - sum(map(mul, factor[k], lower))) / factor[k][k])
        pivot = row[j] - sum(map(mul, lower, lower))
        # also refuses a nan pivot, and an infinite one, which only an infinite diagonal entry
        # gives (it refuses every covector anyway): every entry of a checked metric is finite
        if not 0 < pivot < math.inf:
            raise ValueError(f"{what} must be positive definite")
        factor.append(lower + [math.sqrt(pivot)])
    return rows


class BoundaryMetric(Record):
    """Constant inverse boundary metric g^{jk}, checked SPD when built.  It keeps its own
    float copy, ``rows``, so a later write to the caller's array cannot undo the check;
    ``matrix`` is a read-only ndarray of it for array code, built when first read."""

    __slots__ = ("rows", "_array")
    _fields = ("rows",)
    # compared by identity, as before: two metrics with equal entries are distinct objects
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, matrix):
        self._set(rows=_check_spd(matrix, "metric"), _array=None)

    def __getstate__(self):  # a copy builds its own read-only array when first read
        return None, {"rows": self.rows, "_array": None}

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def matrix(self) -> np.ndarray:
        if self._array is None:
            import numpy as np

            array = np.array(self.rows)
            array.flags.writeable = False
            self._set(_array=array)
        return self._array

    # an alias of the constructor, kept because the benchmark's workloads call it
    @staticmethod
    def constant(matrix) -> "BoundaryMetric":
        return BoundaryMetric(matrix)

    @staticmethod
    def identity(dim: int) -> "BoundaryMetric":
        """The identity metric, positive definite by construction, so built without the
        O(dim^3) check; dim < 1 is refused as the check would refuse it."""
        if dim < 1:
            raise ValueError("metric must be square")
        metric = object.__new__(BoundaryMetric)
        metric._set(rows=tuple(tuple([float(j == k) for k in range(dim)]) for j in range(dim)),
                    _array=None)
        return metric


class SolverError(RuntimeError):
    """Numerical failure inside a solve (singular system, blow-up)."""


class AdequacyError(ValueError):
    """Domain truncation too short for the requested covector."""


def in_double_range(compute: Callable[..., float], message: str, *args) -> float:
    """``compute(*args)``, bit for bit, if it is a positive normal double (a subnormal keeps
    only a few digits); else ValueError(message).  OverflowError and ZeroDivisionError count
    as inf.  Passing ``args`` instead of a closure keeps a per-row check from building one."""
    try:
        value = compute(*args)
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not sys.float_info.min <= value < math.inf:  # also False for nan
        raise ValueError(message)
    return value


def quadratic_form(metric: BoundaryMetric, eta) -> float:
    """eta' . g^{-1} . eta', rejecting a form that is zero, non-finite or
    outside the normal double range."""
    eta = [float(e) for e in eta]  # a sequence or 1-d array of numbers
    if len(eta) != metric.dim:
        raise ValueError(f"covector must have {metric.dim} components")
    return in_double_range(_form, "covector must be nonzero and finite, with a form in double "
                                  "range", metric.rows, eta)


def _form(rows, eta: list[float]) -> float:
    """(eta' g) . eta', each sum taken from the first index, in Python floats: an overflow
    is inf and 0 * inf is nan.  In one dimension this is numpy's eta @ g @ eta bit for bit.
    A zero component of eta adds only exact zeros (the entries of g are finite), so the sums
    skip it: a covector (eta_1, 0, ..., 0) costs O(1) after the scan, in any dimension."""
    support = [k for k, e in enumerate(eta) if e]
    if len(support) < len(eta):
        rows = [[rows[j][k] for k in support] for j in support]
        eta = [eta[k] for k in support]
    form = 0.0
    for e_k, column in zip(eta, zip(*rows)):
        form += sum(map(mul, eta, column)) * e_k
    return form


class HomogeneousSymbol(NamedTuple):
    """Positively homogeneous function of (x', eta') with a known degree.

    ``coeff`` and ``metric`` are set for members of the ellipsoidal family
    c(x') * q^(degree/2); generic symbols (e.g. compositions) leave them unset.
    """

    degree: float
    fn: Callable[[Any, Any], float]
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
# each problem's two refusals, the weight's and the value's, formatted once
_REFUSALS = {problem: (f"weight out of range: {coeff:g} / rho^{degree:g} leaves the double range",
                       f"symbol out of range: {coeff:g} q^{degree / 2:g} / rho^{degree:g} "
                       "leaves the double range")
             for problem, (degree, coeff) in _PRINCIPAL.items()}


def principal(problem: ProblemKind) -> tuple[float, float]:
    """(degree, coeff) of the problem's principal symbol; ValueError for an unknown problem."""
    return _PRINCIPAL[ProblemKind(problem)]


def steklov_symbol(problem: ProblemKind, metric: BoundaryMetric,
                   weight: "BoundaryWeight | None" = None) -> HomogeneousSymbol:
    """The problem's principal symbol coeff * q^(degree/2) / rho^degree under the
    weight rho + epsilon; ``weight=None`` means rho = 1, the unweighted symbol."""
    degree, coeff = principal(problem)
    weight_message, value_message = _REFUSALS[ProblemKind(problem)]
    rho = (lambda x: 1.0) if weight is None else weight.rho_plus_eps

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
