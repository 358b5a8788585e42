"""Eigenvalue counting functions and their leading-order growth laws.

The growth predictions are C_lead * tau^(n-1) with an explicit constant built
from the unit-ball volume of the boundary cotangent fiber, a base read off the
problem's principal symbol, and the integral of the boundary weight to the power n-1.
The remainder study extracts the next coefficient from the scaled residual
(count - prediction) / tau^(n-2).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from typing import Callable, NamedTuple

from .records import Record
from .spectra import ProblemKind, Spectrum
from .symbols import HomogeneousSymbol, in_double_range, principal


def unit_ball_volume(k: int) -> float:
    """Volume of the unit ball in k-space (1.0 for k = 0)."""
    if k < 0:
        raise ValueError("dimension must be nonnegative")
    return in_double_range(lambda: math.pi ** (k / 2.0) / math.gamma(k / 2.0 + 1.0),
                           f"dimension {k} is too large: Gamma({k}/2 + 1) overflows")


def sphere_area(n: int) -> float:
    """Surface area of the unit sphere bounding the unit ball in n-space."""
    return n * unit_ball_volume(n)


def weyl_leading(problem: ProblemKind, n: int, boundary_integral: float) -> float:
    """Leading counting coefficient: omega_{n-1} * integral / (2 pi c^(1/d))^(n-1)
    for the problem's principal symbol c * q^(d/2)."""
    if n < 2:
        raise ValueError("need n >= 2")
    if not 0 < boundary_integral < math.inf:
        raise ValueError("boundary integral must be positive and finite")
    degree, coeff = principal(problem)
    base = 2.0 * math.pi * coeff ** (1.0 / degree)
    # base > 1, so only a large n takes base^(n-1) out of range; the quotient depends on the weight
    power = in_double_range(lambda: base ** (n - 1),
                            f"n = {n} is too large: base^(n-1) overflows a double")
    return in_double_range(lambda: unit_ball_volume(n - 1) * boundary_integral / power,
                           f"C_lead out of range: omega_{n - 1} * {boundary_integral:.6g} "
                           f"/ base^{n - 1} leaves the double range")


def _overflowing_power(tau: float, k: int) -> tuple[float, int] | None:
    """tau^k as a mantissa in [0.5, 1) and a binary exponent when it overflows a double,
    else None; tau^k = mantissa^k 2^(exponent k) for tau's own mantissa and exponent."""
    mantissa, exponent = math.frexp(tau)
    if exponent * k > 1024:  # else tau^k < 2^1024
        power, power_exponent = math.frexp(mantissa ** k)
        if power_exponent + exponent * k > 1024:
            return power, power_exponent + exponent * k
    return None


class WeylModel(Record):
    """Growth model for one problem kind in dimension n."""

    _fields = ("problem", "n", "boundary_integral", "c_lead")
    __slots__ = (*_fields, "_predicted_message", "_residual_message")

    def __init__(self, problem: ProblemKind, n: int, boundary_integral: float):
        self._set(problem=problem, n=n, boundary_integral=boundary_integral,
                  c_lead=weyl_leading(problem, n, boundary_integral),
                  _predicted_message=f"n = {n}: the predicted count C_lead tau^(n-1) leaves "
                                     "the double range",
                  _residual_message=f"n = {n}: the scaled residual (count - predicted) / "
                                    "tau^(n-2) leaves the double range")

    def predicted(self, tau: float) -> float:
        return in_double_range(self._overflowing_product, self._predicted_message, tau)

    def _overflowing_product(self, tau: float) -> float:
        power = _overflowing_power(tau, self.n - 1)
        if power is None:
            return self.c_lead * tau ** (self.n - 1)
        # a small C_lead may scale it back into range: multiply the mantissas and add
        # the exponents, which ldexp applies exactly
        c_mantissa, c_exponent = math.frexp(self.c_lead)
        return math.ldexp(c_mantissa * power[0], c_exponent + power[1])

    def residual(self, tau: float, count: int) -> tuple[float, float]:
        """The predicted count at tau and the scaled residual (count - predicted) / tau^(n-2)."""
        predicted = self.predicted(tau)
        gap = count - predicted
        if self.n == 2:  # tau^0 = 1
            return predicted, gap
        power = _overflowing_power(tau, self.n - 2)
        if power is None:
            return predicted, gap / in_double_range(pow, self._residual_message, tau, self.n - 2)
        # tau^(n-2) overflows, the quotient need not: divide the mantissas and subtract the
        # exponents, which ldexp applies exactly unless the quotient is subnormal
        scaled = math.ldexp(gap / power[0], -power[1])
        if gap:  # a zero gap gives an exact zero
            in_double_range(abs, self._residual_message, scaled)
        return predicted, scaled


class CountingSeries(Record):
    """Counting-function samples (tau, count) with tau strictly increasing."""

    __slots__ = _fields = ("samples",)

    def __init__(self, samples: tuple[tuple[float, int], ...]):
        prev_tau, prev_count = None, None
        for tau, count in samples:
            if count < 0:
                raise ValueError("counts must be nonnegative")
            if prev_tau is not None and not tau > prev_tau:
                raise ValueError("tau values must be strictly increasing")
            if prev_count is not None and count < prev_count:
                raise ValueError("counts must be nondecreasing")
            prev_tau, prev_count = tau, count
        self._set(samples=samples)


class BoundaryWeight(Record):
    """Weight function on a parametrized boundary.

    ``domain`` is the parameter rectangle (one interval per parameter), ``rho``
    and ``area_element`` are functions of the parameters, and ``epsilon`` is
    the nonnegative regularizer added to ``rho`` wherever the weight is
    divided by.
    """

    __slots__ = _fields = ("rho", "area_element", "domain", "epsilon")

    def __init__(self, rho: Callable[..., float], area_element: Callable[..., float],
                 domain: tuple[tuple[float, float], ...], epsilon: float = 0.0):
        if epsilon < 0:
            raise ValueError("epsilon must be nonnegative")
        if len(domain) not in (1, 2):
            raise ValueError("only 1- or 2-parameter boundaries are supported")
        self._set(rho=rho, area_element=area_element, domain=domain, epsilon=epsilon)

    def rho_plus_eps(self, *params: float) -> float:
        value = self.rho(*params) + self.epsilon
        if not value > 0:
            raise ValueError("rho + epsilon must be positive where divided by")
        return value


def unit_circle_weight(rho: Callable[[float], float] = lambda t: 1.0,
                       epsilon: float = 0.0) -> BoundaryWeight:
    """Weight on the unit circle parametrized by arc length."""
    return BoundaryWeight(rho, lambda t: 1.0, ((0.0, 2.0 * math.pi),), epsilon)


def unit_sphere_weight(rho: Callable[[float, float], float] = lambda t, p: 1.0,
                       epsilon: float = 0.0) -> BoundaryWeight:
    """Weight on the unit 2-sphere in colatitude/longitude coordinates."""
    return BoundaryWeight(
        rho, lambda t, p: math.sin(t), ((0.0, math.pi), (0.0, 2.0 * math.pi)), epsilon
    )


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

def count_upto(spectrum: Spectrum, tau: float | None = None, *,
               tau_cube: int | Fraction | None = None) -> int:
    """Number of eigenvalues <= tau, with multiplicity (inclusive comparison).

    For problem-2 spectra the threshold may be supplied as ``tau_cube``, the
    exact cube of tau; ties are then resolved on the stored integer cubes
    instead of floating roots.  A NaN threshold counts nothing.
    """
    if (tau is None) == (tau_cube is None):
        raise ValueError("supply exactly one of tau, tau_cube")
    threshold, column = (tau, spectrum.values) if tau_cube is None else (tau_cube, spectrum.cubes)
    if column is None:
        raise ValueError("spectrum carries no exact cubes")
    if threshold != threshold:  # NaN
        return 0
    k = bisect_right(column, threshold)
    return spectrum.cumulative[k - 1] if k else 0


def ball_count_closed(n: int, m: int) -> int:
    """Closed-form problem-1 count on the unit ball at the (m+1)-th eigenvalue.

    Equals the cumulative solid-harmonic dimension through degree m; the two
    binomials are the telescoped form of that sum.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if m < 0:
        raise ValueError("need m >= 0")
    return math.comb(n + m - 1, n - 1) + math.comb(n + m - 2, n - 1)


# The 16-point Gauss-Legendre rule on [-1, 1], bit for bit np.polynomial.legendre.leggauss(16)
_GAUSS_NODES = (
    -0.9894009349916499, -0.9445750230732326, -0.8656312023878318, -0.755404408355003,
    -0.6178762444026438, -0.45801677765722737, -0.2816035507792589, -0.09501250983763744,
    0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
    0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499,
)
_GAUSS_WEIGHTS = (
    0.027152459411754176, 0.062253523938647456, 0.0951585116824926, 0.12462897125553407,
    0.1495959888165767, 0.16915651939500265, 0.18260341504492364, 0.18945061045506864,
    0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
    0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176,
)


def _axis_rule(a: float, b: float, panels: int):
    """The composite rule's (point, weight) pairs on [a, b], panel by panel."""
    width = (b - a) / panels
    half = 0.5 * width
    for p in range(panels):
        mid = a + (p + 0.5) * width
        for node, weight in zip(_GAUSS_NODES, _GAUSS_WEIGHTS):
            yield mid + half * node, half * weight


def boundary_integral(weight: BoundaryWeight, n: int, panels: int) -> float:
    """Composite Gauss-Legendre quadrature of rho^(n-1) against the area element.

    Deterministic for a fixed panel count (16 nodes per panel per direction).
    Raises on negative rho samples.
    """
    if panels < 1:
        raise ValueError("need panels >= 1")
    if n < 2:
        raise ValueError("need n >= 2")

    def total() -> float:  # in Python floats: a sum past the double range is inf, not a warning
        value, power = 0.0, n - 1
        rho, area = weight.rho, weight.area_element
        if len(weight.domain) == 1:
            for t, w in _axis_rule(*weight.domain[0], panels):
                r = rho(t)
                if r < 0:
                    raise ValueError(f"negative weight sample at t={t}")
                value += w * r ** power * area(t)
        else:
            inner = list(_axis_rule(*weight.domain[1], panels))
            for t1, w1 in _axis_rule(*weight.domain[0], panels):
                for t2, w2 in inner:
                    r = rho(t1, t2)
                    if r < 0:
                        raise ValueError(f"negative weight sample at ({t1}, {t2})")
                    value += w1 * w2 * r ** power * area(t1, t2)
        return value

    return in_double_range(total, "weight out of range: the integral of rho^(n-1) must be "
                                  "positive and in the normal double range")


# ---------------------------------------------------------------------------
# phase-space volumes
# ---------------------------------------------------------------------------

class MonteCarloVolume(NamedTuple):
    value: float
    stderr: float


def _require_ellipsoidal(symbol: HomogeneousSymbol) -> None:
    if not symbol.is_ellipsoidal:
        raise TypeError(
            "phase volumes need the ellipsoidal symbol family: the fiber "
            "measure carries the metric determinant"
        )


def _homogeneity_probe(symbol: HomogeneousSymbol, x) -> None:
    # along the first axis, where every positive definite metric has a positive form, which
    # the symbols' quadratic form evaluates in O(1) whatever the dimension
    eta = [1.0] + [0.0] * (symbol.metric.dim - 1)
    v1 = symbol(x, eta)
    v2 = symbol(x, [2.0 * e for e in eta])
    expected = 2.0 ** symbol.degree * v1
    if not v1 > 0 or abs(v2 - expected) > 1e-9 * abs(expected):
        raise ValueError("symbol is not positively homogeneous of its declared degree")


def _quadratic_forms(pts, g):
    """pts[i] . g . pts[i] for each row i, bit for bit np.einsum("ij,jk,ik->i", pts, g, pts):
    the same products, (pts[:, j] g[j, k]) pts[:, k], summed in einsum's order, k fastest."""
    dim = len(g)
    return sum(pts[:, j] * g[j, k] * pts[:, k] for j in range(dim) for k in range(dim))


def phase_volume_montecarlo(symbol: HomogeneousSymbol, x, samples: int,
                            seed: int) -> MonteCarloVolume:
    """Seeded Monte Carlo estimate of the sublevel-set fiber volume.

    Samples a box bounding the sublevel set {symbol < 1}, tests membership by
    evaluating the symbol's defining quadratic form, and weights by the square
    root of the metric determinant.  Bit-reproducible for a fixed seed.
    """
    if samples <= 0:
        raise ValueError("need samples > 0")
    import numpy as np

    _require_ellipsoidal(symbol)
    _homogeneity_probe(symbol, x)
    g = symbol.metric.matrix
    dim = symbol.metric.dim
    radius = symbol.coeff(x) ** (-1.0 / symbol.degree)
    half = radius * np.sqrt(np.diag(np.linalg.inv(g)))
    box_volume = float(np.prod(2.0 * half))
    rng = np.random.default_rng(seed)
    pts = (2.0 * rng.random((samples, dim)) - 1.0) * half
    quad = _quadratic_forms(pts, g)
    inside = symbol.coeff(x) * quad ** (symbol.degree / 2.0) < 1.0
    p_hat = float(np.count_nonzero(inside)) / samples
    det_weight = math.sqrt(float(np.linalg.det(g)))
    value = box_volume * det_weight * p_hat
    stderr = box_volume * det_weight * math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / samples)
    return MonteCarloVolume(value, stderr)


def hormander_phase_volume(symbol: HomogeneousSymbol, x) -> float:
    """Fiber volume of {symbol < 1} under the metric-weighted measure.

    For a degree-d symbol c(x) * q(eta)^(d/2) with q the inverse-metric
    quadratic form, the metric weighting cancels the ellipsoid distortion and
    the volume is omega_(dim) * c(x)^(-dim/d).
    """
    _require_ellipsoidal(symbol)
    _homogeneity_probe(symbol, x)
    dim = symbol.metric.dim
    degree = symbol.degree
    return in_double_range(lambda: unit_ball_volume(dim) * symbol.coeff(x) ** (-dim / degree),
                           f"phase volume out of range: omega_{dim} c^(-{dim}/{degree:g}) "
                           "leaves the double range")


# ---------------------------------------------------------------------------
# remainder study
# ---------------------------------------------------------------------------

class RemainderReport(NamedTuple):
    """Outcome of fitting the next-order coefficient of a counting series."""

    second_coeff_estimate: float
    sharp_verdict: bool
    trend_slope: float


def remainder_fit(series: CountingSeries, model: WeylModel) -> RemainderReport:
    """Extract the tau^(n-2) coefficient of count - C_lead * tau^(n-1).

    Uses the scaled residual at the largest tau (the exact residual is
    monotone for the model problems, so no least-squares fit) and reports the
    average slope of the residual against log tau as a trend diagnostic.
    The verdict is sharp when the estimate exceeds a tenth of the leading
    coefficient.
    """
    samples = series.samples
    if len(samples) < 10:
        raise ValueError("need at least 10 samples")
    first = samples[0][0]
    last, last_count = samples[-1]
    if first <= 0:
        raise ValueError("need positive tau samples")
    if last < 10.0 * first:
        raise ValueError("samples must span at least one decade")
    # tau^(n-1) grows with tau, so only the largest tau can overflow
    ratio = last_count / model.predicted(last)
    if not 0.2 < ratio < 5.0:
        raise ValueError("series growth inconsistent with the model dimension")

    (_, start), (_, estimate) = model.residual(*samples[0]), model.residual(last, last_count)
    trend = (estimate - start) / (math.log(last) - math.log(first))
    return RemainderReport(estimate, abs(estimate) > 0.1 * model.c_lead, trend)


def gamma_identity_check(n: int) -> float:
    """Residual of the closed-form identity linking 1 / (2^(n-2) (n-1)!) to
    the counting constant omega_(n-1) * n * omega_n / (4 pi)^(n-1)."""
    if n < 2:
        raise ValueError("need n >= 2")
    lhs = in_double_range(lambda: 1.0 / (2.0 ** (n - 2) * math.factorial(n - 1)),
                          f"n = {n} is too large: 1 / (2^(n-2) (n-1)!) leaves the double range")
    rhs = in_double_range(
        lambda: unit_ball_volume(n - 1) * n * unit_ball_volume(n) / (4.0 * math.pi) ** (n - 1),
        f"n = {n} is too large: omega_(n-1) n omega_n / (4 pi)^(n-1) leaves the double range")
    return abs(lhs - rhs)
