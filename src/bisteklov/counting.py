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
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable

import numpy as np

from .spectra import ProblemKind, Spectrum
from .symbols import HomogeneousSymbol, principal


def unit_ball_volume(k: int) -> float:
    """Volume of the unit ball in k-space (1.0 for k = 0)."""
    if k < 0:
        raise ValueError("dimension must be nonnegative")
    try:
        return math.pi ** (k / 2.0) / math.gamma(k / 2.0 + 1.0)
    except OverflowError:
        raise ValueError(f"dimension {k} is too large: Gamma({k}/2 + 1) overflows") from None


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
    try:
        return unit_ball_volume(n - 1) * boundary_integral / base ** (n - 1)
    except OverflowError:
        raise ValueError(f"n = {n} is too large: base^(n-1) overflows a double") from None


@dataclass(frozen=True)
class WeylModel:
    """Growth model for one problem kind in dimension n."""

    problem: ProblemKind
    n: int
    boundary_integral: float
    c_lead: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "c_lead",
                           weyl_leading(self.problem, self.n, self.boundary_integral))

    def predicted(self, tau: float) -> float:
        try:
            return self.c_lead * tau ** (self.n - 1)
        except OverflowError:
            raise ValueError(f"n = {self.n} is too large: tau^(n-1) overflows a double") from None

    def scaled_residual(self, tau: float, count: int) -> float:
        return (count - self.predicted(tau)) / tau ** (self.n - 2)


@dataclass(frozen=True)
class CountingSeries:
    """Counting-function samples (tau, count) with tau strictly increasing."""

    samples: tuple[tuple[float, int], ...]

    def __post_init__(self):
        prev_tau, prev_count = None, None
        for tau, count in self.samples:
            if count < 0:
                raise ValueError("counts must be nonnegative")
            if prev_tau is not None and not tau > prev_tau:
                raise ValueError("tau values must be strictly increasing")
            if prev_count is not None and count < prev_count:
                raise ValueError("counts must be nondecreasing")
            prev_tau, prev_count = tau, count


@dataclass(frozen=True)
class BoundaryWeight:
    """Weight function on a parametrized boundary.

    ``domain`` is the parameter rectangle (one interval per parameter), ``rho``
    and ``area_element`` are functions of the parameters, and ``epsilon`` is
    the nonnegative regularizer added to ``rho`` wherever the weight is
    divided by.
    """

    rho: Callable[..., float]
    area_element: Callable[..., float]
    domain: tuple[tuple[float, float], ...]
    epsilon: float = 0.0

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")
        if len(self.domain) not in (1, 2):
            raise ValueError("only 1- or 2-parameter boundaries are supported")

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


def boundary_integral(weight: BoundaryWeight, n: int, panels: int) -> float:
    """Composite Gauss-Legendre quadrature of rho^(n-1) against the area element.

    Deterministic for a fixed panel count (16 nodes per panel per direction).
    Raises on negative rho samples.
    """
    if panels < 1:
        raise ValueError("need panels >= 1")
    if n < 2:
        raise ValueError("need n >= 2")
    nodes, weights = np.polynomial.legendre.leggauss(16)

    def axis_points(a: float, b: float):
        width = (b - a) / panels
        pts, wts = [], []
        for p in range(panels):
            mid = a + (p + 0.5) * width
            pts.extend((mid + 0.5 * width * nodes).tolist())
            wts.extend((0.5 * width * weights).tolist())
        return pts, wts  # Python floats: a sum past the double range is inf, not a warning

    total = 0.0
    try:  # r ** (n - 1) raises OverflowError past the double range
        if len(weight.domain) == 1:
            pts, wts = axis_points(*weight.domain[0])
            for t, w in zip(pts, wts):
                r = weight.rho(t)
                if r < 0:
                    raise ValueError(f"negative weight sample at t={t}")
                total += w * r ** (n - 1) * weight.area_element(t)
        else:
            pts1, wts1 = axis_points(*weight.domain[0])
            pts2, wts2 = axis_points(*weight.domain[1])
            for t1, w1 in zip(pts1, wts1):
                for t2, w2 in zip(pts2, wts2):
                    r = weight.rho(t1, t2)
                    if r < 0:
                        raise ValueError(f"negative weight sample at ({t1}, {t2})")
                    total += w1 * w2 * r ** (n - 1) * weight.area_element(t1, t2)
    except OverflowError:
        total = math.inf
    if total == math.inf:
        raise ValueError("weight too large: the integral of rho^(n-1) overflows a double")
    return total


# ---------------------------------------------------------------------------
# phase-space volumes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonteCarloVolume:
    value: float
    stderr: float
    samples: int
    seed: int


def _require_ellipsoidal(symbol: HomogeneousSymbol) -> None:
    if not symbol.is_ellipsoidal:
        raise TypeError(
            "phase volumes need the ellipsoidal symbol family: the fiber "
            "measure carries the metric determinant"
        )


def _homogeneity_probe(symbol: HomogeneousSymbol, x) -> None:
    dim = symbol.metric.dim if symbol.is_ellipsoidal else 1
    eta = np.ones(dim) / math.sqrt(dim)
    v1 = symbol(x, eta)
    v2 = symbol(x, 2.0 * eta)
    expected = 2.0 ** symbol.degree * v1
    if not v1 > 0 or abs(v2 - expected) > 1e-9 * abs(expected):
        raise ValueError("symbol is not positively homogeneous of its declared degree")


def phase_volume_montecarlo(symbol: HomogeneousSymbol, x, samples: int,
                            seed: int) -> MonteCarloVolume:
    """Seeded Monte Carlo estimate of the sublevel-set fiber volume.

    Samples a box bounding the sublevel set {symbol < 1}, tests membership by
    evaluating the symbol's defining quadratic form, and weights by the square
    root of the metric determinant.  Bit-reproducible for a fixed seed.
    """
    if samples <= 0:
        raise ValueError("need samples > 0")
    _require_ellipsoidal(symbol)
    _homogeneity_probe(symbol, x)
    g = symbol.metric.matrix
    dim = symbol.metric.dim
    radius = symbol.coeff(x) ** (-1.0 / symbol.degree)
    half = radius * np.sqrt(np.diag(np.linalg.inv(g)))
    box_volume = float(np.prod(2.0 * half))
    rng = np.random.default_rng(seed)
    pts = (2.0 * rng.random((samples, dim)) - 1.0) * half
    quad = np.einsum("ij,jk,ik->i", pts, g, pts)
    inside = symbol.coeff(x) * quad ** (symbol.degree / 2.0) < 1.0
    p_hat = float(np.count_nonzero(inside)) / samples
    det_weight = math.sqrt(float(np.linalg.det(g)))
    value = box_volume * det_weight * p_hat
    stderr = box_volume * det_weight * math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / samples)
    return MonteCarloVolume(value, stderr, samples, seed)


def hormander_phase_volume(symbol: HomogeneousSymbol, x) -> float:
    """Fiber volume of {symbol < 1} under the metric-weighted measure.

    For a degree-d symbol c(x) * q(eta)^(d/2) with q the inverse-metric
    quadratic form, the metric weighting cancels the ellipsoid distortion and
    the volume is omega_(dim) * c(x)^(-dim/d).
    """
    _require_ellipsoidal(symbol)
    _homogeneity_probe(symbol, x)
    dim = symbol.metric.dim
    try:
        volume = unit_ball_volume(dim) * symbol.coeff(x) ** (-dim / symbol.degree)
    except OverflowError:
        volume = math.inf
    if volume == math.inf:
        raise ValueError(f"weight too large: the phase volume c^(-{dim}/{symbol.degree:g}) "
                         "overflows a double")
    return volume


# ---------------------------------------------------------------------------
# remainder study
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RemainderReport:
    """Outcome of fitting the next-order coefficient of a counting series; it
    keeps the series and model and builds ``residual_series`` on first access."""

    second_coeff_estimate: float
    sharp_verdict: bool
    tolerance_used: float
    trend_slope: float
    series: CountingSeries = field(repr=False)
    model: WeylModel

    @cached_property
    def residual_series(self) -> tuple[tuple[float, float], ...]:
        return tuple((t, self.model.scaled_residual(t, c)) for t, c in self.series.samples)


def remainder_fit(series: CountingSeries, model: WeylModel,
                  tolerance: float | None = None) -> RemainderReport:
    """Extract the tau^(n-2) coefficient of count - C_lead * tau^(n-1).

    Uses the scaled residual at the largest tau (the exact residual is
    monotone for the model problems, so no least-squares fit) and reports the
    average slope of the residual against log tau as a trend diagnostic.
    The verdict is sharp when the estimate exceeds the tolerance, which
    defaults to a tenth of the leading coefficient.
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

    start, estimate = model.scaled_residual(*samples[0]), model.scaled_residual(last, last_count)
    trend = (estimate - start) / (math.log(last) - math.log(first))
    tol = 0.1 * model.c_lead if tolerance is None else tolerance
    return RemainderReport(estimate, abs(estimate) > tol, tol, trend, series, model)


def gamma_identity_check(n: int) -> float:
    """Residual of the closed-form identity linking 1 / (2^(n-2) (n-1)!) to
    the counting constant omega_(n-1) * n * omega_n / (4 pi)^(n-1)."""
    if n < 2:
        raise ValueError("need n >= 2")
    try:
        lhs = 1.0 / (2.0 ** (n - 2) * math.factorial(n - 1))
    except OverflowError:
        raise ValueError(f"n = {n} is too large: (n-1)! overflows a double") from None
    rhs = unit_ball_volume(n - 1) * n * unit_ball_volume(n) / (4.0 * math.pi) ** (n - 1)
    return abs(lhs - rhs)
