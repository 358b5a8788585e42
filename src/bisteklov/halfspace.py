"""Constant-coefficient biharmonic model problems on the half-space.

Three independent routes to the same boundary maps live here: exact
Fourier-side profiles in the normal variable, the exact solution of the
finite-difference two-point problem at the few nodes the symbol readouts need
(the closed-form discrete Green's function of a tridiagonal Toeplitz matrix,
Hu & O'Connell 1996), and the explicit sphere-integral kernels evaluated by
quadrature.  Tests play the routes against one another.

The tables of the kernel and Fourier routes that depend on no input data are
built once and kept read-only, in caches of a fixed number of entries that take
only tables up to a fixed size (larger ones are built per call): the sphere rule
with the block's direction norms (16 entries of 24 quad_points bytes, up to
4 096 directions), the chirp table and Bluestein kernel FFT (8 entries of under
48 (samples + nodes) bytes, up to samples + nodes = 16 384), the half-spectrum
nodes and weights (8 entries of about 8 (eta_points + 128) bytes, up to 16 385
nodes) and the chirp-z phases of each sample grid (8 entries of under
40 (samples + nodes) bytes, up to samples + eta_points = 16 384): about 14 MB in
all at most.  A cached table gives the same bits as a fresh one.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .symbols import (AdequacyError, BoundaryMetric, SolverError, in_double_range,
                      quadratic_form)


@dataclass(frozen=True, eq=False)
class MetricBlock:
    """Constant coefficient matrix with a tangential SPD block, kept as a BoundaryMetric,
    and a normal scalar; the off-diagonal normal couplings are zero by assumption."""

    a_tan: BoundaryMetric
    a_nn: float

    def __post_init__(self):
        if not isinstance(self.a_tan, BoundaryMetric):  # a matrix: check it
            object.__setattr__(self, "a_tan", BoundaryMetric(self.a_tan))
        if not 0 < self.a_nn < math.inf:  # a NaN or inf fails here, not at every later use
            raise ValueError("normal coefficient must be positive and finite")

    @property
    def dim(self) -> int:
        return self.a_tan.dim + 1

    @staticmethod
    def identity(n: int) -> "MetricBlock":
        return MetricBlock(BoundaryMetric.identity(n - 1), 1.0)


@dataclass(frozen=True, eq=False)
class FourierDatum:
    """One tangential frequency; its boundary data are unit."""

    eta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "eta", np.atleast_1d(np.asarray(self.eta, dtype=float)))


@dataclass(frozen=True)
class HalfSpaceGrid:
    """Uniform grid on [0, L] in the normal variable."""

    h: float
    L: float

    def __post_init__(self):
        # L / h overflows for a huge L or a tiny h, and round() refuses inf
        if not (self.h > 0 and self.L > 0 and self.L / self.h < math.inf):
            raise ValueError("need h > 0 and L > 0 with a finite L/h")
        steps = self.L / self.h
        if abs(steps - round(steps)) > 1e-9 or round(steps) < 8:
            raise ValueError("L must be an integer multiple (>= 8) of h")

    @property
    def n_steps(self) -> int:
        return round(self.L / self.h)


def xi_norm(A: MetricBlock, eta) -> float:
    """Normal-variable decay rate sqrt(q(eta) / a_nn), q the tangential form."""
    return math.sqrt(in_double_range(
        lambda: quadratic_form(A.a_tan, eta) / A.a_nn,
        "covector must be nonzero and finite, with a norm in double range"))


# ---------------------------------------------------------------------------
# exact Fourier-side solutions
# ---------------------------------------------------------------------------

def _heights(x_n) -> np.ndarray:
    x_n = np.asarray(x_n, dtype=float)
    if not ((x_n >= 0) & (x_n < math.inf)).all():  # NaN fails both
        raise ValueError("x_n must be finite and nonnegative")
    return x_n


def fourier_solution_p1(A: MetricBlock, datum: FourierDatum, x_n):
    """Bounded profile with zero trace and unit conormal derivative
    sqrt(a_nn) u'(0) = 1: (1 / sqrt(a_nn)) * x_n * exp(-|xi'| x_n)."""
    x_n = _heights(x_n)
    k = xi_norm(A, datum.eta)
    return 1.0 / math.sqrt(A.a_nn) * x_n * np.exp(-k * x_n)


def fourier_solution_p2(A: MetricBlock, datum: FourierDatum, x_n):
    """Bounded profile with unit trace and zero normal derivative:
    exp(-|xi'| x_n) * (1 + |xi'| x_n)."""
    x_n = _heights(x_n)
    k = xi_norm(A, datum.eta)
    return np.exp(-k * x_n) * (1.0 + k * x_n)


# ---------------------------------------------------------------------------
# finite-difference recovery of the boundary symbols
# ---------------------------------------------------------------------------

def _solve_ode(k: float, grid: HalfSpaceGrid, bc_value: float, bc_slope: float,
               nodes) -> tuple[np.ndarray, np.ndarray]:
    """Exact solution of the discretized (d^2/dx^2 - k^2)^2 u = 0 on [0, L] at ``nodes``.

    Boundary rows: u(0) = bc_value, one-sided second-order u'(0) = bc_slope,
    far field u(L) = u'(L) = 0.  Interior rows use the five-point stencil of
    the squared operator scaled by h^4, [1, -4-2s, 6+4s+s^2, -4-2s, 1] with
    s = (k h)^2: T^2 for T = tridiag(-1, 2+s, -1) on the nodes 1 .. n-1.  So
    v = T u - bc_value e_1 solves T v = a e_1 + b e_{n-1}, u = T^-1 (bc_value e_1 + v),
    and the 2x2 influence (capacitance) system of the two slope rows gives a
    and b (Glowinski & Pironneau 1979, Kleiser & Schumann 1980).  T^-1 and T^-2
    are the closed-form discrete Green's function of the Toeplitz matrix T
    (Hu & O'Connell, J. Phys. A 29 (1996) 1511), so only the requested nodes
    are evaluated, and neither work nor memory grows with L/h.

    Returns u and v = a T^-1 e_1 + b T^-1 e_{n-1} at ``nodes``.  Row i of v is
    -u_{i-1} + (2+s) u_i - u_{i+1}, about -h^2 (u'' - k^2 u)(x_i); at nodes 0
    and n the formulas give u = bc_value, 0 and v = a, b.
    """
    if grid.L * k < 20.0:
        raise AdequacyError(f"need L * |xi'| >= 20, got {grid.L * k:.3f}")
    # at h * |xi'| = 1 the p1 symbol is 26 % off already, and a far coarser
    # step overflows sinh(theta) below
    if grid.h * k > 1.0:
        raise AdequacyError(f"need h * |xi'| <= 1, got {grid.h * k:.3g}")
    h, n = grid.h, grid.n_steps
    theta = 2.0 * math.asinh(0.5 * k * h)  # from k h, without rounding 2 + s

    def green(i):
        # S_j = sinh(j theta): T^-1 e_1 = S_{n-i} / S_n, T^-2 e_1 = [i cosh(n theta) S_{n-i}
        # - (n-i) S_i] / (2 sinh(theta) S_n^2) at the nodes i, each exp(n theta) power
        # divided out: no exponent is positive, so nothing overflows, and for
        # n theta >= 20 nothing cancels; T^-k e_{n-1} at node i is T^-k e_1 at n - i
        i = np.asarray(i, dtype=float)
        scale = -np.expm1(-2.0 * n * theta)  # 2 exp(-n theta) S_n
        near, decay = -np.expm1(-2.0 * (n - i) * theta), np.exp(-i * theta)
        second = (i * decay * (2.0 - scale) * near
                  + 2.0 * (n - i) * np.exp((i - 2.0 * n) * theta) * np.expm1(-2.0 * i * theta))
        return decay * near / scale, second / (2.0 * math.sinh(theta) * scale * scale)

    # slope rows on u_1, u_2 and u_{n-2}, u_{n-1}: 4 u_1 - u_2 = 2 h bc_slope + 3 bc_value,
    # u_{n-2} - 4 u_{n-1} = 0 (u_n = 0)
    ends, slope = np.array([1, 2, n - 2, n - 1]), np.array([[4.0, -1, 0, 0], [0, 0, 1, -4]])
    first, second = green(ends)
    rhs = np.array([2.0 * h * bc_slope + 3.0 * bc_value, 0.0]) - slope @ (bc_value * first)
    try:
        a, b = np.linalg.solve(slope @ np.column_stack([second, green(n - ends)[1]]), rhs)
    except np.linalg.LinAlgError:
        raise SolverError("singular influence matrix") from None
    (first, second), (mirror, mirror_second) = green(nodes), green(n - np.asarray(nodes))
    u = bc_value * first + a * second + b * mirror_second
    v = a * first + b * mirror
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
        raise SolverError("closed-form solve produced non-finite values")
    return u, v


def bvp_solve_p1(A: MetricBlock, datum: FourierDatum, grid: HalfSpaceGrid) -> float:
    """Numerically recover the trace-zero boundary symbol.

    Solves the normal-variable problem with the unit data u(0) = 0 and
    sqrt(a_nn) u'(0) = 1, then returns -(a_nn u''(0) - a_nn |xi'|^2 u(0))
    via a one-sided second-order stencil.  Converges at O(h^2) to twice the
    tangential metric norm of the covector.
    """
    k = xi_norm(A, datum.eta)
    u, _ = _solve_ode(k, grid, 0.0, 1.0 / math.sqrt(A.a_nn), np.arange(4))
    upp0 = (2.0 * u[0] - 5.0 * u[1] + 4.0 * u[2] - u[3]) / grid.h**2
    return -(A.a_nn * upp0 - A.a_nn * k * k * u[0])


def bvp_solve_p2(A: MetricBlock, datum: FourierDatum, grid: HalfSpaceGrid) -> float:
    """Numerically recover the flux boundary symbol.

    Solves with the unit data u(0) = 1 and u'(0) = 0, then returns
    sqrt(a_nn) (a_nn u'''(0) - a_nn |xi'|^2 u'(0)), which is
    a_nn^(3/2) (u'' - |xi'|^2 u)'(0): the one-sided cubic derivative at the
    wall of -v / h^2 on the nodes 1 .. 4, with v from the solve.  Converges at
    O(h^2) to twice the tangential metric norm cubed.
    """
    k = xi_norm(A, datum.eta)
    _, v = _solve_ode(k, grid, 1.0, 0.0, np.arange(1, 5))
    flux = np.array([-26.0 / 6.0, 19.0 / 2.0, -7.0, 11.0 / 6.0]) @ (-v / grid.h**2) / grid.h
    return A.a_nn ** 1.5 * float(flux)


# ---------------------------------------------------------------------------
# explicit kernels
# ---------------------------------------------------------------------------

def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _table_cache(maxsize: int, small: Callable[..., bool]):
    """An lru_cache of ``maxsize`` entries for a table builder, consulted only for the
    keys that ``small`` accepts; a larger table is built per call and freed with it, so
    each cache's memory has a fixed bound whatever grids the callers pass."""
    def decorate(build):
        cached = functools.lru_cache(maxsize=maxsize)(build)

        @functools.wraps(build)
        def table(*key):
            return (cached if small(*key) else build)(*key)

        table.cache_info, table.cache_clear = cached.cache_info, cached.cache_clear
        return table
    return decorate


@_table_cache(16, lambda A, quad_points: quad_points is None or quad_points <= 4096)
def _sphere_rule(A: MetricBlock, quad_points: int | None) -> tuple[np.ndarray, float, np.ndarray]:
    """The sphere rule of ``_kernel_values`` (directions and weight) and the block's
    direction norms q = sqrt(dirs . a_tan . dirs / a_nn), read-only, built once per block
    and rule (``quad_points`` None for n = 2) up to 4 096 directions.  Blocks are keyed by
    identity, which is sound because a block and its metric are immutable.  At most 16
    entries, each holding its block and 24 quad_points bytes: 6 KB at the default 256
    directions, 1.6 MB in all at most."""
    if A.dim == 2:
        dirs, weight = np.array([[1.0], [-1.0]]), 1.0
    else:
        thetas = 2.0 * math.pi * np.arange(quad_points) / quad_points
        dirs, weight = np.column_stack([np.cos(thetas), np.sin(thetas)]), 2.0 * math.pi / quad_points
    q = np.sqrt(np.sum((dirs @ A.a_tan.matrix) * dirs, axis=1) / A.a_nn)
    _read_only(dirs, q)
    return dirs, weight, q


def _kernel_values(A: MetricBlock, which: str, x: np.ndarray, x_n,
                   quad_points: int | None = None):
    """K1 or K2 at boundary offsets ``x`` and heights ``x_n`` (broadcastable to S) by one
    sphere rule.  For n = 2 ``x`` holds the offsets themselves (shape S) and the rule is
    the directions +-1 with weight 1, each one contiguous S-shaped plane; for n = 3 ``x``
    has shape S + (2,) and the rule is ``quad_points`` equispaced circle directions with
    weight 2 pi/quad_points along a trailing axis.  Raises SolverError on a non-finite
    value or an imaginary part above 1e-10.  A Python number ``x_n`` is checked as a
    float, and for n = 3 gives a scalar."""
    n = A.dim
    scalar = isinstance(x_n, (int, float))
    x_n = float(x_n) if scalar else np.asarray(x_n, dtype=float)
    if not (x_n > 0 if scalar else (x_n > 0).all()):
        raise ValueError("kernels are singular at the boundary: need x_n > 0")
    dirs, weight, q = _sphere_rule(A, quad_points if n == 3 else None)
    if n == 2:
        # the products of the rule below with their operands in the same order, one plane
        # per direction (both norms are q[0]), added as its sum over the direction axis adds
        # them: 0.0 + first + second.  numpy's complex product fuses a multiply-add, so
        # r * u and u * r differ in the last bit, and for a temporary u of 256 KB or more
        # the operator r * u computes u * r in place: hence np.multiply
        iq, integrand = 1j * (x_n * q[0]), 0.0
        scalar = False  # a plane is an array, also for one offset
        for offset in (x, -x):
            r = 1.0 / (offset + iq)
            integrand = integrand + (x_n / math.sqrt(A.a_nn) * r if which == "K2"
                                     else np.multiply(r, 1.0 + iq * r))
    else:
        x_n = x_n if scalar else x_n[..., None]
        xq = x_n * q
        r = 1.0 / (x @ dirs.T + 1j * xq)
        if which == "K2":
            integrand = x_n / math.sqrt(A.a_nn) * r ** (n - 1)
        else:
            integrand = r ** (n - 1) * (1.0 + (n - 1) * 1j * xq * r)
        integrand = integrand.sum(axis=-1)
    prefactor = (-1.0) ** (n - 1) * math.factorial(n - 2) / (2.0j * math.pi) ** (n - 1)
    value = prefactor * weight * integrand
    if not (math.isfinite(value.real) and math.isfinite(value.imag) if scalar
            else np.isfinite(value).all()):
        raise SolverError("kernel integral is not finite")
    worst = abs(value.imag) if scalar else np.abs(value.imag).max(initial=0.0)
    if worst > 1e-10:
        raise SolverError(f"kernel integral has imaginary part {worst:.3e}")
    return value.real


def kernel_K(A: MetricBlock, which: str, x, x_n: float, quad_points: int = 256) -> float:
    """Evaluate the half-space kernels K1/K2 by their unit-sphere integrals.

    For a 1-dimensional boundary the sphere is the two points +-1 (summed
    exactly); for a 2-dimensional boundary the circle integral uses the
    periodic trapezoid rule.  The kernels are singular on the boundary, so
    x_n must be positive.  The assembled integral must be finite and its
    imaginary part must vanish to rounding; both are checked before the real
    part is returned.
    """
    if which not in ("K1", "K2"):
        raise ValueError("which must be 'K1' or 'K2'")
    n = A.dim
    if n not in (2, 3):
        raise ValueError("kernels are implemented for total dimension 2 or 3")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (n - 1,):
        raise ValueError(f"boundary point must have {n - 1} components")
    if n == 3 and (quad_points < 4 or quad_points % 2):
        raise ValueError("need an even quad_points >= 4")
    value = _kernel_values(A, which, x, x_n, quad_points)
    # n = 2 takes its one offset as a one-element plane: numpy's scalar arithmetic rounds
    # differently from its array loops
    return float(value[0] if n == 2 else value)


# ---------------------------------------------------------------------------
# boundary-data solves: kernel convolution vs Fourier synthesis
# ---------------------------------------------------------------------------

def _check_boundary_data(y, phi, h, points):
    """The sample grid, the data (an absent datum stays None), the grid step and the
    (x', x_n) points as a (points, 2) array, checked; ValueError otherwise."""
    y = np.asarray(y, dtype=float)
    phi, h = (None if d is None else np.asarray(d, dtype=float) for d in (phi, h))
    if y.ndim != 1 or y.size < 4:
        raise ValueError("need a 1-d sample grid with at least 4 points")
    if any(d is not None and d.shape != y.shape for d in (phi, h)):
        raise ValueError("data arrays must match the sample grid")
    dy = y[1:] - y[:-1]
    # np.allclose(dy, dy[0], rtol=1e-12, atol=0.0) in one reduction, without all-inf steps
    if not (0 < dy[0] < math.inf and np.abs(dy - dy[0]).max() <= 1e-12 * dy[0]):
        raise ValueError("sample grid must be uniform and increasing")
    for name, d in (("phi", phi), ("h", h)):
        if d is not None and max(abs(d[0]), abs(d[-1])) > 1e-12:
            raise ValueError(f"support violation: {name} is nonzero at the window edge")
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if not np.isfinite(pts).all():
        raise ValueError("evaluation points must be finite")
    # after the points check, so that a call failing both keeps the points message
    for name, d in (("phi", phi), ("h", h)):
        if d is not None and not np.isfinite(d).all():
            raise ValueError(f"{name} must be finite")
    return y, phi, h, float(dy[0]), pts


# (point, sample) pairs per kernel evaluation block: each temporary is one complex
# (points, columns) array per sphere direction, 1 MB
_KERNEL_BLOCK = 1 << 16
_MIN_XN = 1e-3  # lowest evaluation height, kept away from the kernel singularity


def solve_by_kernel(A: MetricBlock, y, phi, h, points) -> np.ndarray:
    """Solve the half-plane problem by discrete kernel convolution.

    ``y`` is a uniform sample grid carrying the trace data ``phi`` and the
    scaled normal-derivative data ``h`` (either may be None); ``points`` is a
    sequence of (x', x_n) evaluation points with x_n >= 1e-3, kept away from
    the kernel singularity.  Trapezoid weights reduce to dy because the data
    must vanish at the window edges.
    """
    if A.dim != 2:
        raise ValueError("kernel convolution is implemented for the half-plane")
    y, phi, h, dy, pts = _check_boundary_data(y, phi, h, points)
    if np.any(pts[:, 1] < _MIN_XN):
        raise ValueError(f"evaluation points need x_n >= {_MIN_XN}")
    out = np.zeros(pts.shape[0])
    for which, data in (("K1", phi), ("K2", h)):
        if data is None or not (cols := np.flatnonzero(data)).size:  # the columns data reaches
            continue
        # blocks of points keep each (points, columns) temporary, one per direction, near 1 MB
        rows = max(1, _KERNEL_BLOCK // cols.size)
        for start in range(0, pts.shape[0], rows):
            block = pts[start:start + rows]
            offsets = block[:, 0, None] - y[cols]
            out[start:start + rows] += (
                _kernel_values(A, which, offsets, block[:, 1, None]) @ data[cols])
    return out * dy


def _chirp(alpha: float, m: np.ndarray) -> np.ndarray:
    """exp(-i alpha m^2 / 2) for integers m.

    The phase is carried in turns as an exact double-double product (Dekker's
    two-product) and reduced modulo one before the exponential, so its error
    stays at rounding level instead of growing with m^2."""
    def split(a):
        c = 134217729.0 * a  # 2^27 + 1
        hi = c - (c - a)
        return hi, a - hi

    beta = alpha / (4.0 * math.pi)
    m2 = np.asarray(m, dtype=float) ** 2
    turns = beta * m2
    (b_hi, b_lo), (m_hi, m_lo) = split(beta), split(m2)
    err = ((b_hi * m_hi - turns) + b_hi * m_lo + b_lo * m_hi) + b_lo * m_lo
    return np.exp(-2j * math.pi * ((turns - np.round(turns)) + err))


@_table_cache(8, lambda samples, count, alpha: samples + count <= 16384)
def _bluestein(samples: int, count: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """The chirp table of ``_chirp_z`` and the FFT of its Bluestein kernel, read-only,
    built once per (samples, count, alpha) up to samples + count = 16 384.  At most 8
    entries of under 48 (samples + count) bytes each: 110 KB for 256 samples and 4 160
    nodes, 6.3 MB in all at most."""
    jc, kc = (samples - 1) // 2, (count - 1) // 2
    lags = np.arange(1 - samples, count)
    # every |k|, |j| and |k - j| of _chirp_z is some |lag - kc + jc|
    chirp = _chirp(alpha, np.arange(max(samples - 1 + kc - jc, count - 1 - kc + jc) + 1))
    # the least m 2^e >= samples + count - 1 for m in 1, 3, 5, 9, 15: a fast FFT length
    size = min(m << ((samples + count - 2) // m).bit_length() for m in (1, 3, 5, 9, 15))
    kernel = np.zeros(size, dtype=complex)
    kernel[lags] = chirp[np.abs(lags - kc + jc)].conj()  # negative lags wrap around
    return _read_only(chirp, np.fft.fft(kernel))


def _chirp_z_tables(samples: int, ends, etas: np.ndarray) -> tuple[np.ndarray, ...]:
    """The pre-phase, the post-phase and the Bluestein kernel FFT with which ``_chirp_z``
    transforms data on the uniform ``samples``-point grid y whose y[0], y[jc], y[-1] are
    ``ends``, read-only.  Indices are counted from the grid middles (jc, kc), which keeps
    every phase small.  The grid is taken as exactly uniform: y[j] is y[jc] + (j - jc) dy
    with dy from the grid ends."""
    y0, y_mid, y_last = ends
    count = etas.size
    jc, kc = (samples - 1) // 2, (count - 1) // 2
    dy = (y_last - y0) / (samples - 1)
    alpha = (etas[-1] - etas[0]) / max(count - 1, 1) * dy
    j, k = np.arange(samples) - jc, np.arange(count) - kc
    # etas[k] y[j] = etas[k] y[jc] + etas[kc] j dy + alpha k j,  2 k j = k^2 + j^2 - (k - j)^2
    chirp, kernel_fft = _bluestein(samples, count, alpha)
    pre = chirp[np.abs(j)] * np.exp(-1j * etas[kc] * dy * j)
    return (*_read_only(pre, chirp[np.abs(k)] * np.exp(-1j * etas * y_mid)), kernel_fft)


def _chirp_z(data: np.ndarray, tables: tuple[np.ndarray, ...]) -> np.ndarray:
    """sum_j data[..., j] exp(-i etas[k] y[j]) by Bluestein's chirp-z transform, one FFT
    convolution along the last axis (Rabiner, Schafer & Rader 1969)."""
    pre, post, kernel_fft = tables
    conv = np.fft.ifft(np.fft.fft(data * pre, kernel_fft.size) * kernel_fft, axis=-1)
    return conv[..., :post.size] * post


@_table_cache(8, lambda eta_points: eta_points <= 16385)
def _half_spectrum(eta_points: int) -> tuple[float, np.ndarray, np.ndarray]:
    """The step deta of the ``eta_points``-node grid on [-40, 40], its nodes
    eta_k = (k + off) deta >= 0 padded to whole rows of 64 nodes, and the full grid's
    trapezoid weights folded over: 2 deta, deta at eta = 0 and at the end, 0 on the
    padding.  Read-only, built once per node count up to 16 385 nodes: at most 8 entries
    of about 8 (eta_points + 128) bytes each, 66 KB at the default 8 193 nodes, 1.1 MB in
    all at most."""
    deta = 80.0 / (eta_points - 1)
    count = (eta_points + 1) // 2
    k = np.arange(-(-count // 64) * 64)
    etas = (k + 0.5 * (1 - eta_points % 2)) * deta
    w = deta * ((k < count).astype(float) + (k < count - 1) - (etas == 0))
    return (deta, *_read_only(etas, w))


@_table_cache(8, lambda samples, ends, eta_points: samples + eta_points <= 16384)
def _fourier_tables(samples: int, ends: bytes, eta_points: int) -> tuple[np.ndarray, ...]:
    """The ``_chirp_z_tables`` of ``fourier_synthesis``, keyed on the bytes of y[0], y[jc],
    y[-1] (so -0.0 and 0.0 stay apart), up to samples + eta_points = 16 384: at most 8 entries
    of under 40 (samples + nodes) bytes, the kernel FFT shared with ``_bluestein``: 144 KB for
    256 samples and 4 160 nodes, 5.3 MB in all at most."""
    return _chirp_z_tables(samples, np.frombuffer(ends), _half_spectrum(eta_points)[1])


def fourier_synthesis(A: MetricBlock, y, phi, h, points, eta_points: int = 8193) -> np.ndarray:
    """Solve the same problem from the Fourier side.

    Applies the exact normal-variable profiles to the discrete transform of
    the boundary data and inverts by trapezoid quadrature on ``eta_points``
    nodes of [-40, 40].  Real data and even profiles let it sum the
    nodes eta >= 0 only, with folded weights; there the integrand is
    (a + x_n b) exp(i eta z), z = x' + i sqrt(a_tan/a_nn) x_n, with a and b free
    of the point, and a power table exp(i (64 o + j + off) deta z) = G_o g_j
    evaluates it per block of points.  The sum has period 2 pi / deta in x':
    points with |x' - window middle| >= pi / deta are refused as aliased.
    ``y`` is taken as exactly uniform, its step from its ends; steps that differ
    by the relative 1e-12 the input check allows shift the transform by up to
    about 40 * (y[-1] - y[0]) * 1e-12.

    The profile exp(-eta r x_n), r = |xi'| at the unit covector, decays over 1 / (r x_n)
    in eta, so the nodes resolve it only while deta * r * x_n is small.  On the README's
    Gaussian (identity block, deta = 80/8192) the gap to the kernel route grows from
    4.5e-6 at x_n = 1 (deta r x_n = 0.01) to 1.1e-4 at 5, 1.1e-2 at 50 and 4.6e-2 at 102
    (0.17 at 200).  A point with deta * r * x_n > 1, fewer than one node per decay
    length, raises AdequacyError.
    """
    if A.dim != 2:
        raise ValueError("fourier synthesis is implemented for the half-plane")
    y, phi, h, dy, pts = _check_boundary_data(y, phi, h, points)
    if np.any(pts[:, 1] <= 0):
        raise ValueError("evaluation points need x_n > 0")
    eta_points = operator.index(eta_points)  # a TypeError for a float count
    if eta_points < 2:
        raise ValueError("need eta_points >= 2")
    deta, etas, w = _half_spectrum(eta_points)
    if np.any(np.abs(pts[:, 0] - 0.5 * (y[0] + y[-1])) >= math.pi / deta):
        raise ValueError(f"aliasing: need |x' - window middle| < pi / deta = {math.pi / deta:.6g}")
    r = xi_norm(A, [1.0])
    unresolved = deta * r * pts[:, 1].max(initial=0.0)
    if unresolved > 1.0:
        raise AdequacyError(f"the eta grid cannot resolve x_n: need deta * |xi'| * x_n <= 1, "
                            f"got {unresolved:.3g}")

    tables = _fourier_tables(y.size, y[[0, (y.size - 1) // 2, -1]].tobytes(), eta_points)
    phi_hat, h_hat = (dy * _chirp_z(d, tables) if d is not None and d.any() else 0.0
                      for d in (phi, h))
    ab = np.empty((etas.size, 2), dtype=complex)  # row k: the (a, b) pair of node k
    np.multiply(w, phi_hat, out=ab[:, 0])
    np.multiply(w, h_hat / math.sqrt(A.a_nn) + r * etas * phi_hat, out=ab[:, 1])
    ab = ab.reshape(-1, 128)  # row o: the (a, b) pairs of the nodes 64 o + j

    z = pts[:, 0] + 1j * r * pts[:, 1]
    out = np.empty(z.size)
    rows = max(1, _KERNEL_BLOCK // (len(ab) + 192))  # temporaries near 1 MB
    for start in range(0, z.size, rows):
        zb = z[start:start + rows, None]
        big, small = np.exp(1j * 64 * deta * np.arange(len(ab)) * zb), np.exp(1j * etas[:64] * zb)
        sums = np.einsum("pjc,pj->cp", (big @ ab).reshape(zb.size, 64, 2), small)
        out[start:start + rows] = (sums[0] + pts[start:start + rows, 1] * sums[1]).real
    return out / (2.0 * math.pi)
