"""Constant-coefficient biharmonic model problems on the half-space.

Three independent routes to the same boundary maps live here: exact
Fourier-side profiles in the normal variable, the exact solution of the
finite-difference two-point problem at the few nodes the symbol readouts need
(the closed-form discrete Green's function of a tridiagonal Toeplitz matrix,
Hu & O'Connell 1996), and the explicit sphere-integral kernels evaluated by
quadrature.  Tests play the routes against one another.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .symbols import _check_spd


class SolverError(RuntimeError):
    """Numerical failure inside a solve (singular system, blow-up)."""


class AdequacyError(ValueError):
    """Domain truncation too short for the requested covector."""


@dataclass(frozen=True, eq=False)
class MetricBlock:
    """Constant coefficient matrix with a tangential SPD block and a normal
    scalar; the off-diagonal normal couplings are zero by assumption."""

    a_tan: np.ndarray
    a_nn: float

    def __post_init__(self):
        a = _check_spd(self.a_tan, "tangential block")
        if not self.a_nn > 0:
            raise ValueError("normal coefficient must be positive")
        object.__setattr__(self, "a_tan", a)

    @property
    def dim(self) -> int:
        return self.a_tan.shape[0] + 1

    @staticmethod
    def identity(n: int) -> "MetricBlock":
        return MetricBlock(np.eye(n - 1), 1.0)


@dataclass(frozen=True, eq=False)
class FourierDatum:
    """One tangential frequency with its boundary amplitude."""

    eta: np.ndarray
    amplitude: complex = 1.0

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

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.L, self.n_steps + 1)


def xi_norm(A: MetricBlock, eta) -> float:
    """Normal-variable decay rate sqrt(eta . a_tan . eta / a_nn)."""
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    if eta.shape != (A.dim - 1,):
        raise ValueError(f"covector must have {A.dim - 1} components")
    with np.errstate(over="ignore", invalid="ignore"):  # the check below refuses inf and nan
        rate = math.sqrt(float(eta @ A.a_tan @ eta) / A.a_nn)
    if not 0.0 < rate < math.inf:
        raise ValueError("covector must be nonzero and finite, with a norm in double range")
    return rate


# ---------------------------------------------------------------------------
# exact Fourier-side solutions
# ---------------------------------------------------------------------------

def fourier_solution_p1(A: MetricBlock, datum: FourierDatum, x_n):
    """Bounded profile with zero trace and normal derivative amplitude/sqrt(a_nn):
    (amplitude / sqrt(a_nn)) * x_n * exp(-|xi'| x_n)."""
    x_n = np.asarray(x_n, dtype=float)
    if np.any(x_n < 0):
        raise ValueError("x_n must be nonnegative")
    k = xi_norm(A, datum.eta)
    return datum.amplitude / math.sqrt(A.a_nn) * x_n * np.exp(-k * x_n)


def fourier_solution_p2(A: MetricBlock, datum: FourierDatum, x_n):
    """Bounded profile with trace equal to the amplitude and zero normal
    derivative: amplitude * exp(-|xi'| x_n) * (1 + |xi'| x_n)."""
    x_n = np.asarray(x_n, dtype=float)
    if np.any(x_n < 0):
        raise ValueError("x_n must be nonnegative")
    k = xi_norm(A, datum.eta)
    return datum.amplitude * np.exp(-k * x_n) * (1.0 + k * x_n)


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

    Solves the normal-variable problem with u(0) = 0 and
    sqrt(a_nn) u'(0) = amplitude, then returns
    -(a_nn u''(0) - a_nn |xi'|^2 u(0)) / amplitude via a one-sided
    second-order stencil.  The result is amplitude-independent and converges
    at O(h^2) to twice the tangential metric norm of the covector.
    """
    k = xi_norm(A, datum.eta)
    u, _ = _solve_ode(k, grid, 0.0, 1.0 / math.sqrt(A.a_nn), np.arange(4))
    upp0 = (2.0 * u[0] - 5.0 * u[1] + 4.0 * u[2] - u[3]) / grid.h**2
    return -(A.a_nn * upp0 - A.a_nn * k * k * u[0])


def bvp_solve_p2(A: MetricBlock, datum: FourierDatum, grid: HalfSpaceGrid) -> float:
    """Numerically recover the flux boundary symbol.

    Solves with u(0) = amplitude and u'(0) = 0, then returns
    sqrt(a_nn) (a_nn u'''(0) - a_nn |xi'|^2 u'(0)) / amplitude, which is
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

def _kernel_values(A: MetricBlock, which: str, x: np.ndarray, x_n: np.ndarray,
                   quad_points: int | None = None) -> np.ndarray:
    """K1 or K2 at boundary offsets ``x`` (shape S + (n-1,)) and heights ``x_n``
    (broadcastable to S) by one sphere rule: the directions +-1 with weight 1 for n = 2,
    ``quad_points`` equispaced circle directions with weight 2 pi/quad_points
    for n = 3.  Raises SolverError on a non-finite value or an imaginary part
    above 1e-10."""
    n = A.dim
    x_n = np.asarray(x_n, dtype=float)
    if not np.all(x_n > 0):
        raise ValueError("kernels are singular at the boundary: need x_n > 0")
    if n == 2:
        dirs, weight = np.array([[1.0], [-1.0]]), 1.0
    else:
        thetas = 2.0 * math.pi * np.arange(quad_points) / quad_points
        dirs, weight = np.column_stack([np.cos(thetas), np.sin(thetas)]), 2.0 * math.pi / quad_points
    q = np.sqrt(np.sum((dirs @ A.a_tan) * dirs, axis=1) / A.a_nn)
    xq = x_n[..., None] * q
    r = 1.0 / (x @ dirs.T + 1j * xq)
    if which == "K2":
        integrand = x_n[..., None] / math.sqrt(A.a_nn) * r ** (n - 1)
    else:
        integrand = r ** (n - 1) * (1.0 + (n - 1) * 1j * xq * r)
    prefactor = (-1.0) ** (n - 1) * math.factorial(n - 2) / (2.0j * math.pi) ** (n - 1)
    value = prefactor * weight * integrand.sum(axis=-1)
    if not np.all(np.isfinite(value)):
        raise SolverError("kernel integral is not finite")
    worst = np.max(np.abs(value.imag), initial=0.0)
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
    return float(_kernel_values(A, which, x, x_n, quad_points))


# ---------------------------------------------------------------------------
# boundary-data solves: kernel convolution vs Fourier synthesis
# ---------------------------------------------------------------------------

def _check_boundary_data(y: np.ndarray, phi: np.ndarray, h: np.ndarray, points):
    y = np.asarray(y, dtype=float)
    phi = np.zeros_like(y) if phi is None else np.asarray(phi, dtype=float)
    h = np.zeros_like(y) if h is None else np.asarray(h, dtype=float)
    if y.ndim != 1 or y.size < 4:
        raise ValueError("need a 1-d sample grid with at least 4 points")
    if phi.shape != y.shape or h.shape != y.shape:
        raise ValueError("data arrays must match the sample grid")
    dy = np.diff(y)
    if not (dy[0] > 0 and np.allclose(dy, dy[0], rtol=1e-12, atol=0.0)):
        raise ValueError("sample grid must be uniform and increasing")
    for name, data in (("phi", phi), ("h", h)):
        if max(abs(data[0]), abs(data[-1])) > 1e-12:
            raise ValueError(f"support violation: {name} is nonzero at the window edge")
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if not np.all(np.isfinite(pts)):
        raise ValueError("evaluation points must be finite")
    return y, phi, h, float(dy[0]), pts


_KERNEL_BLOCK = 1 << 16  # (point, sample) pairs per kernel evaluation block
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
        cols = np.flatnonzero(data)  # only the columns the data reaches
        if not cols.size:
            continue
        # blocks of points keep each (points, columns, directions) temporary near 2 MB
        rows = max(1, _KERNEL_BLOCK // cols.size)
        for start in range(0, pts.shape[0], rows):
            block = pts[start:start + rows]
            offsets = (block[:, 0, None] - y[cols])[..., None]
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


def _chirp_z(data: np.ndarray, y: np.ndarray, etas: np.ndarray) -> np.ndarray:
    """sum_j data[..., j] exp(-i etas[k] y[j]) for uniform grids ``y`` and
    ``etas``, by Bluestein's chirp-z transform: one FFT convolution along the
    last axis (Rabiner, Schafer & Rader 1969).  Indices are counted from the
    grid middles (jc, kc), which keeps every phase small.  The grids are taken
    as exactly uniform: y[j] is y[jc] + (j - jc) dy with dy from the grid ends."""
    samples, count = y.size, etas.size
    jc, kc = (samples - 1) // 2, (count - 1) // 2
    dy = (y[-1] - y[0]) / (samples - 1)
    alpha = (etas[-1] - etas[0]) / max(count - 1, 1) * dy
    j, k = np.arange(samples) - jc, np.arange(count) - kc
    lags = np.arange(1 - samples, count)
    # etas[k] y[j] = etas[k] y[jc] + etas[kc] j dy + alpha k j,  2 k j = k^2 + j^2 - (k - j)^2;
    # every |k|, |j| and |k - j| is some |lag - kc + jc|
    chirp = _chirp(alpha, np.arange(max(samples - 1 + kc - jc, count - 1 - kc + jc) + 1))
    pre = data * (chirp[np.abs(j)] * np.exp(-1j * etas[kc] * dy * j))
    # the least m 2^e >= samples + count - 1 for m in 1, 3, 5, 9, 15: a fast FFT length
    size = min(m << ((samples + count - 2) // m).bit_length() for m in (1, 3, 5, 9, 15))
    kernel = np.zeros(size, dtype=complex)
    kernel[lags] = chirp[np.abs(lags - kc + jc)].conj()  # negative lags wrap around
    conv = np.fft.ifft(np.fft.fft(pre, size) * np.fft.fft(kernel), axis=-1)[..., :count]
    return conv * (chirp[np.abs(k)] * np.exp(-1j * etas * y[jc]))


def fourier_synthesis(A: MetricBlock, y, phi, h, points, eta_max: float = 40.0,
                      eta_points: int = 8193) -> np.ndarray:
    """Solve the same problem from the Fourier side.

    Applies the exact normal-variable profiles to the discrete transform of
    the boundary data and inverts by trapezoid quadrature on ``eta_points``
    nodes of [-eta_max, eta_max].  Real data and even profiles let it sum the
    nodes eta >= 0 only, with folded weights; there the integrand is
    (a + x_n b) exp(i eta z), z = x' + i sqrt(a_tan/a_nn) x_n, with a and b free
    of the point, and a power table exp(i (64 o + j + off) deta z) = G_o g_j
    evaluates it per block of points.  The sum has period 2 pi / deta in x':
    points with |x' - window middle| >= pi / deta are refused as aliased.
    ``y`` is taken as exactly uniform, its step from its ends; steps that differ
    by the relative 1e-12 the input check allows shift the transform by up to
    about eta_max * (y[-1] - y[0]) * 1e-12.
    """
    if A.dim != 2:
        raise ValueError("fourier synthesis is implemented for the half-plane")
    y, phi, h, dy, pts = _check_boundary_data(y, phi, h, points)
    if np.any(pts[:, 1] <= 0):
        raise ValueError("evaluation points need x_n > 0")
    eta_points = operator.index(eta_points)  # a TypeError for a float count
    if not (eta_points >= 2 and 0.0 < eta_max < math.inf):
        raise ValueError("need eta_points >= 2 and a finite eta_max > 0")
    deta = 2.0 * eta_max / (eta_points - 1)
    if np.any(np.abs(pts[:, 0] - 0.5 * (y[0] + y[-1])) >= math.pi / deta):
        raise ValueError(f"aliasing: need |x' - window middle| < pi / deta = {math.pi / deta:.6g}")

    # eta_k = (k + off) deta >= 0, padded to whole rows of 64 nodes; the full grid's
    # trapezoid weights folded over: 2 deta, deta at eta = 0 and at the end, 0 on the padding
    count = (eta_points + 1) // 2
    k = np.arange(-(-count // 64) * 64)
    etas = (k + 0.5 * (1 - eta_points % 2)) * deta
    w = deta * ((k < count).astype(float) + (k < count - 1) - (etas == 0))
    phi_hat, h_hat = (dy * _chirp_z(d, y, etas) if d.any() else 0.0 for d in (phi, h))
    r = math.sqrt(float(A.a_tan[0, 0]) / A.a_nn)
    ab = np.stack([w * phi_hat, w * (h_hat / math.sqrt(A.a_nn) + r * etas * phi_hat)], axis=1)
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
