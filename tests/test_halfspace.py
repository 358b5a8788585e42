import math
import tracemalloc
import warnings

import numpy as np
import pytest
import sympy as sp
from hypothesis import example, given, settings, strategies as st

from bisteklov import (
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
from bisteklov.halfspace import (_bluestein, _check_boundary_data, _chirp_z, _chirp_z_tables,
                                 _fourier_tables, _half_spectrum, _solve_ode, _sphere_rule)


def random_block(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 3))
    m = rng.normal(size=(dim, dim))
    a_tan = m @ m.T + dim * np.eye(dim)
    a_nn = float(rng.uniform(0.5, 3.0))
    eta = rng.normal(size=dim)
    return MetricBlock(a_tan, a_nn), eta


# ---------------------------------------------------------------------------
# metric blocks and the decay rate
# ---------------------------------------------------------------------------

def test_xi_norm_values():
    assert xi_norm(MetricBlock.identity(2), [1.0]) == pytest.approx(1.0, rel=1e-15)
    A = MetricBlock(np.array([[1.0]]), 4.0)
    assert xi_norm(A, [2.0]) == pytest.approx(1.0, rel=1e-15)
    assert xi_norm(A, [6.0]) == pytest.approx(3.0 * xi_norm(A, [2.0]), rel=1e-14)


def test_xi_norm_rejections():
    A = MetricBlock.identity(3)
    with pytest.raises(ValueError):
        xi_norm(A, [0.0, 0.0])
    with pytest.raises(ValueError):
        xi_norm(A, [1.0])


def test_metric_block_validation():
    with pytest.raises(ValueError):
        MetricBlock(np.array([[1.0, 2.0], [2.0, 1.0]]), 1.0)
    with pytest.raises(ValueError):
        MetricBlock(np.eye(1), 0.0)
    with pytest.raises(ValueError):
        MetricBlock(np.array([[1.0, 0.1], [0.2, 1.0]]), 1.0)


@pytest.mark.parametrize("a_nn", [math.inf, math.nan])
def test_metric_block_refuses_a_non_finite_normal_coefficient(a_nn):
    # an infinite a_nn was accepted, and every later use failed with "covector must be
    # nonzero and finite"
    with pytest.raises(ValueError, match="normal coefficient must be positive and finite"):
        MetricBlock(np.eye(1), a_nn)


def test_metric_block_keeps_a_private_read_only_metric():
    m = np.array([[2.0, 0.5], [0.5, 1.0]])
    block = MetricBlock(m, 1.0)
    before = kernel_K(block, "K1", [0.3, -0.2], 0.7)
    m[0, 0] = -5.0  # would make the checked metric indefinite
    assert block.a_tan.matrix[0, 0] == 2.0
    with pytest.raises(ValueError, match="read-only"):
        block.a_tan.matrix[0, 0] = -5.0
    assert kernel_K(block, "K1", [0.3, -0.2], 0.7) == before


# ---------------------------------------------------------------------------
# closed-form profiles: symbolic oracle
# ---------------------------------------------------------------------------

def _sym_operator(u, x, a, k):
    # (a d^2/dx^2 - a k^2) applied twice
    inner = a * sp.diff(u, x, 2) - a * k**2 * u
    return a * sp.diff(inner, x, 2) - a * k**2 * inner


def test_profiles_satisfy_equation_symbolically():
    x, k = sp.symbols("x k", positive=True)
    a, amp = sp.symbols("a A", positive=True)
    u1 = amp / sp.sqrt(a) * x * sp.exp(-k * x)
    u2 = amp * sp.exp(-k * x) * (1 + k * x)
    assert sp.simplify(_sym_operator(u1, x, a, k)) == 0
    assert sp.simplify(_sym_operator(u2, x, a, k)) == 0
    # boundary data: u1(0) = 0, sqrt(a) u1'(0) = A; u2(0) = A, u2'(0) = 0
    assert u1.subs(x, 0) == 0
    assert sp.simplify(sp.sqrt(a) * sp.diff(u1, x).subs(x, 0) - amp) == 0
    assert sp.simplify(u2.subs(x, 0) - amp) == 0
    assert sp.diff(u2, x).subs(x, 0) == 0
    # recovered boundary quantities behind the two solvers
    lap1 = (a * sp.diff(u1, x, 2)).subs(x, 0)
    assert sp.simplify(-lap1 - 2 * sp.sqrt(a) * k * amp) == 0
    flux2 = (sp.sqrt(a) * a * sp.diff(u2, x, 3)).subs(x, 0)
    assert sp.simplify(flux2 - 2 * (sp.sqrt(a) * k) ** 3 * amp) == 0


def test_profile_boundary_values_exact():
    A, eta = random_block(2)
    datum = FourierDatum(eta)
    assert fourier_solution_p1(A, datum, 0.0) == 0.0
    assert fourier_solution_p2(A, datum, 0.0) == 1.0
    with pytest.raises(ValueError):
        fourier_solution_p1(A, datum, -0.5)


@pytest.mark.parametrize("x_n", [math.nan, math.inf, [0.5, math.nan]], ids=["nan", "inf", "array"])
@pytest.mark.parametrize("profile", [fourier_solution_p1, fourier_solution_p2])
def test_profiles_refuse_non_finite_heights(profile, x_n):
    # a NaN height gave NaN, an infinite one NaN and a RuntimeWarning, where the limit is 0
    with pytest.raises(ValueError, match="x_n must be finite and nonnegative"):
        profile(MetricBlock.identity(2), FourierDatum([1.0]), x_n)


def test_profile_derivatives_by_finite_differences():
    A, eta = random_block(7)
    k = xi_norm(A, eta)
    datum = FourierDatum(eta)
    h = 1e-4
    xs = np.array([0.0, h, 2 * h])
    u1 = np.real(fourier_solution_p1(A, datum, xs))
    slope = (-3 * u1[0] + 4 * u1[1] - u1[2]) / (2 * h)
    assert math.sqrt(A.a_nn) * slope == pytest.approx(1.0, abs=1e-6)
    # third derivative: larger step, h^3 in the denominator amplifies roundoff
    h = 1e-3
    xs = np.array([0.0, h, 2 * h, 3 * h, 4 * h])
    u2 = np.real(fourier_solution_p2(A, datum, xs))
    third = (-2.5 * u2[0] + 9 * u2[1] - 12 * u2[2] + 7 * u2[3] - 1.5 * u2[4]) / h**3
    assert third == pytest.approx(2 * k**3, rel=1e-4)


def _discrete_equation_residual(A, eta, h):
    k = xi_norm(A, eta)
    xs = np.arange(0.0, 12.0, h)
    u = np.real(fourier_solution_p1(A, FourierDatum(eta), xs))
    d4 = (u[:-4] - 4 * u[1:-3] + 6 * u[2:-2] - 4 * u[3:-1] + u[4:]) / h**4
    d2 = (u[1:-3] - 2 * u[2:-2] + u[3:-1]) / h**2
    resid = A.a_nn**2 * (d4 - 2 * k**2 * d2 + k**4 * u[2:-2])
    return float(np.max(np.abs(resid)))


def test_discrete_equation_residual_second_order():
    A, eta = random_block(3)
    r1 = _discrete_equation_residual(A, eta, 0.02)
    r2 = _discrete_equation_residual(A, eta, 0.01)
    assert 3.0 < r1 / r2 < 5.0


# ---------------------------------------------------------------------------
# the factored tridiagonal (influence-matrix) solver
# ---------------------------------------------------------------------------

def test_bvp_p1_identity_quick():
    A = MetricBlock.identity(2)
    grid = HalfSpaceGrid(1 / 128, 30.0)
    value = bvp_solve_p1(A, FourierDatum([1.0]), grid)
    assert value == pytest.approx(2.0, rel=1e-3)


def test_bvp_p1_covector_scaling():
    A = MetricBlock.identity(2)
    one = bvp_solve_p1(A, FourierDatum([1.0]), HalfSpaceGrid(1 / 128, 30.0))
    two = bvp_solve_p1(A, FourierDatum([2.0]), HalfSpaceGrid(1 / 256, 15.0))
    assert two == pytest.approx(2.0 * one, rel=1e-3)


def test_bvp_p2_identity_quick():
    A = MetricBlock.identity(2)
    grid = HalfSpaceGrid(1 / 256, 30.0)
    value = bvp_solve_p2(A, FourierDatum([1.0]), grid)
    assert value == pytest.approx(2.0, rel=1e-2)


def test_bvp_p2_doubled_covector():
    # target 2 * 4^(3/2) = 16 for |eta| = 2
    A = MetricBlock.identity(2)
    value = bvp_solve_p2(A, FourierDatum([2.0]), HalfSpaceGrid(1 / 512, 15.0))
    assert value == pytest.approx(16.0, rel=1e-2)


def test_bvp_adequacy_guard():
    A = MetricBlock.identity(2)
    with pytest.raises(AdequacyError):
        bvp_solve_p1(A, FourierDatum([1.0]), HalfSpaceGrid(1 / 16, 10.0))


def test_grid_validation():
    with pytest.raises(ValueError):
        HalfSpaceGrid(0.0, 1.0)
    with pytest.raises(ValueError):
        HalfSpaceGrid(0.3, 1.0)  # not an integer multiple
    grid = HalfSpaceGrid(0.25, 30.0)
    assert grid.n_steps == 120
    nodes = np.arange(grid.n_steps + 1) * grid.h
    assert nodes[0] == 0.0 and nodes[-1] == 30.0


def test_discrete_solution_matches_profile_at_second_order():
    A, eta = random_block(11)
    k = xi_norm(A, eta)
    datum = FourierDatum(eta)
    devs = []
    for factor in (64, 128):
        h = 1.0 / (factor * k)
        steps = max(8, math.ceil((30.0 / k) / h))
        grid = HalfSpaceGrid(h, steps * h)
        u = _solve_ode(k, grid, 1.0, 0.0, np.arange(grid.n_steps + 1))[0]
        exact = np.real(fourier_solution_p2(A, datum, np.arange(grid.n_steps + 1) * h))
        devs.append(float(np.max(np.abs(u - exact))))
    assert 3.0 < devs[0] / devs[1] < 5.0


def _pentadiagonal_residuals(u, k, grid, bc_value, bc_slope):
    # the discrete system row by row: five-point interior rows of (d^2 - k^2)^2
    # scaled by h^4, trace row, the two one-sided slope rows, u(L) = 0
    h, n = grid.h, grid.n_steps
    s = (k * h) ** 2
    interior = (u[:-4] + (-4 - 2 * s) * u[1:-3] + (6 + 4 * s + s * s) * u[2:-2]
                + (-4 - 2 * s) * u[3:-1] + u[4:])
    boundary = [u[0] - bc_value, -3 * u[0] + 4 * u[1] - u[2] - 2 * h * bc_slope,
                u[n - 2] - 4 * u[n - 1] + 3 * u[n], u[n]]
    return float(np.max(np.abs(interior))) / float(np.max(np.abs(u))), max(map(abs, boundary))


@pytest.mark.parametrize("seed", [4, 11])
@pytest.mark.parametrize("scaled", [64, 4096, 16384])
def test_solution_satisfies_the_pentadiagonal_system(seed, scaled):
    A, eta = random_block(seed)
    k = xi_norm(A, eta)
    h = 1.0 / (scaled * k)
    grid = HalfSpaceGrid(h, math.ceil(30.0 * scaled) * h)
    for bc_value, bc_slope in ((0.0, 1.0 / math.sqrt(A.a_nn)), (1.0, 0.0)):
        u = _solve_ode(k, grid, bc_value, bc_slope, np.arange(grid.n_steps + 1))[0]
        assert u.shape == (grid.n_steps + 1,)
        interior, boundary = _pentadiagonal_residuals(u, k, grid, bc_value, bc_slope)
        assert interior <= 1e-12 and boundary <= 1e-12


@pytest.mark.parametrize("block", ["identity", "seeded"])
def test_p1_error_falls_monotonically_to_h_65536(block):
    # a pentadiagonal LU with one long-double refinement step gave 0.45 at 1/16384
    A, eta = (MetricBlock.identity(2), np.array([1.0])) if block == "identity" else random_block(5)
    k = xi_norm(A, eta)
    target = 2.0 * math.sqrt(float(eta @ A.a_tan.matrix @ eta))
    errors = []
    for scaled in (2.0 ** p for p in range(9, 17)):
        h = 1.0 / (scaled * k)
        grid = HalfSpaceGrid(h, math.ceil(30.0 * scaled) * h)
        rel = abs(bvp_solve_p1(A, FourierDatum(eta), grid) - target) / target
        assert rel <= 32.0 / scaled**2
        errors.append(rel)
    assert all(a > b for a, b in zip(errors, errors[1:]))


@pytest.mark.parametrize("block", ["identity", "seeded"])
def test_p2_error_falls_monotonically_to_h_65536(block):
    # read from v: the h^-3 wall stencil on u gave 8.6e-4 at 1/11585 and 0.0625 at 1/65536
    A, eta = (MetricBlock.identity(2), np.array([1.0])) if block == "identity" else random_block(5)
    k = xi_norm(A, eta)
    target = 2.0 * float(eta @ A.a_tan.matrix @ eta) ** 1.5
    errors = []
    for scaled in (2.0 ** p for p in range(9, 17)):
        h = 1.0 / (scaled * k)
        grid = HalfSpaceGrid(h, math.ceil(30.0 * scaled) * h)
        rel = abs(bvp_solve_p2(A, FourierDatum(eta), grid) - target) / target
        assert rel <= 32.0 / scaled**2
        errors.append(rel)
    assert all(a > b for a, b in zip(errors, errors[1:]))


@pytest.mark.parametrize("bc_value, bc_slope", [(0.0, 0.7), (1.0, 0.0)])
def test_solve_at_some_nodes_equals_the_all_node_solve(bc_value, bc_slope):
    A, eta = random_block(4)
    k = xi_norm(A, eta)
    h = 1.0 / (1000.0 * k)
    grid = HalfSpaceGrid(h, 30000 * h)
    n = grid.n_steps
    u_all, v_all = _solve_ode(k, grid, bc_value, bc_slope, np.arange(n + 1))
    for nodes in ([1, 2, 3, 4], [n, 0, n // 2, n - 1]):
        u, v = _solve_ode(k, grid, bc_value, bc_slope, nodes)
        assert np.array_equal(u, u_all[nodes]) and np.array_equal(v, v_all[nodes])


@pytest.mark.parametrize("solver", [bvp_solve_p1, bvp_solve_p2])
@pytest.mark.parametrize("block", ["identity", "seeded"])
def test_symbols_do_not_depend_on_the_far_field_length(solver, block):
    # h |xi'| = 1/64 and L |xi'| = 30, 300, 3e4, and the 2^22 steps of the CLI cap
    A, eta = (MetricBlock.identity(2), np.array([1.0])) if block == "identity" else random_block(5)
    h = 1.0 / (64.0 * xi_norm(A, eta))
    with warnings.catch_warnings(), np.errstate(over="raise", divide="raise", invalid="raise"):
        warnings.simplefilter("error")
        values = [solver(A, FourierDatum(eta), HalfSpaceGrid(h, steps * h))
                  for steps in (64 * 30, 64 * 300, 64 * 30000, 2 ** 22)]
    assert values == pytest.approx([values[0]] * 4, rel=1e-15, abs=0.0)


def test_solve_memory_does_not_grow_with_the_grid():
    # 2^22 steps: a solve over every node would hold hundreds of MiB
    A = MetricBlock.identity(2)
    grid = HalfSpaceGrid(30.0 / 2**22, 30.0)
    bvp_solve_p1(A, FourierDatum([1.0]), grid)
    tracemalloc.start()
    try:
        value = bvp_solve_p1(A, FourierDatum([1.0]), grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == pytest.approx(2.0, rel=1e-9) and peak < 2**20


def test_solve_raises_on_non_finite_results():
    A = MetricBlock.identity(2)
    grid = HalfSpaceGrid(1 / 64, 30.0)
    with np.errstate(invalid="ignore"):
        with pytest.raises(SolverError, match="non-finite"):
            _solve_ode(1.0, grid, float("inf"), 0.0, np.arange(grid.n_steps + 1))
        with pytest.raises(SolverError):  # NaN passes the L * |xi'| guard
            _solve_ode(float("nan"), grid, 1.0, 0.0, np.arange(grid.n_steps + 1))


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def test_kernel_k2_half_plane_closed_form():
    A = MetricBlock.identity(2)
    for xp in np.linspace(-3.0, 3.0, 21):
        for xn in (1e-3, 0.2, 1.0, 4.0):
            expected = xn**2 / (math.pi * (xp**2 + xn**2))
            assert kernel_K(A, "K2", xp, xn) == pytest.approx(expected, abs=1e-12)
    assert kernel_K(A, "K2", 0.0, 1.0) == pytest.approx(1 / math.pi, rel=1e-14)
    assert kernel_K(A, "K2", 1.0, 1.0) == pytest.approx(1 / (2 * math.pi), rel=1e-14)


def test_kernel_k1_half_plane_closed_form():
    # inverse transform of exp(-|eta| y)(1 + |eta| y): 2 y^3 / (pi (x^2+y^2)^2)
    A = MetricBlock.identity(2)
    for xp in np.linspace(-2.0, 2.0, 9):
        for xn in (0.3, 1.0, 2.0):
            expected = 2 * xn**3 / (math.pi * (xp**2 + xn**2) ** 2)
            assert kernel_K(A, "K1", xp, xn) == pytest.approx(expected, abs=1e-12)


def test_kernel_k2_half_space_closed_form():
    # product of x_n with the half-space Poisson kernel x_n/(2 pi |x|^3)
    A = MetricBlock.identity(3)
    for xp in ([0.0, 0.0], [1.0, 0.0], [0.5, -1.2], [2.0, 1.0]):
        for xn in (0.3, 1.0, 2.0):
            r2 = xp[0] ** 2 + xp[1] ** 2 + xn**2
            expected = xn**2 / (2 * math.pi * r2**1.5)
            assert kernel_K(A, "K2", xp, xn, 512) == pytest.approx(expected, abs=1e-12)


def test_kernel_half_space_closed_forms_at_default_nodes():
    # 3 x_n^3 / (2 pi |x|^5) and x_n^2 / (2 pi |x|^3) with the default 256 circle nodes
    A = MetricBlock.identity(3)
    for xp in ([0.0, 0.0], [1.0, 0.0], [0.5, -1.2], [2.0, 1.0], [-1.5, 0.7]):
        for xn in (0.3, 0.7, 1.0, 2.0):
            r2 = xp[0] ** 2 + xp[1] ** 2 + xn**2
            k1 = 3 * xn**3 / (2 * math.pi * r2**2.5)
            k2 = xn**2 / (2 * math.pi * r2**1.5)
            assert kernel_K(A, "K1", xp, xn) == pytest.approx(k1, abs=1e-12)
            assert kernel_K(A, "K2", xp, xn) == pytest.approx(k2, abs=1e-12)


def test_kernel_symmetry_and_quadrature_stability():
    A = MetricBlock(np.array([[2.0]]), 1.5)
    assert kernel_K(A, "K2", 0.7, 0.9) == pytest.approx(
        kernel_K(A, "K2", -0.7, 0.9), rel=1e-14)
    A3 = MetricBlock(np.array([[2.0, 0.3], [0.3, 1.0]]), 0.8)
    coarse = kernel_K(A3, "K1", [0.4, 0.2], 1.1, 128)
    fine = kernel_K(A3, "K1", [0.4, 0.2], 1.1, 256)
    assert coarse == pytest.approx(fine, abs=1e-12)


def test_kernel_rejections():
    A = MetricBlock.identity(2)
    with pytest.raises(ValueError):
        kernel_K(A, "K3", 0.0, 1.0)
    with pytest.raises(ValueError):
        kernel_K(A, "K2", 0.0, 0.0)
    with pytest.raises(ValueError):
        kernel_K(MetricBlock.identity(4), "K2", [0.0, 0.0, 0.0], 1.0)
    with pytest.raises(ValueError):
        kernel_K(MetricBlock.identity(3), "K2", [0.0, 0.0], 1.0, quad_points=17)


@pytest.mark.parametrize("which, x, x_n", [
    ("K2", float("nan"), 1.0), ("K1", float("nan"), 1.0), ("K2", 0.0, float("inf"))])
def test_kernel_non_finite_value_is_a_solver_error(which, x, x_n):
    with np.errstate(invalid="ignore"), pytest.raises(SolverError, match="not finite"):
        kernel_K(MetricBlock.identity(2), which, x, x_n)


def _axis_kernel(A, which, x, x_n):
    # the n = 2 rule along a trailing direction axis of length 2, by the matmul x @ dirs.T,
    # as the kernels were evaluated before each direction got a plane of its own: x has
    # shape S + (1,), x_n is a float or broadcasts against S + (2,); the unchecked complex
    # value
    n = 2
    dirs, weight, q = _sphere_rule(A, None)
    xq = x_n * q
    r = 1.0 / (x @ dirs.T + 1j * xq)
    if which == "K2":
        integrand = x_n / math.sqrt(A.a_nn) * r ** (n - 1)
    else:
        integrand = r ** (n - 1) * (1.0 + (n - 1) * 1j * xq * r)
    prefactor = (-1.0) ** (n - 1) * math.factorial(n - 2) / (2.0j * math.pi) ** (n - 1)
    return prefactor * weight * integrand.sum(axis=-1)


def _spd_block(rng):
    return MetricBlock(np.array([[rng.uniform(0.1, 10.0)]]), float(rng.uniform(0.1, 10.0)))


_EDGE_OFFSETS = [0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300]
_HEIGHTS = np.geomspace(1e-3, 1e5, 9).tolist()


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("which", ["K1", "K2"])
def test_kernel_k_planes_equal_the_direction_axis(seed, which):
    # scalar n = 2 calls: bit for bit, and refused exactly where the old value was not
    # finite or not real
    rng = np.random.default_rng(seed)
    A = _spd_block(rng)
    offsets = _EDGE_OFFSETS + (rng.normal(size=12) * 10.0 ** rng.uniform(-3, 3, 12)).tolist()
    for xp in offsets:
        for xn in _HEIGHTS:
            ref = _axis_kernel(A, which, np.array([xp]), xn)
            if math.isfinite(ref.real) and math.isfinite(ref.imag) and abs(ref.imag) <= 1e-10:
                assert kernel_K(A, which, xp, xn).hex() == float(ref.real).hex(), (xp, xn)
            else:
                with pytest.raises(SolverError):
                    kernel_K(A, which, xp, xn)


@pytest.mark.parametrize("seed", range(4))
def test_solve_by_kernel_planes_equal_the_direction_axis(seed):
    # y[128] is 0.0, so points on the samples give offsets 0.0 and -0.0 (x' = -0.0); the
    # first 20, the first 40 and all 95 points span blocks of (points, samples) pairs on
    # either side of 8 192 and 16 384, where numpy starts to reuse temporaries of the old
    # and of the new layout in place
    rng = np.random.default_rng(seed)
    A = _spd_block(rng)
    y = np.linspace(-15.0, 15.0, 257)
    phi = np.exp(-((y - rng.uniform(-2.0, 2.0)) ** 2))
    h = np.exp(-((y - rng.uniform(-2.0, 2.0)) ** 2)) * rng.normal()
    xs = ([float(v) for v in rng.choice(y, 6)] + [-0.0] + _EDGE_OFFSETS
          + (rng.normal(size=6) * 5.0).tolist())
    pts = np.array([(xp, xn) for xp in xs for xn in _HEIGHTS[::2]])
    for count in (20, 40, len(pts)):
        expected = np.zeros(count)
        for which, data in (("K1", phi), ("K2", h)):
            offsets = (pts[:count, 0, None] - y)[..., None]
            expected += _axis_kernel(A, which, offsets, pts[:count, 1, None, None]).real @ data
        expected *= y[1] - y[0]
        assert solve_by_kernel(A, y, phi, h, pts[:count]).tobytes() == expected.tobytes(), count


def _k2_bilaplacian_residual(h):
    # max over a fixed interior box so the h-ladder compares like with like
    A = MetricBlock.identity(2)
    xs = np.arange(-0.5, 0.5 + h / 2, h)
    ys = np.arange(0.5, 1.5 + h / 2, h)
    grid = np.array([[kernel_K(A, "K2", x, y) for y in ys] for x in xs])
    lap = (np.roll(grid, 1, 0) + np.roll(grid, -1, 0) + np.roll(grid, 1, 1)
           + np.roll(grid, -1, 1) - 4 * grid) / h**2
    bilap = (np.roll(lap, 1, 0) + np.roll(lap, -1, 0) + np.roll(lap, 1, 1)
             + np.roll(lap, -1, 1) - 4 * lap) / h**2
    box = np.ix_(np.abs(xs) <= 0.3, np.abs(ys - 1.0) <= 0.3)
    return float(np.max(np.abs(bilap[box])))


def test_kernel_k2_is_discretely_biharmonic():
    r1 = _k2_bilaplacian_residual(0.05)
    r2 = _k2_bilaplacian_residual(0.025)
    assert 3.0 < r1 / r2 < 5.0


# ---------------------------------------------------------------------------
# boundary-data solves
# ---------------------------------------------------------------------------

def test_solve_by_kernel_zero_data():
    A = MetricBlock.identity(2)
    y = np.linspace(-6, 6, 32)
    zero = np.zeros_like(y)
    out = solve_by_kernel(A, y, zero, zero, [(0.0, 1.0), (1.0, 2.0)])
    assert np.all(out == 0.0)


def test_solve_by_kernel_linearity():
    A = MetricBlock.identity(2)
    y = np.linspace(-8, 8, 48)
    h1 = np.exp(-(y**2))
    h2 = np.exp(-((y - 1.0) ** 2))
    pts = [(0.0, 1.0), (0.5, 1.0), (-1.0, 2.0)]
    none = np.zeros_like(y)
    out12 = solve_by_kernel(A, y, none, h1 + h2, pts)
    out1 = solve_by_kernel(A, y, none, h1, pts)
    out2 = solve_by_kernel(A, y, none, h2, pts)
    assert np.allclose(out12, out1 + out2, rtol=0.0, atol=1e-13)


def test_solve_by_kernel_vs_fourier_gaussian():
    A = MetricBlock.identity(2)
    y = np.linspace(-12, 12, 64)
    data = np.exp(-(y**2))
    zero = np.zeros_like(y)
    pts = [(float(x), 1.0) for x in y]
    via_kernel = solve_by_kernel(A, y, zero, data, pts)
    via_fourier = fourier_synthesis(A, y, zero, data, pts)
    assert float(np.max(np.abs(via_kernel - via_fourier))) < 1e-4
    via_kernel_p = solve_by_kernel(A, y, data, zero, pts)
    via_fourier_p = fourier_synthesis(A, y, data, zero, pts)
    assert float(np.max(np.abs(via_kernel_p - via_fourier_p))) < 1e-4


def test_kernel_fourier_gap_shrinks_under_synthesis_refinement():
    A = MetricBlock.identity(2)
    y = np.linspace(-12, 12, 64)
    data = np.exp(-(y**2))
    zero = np.zeros_like(y)
    pts = [(float(x), 1.0) for x in np.linspace(-3, 3, 13)]
    via_kernel = solve_by_kernel(A, y, zero, data, pts)
    gaps = []
    for eta_points in (513, 2049, 8193):
        via_fourier = fourier_synthesis(A, y, zero, data, pts, eta_points=eta_points)
        gaps.append(float(np.max(np.abs(via_kernel - via_fourier))))
    assert gaps[0] > gaps[1] > gaps[2]


def test_solve_by_kernel_anisotropic_block():
    A = MetricBlock(np.array([[2.2]]), 1.4)
    y = np.linspace(-14, 14, 96)
    data = np.exp(-(y**2))
    zero = np.zeros_like(y)
    pts = [(float(x), 1.3) for x in np.linspace(-3, 3, 13)]
    via_kernel = solve_by_kernel(A, y, zero, data, pts)
    via_fourier = fourier_synthesis(A, y, zero, data, pts)
    assert float(np.max(np.abs(via_kernel - via_fourier))) < 1e-4


def test_solve_by_kernel_rejections():
    A = MetricBlock.identity(2)
    y = np.linspace(-6, 6, 32)
    ones = np.ones_like(y)  # nonzero at the window edge
    with pytest.raises(ValueError):
        solve_by_kernel(A, y, ones, np.zeros_like(y), [(0.0, 1.0)])
    gauss = np.exp(-(y**2))
    with pytest.raises(ValueError):
        solve_by_kernel(A, y, gauss, None, [(0.0, 1e-5)])  # below the singularity guard
    with pytest.raises(ValueError):
        solve_by_kernel(A, np.geomspace(1, 10, 32), gauss, None, [(0.0, 1.0)])
    with pytest.raises(ValueError):
        solve_by_kernel(MetricBlock.identity(3), y, gauss, None, [(0.0, 1.0)])


@pytest.mark.parametrize("eta_points", [1, 0])
def test_fourier_synthesis_rejects_bad_frequency_grids(eta_points):
    y = np.linspace(-6, 6, 32)
    with pytest.raises(ValueError, match="eta_points"):
        fourier_synthesis(MetricBlock.identity(2), y, None, np.exp(-(y**2)), [(0.0, 1.0)],
                          eta_points=eta_points)


@pytest.mark.parametrize("eta_points", [8193.0, 8193.5])
def test_fourier_synthesis_refuses_a_float_node_count(eta_points):
    y = np.linspace(-6, 6, 32)
    with pytest.raises(TypeError):
        fourier_synthesis(MetricBlock.identity(2), y, None, np.exp(-(y**2)), [(0.0, 1.0)],
                          eta_points=eta_points)


@pytest.mark.parametrize("use_phi, use_h", [(True, False), (False, True), (True, True)])
def test_solve_by_kernel_equals_kernel_double_loop(use_phi, use_h):
    # the array route against the defining sum over (point, sample) pairs
    A = MetricBlock(np.array([[2.2]]), 1.4)
    y = np.linspace(-8, 8, 48)
    phi = np.exp(-((y - 0.5) ** 2)) if use_phi else None
    h = np.exp(-((y + 1.0) ** 2)) * np.cos(y) if use_h else None
    pts = [(-1.5, 0.4), (0.0, 1.0), (0.7, 2.5), (3.0, 0.05)]
    dy = y[1] - y[0]
    expected = []
    for xp, xn in pts:
        acc = 0.0
        for j, yj in enumerate(y):
            if use_phi:
                acc += kernel_K(A, "K1", xp - yj, xn) * phi[j]
            if use_h:
                acc += kernel_K(A, "K2", xp - yj, xn) * h[j]
        expected.append(acc * dy)
    got = solve_by_kernel(A, y, phi, h, pts)
    assert np.allclose(got, expected, rtol=0.0, atol=1e-13)


def test_solve_by_kernel_blocks_agree_with_single_points():
    # 300 points x 256 samples spans two evaluation blocks
    A = MetricBlock(np.array([[1.3]]), 0.9)
    y = np.linspace(-10, 10, 256)
    data = np.exp(-(y**2))
    pts = [(float(x), 0.5 + 0.01 * i) for i, x in enumerate(np.linspace(-4, 4, 300))]
    together = solve_by_kernel(A, y, data, data, pts)
    alone = [solve_by_kernel(A, y, data, data, [p])[0] for p in pts]
    assert np.allclose(together, alone, rtol=0.0, atol=1e-15)


def _half_grid(eta_points, eta_max=40.0):
    # the nodes eta >= 0 of np.linspace(-eta_max, eta_max, eta_points)
    deta = 2.0 * eta_max / (eta_points - 1)
    return (np.arange((eta_points + 1) // 2) + 0.5 * (1 - eta_points % 2)) * deta


@pytest.mark.parametrize("eta_points, half", [
    (513, False), (8193, False), (513, True), (2048, True), (8193, True)],
    ids=["513", "8193", "half-513", "half-2048", "half-8193"])
def test_chirp_z_equals_direct_transform(eta_points, half):
    # off-centre sample grid, two stacked data rows; the full symmetric
    # frequency grid or its nonnegative half
    y = np.linspace(-3.0, 9.0, 96)
    data = np.stack([np.exp(-((y - 2.0) ** 2)), np.exp(-((y - 4.0) ** 2)) * np.cos(3.0 * y)])
    etas = _half_grid(eta_points) if half else np.linspace(-40.0, 40.0, eta_points)
    direct = data @ np.exp(-1j * np.outer(etas, y)).T
    tables = _chirp_z_tables(y.size, y[[0, (y.size - 1) // 2, -1]], etas)
    assert np.max(np.abs(_chirp_z(data, tables) - direct)) < 1e-12


def _full_grid_synthesis(A, y, phi, h, points, eta_max, eta_points):
    # the defining trapezoid sum over the whole symmetric grid, one point at a
    # time; the step is 2 eta_max / (eta_points - 1), since etas[1] - etas[0]
    # carries the rounding of -eta_max + deta (a relative 7e-13 at 8192 nodes)
    etas = np.linspace(-eta_max, eta_max, eta_points)
    w = np.full(eta_points, 2.0 * eta_max / (eta_points - 1))
    w[0] = w[-1] = 0.5 * w[0]
    dy = y[1] - y[0]
    zero = np.zeros_like(y)
    transform = dy * np.exp(-1j * np.outer(etas, y))
    phi_hat = transform @ (zero if phi is None else phi)
    h_hat = transform @ (zero if h is None else h)
    rate = math.sqrt(A.a_tan.matrix[0, 0] / A.a_nn) * np.abs(etas)
    out = []
    for xp, xn in points:
        decay = np.exp(-rate * xn)
        profile = h_hat * xn / math.sqrt(A.a_nn) * decay + phi_hat * decay * (1.0 + rate * xn)
        out.append((w * profile * np.exp(1j * etas * xp)).sum().real / (2.0 * math.pi))
    return np.array(out)


@pytest.mark.parametrize("eta_points", [513, 2048, 8193])
@pytest.mark.parametrize("use_phi, use_h", [(True, False), (False, True), (True, True)])
def test_fourier_synthesis_equals_full_grid_sum(eta_points, use_phi, use_h):
    # 700 points span at least two evaluation blocks at every grid size, from
    # near the boundary to far above it, across the whole unaliased window
    # around the off-centre window middle 2
    A = MetricBlock(np.array([[2.2]]), 1.4)
    y = np.linspace(-10.0, 14.0, 96)
    phi = np.exp(-((y - 2.5) ** 2)) if use_phi else None
    h = np.exp(-((y - 1.0) ** 2)) * np.cos(y) if use_h else None
    reach = 0.99 * math.pi * (eta_points - 1) / 80.0
    rng = np.random.default_rng(eta_points)
    pts = np.column_stack([2.0 + rng.uniform(-reach, reach, 700), rng.uniform(0.01, 3.0, 700)])
    got = fourier_synthesis(A, y, phi, h, pts, eta_points=eta_points)
    expected = _full_grid_synthesis(A, y, phi, h, pts, 40.0, eta_points)
    assert np.max(np.abs(got - expected)) < 1e-13


def test_fourier_synthesis_of_two_frequency_nodes():
    # eta_points = 2 leaves the single half-grid node eta_max; a narrow pulse
    # keeps its transform there well above rounding, and heights up to 1 / deta = 1/80
    # keep the points resolved
    A = MetricBlock.identity(2)
    y = np.linspace(-2.0, 2.0, 401)
    data = np.exp(-((y / 0.05) ** 2))
    pts = [(0.0, 0.005), (0.02, 0.0125)]
    got = fourier_synthesis(A, y, data, data, pts, eta_points=2)
    expected = _full_grid_synthesis(A, y, data, data, pts, 40.0, 2)
    assert np.all(np.abs(got) > 1e-3)
    assert np.allclose(got, expected, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("xp", [643.4, -643.4, 600.0, 321.7, 1e300])
def test_fourier_synthesis_refuses_aliased_points(xp):
    # the trapezoid sum has period 2 pi / deta = 643.4 in x' at the defaults:
    # at x' = 643.4 it would return its value at x' = 0, 0.4276, where the
    # kernel route gives 1.4e-6
    A = MetricBlock.identity(2)
    y = np.linspace(-15.0, 15.0, 128)
    data = np.exp(-(y**2))
    with pytest.raises(ValueError, match=r"pi / deta = 321\.699"):
        fourier_synthesis(A, y, None, data, [(0.0, 1.0), (xp, 1.0)])


def test_fourier_alias_bound_is_measured_from_the_window_middle():
    A = MetricBlock.identity(2)
    y = np.linspace(-15.0, 15.0, 128)
    data = np.exp(-(y**2))
    at_middle = solve_by_kernel(A, y, None, data, [(0.0, 1.0)])[0]
    for shift in (600.0, 643.4, -643.4):
        got = fourier_synthesis(A, y + shift, None, data, [(shift, 1.0)])[0]
        assert abs(got - at_middle) < 1e-5
    edge = [(321.6, 1.0), (-321.6, 1.0)]
    assert np.allclose(fourier_synthesis(A, y, None, data, edge),
                       solve_by_kernel(A, y, None, data, edge), rtol=0.0, atol=1e-5)
    with pytest.raises(ValueError, match=r"pi / deta = 20\.1062"):
        fourier_synthesis(A, y, None, data, [(20.2, 1.0)], eta_points=513)


@pytest.mark.parametrize("point", [(0.0, math.nan), (math.nan, 1.0), (math.inf, 1.0),
                                   (-math.inf, 1.0), (0.0, math.inf)])
@pytest.mark.parametrize("route", [solve_by_kernel, fourier_synthesis])
def test_boundary_solves_refuse_non_finite_points(route, point):
    A = MetricBlock.identity(2)
    y = np.linspace(-6.0, 6.0, 32)
    data = np.exp(-(y**2))
    with pytest.raises(ValueError, match="evaluation points must be finite"):
        route(A, y, data, data, [(0.0, 1.0), point])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("datum", ["phi", "h"])
@pytest.mark.parametrize("route", [solve_by_kernel, fourier_synthesis])
def test_boundary_solves_refuse_non_finite_data(route, datum, bad):
    # a NaN sample made both routes return NaN; an infinite one gave inf from the kernel
    # route and NaN from the Fourier route
    y = np.linspace(-6.0, 6.0, 32)
    data = {"phi": np.exp(-(y**2)), "h": np.exp(-(y**2))}
    data[datum][10] = bad
    with pytest.raises(ValueError, match=f"^{datum} must be finite"):
        route(MetricBlock.identity(2), y, data["phi"], data["h"], [(0.0, 1.0)])


def test_fourier_synthesis_refuses_heights_its_grid_cannot_resolve():
    # deta * r * x_n > 1 leaves fewer than one node per decay length of exp(-eta r x_n):
    # here deta = 80/8192 and r = 2, so the bound is x_n = 51.2
    A = MetricBlock(np.array([[2.0]]), 0.5)
    y = np.linspace(-6.0, 6.0, 32)
    data = np.exp(-(y**2))
    assert np.isfinite(fourier_synthesis(A, y, None, data, [(0.0, 1.0), (0.0, 51.1)])).all()
    for xn in (51.3, 1e308):
        with pytest.raises(AdequacyError, match="cannot resolve x_n"):
            fourier_synthesis(A, y, None, data, [(0.0, 1.0), (0.0, xn)])


def test_fourier_synthesis_memory_stays_linear():
    # a samples x eta_points or points x eta_points array would be 16.8 MB here
    A = MetricBlock.identity(2)
    y = np.linspace(-15, 15, 128)
    data = np.exp(-(y**2))
    pts = [(float(x), 1.0) for x in y]
    fourier_synthesis(A, y, None, data, pts)  # warm the FFT caches
    tracemalloc.start()
    try:
        fourier_synthesis(A, y, None, data, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


@pytest.mark.parametrize("grid", [np.full(32, 3.0), np.linspace(6.0, -6.0, 32)],
                         ids=["constant", "descending"])
@pytest.mark.parametrize("route", [solve_by_kernel, fourier_synthesis])
def test_boundary_solves_refuse_degenerate_grids(route, grid):
    # a zero step passed the uniformity check and gave 0.0, a negative one the
    # negated solution
    data = np.exp(-(grid**2))
    with pytest.raises(ValueError, match="uniform and increasing"):
        route(MetricBlock.identity(2), grid, None, data, [(0.0, 1.0)])


def _accepts_grid(y):
    try:
        _check_boundary_data(y, None, None, [(0.0, 1.0)])
    except ValueError as exc:
        assert "uniform and increasing" in str(exc)
        return False
    return True


_OVERFLOWING = np.array([-math.inf, -1.7e308, 1.7e308, math.inf])  # every step is +inf


@settings(max_examples=500, deadline=None)
@given(size=st.integers(4, 9), start=st.floats(-1e308, 1e308), step=st.floats(-1e308, 1e308),
       jitter=st.lists(st.floats(-3e-12, 3e-12), min_size=9, max_size=9),
       special=st.lists(st.tuples(st.integers(0, 8), st.sampled_from(
           [math.nan, math.inf, -math.inf, 1.7e308, -1.7e308])), max_size=3))
@example(size=4, start=0.0, step=1.0, jitter=[0.0, 0.0, 0.0, 1e-12] + [0.0] * 5, special=[])
@example(size=4, start=0.0, step=1.0, jitter=[0.0, 0.0, 0.0, 9.9e-13] + [0.0] * 5, special=[])
@example(size=4, start=-1.7e308, step=1.0, jitter=[0.0] * 9,
         special=list(enumerate(_OVERFLOWING.tolist())))
def test_grid_check_is_allclose_on_the_steps(size, start, step, jitter, special):
    # relative perturbations of the steps around the 1e-12 tolerance, NaN and +-inf
    # entries, decreasing grids and steps that overflow
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        y = start + step * (np.arange(size) + np.array(jitter[:size]))
        for i, value in special:
            y[i % size] = value
        dy = np.diff(y)
        same = dy[0] > 0 and np.allclose(dy, dy[0], rtol=1e-12, atol=0.0)
        # the one grid allclose took: every step +inf, whose routes gave NaN
        expected = same and dy[0] < math.inf
        assert _accepts_grid(y) == expected


def test_grid_check_at_the_edges_of_allclose():
    # subnormal steps whose last one is off by exactly 1e-12 dy[0] (one unit), then by two
    edge, past = (5e-324 * np.array([0.0, 1e12, 2e12, 3e12 + units]) for units in (1, 2))
    assert _accepts_grid(edge) and not _accepts_grid(past)
    with np.errstate(all="ignore"):
        assert np.allclose(np.diff(_OVERFLOWING), math.inf, rtol=1e-12, atol=0.0)
        assert not _accepts_grid(_OVERFLOWING)


# ---------------------------------------------------------------------------
# the fixed tables of the kernel and Fourier routes, built once
# ---------------------------------------------------------------------------

# the documented maxsize of each table
_TABLES = {_sphere_rule: 16, _bluestein: 8, _half_spectrum: 8, _fourier_tables: 8}


def _cold(route):
    for table in _TABLES:
        table.cache_clear()
    return np.asarray(route()).tobytes()


_Y = np.linspace(-15.0, 15.0, 128)
_DATA = np.exp(-(_Y**2))
_PTS = [(0.4, 0.8), (-1.0, 1.5), (2.0, 0.3)]
# blocks key the sphere rule by identity, so each route keeps its block
_A2, _A3 = MetricBlock(np.array([[1.7]]), 1.3), MetricBlock(np.array([[2.0, 0.5], [0.5, 1.0]]), 1.3)


@pytest.mark.parametrize("route", [
    lambda: kernel_K(_A2, "K1", [0.3], 0.7),
    lambda: kernel_K(_A3, "K2", [0.3, -0.2], 0.7),
    lambda: solve_by_kernel(_A2, _Y, _DATA, _DATA, _PTS),
    lambda: fourier_synthesis(_A2, _Y, _DATA, _DATA, _PTS),
], ids=["kernel_K n=2", "kernel_K n=3", "solve_by_kernel", "fourier_synthesis"])
def test_warm_tables_give_the_cold_values(route):
    cold = _cold(route)
    hits = sum(table.cache_info().hits for table in _TABLES)
    assert np.asarray(route()).tobytes() == cold
    assert sum(table.cache_info().hits for table in _TABLES) > hits  # the second call was warm


def test_tables_of_different_blocks_and_grids_stay_apart():
    blocks = [MetricBlock(np.array([[1.7]]), 1.3), MetricBlock(np.array([[0.6]]), 2.2)]
    blocks3 = [MetricBlock(np.eye(2), 1.0), MetricBlock(np.array([[2.0, 0.5], [0.5, 1.0]]), 0.8)]
    grids = [(_Y, 8193), (np.linspace(-12.0, 12.0, 96), 2049)]

    def routes(i, j):
        (A, A3), (y, eta_points) = (blocks[i], blocks3[i]), grids[j]
        data = np.exp(-(y**2))
        return [lambda: solve_by_kernel(A, y, data, None, _PTS),
                lambda: fourier_synthesis(A, y, None, data, _PTS, eta_points),
                lambda: kernel_K(A3, "K1", [0.3, -0.2], 0.7, quad_points=64 * (j + 1))]

    cases = [(0, 0), (1, 1), (0, 1), (1, 0)]
    cold = [[_cold(route) for route in routes(*case)] for case in cases]
    for _ in range(2):  # alternately, with every table warm from the first round on
        assert [[np.asarray(route()).tobytes() for route in routes(*case)]
                for case in cases] == cold


def test_fourier_tables_keep_signed_zeros_apart():
    # -0.0 == 0.0, so a key of floats would hand one grid the other's table
    plus, minus = (np.array([-15.0, zero, 15.0]).tobytes() for zero in (0.0, -0.0))
    assert _fourier_tables(255, plus, 513) is not _fourier_tables(255, minus, 513)


def test_tables_are_read_only_with_the_documented_bound():
    A3 = MetricBlock(np.eye(2), 1.0)
    tables = [*_sphere_rule(A3, 256), *_sphere_rule(MetricBlock.identity(2), None),
              *_bluestein(128, 4160, 0.001), *_half_spectrum(8193),
              *_fourier_tables(128, _Y[[0, 63, -1]].tobytes(), 8193)]
    arrays = [t for t in tables if isinstance(t, np.ndarray)]
    assert len(arrays) == 11 and not any(a.flags.writeable for a in arrays)
    with pytest.raises(ValueError, match="read-only"):
        arrays[0][0] = 0.0
    assert {table: table.cache_info().maxsize for table in _TABLES} == _TABLES


def test_tables_past_the_size_limit_are_built_per_call():
    A3, ends = MetricBlock(np.eye(2), 1.0), np.array([-15.0, 0.0, 15.0]).tobytes()
    limits = [(_sphere_rule, (A3, 4096), (A3, 4097)),
              (_bluestein, (16000, 384, 0.001), (16000, 385, 0.001)),
              (_half_spectrum, (16385,), (16387,)),
              (_fourier_tables, (256, ends, 16128), (256, ends, 16129))]
    for table, largest, past in limits:
        table.cache_clear()
        assert table(*largest) is table(*largest)  # cached
        first = table(*past)
        again = table(*past)
        assert again is not first and table.cache_info().currsize == 1  # built per call
        arrays = [t for t in first if isinstance(t, np.ndarray)]
        assert arrays and not any(a.flags.writeable for a in arrays)
        assert [np.asarray(t).tobytes() for t in again] == [np.asarray(t).tobytes() for t in first]


# float.hex of n = 3 kernel_K at 36 points and of both n = 2 routes on 256 samples with
# phi and h nonzero, captured before the kernel routes kept their grid-only work
_PINNED_POINTS = [((-2.0 + 0.8 * (i % 6), -2.0 + 0.8 * (i // 6)), 0.3 + 0.05 * i)
                  for i in range(36)]
_K3_HEX = {
    ("identity", "K1"): """
1.22778b6a9deafp-14 1.2626a9ded85cap-12 1.9d07c1a02dfcbp-11 1.1eeece4a88317p-10
1.952c532400663p-11 1.a361245f530b4p-12 1.4db4f1cebf712p-10 1.b190aab809d34p-8
1.a8e726b683ab7p-6 1.dfe78d8b86c4dp-6 1.58976fd297fb8p-7 1.97ad341a77a7fp-9
1.9e3eddb916836p-8 1.5281a5cc631e8p-5 1.e877ebcb71d2bp-3 1.d509df17fae9cp-3
1.89515a6a5a26bp-5 1.52183812632bep-7 1.6c4e0cc9ad2cfp-7 1.ad85892fb4351p-5
1.7711ae9863e22p-3 1.661279b45cdc9p-3 1.c0d6bef34928ap-5 1.e5fd0d78b83c1p-7
1.41febe3396bc4p-7 1.c63604a81f420p-6 1.c5e5cd90b4170p-5 1.c451e26a94292p-5
1.e0954a911aff4p-6 1.8dc6b95280048p-7 1.aed8d3c079108p-8 1.a7a8910404263p-7
1.3ed66f5d88bf4p-6 1.4438a74ac7f99p-6 1.c92467cf4dc96p-7 1.03234a9fdd4bdp-7
""".split(),
    ("identity", "K2"): """
1.465ea213ee1bcp-11 1.859334c919580p-10 1.73ba2e435c988p-9 1.cf9bec20b86cep-9
1.803d3c125acc0p-9 1.07c7b7e543febp-9 1.0cd1c2ca1a29dp-8 1.6f240567a87bdp-7
1.a6e12c9fb3ce1p-6 1.cd3dd64341870p-6 1.f966a401abb45p-7 1.ec9bf44aa5e95p-8
1.7d4264b818fcap-7 1.293b7ef1ab77fp-5 1.adda2ba8ca905p-4 1.a79fabd43c6c1p-4
1.4eea8284738dap-5 1.0ca361fa93403p-6 1.1b592663f8785p-6 1.6a3adaf27866cp-5
1.829c127d9247ap-4 1.7ad964f43d96cp-4 1.7c71c18c62953p-5 1.5dd3f286587acp-6
1.13207d89f249fp-6 1.01ff2a2569d74p-5 1.8960c339249c9p-5 1.8afaf6751dd2cp-5
1.0fdbfb3f82f95p-5 1.421aa41601629p-6 1.c06666cef3914p-7 1.52424359fb3dap-6
1.b2a0444590a3bp-6 1.b94d1c9790304p-6 1.679e587d88491p-6 1.01156e6756b3fp-6
""".split(),
    ("spd", "K1"): """
1.2937f4515c1e7p-13 1.3e4caf7da4b8fp-12 1.a326af5405d44p-12 1.6bf0c0707f250p-12
1.f3d78ec6b8cebp-13 1.3bab8da1db469p-13 1.fc9254df94a21p-9 1.91eb2db4af6a4p-7
1.2a0fdb909d089p-6 1.6870eea1a0476p-7 1.256587cd7370bp-8 1.d7dc8a0c16636p-10
1.022bb600ade35p-6 1.605eaba1337cfp-4 1.19e9a7990d194p-2 1.63ab18a6105b5p-3
1.6d5b41b1b1771p-5 1.8913bfe5bf1e6p-7 1.a6022037b8c37p-7 1.917921705caefp-5
1.31f603de3c60bp-3 1.841345f445dbdp-3 1.6ccd61f93d33bp-4 1.e4e3b55d22bb6p-6
1.9a7fe9de8a8b9p-8 1.f030f0210a125p-7 1.0272284d4f2f1p-5 1.77809762a6ab8p-5
1.4ce4d54b14e37p-5 1.8f151fc7762f1p-6 1.93175f6985a35p-9 1.7522c15ab9fe2p-8
1.384d0aeafe6e2p-7 1.b3bdb7fadae9cp-7 1.db439ad4caaaep-7 1.94068da50e6cap-7
""".split(),
    ("spd", "K2"): """
1.b4d173164cb03p-11 1.63c0c3bb5f296p-10 1.aefd91a7234bdp-10 1.9568daef86352p-10
1.4a73d4856ee03p-10 1.ff476ccbc9441p-11 1.c8f33e8cee79cp-8 1.cf202f929d486p-7
1.29bb46c5b5cc8p-6 1.be6c310a510d2p-7 1.07b29de74dcabp-7 1.350441012c161p-8
1.1f3836b6c21e0p-6 1.91f30485b0a1dp-5 1.980a17b3ddab8p-4 1.388594ce876edp-4
1.1712b5a1ae13cp-5 1.001c9e885304fp-6 1.0d8ba9bdfb480p-6 1.2ef5c09606d2cp-5
1.29fdc867f4687p-4 1.5a488d1c39b0bp-4 1.bb7e638023c8cp-5 1.cd30d538dca32p-6
1.6dc7f6661a8edp-7 1.38a6855479cb1p-6 1.e8bf87c6af45bp-6 1.33a970f0d7e35p-5
1.1fed5906ad1dap-5 1.aa0e4e0547f8dp-6 1.ef22a2af06d9fp-8 1.6838bd94c2e0ap-7
1.ed51b7f9d0346p-7 1.2ecb4817e2fe3p-6 1.409ae312fcf29p-6 1.2447bce9932f1p-6
""".split(),
}
_ROUTE_HEX = {
    solve_by_kernel: """
1.423e4741ad937p-6 1.7313c17b3f33ap-4 1.29ec8bb5e1ea4p-2 1.31938a9a49b78p-1
1.6a7a2605d24c2p-1 1.0bcb8b9d4e4b9p-1 1.374da1d2bd1ebp-2 1.67b347344317ap-3
""".split(),
    fourier_synthesis: """
1.4240a2db1895dp-6 1.7314e93db06c8p-4 1.29ed05efd04f8p-2 1.3193e5e528491p-1
1.6a7aa587fee40p-1 1.0bcc35606820dp-1 1.374f55ee9b4f7p-2 1.67b788c058d02p-3
""".split(),
}


@pytest.mark.parametrize("block, which", list(_K3_HEX))
def test_kernel_n3_is_bit_exact(block, which):
    A = (MetricBlock.identity(3) if block == "identity"
         else MetricBlock(np.array([[2.0, 0.5], [0.5, 1.0]]), 1.3))
    got = [kernel_K(A, which, list(xp), xn).hex() for xp, xn in _PINNED_POINTS]
    assert got == ["0x" + h for h in _K3_HEX[block, which]]


@pytest.mark.parametrize("route", list(_ROUTE_HEX), ids=lambda route: route.__name__)
def test_routes_on_256_samples_are_bit_exact(route):
    y = np.linspace(-15.0, 15.0, 256)
    phi, h = np.exp(-((y - 0.5) ** 2)), 0.5 * np.exp(-((y + 0.7) ** 2))
    pts = [(-3.0 + 6.0 * i / 7, 0.5 + 0.2 * i) for i in range(8)]
    got = route(MetricBlock(np.array([[1.7]]), 1.3), y, phi, h, pts)
    assert [float(v).hex() for v in got] == ["0x" + h for h in _ROUTE_HEX[route]]
