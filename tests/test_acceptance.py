"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as the
criteria execute; every criterion finishes in well under a minute.
"""

import functools
import math
from fractions import Fraction

import numpy as np
import pytest

import bisteklov as bs
from bisteklov import ProblemKind

P1 = ProblemKind.NEUMANN_TRACE
P2 = ProblemKind.DIRICHLET_TRACE


def criterion(num, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:02d}: FAIL - {title}")
                raise
            print(f"criterion {num:02d}: PASS - {title}")
        return wrapper
    return decorate


def random_block(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 3))
    m = rng.normal(size=(dim, dim))
    a_tan = m @ m.T + dim * np.eye(dim)
    a_nn = float(rng.uniform(0.5, 3.0))
    eta = rng.normal(size=dim)
    return bs.MetricBlock(a_tan, a_nn), eta


def ladder(solver, block, eta, base_factor):
    k = bs.xi_norm(block, eta)
    datum = bs.FourierDatum(eta)
    errors = []
    metric = bs.BoundaryMetric.constant(block.a_tan)
    target = bs.steklov_symbol(P1 if solver is bs.bvp_solve_p1 else P2, metric)(None, eta)
    for level in (8, 4, 2, 1):
        h = level / (base_factor * k)
        steps = max(8, math.ceil((30.0 / k) / h))
        grid = bs.HalfSpaceGrid(h, steps * h)
        recovered = solver(block, datum, grid)
        errors.append(abs(recovered - target) / abs(target))
    return errors


@criterion(1, "exact cumulative harmonic dimension, three closed forms agree")
def test_criterion_01_exact_ball_counting():
    for n in range(2, 7):
        running = 0
        for m in range(0, 201):
            running += bs.harmonic_dim(n, m)
            two_binomials = math.comb(n + m - 1, n - 1) + math.comb(n + m - 2, n - 1)
            product_form = (2 * m + n - 1) * math.factorial(m + n - 2) \
                // (math.factorial(n - 1) * math.factorial(m))
            assert running == two_binomials == product_form
            assert bs.ball_count_closed(n, m) == running


@criterion(2, "disk leading constant is 1; count lags the eigenvalue by exactly 1")
def test_criterion_02_disk_constant_and_exact_count():
    assert abs(bs.weyl_leading(P1, 2, 2 * math.pi) - 1.0) <= 1e-12
    for m in range(0, 10_001):
        assert bs.ball_count_closed(2, m) - (2 + 2 * m) == -1
    # the counting route agrees with the closed form where both are evaluated
    spectrum = bs.ball_spectrum_p1(2, 500)
    for m in (0, 1, 7, 100, 499):
        assert bs.count_upto(spectrum, 2 + 2 * m) == bs.ball_count_closed(2, m)


@criterion(3, "3-ball scaled residual is exactly -1/2 + 1/(4 tau); fit says sharp")
def test_criterion_03_sharpness_p1():
    for m in range(0, 2001):
        lam = 3 + 2 * m
        count = bs.ball_count_closed(3, m)
        scaled = (count - Fraction(lam * lam, 4)) / lam
        assert scaled == Fraction(-1, 2) + Fraction(1, 4 * lam)

    model = bs.WeylModel(P1, 3, 4 * math.pi)
    samples, running = [], 0
    for m in range(0, 2001):
        running += bs.harmonic_dim(3, m)
        if m % 20 == 0 or m == 2000:
            samples.append((float(3 + 2 * m), running))
    report = bs.remainder_fit(bs.CountingSeries(tuple(samples)), model)
    lam_max = 3 + 2 * 2000
    assert lam_max >= 4000
    assert abs(report.second_coeff_estimate + 0.5) <= (1.0 + 1e-12) / (4 * lam_max)
    assert report.sharp_verdict


@criterion(4, "disk flux eigenvalues: zero residual, cube equals 2 m^2 (m+1)")
def test_criterion_04_radial_verification():
    for m in range(1, 201):
        _, mu_cubed, residual = bs.radial_verify_p2(m)
        assert residual == 0
        assert mu_cubed == 2 * m * m * (m + 1)


@criterion(5, "disk flux count minus cbrt(4) tau settles near 1/3; fit says sharp")
def test_criterion_05_sharpness_p2():
    model = bs.WeylModel(P2, 2, 2 * math.pi)
    c_lead = model.c_lead
    m_top = 10_000
    gap = (1 + 2 * m_top) - c_lead * float(2 * m_top**2 * (m_top + 1)) ** (1 / 3)
    assert 0.30 <= abs(gap) <= 0.37
    samples = []
    for m in sorted({int(round(10 ** (e / 12.0))) for e in range(12, 49)} | {m_top}):
        samples.append((float(2 * m * m * (m + 1)) ** (1 / 3), 1 + 2 * m))
    report = bs.remainder_fit(bs.CountingSeries(tuple(samples)), model)
    assert 0.30 <= abs(report.second_coeff_estimate) <= 0.37
    assert report.sharp_verdict


@criterion(6, "trace-map symbol recovered at 2nd order: identity and seeded blocks")
def test_criterion_06_symbol_recovery_p1():
    block = bs.MetricBlock.identity(2)
    grid = bs.HalfSpaceGrid(1 / 256, 30.0)
    recovered = bs.bvp_solve_p1(block, bs.FourierDatum([1.0]), grid)
    assert abs(recovered - 2.0) / 2.0 < 1e-3
    # ladder rungs 1/64, 1/128, 1/256, 1/512 (scaled by the decay rate)
    errors = ladder(bs.bvp_solve_p1, block, np.array([1.0]), 512)
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.5 <= coarse / fine <= 4.5
    for seed in (101, 202, 303):
        blk, eta = random_block(seed)
        errs = ladder(bs.bvp_solve_p1, blk, eta, 512)
        assert errs[-2] < 1e-3  # the h = 1/(256 k) rung
        for coarse, fine in zip(errs, errs[1:]):
            assert 3.5 <= coarse / fine <= 4.5


@criterion(7, "flux-map symbol recovered within 1e-2: identity and seeded blocks")
def test_criterion_07_symbol_recovery_p2():
    block = bs.MetricBlock.identity(2)
    grid = bs.HalfSpaceGrid(1 / 512, 30.0)
    recovered = bs.bvp_solve_p2(block, bs.FourierDatum([1.0]), grid)
    assert abs(recovered - 2.0) / 2.0 < 1e-2
    for seed in (101, 202, 303):
        blk, eta = random_block(seed)
        errs = ladder(bs.bvp_solve_p2, blk, eta, 512)
        assert errs[-1] < 1e-2  # the h = 1/(512 k) rung


@criterion(8, "half-plane kernel matches its closed form; kernel and Fourier "
              "solves agree on Gaussian data")
def test_criterion_08_kernels():
    block = bs.MetricBlock.identity(2)
    rng = np.random.default_rng(8)
    for _ in range(100):
        xp = float(rng.uniform(-4.0, 4.0))
        xn = float(rng.uniform(1e-3, 4.0))
        expected = xn**2 / (math.pi * (xp**2 + xn**2))
        assert abs(bs.kernel_K(block, "K2", xp, xn) - expected) <= 1e-10

    y = np.linspace(-12.0, 12.0, 128)
    data = np.exp(-(y**2))
    zero = np.zeros_like(y)
    points = [(float(x), 1.0) for x in y]
    via_kernel = bs.solve_by_kernel(block, y, zero, data, points)
    via_fourier = bs.fourier_synthesis(block, y, zero, data, points)
    assert float(np.max(np.abs(via_kernel - via_fourier))) <= 1e-4


@criterion(9, "phase volume: closed form within 3 Monte Carlo standard errors")
def test_criterion_09_phase_volume():
    for n in (2, 3, 4):
        for rho in (1.0, 2.5):
            for eps in (0.0, 0.1):
                weight = bs.unit_circle_weight(lambda t, r=rho: r, epsilon=eps)
                sym = bs.steklov_symbol(P1, bs.BoundaryMetric.identity(n - 1), weight)
                closed = bs.hormander_phase_volume(sym, 0.0)
                expected = bs.unit_ball_volume(n - 1) * ((rho + eps) / 2.0) ** (n - 1)
                assert closed == pytest.approx(expected, rel=1e-13)
                mc = bs.phase_volume_montecarlo(sym, 0.0, 1_000_000, seed=90 + n)
                # the 1-d fiber box equals the ball, so stderr can be exactly 0;
                # the added epsilon only absorbs the float floor
                assert abs(mc.value - closed) <= 3.0 * mc.stderr + 1e-12


@criterion(10, "closed-form constant identity holds to 1e-12 for n = 2..12")
def test_criterion_10_gamma_identity():
    for n in range(2, 13):
        assert bs.gamma_identity_check(n) < 1e-12


@criterion(11, "composition with the reciprocal weight reproduces the weighted "
               "symbol exactly at 1000 seeded points")
def test_criterion_11_symbol_composition():
    rng = np.random.default_rng(1111)
    metric = bs.BoundaryMetric.constant(random_block(1111)[0].a_tan)
    dim = metric.dim
    weight = bs.unit_circle_weight(lambda t: 1.3 + 0.7 * math.sin(t), epsilon=0.05)
    unweighted = bs.steklov_symbol(P1, metric)
    weighted = bs.steklov_symbol(P1, metric, weight)
    composed = bs.symbol_compose(bs.reciprocal_weight_symbol(weight), unweighted)
    assert composed.degree == 1.0
    for _ in range(1000):
        x = float(rng.uniform(0.0, 2.0 * math.pi))
        eta = rng.normal(size=dim)
        if not np.any(eta):
            continue
        value = composed(x, eta)
        assert value == weighted(x, eta)
        quotient = unweighted(x, eta) / (weight.rho(x) + weight.epsilon)
        assert value == pytest.approx(quotient, rel=1e-15)
