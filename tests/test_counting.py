import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bisteklov import (
    BoundaryMetric,
    CountingSeries,
    HomogeneousSymbol,
    ProblemKind,
    Spectrum,
    WeylModel,
    ball_count_closed,
    ball_spectrum_p1,
    boundary_integral,
    count_upto,
    disk_spectrum_p2,
    gamma_identity_check,
    harmonic_dim,
    hormander_phase_volume,
    phase_volume_montecarlo,
    remainder_fit,
    sphere_area,
    steklov_symbol,
    symbol_compose,
    unit_ball_volume,
    unit_circle_weight,
    unit_sphere_weight,
    weyl_leading,
)

P1 = ProblemKind.NEUMANN_TRACE
P2 = ProblemKind.DIRICHLET_TRACE
HARM = ProblemKind.HARMONIC_STEKLOV


def product_form_count(n, m):
    """Oracle: (2m+n-1) (m+n-2)! / ((n-1)! m!)."""
    return (2 * m + n - 1) * math.factorial(m + n - 2) \
        // (math.factorial(n - 1) * math.factorial(m))


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

def test_count_upto_examples():
    assert count_upto(ball_spectrum_p1(2, 10), 6) == 5
    assert count_upto(ball_spectrum_p1(2, 10), 1.5) == 0
    assert count_upto(disk_spectrum_p2(5), tau_cube=4) == 3


def test_count_upto_argument_validation():
    s = ball_spectrum_p1(2, 3)
    with pytest.raises(ValueError):
        count_upto(s)
    with pytest.raises(ValueError):
        count_upto(s, 3.0, tau_cube=27)
    with pytest.raises(ValueError):
        count_upto(s, tau_cube=8)  # no exact cubes stored for problem 1


@st.composite
def _spectra(draw):
    """Strictly increasing problem-1 spectra (no cubes) or problem-2 spectra
    whose values are the cube roots of their exact cubes."""
    mults = st.integers(1, 4)
    if draw(st.booleans()):
        values = sorted(draw(st.sets(st.floats(1e-3, 1e3) | st.integers(1, 60).map(float),
                                     min_size=1, max_size=30)))
        return Spectrum(P1, 2, tuple(values), tuple(draw(mults) for _ in values))
    cubes = sorted(draw(st.sets(st.integers(0, 10 ** 6), min_size=1, max_size=30)))
    return Spectrum(P2, 2, tuple(float(c) ** (1.0 / 3.0) for c in cubes),
                    tuple(draw(mults) for _ in cubes), tuple(cubes))


@given(_spectra())
@settings(max_examples=150, deadline=None)
def test_count_upto_matches_a_linear_count(spectrum):
    taus = [math.nan, math.inf, -math.inf, -1.0, 0.0]
    for e in spectrum.entries:
        taus += [e.value, math.nextafter(e.value, -math.inf), math.nextafter(e.value, math.inf)]
    for tau in taus:
        assert count_upto(spectrum, tau) == sum(e.mult for e in spectrum.entries if e.value <= tau)
    if spectrum.entries[0].cube is None:
        with pytest.raises(ValueError, match="no exact cubes"):
            count_upto(spectrum, tau_cube=8)
        return
    cubes = [-1, 0, Fraction(-1, 2)]
    for e in spectrum.entries:
        cubes += [e.cube - 1, e.cube, e.cube + 1,
                  Fraction(2 * e.cube - 1, 2), Fraction(e.cube), Fraction(2 * e.cube + 1, 2)]
    for cube in cubes:
        assert count_upto(spectrum, tau_cube=cube) == \
            sum(e.mult for e in spectrum.entries if e.cube <= cube)


@given(st.integers(2, 5), st.floats(0, 50))
@settings(max_examples=40, deadline=None)
def test_count_upto_monotone(n, tau):
    s = ball_spectrum_p1(n, 20)
    assert count_upto(s, tau) <= count_upto(s, tau + 1.0)


def test_ball_count_closed_examples():
    assert ball_count_closed(2, 3) == 7
    assert ball_count_closed(3, 2) == 9
    assert ball_count_closed(4, 0) == 1


def test_ball_count_closed_three_way_equality():
    for n in range(2, 7):
        running = 0
        for m in range(0, 201):
            running += harmonic_dim(n, m)
            closed = ball_count_closed(n, m)
            assert closed == running
            assert closed == product_form_count(n, m)


def test_ball_count_matches_count_upto():
    for n in range(2, 7):
        spectrum = ball_spectrum_p1(n, 200)
        for m in range(0, 201):
            assert count_upto(spectrum, n + 2 * m) == ball_count_closed(n, m)


def test_binomial_recombination_identity():
    # the two-binomial count also telescopes as 2 C(n+m-1, n-1) - C(n+m-2, n-2)
    for n in range(2, 9):
        for m in range(0, 201):
            assert (2 * math.comb(n + m - 1, n - 1) - math.comb(n + m - 2, n - 2)
                    == math.comb(n + m - 1, n - 1) + math.comb(n + m - 2, n - 1))


def test_ball_count_eigenvalue_polynomial_n3():
    # the closed count in terms of the eigenvalue itself: (lam - 1)^2 / 4
    for m in range(0, 300):
        lam = 3 + 2 * m
        assert 4 * ball_count_closed(3, m) == (lam - 1) ** 2


# ---------------------------------------------------------------------------
# growth constants
# ---------------------------------------------------------------------------

def test_unit_ball_volumes():
    assert unit_ball_volume(0) == pytest.approx(1.0, abs=1e-15)
    assert unit_ball_volume(1) == pytest.approx(2.0, rel=1e-15)
    assert unit_ball_volume(2) == pytest.approx(math.pi, rel=1e-15)
    assert unit_ball_volume(3) == pytest.approx(4 * math.pi / 3, rel=1e-15)
    assert sphere_area(3) == pytest.approx(4 * math.pi, rel=1e-14)


def test_weyl_leading_examples():
    assert weyl_leading(P1, 2, 2 * math.pi) == pytest.approx(1.0, abs=1e-12)
    assert weyl_leading(P2, 2, 2 * math.pi) == pytest.approx(4 ** (1 / 3), rel=1e-14)
    assert weyl_leading(P1, 3, 4 * math.pi) == pytest.approx(0.25, abs=1e-14)
    assert weyl_leading(HARM, 2, 2 * math.pi) == pytest.approx(2.0, rel=1e-14)


def test_weyl_leading_rejects_bad_input():
    with pytest.raises(ValueError):
        weyl_leading(P1, 2, 0.0)
    with pytest.raises(ValueError):
        weyl_leading(P1, 2, -1.0)
    with pytest.raises(ValueError):
        weyl_leading(P1, 1, 1.0)


def test_weyl_leading_is_the_phase_volume_of_the_principal_symbol():
    # Hormander: C_lead = integral over the boundary of the fiber volume of
    # {symbol < 1}, divided by (2 pi)^(n-1)
    for problem in (P1, P2, HARM):
        for n in range(2, 8):
            symbol = steklov_symbol(problem, BoundaryMetric.identity(n - 1), unit_circle_weight())
            expected = hormander_phase_volume(symbol, 0.0) * 3.5 / (2 * math.pi) ** (n - 1)
            assert weyl_leading(problem, n, 3.5) == pytest.approx(expected, rel=1e-14)


def test_weyl_leading_bases_are_bit_exact():
    for problem, base in ((P1, 4.0 * math.pi), (P2, 16.0 ** (1.0 / 3.0) * math.pi),
                          (HARM, 2.0 * math.pi)):
        for n in (2, 3, 7):
            assert weyl_leading(problem, n, 3.5) == unit_ball_volume(n - 1) * 3.5 / base ** (n - 1)


def test_weyl_model_invariant():
    model = WeylModel(P2, 3, 5.0)
    expected = unit_ball_volume(2) * 5.0 / (16 ** (1 / 3) * math.pi) ** 2
    assert model.c_lead == pytest.approx(expected, rel=1e-15)
    assert model.c_lead > 0
    with pytest.raises(ValueError):
        WeylModel(P1, 2, -2.0)


# ---------------------------------------------------------------------------
# boundary quadrature
# ---------------------------------------------------------------------------

def test_boundary_integral_unit_circle():
    assert boundary_integral(unit_circle_weight(), 2, 4) \
        == pytest.approx(2 * math.pi, abs=1e-12)


@pytest.mark.parametrize("c,n", [(1.0, 2), (2.5, 2), (0.7, 3), (1.3, 4)])
def test_boundary_integral_constant_homogeneity(c, n):
    w = unit_circle_weight(lambda t: c)
    assert boundary_integral(w, n, 8) \
        == pytest.approx(c ** (n - 1) * 2 * math.pi, rel=1e-10)


def test_boundary_integral_sphere():
    w = unit_sphere_weight(lambda t, p: 1.5)
    assert boundary_integral(w, 3, 8) \
        == pytest.approx(1.5 ** 2 * 4 * math.pi, rel=1e-10)


def test_boundary_integral_cosine_weight():
    # analytic: integral of (2 + cos t) over the circle is 4 pi
    w = unit_circle_weight(lambda t: 2.0 + math.cos(t))
    assert boundary_integral(w, 2, 16) == pytest.approx(4 * math.pi, abs=1e-10)


def test_boundary_integral_rejections():
    w = unit_circle_weight(lambda t: math.cos(t))  # negative on half the circle
    with pytest.raises(ValueError):
        boundary_integral(w, 2, 8)
    with pytest.raises(ValueError):
        boundary_integral(unit_circle_weight(), 2, 0)


# ---------------------------------------------------------------------------
# phase volumes
# ---------------------------------------------------------------------------

def test_phase_volume_closed_forms():
    w = unit_circle_weight()
    q1 = steklov_symbol(P1, BoundaryMetric.identity(1), w)
    assert hormander_phase_volume(q1, 0.0) == pytest.approx(1.0, abs=1e-14)
    q1 = steklov_symbol(P1, BoundaryMetric.identity(2), w)
    assert hormander_phase_volume(q1, 0.0) == pytest.approx(math.pi / 4, rel=1e-14)
    # flux problem: radius (rho + eps) / 2^(1/3)
    w2 = unit_circle_weight(lambda t: 1.4, epsilon=0.2)
    q2 = steklov_symbol(P2, BoundaryMetric.identity(2), w2)
    assert hormander_phase_volume(q2, 0.0) \
        == pytest.approx(math.pi * (1.6 / 2 ** (1 / 3)) ** 2, rel=1e-13)


def test_phase_volume_montecarlo_matches_closed():
    w = unit_circle_weight(lambda t: 2.5, epsilon=0.1)
    metric = BoundaryMetric.constant([[1.3, 0.4], [0.4, 0.9]])
    sym = steklov_symbol(P1, metric, w)
    closed = hormander_phase_volume(sym, 0.0)
    mc = phase_volume_montecarlo(sym, 0.0, 200_000, seed=11)
    assert abs(mc.value - closed) <= 4.0 * mc.stderr
    assert mc.stderr > 0


def test_phase_volume_montecarlo_reproducible():
    sym = steklov_symbol(P1, BoundaryMetric.identity(2), unit_circle_weight())
    a = phase_volume_montecarlo(sym, 0.0, 50_000, seed=3)
    b = phase_volume_montecarlo(sym, 0.0, 50_000, seed=3)
    c = phase_volume_montecarlo(sym, 0.0, 50_000, seed=4)
    assert a.value == b.value and a.stderr == b.stderr
    assert a.value != c.value


def test_phase_volume_rejections():
    sym = steklov_symbol(P1, BoundaryMetric.identity(2), unit_circle_weight())
    with pytest.raises(ValueError):
        phase_volume_montecarlo(sym, 0.0, 0, seed=1)
    composed = symbol_compose(sym, sym)  # loses the ellipsoidal structure
    with pytest.raises(TypeError):
        hormander_phase_volume(composed, 0.0)
    lying = HomogeneousSymbol(2.0, sym.fn, sym.coeff, sym.metric)  # a wrong degree
    with pytest.raises(ValueError):
        hormander_phase_volume(lying, 0.0)


# ---------------------------------------------------------------------------
# remainder study
# ---------------------------------------------------------------------------

def ball_series(n, m_max, stride=1):
    samples = []
    running = 0
    for m in range(0, m_max + 1):
        running += harmonic_dim(n, m)
        if m % stride == 0:
            samples.append((float(n + 2 * m), running))
    return CountingSeries(tuple(samples))


def test_remainder_fit_disk_is_exactly_minus_one():
    model = WeylModel(P1, 2, 2 * math.pi)
    report = remainder_fit(ball_series(2, 400, stride=10), model)
    assert report.second_coeff_estimate == pytest.approx(-1.0, abs=1e-12)
    assert report.sharp_verdict
    assert abs(report.trend_slope) < 1e-12


def test_remainder_fit_ball_n3():
    model = WeylModel(P1, 3, 4 * math.pi)
    m_max = 2000
    report = remainder_fit(ball_series(3, m_max, stride=40), model)
    lam_max = 3 + 2 * m_max
    assert abs(report.second_coeff_estimate + 0.5) <= (1 + 1e-9) / (4 * lam_max)
    assert report.sharp_verdict


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_remainder_fit_second_coefficient_limit(n):
    # residual converges to (1-n) * C_lead with a 1/tau gap
    model = WeylModel(P1, n, sphere_area(n))
    report = remainder_fit(ball_series(n, 220, stride=5), model)
    lam_max = float(n + 2 * 220)
    target = (1 - n) * model.c_lead
    assert abs(report.second_coeff_estimate - target) <= 1.0 / lam_max


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_leading_order_convergence_bound(n):
    model = WeylModel(P1, n, sphere_area(n))
    running = 0
    for m in range(0, 201):
        running += harmonic_dim(n, m)
        tau = float(n + 2 * m)
        assert abs(running / model.predicted(tau) - 1.0) <= n / tau


def test_remainder_fit_disk_flux_constant():
    model = WeylModel(P2, 2, 2 * math.pi)
    samples = []
    for m in range(1, 2001):
        mu = float(2 * m * m * (m + 1)) ** (1 / 3)
        samples.append((mu, 1 + 2 * m))
    report = remainder_fit(CountingSeries(tuple(samples)), model)
    assert report.second_coeff_estimate == pytest.approx(1 / 3, abs=1e-3)
    assert report.sharp_verdict


def test_disk_flux_count_is_a_sawtooth_around_the_leading_term():
    # count - C_lead * tau tends to 1/3 at the eigenvalues and to -5/3 just
    # below them, each with an O(1/m) error: an O(1) remainder that does not decay
    spectrum = disk_spectrum_p2(100_000)
    c_lead = weyl_leading(P2, 2, sphere_area(2))
    for m in (1, 2, 3, 10, 77, 1000, 31_623, 99_999, 100_000):
        cube, tau = 2 * m * m * (m + 1), spectrum.entries[m].value
        at = count_upto(spectrum, tau_cube=cube) - c_lead * tau
        below = count_upto(spectrum, tau_cube=cube - 1) - c_lead * tau
        assert abs(at - 1 / 3) < 1 / m and abs(below + 5 / 3) < 1 / m, m


@pytest.mark.parametrize("n", [2, 3, 4])
def test_remainder_fit_residuals_are_the_scaled_gaps(n):
    model = WeylModel(P1, n, sphere_area(n))
    series = ball_series(n, 300)
    expected = tuple((t, (c - model.predicted(t)) / t ** (n - 2)) for t, c in series.samples)
    assert remainder_fit(series, model).residual_series == expected


def _spectrum_series(spectrum):
    return CountingSeries(tuple((t, c) for t, c in zip(spectrum.values, spectrum.cumulative)
                                if t > 0))


@pytest.mark.parametrize("problem, n, spectrum", [
    *[(P1, n, ball_spectrum_p1(n, 300)) for n in (2, 3, 4, 5)],
    (P2, 2, disk_spectrum_p2(20_000)),
])
def test_remainder_fit_estimates_are_the_endpoints_of_the_residual_series(problem, n, spectrum):
    report = remainder_fit(_spectrum_series(spectrum), WeylModel(problem, n, sphere_area(n)))
    assert "residual_series" not in vars(report)  # built on first access
    (first, start), (last, end) = report.residual_series[0], report.residual_series[-1]
    assert report.second_coeff_estimate.hex() == end.hex()
    trend = (end - start) / (math.log(last) - math.log(first))
    assert report.trend_slope.hex() == trend.hex()
    assert report.residual_series is report.residual_series


def test_remainder_fit_validation():
    model = WeylModel(P1, 2, 2 * math.pi)
    short = CountingSeries(tuple((float(2 + 2 * m), 2 * m + 1) for m in range(5)))
    with pytest.raises(ValueError):
        remainder_fit(short, model)
    narrow = CountingSeries(tuple((10.0 + i, 10 + i) for i in range(12)))
    with pytest.raises(ValueError):
        remainder_fit(narrow, model)
    wrong_dim = WeylModel(P1, 4, sphere_area(4))
    with pytest.raises(ValueError):
        remainder_fit(ball_series(2, 400, stride=10), wrong_dim)


def test_counting_series_invariants():
    with pytest.raises(ValueError):
        CountingSeries(((1.0, 2), (1.0, 3)))
    with pytest.raises(ValueError):
        CountingSeries(((1.0, 3), (2.0, 2)))
    with pytest.raises(ValueError):
        CountingSeries(((1.0, -1),))


# ---------------------------------------------------------------------------
# the closed-form constant identity
# ---------------------------------------------------------------------------

def test_gamma_identity_values():
    assert gamma_identity_check(2) < 1e-14
    assert gamma_identity_check(3) < 1e-14
    assert gamma_identity_check(10) < 1e-12


def test_gamma_duplication_oracle():
    # the identity rests on the gamma duplication formula; check it directly
    for n in range(2, 25):
        z = n / 2.0
        lhs = math.sqrt(math.pi) * math.gamma(2 * z) / 2 ** (2 * z - 1)
        rhs = math.gamma(z) * math.gamma(z + 0.5)
        assert lhs == pytest.approx(rhs, rel=1e-13)


def test_gamma_identity_rejects():
    with pytest.raises(ValueError):
        gamma_identity_check(1)
