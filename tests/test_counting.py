import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bisteklov import (
    BoundaryMetric,
    BoundaryWeight,
    CountingSeries,
    HarmonicPoly,
    HomogeneousSymbol,
    MetricBlock,
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
    theta_symbol,
    unit_ball_volume,
    unit_circle_weight,
    unit_sphere_weight,
    weyl_leading,
)
from bisteklov.counting import _GAUSS_NODES, _GAUSS_WEIGHTS, _quadratic_forms

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


@settings(max_examples=300, deadline=None)
@given(n=st.integers(3, 40), top=st.floats(1023.0, 1023.999), integral=st.floats(1e-250, 1e-30))
def test_predicted_count_is_the_plain_product_wherever_that_is_in_range(n, top, integral):
    # tau^(n-1) near 2^top, just below the overflow, where a small C_lead keeps the product
    # in range: the plain product's bits, whichever route the model takes
    model, tau = WeylModel(P1, n, integral), 2.0 ** (top / (n - 1))
    assert model.predicted(tau) == model.c_lead * tau ** (n - 1)


def test_predicted_count_past_the_range_of_tau_power():
    # tau^3 overflows, C_lead tau^3 does not: the product from the mantissas and exponents
    model = WeylModel(P1, 4, 1e-300)
    tau = 1e103
    expected = model.c_lead * 1e3 ** 3 * 1e100 ** 3
    assert model.predicted(tau) == pytest.approx(expected, rel=1e-15)
    assert model.residual(tau, 0) == (model.predicted(tau), pytest.approx(-expected / tau ** 2,
                                                                          rel=1e-15))
    with pytest.raises(ValueError, match="n = 4: the predicted count"):
        WeylModel(P1, 4, 1.0).predicted(1e105)


def test_scaled_residual_past_the_range_of_tau_power():
    # tau^(n-2) = 2100^98 overflows, the residual does not: the quotient to a few roundings
    model = WeylModel(P1, 100, sphere_area(100))
    predicted, scaled = model.residual(2100.0, 1)
    assert predicted == model.predicted(2100.0)
    assert scaled == pytest.approx(float((1 - Fraction(predicted)) / 2100 ** 98), rel=1e-15)
    # a residual below the normal range keeps a few digits only: refused, but a zero gap is exact
    model = WeylModel(P1, 100, 2.1e-160)
    tau = 2.0 ** (1025 / 98)  # tau^98 just past 2^1024
    predicted = model.predicted(tau)
    with pytest.raises(ValueError, match=r"n = 100: the scaled residual \(count - predicted\)"):
        model.residual(tau, math.floor(predicted))
    assert model.residual(tau, predicted) == (predicted, 0.0)


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


def test_boundary_integral_bits():
    # float.hex pins of a circle and a sphere integral; the sum runs in one fixed order
    circle = unit_circle_weight(lambda t: 2.0 + 0.7 * math.cos(3.0 * t))
    assert boundary_integral(circle, 2, 64).hex() == "0x1.921fb54442d0ep+3"
    sphere = unit_sphere_weight(lambda t, p: 1.5 - 0.4 * math.cos(t) + 0.1 * math.sin(p))
    assert boundary_integral(sphere, 3, 8).hex() == "0x1.d01e32475163ap+4"


def test_gauss_legendre_table_is_leggauss_16_bit_for_bit():
    import numpy as np

    nodes, weights = np.polynomial.legendre.leggauss(16)
    assert [x.hex() for x in _GAUSS_NODES] == [float(x).hex() for x in nodes]
    assert [w.hex() for w in _GAUSS_WEIGHTS] == [float(w).hex() for w in weights]


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


def test_phase_volume_montecarlo_bits():
    metric = BoundaryMetric.constant([[2.5, 0.3], [0.3, 1.75]])
    mc = phase_volume_montecarlo(theta_symbol(metric), None, 20_000, seed=12345)
    assert (mc.value.hex(), mc.stderr.hex()) == ("0x1.fba2f270e134fp+0", "0x1.e9bb14fcd03c5p-8")


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_quadratic_forms_match_einsum(dim):
    # the sum over j, k of pts[:, j] g[j, k] pts[:, k], j outer, is einsum's own order
    import numpy as np

    for trial in range(10):
        rng = np.random.default_rng(100 * dim + trial)
        m = rng.uniform(-1.0, 1.0, (dim, dim))
        g = m @ m.T + 2.0 * np.eye(dim)
        pts = (2.0 * rng.random((3000, dim)) - 1.0) * rng.uniform(0.5, 3.0, dim)
        assert np.array_equal(_quadratic_forms(pts, g), np.einsum("ij,jk,ik->i", pts, g, pts))


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
    for t, c in series.samples:
        assert model.residual(t, c) == (model.predicted(t), (c - model.predicted(t)) / t ** (n - 2))


def _spectrum_series(spectrum):
    return CountingSeries(tuple((t, c) for t, c in zip(spectrum.values, spectrum.cumulative)
                                if t > 0))


@pytest.mark.parametrize("problem, n, spectrum", [
    *[(P1, n, ball_spectrum_p1(n, 300)) for n in (2, 3, 4, 5)],
    (P2, 2, disk_spectrum_p2(20_000)),
])
def test_remainder_fit_estimates_are_the_endpoints_of_the_residual_series(problem, n, spectrum):
    series, model = _spectrum_series(spectrum), WeylModel(problem, n, sphere_area(n))
    report = remainder_fit(series, model)
    (first, first_count), (last, last_count) = series.samples[0], series.samples[-1]
    (_, start), (_, end) = model.residual(first, first_count), model.residual(last, last_count)
    assert report.second_coeff_estimate.hex() == end.hex()
    trend = (end - start) / (math.log(last) - math.log(first))
    assert report.trend_slope.hex() == trend.hex()


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


# ---------------------------------------------------------------------------
# the value records: immutable, equal by their fields
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make", [
    lambda: HarmonicPoly(2, {(1, 0): 1, (0, 2): Fraction(1, 3)}),
    lambda: Spectrum(P2, 2, (0.0, 1.0), (1, 2), (0, 4)),
    lambda: WeylModel(P1, 3, 4 * math.pi),
    lambda: CountingSeries(((1.0, 1), (2.0, 3))),
    lambda: BoundaryWeight(math.cos, math.sin, ((0.0, 1.0),), 0.5),
], ids=["HarmonicPoly", "Spectrum", "WeylModel", "CountingSeries", "BoundaryWeight"])
def test_records_are_immutable_and_equal_by_their_fields(make):
    a, b = make(), make()
    assert a == b and a is not b and repr(a) == repr(b) and a != object()
    for name in type(a)._fields:
        with pytest.raises(AttributeError, match="immutable"):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == make()


@pytest.mark.parametrize("make", [
    lambda: HarmonicPoly(2, {(1, 0): 1, (0, 2): Fraction(1, 3)}),
    lambda: Spectrum(P2, 2, (0.0, 1.0), (1, 2), (0, 4)),
    lambda: WeylModel(P1, 3, 4 * math.pi),
    lambda: CountingSeries(((1.0, 1), (2.0, 3))),
    lambda: BoundaryWeight(math.cos, math.sin, ((0.0, 1.0),), 0.5),
], ids=["HarmonicPoly", "Spectrum", "WeylModel", "CountingSeries", "BoundaryWeight"])
def test_records_survive_pickle_and_copy(make):
    a = make()
    for b in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a), copy.copy(a)):
        assert b == a and type(b) is type(a) and repr(b) == repr(a)
        with pytest.raises(AttributeError, match="immutable"):
            setattr(b, type(a)._fields[0], None)
    if isinstance(a, Spectrum):  # its derived column comes back too
        assert pickle.loads(pickle.dumps(a)).cumulative == a.cumulative == (1, 3)
    if isinstance(a, WeylModel):  # and so do the slots outside _fields
        assert copy.deepcopy(a).residual(2.0, 5) == a.residual(2.0, 5)


def test_metrics_survive_pickle_and_copy_with_their_own_read_only_array():
    a = BoundaryMetric.constant([[1.3, 0.4], [0.4, 0.9]])
    a.matrix  # builds the cached array, which a copy does not share
    for b in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a), copy.copy(a)):
        assert b.rows == a.rows and b is not a and b != a  # equal entries, compared by identity
        assert b.matrix is not a.matrix and not b.matrix.flags.writeable
        assert (b.matrix == a.matrix).all()
    block = MetricBlock(a, 2.0)
    assert pickle.loads(pickle.dumps(block)).a_tan.rows == a.rows


def test_metrics_compare_by_identity_and_keep_one_read_only_array():
    a, b = BoundaryMetric.identity(2), BoundaryMetric.identity(2)
    assert a != b and a == a and len({a, b}) == 2
    assert a.rows == b.rows == ((1.0, 0.0), (0.0, 1.0))
    assert a.matrix is a.matrix and not a.matrix.flags.writeable
    with pytest.raises(AttributeError):
        a.rows = ((2.0, 0.0), (0.0, 2.0))
