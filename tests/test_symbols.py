import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bisteklov import (
    BoundaryMetric,
    HomogeneousSymbol,
    ProblemKind,
    counting,
    quadratic_form,
    reciprocal_weight_symbol,
    steklov_symbol,
    symbol_compose,
    symbol_steklov,
    symbols,
    theta_symbol,
    unit_circle_weight,
)

P1 = ProblemKind.NEUMANN_TRACE
P2 = ProblemKind.DIRICHLET_TRACE
HARM = ProblemKind.HARMONIC_STEKLOV

finite_floats = st.floats(-5, 5, allow_nan=False)


def random_spd(rng, dim):
    m = rng.normal(size=(dim, dim))
    return m @ m.T + dim * np.eye(dim)


# ---------------------------------------------------------------------------
# the two explicit symbols
# ---------------------------------------------------------------------------

def test_symbol_f_reference_values():
    ident = BoundaryMetric.identity(2)
    assert steklov_symbol(P1, ident)(None, [1.0, 0.0]) == pytest.approx(2.0, rel=1e-15)
    assert steklov_symbol(P1, ident)(None, [0.6, 0.8]) == pytest.approx(2.0, rel=1e-14)
    one_d = BoundaryMetric.constant([[4.0]])
    assert steklov_symbol(P1, one_d)(None, [1.0]) == pytest.approx(4.0, rel=1e-15)


def test_symbol_theta_reference_values():
    ident = BoundaryMetric.identity(2)
    assert steklov_symbol(P2, ident)(None, [1.0, 0.0]) == pytest.approx(2.0, rel=1e-15)
    assert steklov_symbol(P2, ident)(None, [2.0, 0.0]) == pytest.approx(16.0, rel=1e-14)


def test_symbols_reject_zero_covector():
    ident = BoundaryMetric.identity(2)
    with pytest.raises(ValueError):
        steklov_symbol(P1, ident)(None, [0.0, 0.0])
    with pytest.raises(ValueError):
        steklov_symbol(P2, ident)(None, [0.0, 0.0])
    with pytest.raises(ValueError):
        quadratic_form(ident, [1.0])  # wrong size


def _raise(exc):
    raise exc


@pytest.mark.parametrize("compute", [
    lambda: _raise(OverflowError()), lambda: 1.0 / 0.0, lambda: math.inf, lambda: math.nan,
    lambda: 0.0, lambda: -1.0, lambda: 5e-324, lambda: -math.inf,
], ids=["OverflowError", "ZeroDivisionError", "inf", "nan", "zero", "negative", "subnormal",
        "-inf"])
def test_in_double_range_refuses_what_is_not_a_finite_normal_double(compute):
    with pytest.raises(ValueError, match="^the message$"):
        symbols.in_double_range(compute, "the message")


@pytest.mark.parametrize("value", [sys.float_info.min, 1.0, 0.1 + 0.2, 2e160, sys.float_info.max])
def test_in_double_range_returns_a_normal_value_bit_for_bit(value):
    assert symbols.in_double_range(lambda: value, "unused").hex() == value.hex()


def test_in_double_range_lets_other_errors_through():
    with pytest.raises(ValueError, match="inner"):
        symbols.in_double_range(lambda: _raise(ValueError("inner")), "outer")


def test_metric_validation():
    with pytest.raises(ValueError, match="positive definite"):
        BoundaryMetric.constant([[1.0, 2.0], [2.0, 1.0]])  # indefinite
    with pytest.raises(ValueError, match="symmetric"):
        BoundaryMetric(np.array([[1.0, 0.5], [0.2, 1.0]]))
    with pytest.raises(ValueError, match="square"):
        BoundaryMetric([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


def test_metric_with_an_infinite_entry_is_refused():
    # an infinite diagonal entry passed numpy's Cholesky, then gave every covector an
    # infinite or nan form; now every entry of a checked metric is finite
    for matrix in ([[math.inf]], [[1.0, 0.0], [0.0, math.inf]], [[1.0, math.inf], [math.inf, 1.0]]):
        with pytest.raises(ValueError, match="positive definite"):
            BoundaryMetric.constant(matrix)


def test_identity_metric_is_the_checked_identity_without_the_check(monkeypatch):
    calls = []
    check = symbols._check_spd
    monkeypatch.setattr(symbols, "_check_spd", lambda *a: calls.append(a) or check(*a))
    for dim in (1, 2, 5):
        assert BoundaryMetric.identity(dim).rows == BoundaryMetric.constant(np.eye(dim)).rows
    assert len(calls) == 3
    with pytest.raises(ValueError, match="square"):
        BoundaryMetric.identity(0)


def _dense_form(rows, eta):
    # every term of (eta' g) . eta', each sum from the first index, zero components included
    form = 0.0
    for e_k, column in zip(eta, zip(*rows)):
        form += sum([e_j * g_jk for e_j, g_jk in zip(eta, column)]) * e_k
    return form


@given(st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=200, deadline=None)
def test_form_skips_zero_components_bit_for_bit(dim, seed):
    # a zero component adds only exact zeros, so the sums skip it: the form keeps its bits,
    # signed zeros, overflow and non-finite covectors included
    rng = np.random.default_rng(seed)
    metric = BoundaryMetric.constant(random_spd(rng, dim) * 10.0 ** rng.integers(-150, 150))
    eta = rng.normal(size=dim) * 10.0 ** rng.integers(-160, 160, size=dim)
    for k in range(dim):
        eta[k] = rng.choice([eta[k], eta[k], 0.0, -0.0, math.inf, math.nan])
    eta = [float(e) for e in eta]
    sparse, dense = symbols._form(metric.rows, eta), _dense_form(metric.rows, eta)
    if all(map(math.isfinite, eta)):
        assert sparse.hex() == dense.hex(), (eta, sparse, dense)
    else:  # both refused by quadratic_form
        assert not math.isfinite(sparse) and not math.isfinite(dense), (eta, sparse, dense)


def test_metric_is_checked_once(monkeypatch):
    calls = []
    check = symbols._check_spd
    monkeypatch.setattr(symbols, "_check_spd", lambda *a: calls.append(a) or check(*a))
    metric = BoundaryMetric.constant([[1.3, 0.4], [0.4, 0.9]])
    assert len(calls) == 1 and metric.dim == 2
    sym = steklov_symbol(P2, metric, unit_circle_weight(lambda t: 2.0 + math.cos(t)))
    for j in range(100):
        sym(0.1 * j, [1.0, -0.5])
    counting.hormander_phase_volume(sym, 0.3)
    assert len(calls) == 1


@given(st.integers(1, 3), st.integers(0, 2 ** 32 - 1), st.sampled_from([2.0, 10.0, 1000.0]))
@settings(max_examples=30, deadline=None)
def test_homogeneity_of_builtin_symbols(dim, seed, t):
    rng = np.random.default_rng(seed)
    metric = BoundaryMetric.constant(random_spd(rng, dim))
    eta = rng.normal(size=dim)
    if not np.any(eta):
        eta = np.ones(dim)
    weight = unit_circle_weight(lambda s: 1.5 + 0.5 * math.sin(s), epsilon=0.1)
    x = float(rng.uniform(0, 2 * math.pi))
    for sym, degree in ((steklov_symbol(P1, metric), 1), (steklov_symbol(P2, metric), 3),
                        (steklov_symbol(P2, metric, weight), 3)):
        assert sym.degree == degree
        scaled = sym(x, t * eta)
        assert scaled == pytest.approx(t ** degree * sym(x, eta), rel=1e-12)


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

def test_compose_identity_element():
    metric = BoundaryMetric.identity(2)
    one = HomogeneousSymbol(0.0, lambda x, e: 1.0)
    f = steklov_symbol(P1, metric)
    composed = symbol_compose(one, f)
    assert composed.degree == 1.0
    eta = np.array([0.3, -1.2])
    assert composed(None, eta) == f(None, eta)


def test_compose_square():
    metric = BoundaryMetric.constant([[2.0, 0.5], [0.5, 1.0]])
    f = steklov_symbol(P1, metric)
    ff = symbol_compose(f, f)
    assert ff.degree == 2.0
    eta = np.array([1.0, 2.0])
    assert ff(None, eta) == pytest.approx(4.0 * quadratic_form(metric, eta),
                                          rel=1e-14)


def test_compose_commutes_and_associates():
    metric = BoundaryMetric.identity(2)
    weight = unit_circle_weight(lambda t: 2.0 + math.cos(t), epsilon=0.0)
    a = steklov_symbol(P1, metric)
    b = reciprocal_weight_symbol(weight)
    c = steklov_symbol(P2, metric)
    eta = np.array([0.7, 0.1])
    x = 1.3
    assert symbol_compose(a, b)(x, eta) == symbol_compose(b, a)(x, eta)
    left = symbol_compose(symbol_compose(a, b), c)(x, eta)
    right = symbol_compose(a, symbol_compose(b, c))(x, eta)
    assert left == pytest.approx(right, rel=1e-15)


def test_compose_weight_with_f_bit_matches_steklov():
    rng = np.random.default_rng(100)
    metric = BoundaryMetric.constant(random_spd(rng, 2))
    weight = unit_circle_weight(lambda t: 1.7 + 0.6 * math.sin(t), epsilon=0.05)
    composed = symbol_compose(reciprocal_weight_symbol(weight), steklov_symbol(P1, metric))
    weighted = steklov_symbol(P1, metric, weight)
    assert composed.degree == 1.0
    for _ in range(200):
        x = float(rng.uniform(0, 2 * math.pi))
        eta = rng.normal(size=2)
        lhs = composed(x, eta)
        assert lhs == weighted(x, eta)
        quotient = steklov_symbol(P1, metric)(x, eta) / (weight.rho(x) + weight.epsilon)
        assert lhs == pytest.approx(quotient, rel=1e-15)


def test_coordinate_change_invariance():
    rng = np.random.default_rng(5)
    for _ in range(20):
        dim = int(rng.integers(1, 4))
        g = random_spd(rng, dim)
        C = rng.normal(size=(dim, dim)) + 2 * np.eye(dim)
        zeta = rng.normal(size=dim)
        if not np.any(zeta):
            continue
        before = steklov_symbol(P1, BoundaryMetric.constant(g))(None, C @ zeta)
        after = steklov_symbol(P1, BoundaryMetric.constant(C.T @ g @ C))(None, zeta)
        assert before == pytest.approx(after, rel=1e-12)


# ---------------------------------------------------------------------------
# the weighted symbols
# ---------------------------------------------------------------------------

def test_symbol_steklov_values():
    ident1 = BoundaryMetric.identity(1)
    w1 = unit_circle_weight()
    assert steklov_symbol(P1, ident1, w1)(0.0, [1.0]) == pytest.approx(2.0, rel=1e-15)
    w2 = unit_circle_weight(lambda t: 2.0)
    assert steklov_symbol(P2, ident1, w2)(0.0, [1.0]) == pytest.approx(0.25, rel=1e-14)
    assert steklov_symbol(HARM, ident1, w1)(0.0, [1.0]) == pytest.approx(1.0, rel=1e-15)


def test_symbol_steklov_zero_weight_guard():
    ident = BoundaryMetric.identity(1)
    w = unit_circle_weight(lambda t: 0.0, epsilon=0.0)
    with pytest.raises(ValueError):
        steklov_symbol(P1, ident, w)(0.0, [1.0])


def test_unit_weight_and_the_delegations_are_bit_identical():
    rng = np.random.default_rng(7)
    metric = BoundaryMetric.constant(random_spd(rng, 2))
    weight = unit_circle_weight(lambda t: 1.7 + 0.6 * math.sin(t))
    for problem in (P1, P2, HARM):
        unweighted = steklov_symbol(problem, metric)
        unit = steklov_symbol(problem, metric, unit_circle_weight())
        for _ in range(50):
            x, eta = float(rng.uniform(0, 2 * math.pi)), rng.normal(size=2)
            assert unweighted(x, eta) == unit(x, eta)
            assert symbol_steklov(problem, metric, weight, x, eta) \
                == steklov_symbol(problem, metric, weight)(x, eta)
    assert theta_symbol(metric)(None, eta) == steklov_symbol(P2, metric)(None, eta)


@pytest.mark.parametrize("problem, weight_message, value_message", [
    (P1, "weight out of range: 2 / rho^1 leaves the double range",
     "symbol out of range: 2 q^0.5 / rho^1 leaves the double range"),
    (P2, "weight out of range: 2 / rho^3 leaves the double range",
     "symbol out of range: 2 q^1.5 / rho^3 leaves the double range"),
    (HARM, "weight out of range: 1 / rho^1 leaves the double range",
     "symbol out of range: 1 q^0.5 / rho^1 leaves the double range")])
def test_symbol_refusal_messages_byte_for_byte(problem, weight_message, value_message):
    # coeff / rho^degree overflows at rho = 1e-310; at rho = 1e-200 (1e-100 for p2) it does
    # not, but the value does at |eta| = 1e150 (1e100 for p2)
    metric = BoundaryMetric.identity(1)
    small, eta = (1e-100, 1e100) if problem is P2 else (1e-200, 1e150)
    for rho, covector, message in ((1e-310, 1.0, weight_message), (small, eta, value_message)):
        weight = unit_circle_weight(lambda t, r=rho: r)
        for evaluate in (steklov_symbol(problem, metric, weight),
                         lambda x, e: symbol_steklov(problem, metric, weight, x, e)):
            with pytest.raises(ValueError) as info:
                evaluate(0.0, [covector])
            assert str(info.value) == message


def test_steklov_sublevel_volume_matches_growth_radius():
    # fiber volume of {symbol < 1} for the trace problem: omega * ((rho+eps)/2)^dim
    for dim, rho, eps in ((1, 1.0, 0.0), (2, 2.5, 0.1), (3, 0.8, 0.0)):
        w = unit_circle_weight(lambda t, r=rho: r, epsilon=eps)
        sym = steklov_symbol(P1, BoundaryMetric.identity(dim), w)
        vol = counting.hormander_phase_volume(sym, 0.0)
        expected = counting.unit_ball_volume(dim) * ((rho + eps) / 2.0) ** dim
        assert vol == pytest.approx(expected, rel=1e-13)
