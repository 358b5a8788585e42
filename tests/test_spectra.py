import gc
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bisteklov import (
    BasisSizeError,
    HarmonicPoly,
    ProblemKind,
    Spectrum,
    SpectrumEntry,
    ball_spectrum_p1,
    count_upto,
    disk_spectrum_harmonic,
    disk_spectrum_p2,
    harmonic_basis,
    harmonic_dim,
    radial_verify_p2,
    verify_ball_eigenpair,
)
from bisteklov.spectra import _degree_exponents


# ---------------------------------------------------------------------------
# test-local exact linear algebra, used as an independent oracle
# ---------------------------------------------------------------------------

def monos(n, m):
    if n == 1:
        return [(m,)]
    return [(k, *rest) for k in range(m + 1) for rest in monos(n - 1, m - k)]


def rank(rows):
    rows = [list(r) for r in rows]
    r = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = Fraction(1) / rows[r][col]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return r


def laplacian_nullity(n, m):
    """Brute-force nullity of the Laplacian on degree-m monomials."""
    cols = monos(n, m)
    if m < 2:
        return len(cols)
    rows_idx = {a: i for i, a in enumerate(monos(n, m - 2))}
    matrix = [[Fraction(0)] * len(cols) for _ in rows_idx]
    for j, alpha in enumerate(cols):
        for i in range(n):
            if alpha[i] >= 2:
                beta = list(alpha)
                beta[i] -= 2
                matrix[rows_idx[tuple(beta)]][j] += alpha[i] * (alpha[i] - 1)
    return len(cols) - rank(matrix)


def coeff_vector(poly, monomial_list):
    return [poly.terms.get(a, Fraction(0)) for a in monomial_list]


# ---------------------------------------------------------------------------
# harmonic dimensions
# ---------------------------------------------------------------------------

def test_harmonic_dim_reference_values():
    assert harmonic_dim(2, 0) == 1
    assert harmonic_dim(4, 1) == 4
    assert harmonic_dim(3, 4) == 9
    assert harmonic_dim(1, 0) == 1 and harmonic_dim(1, 1) == 1
    assert harmonic_dim(1, 5) == 0
    assert harmonic_dim(2, 9) == 2


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_harmonic_dim_matches_nullspace_oracle(n):
    for m in range(0, 7):
        assert harmonic_dim(n, m) == laplacian_nullity(n, m)


def test_pascal_consistency_bigint():
    for n in range(2, 9):
        running = 0
        for m in range(0, 201):
            running += harmonic_dim(n, m)
            assert running == math.comb(n + m - 1, n - 1) + math.comb(n + m - 2, n - 1)


def test_harmonic_dim_rejects_bad_arguments():
    with pytest.raises(ValueError):
        harmonic_dim(0, 1)
    with pytest.raises(ValueError):
        harmonic_dim(3, -1)


# ---------------------------------------------------------------------------
# harmonic bases
# ---------------------------------------------------------------------------

def test_harmonic_basis_degree_zero_and_one():
    (one,) = harmonic_basis(2, 0)
    assert one.terms == {(0, 0): Fraction(1)}
    lin = harmonic_basis(2, 1)
    grid = monos(2, 1)
    vectors = [coeff_vector(p, grid) for p in lin]
    targets = [coeff_vector(HarmonicPoly.variable(2, i), grid) for i in range(2)]
    assert rank(vectors) == rank(vectors + targets) == 2


def test_harmonic_basis_degree_two_span():
    basis = harmonic_basis(2, 2)
    grid = monos(2, 2)
    x1sq_minus_x2sq = HarmonicPoly(2, {(2, 0): 1, (0, 2): -1})
    x1x2 = HarmonicPoly(2, {(1, 1): 1})
    vectors = [coeff_vector(p, grid) for p in basis]
    targets = [coeff_vector(q, grid) for q in (x1sq_minus_x2sq, x1x2)]
    assert len(basis) == 2
    assert rank(vectors) == rank(vectors + targets) == 2


@pytest.mark.parametrize("n,m_top", [(2, 60), (3, 14), (4, 8), (5, 6), (6, 5)])
def test_harmonic_basis_counts_and_exactness(n, m_top):
    for m in range(0, m_top + 1):
        basis = harmonic_basis(n, m)
        assert len(basis) == harmonic_dim(n, m)
        grid = monos(n, m)
        for p in basis:
            assert p.is_homogeneous(m)
            assert p.is_harmonic()
        assert rank([coeff_vector(p, grid) for p in basis]) == len(basis)


def test_harmonic_basis_cap():
    with pytest.raises(BasisSizeError):
        harmonic_basis(3, 700)
    with pytest.raises(ValueError):
        harmonic_basis(1, 3)


# ---------------------------------------------------------------------------
# polynomial plumbing
# ---------------------------------------------------------------------------

def test_poly_sphere_reduction():
    r2 = HarmonicPoly(3, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
    assert r2.reduce_on_sphere().terms == {(0, 0, 0): Fraction(1)}
    assert (r2 - HarmonicPoly.constant(3, 1)).vanishes_on_sphere()
    assert (r2 * r2).reduce_on_sphere().terms == {(0, 0, 0): Fraction(1)}


def test_poly_calculus():
    p = HarmonicPoly(2, {(3, 1): Fraction(1, 2)})
    assert p.partial(0).terms == {(2, 1): Fraction(3, 2)}
    assert p.x_dot_grad().terms == {(3, 1): Fraction(2)}
    assert p.evaluate([2, 3]) == Fraction(12)
    assert p.degree() == 4 and p.is_homogeneous(4)


# exact polynomials in three variables, constant terms included
_POLYS = st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * 3),
    st.fractions(min_value=-4, max_value=4, max_denominator=6), max_size=6,
).map(lambda terms: HarmonicPoly(3, terms))
# rational points on the unit sphere
_SPHERE = [(Fraction(3, 5), Fraction(4, 5), 0), (Fraction(2, 3), Fraction(-1, 3), Fraction(2, 3)),
           (Fraction(-2, 7), Fraction(3, 7), Fraction(6, 7)), (1, 0, 0)]


@given(_POLYS, _POLYS, st.sampled_from([0, 3, Fraction(-2, 7), 0.5]))
@settings(max_examples=60, deadline=None)
def test_poly_operations_return_clean_exact_terms(p, q, scalar):
    with_constant = p + HarmonicPoly.constant(3, 1)
    results = [p + q, p - q, -p, p * q, p * scalar, scalar * p, p * 0, p.partial(1),
               p.laplacian(), p.x_dot_grad(), with_constant.x_dot_grad(),
               p.times_one_minus_r2(), p.reduce_on_sphere()]
    for r in results:
        assert all(type(c) is Fraction and c for c in r.terms.values()), r
        assert HarmonicPoly(r.n, r.terms).terms == r.terms
    assert (p * 0).is_zero and (p - p).is_zero
    assert (0, 0, 0) not in with_constant.x_dot_grad().terms
    point = (Fraction(1, 2), Fraction(-2, 3), 3)
    assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)
    reduced = p.reduce_on_sphere()
    assert all(alpha[0] <= 1 for alpha in reduced.terms)
    assert all(reduced.evaluate(x) == p.evaluate(x) for x in _SPHERE)


def test_poly_operations_need_the_same_variable_count():
    for op in (lambda p, q: p + q, lambda p, q: p * q):
        with pytest.raises(ValueError):
            op(HarmonicPoly.variable(2, 0), HarmonicPoly.variable(3, 0))


@given(st.integers(0, 12), st.integers(0, 12))
@settings(max_examples=25, deadline=None)
def test_times_one_minus_r2_vanishes_on_sphere(i, j):
    p = HarmonicPoly(2, {(i, j): 1})
    assert p.times_one_minus_r2().vanishes_on_sphere()


# ---------------------------------------------------------------------------
# eigenpair verification
# ---------------------------------------------------------------------------

def test_eigenpair_constant_mode():
    check = verify_ball_eigenpair(2, 0, HarmonicPoly.constant(2, 1))
    assert check.all_ok
    # the hand computation behind it: lap((1-r^2)) = -4, inward slope 2 on the circle
    phi = HarmonicPoly.constant(2, 1).times_one_minus_r2()
    assert phi.laplacian().terms == {(0, 0): Fraction(-4)}
    assert (-phi.x_dot_grad()).reduce_on_sphere().terms == {(0, 0): Fraction(2)}


def test_eigenpair_linear_mode():
    psi = HarmonicPoly.variable(2, 0)
    assert verify_ball_eigenpair(2, 1, psi).all_ok
    phi = psi.times_one_minus_r2()
    assert phi.laplacian().terms == {(1, 0): Fraction(-8)}


def test_eigenpair_whole_basis_n3():
    for psi in harmonic_basis(3, 2):
        assert verify_ball_eigenpair(3, 2, psi).all_ok


@pytest.mark.parametrize("n,m", [(2, 17), (2, 60), (3, 9), (3, 20), (4, 5),
                                 (5, 4), (6, 3)] + [
    (n, m) for n, m_top in {2: 8, 3: 6, 4: 4, 5: 3}.items() for m in range(m_top + 1)])
def test_eigenpair_across_dimensions(n, m):
    basis = harmonic_basis(n, m)
    for psi in basis:
        assert verify_ball_eigenpair(n, m, psi).all_ok


@given(st.integers(2, 4), st.integers(0, 6), st.data())
@settings(max_examples=20, deadline=None)
def test_eigenpair_for_random_combinations(n, m, data):
    basis = harmonic_basis(n, m)
    weights = data.draw(st.lists(st.integers(-3, 3), min_size=len(basis),
                                 max_size=len(basis)))
    psi = HarmonicPoly.zero(n)
    for w, p in zip(weights, basis):
        psi = psi + w * p
    if psi.is_zero:
        return
    assert verify_ball_eigenpair(n, m, psi).all_ok


def test_eigenpair_rejections():
    with pytest.raises(ValueError):
        verify_ball_eigenpair(2, 2, HarmonicPoly(2, {(2, 0): 1}))  # not harmonic
    with pytest.raises(ValueError):
        verify_ball_eigenpair(2, 2, HarmonicPoly.variable(2, 0))  # wrong degree
    with pytest.raises(ValueError):
        verify_ball_eigenpair(3, 1, HarmonicPoly.variable(2, 0))  # wrong n
    with pytest.raises(ValueError):
        verify_ball_eigenpair(2, 0, HarmonicPoly.zero(2))


# ---------------------------------------------------------------------------
# radial verification for the disk flux problem
# ---------------------------------------------------------------------------

def test_radial_reference_values():
    u1, mu3, residual = radial_verify_p2(1)
    assert (u1, mu3, residual) == (Fraction(-1, 4), 4, 0)
    u1, mu3, residual = radial_verify_p2(2)
    assert (u1, mu3, residual) == (Fraction(-1, 12), 24, 0)
    _, mu3, residual = radial_verify_p2(10)
    assert mu3 == 2200 and residual == 0


def test_radial_triples_are_exact_fractions():
    for m in range(1, 301):
        triple = radial_verify_p2(m)
        assert triple == (Fraction(-1, 2 * m * (m + 1)), 2 * m * m * (m + 1), 0)
        assert all(type(x) is Fraction for x in triple)


def _radial_reference(m):
    """radial_verify_p2 as one Fraction per part: f(1), the Neumann value, the ratio
    and each part of the residual."""
    if m < 1:
        raise ValueError("need m >= 1")
    s = 4 * m * (m + 1)
    f = {m + 2: m, m: -(m + 2)}

    def d(p):
        return {k - 1: c * k for k, c in p.items() if k}

    df, ddf = d(f), d(d(f))
    ode = {}
    for k, c in ddf.items():
        ode[k + 2] = ode.get(k + 2, 0) + c
    for k, c in df.items():
        ode[k + 1] = ode.get(k + 1, 0) + c
    for k, c in f.items():
        ode[k] = ode.get(k, 0) - m * m * c
    ode[m + 2] = ode.get(m + 2, 0) - s
    f1 = Fraction(sum(f.values()), s)
    neumann = Fraction(sum(df.values()), s)
    ratio = Fraction(-m) / f1
    residual = (
        abs(neumann)
        + abs(f1 + Fraction(1, 2 * m * (m + 1)))
        + abs(ratio - 2 * m * m * (m + 1))
        + Fraction(sum(abs(c) for c in ode.values()), s)
    )
    return f1, ratio, residual


def test_radial_matches_the_fraction_reference():
    for m in range(1, 2001):
        triple = radial_verify_p2(m)
        assert triple == _radial_reference(m), m
        assert all(type(x) is Fraction for x in triple)


def test_radial_rejects_m_zero():
    with pytest.raises(ValueError):
        radial_verify_p2(0)


@pytest.mark.parametrize("m", [1.0, 2.5, 7.0])
def test_radial_rejects_a_float_degree(m):
    for verify in (radial_verify_p2, _radial_reference):
        with pytest.raises(TypeError):
            verify(m)


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

def test_ball_spectrum_examples():
    s = ball_spectrum_p1(2, 2)
    assert [(e.value, e.mult) for e in s.entries] == [(2, 1), (4, 2), (6, 2)]
    s = ball_spectrum_p1(3, 1)
    assert [(e.value, e.mult) for e in s.entries] == [(3, 1), (5, 3)]
    s = ball_spectrum_p1(7, 0)
    assert [(e.value, e.mult) for e in s.entries] == [(7, 1)]


def test_disk_p2_examples():
    s = disk_spectrum_p2(0)
    assert [(e.value, e.mult) for e in s.entries] == [(0, 1)]
    s = disk_spectrum_p2(1)
    assert s.entries[1].cube == 4
    assert s.entries[1].value == pytest.approx(1.587401051968199, rel=1e-15)
    s = disk_spectrum_p2(2)
    assert s.entries[2].cube == 24
    assert s.entries[2].value == pytest.approx(24 ** (1 / 3), rel=1e-15)


def test_disk_p2_cubes_exact_and_increasing():
    s = disk_spectrum_p2(300)
    values = [e.value for e in s.entries]
    assert values == sorted(values)
    for m, e in enumerate(s.entries):
        assert e.cube == 2 * m * m * (m + 1)


def test_disk_harmonic_examples():
    assert [(e.value, e.mult) for e in disk_spectrum_harmonic(0).entries] == [(0, 1)]
    s = disk_spectrum_harmonic(3)
    assert (3.0, 2) in [(e.value, e.mult) for e in s.entries]
    # separation-of-variables count: constant plus a cos/sin pair per degree
    assert count_upto(disk_spectrum_harmonic(40), 10.5) == 21


def test_spectrum_invariants():
    with pytest.raises(ValueError):
        Spectrum(ProblemKind.HARMONIC_STEKLOV, 2, (1.0, 1.0), (1, 1))
    with pytest.raises(ValueError):
        Spectrum(ProblemKind.NEUMANN_TRACE, 2, (0.0,), (1,))
    with pytest.raises(ValueError):
        Spectrum(ProblemKind.HARMONIC_STEKLOV, 2, (1.0,), (0,))
    with pytest.raises(ValueError):
        Spectrum(ProblemKind.HARMONIC_STEKLOV, 2, (-1.0,), (1,))
    with pytest.raises(ValueError, match="nonnegative"):
        Spectrum(ProblemKind.HARMONIC_STEKLOV, 2, (math.nan,), (1,))
    with pytest.raises(ValueError, match="exact cubes must be strictly increasing"):
        Spectrum(ProblemKind.DIRICHLET_TRACE, 2, (0.0, 1.0), (1, 2), (5, 4))
    with pytest.raises(ValueError):
        ball_spectrum_p1(1, 3)
    with pytest.raises(ValueError):
        disk_spectrum_p2(-1)


def test_spectrum_columns_must_have_equal_length():
    for columns in [((1.0, 2.0), (1,)), ((1.0,), (1, 2)),
                    ((0.0, 1.0), (1, 2), (0,)), ((0.0,), (1,), (0, 4))]:
        with pytest.raises(ValueError, match="equal length"):
            Spectrum(ProblemKind.DIRICHLET_TRACE, 2, *columns)


@pytest.mark.parametrize("columns", [
    ((0.0, 1.0), (1, 2), (0, None)), ((0.0, None), (1, 2)), ((0.0, 1.0), (None, 2)),
    ((0.0, "1"), (1, 2))])
def test_spectrum_refuses_entries_that_are_not_numbers(columns):
    with pytest.raises(ValueError, match="spectrum columns must hold numbers"):
        Spectrum(ProblemKind.DIRICHLET_TRACE, 2, *columns)


def test_spectrum_freezes_list_columns():
    from_lists = Spectrum(ProblemKind.DIRICHLET_TRACE, 2, [0.0, 1.0], [1, 2], [0, 4])
    from_tuples = Spectrum(ProblemKind.DIRICHLET_TRACE, 2, (0.0, 1.0), (1, 2), (0, 4))
    assert from_lists == from_tuples and hash(from_lists) == hash(from_tuples)
    assert all(type(c) is tuple for c in (from_lists.values, from_lists.mults, from_lists.cubes))
    # a tuple column is kept as it is
    values = (0.0, 1.0)
    assert Spectrum(ProblemKind.DIRICHLET_TRACE, 2, values, (1, 2)).values is values


def _closed_form_entries(name, m_max):
    """Reference (value, multiplicity, cube) records from the closed forms."""
    if name == "p1":
        return [(float(3 + 2 * m), harmonic_dim(3, m), None) for m in range(m_max + 1)]
    if name == "p2":
        return [(float(c) ** (1.0 / 3.0), 2 if c else 1, c)
                for c in [2 * m * m * (m + 1) for m in range(m_max + 1)]]
    return [(0.0, 1, None)] + [(float(m), 2, None) for m in range(1, m_max + 1)]


@pytest.mark.parametrize("name, build", [
    ("p1", lambda m_max: ball_spectrum_p1(3, m_max)),
    ("p2", disk_spectrum_p2),
    ("harmonic", disk_spectrum_harmonic),
])
def test_spectrum_entries_view(name, build):
    s = build(40)
    ref = _closed_form_entries(name, 40)
    view = s.entries
    assert len(view) == len(s.values) == 41
    assert list(view) == ref
    # iteration, indexing and slicing build the same records
    for records in (list(view), [view[i] for i in range(-41, 41)], view[:], view[::-3]):
        assert all(type(e) is SpectrumEntry for e in records)
    assert [view[i] for i in range(-41, 41)] == ref + ref
    assert view[0] == ref[0] and view[7] == ref[7] and view[-1] == ref[-1]
    assert view[-41] == ref[0] and view[2:5] == tuple(ref[2:5])
    assert view[:] == tuple(ref) and view[::-3] == tuple(ref[::-3]) and view[5:2] == ()
    assert all(e.cube is None for e in view) == (name != "p2")
    assert (view[-1].value, view[-1].mult, view[-1].cube) == ref[-1]
    with pytest.raises(IndexError):
        view[41]
    assert list(reversed(view)) == ref[::-1] and ref[3] in view


@pytest.mark.parametrize("spectrum", [ball_spectrum_p1(3, 50), disk_spectrum_p2(50),
                                      disk_spectrum_harmonic(50)])
def test_spectrum_holds_no_entry_records(spectrum):
    fields = [getattr(spectrum, f) for f in ("values", "mults", "cubes", "cumulative")]
    assert not any(type(x) is SpectrumEntry for f in fields for x in gc.get_referents(f))
    assert not any(type(x) is SpectrumEntry for x in gc.get_referents(vars(spectrum)))


def test_harmonic_basis_matches_the_public_constructor_build():
    def reference(n, start, beta):
        # the build through the public constructor, one checked product per x_1-degree
        c = HarmonicPoly(n, {(0, *beta): Fraction(1)})
        k = start
        p = HarmonicPoly.monomial((k,) + (0,) * (n - 1)) * c
        while True:
            c = c.laplacian() * Fraction(-1, (k + 1) * (k + 2))
            k += 2
            if c.is_zero:
                return p
            p = p + HarmonicPoly.monomial((k,) + (0,) * (n - 1)) * c

    for n, m in [(2, 0), (2, 5), (3, 4), (4, 3), (5, 4)]:
        expected = [reference(n, start, beta) for start in (0, 1) if m >= start
                    for beta in _degree_exponents(n - 1, m - start)]
        got = harmonic_basis(n, m)
        assert got == expected
        for p, q in zip(got, expected):
            assert list(p.terms.items()) == list(q.terms.items())
            assert all(type(c) is Fraction for c in p.terms.values())


def test_spectrum_cumulative_counts():
    s = disk_spectrum_p2(3)
    assert s.cumulative == (1, 3, 5, 7)
    assert ball_spectrum_p1(3, 2).cumulative == (1, 4, 9)
    assert "cumulative" not in repr(s) and s == disk_spectrum_p2(3)
