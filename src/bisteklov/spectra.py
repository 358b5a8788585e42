"""Closed-form Steklov-type spectra on the unit ball and disk.

Everything here is exact: polynomials carry rational coefficients, spectra
carry integer eigenvalue data (problem-2 eigenvalues are stored as exact
integer cubes next to their floating roots), and the eigenpair checks reduce
to rational identities.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from enum import Enum
from fractions import Fraction
from functools import partial
from itertools import accumulate, islice, repeat
from operator import add, gt
from typing import Iterable, Mapping, NamedTuple

from .records import Record

Exponent = tuple[int, ...]

_ZERO = Fraction(0)


class BasisSizeError(RuntimeError):
    """Monomial basis above the cap of 200 000 monomials."""


class ProblemKind(Enum):
    """Which boundary condition carries the spectral parameter."""

    NEUMANN_TRACE = "p1"      # zero trace, eigenvalue multiplies the normal derivative
    DIRICHLET_TRACE = "p2"    # zero normal derivative, cubed eigenvalue multiplies the trace
    HARMONIC_STEKLOV = "harmonic"


# ---------------------------------------------------------------------------
# exact multivariate polynomials
# ---------------------------------------------------------------------------

def _accumulate(terms: dict, alpha: Exponent, coeff) -> None:
    """Add a nonzero coefficient to ``terms[alpha]``, dropping a sum that cancels."""
    old = terms.get(alpha)
    if old is None:
        terms[alpha] = coeff
        return
    new = old + coeff
    if new:
        terms[alpha] = new
    else:
        del terms[alpha]


class HarmonicPoly(Record):
    """Polynomial in ``n`` variables with exact rational coefficients.

    ``terms`` maps exponent tuples to nonzero coefficients.  The class is a
    general-purpose exact polynomial; the name records its main job of
    holding solid harmonics and their eigenfunction products.
    """

    __slots__ = _fields = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[Exponent, Fraction] | None = None):
        if n < 1:
            raise ValueError("need at least one variable")
        clean = {}
        for alpha, c in (terms or {}).items():
            alpha = tuple(int(a) for a in alpha)
            if len(alpha) != n or any(a < 0 for a in alpha):
                raise ValueError(f"bad exponent {alpha} for n={n}")
            c = Fraction(c)
            if c:
                _accumulate(clean, alpha, c)
        self._set(n=n, terms=clean)

    def _new(self, terms: dict) -> "HarmonicPoly":
        # The operations below build ``terms`` from clean ones: exponent tuples
        # of length n, nonzero coefficients.  They skip the public checks.
        # Integer coefficients pass through unchanged, which lets
        # verify_ball_eigenpair run on a denominator-free multiple of psi.
        poly = object.__new__(HarmonicPoly)
        poly._set(n=self.n, terms=terms)
        return poly

    def _check_same_n(self, other: "HarmonicPoly") -> None:
        if other.n != self.n:
            raise ValueError(f"polynomials in {self.n} and {other.n} variables")

    # -- constructors --------------------------------------------------

    @staticmethod
    def zero(n: int) -> "HarmonicPoly":
        return HarmonicPoly(n, {})

    @staticmethod
    def constant(n: int, c) -> "HarmonicPoly":
        return HarmonicPoly(n, {(0,) * n: Fraction(c)})

    @staticmethod
    def monomial(alpha: Exponent, c=1) -> "HarmonicPoly":
        return HarmonicPoly(len(alpha), {tuple(alpha): Fraction(c)})

    @staticmethod
    def variable(n: int, i: int) -> "HarmonicPoly":
        alpha = [0] * n
        alpha[i] = 1
        return HarmonicPoly(n, {tuple(alpha): Fraction(1)})

    # -- ring operations -----------------------------------------------

    def __add__(self, other: "HarmonicPoly") -> "HarmonicPoly":
        self._check_same_n(other)
        out = dict(self.terms)
        for alpha, c in other.terms.items():
            _accumulate(out, alpha, c)
        return self._new(out)

    def __neg__(self) -> "HarmonicPoly":
        return self._new({a: -c for a, c in self.terms.items()})

    def __sub__(self, other: "HarmonicPoly") -> "HarmonicPoly":
        return self + (-other)

    def __mul__(self, other) -> "HarmonicPoly":
        if isinstance(other, HarmonicPoly):
            self._check_same_n(other)
            out: dict = {}
            for a, ca in self.terms.items():
                for b, cb in other.terms.items():
                    _accumulate(out, tuple(map(add, a, b)), ca * cb)
            return self._new(out)
        s = Fraction(other)
        if not s:
            return self._new({})
        if s.denominator == 1:  # keeps integer coefficients integral
            s = s.numerator
        return self._new({a: c * s for a, c in self.terms.items()})

    __rmul__ = __mul__

    # -- calculus ------------------------------------------------------

    def partial(self, i: int) -> "HarmonicPoly":
        out = {}
        for alpha, c in self.terms.items():
            if alpha[i]:  # distinct exponents stay distinct
                beta = list(alpha)
                beta[i] -= 1
                out[tuple(beta)] = c * alpha[i]
        return self._new(out)

    def laplacian(self) -> "HarmonicPoly":
        out: dict = {}
        for alpha, c in self.terms.items():
            for i, ai in enumerate(alpha):
                if ai >= 2:
                    beta = list(alpha)
                    beta[i] -= 2
                    _accumulate(out, tuple(beta), c * ai * (ai - 1))
        return self._new(out)

    def x_dot_grad(self) -> "HarmonicPoly":
        """The radial operator sum_i x_i d/dx_i (scales each term by its degree)."""
        return self._new({a: c * d for a, c in self.terms.items() if (d := sum(a))})

    # -- structure queries ----------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((sum(a) for a in self.terms), default=-1)

    def is_homogeneous(self, m: int) -> bool:
        return all(sum(a) == m for a in self.terms) and (self.terms or m == 0)

    def is_harmonic(self) -> bool:
        return self.laplacian().is_zero

    def evaluate(self, point: Iterable) -> Fraction:
        vals = [Fraction(p) for p in point]
        total = _ZERO
        for alpha, c in self.terms.items():
            v = c
            for x, a in zip(vals, alpha):
                v *= x ** a
            total += v
        return total

    # -- the unit-sphere quotient ----------------------------------------

    def times_one_minus_r2(self) -> "HarmonicPoly":
        """Multiply by (1 - |x|^2)."""
        out = dict(self.terms)
        for alpha, c in self.terms.items():
            for i in range(self.n):
                beta = list(alpha)
                beta[i] += 2
                _accumulate(out, tuple(beta), -c)
        return self._new(out)

    def reduce_on_sphere(self) -> "HarmonicPoly":
        """Canonical remainder modulo (|x|^2 - 1).

        Substitutes x_1^2 -> 1 - x_2^2 - ... - x_n^2 until no term carries a
        power of x_1 above one.  A substitution moves a term two x_1-degrees
        down, so the terms are grouped by x_1-degree and each group, from the
        top, is rewritten once, after everything above it has landed in it.
        The remainder is zero exactly when the polynomial vanishes on the
        unit sphere.
        """
        by_degree: dict[int, dict] = {}
        for alpha, c in self.terms.items():
            by_degree.setdefault(alpha[0], {})[alpha] = c
        for d in range(max(by_degree, default=0), 1, -1):
            lower = by_degree.setdefault(d - 2, {})
            for alpha, coeff in by_degree.pop(d, {}).items():
                base = (d - 2,) + alpha[1:]
                _accumulate(lower, base, coeff)
                for j in range(1, self.n):
                    bumped = list(base)
                    bumped[j] += 2
                    _accumulate(lower, tuple(bumped), -coeff)
        done = by_degree.get(0, {})
        done.update(by_degree.get(1, {}))
        return self._new(done)

    def vanishes_on_sphere(self) -> bool:
        return self.reduce_on_sphere().is_zero

    def __repr__(self) -> str:
        if self.is_zero:
            return "HarmonicPoly(0)"
        bits = []
        for alpha in sorted(self.terms, reverse=True):
            mono = "*".join(f"x{i + 1}^{a}" for i, a in enumerate(alpha) if a) or "1"
            bits.append(f"{self.terms[alpha]}*{mono}")
        return "HarmonicPoly(" + " + ".join(bits) + ")"


# ---------------------------------------------------------------------------
# solid harmonics
# ---------------------------------------------------------------------------

def harmonic_dim(n: int, m: int) -> int:
    """Dimension of the degree-m harmonic homogeneous polynomials in n variables."""
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    if n == 1:
        return 1 if m <= 1 else 0
    if n == 2:
        return 1 if m == 0 else 2
    num = (2 * m + n - 2) * math.comb(m + n - 3, n - 3)
    q, r = divmod(num, n - 2)
    assert r == 0
    return q


def _degree_exponents(nvars: int, m: int) -> list[tuple[int, ...]]:
    if nvars == 1:
        return [(m,)]
    out = []
    for k in range(m, -1, -1):
        out.extend((k, *rest) for rest in _degree_exponents(nvars - 1, m - k))
    return out


def _harmonic_extension(n: int, start: int, beta: Exponent) -> HarmonicPoly:
    # Solve Laplace's equation degree by degree in x_1: with p = sum_k x1^k c_k, each
    # c_k free of x_1, harmonicity forces c_{k+2} = -lap(c_k) / ((k+1)(k+2)).  The
    # integer multiples N_k = (k!/start!) c_k obey N_{k+2} = -lap(N_k), so the loop runs
    # on integers and divides once per term.
    c = HarmonicPoly(n)._new({(0, *beta): 1})
    terms, k, scale = {}, start, 1
    while not c.is_zero:
        terms.update(((k, *alpha[1:]), Fraction(coeff, scale)) for alpha, coeff in c.terms.items())
        c = -c.laplacian()
        scale *= (k + 1) * (k + 2)
        k += 2
    return c._new(terms)


def harmonic_basis(n: int, m: int) -> list[HarmonicPoly]:
    """Exact basis of the degree-m harmonic polynomials in n >= 2 variables.

    The basis spans the nullspace of the Laplacian on degree-m monomials; it
    is computed by eliminating along the x_1-degree, which triangularises
    that nullspace problem: the coefficients of x_1^0 and x_1^1 are free and
    everything above them is determined.  Each returned polynomial is exactly
    harmonic and homogeneous; there are exactly ``harmonic_dim(n, m)`` of them.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if m < 0:
        raise ValueError("need m >= 0")
    if math.comb(n + m - 1, n - 1) > 200_000:
        raise BasisSizeError(f"monomial basis of degree {m} in {n} variables exceeds cap 200000")
    basis = []
    for start in (0, 1):
        if m - start < 0:
            continue
        for beta in _degree_exponents(n - 1, m - start):
            basis.append(_harmonic_extension(n, start, beta))
    return basis


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

class SpectrumEntry(NamedTuple):
    """One eigenvalue with multiplicity; ``cube`` keeps the exact integer cube
    for eigenvalues that are only known as cube roots."""

    value: float
    mult: int
    cube: int | None = None


# a SpectrumEntry from one (value, mult, cube) row, built by tuple's C constructor
_entry = partial(tuple.__new__, SpectrumEntry)


def _entry_rows(values, mults, cubes):
    return map(_entry, zip(values, mults, repeat(None) if cubes is None else cubes))


class _Entries(Sequence):
    """Read-only view of a spectrum's columns as ``SpectrumEntry`` records,
    each built when it is read."""

    __slots__ = ("_columns",)

    def __init__(self, values: tuple, mults: tuple, cubes: tuple | None):
        self._columns = (values, mults, cubes)

    def __len__(self) -> int:
        return len(self._columns[0])

    def __getitem__(self, i):
        values, mults, cubes = self._columns
        if isinstance(i, slice):
            return tuple(_entry_rows(values[i], mults[i], None if cubes is None else cubes[i]))
        return _entry((values[i], mults[i], None if cubes is None else cubes[i]))

    def __iter__(self):
        return _entry_rows(*self._columns)


class Spectrum(Record):
    """Sorted eigenvalues of one problem kind, stored as columns: ``values[i]``
    has multiplicity ``mults[i]`` and exact integer cube ``cubes[i]``, or
    ``cubes`` is None.  ``cumulative[i]`` counts the eigenvalues, with
    multiplicity, through ``values[i]``.  ``entries`` is a read-only view that
    builds each ``SpectrumEntry`` when read; the spectrum holds none."""

    # no __slots__: a spectrum keeps its columns in a __dict__, which vars() lists
    _fields = ("problem", "n", "values", "mults", "cubes")

    def __init__(self, problem: ProblemKind, n: int, values: Sequence[float],
                 mults: Sequence[int], cubes: Sequence[int] | None = None):
        if n < 1:
            raise ValueError("dimension must be >= 1")
        # tuple() returns a tuple column as it is and freezes any other sequence
        values, mults = tuple(values), tuple(mults)
        cubes = None if cubes is None else tuple(cubes)
        if len(mults) != len(values) or (cubes is not None and len(cubes) != len(values)):
            raise ValueError("values, multiplicities and cubes must have equal length")
        try:
            if min(mults, default=1) < 1:
                raise ValueError("multiplicities must be positive")
            # a NaN fails these comparisons, and once the values increase the
            # first one is the least
            if not all(map(gt, islice(values, 1, None), values)):
                raise ValueError("eigenvalues must be strictly increasing")
            if values and not values[0] >= 0:
                raise ValueError("eigenvalues must be nonnegative")
            if values and problem is ProblemKind.NEUMANN_TRACE and not values[0] > 0:
                raise ValueError("problem-1 eigenvalues must be positive")
            if cubes is not None and not all(map(gt, islice(cubes, 1, None), cubes)):
                raise ValueError("exact cubes must be strictly increasing")
        except TypeError:  # None or another entry that does not compare with numbers
            raise ValueError("spectrum columns must hold numbers") from None
        self._set(problem=problem, n=n, values=values, mults=mults, cubes=cubes,
                  cumulative=tuple(accumulate(mults)))

    @property
    def entries(self) -> Sequence[SpectrumEntry]:
        return _Entries(self.values, self.mults, self.cubes)


def ball_spectrum_p1(n: int, m_max: int) -> Spectrum:
    """Problem-1 spectrum of the unit ball with unit weight: value n + 2m,
    multiplicity equal to the solid-harmonic dimension."""
    if n < 2:
        raise ValueError("need n >= 2")
    if m_max < 0:
        raise ValueError("need m_max >= 0")
    degrees = range(m_max + 1)
    return Spectrum(ProblemKind.NEUMANN_TRACE, n, tuple([float(n + 2 * m) for m in degrees]),
                    tuple([harmonic_dim(n, m) for m in degrees]))


def disk_spectrum_p2(m_max: int) -> Spectrum:
    """Problem-2 spectrum of the unit disk: one zero eigenvalue, then double
    eigenvalues whose exact cubes are 2 m^2 (m+1)."""
    if m_max < 0:
        raise ValueError("need m_max >= 0")
    cubes = tuple([2 * m * m * (m + 1) for m in range(m_max + 1)])
    values = tuple([float(cube) ** (1.0 / 3.0) for cube in cubes])
    return Spectrum(ProblemKind.DIRICHLET_TRACE, 2, values, (1,) + (2,) * m_max, cubes)


def disk_spectrum_harmonic(m_max: int) -> Spectrum:
    """Steklov spectrum of the harmonic problem on the unit disk: 0, then each
    positive integer twice."""
    if m_max < 0:
        raise ValueError("need m_max >= 0")
    return Spectrum(ProblemKind.HARMONIC_STEKLOV, 2, tuple(map(float, range(m_max + 1))),
                    (1,) + (2,) * m_max)


# ---------------------------------------------------------------------------
# exact eigenpair verification
# ---------------------------------------------------------------------------

class EigenpairCheck(NamedTuple):
    """Three exact booleans for a candidate ball eigenfunction."""

    biharmonic: bool          # fourth-order equation holds identically
    zero_trace: bool          # candidate vanishes on the unit sphere
    eigen_identity: bool      # boundary eigenvalue relation holds on the sphere

    @property
    def all_ok(self) -> bool:
        return self.biharmonic and self.zero_trace and self.eigen_identity


def verify_ball_eigenpair(n: int, m: int, psi: HarmonicPoly) -> EigenpairCheck:
    """Exactly check that (1 - |x|^2) * psi is a problem-1 eigenfunction on the
    unit ball for the eigenvalue n + 2m.

    The boundary normal is the inward one, so on the unit sphere the normal
    derivative is minus the radial operator.  All three checks run in exact
    rational arithmetic; ``psi`` must be harmonic and homogeneous of degree m.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if psi.n != n:
        raise ValueError(f"psi has {psi.n} variables, expected {n}")
    if psi.is_zero or not psi.is_homogeneous(m):
        raise ValueError(f"psi must be nonzero and homogeneous of degree {m}")
    # every check is linear in psi, so they run on its multiple by the lcm of
    # its denominators, whose coefficients are integers
    scale = math.lcm(*(c.denominator for c in psi.terms.values()))
    psi = psi._new({a: c.numerator * (scale // c.denominator) for a, c in psi.terms.items()})
    if not psi.is_harmonic():
        raise ValueError("psi must be exactly harmonic")

    lam = n + 2 * m
    phi = psi.times_one_minus_r2()
    lap = phi.laplacian()
    biharmonic = lap.laplacian().is_zero
    zero_trace = phi.vanishes_on_sphere()
    # inward normal: d/dnu = -x.grad on the sphere, so the eigenvalue relation
    # lap(phi) + lam * d(phi)/dnu = 0 reads lap(phi) - lam * x.grad(phi) = 0.
    eigen = (lap - lam * phi.x_dot_grad()).vanishes_on_sphere()
    return EigenpairCheck(biharmonic, zero_trace, eigen)


def radial_verify_p2(m: int) -> tuple[Fraction, Fraction, Fraction]:
    """Exact radial verification of the disk problem-2 eigenvalues.

    Solves the radial reduction f'' + f'/r - m^2 f / r^2 = r^m with f'(1) = 0
    in closed form, then returns (f(1), eigenvalue cube, residual).  The
    residual aggregates the Neumann condition, the boundary value, the
    eigenvalue ratio against 2 m^2 (m+1), and the radial equation itself; it
    must be exactly zero.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    # f(r) = r^(m+2) / (4(m+1)) - (m+2) r^m / (4m(m+1)); the checks run on
    # s * f with s = 4m(m+1), as {power: integer coefficient}
    s = 4 * m * (m + 1)
    f = {m + 2: m, m: -(m + 2)}

    def d(p):
        return {k - 1: c * k for k, c in p.items() if k}

    df, ddf = d(f), d(d(f))
    # s * (r^2 f'' + r f' - m^2 f - r^(m+2)) must vanish termwise
    ode: dict[int, int] = {}
    for k, c in ddf.items():
        ode[k + 2] = ode.get(k + 2, 0) + c
    for k, c in df.items():
        ode[k + 1] = ode.get(k + 1, 0) + c
    for k, c in f.items():
        ode[k] = ode.get(k, 0) - m * m * c
    ode[m + 2] = ode.get(m + 2, 0) - s

    # f(1), f'(1) and the radial equation are integers over s; with F = s f(1) the
    # eigenvalue ratio is -m s / F, so the residual has the denominator s |F|
    f_1, df_1 = sum(f.values()), sum(df.values())
    cube = 2 * m * m * (m + 1)
    # inward normal derivative of the source harmonic is -m at r=1
    ratio = Fraction(-m * s, f_1)
    # |f(1) + 1/(2m(m+1))| = |F + 2| / s, and |ratio - cube| = |m s + cube F| / |F|
    residual = Fraction(
        (abs(df_1) + abs(f_1 + 2) + sum(abs(c) for c in ode.values())) * abs(f_1)
        + abs(m * s + cube * f_1) * s,
        s * abs(f_1))
    return Fraction(f_1, s), ratio, residual
