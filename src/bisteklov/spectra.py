"""Closed-form Steklov-type spectra on the unit ball and disk.

Everything here is exact: polynomials carry rational coefficients, spectra
carry integer eigenvalue data (problem-2 eigenvalues are stored as exact
integer cubes next to their floating roots), and the eigenpair checks reduce
to rational identities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping

Exponent = tuple[int, ...]

_ZERO = Fraction(0)


class BasisSizeError(RuntimeError):
    """Monomial workload above the configured cap."""


class ProblemKind(Enum):
    """Which boundary condition carries the spectral parameter."""

    NEUMANN_TRACE = "p1"      # zero trace, eigenvalue multiplies the normal derivative
    DIRICHLET_TRACE = "p2"    # zero normal derivative, cubed eigenvalue multiplies the trace
    HARMONIC_STEKLOV = "harmonic"


# ---------------------------------------------------------------------------
# exact multivariate polynomials
# ---------------------------------------------------------------------------

def _accumulate(terms: dict, alpha: Exponent, coeff: Fraction) -> None:
    new = terms.get(alpha, _ZERO) + coeff
    if new:
        terms[alpha] = new
    else:
        terms.pop(alpha, None)


@dataclass(frozen=True)
class HarmonicPoly:
    """Polynomial in ``n`` variables with exact rational coefficients.

    ``terms`` maps exponent tuples to nonzero coefficients.  The class is a
    general-purpose exact polynomial; the name records its main job of
    holding solid harmonics and their eigenfunction products.
    """

    n: int
    terms: Mapping[Exponent, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one variable")
        clean = {}
        for alpha, c in self.terms.items():
            alpha = tuple(int(a) for a in alpha)
            if len(alpha) != self.n or any(a < 0 for a in alpha):
                raise ValueError(f"bad exponent {alpha} for n={self.n}")
            c = Fraction(c)
            if c:
                _accumulate(clean, alpha, c)
        object.__setattr__(self, "terms", clean)

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
        out = dict(self.terms)
        for alpha, c in other.terms.items():
            _accumulate(out, alpha, c)
        return HarmonicPoly(self.n, out)

    def __neg__(self) -> "HarmonicPoly":
        return HarmonicPoly(self.n, {a: -c for a, c in self.terms.items()})

    def __sub__(self, other: "HarmonicPoly") -> "HarmonicPoly":
        return self + (-other)

    def __mul__(self, other) -> "HarmonicPoly":
        if isinstance(other, HarmonicPoly):
            out: dict = {}
            for a, ca in self.terms.items():
                for b, cb in other.terms.items():
                    _accumulate(out, tuple(x + y for x, y in zip(a, b)), ca * cb)
            return HarmonicPoly(self.n, out)
        return HarmonicPoly(self.n, {a: c * Fraction(other) for a, c in self.terms.items()})

    __rmul__ = __mul__

    # -- calculus ------------------------------------------------------

    def partial(self, i: int) -> "HarmonicPoly":
        out: dict = {}
        for alpha, c in self.terms.items():
            if alpha[i]:
                beta = list(alpha)
                beta[i] -= 1
                _accumulate(out, tuple(beta), c * alpha[i])
        return HarmonicPoly(self.n, out)

    def laplacian(self) -> "HarmonicPoly":
        out: dict = {}
        for alpha, c in self.terms.items():
            for i, ai in enumerate(alpha):
                if ai >= 2:
                    beta = list(alpha)
                    beta[i] -= 2
                    _accumulate(out, tuple(beta), c * ai * (ai - 1))
        return HarmonicPoly(self.n, out)

    def x_dot_grad(self) -> "HarmonicPoly":
        """The radial operator sum_i x_i d/dx_i (scales each term by its degree)."""
        return HarmonicPoly(self.n, {a: c * sum(a) for a, c in self.terms.items()})

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
        return HarmonicPoly(self.n, out)

    def reduce_on_sphere(self) -> "HarmonicPoly":
        """Canonical remainder modulo (|x|^2 - 1).

        Substitutes x_1^2 -> 1 - x_2^2 - ... - x_n^2 until no term carries a
        power of x_1 above one; every substitution lowers the x_1-degree of
        the touched terms by two, so the rewrite terminates.  The remainder
        is zero exactly when the polynomial vanishes on the unit sphere.
        """
        work = dict(self.terms)
        done: dict = {}
        while work:
            alpha = max(work, key=lambda a: (a[0], a))
            coeff = work.pop(alpha)
            if alpha[0] < 2:
                _accumulate(done, alpha, coeff)
                continue
            base = (alpha[0] - 2,) + alpha[1:]
            _accumulate(work, base, coeff)
            for j in range(1, self.n):
                bumped = list(base)
                bumped[j] += 2
                _accumulate(work, tuple(bumped), -coeff)
        return HarmonicPoly(self.n, done)

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
    # Solve Laplace's equation degree by degree in x_1: with p = sum_k x1^k c_k
    # the harmonic constraint forces c_{k+2} = -lap(c_k) / ((k+1)(k+2)).
    c = HarmonicPoly(n, {(0, *beta): Fraction(1)})
    k = start
    p = HarmonicPoly.monomial((k,) + (0,) * (n - 1)) * c
    while True:
        c = c.laplacian() * Fraction(-1, (k + 1) * (k + 2))
        k += 2
        if c.is_zero:
            return p
        p = p + HarmonicPoly.monomial((k,) + (0,) * (n - 1)) * c


def harmonic_basis(n: int, m: int, max_monomials: int = 200_000) -> list[HarmonicPoly]:
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
    if math.comb(n + m - 1, n - 1) > max_monomials:
        raise BasisSizeError(
            f"monomial basis of degree {m} in {n} variables exceeds cap {max_monomials}"
        )
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

@dataclass(frozen=True)
class SpectrumEntry:
    """One eigenvalue with multiplicity; ``cube`` keeps the exact integer cube
    for eigenvalues that are only known as cube roots."""

    value: float
    mult: int
    cube: int | None = None


@dataclass(frozen=True)
class Spectrum:
    """Sorted eigenvalue/multiplicity list for one problem kind."""

    problem: ProblemKind
    n: int
    entries: tuple[SpectrumEntry, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dimension must be >= 1")
        prev = None
        for e in self.entries:
            if e.mult < 1:
                raise ValueError("multiplicities must be positive")
            if e.value < 0:
                raise ValueError("eigenvalues must be nonnegative")
            if self.problem is ProblemKind.NEUMANN_TRACE and e.value <= 0:
                raise ValueError("problem-1 eigenvalues must be positive")
            if prev is not None and not e.value > prev:
                raise ValueError("eigenvalues must be strictly increasing")
            prev = e.value


def ball_spectrum_p1(n: int, m_max: int) -> Spectrum:
    """Problem-1 spectrum of the unit ball with unit weight: value n + 2m,
    multiplicity equal to the solid-harmonic dimension."""
    if n < 2:
        raise ValueError("need n >= 2")
    if m_max < 0:
        raise ValueError("need m_max >= 0")
    entries = tuple(
        SpectrumEntry(float(n + 2 * m), harmonic_dim(n, m)) for m in range(m_max + 1)
    )
    return Spectrum(ProblemKind.NEUMANN_TRACE, n, entries)


def disk_spectrum_p2(m_max: int) -> Spectrum:
    """Problem-2 spectrum of the unit disk: one zero eigenvalue, then double
    eigenvalues whose exact cubes are 2 m^2 (m+1)."""
    if m_max < 0:
        raise ValueError("need m_max >= 0")
    entries = [SpectrumEntry(0.0, 1, cube=0)]
    for m in range(1, m_max + 1):
        cube = 2 * m * m * (m + 1)
        entries.append(SpectrumEntry(float(cube) ** (1.0 / 3.0), 2, cube=cube))
    return Spectrum(ProblemKind.DIRICHLET_TRACE, 2, tuple(entries))


def disk_spectrum_harmonic(m_max: int) -> Spectrum:
    """Steklov spectrum of the harmonic problem on the unit disk: 0, then each
    positive integer twice."""
    if m_max < 0:
        raise ValueError("need m_max >= 0")
    entries = [SpectrumEntry(0.0, 1)]
    entries += [SpectrumEntry(float(m), 2) for m in range(1, m_max + 1)]
    return Spectrum(ProblemKind.HARMONIC_STEKLOV, 2, tuple(entries))


# ---------------------------------------------------------------------------
# exact eigenpair verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EigenpairCheck:
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
    # f(r) = r^(m+2) / (4(m+1)) - (m+2) r^m / (4m(m+1)), as {power: coefficient}
    f = {m + 2: Fraction(1, 4 * (m + 1)), m: Fraction(-(m + 2), 4 * m * (m + 1))}

    def d(p):
        return {k - 1: c * k for k, c in p.items() if k}

    df, ddf = d(f), d(d(f))
    # r^2 f'' + r f' - m^2 f - r^(m+2) must vanish termwise
    ode: dict[int, Fraction] = {}
    for k, c in ddf.items():
        ode[k + 2] = ode.get(k + 2, _ZERO) + c
    for k, c in df.items():
        ode[k + 1] = ode.get(k + 1, _ZERO) + c
    for k, c in f.items():
        ode[k] = ode.get(k, _ZERO) - m * m * c
    ode[m + 2] = ode.get(m + 2, _ZERO) - 1

    at_one = lambda p: sum(p.values(), _ZERO)
    f1 = at_one(f)
    neumann = at_one(df)
    # inward normal derivative of the source harmonic is -m at r=1
    ratio = Fraction(-m) / f1
    residual = (
        abs(neumann)
        + abs(f1 + Fraction(1, 2 * m * (m + 1)))
        + abs(ratio - 2 * m * m * (m + 1))
        + sum(abs(c) for c in ode.values())
    )
    return f1, ratio, residual
