"""Command-line front end: CSV tables for spectra, counting laws, sharpness
studies, symbol evaluation, and half-space verification.

Exit codes: 0 success, 2 validation failure, 3 numerical failure.  Output is
deterministic for a fixed configuration (Monte Carlo is seeded); reals are
written with 17 significant digits.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from array import array
from itertools import chain, islice, starmap
from typing import Callable, Iterable, NamedTuple

from . import counting, spectra, symbols
from .spectra import ProblemKind


# ---------------------------------------------------------------------------
# weight expressions: constants, t/theta, +, -, *, cos, sin, parentheses
# ---------------------------------------------------------------------------

class WeightExpr:
    """Tiny arithmetic expression over the boundary parameter."""

    # nesting of parentheses, calls, unary minus and binary operators; deeper
    # input would hit Python's recursion limit in the parser or in the closures
    MAX_DEPTH = 100

    def __init__(self, text: str):
        self.text = text
        self._uses_param = False
        self._tokens = self._tokenize(text)
        self._pos = 0
        self.fn = self._parse_expr()
        if self._pos != len(self._tokens):
            raise ValueError(f"trailing input in weight expression: {text!r}")

    @property
    def is_constant(self) -> bool:
        return not self._uses_param

    @staticmethod
    def _tokenize(text: str) -> list[str]:
        tokens, i = [], 0
        while i < len(text):
            c = text[i]
            if c.isspace():
                i += 1
            elif c in "+-*()":
                tokens.append(c)
                i += 1
            elif c.isdigit() or c == ".":
                j = i
                while j < len(text) and (text[j].isdigit() or text[j] in ".eE"
                                         or (text[j] in "+-" and text[j - 1] in "eE")):
                    j += 1
                tokens.append(text[i:j])
                i = j
            elif c.isalpha():
                j = i
                while j < len(text) and text[j].isalpha():
                    j += 1
                tokens.append(text[i:j])
                i = j
            else:
                raise ValueError(f"bad character {c!r} in weight expression")
        return tokens

    def _peek(self):
        return self._tokens[self._pos] if self._pos < len(self._tokens) else None

    def _take(self, expected=None):
        tok = self._peek()
        if tok is None or (expected is not None and tok != expected):
            raise ValueError(f"malformed weight expression {self.text!r}")
        self._pos += 1
        return tok

    def _parse_expr(self, depth: int = 0) -> Callable[[float], float]:
        value = self._parse_term(depth)
        while self._peek() in ("+", "-"):
            op = self._take()
            depth = self._deeper(depth)  # each operator nests the closure once more
            rhs = self._parse_term(depth)
            lhs = value
            value = ((lambda t, a=lhs, b=rhs: a(t) + b(t)) if op == "+"
                     else (lambda t, a=lhs, b=rhs: a(t) - b(t)))
        return value

    def _parse_term(self, depth: int) -> Callable[[float], float]:
        value = self._parse_unary(depth)
        while self._peek() == "*":
            self._take()
            depth = self._deeper(depth)
            rhs = self._parse_unary(depth)
            lhs = value
            value = lambda t, a=lhs, b=rhs: a(t) * b(t)
        return value

    def _deeper(self, depth: int) -> int:
        if depth >= self.MAX_DEPTH:
            raise ValueError(f"weight expression nested deeper than {self.MAX_DEPTH} levels")
        return depth + 1

    def _parse_unary(self, depth: int) -> Callable[[float], float]:
        if self._peek() == "-":
            self._take()
            inner = self._parse_unary(self._deeper(depth))
            return lambda t, a=inner: -a(t)
        return self._parse_atom(depth)

    def _parse_atom(self, depth: int) -> Callable[[float], float]:
        tok = self._take()
        if tok == "(":
            inner = self._parse_expr(self._deeper(depth))
            self._take(")")
            return inner
        if tok in ("t", "theta"):
            self._uses_param = True
            return lambda t: t
        if tok == "pi":
            return lambda t: math.pi
        if tok in ("cos", "sin"):
            self._take("(")
            inner = self._parse_expr(self._deeper(depth))
            self._take(")")
            f = math.cos if tok == "cos" else math.sin
            return lambda t, a=inner, f=f: f(a(t))
        try:
            value = float(tok)
        except ValueError:
            raise ValueError(f"unknown token {tok!r} in weight expression") from None
        return lambda t: value


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

class _Setting(NamedTuple):
    type: type
    default: object
    commands: tuple[str, ...]
    bound: tuple[Callable[[object], bool], str] | None = None
    choices: tuple | None = None
    help: str | None = None
    modes: tuple[str, ...] = ("bvp", "kernel")


_ALL = ("spectrum", "weyl", "halfspace", "symbol", "identity-check")

# Every setting once: the flag --name (underscores as dashes) and config-file
# key, the type that casts it, its default, the commands that read it, its
# bound (a predicate and the condition it states), its choices and the
# halfspace modes that read it (a flag given in the other mode is refused);
# float settings must be finite.  A command takes exactly the settings that
# name it, and the filled argparse namespace is its run configuration.
_BVP, _KERNEL = ("bvp",), ("kernel",)
_SETTINGS = {
    "problem": _Setting(str, "p1", ("spectrum", "weyl", "halfspace", "symbol"),
                        choices=tuple(sorted(p.value for p in ProblemKind)), modes=_BVP),
    "n": _Setting(int, 2, _ALL, (lambda v: v >= 2, "n >= 2")),
    # weyl holds about 260 B per eigenvalue (peak RSS 42, 67 and 117 MB at m-max 1e5, 2e5 and
    # 4e5): the bound keeps a run under about 0.3 GB, where m-max 2e7 would need about 5 GB
    "m_max": _Setting(int, 10, ("spectrum", "weyl"),
                      (lambda v: 0 <= v <= 1_000_000, "0 <= m-max <= 1000000")),
    "rho": _Setting(str, "1", ("spectrum", "weyl", "symbol"),
                    help="weight: constant or expression in t"),
    "h": _Setting(float, 1.0 / 256.0, ("halfspace",), (lambda v: v > 0, "h > 0"), modes=_BVP),
    "L": _Setting(float, 30.0, ("halfspace",), (lambda v: v > 0, "L > 0")),
    # symbol evaluates rho at 16 nodes per panel and writes one row per point: about 2 s at
    # either bound, where 1e8 panels ran out of memory and 1e8 points ran for minutes
    "panels": _Setting(int, 64, ("symbol",),
                       (lambda v: 1 <= v <= 100_000, "1 <= panels <= 100000")),
    "eta": _Setting(float, 1.0, ("halfspace", "symbol"), (lambda v: v != 0, "eta != 0"),
                    modes=_BVP),
    "epsilon": _Setting(float, 0.0, ("symbol",), (lambda v: v >= 0, "epsilon >= 0")),
    # the ladder scales the step by 2.0 ** level, which overflows past level 1023
    "levels": _Setting(int, 4, ("halfspace",), (lambda v: 1 <= v <= 32, "1 <= levels <= 32"),
                       modes=_BVP),
    "points": _Setting(int, 72, ("symbol",),
                       (lambda v: 1 <= v <= 100_000, "1 <= points <= 100000")),
    # kernel mode is quadratic in the samples, about 2.5 s at the bound; past about 9 000
    # samples the rounding of the sample grid fails its 1e-12 uniformity check anyway
    "samples": _Setting(int, 128, ("halfspace",),
                        (lambda v: 4 <= v <= 8192, "4 <= samples <= 8192"), modes=_KERNEL),
    "xn": _Setting(float, 1.0, ("halfspace",), (lambda v: v > 0, "xn > 0"), modes=_KERNEL),
    # None: the identity block; any integer, 0 included, seeds a block
    "seed": _Setting(int, None, ("halfspace",), modes=_BVP),
    "mode": _Setting(str, "bvp", ("halfspace",), choices=("bvp", "kernel")),
    "out": _Setting(str, None, _ALL, help="output path (default: stdout)"),
}

# the growth-law study needs enough eigenvalues for a decade-wide fit
_COMMAND_DEFAULTS = {"weyl": {"m_max": 200}}

# bounds that hold for one command only, in place of the setting's own.  The metric block
# of a halfspace run is checked and evaluated in Python floats, O(n^3) and O(n^2): the bound
# keeps a seeded run under about a second.  It is the largest n that symbol can reach, whose
# sphere area S^(n-1) leaves the double range from n = 343 on; symbol refuses that itself
_COMMAND_BOUNDS = {"halfspace": {"n": (lambda v: 2 <= v <= 342, "2 <= n <= 342")}}

# steps of the finest finite-difference grid.  The closed-form solve costs the
# same at any L/h, but HalfSpaceGrid checks that L is a multiple of h to 1e-9,
# and the rounding error of L/h, about 2.2e-16 * L/h, reaches that near 2**22
# steps: from 2**23 steps on about one grid in nine fails the check
_MAX_STEPS = 2 ** 22


def _settings_of(command: str) -> dict[str, _Setting]:
    return {field: s for field, s in _SETTINGS.items() if command in s.commands}


def _read_config_file(path: str, fields) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            for sep in ("=", ":"):
                if sep in line:
                    key, _, val = line.partition(sep)
                    break
            else:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key = key.strip().replace("-", "_")
            if key not in fields:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = val.strip()
    return values


def _build_config(cfg: argparse.Namespace) -> argparse.Namespace:
    """Fill the command's settings that no flag gave: config file, then command
    default, then the table default; then check choices, finiteness and bounds."""
    settings = _settings_of(cfg.command)
    file_values = _read_config_file(cfg.config, settings) if cfg.config else {}
    command_defaults = _COMMAND_DEFAULTS.get(cfg.command, {})
    command_bounds = _COMMAND_BOUNDS.get(cfg.command, {})
    given = []
    for field, setting in settings.items():
        value = getattr(cfg, field)
        if value is None and field in file_values:
            value = setting.type(file_values[field])
        if value is None:
            value = command_defaults.get(field, setting.default)
        else:
            given.append(field)
        if setting.choices and value not in setting.choices:
            raise ValueError(f"{field} must be one of {', '.join(setting.choices)}, "
                             f"got {value!r}")
        if setting.type is float and not math.isfinite(value):
            raise ValueError(f"{field} must be finite")
        bound = command_bounds.get(field, setting.bound)
        if bound and not bound[0](value):
            raise ValueError(f"need {bound[1]}")
        setattr(cfg, field, value)
    for field in given:
        if "mode" in settings and cfg.mode not in settings[field].modes:
            raise ValueError(f"--{field.replace('_', '-')} is not read in {cfg.mode} mode")
    if "eta" in given and "seed" in given:
        raise ValueError("--eta is not read with --seed: the seed draws the covector")
    if "problem" in settings:
        cfg.problem = ProblemKind(cfg.problem)
    return cfg


# ---------------------------------------------------------------------------
# CSV helpers
# ---------------------------------------------------------------------------

def _emit(out: str | None, header: str, row: str, rows: Iterable[tuple], last: str = "") -> None:
    """Write a CSV table to ``out`` (None: stdout): the ``header`` line, then ``row % r``
    for each r of ``rows`` as it comes, then ``last``, in writes of up to 4096 lines.  Every
    field is a number, ``summary``, ``true``/``false`` or empty, so none needs quoting;
    reals are written ``%.17g``.  A command decides every refusal before it calls this, so
    a refused run writes nothing."""
    def write(stream):
        lines = chain((header,), map(row.__mod__, rows), (last,))
        while chunk := "".join(islice(lines, 4096)):
            stream.write(chunk)

    if out is None:
        write(sys.stdout)
    else:
        with open(out, "w", encoding="utf-8", newline="") as f:
            write(f)


_REALS = "%.17g,%.17g,%.17g,%.17g\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _constant_rho(cfg: argparse.Namespace) -> float:
    expr = WeightExpr(cfg.rho)
    if not expr.is_constant:
        raise ValueError("this command needs a constant weight; expressions over "
                         "the boundary parameter belong to the 'symbol' command")
    c = expr.fn(0.0)
    if not 0 < c < math.inf:
        raise ValueError("weight constant must be positive and finite")
    return c


def _scaled_spectrum(cfg: argparse.Namespace, c: float) -> spectra.Spectrum:
    if cfg.problem is ProblemKind.NEUMANN_TRACE:
        spec = spectra.ball_spectrum_p1(cfg.n, cfg.m_max)
    elif cfg.n != 2:
        raise ValueError("disk closed forms require n = 2")
    elif cfg.problem is ProblemKind.DIRICHLET_TRACE:
        spec = spectra.disk_spectrum_p2(cfg.m_max)
    else:
        spec = spectra.disk_spectrum_harmonic(cfg.m_max)
    if c == 1.0:
        return spec
    if spec.values[-1] / c == math.inf:
        raise ValueError(f"weight {c:.6g} is too small: eigenvalue / rho overflows a double")
    # constant weight c divides every eigenvalue; exact cubes no longer integral
    return spectra.Spectrum(spec.problem, spec.n, tuple([v / c for v in spec.values]),
                            spec.mults)


def cmd_spectrum(cfg: argparse.Namespace) -> None:
    """Closed-form spectrum as CSV."""
    c = _constant_rho(cfg)
    spec = _scaled_spectrum(cfg, c)
    _emit(cfg.out, "index,value,multiplicity,cumulative_count\n", "%d,%.17g,%d,%d\n",
          zip(range(len(spec.values)), spec.values, spec.mults, spec.cumulative))


def cmd_weyl(cfg: argparse.Namespace) -> None:
    """Counting function vs its growth law, with sharpness summary."""
    c = _constant_rho(cfg)
    spec = _scaled_spectrum(cfg, c)
    integral = symbols.in_double_range(  # the boundary integral of the constant weight
        lambda: c ** (cfg.n - 1) * counting.sphere_area(cfg.n),
        f"weight {c:.6g} out of range: rho^(n-1) |S^(n-1)| leaves the double range")
    model = counting.WeylModel(cfg.problem, cfg.n, integral)
    # the eigenvalues increase from 0 or more, so only the first can be zero; its row has
    # no scaled residual
    skip = 0 if spec.values[0] > 0 else 1
    taus, counts = spec.values[skip:], spec.cumulative[skip:]
    samples = tuple(zip(taus, counts))
    report = counting.remainder_fit(counting.CountingSeries(samples), model)
    # every row's range checks run here, before the first line is written; the predicted
    # counts and scaled residuals wait as 16 bytes a row, interleaved
    residuals = array("d", chain.from_iterable(starmap(model.residual, samples)))
    rows = chain([(0.0, count, 0.0, float(count)) for count in spec.cumulative[:skip]],
                 zip(taus, counts, residuals[0::2], residuals[1::2]))
    summary = "summary,%.17g,%.17g,%s\n" % (report.second_coeff_estimate, report.trend_slope,
                                              "true" if report.sharp_verdict else "false")
    _emit(cfg.out, "tau,count,predicted,residual_scaled\n", "%.17g,%d,%.17g,%.17g\n", rows,
          summary)


# halfspace and numpy are imported by the halfspace commands only, which build arrays: the
# other commands never load numpy

def _halfspace_bvp(cfg: argparse.Namespace) -> None:
    import numpy as np

    from . import halfspace

    # the finest rung has ceil(L/h) steps whatever the covector
    if not cfg.L / cfg.h <= _MAX_STEPS:
        raise ValueError(f"grid too fine: L/h = {cfg.L / cfg.h:.6g} steps, at most {_MAX_STEPS}")
    if cfg.seed is not None:
        # seeded SPD block exercises the anisotropic recovery path
        rng = np.random.default_rng(cfg.seed)
        m = rng.normal(size=(cfg.n - 1, cfg.n - 1))
        block = halfspace.MetricBlock(m @ m.T + (cfg.n - 1) * np.eye(cfg.n - 1),
                                      float(rng.uniform(0.5, 3.0)))
        eta = rng.normal(size=cfg.n - 1)
        if not np.any(eta):
            eta[0] = 1.0
    else:
        block = halfspace.MetricBlock.identity(cfg.n)
        eta = np.zeros(cfg.n - 1)
        eta[0] = cfg.eta
    datum = halfspace.FourierDatum(eta)
    solver = {ProblemKind.NEUMANN_TRACE: halfspace.bvp_solve_p1,
              ProblemKind.DIRICHLET_TRACE: halfspace.bvp_solve_p2}.get(cfg.problem)
    if solver is None:
        raise ValueError("halfspace solvers exist for p1 and p2 only")
    target = symbols.steklov_symbol(cfg.problem, block.a_tan)(None, eta)

    rate = halfspace.xi_norm(block, eta)
    rows, errors = [], []
    for level in range(cfg.levels - 1, -1, -1):
        # step and truncation scale with the decay rate of the profile
        h = cfg.h * 2.0 ** level / rate
        steps = math.ceil(cfg.L / rate / h)
        grid = halfspace.HalfSpaceGrid(h, steps * h)
        recovered = solver(block, datum, grid)
        rel = abs(recovered - target) / abs(target)
        errors.append(rel)
        rows.append((h, recovered, target, rel))
    if len(errors) > 1:
        ratios = [errors[i] / errors[i + 1] for i in range(len(errors) - 1)]
        order = sum(math.log2(r) for r in ratios) / len(ratios)
    else:
        order = float("nan")
    _emit(cfg.out, "h,recovered,target,rel_error\n", _REALS, rows,
          "summary,%.17g,%.17g,%.17g\n" % (order, target, errors[-1]))


def _halfspace_kernel(cfg: argparse.Namespace) -> None:
    if cfg.n != 2:
        raise ValueError("kernel mode runs on the half-plane (n = 2)")
    import numpy as np

    from . import halfspace

    block = halfspace.MetricBlock.identity(2)
    y = np.linspace(-cfg.L / 2.0, cfg.L / 2.0, cfg.samples)
    with np.errstate(over="ignore"):  # y^2 past the double range: exp(-inf) = 0 is the datum
        data = np.exp(-(y ** 2))
    points = [(float(x), cfg.xn) for x in y]
    via_kernel = halfspace.solve_by_kernel(block, y, None, data, points)
    via_fourier = halfspace.fourier_synthesis(block, y, np.zeros_like(y), data, points)
    rows = [(float(x), k, f, abs(k - f)) for x, k, f in zip(y, via_kernel, via_fourier)]
    _emit(cfg.out, "x,kernel,fourier,abs_error\n", _REALS, rows,
          "summary,%.17g,%d,%.17g\n" % (np.max(np.abs(via_kernel - via_fourier)),
                                          cfg.samples, cfg.xn))


def cmd_halfspace(cfg: argparse.Namespace) -> None:
    """Finite-difference symbol recovery or kernel comparison."""
    if cfg.mode == "bvp":
        _halfspace_bvp(cfg)
    else:
        _halfspace_kernel(cfg)


def cmd_symbol(cfg: argparse.Namespace) -> None:
    """Weighted symbol and phase volume over the boundary."""
    expr = WeightExpr(cfg.rho)
    if cfg.n == 2:
        weight = counting.unit_circle_weight(expr.fn, cfg.epsilon)
    else:  # a zonal weight on the sphere S^{n-1}: rho a function of the polar angle t
        area, power = counting.sphere_area(cfg.n - 1), cfg.n - 2
        weight = counting.BoundaryWeight(expr.fn, lambda t: area * math.sin(t) ** power,
                                         ((0.0, math.pi),), cfg.epsilon)
    metric = symbols.BoundaryMetric.identity(cfg.n - 1)
    eta = [cfg.eta] + [0.0] * (cfg.n - 2)
    sublevel = symbols.steklov_symbol(cfg.problem, metric, weight)
    (start, stop), = weight.domain
    rows = []
    for j in range(cfg.points):
        theta = start + (stop - start) * j / cfg.points
        rho = expr.fn(theta)
        if rho < 0:
            raise ValueError(f"weight is negative at theta={theta:.6g}")
        value = sublevel(theta, eta)
        volume = counting.hormander_phase_volume(sublevel, theta)
        rows.append((theta, rho, value, volume))
    integral = counting.boundary_integral(weight, cfg.n, cfg.panels)
    c_lead = counting.weyl_leading(cfg.problem, cfg.n, integral)
    _emit(cfg.out, "theta,rho,symbol,phase_volume\n", _REALS, rows,
          "summary,%.17g,%.17g,\n" % (integral, c_lead))


def cmd_identity_check(cfg: argparse.Namespace) -> None:
    """Residuals of the closed-form constant identity."""
    rows = [(n, counting.gamma_identity_check(n)) for n in range(2, cfg.n + 1)]
    _emit(cfg.out, "n,residual\n", "%d,%.17g\n", rows)


_DISPATCH = {
    "spectrum": cmd_spectrum,
    "weyl": cmd_weyl,
    "halfspace": cmd_halfspace,
    "symbol": cmd_symbol,
    "identity-check": cmd_identity_check,
}


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False everywhere: a prefix such as --h would resolve to --help
    parser = argparse.ArgumentParser(prog="bisteklov", allow_abbrev=False,
                                     description="spectra, counting laws, and "
                                                 "half-space symbol recovery")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, run in _DISPATCH.items():
        cmd = sub.add_parser(command, help=run.__doc__, allow_abbrev=False)
        for field, setting in _settings_of(command).items():
            cmd.add_argument("--" + field.replace("_", "-"), type=setting.type,
                             choices=setting.choices, help=setting.help)
        cmd.add_argument("--config", type=str, help="key = value file; flags win")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code else 0
    try:
        cfg = _build_config(args)
        _DISPATCH[cfg.command](cfg)
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed stdout: stop quietly, flush at exit to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except symbols.SolverError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
