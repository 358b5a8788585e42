"""Seeded workloads of the bisteklov benchmark.

A workload is one cycle of ops built from ``--seed``; the timed pass repeats
the cycle.  An op is one unit of work: ``run()`` calls into the program
through its module attributes and returns a plain record, and
``check(record, reference)`` compares that record with the op's reference.
The program receives only the generated inputs.  References come from closed
forms computed here, or from the golden CSVs of the README commands.
"""

from __future__ import annotations

import csv
import gzip
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden"

# Which layers each workload loads; the rest it bypasses.
LOADS = {
    "cli_readme": ("import", "cli", "spectra", "counting", "symbols", "halfspace"),
    "exact_counting": ("import", "cli", "spectra", "counting", "symbols"),
    "halfspace_fd": ("import", "halfspace"),
    "halfspace_kernel": ("import", "halfspace"),
}

# The README command lines; {out} is a file in the run's scratch directory.
README_COMMANDS = {
    "spectrum": "spectrum --problem p1 --n 3 --m-max 10",
    "weyl": "weyl --problem p2 --m-max 10000 --out {out}",
    "halfspace_p1": "halfspace --problem p1 --h 0.001953125 --levels 4",
    "halfspace_p2_seed7": "halfspace --problem p2 --seed 7",
    "halfspace_kernel": "halfspace --mode kernel --samples 128",
    "symbol": "symbol --problem p1 --rho 2+cos(t) --points 72",
    "identity_check": "identity-check --n 12",
}

# Golden float cells must agree to this relative (plus a tiny absolute) tolerance.
GOLDEN_RTOL, GOLDEN_ATOL = 1e-9, 1e-12
# A finite-difference value passes within FD_C * (h * |xi'|)^2 of its target;
# FD_C is about ten times the largest truncation constant seen on coarse rungs.
FD_C = 32.0
# Refusals (AdequacyError / SolverError) are accepted only on rungs finer than this.
FD_REFUSAL_FINEST = 4096
# The conditioning cliff (ROADMAP item 2): per problem, the first rung at which
# the solver of the parent commit returns values outside the tolerance.  Rungs
# from there on run and are timed like the rest; a wrong finite value there is
# counted (halfspace.fd_wrong, check.rel_err_max) instead of failing the op, so
# that the known defect shows in every traced run while no op fails.  Every
# coarser rung must meet the tolerance.
FD_CLIFF = {"p1": 8192, "p2": 2896}
FD_L = 30.0
KERNEL_GAP = 1e-4          # kernel vs Fourier, as in the tests
# n = 3 kernels vs their closed forms; absolute, since a small kernel value is
# the difference of O(1/x_n^2) quadrature terms (256-node trapezoid rule)
KERNEL_CLOSED_ATOL = 1e-9
MC_SIGMAS = 6.0            # Monte Carlo volume vs closed form, in standard errors


@dataclass
class Check:
    ok: bool
    rel_err: float = 0.0
    kind: str = "pass"


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    reference: Any
    check: Callable[[Any, Any], Check]


class Context:
    """What ops need at run time: the scratch directory and, during the
    traced pass, the tracer."""

    def __init__(self, scratch: Path):
        self.scratch = scratch
        self.tracer = None


def rel(value: float, target: float) -> float:
    return abs(value - target) / abs(target)


def build(name: str, seed: int, ctx: Context) -> list[Op]:
    return BUILDERS[name](seed, ctx)


# ---------------------------------------------------------------------------
# cli_readme: the README commands, each a fresh process
# ---------------------------------------------------------------------------

def load_golden(name: str) -> list[list[str]]:
    with gzip.open(GOLDEN / f"{name}.csv.gz", "rt", encoding="utf-8", newline="") as f:
        return list(csv.reader(f))


def readme_argv(name: str, out: Path) -> list[str]:
    return README_COMMANDS[name].format(out=out).split()


def _is_int(cell: str) -> bool:
    return cell.lstrip("-").isdigit()


def _float_cell(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _close(a: float, b: float, rtol=GOLDEN_RTOL, atol=GOLDEN_ATOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + atol


def compare_table(rows, golden) -> Check:
    """Integer, boolean and label cells exactly; float cells to GOLDEN_RTOL.

    A data column is a float column when any of its golden cells is a
    non-integer number, so an integral float printed as "3" still gets the
    tolerance; in the summary row every non-integer number does."""
    if len(rows) != len(golden) or rows[0] != golden[0]:
        return Check(False)
    float_cols = {j for r in golden[1:] if r[0] != "summary" for j, c in enumerate(r)
                  if not _is_int(c) and _float_cell(c) is not None}
    worst = 0.0
    for row, gold in zip(rows[1:], golden[1:]):
        if len(row) != len(gold):
            return Check(False)
        summary = gold[0] == "summary"
        for j, (c, g) in enumerate(zip(row, gold)):
            gv = _float_cell(g)
            tolerant = (gv is not None and math.isfinite(gv)
                        and (not _is_int(g) if summary else j in float_cols))
            if not tolerant:
                if c != g:
                    return Check(False)
                continue
            cv = _float_cell(c)
            if cv is None or not _close(cv, gv):
                return Check(False)
            if gv:
                worst = max(worst, rel(cv, gv))
    return Check(True, worst)


def _seven_block():
    """The SPD block, covector and target of ``halfspace --problem p2 --seed 7``,
    regenerated here from the documented seeding (n = 2)."""
    import numpy as np
    rng = np.random.default_rng(7)
    m = rng.normal(size=(1, 1))
    a_tan = m @ m.T + np.eye(1)
    a_nn = float(rng.uniform(0.5, 3.0))
    eta = rng.normal(size=1)
    q = float(eta @ a_tan @ eta)
    return 2.0 * q**1.5, math.sqrt(q / a_nn)


def compare_bvp(rows, golden, target: float, rate: float) -> Check:
    """FD ladder rows against the analytic target, not the golden values, so a
    more accurate solver still passes; h and the layout must match."""
    if len(rows) != len(golden) or rows[0] != golden[0]:
        return Check(False)
    worst = 0.0
    for row, gold in zip(rows[1:-1], golden[1:-1]):
        h, recovered, tgt, err = (float(c) for c in row)
        if not _close(h, float(gold[0])) or not _close(tgt, target):
            return Check(False)
        e = rel(recovered, target)
        worst = max(worst, e)
        if e > FD_C * (h * rate) ** 2 or not _close(err, e, 1e-6, 1e-300):
            return Check(False, worst)
    label, _order, tgt, finest = rows[-1]
    ok = label == "summary" and _close(float(tgt), target) and float(finest) == float(rows[-2][3])
    return Check(ok, worst)


def compare_kernel_mode(rows, golden) -> Check:
    """Kernel-mode rows: same points, kernel and Fourier values within KERNEL_GAP
    of each other and of the golden values."""
    if len(rows) != len(golden) or rows[0] != golden[0]:
        return Check(False)
    worst, scale = 0.0, max(abs(float(g[2])) for g in golden[1:-1])
    for row, gold in zip(rows[1:-1], golden[1:-1]):
        x, k, f, gap = (float(c) for c in row)
        if not _close(x, float(gold[0])):
            return Check(False)
        worst = max(worst, abs(k - f) / scale)
        if (abs(k - f) > KERNEL_GAP or abs(k - float(gold[1])) > KERNEL_GAP
                or abs(f - float(gold[2])) > KERNEL_GAP
                or not _close(gap, abs(k - f), 1e-9, 1e-15)):
            return Check(False, worst)
    label, max_gap, samples, xn = rows[-1]
    ok = (label == "summary" and float(max_gap) <= KERNEL_GAP
          and [samples, xn] == golden[-1][2:])
    return Check(ok, worst)


def check_cli(record, ref) -> Check:
    rc, out, err = record
    if rc != 0 or err:
        return Check(False, kind=f"exit {rc}")
    rows = list(csv.reader(io.StringIO(out.decode("utf-8"))))
    if ref["kind"] == "bvp":
        return compare_bvp(rows, ref["golden"], ref["target"], ref["rate"])
    if ref["kind"] == "kernel":
        return compare_kernel_mode(rows, ref["golden"])
    return compare_table(rows, ref["golden"])


def _cli_reference(name: str) -> dict:
    golden = load_golden(name)
    if name == "halfspace_p1":
        return {"kind": "bvp", "golden": golden, "target": 2.0, "rate": 1.0}
    if name == "halfspace_p2_seed7":
        target, rate = _seven_block()
        return {"kind": "bvp", "golden": golden, "target": target, "rate": rate}
    if name == "halfspace_kernel":
        return {"kind": "kernel", "golden": golden}
    return {"kind": "table", "golden": golden}


def _cli_op(name: str, ctx: Context) -> Op:
    out_file = ctx.scratch / "flux_counts.csv"
    argv = readme_argv(name, out_file)
    writes_file = "--out" in argv

    def run():
        if writes_file and out_file.exists():
            out_file.unlink()
        tracer = ctx.tracer
        if tracer is None:
            cmd = [sys.executable, "-m", "bisteklov", *argv]
        else:
            span_file = ctx.scratch / "child-spans.json"
            cmd = [sys.executable, str(HERE / "boot.py"), str(span_file), *argv]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, timeout=120)
        out = out_file.read_bytes() if writes_file and proc.returncode == 0 else proc.stdout
        if tracer is not None:
            child = json.loads(span_file.read_text())
            tracer.adopt(child["spans"], tracer.current)
            tracer.counters.update(child["counters"])
            tracer.counters["cli.csv_bytes"] += len(out)
            tracer.counters["cli.csv_rows"] += max(out.count(b"\n") - 1, 0)
        return proc.returncode, out, proc.stderr

    return Op(f"cli {name}", run, _cli_reference(name), check_cli)


def build_cli_readme(seed: int, ctx: Context) -> list[Op]:
    names = list(README_COMMANDS)
    random.Random(seed).shuffle(names)
    return [_cli_op(name, ctx) for name in names]


# ---------------------------------------------------------------------------
# exact_counting: exact spectra, counting laws, quadrature and symbols
# ---------------------------------------------------------------------------

# Bases above n=4 m=6 and n=5 m=4 would put the p90 on ops whose time swings
# far more than the rest under machine noise.
EIGENPAIR_DEGREES = {3: 10, 4: 6, 5: 4}
RADIAL_CHUNKS = [(1 + 200 * i, 200 * (i + 1)) for i in range(7)]
P1_M_MAX, P2_M_MAX, COUNT_QUERIES = 5000, 100_000, 16
SWEEP_POINTS, MC_SAMPLES = 72, 200_000


def harmonic_dim_closed(n: int, m: int) -> int:
    return math.comb(n + m - 1, n - 1) - (math.comb(n + m - 3, n - 1) if m >= 2 else 0)


def p1_c_lead(n: int) -> Fraction:
    return Fraction(1, 2 ** (n - 2) * math.factorial(n - 1))


def _weight_expr(rng: random.Random, fn: str, k: int | None = None):
    """A positive weight a + b*fn(k*t) as text, with a, b and k."""
    a, b = round(rng.uniform(1.5, 3.0), 3), round(rng.uniform(-1.0, 1.0), 3)
    k = rng.randint(1, 4) if k is None else k
    arg = "t" if k == 1 else f"{k}*t"
    return f"{a}{'-' if b < 0 else '+'}{abs(b)}*{fn}({arg})", a, b, k


def build_exact_counting(seed: int, ctx: Context) -> list[Op]:
    import numpy as np
    from bisteklov import cli, counting, spectra, symbols

    rng = random.Random(seed)
    P1, P2 = spectra.ProblemKind.NEUMANN_TRACE, spectra.ProblemKind.DIRICHLET_TRACE
    ops = []

    for n, m_top in EIGENPAIR_DEGREES.items():
        for m in range(m_top + 1):
            def run(n=n, m=m):
                basis = spectra.harmonic_basis(n, m)
                return len(basis), tuple(spectra.verify_ball_eigenpair(n, m, p).all_ok
                                         for p in basis)
            ops.append(Op(f"eigenpairs n={n} m={m}", run, harmonic_dim_closed(n, m),
                          lambda r, dim: Check(r[0] == dim and len(r[1]) == dim and all(r[1]))))

    for lo, hi in RADIAL_CHUNKS:
        def run(lo=lo, hi=hi):
            return tuple(spectra.radial_verify_p2(m) for m in range(lo, hi + 1))
        ref = tuple((Fraction(-1, 2 * m * (m + 1)), 2 * m * m * (m + 1)) for m in range(lo, hi + 1))
        ops.append(Op(f"radial p2 m={lo}..{hi}", run, ref, lambda r, ref: Check(
            [(f1, ratio) for f1, ratio, _ in r] == list(ref) and not any(x[2] for x in r))))

    def series_of(spec):
        samples, cumulative = [], 0
        for e in spec.entries:
            cumulative += e.mult
            if e.value > 0:
                samples.append((e.value, cumulative))
        return counting.CountingSeries(tuple(samples))

    for n in (2, 3, 4):
        queries = sorted(rng.sample(range(P1_M_MAX + 1), COUNT_QUERIES))

        def run(n=n, queries=queries):
            spec = spectra.ball_spectrum_p1(n, P1_M_MAX)
            counts = tuple(counting.count_upto(spec, float(n + 2 * m)) for m in queries)
            closed = tuple(counting.ball_count_closed(n, m) for m in queries)
            model = counting.WeylModel(P1, n, counting.sphere_area(n))
            report = counting.remainder_fit(series_of(spec), model)
            return counts, closed, report.second_coeff_estimate, report.sharp_verdict

        ref = {"counts": tuple(math.comb(n + m - 1, n - 1) + math.comb(n + m - 2, n - 1)
                               for m in queries),
               "limit": float((1 - n) * p1_c_lead(n)), "tol": 2.0 / P1_M_MAX}
        ops.append(Op(f"p1 ball counting n={n}", run, ref, _check_study))

    queries = sorted(rng.sample(range(P2_M_MAX + 1), COUNT_QUERIES))

    def run_p2(queries=queries):
        spec = spectra.disk_spectrum_p2(P2_M_MAX)
        counts = tuple(counting.count_upto(spec, tau_cube=2 * m * m * (m + 1)) for m in queries)
        model = counting.WeylModel(P2, 2, counting.sphere_area(2))
        report = counting.remainder_fit(series_of(spec), model)
        return counts, counts, report.second_coeff_estimate, report.sharp_verdict

    # at the eigenvalues, count - C_lead * tau tends to 1/3 with an O(1/m) error
    ops.append(Op("p2 disk counting", run_p2,
                  {"counts": tuple(1 + 2 * m for m in queries), "limit": 1.0 / 3.0,
                   "tol": 2.0 / P2_M_MAX}, _check_study))

    for i in range(2):
        text, a, b, k = _weight_expr(rng, ("cos", "sin")[i])
        panels = 64

        def run(text=text, panels=panels):
            weight = counting.unit_circle_weight(cli.WeightExpr(text).fn)
            return counting.boundary_integral(weight, 2, panels)
        ops.append(Op(f"circle integral {text}", run, 2.0 * math.pi * a, _check_float(1e-12)))

    for i in range(2):
        text, a, b, _ = _weight_expr(rng, "cos", k=1)

        def run(text=text):
            expr = cli.WeightExpr(text)
            weight = counting.unit_sphere_weight(lambda t, p, f=expr.fn: f(t))
            return counting.boundary_integral(weight, 3, 8)
        # integral of (a + b cos t)^2 sin t over the sphere
        ops.append(Op(f"sphere integral {text}", run,
                      2.0 * math.pi * (2.0 * a * a + 2.0 * b * b / 3.0), _check_float(1e-12)))

    metric = symbols.BoundaryMetric.identity(1)
    for problem in (P1, P2):
        text, a, b, k = _weight_expr(rng, rng.choice(("cos", "sin")))
        fn = math.cos if "cos" in text else math.sin
        eta = round(rng.uniform(0.5, 2.0), 3)
        thetas = [2.0 * math.pi * j / SWEEP_POINTS for j in range(SWEEP_POINTS)]
        rhos = [a + b * fn(k * t) for t in thetas]
        if problem is P1:
            ref = [(2.0 * eta / r, r) for r in rhos]
        else:
            ref = [(2.0 * eta**3 / r**3, 2.0 * r / 2.0 ** (1.0 / 3.0)) for r in rhos]

        def run(problem=problem, text=text, eta=eta, thetas=thetas):
            weight = counting.unit_circle_weight(cli.WeightExpr(text).fn)
            sublevel = symbols.steklov_symbol(problem, metric, weight)
            return tuple((symbols.symbol_steklov(problem, metric, weight, t, np.array([eta])),
                          counting.hormander_phase_volume(sublevel, t)) for t in thetas)
        ops.append(Op(f"symbol sweep {problem.value} {text}", run, ref, _check_pairs(1e-12)))

    m = np.array([[rng.uniform(-1, 1) for _ in range(2)] for _ in range(2)])
    g = m @ m.T + 2.0 * np.eye(2)
    mc_seed = rng.randrange(2**31)

    def run_mc():
        sym = symbols.theta_symbol(symbols.BoundaryMetric.constant(g))
        v = counting.phase_volume_montecarlo(sym, None, MC_SAMPLES, mc_seed)
        return v.value, v.stderr
    # omega_2 * c^(-2/3) with c = 2 and degree 3
    ops.append(Op("montecarlo volume", run_mc, math.pi * 2.0 ** (-2.0 / 3.0), _check_mc))
    return ops


def _check_study(r, ref) -> Check:
    counts, closed, estimate, sharp = r
    e = rel(estimate, ref["limit"])
    ok = counts == ref["counts"] and closed == ref["counts"] and sharp and e <= ref["tol"]
    return Check(ok, e)


def _check_float(rtol):
    def check(value, target):
        e = rel(value, target)
        return Check(e <= rtol, e)
    return check


def _check_pairs(rtol):
    def check(values, ref):
        e = max(rel(v, t) for pair, tpair in zip(values, ref) for v, t in zip(pair, tpair))
        return Check(len(values) == len(ref) and e <= rtol, e)
    return check


def _check_mc(r, target) -> Check:
    value, stderr = r
    return Check(abs(value - target) <= MC_SIGMAS * stderr, rel(value, target))


# ---------------------------------------------------------------------------
# halfspace_fd: refinement ladders of the banded FD solver
# ---------------------------------------------------------------------------

# scaled steps 1/512 .. 1/16384 in factors of sqrt(2), so the median op is one rung
FD_FINEST = [512.0 * 2.0 ** (j / 2.0) for j in range(11)]


def spd_block(rng, n: int):
    import numpy as np
    m = rng.normal(size=(n - 1, n - 1))
    a_tan = m @ m.T + (n - 1) * np.eye(n - 1)
    return a_tan, float(rng.uniform(0.5, 3.0)), rng.normal(size=n - 1)


def build_halfspace_fd(seed: int, ctx: Context) -> list[Op]:
    import numpy as np
    from bisteklov import halfspace as hs

    rng = np.random.default_rng(seed)
    blocks = [("identity", np.eye(1), 1.0, np.array([1.0]))]
    blocks += [(f"spd n={n}", *spd_block(rng, n)) for n in (2, 3)]
    ops = []
    for label, a_tan, a_nn, eta in blocks:
        block, datum = hs.MetricBlock(a_tan, a_nn), hs.FourierDatum(eta)
        q = float(eta @ a_tan @ eta)
        rate = math.sqrt(q / a_nn)
        for problem, target in (("p1", 2.0 * q**0.5), ("p2", 2.0 * q**1.5)):
            for finest in FD_FINEST:
                h = 1.0 / (finest * rate)
                grid = hs.HalfSpaceGrid(h, math.ceil(FD_L * finest) * h)

                def run(problem=problem, block=block, datum=datum, grid=grid):
                    solver = hs.bvp_solve_p1 if problem == "p1" else hs.bvp_solve_p2
                    try:
                        return ("value", solver(block, datum, grid))
                    except (hs.AdequacyError, hs.SolverError) as exc:
                        return ("refused", type(exc).__name__)

                ref = {"target": target, "tol": FD_C / finest**2,
                       "refusal_ok": finest > FD_REFUSAL_FINEST,
                       "cliff": round(finest) >= FD_CLIFF[problem]}
                ops.append(Op(f"fd {problem} {label} h=1/{finest:.0f}", run, ref, _check_rung))
    return ops


def _check_rung(r, ref) -> Check:
    if r[0] == "refused":
        return Check(ref["refusal_ok"], kind="refused" if ref["refusal_ok"] else "refused_early")
    e = rel(r[1], ref["target"])
    if e <= ref["tol"]:
        return Check(True, e)
    return Check(ref["cliff"] and math.isfinite(r[1]), e, "wrong")


# ---------------------------------------------------------------------------
# halfspace_kernel: kernel convolution vs Fourier synthesis, n = 3 kernels
# ---------------------------------------------------------------------------

# The comparisons outnumber the n = 3 batches, which cost about three quarters
# as much, so the median op is a comparison.
KERNEL_SAMPLES, KERNEL_CONFIGS, KERNEL_BATCHES, KERNEL_POINTS = 256, 4, 3, 8
K3_BATCHES, K3_POINTS = 5, 36


def build_halfspace_kernel(seed: int, ctx: Context) -> list[Op]:
    import numpy as np
    from bisteklov import halfspace as hs

    rng = np.random.default_rng(seed)
    y = np.linspace(-15.0, 15.0, KERNEL_SAMPLES)
    ops = []
    for c in range(KERNEL_CONFIGS):
        block = hs.MetricBlock(np.array([[rng.uniform(0.5, 3.0)]]), float(rng.uniform(0.5, 3.0)))
        data = np.exp(-((y - rng.uniform(-2.0, 2.0)) ** 2))
        # alternate the Gaussian between the trace and the normal-derivative datum
        phi, h = (None, data) if c % 2 == 0 else (data, None)
        for b in range(KERNEL_BATCHES):
            points = [(float(rng.uniform(-4.0, 4.0)), float(rng.uniform(0.5, 2.0)))
                      for _ in range(KERNEL_POINTS)]

            def run(block=block, phi=phi, h=h, points=points):
                k = hs.solve_by_kernel(block, y, phi, h, points)
                f = hs.fourier_synthesis(block, y, phi, h, points)
                return tuple(k.tolist()), tuple(f.tolist())
            ops.append(Op(f"kernel vs fourier config {c} batch {b}", run, KERNEL_GAP, _check_gap))

    block3 = hs.MetricBlock.identity(3)
    for b in range(K3_BATCHES):
        points = [(rng.uniform(-2.0, 2.0, size=2), float(rng.uniform(0.3, 2.0)))
                  for _ in range(K3_POINTS)]
        ref = []
        for xp, xn in points:
            r2 = float(xp @ xp) + xn * xn
            ref.append((3.0 * xn**3 / (2.0 * math.pi * r2**2.5), xn**2 / (2.0 * math.pi * r2**1.5)))

        def run(points=points):
            return tuple((hs.kernel_K(block3, "K1", xp, xn), hs.kernel_K(block3, "K2", xp, xn))
                         for xp, xn in points)
        ops.append(Op(f"kernel n=3 batch {b}", run, ref, _check_kernels))
    return ops


def _check_kernels(values, ref) -> Check:
    pairs = [(v, t) for pair, tpair in zip(values, ref) for v, t in zip(pair, tpair)]
    ok = len(values) == len(ref) and all(abs(v - t) <= KERNEL_CLOSED_ATOL for v, t in pairs)
    return Check(ok, max(rel(v, t) for v, t in pairs))


def _check_gap(r, limit) -> Check:
    k, f = r
    gap = max(abs(a - b) for a, b in zip(k, f))
    return Check(gap <= limit, gap / max(abs(b) for b in f))


BUILDERS = {
    "cli_readme": build_cli_readme,
    "exact_counting": build_exact_counting,
    "halfspace_fd": build_halfspace_fd,
    "halfspace_kernel": build_halfspace_kernel,
}


def pinned_env() -> dict:
    """Environment for every workload process: one BLAS/OpenMP thread and the
    checkout's own sources first on the import path."""
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"))
    return env
