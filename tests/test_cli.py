import argparse
import contextlib
import csv
import gzip
import io
import math
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bisteklov import cli, halfspace
from bisteklov.cli import WeightExpr, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# weight expressions
# ---------------------------------------------------------------------------

def test_weight_expr_constants_and_parameter():
    assert WeightExpr("1").constant_value() == 1.0
    assert WeightExpr("2*pi").constant_value() == pytest.approx(2 * math.pi)
    assert WeightExpr("-0.5 + 2").constant_value() == pytest.approx(1.5)
    expr = WeightExpr("2 + cos(t)")
    assert not expr.is_constant
    assert expr.fn(0.0) == pytest.approx(3.0)
    assert expr.fn(math.pi) == pytest.approx(1.0)
    nested = WeightExpr("1 + 0.5*sin(2*theta)")
    assert nested.fn(math.pi / 4) == pytest.approx(1.5)


def test_weight_expr_deep_nesting_is_a_validation_error(capsys):
    for deep in ("(" * 3000 + "1" + ")" * 3000, "-" * 3000 + "1",
                 "cos(" * 400 + "t" + ")" * 400):
        with pytest.raises(ValueError, match="nested deeper"):
            WeightExpr(deep)
    code, _, err = run_cli(capsys, "symbol", "--rho", "(" * 3000 + "1" + ")" * 3000)
    assert code == 2 and "nested deeper" in err
    # each binary operator nests the evaluation closures one level deeper
    for chain in ("+".join(["1"] * 3000), "*".join(["1"] * 3000)):
        with pytest.raises(ValueError, match="nested deeper"):
            WeightExpr(chain)
    assert WeightExpr("+".join(["1"] * 101)).constant_value() == 101.0
    assert WeightExpr("-".join(["1"] * 101)).constant_value() == -99.0
    assert WeightExpr("*".join(["2"] * 10)).constant_value() == 1024.0
    assert WeightExpr("1-2-3+4*5*6-7").constant_value() == 109.0
    assert WeightExpr("(" * 100 + "2" + ")" * 100).constant_value() == 2.0


def test_weight_expr_rejects_garbage():
    for bad in ("2 +", "cos()", "foo(t)", "1 $ 2", "(1", "2 / 3"):
        with pytest.raises(ValueError):
            WeightExpr(bad)
    with pytest.raises(ValueError):
        WeightExpr("cos(t)").constant_value()


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def test_spectrum_p1_rows(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--problem", "p1", "--n", "2",
                           "--m-max", "2")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["index", "value", "multiplicity", "cumulative_count"]
    assert rows == [["0", "2", "1", "1"], ["1", "4", "2", "3"], ["2", "6", "2", "5"]]


def test_spectrum_p2_value_formatting(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--problem", "p2", "--m-max", "1")
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0] == ["0", "0", "1", "1"]
    assert float(rows[1][1]) == pytest.approx(4 ** (1 / 3), rel=1e-15)
    assert rows[1][2:] == ["2", "3"]


def test_spectrum_validation_failures(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--problem", "p1", "--n", "1",
                           "--m-max", "2")
    assert code == 2 and "n >= 2" in err
    code, _, err = run_cli(capsys, "spectrum", "--problem", "p2", "--n", "3")
    assert code == 2
    code, _, err = run_cli(capsys, "spectrum", "--m-max", "-2")
    assert code == 2
    code, _, err = run_cli(capsys, "spectrum", "--rho", "cos(t)")
    assert code == 2 and "constant" in err


def test_spectrum_constant_weight_scales_eigenvalues(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--problem", "p1", "--n", "2",
                           "--m-max", "1", "--rho", "2")
    assert code == 0
    _, rows = parse_csv(out)
    assert [float(r[1]) for r in rows] == [1.0, 2.0]


# ---------------------------------------------------------------------------
# weyl
# ---------------------------------------------------------------------------

def test_weyl_disk_residuals_are_minus_one(capsys):
    code, out, _ = run_cli(capsys, "weyl", "--problem", "p1", "--n", "2",
                           "--m-max", "40")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["tau", "count", "predicted", "residual_scaled"]
    summary = rows[-1]
    assert summary[0] == "summary" and summary[3] == "true"
    for row in rows[:-1]:
        assert float(row[3]) == pytest.approx(-1.0, abs=1e-12)
        assert float(row[2]) == pytest.approx(float(row[0]), rel=1e-12)


def test_weyl_disk_flux_summary(capsys):
    code, out, _ = run_cli(capsys, "weyl", "--problem", "p2", "--m-max", "2000")
    assert code == 0
    _, rows = parse_csv(out)
    summary = rows[-1]
    assert summary[0] == "summary"
    assert 0.30 <= float(summary[1]) <= 0.37
    assert summary[3] == "true"


def test_weyl_harmonic_leading_constant(capsys):
    code, out, _ = run_cli(capsys, "weyl", "--problem", "harmonic", "--m-max", "60")
    assert code == 0
    _, rows = parse_csv(out)
    for row in rows[:-1]:
        tau = float(row[0])
        if tau > 0:
            assert float(row[2]) == pytest.approx(2.0 * tau, rel=1e-12)


def test_weyl_constant_weight_keeps_disk_residual(capsys):
    # weight c rescales eigenvalues by 1/c and the leading constant by c;
    # the scaled residual stays exactly -1 on the disk
    code, out, _ = run_cli(capsys, "weyl", "--problem", "p1", "--n", "2",
                           "--m-max", "30", "--rho", "2.5")
    assert code == 0
    _, rows = parse_csv(out)
    for row in rows[:-1]:
        assert float(row[3]) == pytest.approx(-1.0, abs=1e-10)


def test_weyl_needs_enough_samples(capsys):
    code, _, err = run_cli(capsys, "weyl", "--problem", "p1", "--n", "2",
                           "--m-max", "3")
    assert code == 2


# ---------------------------------------------------------------------------
# halfspace
# ---------------------------------------------------------------------------

def test_halfspace_bvp_ladder(capsys):
    code, out, _ = run_cli(capsys, "halfspace", "--problem", "p1",
                           "--h", str(1 / 256), "--levels", "3")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["h", "recovered", "target", "rel_error"]
    errors = [float(r[3]) for r in rows[:-1]]
    assert errors == sorted(errors, reverse=True)
    summary = rows[-1]
    assert summary[0] == "summary"
    assert 1.7 <= float(summary[1]) <= 2.3
    assert float(summary[2]) == pytest.approx(2.0, rel=1e-14)


def test_halfspace_kernel_mode(capsys):
    code, out, _ = run_cli(capsys, "halfspace", "--mode", "kernel",
                           "--samples", "48", "--L", "20")
    assert code == 0
    _, rows = parse_csv(out)
    assert float(rows[-1][1]) < 1e-4


def test_halfspace_seeded_block_deterministic(capsys):
    args = ("halfspace", "--problem", "p1", "--seed", "9", "--levels", "2",
            "--h", str(1 / 128))
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    _, rows = parse_csv(out1)
    assert float(rows[-1][3]) < 1e-3  # anisotropic target still recovered


def test_halfspace_seed_zero_is_a_seed(capsys):
    base = ("halfspace", "--problem", "p1", "--levels", "1", "--h", str(1 / 64))
    code, unseeded, _ = run_cli(capsys, *base)
    assert code == 0
    code, seeded, _ = run_cli(capsys, *base, "--seed", "0")
    assert code == 0
    target = lambda out: float(parse_csv(out)[1][-1][2])
    assert target(unseeded) == pytest.approx(2.0, rel=1e-14)  # identity block, eta = 1
    assert target(seeded) != target(unseeded)


def test_halfspace_validation(capsys):
    code, _, _ = run_cli(capsys, "halfspace", "--problem", "harmonic")
    assert code == 2
    code, _, _ = run_cli(capsys, "halfspace", "--mode", "kernel", "--n", "3")
    assert code == 2
    code, _, _ = run_cli(capsys, "halfspace", "--h", "-1")
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    (("halfspace", "--L", "inf", "--levels", "1"), "L must be finite"),
    (("halfspace", "--eta", "inf", "--levels", "1"), "eta must be finite"),
    (("symbol", "--eta", "nan", "--points", "2"), "eta must be finite"),
    (("halfspace", "--mode", "kernel", "--samples", "16", "--xn", "inf"), "xn must be finite"),
    (("symbol", "--epsilon", "nan"), "epsilon must be finite"),
    (("halfspace", "--h", "inf"), "h must be finite"),
    (("halfspace", "--h=-inf"), "h must be finite"),
    (("halfspace", "--mode=kernel", "--xn=-inf"), "xn must be finite"),
    # finite flags whose covector norm overflows or underflows
    (("halfspace", "--eta", "1e200", "--levels", "1"), "double range"),
    (("halfspace", "--eta", "1e-200", "--levels", "1"), "double range"),
    (("symbol", "--eta", "1e300", "--points", "2"), "double range"),
    (("symbol", "--eta", "1e-200", "--points", "2"), "double range"),
    # finite flags whose step overflows the solve or whose grid length overflows
    (("halfspace", "--h", "1e300", "--levels", "2"), "integer multiple (>= 8) of h"),
    (("halfspace", "--h", "1e160", "--levels", "1"), "integer multiple (>= 8) of h"),
    (("halfspace", "--L", "1e300", "--h", "1e299", "--levels", "1"), "h * |xi'| <= 1"),
    (("halfspace", "--L", "1.79e308", "--h", "1e307", "--levels", "1"), "finite L/h"),
    (("halfspace", "--mode", "kernel", "--samples", "16", "--xn", "nan"), "xn must be finite"),
])
def test_non_finite_values_exit_2(capsys, argv, message):
    with np.errstate(over="ignore", under="ignore"):
        code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and message in err


@pytest.mark.parametrize("L", ["643.4", "1300", "1e308"])
def test_kernel_mode_refuses_aliased_windows_exit_2(capsys, L):
    # the Fourier route repeats with period 643.4 in x', and kernel mode
    # evaluates at the samples, L/2 either side of the window middle
    code, out, err = run_cli(capsys, "halfspace", "--mode", "kernel", "--samples", "16", "--L", L)
    assert code == 2 and out == "" and "pi / deta = 321.699" in err


def test_kernel_mode_window_just_inside_the_alias_bound(capsys):
    code, out, _ = run_cli(capsys, "halfspace", "--mode", "kernel", "--samples", "16",
                           "--L", "643.39")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["x", "kernel", "fourier", "abs_error"] and float(rows[0][0]) == -321.695


@pytest.mark.parametrize("argv, message", [
    ("identity-check --n 172", "n = 172 is too large: (n-1)!"),
    ("weyl --problem p1 --n 300 --m-max 30", "n = 300 is too large: base^(n-1)"),
    ("weyl --problem p1 --n 100 --m-max 1000", "n = 100 is too large: tau^(n-1)"),
    ("symbol --n 282 --points 1", "n = 282 is too large: base^(n-1)"),
    ("symbol --problem p2 --n 343 --points 1", "dimension 342 is too large: Gamma(342/2 + 1)"),
])
def test_dimensions_past_double_range_exit_2(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 2 and out == "" and message in err


@pytest.mark.parametrize("argv, message", [
    ("symbol --problem p1 --n 100 --rho 1e5 --points 2", "phase volume c^(-99/1) overflows"),
    ("symbol --problem p2 --rho 1e300 --points 2", "2 / rho^3 leaves the double range"),
    ("symbol --problem p2 --rho 1e-120 --points 2", "2 / rho^3 leaves the double range"),
    ("symbol --problem p1 --rho 1e-320 --points 2", "2 / rho^1 leaves the double range"),
    ("symbol --problem p1 --rho 1e308 --points 2", "integral of rho^(n-1) overflows"),
    ("weyl --problem p1 --n 40 --m-max 64 --rho 1e10", "weight 1e+10 is too large: rho^(n-1)"),
    ("weyl --problem p1 --m-max 64 --rho 1.7e308", "boundary integral must be positive and finite"),
    ("spectrum --problem p1 --n 2 --m-max 4 --rho 1e-310", "weight 1e-310 is too small"),
    ("weyl --problem p1 --n 2 --m-max 4 --rho 1e-310", "weight 1e-310 is too small"),
    ("spectrum --problem p2 --m-max 4 --rho 1e400", "weight constant must be positive and finite"),
])
def test_weights_past_double_range_exit_2(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 2 and out == "" and message in err


def test_levels_are_bounded(capsys):
    for levels in ("33", "1100"):
        code, out, err = run_cli(capsys, "halfspace", "--levels", levels)
        assert code == 2 and out == "" and "levels <= 32" in err


def test_halfspace_grid_cap(capsys, monkeypatch):
    steps = []
    monkeypatch.setattr(halfspace, "bvp_solve_p1",
                        lambda block, datum, grid: steps.append(grid.n_steps) or 2.0)
    # at the cap: the finest rung has L/h steps whatever the covector
    code, _, _ = run_cli(capsys, "halfspace", "--levels", "1", "--eta", "3",
                         "--h", str(30 / 2 ** 22))
    assert code == 0 and steps == [2 ** 22]
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "halfspace", "--h", "1e-7", "--levels", "1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == "" and "grid too fine" in err
    assert steps == [2 ** 22] and peak < 2 ** 20  # refused before any grid exists


def test_halfspace_numerical_failure_maps_to_exit_3(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise halfspace.SolverError("synthetic failure")

    monkeypatch.setattr(halfspace, "bvp_solve_p1", boom)
    code, _, err = run_cli(capsys, "halfspace", "--problem", "p1", "--levels", "1")
    assert code == 3 and "synthetic failure" in err


# ---------------------------------------------------------------------------
# exit-code contract: 0, 2 or 3 and never a traceback, for any argv
# ---------------------------------------------------------------------------

_HOSTILE_FLOAT = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, -1e-3, 1e-3])
_HOSTILE_INT = st.sampled_from([-1, 0, 1])
# dimensions past the double range of (n-1)!, base^(n-1) and tau^(n-1)
_HOSTILE_N = st.sampled_from([-1, 0, 1, 172, 300])
# constant weights whose powers leave the double range in the counting constants,
# or whose quotients leave it in the scaled spectra
_EXTREME_WEIGHT = st.sampled_from(["1e5", "1e10", "1e300", "1e-310"])
_COUNTING_FLAGS = {
    "--problem": (st.sampled_from(["p1", "p2", "harmonic"]), st.just("p9")),
    "--n": (st.integers(2, 5), _HOSTILE_N),
    "--m-max": (st.integers(0, 2000), st.just(-1)),
    "--rho": (st.sampled_from(["1", "2.5", "0.5"]) | _EXTREME_WEIGHT, st.text()),
}

# command line before the flags: {flag: (valid values, hostile values)}; no draw
# makes a grid of more than 40 * 1000 unknowns or a spectrum past m = 2000
_FLAGS = {
    ("halfspace", "--mode=bvp"): {
        "--h": (st.floats(1 / 256, 0.5), _HOSTILE_FLOAT),
        "--L": (st.floats(20.0, 40.0), _HOSTILE_FLOAT),
        "--levels": (st.integers(1, 3), _HOSTILE_INT),
        "--eta": (st.floats(0.1, 4.0), _HOSTILE_FLOAT),
        "--seed": (st.integers(0, 5), st.just(-1)),
        "--problem": (st.sampled_from(["p1", "p2"]), st.just("harmonic")),
        "--n": (st.integers(2, 3), _HOSTILE_INT),
    },
    ("halfspace", "--mode=kernel"): {
        "--samples": (st.integers(4, 48), _HOSTILE_INT),
        "--L": (st.floats(12.0, 40.0), _HOSTILE_FLOAT),
        "--xn": (st.floats(0.05, 4.0), _HOSTILE_FLOAT),
    },
    ("symbol",): {
        "--rho": (st.sampled_from(["1", "2+cos(t)", "1+0.5*sin(2*t)"]) | _EXTREME_WEIGHT,
                  st.sampled_from(["cos(t)", "-1"]) | st.text()),
        "--eta": (st.floats(0.1, 4.0), _HOSTILE_FLOAT),
        "--epsilon": (st.floats(0.0, 1.0), _HOSTILE_FLOAT),
        "--points": (st.integers(1, 8), _HOSTILE_INT),
        "--panels": (st.integers(1, 16), _HOSTILE_INT),
        "--problem": (st.sampled_from(["p1", "p2", "harmonic"]), st.just("p3")),
        "--n": (st.integers(2, 3), _HOSTILE_INT),
    },
    ("spectrum",): _COUNTING_FLAGS,
    ("weyl",): _COUNTING_FLAGS,
    ("identity-check",): {"--n": (st.integers(2, 171), _HOSTILE_N)},
}


@st.composite
def _argv(draw):
    # each flag absent, valid or hostile, so that many draws hold a single
    # hostile value, which then gets past validation of the others into the
    # computation; --flag=value lets argparse take "-inf" and "-1" as values
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = list(command)
    for flag, (valid, hostile) in _FLAGS[command].items():
        kind = draw(st.sampled_from(["absent", "valid", "valid", "hostile"]))
        if kind != "absent":
            argv.append(f"{flag}={draw(valid if kind == 'valid' else hostile)}")
    return argv


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_argv())
def test_exit_code_contract_property(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue()


# ---------------------------------------------------------------------------
# symbol and identity-check
# ---------------------------------------------------------------------------

def test_symbol_table(capsys):
    code, out, _ = run_cli(capsys, "symbol", "--problem", "p1", "--rho", "2+cos(t)",
                           "--points", "8")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["theta", "rho", "symbol", "phase_volume"]
    assert len(rows) == 9
    first = rows[0]  # theta = 0: rho = 3, symbol = 2/3, volume = 3
    assert float(first[1]) == pytest.approx(3.0)
    assert float(first[2]) == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert float(first[3]) == pytest.approx(3.0, rel=1e-12)
    summary = rows[-1]
    assert summary[0] == "summary"
    # integral of (2+cos t) over the circle
    assert float(summary[1]) == pytest.approx(4 * math.pi, rel=1e-10)


# float.hex of the p2 symbol column of `symbol --problem p2 --n 3 --rho 2+cos(t) --points 72`,
# 1/rho multiplied in left to right after 2 q^(3/2); the second half mirrors the first
# but for rounding, so all 72 are listed
_P2_SYMBOL_HEX = """
1.2f684bda12f68p-4 1.30909d3e82268p-4 1.34105db59d2bap-4 1.39fc31bf09674p-4 1.427757c537b9dp-4
1.4db4f4664ad73p-4 1.5bf9f7c6090b9p-4 1.6d9fb0b3d9cb1p-4 1.831729360dbe3p-4 1.9ced6f2dc04acp-4
1.bbd0f2f2f0e46p-4 1.e0982c45ecd51p-4 1.0624dd2f1a9fdp-3 1.201319e16e1d6p-3 1.3ed9e8eb0dc92p-3
1.636605f9e1eb5p-3 1.8ed58233da9f4p-3 1.c280278253b97p-3 1.0000000000000p-2 1.249c7f3b960c3p-2
1.502f05946a766p-2 1.83f856c679fa0p-2 1.c15b9339fe299p-2 1.04e8c6c0f36bcp-1 1.2f684bda12f65p-1
1.60d22df0219c0p-1 1.9998c50f7baccp-1 1.d9d187180ac32p-1 1.1080c97f6a188p+0 1.36f2bbb70d93ep+0
1.5f1fa259710ebp+0 1.875e0b352b717p+0 1.ad82e589c4900p+0 1.cf09404316816p+0 1.e95b2f16ecccep+0
1.fa3302a84f052p+0 1.0000000000000p+1 1.fa3302a84f052p+0 1.e95b2f16ecccep+0 1.cf0940431681bp+0
1.ad82e589c4900p+0 1.875e0b352b71dp+0 1.5f1fa259710f0p+0 1.36f2bbb70d93ep+0 1.1080c97f6a18cp+0
1.d9d187180ac35p-1 1.9998c50f7bad0p-1 1.60d22df0219bap-1 1.2f684bda12f6dp-1 1.04e8c6c0f36c1p-1
1.c15b9339fe299p-2 1.83f856c679fa0p-2 1.502f05946a766p-2 1.249c7f3b960c3p-2 1.0000000000003p-2
1.c280278253b9dp-3 1.8ed58233da9f7p-3 1.636605f9e1eb8p-3 1.3ed9e8eb0dc92p-3 1.201319e16e1dap-3
1.0624dd2f1aa01p-3 1.e0982c45ecd51p-4 1.bbd0f2f2f0e46p-4 1.9ced6f2dc04acp-4 1.831729360dbe3p-4
1.6d9fb0b3d9cb5p-4 1.5bf9f7c6090b9p-4 1.4db4f4664ad76p-4 1.427757c537b9dp-4 1.39fc31bf09674p-4
1.34105db59d2bap-4 1.30909d3e82268p-4
""".split()


def test_p2_symbol_column_is_bit_exact(capsys):
    code, out, _ = run_cli(capsys, "symbol", "--problem", "p2", "--n", "3", "--rho", "2+cos(t)",
                           "--points", "72")
    assert code == 0
    _, rows = parse_csv(out)
    assert [float(r[2]).hex() for r in rows[:-1]] == ["0x" + h for h in _P2_SYMBOL_HEX]


def test_symbol_rejects_negative_weight(capsys):
    code, _, err = run_cli(capsys, "symbol", "--rho", "cos(t)", "--points", "16")
    assert code == 2


def test_identity_check(capsys):
    code, out, _ = run_cli(capsys, "identity-check", "--n", "8")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["n", "residual"]
    assert [r[0] for r in rows] == [str(n) for n in range(2, 9)]
    assert all(float(r[1]) < 1e-12 for r in rows)


# ---------------------------------------------------------------------------
# plumbing: determinism, files, config
# ---------------------------------------------------------------------------

def test_output_is_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "weyl", "--problem", "p2", "--m-max", "50")
    _, out2, _ = run_cli(capsys, "weyl", "--problem", "p2", "--m-max", "50")
    assert out1 == out2


def test_output_file(tmp_path, capsys):
    target = tmp_path / "spec.csv"
    code, out, _ = run_cli(capsys, "spectrum", "--n", "3", "--m-max", "1",
                           "--out", str(target))
    assert code == 0 and out == ""
    lines = target.read_text().splitlines()
    assert lines[0] == "index,value,multiplicity,cumulative_count"
    assert lines[1] == "0,3,1,1"


def test_config_file_defaults_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("problem = p1\nn = 2\nm-max: 3\n# comment\n")
    code, out, _ = run_cli(capsys, "spectrum", "--config", str(cfg))
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 4
    code, out, _ = run_cli(capsys, "spectrum", "--config", str(cfg), "--m-max", "1")
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 2


def test_config_file_errors(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just words\n")
    code, _, err = run_cli(capsys, "spectrum", "--config", str(cfg))
    assert code == 2
    code, _, _ = run_cli(capsys, "spectrum", "--config", str(tmp_path / "missing.cfg"))
    assert code == 2


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "typo.cfg"
    for text in ("mmax = 3\n", "bogus = 1\n", "h = 0.1\n"):  # h: a halfspace key
        cfg.write_text(text)
        code, out, err = run_cli(capsys, "spectrum", "--config", str(cfg))
        assert code == 2 and out == "" and "unknown key" in err


# one value per setting, each different from its default
_SAMPLES = {
    "problem": "harmonic", "n": "3", "m_max": "7", "rho": "2+cos(t)", "h": "0.125",
    "L": "12.5", "panels": "5", "eta": "0.75", "epsilon": "0.25",
    "levels": "3", "points": "5", "samples": "9", "xn": "0.5", "seed": "11",
    "mode": "kernel", "out": "table.csv",
}


def _config(argv):
    cfg = vars(cli._build_config(cli._build_parser().parse_args(argv)))
    del cfg["config"]
    return cfg


@pytest.mark.parametrize("field", sorted(cli._SETTINGS))
def test_flag_and_config_key_give_the_same_configuration(tmp_path, field):
    path = tmp_path / "run.cfg"
    path.write_text(f"{field} = {_SAMPLES[field]}\n")
    # a field that only kernel mode reads is drawn in kernel mode
    mode = [] if "bvp" in cli._SETTINGS[field].modes else ["--mode", "kernel"]
    for command in cli._SETTINGS[field].commands:  # every (command, field) pair
        via_flag = _config([command, *mode, "--" + field.replace("_", "-"), _SAMPLES[field]])
        assert via_flag == _config([command, *mode, "--config", str(path)]), command
        assert via_flag[field] != _config([command, *mode])[field], command


def test_flags_a_command_does_not_read_exit_2(capsys):
    argvs = [("identity-check", "--mode", "kernel", "--h", "5"),
             ("identity-check", "--h", "5"),  # not taken as an abbreviation of --help
             ("spectrum", "--eta", "2"), ("weyl", "--seed", "1"),
             ("halfspace", "--sample", "16")]  # not taken as an abbreviation of --samples
    flags = lambda fields: {"--" + field.replace("_", "-") for field in fields}
    for command in cli._DISPATCH:  # every other command's flag, every abbreviation
        own = flags(cli._settings_of(command)) | {"--config", "--help"}
        prefixes = {flag[:i] for flag in own for i in range(3, len(flag))}
        argvs += [(command, flag + "=1") for flag in sorted((flags(cli._SETTINGS) | prefixes) - own)]
    for argv in argvs:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and "unrecognized arguments" in err, argv


def test_kernel_mode_refuses_the_bvp_flags(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    for flag, value in [("--problem", "p1"), ("--h", "5"), ("--levels", "2"),
                        ("--eta", "2"), ("--seed", "0")]:
        config.write_text(f"mode = kernel\n{flag[2:]} = {value}\n")
        for argv in (["--mode", "kernel", "--samples", "16", flag, value],
                     ["--samples", "16", "--config", str(config)]):
            code, out, err = run_cli(capsys, "halfspace", *argv)
            assert code == 2 and out == "" and f"{flag} is not read in kernel mode" in err, argv
    code, out, err = run_cli(capsys, "halfspace", "--levels", "1", "--samples", "16", "--xn", "2")
    assert code == 2 and out == "" and "is not read in bvp mode" in err


def test_readme_flag_lists_match_the_parsers():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    listed = {m[1]: set(re.findall(r"`(--[\w-]+)", m[2]))
              for m in re.finditer(r"^\* `([\w-]+)`: (.*)$", readme, re.M)}
    parser = cli._build_parser()
    subparsers = next(a.choices for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert listed.keys() == subparsers.keys()
    for command, sub in subparsers.items():
        assert listed[command] == {"--" + f.replace("_", "-") for f in cli._settings_of(command)}
        options = {option for action in sub._actions for option in action.option_strings}
        assert options == listed[command] | {"--config", "-h", "--help"}
    assert sum(map(len, listed.values())) == 31


def test_readme_commands_run(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    commands = [shlex.split(line, comments=True)[1:]
                for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
                for line in block.splitlines() if line.startswith("bisteklov ")]
    assert len(commands) >= 12
    for argv in commands:
        assert main(argv + ["--out", str(tmp_path / "out.csv")]) == 0, argv


@pytest.mark.parametrize("golden, line", [
    ("spectrum", "spectrum --problem p1 --n 3 --m-max 10"),
    ("weyl", "weyl --problem p2 --m-max 10000 --out flux_counts.csv"),
    ("symbol", 'symbol --problem p1 --rho "2+cos(t)" --points 72'),
    ("identity_check", "identity-check --n 12"),
])
def test_readme_output_is_byte_identical_to_the_golden(tmp_path, monkeypatch, capsys,
                                                       golden, line):
    # the benchmark's golden CSVs, read only; they match these commands byte for byte
    root = Path(__file__).resolve().parents[1]
    assert f"bisteklov {line}\n" in (root / "README.md").read_text(encoding="utf-8")
    monkeypatch.chdir(tmp_path)  # where --out flux_counts.csv lands
    code, out, _ = run_cli(capsys, *shlex.split(line))
    data = (tmp_path / "flux_counts.csv").read_bytes() if "--out" in line else out.encode()
    expected = gzip.decompress((root / "perfbench" / "golden" / f"{golden}.csv.gz").read_bytes())
    assert code == 0 and data == expected


def test_module_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "bisteklov", "spectrum", "--n", "2", "--m-max", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1] == "0,2,1,1"


def test_unknown_flag_exits_2():
    proc = subprocess.run(
        [sys.executable, "-m", "bisteklov", "spectrum", "--bogus"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2


def _fresh(*args):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))


def _fresh_python(code):
    proc = _fresh("-c", code)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.mark.parametrize("argv", ["symbol --eta 1e200", "halfspace --eta 1e200",
                                  "halfspace --mode kernel --L 1e308"])
def test_overflowing_inputs_print_only_the_refusal(argv):
    # a fresh process, so that a numpy overflow warning would reach stderr
    proc = _fresh("-m", "bisteklov", *argv.split())
    assert proc.returncode == 2 and proc.stdout == ""
    assert re.fullmatch(r"error: [^\n]+\n", proc.stderr), proc.stderr


def test_import_does_not_load_scipy():
    assert _fresh_python("import sys, bisteklov; print('scipy' in sys.modules)") == "False"


def test_fd_ladder_does_not_load_scipy():
    out = _fresh_python(
        "import os, sys\n"
        "from bisteklov.cli import main\n"
        "code = main(['halfspace', '--problem', 'p1', '--h', '0.001953125', '--levels', '4',\n"
        "             '--out', os.devnull])\n"
        "print(code, 'scipy' in sys.modules)")
    assert out == "0 False"


def test_kernel_mode_does_not_load_scipy():
    out = _fresh_python(
        "import os, sys\n"
        "from bisteklov.cli import main\n"
        "code = main(['halfspace', '--mode', 'kernel', '--samples', '32', '--L', '16',\n"
        "             '--out', os.devnull])\n"
        "print(code, 'scipy' in sys.modules)")
    assert out == "0 False"
