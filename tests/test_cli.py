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
import types
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bisteklov
from bisteklov import ProblemKind, cli, counting, halfspace, symbols
from bisteklov.counting import sphere_area, weyl_leading
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
    assert WeightExpr("1").fn(0.0) == 1.0
    assert WeightExpr("2*pi").fn(0.0) == pytest.approx(2 * math.pi)
    assert WeightExpr("-0.5 + 2").fn(0.0) == pytest.approx(1.5)
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
    # each binary operator nests the parse tree one level deeper
    for chain in ("+".join(["1"] * 3000), "*".join(["1"] * 3000)):
        with pytest.raises(ValueError, match="nested deeper"):
            WeightExpr(chain)
    assert WeightExpr("+".join(["1"] * 101)).fn(0.0) == 101.0
    assert WeightExpr("-".join(["1"] * 101)).fn(0.0) == -99.0
    assert WeightExpr("*".join(["2"] * 10)).fn(0.0) == 1024.0
    assert WeightExpr("1-2-3+4*5*6-7").fn(0.0) == 109.0
    assert WeightExpr("(" * 100 + "2" + ")" * 100).fn(0.0) == 2.0


def test_weight_expr_rejects_garbage():
    for bad in ("2 +", "cos()", "foo(t)", "1 $ 2", "(1", "2 / 3"):
        with pytest.raises(ValueError):
            WeightExpr(bad)


class _ClosureTree(WeightExpr):
    """The reference evaluator: WeightExpr's grammar and refusals, evaluated through one
    closure per node of the parse tree, as the package did before it compiled expressions."""

    def __init__(self, text):
        self.text, self._uses_param, self._tokens, self._pos = text, False, self._tokenize(text), 0
        self.fn = self._parse_expr()
        if self._pos != len(self._tokens):
            raise ValueError(f"trailing input in weight expression: {text!r}")

    def _parse_expr(self, depth=0):
        value = self._parse_term(depth)
        while self._peek() in ("+", "-"):
            op = self._take()
            depth = self._deeper(depth)
            rhs = self._parse_term(depth)
            lhs = value
            value = ((lambda t, a=lhs, b=rhs: a(t) + b(t)) if op == "+"
                     else (lambda t, a=lhs, b=rhs: a(t) - b(t)))
        return value

    def _parse_term(self, depth):
        value = self._parse_unary(depth)
        while self._peek() == "*":
            self._take()
            depth = self._deeper(depth)
            rhs = self._parse_unary(depth)
            lhs = value
            value = lambda t, a=lhs, b=rhs: a(t) * b(t)
        return value

    def _parse_unary(self, depth):
        if self._peek() == "-":
            self._take()
            inner = self._parse_unary(self._deeper(depth))
            return lambda t, a=inner: -a(t)
        return self._parse_atom(depth)

    def _parse_atom(self, depth):
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


def _outcome(fn, t):
    """float.hex of fn(t), which shows every bit of a number and any NaN as 'nan', or the
    type of what it raised.  A NaN's sign is not compared: where both operands are NaN it
    depends on whether the interpreter has specialised the operation, so the closure tree
    itself gives either sign for the same sample, cold or warm."""
    try:
        return float.hex(fn(t))
    except Exception as exc:
        return type(exc)


_MAX = WeightExpr.MAX_DEPTH


def _nested(depth):
    """A weight nested ``depth`` deep in each construct: parentheses, unary minus, ``cos(``,
    and chains of +, - and *."""
    return ["(" * depth + "2" + ")" * depth, "-" * depth + "2", "cos(" * depth + "t" + ")" * depth,
            *(op.join(["1"] * (depth + 1)) for op in "+-*")]


def _chain_of_chains():
    """Chains of + each on the parenthesized first operand of the next, every one within the
    bound, whose parse tree is about 5 000 levels deep."""
    text = "t"
    for ops in range(1, _MAX):
        text = f"({text})" + "+1" * ops
    return text


_LEAVES = st.sampled_from(["t", "theta", "pi", "0", "2", "0.5", "1e300", "1e-300", "3.25e-5",
                           "1E+2", "nan", "inf", "1e999"])
_EXPRESSIONS = st.recursive(_LEAVES, lambda inner: st.one_of(
    st.tuples(inner, st.sampled_from(["+", "-", "*", " - ", "*-", "--"]), inner).map("".join),
    inner.map("-{}".format), inner.map("({})".format),
    st.tuples(st.sampled_from(["cos", "sin"]), inner).map("{0[0]}({0[1]})".format)),
    max_leaves=24)
_POINTS = [0.0, -0.0, 1e300, -1e300, math.nan, math.inf, -math.inf, 1.0, -2.5, math.pi, 5e-324]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_EXPRESSIONS, st.lists(st.floats(), max_size=8))
def test_compiled_weight_equals_the_closure_tree(text, extra):
    compiled, reference = WeightExpr(text), _ClosureTree(text)
    assert compiled.is_constant == reference.is_constant
    for t in _POINTS + extra:
        assert _outcome(compiled.fn, t) == _outcome(reference.fn, t), (text, t)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.text("t()+-*cosinpheta0123456789.eE $", max_size=24) | _EXPRESSIONS)
def test_compiled_weight_refuses_as_the_closure_tree_does(text):
    def build(kind):
        try:
            return kind(text).is_constant
        except ValueError as exc:
            return str(exc)
    assert build(WeightExpr) == build(_ClosureTree)


@pytest.mark.parametrize("text, n, panels, pinned", [
    ("1.5+sin(3*t)", 2, 64, "0x1.2d97c7f3321d2p+3"),
    ("2+0.3*cos(t)*sin(2*t)-0.1*cos(5*t)", 2, 64, "0x1.921fb54442d14p+3"),
    ("2+cos(t)", 3, 8, "0x1.b3a259b49dad4p+5")])
def test_boundary_integral_of_an_expression_weight_is_pinned(text, n, panels, pinned):
    # the integral of rho^(n-1) as the closure tree gave it, bit for bit
    fn = WeightExpr(text).fn
    weight = (counting.unit_circle_weight(fn) if n == 2
              else counting.unit_sphere_weight(lambda t, p: fn(t)))
    assert float.hex(counting.boundary_integral(weight, n, panels)) == pinned


def test_compiled_weight_at_the_nesting_bound_equals_the_closure_tree():
    for text in _nested(_MAX) + ["cos(" * _MAX + "t" + ")" * _MAX + "+1" * _MAX]:
        compiled, reference = WeightExpr(text), _ClosureTree(text)
        for t in _POINTS:
            assert _outcome(compiled.fn, t) == _outcome(reference.fn, t), (text, t)
    for text in _nested(_MAX + 1) + [_chain_of_chains()]:
        with pytest.raises(ValueError, match=f"^weight expression nested deeper than {_MAX} "):
            WeightExpr(text)


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


def test_weyl_predicts_each_row_once(capsys, monkeypatch):
    calls = []
    predicted = counting.WeylModel.predicted
    monkeypatch.setattr(counting.WeylModel, "predicted",
                        lambda self, tau: calls.append(tau) or predicted(self, tau))
    code, out, _ = run_cli(capsys, "weyl", "--problem", "p2", "--m-max", "2000")
    assert code == 0
    _, rows = parse_csv(out)
    taus = [float(r[0]) for r in rows[:-1] if float(r[0]) > 0]
    # remainder_fit's three (the ratio check at the largest tau, then both endpoints'
    # residuals), then one per row
    assert calls == [taus[-1], taus[0], taus[-1], *taus] and len(taus) == 2000


def test_weyl_residual_past_the_range_of_tau_power_exits_0(capsys):
    # tau^(n-2) = 2100^98 overflows a double, the predicted counts and residuals do not
    code, out, _ = run_cli(capsys, *"weyl --problem p1 --n 100 --m-max 1000".split())
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[-2][0] == "2100" and rows[-1][1] == rows[-2][3]
    residuals = [float(r[3]) for r in rows[:-1]]
    assert all(-1e-180 < r <= -sys.float_info.min for r in residuals)


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


# float.hex of the kernel and fourier columns of `halfspace --mode kernel --samples 128`;
# the tables the two routes build once must not change a bit of them
_KERNEL_HEX = """
1.4964945544dcdp-9 1.540abf650a997p-9 1.5f37649724053p-9 1.6af383c6f1e22p-9 1.7748e0f6fe5aap-9
1.844218b855c8ep-9 1.91eab7176e83bp-9 1.a04f516b83d86p-9 1.af7da3749b237p-9 1.bf84b04699c84p-9
1.d074e79579037p-9 1.e26050107ee7dp-9 1.f55ab7995c6dep-9 1.04bcf524a5751p-8 1.0f6af8b1957bap-8
1.1ac4adc40199fp-8 1.26d8c7e2a5bafp-8 1.33b796b282cd7p-8 1.41733d652bf60p-8 1.501ff30f624ffp-8
1.5fd44d950c28bp-8 1.70a99934aa883p-8 1.82bc3f3087b23p-8 1.962c3ea55dd6dp-8 1.ab1dbb55912d2p-8
1.c1b9a71869dacp-8 1.da2e8bc4c5a4dp-8 1.f4b17cea43d21p-8 1.08bf9d4acd510p-7 1.186ec86c60e38p-7
1.298e8187b480bp-7 1.3c4d6b100cdc5p-7 1.50e1c954b6ccdp-7 1.678b0fd32bdffp-7 1.8093d02cc663fp-7
1.9c54272663917p-7 1.bb34cdb56f5bap-7 1.ddb30175b95d5p-7 1.0232c54bcb34fp-6 1.18019fe864e05p-6
1.30b5c75b4dd07p-6 1.4cd8e2c32cf92p-6 1.6d161562b97d6p-6 1.92443180c4791p-6 1.bd73a6dd36e71p-6
1.f001ba7092b65p-6 1.15d99e7e64d8bp-5 1.396ce5d525bcbp-5 1.6443c15fb0899p-5 1.986ab1aa90466p-5
1.d89f8f5ed5454p-5 1.14442b385f9a8p-4 1.46749972797cdp-4 1.85e0865139fb2p-4 1.d60e754089cb3p-4
1.1d568aeb01f70p-3 1.5b62073d2d8e9p-3 1.a5b022d12700ap-3 1.faef9ed1b0ab3p-3 1.2b950a6a796a5p-2
1.59b482ce356d3p-2 1.831bb6f6ab9dcp-2 1.a29775aa5d5abp-2 1.b3a5db5e4c8efp-2 1.b3a5db5e4c8f0p-2
1.a29775aa5d5afp-2 1.831bb6f6ab9e0p-2 1.59b482ce356d5p-2 1.2b950a6a796a5p-2 1.faef9ed1b0ab5p-3
1.a5b022d127015p-3 1.5b62073d2d8f3p-3 1.1d568aeb01f76p-3 1.d60e754089caap-4 1.85e0865139fb6p-4
1.46749972797cep-4 1.14442b385f9aap-4 1.d89f8f5ed5453p-5 1.986ab1aa9046dp-5 1.6443c15fb089ep-5
1.396ce5d525bd2p-5 1.15d99e7e64d91p-5 1.f001ba7092b61p-6 1.bd73a6dd36e72p-6 1.92443180c4791p-6
1.6d161562b97d6p-6 1.4cd8e2c32cf8ep-6 1.30b5c75b4dd0bp-6 1.18019fe864e09p-6 1.0232c54bcb351p-6
1.ddb30175b95d1p-7 1.bb34cdb56f5b9p-7 1.9c54272663918p-7 1.8093d02cc663fp-7 1.678b0fd32bdfep-7
1.50e1c954b6ccfp-7 1.3c4d6b100cdc4p-7 1.298e8187b480cp-7 1.186ec86c60e39p-7 1.08bf9d4acd511p-7
1.f4b17cea43d21p-8 1.da2e8bc4c5a4dp-8 1.c1b9a71869dadp-8 1.ab1dbb55912d4p-8 1.962c3ea55dd6ep-8
1.82bc3f3087b24p-8 1.70a99934aa883p-8 1.5fd44d950c28cp-8 1.501ff30f624fap-8 1.41733d652bf5fp-8
1.33b796b282cd6p-8 1.26d8c7e2a5bb2p-8 1.1ac4adc40199fp-8 1.0f6af8b1957bbp-8 1.04bcf524a5752p-8
1.f55ab7995c6dep-9 1.e26050107ee80p-9 1.d074e79579039p-9 1.bf84b04699c87p-9 1.af7da3749b23ap-9
1.a04f516b83d85p-9 1.91eab7176e83fp-9 1.844218b855c92p-9 1.7748e0f6fe5afp-9 1.6af383c6f1e23p-9
1.5f37649724052p-9 1.540abf650a991p-9 1.4964945544dd0p-9
""".split()
_FOURIER_HEX = """
1.49fb311053a43p-9 1.54a15ad4fbd73p-9 1.5fcdfec13d9edp-9 1.6b8a1cb07989ep-9 1.77df78a539830p-9
1.84d8af3089b95p-9 1.92814c5ee04a9p-9 1.a0e5e58778575p-9 1.b014366a57029p-9 1.c01b421b6181fp-9
1.d10b784e90dfdp-9 1.e2f6dfb32b0cap-9 1.f5f1462ae0c12p-9 1.05083be77594dp-8 1.0fb63ef11560cp-8
1.1b0ff382d2f31p-8 1.27240d236a258p-8 1.3402db77dbd5fp-8 1.41be81b1bb126p-8 1.506b36e5c8e30p-8
1.601f90f7eb7ccp-8 1.70f4dc26a3d63p-8 1.830781b43c1ebp-8 1.967780bd6e7cbp-8 1.ab68fd049f108p-8
1.c204e86115e77p-8 1.da79cca9b0be6p-8 1.f4fcbd6e0eca2p-8 1.08e53d5d731a1p-7 1.1894685117546p-7
1.29b4213fcbe87p-7 1.3c730a9cd5843p-7 1.510768b780f68p-7 1.67b0af0d47c6bp-7 1.80b96f3f843b9p-7
1.9c79c6131387cp-7 1.bb5a6c7d61987p-7 1.ddd8a01a3dff6p-7 1.0245948cfec79p-6 1.18146f1931beap-6
1.30c8967c5c02cp-6 1.4cebb1d524852p-6 1.6d28e46642657p-6 1.9257007686be3p-6 1.bd8675c5da879p-6
1.f014894cbfae2p-6 1.15e305e693fd8p-5 1.39764d37c1868p-5 1.644d28bd0cf2bp-5 1.9874190301496p-5
1.d8a8f6b2aedbbp-5 1.1448dee02aac0p-4 1.46794d184cd03p-4 1.85e539f53f8c5p-4 1.d61328e2eb956p-4
1.1d58e4bb75f60p-3 1.5b64610cf9a4fp-3 1.a5b27ca0602bep-3 1.faf1f8a06be82p-3 1.2b963751a2901p-2
1.59b5afb534993p-2 1.831ce3dd8b4e1p-2 1.a298a291280e3p-2 1.b3a708450cc3fp-2 1.b3a708450cc41p-2
1.a298a291280e7p-2 1.831ce3dd8b4e9p-2 1.59b5afb53499bp-2 1.2b963751a2905p-2 1.faf1f8a06be8bp-3
1.a5b27ca0602cep-3 1.5b64610cf9a64p-3 1.1d58e4bb75f6dp-3 1.d61328e2eb95bp-4 1.85e539f53f8d8p-4
1.46794d184cd0fp-4 1.1448dee02aac7p-4 1.d8a8f6b2aedd8p-5 1.98741903014b4p-5 1.644d28bd0cf44p-5
1.39764d37c1874p-5 1.15e305e693fe8p-5 1.f014894cbfaecp-6 1.bd8675c5da891p-6 1.9257007686bfep-6
1.6d28e46642676p-6 1.4cebb1d52486dp-6 1.30c8967c5c03dp-6 1.18146f1931c02p-6 1.0245948cfec8cp-6
1.ddd8a01a3e00ep-7 1.bb5a6c7d61985p-7 1.9c79c61313891p-7 1.80b96f3f843d6p-7 1.67b0af0d47c93p-7
1.510768b780f6dp-7 1.3c730a9cd584ep-7 1.29b4213fcbe9ep-7 1.1894685117564p-7 1.08e53d5d731cep-7
1.f4fcbd6e0ececp-8 1.da79cca9b0c19p-8 1.c204e86115e81p-8 1.ab68fd049f11ap-8 1.967780bd6e7fbp-8
1.830781b43c240p-8 1.70f4dc26a3d63p-8 1.601f90f7eb7a4p-8 1.506b36e5c8e5cp-8 1.41be81b1bb16dp-8
1.3402db77dbd8ap-8 1.27240d236a295p-8 1.1b0ff382d2f42p-8 1.0fb63ef11560fp-8 1.05083be775960p-8
1.f5f1462ae0c38p-9 1.e2f6dfb32b0ecp-9 1.d10b784e90e52p-9 1.c01b421b6184dp-9 1.b014366a5703fp-9
1.a0e5e58778582p-9 1.92814c5ee04a8p-9 1.84d8af3089b99p-9 1.77df78a53986ep-9 1.6b8a1cb0798bap-9
1.5fcdfec13da0dp-9 1.54a15ad4fbd9cp-9 1.49fb311053a45p-9
""".split()


def test_kernel_mode_columns_are_bit_exact(capsys):
    code, out, _ = run_cli(capsys, "halfspace", "--mode", "kernel", "--samples", "128")
    assert code == 0
    _, rows = parse_csv(out)
    assert [float(r[1]).hex() for r in rows[:-1]] == ["0x" + h for h in _KERNEL_HEX]
    assert [float(r[2]).hex() for r in rows[:-1]] == ["0x" + h for h in _FOURIER_HEX]


def test_halfspace_seeded_block_deterministic(capsys):
    args = ("halfspace", "--problem", "p1", "--seed", "9", "--levels", "2",
            "--h", str(1 / 128))
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    _, rows = parse_csv(out1)
    assert float(rows[-1][3]) < 1e-3  # anisotropic target still recovered


def test_halfspace_bvp_run_checks_the_metric_once(capsys, monkeypatch):
    # the block's tangential metric is the one the target symbol reads
    calls = []
    check = symbols._check_spd
    monkeypatch.setattr(symbols, "_check_spd", lambda *a: calls.append(a) or check(*a))
    code, _, _ = run_cli(capsys, "halfspace", "--problem", "p2", "--n", "3", "--seed", "4",
                         "--levels", "2")
    assert code == 0 and len(calls) == 1


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


@pytest.mark.parametrize("xn", ["103", "1e308"])
def test_kernel_mode_refuses_heights_the_fourier_nodes_cannot_resolve_exit_2(capsys, xn):
    # deta = 80/8192 leaves fewer than one node per decay length of exp(-eta x_n) past
    # x_n = 102.4; at 1e308 the Fourier column read 2.75e305 with exit 0
    code, out, err = run_cli(capsys, "halfspace", "--mode", "kernel", "--samples", "16", "--xn", xn)
    assert code == 2 and out == "" and "cannot resolve x_n" in err
    code, _, _ = run_cli(capsys, "halfspace", "--mode", "kernel", "--samples", "16", "--xn", "102")
    assert code == 0


@pytest.mark.parametrize("argv, message", [
    # 1 / (2^(n-2) (n-1)!) is subnormal from n = 152 on, and the check runs n = 2, 3, ...
    ("identity-check --n 172", "n = 152 is too large: 1 / (2^(n-2) (n-1)!)"),
    ("weyl --problem p1 --n 300 --m-max 30", "n = 300 is too large: base^(n-1)"),
    ("symbol --n 282 --points 1", "n = 282 is too large: base^(n-1)"),
    ("symbol --problem p2 --n 343 --points 1", "dimension 342 is too large: Gamma(342/2 + 1)"),
])
def test_dimensions_past_double_range_exit_2(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 2 and out == "" and message in err


@pytest.mark.parametrize("argv, message", [
    ("symbol --problem p1 --n 100 --rho 1e5 --points 2", "omega_99 c^(-99/1) leaves the double range"),
    ("symbol --problem p2 --rho 1e300 --points 2", "2 / rho^3 leaves the double range"),
    ("symbol --problem p2 --rho 1e-120 --points 2", "2 / rho^3 leaves the double range"),
    ("symbol --problem p1 --rho 1e-320 --points 2", "2 / rho^1 leaves the double range"),
    # 2 / 1e308 is subnormal; 2 / 5e307 is normal, and the integral then overflows
    ("symbol --problem p1 --rho 1e308 --points 2", "2 / rho^1 leaves the double range"),
    ("symbol --problem p1 --rho 5e307 --points 2", "integral of rho^(n-1) must be positive"),
    ("weyl --problem p1 --n 40 --m-max 64 --rho 1e10", "weight 1e+10 out of range: rho^(n-1)"),
    ("weyl --problem p1 --m-max 64 --rho 1.7e308", "weight 1.7e+308 out of range: rho^(n-1)"),
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
# covectors that pass validation but whose principal symbol leaves the double
# range above (p2 from |eta| = 1e102.7 on) or below
_ETA = st.floats(0.1, 4.0) | st.sampled_from([1e120, -1e150, 1e-110])
# weights that are not finite numbers, and weights nested to the bound and one past it
_HOSTILE_WEIGHT = st.sampled_from(["nan", "inf", "1e999", "cos(nan)", "t*1e999",
                                   *_nested(_MAX), *_nested(_MAX + 1), _chain_of_chains()])
_COUNTING_FLAGS = {
    "--problem": (st.sampled_from(["p1", "p2", "harmonic"]), st.just("p9")),
    "--n": (st.integers(2, 5), _HOSTILE_N),
    "--m-max": (st.integers(0, 2000), st.sampled_from([-1, 1_000_001])),
    "--rho": (st.sampled_from(["1", "2.5", "0.5"]) | _EXTREME_WEIGHT,
              st.text() | _HOSTILE_WEIGHT),
}

# command line before the flags: {flag: (valid values, hostile values)}; no draw
# makes a grid of more than 40 * 1000 unknowns or a spectrum past m = 2000, and a
# count past its bound (--m-max, --samples, --points, --panels, halfspace's --n) is
# refused before anything is allocated
_FLAGS = {
    ("halfspace", "--mode=bvp"): {
        "--h": (st.floats(1 / 256, 0.5), _HOSTILE_FLOAT),
        "--L": (st.floats(20.0, 40.0), _HOSTILE_FLOAT),
        "--levels": (st.integers(1, 3), _HOSTILE_INT),
        "--eta": (_ETA, _HOSTILE_FLOAT),
        "--seed": (st.integers(0, 5), st.just(-1)),
        "--problem": (st.sampled_from(["p1", "p2"]), st.just("harmonic")),
        "--n": (st.integers(2, 3), _HOSTILE_INT | st.just(343)),
    },
    ("halfspace", "--mode=kernel"): {
        "--samples": (st.integers(4, 48), _HOSTILE_INT | st.just(8193)),
        "--L": (st.floats(12.0, 40.0), _HOSTILE_FLOAT),
        "--xn": (st.floats(0.05, 4.0), _HOSTILE_FLOAT),
    },
    ("symbol",): {
        "--rho": (st.sampled_from(["1", "2+cos(t)", "1+0.5*sin(2*t)"]) | _EXTREME_WEIGHT,
                  st.sampled_from(["cos(t)", "-1"]) | st.text() | _HOSTILE_WEIGHT),
        "--eta": (_ETA, _HOSTILE_FLOAT),
        "--epsilon": (st.floats(0.0, 1.0), _HOSTILE_FLOAT),
        "--points": (st.integers(1, 8), _HOSTILE_INT | st.just(100_001)),
        "--panels": (st.integers(1, 16), _HOSTILE_INT | st.just(100_001)),
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


def test_exit_code_sweep_of_covectors_past_the_double_range():
    # every problem and dimension against covectors whose symbol leaves the double
    # range above or below, and weights that push the weighted value out: each run
    # exits 2, or exits 0 with every symbol and target a normal finite double
    etas = ["1e120", "-1e150", "1e-110", "-1e-107", "1e-160", "1e300", "4"]
    runs = [["halfspace", "--problem", p, "--n", n, "--eta=" + eta]
            for p in ("p1", "p2", "harmonic") for n in ("2", "3") for eta in etas]
    runs += [["symbol", "--problem", p, "--n", n, "--eta=" + eta, "--rho", rho]
             for p in ("p1", "p2", "harmonic") for n in ("2", "3") for eta in etas
             for rho in ("1", "1e-200", "1e300", "2+cos(t)")]
    for argv in runs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2), (argv, code, err.getvalue())
        if code == 0:
            header, rows = parse_csv(out.getvalue())
            column = header.index("symbol" if argv[0] == "symbol" else "target")
            assert all(sys.float_info.min <= float(r[column]) < math.inf
                       for r in rows if r[column]), argv


# the refusal of each hostile weight by spectrum and weyl, and by symbol; None: exit 0
_CONSTANT_ONLY = ("this command needs a constant weight; expressions over the boundary "
                  "parameter belong to the 'symbol' command")
_NOT_FINITE, _NOT_POSITIVE = ("weight constant must be positive and finite",
                              "rho + epsilon must be positive where divided by")
_OUT_OF_RANGE, _TOO_DEEP = ("weight out of range: 2 / rho^1 leaves the double range",
                            f"weight expression nested deeper than {_MAX} levels")
_HOSTILE_REFUSALS = {
    "nan": (_NOT_FINITE, _NOT_POSITIVE), "inf": (_NOT_FINITE, _OUT_OF_RANGE),
    "1e999": (_NOT_FINITE, _OUT_OF_RANGE), "cos(nan)": (_NOT_FINITE, _NOT_POSITIVE),
    "t*1e999": (_CONSTANT_ONLY, _NOT_POSITIVE),
    # at the bound the parentheses, the unary minuses and the + and * chains are positive
    # constants, the cos nest is not constant, and the - chain is 1 - 1 - ... - 1 = -99
    **dict(zip(_nested(_MAX), [(None, None), (None, None), (_CONSTANT_ONLY, None),
                               (None, None), (_NOT_FINITE, "weight is negative at theta=0"),
                               (None, None)])),
    **{text: (_TOO_DEEP, _TOO_DEEP) for text in _nested(_MAX + 1) + [_chain_of_chains()]},
}


def test_exit_code_sweep_of_hostile_weights():
    # every command that reads --rho, against weights that are not finite numbers and weights
    # nested to the bound and one past it in each construct: each exits 0, or 2 with its one
    # refusal, the one these weights met when they were evaluated through closures (the chain
    # of chains then ended in a RecursionError traceback)
    for text, (constant, weighted) in _HOSTILE_REFUSALS.items():
        for command, refusal in (("spectrum", constant), ("weyl", constant), ("symbol", weighted)):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, "--rho=" + text])
            if refusal is None:
                assert (code, err.getvalue()) == (0, ""), (command, text)
            else:
                assert (code, out.getvalue(), err.getvalue()) == (2, "", f"error: {refusal}\n"), \
                    (command, text)


def test_exit_code_sweep_of_weights_and_dimensions_past_the_double_range():
    # constant weights whose symbol, phase volume, integral of rho^(n-1) or C_lead leaves
    # the normal double range in some dimension, and the identity check either side of
    # n = 152, where 1 / (2^(n-2) (n-1)!) turns subnormal, and small constant weights in
    # weyl, whose tau^(n-1) may overflow where C_lead tau^(n-1) does not: each run exits 2,
    # or exits 0 with every such cell a normal finite double and every residual small
    runs = [["symbol", "--problem", p, "--n", str(n), "--rho", rho, "--points", "3"]
            for p in ("p1", "p2", "harmonic") for n in range(2, 6)
            for rho in ("1e-160", "1e-105", "1e-100", "1e150", "1e300", "2+cos(t)")]
    runs += [["identity-check", "--n", n] for n in ("151", "152")]
    runs += [["weyl", "--problem", "p1", "--n", str(n), "--m-max", "300", "--rho", rho]
             for n in (3, 4, 5) for rho in ("1e-60", "1e-100", "1e-150", "1e-200")]
    for argv in runs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2), (argv, code, err.getvalue())
        if code == 2:
            assert out.getvalue() == "" and err.getvalue().count("error:") == 1, argv
            continue
        _, rows = parse_csv(out.getvalue())
        if argv[0] == "identity-check":
            # the residual is a rounding error of 1 / (2^(n-2) (n-1)!), not the value itself
            assert all(float(r) <= 1e-10 * float(Fraction(1, 2 ** (int(n) - 2)
                                                          * math.factorial(int(n) - 1)))
                       for n, r in rows), argv
            continue
        if argv[0] == "weyl":  # the predicted counts
            assert all(sys.float_info.min <= float(r[2]) < math.inf for r in rows[:-1]), argv
            continue
        cells = [r[2:4] for r in rows[:-1]] + [rows[-1][1:3]]
        assert all(sys.float_info.min <= float(c) < math.inf for pair in cells for c in pair), argv


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


@pytest.mark.parametrize("rho", ["1", "2.5"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("problem", ["p1", "p2"])
def test_symbol_summary_integrates_a_constant_weight_over_the_sphere(capsys, problem, n, rho):
    # c^(n-1) |S^(n-1)|, the boundary integral and the C_lead that `weyl` uses
    code, out, _ = run_cli(capsys, "symbol", "--problem", problem, "--n", str(n), "--rho", rho,
                           "--points", "2")
    assert code == 0
    summary = parse_csv(out)[1][-1]
    integral = float(rho) ** (n - 1) * sphere_area(n)
    assert float(summary[1]) == pytest.approx(integral, rel=1e-12)
    assert float(summary[2]) == pytest.approx(weyl_leading(ProblemKind(problem), n, integral),
                                              rel=1e-12)


def test_symbol_summary_integrates_a_zonal_weight_over_the_2_sphere(capsys):
    # rho = 2+cos(t) of the polar angle: 2 pi * integral of (2+u)^2 over [-1, 1]
    code, out, _ = run_cli(capsys, "symbol", "--n", "3", "--rho", "2+cos(t)", "--points", "2")
    assert code == 0
    assert float(parse_csv(out)[1][-1][1]) == pytest.approx(2 * math.pi * (8 + 2 / 3), rel=1e-12)


# float.hex of the p2 symbol column of `symbol --problem p2 --n 2 --rho 2+cos(t) --points 72`,
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
    code, out, _ = run_cli(capsys, "symbol", "--problem", "p2", "--n", "2", "--rho", "2+cos(t)",
                           "--points", "72")
    assert code == 0
    _, rows = parse_csv(out)
    assert [float(r[2]).hex() for r in rows[:-1]] == ["0x" + h for h in _P2_SYMBOL_HEX]


def test_symbol_rows_sample_the_polar_angle_for_n_3(capsys):
    # a zonal weight of the polar angle t in [0, pi]: 4 - t is positive there
    code, out, _ = run_cli(capsys, "symbol", "--n", "3", "--rho", "4-t", "--points", "8")
    assert code == 0
    _, rows = parse_csv(out)
    assert [float(r[0]) for r in rows[:-1]] == [math.pi * j / 8 for j in range(8)]
    assert [float(r[1]) for r in rows[:-1]] == [4.0 - math.pi * j / 8 for j in range(8)]


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


def test_m_max_bound(capsys):
    # the bound itself passes validation (a run there takes about 13 s and 0.45 GB, so the
    # exit-code property draws only the value past it)
    for command in ("spectrum", "weyl"):
        assert _config([command, "--m-max", "1000000"])["m_max"] == 1_000_000
        for value in ("1000001", "20000000"):
            code, out, err = run_cli(capsys, command, "--m-max", value)
            assert (code, out, err) == (2, "", "error: need 0 <= m-max <= 1000000\n")


@pytest.mark.parametrize("argv, bound", [
    ("symbol --points", 100_000), ("symbol --panels", 100_000),
    ("halfspace --mode kernel --samples", 8192)])
def test_count_flags_are_bounded(capsys, argv, bound):
    # the bound passes validation; past it, even by far, the run is refused before it
    # allocates a row, a node or a sample
    *command, flag = argv.split()
    assert _config([*command, flag, str(bound)])[flag[2:]] == bound
    for value in (bound + 1, 100_000_000):
        code, out, err = run_cli(capsys, *command, flag, str(value))
        low = cli._SETTINGS[flag[2:]].bound[1]
        assert (code, out, err) == (2, "", f"error: need {low}\n")
        assert str(bound) in low


def test_halfspace_dimension_is_bounded(capsys):
    # halfspace checks and evaluates its metric block in Python floats; at the bound a seeded
    # run still finishes, past it the run is refused before a block is drawn
    for seed in ((), ("--seed", "1")):
        code, out, _ = run_cli(capsys, "halfspace", "--n", "342", "--levels", "1", *seed)
        assert code == 0 and len(parse_csv(out)[1]) == 2
    for value in ("343", "100000000"):
        code, out, err = run_cli(capsys, "halfspace", "--n", value)
        assert (code, out, err) == (2, "", "error: need 2 <= n <= 342\n")
    # the bound is halfspace's alone: the other commands keep their own refusals
    assert _config(["spectrum", "--n", "343"])["n"] == 343


@pytest.mark.parametrize("argv", [
    "weyl --m-max 5", "weyl --problem p1 --n 300 --m-max 30", "weyl --rho 0",
    "spectrum --problem p2 --n 3", "spectrum --problem p2 --m-max 4 --rho 1e-310"])
def test_a_refused_table_writes_nothing(capsys, tmp_path, argv):
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 2 and out == "" and err.startswith("error: ")
    path = tmp_path / "table.csv"
    assert run_cli(capsys, *argv.split(), "--out", str(path))[0] == 2
    assert not path.exists()


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


def test_seeded_runs_refuse_eta(tmp_path, capsys):
    # the seed draws the covector, so an --eta beside it would go unread
    both, eta = tmp_path / "both.cfg", tmp_path / "eta.cfg"
    both.write_text("seed = 3\neta = 5\n")
    eta.write_text("eta = 5\n")
    for argv in (["--seed", "3", "--eta", "5"], ["--config", str(both)],
                 ["--seed", "3", "--config", str(eta)]):
        code, out, err = run_cli(capsys, "halfspace", "--levels", "1", *argv)
        assert code == 2 and out == "" and err.count("error:") == 1, argv
        assert "--eta is not read with --seed" in err, argv


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


def _fresh_env():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def _fresh(*args, cwd=None):
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=_fresh_env(), cwd=cwd)


def test_a_closed_stdout_stops_quietly(tmp_path):
    # 630 KB of rows overfill the pipe, so the writer meets the closed end for certain
    argv = [sys.executable, "-m", "bisteklov", "weyl", "--problem", "p2", "--m-max", "10000"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_fresh_env())
    assert proc.stdout.readline() == b"tau,count,predicted,residual_scaled\n"
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), stderr) == (0, b"")
    # a missing output directory is still a validation failure
    missing = _fresh("-m", "bisteklov", "weyl", "--problem", "p2", "--m-max", "100",
                     "--out", str(tmp_path / "missing" / "out.csv"))
    assert missing.returncode == 2 and "No such file or directory" in missing.stderr


def _fresh_python(code, cwd=None):
    proc = _fresh("-c", code, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.mark.parametrize("argv", [
    "symbol --eta 1e200", "halfspace --eta 1e200", "halfspace --mode kernel --L 1e308",
    # q^(3/2) past the double range, the weighted value past it, the value below it
    "symbol --problem p2 --eta 1e120", "halfspace --problem p2 --eta 1e120",
    "symbol --problem p1 --eta 1e150 --rho 1e-200 --points 2",
    "symbol --problem p2 --eta 1e-110", "halfspace --problem p2 --eta 1e-110",
    # a subnormal symbol or form
    "symbol --problem p2 --eta=-1e-107", "symbol --problem p1 --eta 1e-160",
    "halfspace --problem p1 --eta 1e-160 --levels 2", "halfspace --problem p1 --n 3 --eta 1e-160"])
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


# ---------------------------------------------------------------------------
# the scalar commands load neither numpy nor the dataclass machinery
# ---------------------------------------------------------------------------

# the README lines that compute on Python numbers only
_SCALAR_COMMANDS = ("spectrum --problem p1 --n 3 --m-max 10",
                    "weyl --problem p2 --m-max 10000 --out flux_counts.csv",
                    'symbol --problem p1 --rho "2+cos(t)" --points 72',
                    "identity-check --n 12")
# modules a fresh process of these commands must not load: numpy, and the dataclass
# machinery, which costs about 10 ms of start-up
_UNLOADED = ("numpy", "dataclasses", "inspect")


def test_import_and_the_exact_readme_commands_do_not_load_numpy(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    argvs = []
    for line in _SCALAR_COMMANDS:
        assert f"bisteklov {line}\n" in readme
        argvs.append(shlex.split(line))
    argvs.append(["symbol", "--n", "3", "--rho", "2+cos(t)", "--points", "20"])
    out = _fresh_python(
        "import contextlib, io, sys, bisteklov\n"
        "from bisteklov.cli import main\n"
        f"loaded = lambda: [name for name in {_UNLOADED!r} if name in sys.modules]\n"
        "seen = [loaded()]\n"
        f"for argv in {argvs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        seen.append((main(argv), loaded()))\n"
        "print(seen)", cwd=tmp_path)
    assert out == repr([[]] + [(0, [])] * len(argvs))
    assert (tmp_path / "flux_counts.csv").stat().st_size > 0


# the names the package exported when it imported every submodule eagerly
_PUBLIC_NAMES = [
    "AdequacyError", "BasisSizeError", "BoundaryMetric", "BoundaryWeight", "CountingSeries",
    "EigenpairCheck", "FourierDatum", "HalfSpaceGrid", "HarmonicPoly", "HomogeneousSymbol",
    "MetricBlock", "MonteCarloVolume", "ProblemKind", "RemainderReport", "SolverError",
    "Spectrum", "SpectrumEntry", "WeylModel", "ball_count_closed", "ball_spectrum_p1",
    "boundary_integral", "bvp_solve_p1", "bvp_solve_p2", "count_upto", "counting",
    "disk_spectrum_harmonic", "disk_spectrum_p2", "fourier_solution_p1", "fourier_solution_p2",
    "fourier_synthesis", "gamma_identity_check", "halfspace", "harmonic_basis", "harmonic_dim",
    "hormander_phase_volume", "kernel_K", "phase_volume_montecarlo", "quadratic_form",
    "radial_verify_p2", "reciprocal_weight_symbol", "remainder_fit", "solve_by_kernel",
    "spectra", "sphere_area", "steklov_symbol", "symbol_compose", "symbol_steklov", "symbols",
    "theta_symbol", "unit_ball_volume", "unit_circle_weight", "unit_sphere_weight",
    "verify_ball_eigenpair", "weyl_leading", "xi_norm",
]


def test_lazy_package_lists_and_resolves_every_public_name():
    out = _fresh_python(
        "import sys, bisteklov\n"
        "names = sorted(bisteklov.__all__)\n"
        "listed = set(names) <= set(dir(bisteklov))\n"
        "print(names, listed, 'numpy' in sys.modules)")
    assert out == f"{_PUBLIC_NAMES!r} True False"
    for name in _PUBLIC_NAMES:  # each name is its defining module's object, or that module
        value = getattr(bisteklov, name)
        if isinstance(value, types.ModuleType):
            assert value is sys.modules[f"bisteklov.{name}"]
        else:
            assert getattr(sys.modules[value.__module__], name) is value
    with pytest.raises(AttributeError, match="no attribute 'nosuch'"):
        bisteklov.nosuch


def test_error_classes_are_one_class_each():
    assert bisteklov.SolverError is halfspace.SolverError is symbols.SolverError
    assert bisteklov.AdequacyError is halfspace.AdequacyError is symbols.AdequacyError
    assert issubclass(symbols.SolverError, RuntimeError)
    assert issubclass(symbols.AdequacyError, ValueError)


# ---------------------------------------------------------------------------
# small constant weights: the predicted count from factors in range
# ---------------------------------------------------------------------------

def test_small_weight_predicts_the_count_of_the_unit_weight(capsys):
    code, out, err = run_cli(capsys, "weyl", "--problem", "p1", "--n", "4", "--m-max", "300",
                             "--rho", "1e-100")
    assert code == 0, err
    _, rows = parse_csv(out)
    _, unit_rows = parse_csv(run_cli(capsys, "weyl", "--problem", "p1", "--n", "4",
                                     "--m-max", "300", "--rho", "1")[1])
    assert [r[1] for r in rows[:-1]] == [r[1] for r in unit_rows[:-1]]
    # tau^3 passes 2^1024 at the top rows, the predicted count is that of rho = 1
    assert float(rows[-2][0]) > sys.float_info.max ** (1 / 3)
    assert math.isclose(float(rows[-2][2]), float(unit_rows[-2][2]), rel_tol=1e-12)
