"""Self-test of the benchmark: ``python3 -m pytest -q perfbench/selftest.py``.

Runs a short untraced and a short traced pass of every workload, checks the
metrics against BENCHMARK.json, the trace file, self times, that a corrupted
reference counts as a failed op, and that the benchmark refuses to run
without the program's sources.  Takes about 70 s on two cores.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import worker  # noqa: E402
import workloads as W  # noqa: E402

SPEC = json.loads((W.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(workload: str, trace: int, root: Path = W.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=180)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == RESULT_KEYS
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    assert not result["correct"] or result["failed"] == 0
    return result


def assert_metrics(result: dict, section: str) -> None:
    expected = {m["name"]: m for m in SPEC[section]}
    assert set(result["metrics"]) == set(expected)
    for name, m in result["metrics"].items():
        assert m["unit"] == expected[name]["unit"]
        assert expected[name]["better"] in ("lower", "higher")
        assert isinstance(m["value"], float) and m["value"] == m["value"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_pass(workload):
    result = result_of(bench(workload, 0))
    assert_metrics(result, "end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_pass(workload):
    result = result_of(bench(workload, 1))
    assert_metrics(result, "per_layer")
    record = json.loads((HERE / "out" / f"{workload}-seed3-trace1.json").read_text())
    assert record["consistent"], "traced and untraced outputs differ"

    lines = Path(record["trace_file"]).read_text().splitlines()
    assert "meta" in json.loads(lines[0])
    spans = [json.loads(line) for line in lines[1:]]
    assert {s["layer"] for s in spans} >= set(W.LOADS[workload])
    for layer in set(W.LOADS[workload]) - {"import"}:
        assert result["metrics"][f"{layer}.calls"]["value"] > 0
    own = tracer.self_times(spans)
    assert min(own.values()) >= -1e-9
    in_ops = sum(own[s["id"]] for s in spans if s["op"] is not None)
    assert in_ops <= record["traced_wall_s"] + 1e-6


def corrupt(ref):
    """The same reference with one value changed."""
    if isinstance(ref, bool):
        return not ref
    if isinstance(ref, (int, Fraction)):
        return ref + 1
    if isinstance(ref, float):
        return ref * 1.5 + 1.0
    if isinstance(ref, str):
        return str(float(ref) * 1.5 + 1.0)
    if isinstance(ref, (list, tuple)):
        i = 1 if len(ref) > 1 else 0  # past a CSV header row
        return type(ref)([*ref[:i], corrupt(ref[i]), *ref[i + 1:]])
    key = next(k for k in ("target", "counts", "golden") if k in ref)
    return dict(ref, **{key: corrupt(ref[key])})


# ops whose reference is a value; a kernel-vs-Fourier op's reference is a gap limit
CORRUPTED = {
    "cli_readme": tuple(f"cli {name}" for name in W.README_COMMANDS),
    "exact_counting": ("eigenpairs", "radial", "p1 ball", "p2 disk", "circle", "sphere",
                       "symbol sweep", "montecarlo"),
    "halfspace_fd": ("fd p1 identity h=1/512", "fd p2 spd n=3 h=1/512"),
    "halfspace_kernel": ("kernel n=3",),
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_reference_fails(workload, tmp_path, monkeypatch):
    for key, value in W.pinned_env().items():
        monkeypatch.setenv(key, value)
    monkeypatch.syspath_prepend(str(W.ROOT / "src"))
    ops = W.build(workload, 3, W.Context(tmp_path))
    picked = {}
    for op in ops:
        prefix = next((p for p in CORRUPTED[workload] if op.label.startswith(p)), None)
        if prefix is not None and prefix not in picked:
            picked[prefix] = op
    assert set(picked) == set(CORRUPTED[workload])
    for op in picked.values():
        record, _ = worker.execute(op)
        assert worker.judge(op, record).ok, op.label
        op.reference = corrupt(op.reference)
        assert not worker.judge(op, record).ok, op.label


def test_fd_cliff_rule(monkeypatch):
    """A wrong value fails a rung short of the cliff; past it, it is counted as
    wrong without failing the op, and a non-finite value still fails."""
    gated = {"target": 2.0, "tol": 1e-4, "refusal_ok": False, "cliff": False}
    cliff = dict(gated, refusal_ok=True, cliff=True)
    assert W._check_rung(("value", 2.0001), gated).kind == "pass"
    assert not W._check_rung(("value", 2.5), gated).ok
    assert W._check_rung(("value", 2.5), cliff) == W.Check(True, 0.25, "wrong")
    assert not W._check_rung(("value", float("nan")), cliff).ok
    assert not W._check_rung(("refused", "AdequacyError"), gated).ok
    assert W._check_rung(("refused", "AdequacyError"), cliff).kind == "refused"
    monkeypatch.syspath_prepend(str(W.ROOT / "src"))
    ops = W.build("halfspace_fd", 3, W.Context(Path(".")))
    past = {op.label.split(" h=")[1] for op in ops if op.reference["cliff"]}
    assert past == {"1/2896", "1/4096", "1/5793", "1/8192", "1/11585", "1/16384"}
    assert sum(op.reference["cliff"] for op in ops) == 3 * (3 + 6)


def test_refuses_without_program(tmp_path):
    shutil.copy(W.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "halfspace_fd",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy",
        "import time:       200 |        300 |     scipy.linalg",
        "import time:        50 |         50 |     numpy",
        "import time:        10 |        360 |   pkg.sub",
        "import time:         5 |        365 | pkg",
    ])
    totals = worker.parse_importtime(text)
    assert totals == {"scipy": 300e-6, "numpy": 50e-6, "pkg": 365e-6}
