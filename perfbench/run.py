"""bisteklov benchmark: ``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1``.

Run from the root of a checkout; it measures the sources under ``src/``.
Workloads: cli_readme, exact_counting, halfspace_fd, halfspace_kernel (see
perfbench/README.md).  With ``--trace 0`` it times the workload and reports
the end-to-end metrics; with ``--trace 1`` it runs a separate traced pass and
reports the per-layer metrics.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  A per-run record with
the run metadata goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time

import workloads as W

WORKER = W.HERE / "worker.py"
# set-up is timed in this many fresh processes (the timed worker is the last)
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0

# metric names, units and directions are defined once, in BENCHMARK.json
SPEC = json.loads((W.ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


class BenchError(RuntimeError):
    pass


def start_worker(args, extra: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a fresh worker process; returns it and its set-up time, from
    launch to its ``ready`` line."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=W.ROOT, env=W.pinned_env(), stdout=subprocess.PIPE,
                            text=True)
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker did not get ready (exit {proc.returncode})")
    return proc, setup_s


def finish(proc: subprocess.Popen, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker ran past the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return out


def end_to_end(report: dict, setups: list[float]) -> dict[str, float]:
    lat = report["latencies"]
    return {
        "setup_s": statistics.median(setups),
        # all ops of the timed pass over their time, checks excluded
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_s": statistics.median(lat),
        "op_p90_s": statistics.quantiles(lat, n=10, method="inclusive")[-1],
        "peak_rss_mb": report["peak_rss_mb"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (W.ROOT / "src" / "bisteklov" / "__init__.py").is_file():
        print(f"error: no bisteklov sources under {W.ROOT / 'src'}", file=sys.stderr)
        return 2

    # a terminated run stops its worker too (see the finally below)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    deadline = time.perf_counter() + TIME_LIMIT_S
    setups, proc = [], None
    try:
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                proc, setup_s = start_worker(args, ["--setup-only"])
                finish(proc, deadline)
                setups.append(setup_s)
        proc, setup_s = start_worker(args, [])
        setups.append(setup_s)
        report = json.loads(finish(proc, deadline).splitlines()[-1])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()

    if args.trace:
        metrics = report.pop("metrics")
    else:
        metrics = end_to_end(report, setups)
        report["setup_samples_s"] = setups
        report["op_samples"] = len(report.pop("latencies"))
    correct = report["failed"] == 0 and report["consistent"]
    result = {"correct": correct, "attempted": report["attempted"], "failed": report["failed"],
              "metrics": {k: {"value": v, "unit": UNITS[k]}
                          for k, v in metrics.items()}}

    record = W.HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(dict(report, result=result), indent=1))
    print(f"workload {args.workload} seed {args.seed}: {report['attempted']} ops "
          f"in {report['cycles']} cycles, {report['failed']} failed "
          f"(fail_ratio {report['failed'] / report['attempted']:.4g}), "
          f"rel_err_max {report['rel_err_max']:.3g}, consistent {report['consistent']}, "
          f"outcomes {report['kinds']}")
    if report["failed"]:
        print("failing ops: " + "; ".join(report["failed_ops"]))
    for name, m in result["metrics"].items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"meta": report["meta"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
