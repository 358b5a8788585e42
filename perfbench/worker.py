"""One workload process of the benchmark; run.py starts it.

``worker.py --workload W --seed N --seconds S --trace 0|1 [--setup-only]``

Sets up (imports bisteklov unless the workload runs the CLI as child
processes, builds the seeded ops, runs one warm-up op) and prints ``ready``.
Then, unless ``--setup-only``:

* ``--trace 0`` repeats the cycle of ops until S seconds have passed, checking
  every op, and prints a JSON report of latencies and outcomes;
* ``--trace 1`` alternates an untraced and a traced cycle until S seconds have
  passed, checks that both give identical outputs, writes the spans as JSON
  lines and prints a JSON report of per-layer metrics, per cycle.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import importlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import workloads as W
from tracer import LAYERS, Tracer, self_times

OUT = W.HERE / "out"
IMPORT_REPEATS = 3


def execute(op: W.Op, tracer: Tracer | None = None, index: int | None = None):
    """Run one op; returns its record (None if it raised) and its latency."""
    start = time.perf_counter()
    span = None
    if tracer is not None:
        tracer.op = index
        span = tracer.open(op.label, "op")
    try:
        record = op.run()
    except Exception:
        print(f"op {op.label!r} raised:", file=sys.stderr)
        traceback.print_exc()
        record = None
    finally:
        if span is not None:
            tracer.close(span)
    return record, time.perf_counter() - start


def judge(op: W.Op, record) -> W.Check:
    if record is None:
        return W.Check(False, kind="raised")
    try:
        return op.check(record, op.reference)
    except Exception:
        print(f"op {op.label!r} gave output its check could not read:", file=sys.stderr)
        traceback.print_exc()
        return W.Check(False, kind="bad output")


def digest(record) -> str:
    return hashlib.sha256(repr(record).encode()).hexdigest()


class Tally:
    """Outcomes of the ops run so far."""

    def __init__(self):
        self.latencies: list[float] = []
        self.by_op: dict[str, list[float]] = collections.defaultdict(list)
        self.kinds: collections.Counter = collections.Counter()
        self.failed: list[str] = []
        self.rel_err_max = 0.0

    def add(self, op: W.Op, check: W.Check, latency: float) -> None:
        self.latencies.append(latency)
        self.by_op[op.label].append(latency)
        self.kinds[check.kind] += 1
        self.rel_err_max = max(self.rel_err_max, check.rel_err)
        if not check.ok:
            self.failed.append(op.label)

    def report(self) -> dict:
        return {"attempted": len(self.latencies), "failed": len(self.failed),
                "failed_ops": sorted(set(self.failed)), "kinds": dict(self.kinds),
                "rel_err_max": self.rel_err_max,
                "op_median_s": {k: statistics.median(v) for k, v in self.by_op.items()}}


def run_cycle(ops, tally: Tally, tracer: Tracer | None = None) -> tuple[list[str], float]:
    digests, busy = [], 0.0
    for i, op in enumerate(ops):
        record, latency = execute(op, tracer, i)
        busy += latency
        tally.add(op, judge(op, record), latency)
        digests.append(digest(record))
    return digests, busy


def timed_pass(ops, seconds: float) -> dict:
    tally, first, deterministic = Tally(), None, True
    deadline = time.perf_counter() + seconds
    cycle_s, cycle_wall = [], []
    while True:
        start = time.perf_counter()
        digests, busy = run_cycle(ops, tally)
        cycle_s.append(busy)
        cycle_wall.append(time.perf_counter() - start)
        first = first or digests
        deterministic &= digests == first
        # whole cycles only: stop where the pass ends nearest the deadline
        if time.perf_counter() + statistics.median(cycle_wall) / 2 >= deadline:
            break
    return dict(tally.report(), latencies=tally.latencies, cycles=len(cycle_s),
                cycle_s=cycle_s, ops_per_cycle=len(ops), consistent=deterministic)


# ---------------------------------------------------------------------------
# traced pass
# ---------------------------------------------------------------------------

def parse_importtime(text: str) -> dict[str, float]:
    """Cumulative seconds of each package's outermost imports, from the
    ``-X importtime`` tree (printed children first, two spaces per level)."""
    nodes, pending = [], []
    for line in text.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3 or "cumulative" in line:
            continue
        depth = (len(parts[2]) - len(parts[2].lstrip()) - 1) // 2
        nodes.append({"name": parts[2].strip(), "cum": int(parts[1]) / 1e6, "parent": None})
        while pending and nodes[pending[-1]]["depth"] > depth:
            nodes[pending.pop()]["parent"] = len(nodes) - 1
        nodes[-1]["depth"] = depth
        pending.append(len(nodes) - 1)

    def package(name: str) -> str:
        return name.split(".")[0]

    totals: dict[str, float] = collections.defaultdict(float)
    for node in nodes:
        parent = node["parent"]
        if parent is None or package(nodes[parent]["name"]) != package(node["name"]):
            totals[package(node["name"])] += node["cum"]
    return totals


def import_metrics() -> dict[str, float]:
    python_s, tables = [], []
    for _ in range(IMPORT_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        python_s.append(time.perf_counter() - start)
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import bisteklov"],
                              capture_output=True, text=True, check=True)
        tables.append(parse_importtime(proc.stderr))
    out = {"import.python_s": statistics.median(python_s)}
    for package in ("numpy", "scipy", "bisteklov"):
        out[f"import.{package}_s"] = statistics.median(t.get(package, 0.0) for t in tables)
    return out


def layer_metrics(tracer: Tracer, tally: Tally, cycles: int) -> dict[str, float]:
    """Per-layer metrics per cycle of the workload, from the traced cycles."""
    spans, c = tracer.spans, tracer.counters
    own = self_times(spans)
    out: dict[str, float] = {}

    def total(names) -> float:
        return sum(s["end"] - s["start"] for s in spans if s["name"] in names) / cycles

    for layer in LAYERS:
        mine = [s for s in spans if s["layer"] == layer and s["op"] is not None]
        out[f"{layer}.calls"] = len(mine) / cycles
        out[f"{layer}.self_s"] = sum(own[s["id"]] for s in mine) / cycles
    for key in ("cli.csv_rows", "cli.csv_bytes", "spectra.entries", "spectra.basis_polys",
                "spectra.poly_terms", "counting.count_queries", "counting.series_samples",
                "counting.quad_nodes", "counting.mc_samples", "symbols.evals",
                "halfspace.fd_solves", "halfspace.fd_unknowns", "halfspace.kernel_evals",
                "halfspace.fourier_madds"):
        out[key] = c[key] / cycles
    out["cli.csv_bytes_per_s"] = (out["cli.csv_bytes"] / out["cli.self_s"]
                                  if out["cli.self_s"] else 0.0)
    out["counting.mc_accept_ratio"] = (c["counting.mc_inside"] / c["counting.mc_samples"]
                                       if c["counting.mc_samples"] else 0.0)
    out["halfspace.fd_s"] = total({"halfspace.bvp_solve_p1", "halfspace.bvp_solve_p2"})
    out["halfspace.fd_unknowns_per_s"] = (out["halfspace.fd_unknowns"] / out["halfspace.fd_s"]
                                          if out["halfspace.fd_s"] else 0.0)
    out["halfspace.fd_refused"] = tally.kinds["refused"] / cycles
    out["halfspace.fd_wrong"] = tally.kinds["wrong"] / cycles
    out["halfspace.kernel_s"] = total({"halfspace.solve_by_kernel", "halfspace.kernel_K"})
    out["halfspace.fourier_s"] = total({"halfspace.fourier_synthesis"})
    out["check.fail_ratio"] = len(tally.failed) / len(tally.latencies)
    out["check.rel_err_max"] = tally.rel_err_max
    return out


def traced_pass(ops, seconds: float, ctx: W.Context, tracer: Tracer, modules, trace_file) -> dict:
    plain, traced = Tally(), Tally()
    plain_busy = traced_busy = 0.0
    identical, cycles = True, 0
    deadline = time.perf_counter() + seconds
    while True:
        digests, busy = run_cycle(ops, plain)
        plain_busy += busy
        ctx.tracer = tracer
        tracer.install(modules)
        try:
            traced_digests, busy = run_cycle(ops, traced, tracer)
        finally:
            tracer.uninstall()
            ctx.tracer = None
        traced_busy += busy
        identical &= digests == traced_digests
        cycles += 1
        if time.perf_counter() >= deadline:
            break
    metrics = layer_metrics(tracer, traced, cycles)
    metrics["trace.overhead_ratio"] = plain_busy / traced_busy
    metrics.update(import_metrics())
    return dict(traced.report(), attempted=len(plain.latencies) + len(traced.latencies),
                failed=len(plain.failed) + len(traced.failed), cycles=cycles,
                consistent=identical, metrics=metrics, trace_file=str(trace_file),
                traced_wall_s=traced_busy)


# ---------------------------------------------------------------------------

def run_metadata(args) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=W.ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    sources = hashlib.sha256()
    for path in sorted((W.ROOT / "src").rglob("*.py")):
        sources.update(path.relative_to(W.ROOT).as_posix().encode() + path.read_bytes())
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "threads": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            "git_commit": commit, "src_sha256": sources.hexdigest()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    tracer = Tracer()
    modules = {}
    if args.workload != "cli_readme":
        start = time.perf_counter()
        import bisteklov
        tracer.close(tracer.open("import bisteklov", "import", start))
        source = Path(bisteklov.__file__).resolve()
        if W.ROOT / "src" not in source.parents:
            raise SystemExit(f"bisteklov was imported from {source}, not from the checkout")
        modules = {name: importlib.import_module(f"bisteklov.{name}") for name in LAYERS}
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        ctx = W.Context(scratch)
        ops = W.build(args.workload, args.seed, ctx)
        if args.workload != "cli_readme":
            execute(ops[0])
        print("ready", flush=True)
        if args.setup_only:
            return 0
        meta = run_metadata(args)
        if args.trace:
            trace_file = OUT / f"{args.workload}-seed{args.seed}.trace.jsonl"
            report = traced_pass(ops, args.seconds, ctx, tracer, modules, trace_file)
            tracer.write_jsonl(trace_file, meta)
        else:
            report = timed_pass(ops, args.seconds)
            # cli_readme runs the program in child processes
            cli = args.workload == "cli_readme"
            who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
            report["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
        report["meta"] = meta
        print(json.dumps(report), flush=True)
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
