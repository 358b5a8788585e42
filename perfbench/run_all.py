"""Run every workload and print one table: ``python3 perfbench/run_all.py [--seed N] [--trace]``.

Calls run.py once per workload listed in BENCHMARK.json, with its
run_seconds, and prints each end-to-end metric (or, with ``--trace``, each
per-layer metric) by name and unit, one column per workload.
"""

import argparse
import json
import subprocess
import sys

import workloads as W


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    spec = json.loads((W.ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    results = {}
    for name in names:
        proc = subprocess.run([sys.executable, str(W.HERE / "run.py"), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(spec["run_seconds"]),
                               "--trace", str(int(args.trace))],
                              cwd=W.ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{name} failed:\n{proc.stderr}", file=sys.stderr)
            return 1
        results[name] = json.loads(proc.stdout.splitlines()[-1])

    metrics = spec["per_layer" if args.trace else "end_to_end"]
    print(f"{'metric':30s} {'unit':6s} " + " ".join(f"{n:>17s}" for n in names))
    for m in metrics:
        cells = " ".join(f"{results[n]['metrics'][m['name']]['value']:17.6g}" for n in names)
        print(f"{m['name']:30s} {m['unit']:6s} {cells}")
    for key in ("attempted", "failed", "correct"):
        print(f"{key:30s} {'':6s} " + " ".join(f"{str(results[n][key]):>17s}" for n in names))
    return 0


if __name__ == "__main__":
    sys.exit(main())
