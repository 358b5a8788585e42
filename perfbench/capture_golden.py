"""Capture the golden CSVs of the README commands: ``python3 perfbench/capture_golden.py``.

Runs each README command line once against the checkout's ``src`` and stores
its CSV, gzipped, under ``perfbench/golden``.  The goldens are the reference
of the cli_readme workload, so recapture them only when a change is meant to
alter the README output.
"""

import gzip
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads


def main() -> None:
    workloads.GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "flux_counts.csv"
        for name in workloads.README_COMMANDS:
            argv = workloads.readme_argv(name, out)
            proc = subprocess.run([sys.executable, "-m", "bisteklov", *argv],
                                  env=workloads.pinned_env(), capture_output=True, check=True)
            data = out.read_bytes() if "--out" in argv else proc.stdout
            (workloads.GOLDEN / f"{name}.csv.gz").write_bytes(gzip.compress(data, mtime=0))
            print(f"{name}: {len(data)} bytes")


if __name__ == "__main__":
    main()
