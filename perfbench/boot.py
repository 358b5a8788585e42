"""Run one bisteklov CLI call with spans: ``boot.py SPAN_FILE ARGS...``.

The traced form of ``python -m bisteklov ARGS...``: it times
``import bisteklov`` as the import span, wraps the package's modules, calls
``cli.main(ARGS)``, writes the spans and counters to SPAN_FILE as JSON and
exits with the CLI's exit code.  Stdout is the CLI's own.
"""

import sys
import time

start = time.perf_counter()
import bisteklov.cli  # noqa: E402  (what `python -m bisteklov` imports; the first span)
end = time.perf_counter()

import importlib  # noqa: E402
import json  # noqa: E402

from tracer import LAYERS, Tracer  # noqa: E402


def main() -> int:
    tracer = Tracer()
    tracer.close(tracer.open("import bisteklov", "import", start), end)
    tracer.install({name: importlib.import_module(f"bisteklov.{name}") for name in LAYERS})
    try:
        return bisteklov.cli.main(sys.argv[2:])
    finally:
        sys.stdout.flush()
        with open(sys.argv[1], "w", encoding="utf-8") as f:
            json.dump({"spans": tracer.spans, "counters": tracer.counters}, f)


if __name__ == "__main__":
    sys.exit(main())
