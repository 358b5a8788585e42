"""Span recorder for the benchmark's traced pass.

`Tracer.install` wraps the public functions of the bisteklov modules at run
time.  A call that enters a layer from outside it records one span (name,
layer, start, end, parent span, op id); calls that stay inside a layer run
unwrapped, so a span marks a layer boundary.  Spans stay in memory and are
written as JSON lines when the run ends.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import collections
import functools
import inspect
import json
import time
import types

LAYERS = ("cli", "spectra", "counting", "symbols", "halfspace")

# Public classes whose construction is a layer's own work, wrapped like functions.
WRAPPED_CLASSES = {"cli": ("WeightExpr",)}


def _entries(args, result):
    return {"spectra.entries": len(result.entries)} if result is not None else {}


def _poly_terms(args, result):
    # terms of the verified product (1 - |x|^2) * psi, computed from the input
    return {"spectra.poly_terms": len(args["psi"].times_one_minus_r2().terms)}


def _mc(args, result):
    counts = {"counting.mc_samples": args["samples"]}
    if result is not None and result.value > 0:
        # stderr / value = sqrt((1 - p) / (p N)) gives back the accepted share p
        ratio = result.stderr / result.value
        counts["counting.mc_inside"] = args["samples"] / (1.0 + args["samples"] * ratio**2)
    return counts


def _fd(args, result):
    return {"halfspace.fd_solves": 1, "halfspace.fd_unknowns": args["grid"].n_steps + 1}


def _kernel_conv(args, result):
    nonzero = sum(int((d != 0).sum()) for d in (args["phi"], args["h"]) if d is not None)
    points = len(args["points"])
    return {"halfspace.kernel_evals": points * nonzero * 2}  # the 1-sphere has two nodes


def _kernel_single(args, result):
    nodes = 2 if args["A"].dim == 2 else args["quad_points"]
    return {"halfspace.kernel_evals": nodes}


def _fourier(args, result):
    # computed from the array sizes: the two forward transforms and one
    # inverse sum per evaluation point
    e, s, p = args["eta_points"], len(args["y"]), len(args["points"])
    return {"halfspace.fourier_madds": 2 * e * s + p * e}


def _one(key):
    return lambda args, result: {key: 1}


# Counters taken at a layer boundary, from the call's arguments and result.
COUNT_HOOKS = {
    "spectra.ball_spectrum_p1": _entries,
    "spectra.disk_spectrum_p2": _entries,
    "spectra.disk_spectrum_harmonic": _entries,
    "spectra.harmonic_basis": lambda a, r: {"spectra.basis_polys": len(r)} if r else {},
    "spectra.verify_ball_eigenpair": _poly_terms,
    "counting.count_upto": _one("counting.count_queries"),
    "counting.remainder_fit": lambda a, r: {"counting.series_samples": len(a["series"].samples)},
    "counting.boundary_integral": lambda a, r: {
        "counting.quad_nodes": (16 * a["panels"]) ** len(a["weight"].domain)},
    "counting.phase_volume_montecarlo": _mc,
    "symbols.quadratic_form": _one("symbols.evals"),
    "symbols.symbol_F": _one("symbols.evals"),
    "symbols.symbol_Theta": _one("symbols.evals"),
    "symbols.symbol_steklov": _one("symbols.evals"),
    "halfspace.bvp_solve_p1": _fd,
    "halfspace.bvp_solve_p2": _fd,
    "halfspace.solve_by_kernel": _kernel_conv,
    "halfspace.kernel_K": _kernel_single,
    "halfspace.fourier_synthesis": _fourier,
}


class Tracer:
    """In-memory spans and counters for one traced pass."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counters: collections.Counter = collections.Counter()
        self.op = None
        self._stack: list[dict] = []
        self._next_id = 0
        self._restore: list[tuple] = []

    # -- spans ------------------------------------------------------------

    def open(self, name: str, layer: str, start: float | None = None) -> dict:
        span = {"id": self._next_id, "name": name, "layer": layer,
                "start": time.perf_counter() if start is None else start, "end": None,
                "parent": self._stack[-1]["id"] if self._stack else None, "op": self.op}
        self._next_id += 1
        self._stack.append(span)
        return span

    def close(self, span: dict, end: float | None = None, error: str | None = None) -> None:
        span["end"] = time.perf_counter() if end is None else end
        if error:
            span["error"] = error
        popped = self._stack.pop()
        assert popped is span, "spans must close in the order they opened"
        self.spans.append(span)

    @property
    def current(self) -> dict:
        return self._stack[-1]

    def adopt(self, spans: list[dict], parent: dict) -> None:
        """Re-parent spans recorded by a child process under ``parent``."""
        ids = {s["id"]: self._next_id + i for i, s in enumerate(spans)}
        self._next_id += len(spans)
        for s in spans:
            s = dict(s, id=ids[s["id"]], op=parent["op"],
                     parent=ids[s["parent"]] if s["parent"] is not None else parent["id"])
            self.spans.append(s)

    # -- wrapping ---------------------------------------------------------

    def install(self, modules: dict[str, types.ModuleType]) -> None:
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if name.startswith("_"):
                    continue
                own_function = (isinstance(obj, types.FunctionType)
                                and obj.__module__ == module.__name__)
                if own_function or name in WRAPPED_CLASSES.get(layer, ()):
                    self._restore.append((module, name, obj))
                    setattr(module, name, self._wrap(layer, name, obj))

    def uninstall(self) -> None:
        while self._restore:
            module, name, obj = self._restore.pop()
            setattr(module, name, obj)

    def _wrap(self, layer: str, name: str, fn):
        qualname = f"{layer}.{name}"
        hook = COUNT_HOOKS.get(qualname)
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            if self._stack and self._stack[-1]["layer"] == layer:
                return fn(*args, **kwargs)
            span = self.open(qualname, layer)
            result = None
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(span, error=type(exc).__name__)
                raise
            else:
                self.close(span)
            finally:
                if hook:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    self.counters.update(hook(bound.arguments, result))
            return result

        return traced

    # -- output -----------------------------------------------------------

    def write_jsonl(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps({"meta": header}) + "\n")
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the time its direct child spans cover."""
    child_time: dict = collections.defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: (s["end"] - s["start"]) - child_time[s["id"]] for s in spans}
