"""Spans around the public functions of each coverkit module.

The benchmark's traced run replaces every binding of a traced function in
every ``coverkit.*`` module namespace (the package itself included) with one
shared wrapper. Calls made inside the package, such as a constructor's own
self-verification or lemma1's component constructors, are then recorded
too, and a function bound under two names is still recorded once per call.

Spans live in memory until the run ends. A span's self time is its
duration minus the durations of its direct children; there is one thread,
so children never overlap.
"""

from __future__ import annotations

import fnmatch
import functools
import inspect
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

from reference import constraints_scanned, num_constraints

# Layer (module) -> name patterns of the public functions traced in it.
# ``errors`` does no work and has no entry.
TRACED = {
    "cli": ("run_cli",),
    "arrayfile": ("save_array", "load_array"),
    "cff": ("construct_cff_*",),
    "universal": ("build_universal_lemma1", "construct_universal_greedy"),
    "verify": ("verify_*", "count_uncovered"),
    "oracle": ("minimal_*",),
    "bounds": ("*_bounds_report",),
    "core": ("complement", "dedup_rows"),
}
LAYERS = tuple(TRACED)


@dataclass
class Span:
    name: str
    layer: str
    parent: int | None
    op: int | None
    start: float = 0.0
    end: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans; ``op`` is the id of the operation now running."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[int] = []

    def wrap(self, layer: str, fn: Callable, count: Callable | None = None) -> Callable:
        """Return ``fn`` wrapped in a span; ``count(bound_args, result)``
        gives the span's work counts and runs after the span has ended."""
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(fn.__name__, layer, parent, self.op)
            self.spans.append(span)
            self._stack.append(index)
            span.start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._stack.pop()
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = count(bound.arguments, result)
            return result

        return traced

    def self_times(self) -> list[float]:
        """Self time of each span, in recording order."""
        own = [span.duration for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.duration
        return own


def traced_functions(package: str = "coverkit", traced: dict = TRACED) -> dict[str, list]:
    """Layer -> the functions defined in ``package.<layer>`` whose names
    match that layer's patterns. A pattern that matches nothing is an error:
    the benchmark would silently stop measuring that layer."""
    found: dict[str, list] = {}
    for layer, patterns in traced.items():
        module = sys.modules[f"{package}.{layer}"]
        own = {
            name: value
            for name, value in vars(module).items()
            if inspect.isfunction(value) and value.__module__ == module.__name__
            and not name.startswith("_")
        }
        chosen = []
        for pattern in patterns:
            names = sorted(n for n in own if fnmatch.fnmatchcase(n, pattern))
            if not names:
                raise LookupError(f"{package}.{layer} has no public function matching {pattern!r}")
            chosen.extend(own[n] for n in names)
        found[layer] = chosen
    return found


def install(recorder: Recorder, package: str = "coverkit", traced: dict = TRACED,
            counters: dict | None = None) -> Callable[[], None]:
    """Wrap every binding of every traced function in every ``package.*``
    module namespace; returns a function that puts the originals back."""
    counters = COUNTERS if counters is None else counters
    wrappers = {}
    for layer, functions in traced_functions(package, traced).items():
        for fn in functions:
            wrappers[id(fn)] = (fn, recorder.wrap(layer, fn, counters.get(fn.__name__)))
    modules = [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == package or name.startswith(package + "."))
    ]
    replaced = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            entry = wrappers.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, attr, entry[1])
                replaced.append((module, attr, value))

    def uninstall() -> None:
        for module, attr, value in replaced:
            setattr(module, attr, value)

    return uninstall


# --- work counts, read from each call's arguments and result -------------

def _header(spec) -> dict:
    """The reference's description of a CffSpec or UniversalSpec."""
    if hasattr(spec, "r"):
        return {"kind": "cff", "n": spec.n, "r": spec.r, "s": spec.s}
    return {"kind": "universal", "n": spec.n, "d": spec.d, "q": spec.q}


def _count_cff_constructor(args, result) -> dict:
    matrix = result[0] if isinstance(result, tuple) else result
    spec = args.get("spec")
    constraints = num_constraints(_header(spec)) if spec is not None else args["n"] * (args["n"] - 1)
    return {"constraints": constraints, "rows": matrix.num_rows}


def _count_universal_greedy(args, result) -> dict:
    return {"constraints": num_constraints(_header(args["spec"])), "rows": result[0].num_rows}


def _count_lemma1(args, result) -> dict:
    return {"rows": result.num_rows}


def _count_verify_cff(args, result) -> dict:
    header = {"kind": "cff", "n": args["m"].n, "r": args["r"], "s": args["s"]}
    w = result.witness
    witness = None if w is None else (w.r_columns, w.s_columns)
    return {"calls": 1, "constraints": constraints_scanned(header, witness)}


def _count_verify_universal(args, result) -> dict:
    m = args["m"]
    header = {"kind": "universal", "n": m.n, "d": args["d"], "q": m.q}
    w = result.witness
    witness = None if w is None else (w.columns, w.pattern)
    return {"calls": 1, "constraints": constraints_scanned(header, witness)}


def _count_uncovered(args, result) -> dict:
    return {"calls": 1, "constraints": num_constraints(_header(args["spec"]))}


def _count_minimal(args, result) -> dict:
    spec = args["spec"]
    return {"nodes": result.nodes, "candidates": getattr(spec, "q", 2) ** spec.n}


def _count_dedup(args, result) -> dict:
    return {"dedup_removed": args["m"].num_rows - result.num_rows}


def _count_file(args, result) -> dict:
    return {"bytes": os.path.getsize(args["path"])}


COUNTERS = {
    "construct_cff_derandomized": _count_cff_constructor,
    "construct_cff_randomized": _count_cff_constructor,
    "construct_cff_sperner": _count_cff_constructor,
    "construct_universal_greedy": _count_universal_greedy,
    "build_universal_lemma1": _count_lemma1,
    "verify_cff": _count_verify_cff,
    "verify_universal": _count_verify_universal,
    "count_uncovered": _count_uncovered,
    "minimal_universal_size": _count_minimal,
    "minimal_cff_size": _count_minimal,
    "dedup_rows": _count_dedup,
    "save_array": _count_file,
    "load_array": _count_file,
}


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "B" if name.endswith("bytes") else "count"


def layer_metrics(recorder: Recorder, op_seconds: float, passes: int) -> dict[str, float]:
    """Per-layer metrics, per measured pass. ``op_seconds`` is the summed
    wall time of the measured operations."""
    own = recorder.self_times()
    self_s = dict.fromkeys(LAYERS, 0.0)
    totals: dict[str, int] = {}
    top = 0.0
    for span, seconds in zip(recorder.spans, own):
        if span.op is None:
            continue
        self_s[span.layer] += seconds
        if span.parent is None:
            top += span.duration
        for key, value in span.counts.items():
            name = f"{span.layer}.{key}"
            totals[name] = totals.get(name, 0) + value

    def rate(count: str, layer: str) -> float:
        return totals.get(count, 0) / self_s[layer] if self_s[layer] > 0 else 0.0

    metrics = {f"{layer}.self_s": self_s[layer] / passes for layer in LAYERS}
    for name in ("cff.constraints", "cff.rows", "universal.rows", "core.dedup_removed",
                 "verify.calls", "oracle.nodes", "oracle.candidates", "arrayfile.bytes"):
        metrics[name] = totals.get(name, 0) / passes
    metrics["cff.constraints_per_s"] = rate("cff.constraints", "cff")
    metrics["universal.constraints_per_s"] = rate("universal.constraints", "universal")
    metrics["verify.constraints_per_s"] = rate("verify.constraints", "verify")
    metrics["oracle.nodes_per_s"] = rate("oracle.nodes", "oracle")
    metrics["unattributed_s"] = (op_seconds - top) / passes
    return metrics
