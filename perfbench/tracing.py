"""In-memory span and counter recorder wrapped around promforge's public API.

The tracer swaps each traced function for a thin wrapper that records a
span (name, start, end, parent span, unit id) and, for a few functions,
counters derived from arguments or results.  Spans stay in memory until the
run ends.  `install` also replaces every name a promforge module bound to
the original at import time (`from .newmark import newmark_integrate`), and
`restore` puts every original back, so an untraced run executes the
unmodified functions.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from math import comb

PACKAGE = "promforge"
# (module, attribute) pairs; "Class.method" patches the class attribute.
TRACED = (
    ("beam_fe", "CurvedBeamAssembly.tangent_stiffness"),
    ("beam_fe", "CurvedBeamAssembly.internal_force"),
    ("beam_fe", "static_solve"),
    ("modes", "solve_vms"),
    ("modes", "compute_smd"),
    ("modes", "compute_dual_modes"),
    ("global_basis", "build_global_rb"),
    ("global_basis", "mass_orthogonalize"),
    ("global_basis", "reorder_local_bases"),
    ("global_basis", "match_to_reference"),
    ("tensor_id", "identify_eed"),
    ("tensor_id", "identify_ed"),
    ("rom", "reduced_force"),
    ("rom", "reduced_tangent"),
    ("sym_tensor", "force_quadratic"),
    ("sym_tensor", "force_cubic"),
    ("sym_tensor", "tangent_quadratic"),
    ("sym_tensor", "tangent_cubic"),
    ("newmark", "newmark_integrate"),
    ("rbf", "evaluate_prom"),
    ("rbf", "validate_eps"),
    ("rbf", "fit_weights"),
    ("rbf", "fit_prom_interpolants"),
    ("database", "save_database"),
    ("database", "load_database"),
    ("pipeline", "build_database"),
    ("pipeline", "build_companion_database"),
    ("pipeline", "fit_prom"),
    ("pipeline", "run_benchmark"),
)


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    unit: int  # pass or query id set by the workload


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append(span.end - span.start - covered)
    return out


class Tracer:
    """Records spans and counters while installed; restores on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.unit = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------
    def _wrap(self, name: str, fn, post=None, name_of=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_name = name_of(args, kwargs) if name_of else name
            index = len(spans)
            spans.append(Span(span_name, clock(), 0.0, stack[-1] if stack else -1, self.unit))
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index].end = clock()
            if post is not None:
                post(self.counters, span_name, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------
    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {
            key: mod for key, mod in sys.modules.items()
            if key == PACKAGE or key.startswith(PACKAGE + ".")
        }
        for mod_name, attr in TRACED:
            module = modules[f"{PACKAGE}.{mod_name}"]
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, leaf)
            layer = f"{mod_name}.{leaf}"
            wrapper = self._wrap(layer, original, post=_POST.get(layer), name_of=_NAMES.get(layer))
            self._set(owner, leaf, wrapper)
            if owner_name:
                continue
            # names bound by `from .module import fn` in other modules
            for other in modules.values():
                for key, value in list(vars(other).items()):
                    if value is original and other is not module:
                        self._set(other, key, wrapper)
        return self

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- reporting ---------------------------------------------------
    def layers(self) -> dict[str, dict[str, float]]:
        """calls, total seconds and self seconds per span name."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for span, own in zip(self.spans, self_times(self.spans)):
            entry = out[span.name]
            entry["calls"] += 1
            entry["s"] += span.end - span.start
            entry["self_s"] += own
        return dict(out)

    def child_calls(self, parent: str, child: str) -> int:
        """Number of `child` spans whose direct parent is a `parent` span."""
        return sum(
            1 for span in self.spans
            if span.name == child and span.parent >= 0 and self.spans[span.parent].name == parent
        )

    def probes(self) -> int:
        """FE evaluations made directly inside identification spans."""
        return sum(self.child_calls(parent, child) for parent, child in PROBED.items())

    def dump(self, path) -> None:
        """Write spans (with self time) and counters as one JSON document."""
        names = sorted({s.name for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [
            [index[s.name], s.start, s.end, s.parent, s.unit, own]
            for s, own in zip(self.spans, self_times(self.spans))
        ]
        doc = {
            "columns": ["name", "start", "end", "parent", "unit", "self_s"],
            "names": names,
            "spans": rows,
            "counters": dict(self.counters),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


# -- counters taken at the layer boundary ------------------------------
def _tangent_bytes(counters, name, args, kwargs, result):
    counters["beam_fe.tangent_stiffness.computed_bytes"] += result.size * result.itemsize


def expected_probes(method: str, m: int) -> int:
    """Closed-form identification evaluations per sample."""
    if method == "eed":
        return 2 * m + m * (m - 1) // 2
    return 2 * m + 2 * comb(m, 2) + comb(m, 3)


# the FE call each identification method probes, per sample
PROBED = {
    "tensor_id.identify_eed": "beam_fe.tangent_stiffness",
    "tensor_id.identify_ed": "beam_fe.internal_force",
}


def _probes(counters, name, args, kwargs, result):
    """Closed-form probe count of the identified sample's m; the probes
    actually made are the identify span's FE child spans."""
    counters["tensor_id.closed_form_probes"] += expected_probes(name.rpartition("_")[2], result.m)
    counters["tensor_id.samples"] += 1


def _newmark(counters, name, args, kwargs, result):
    counters[f"{name}.steps"] += result.time.size - 1


def _eps_sweep(counters, name, args, kwargs, result):
    for curve in result.curves.values():
        counters["rbf.eps_attempted"] += curve.size
        counters["rbf.eps_usable"] += int((curve < float("inf")).sum())


def _file_bytes(counters, name, args, kwargs, result):
    path = args[1] if name.endswith("save_database") else args[0]
    counters[f"{name}.bytes"] += os.path.getsize(path)


_POST = {
    "beam_fe.tangent_stiffness": _tangent_bytes,
    "tensor_id.identify_eed": _probes,
    "tensor_id.identify_ed": _probes,
    "newmark.newmark_integrate": _newmark,
    "rbf.validate_eps": _eps_sweep,
    "database.save_database": _file_bytes,
    "database.load_database": _file_bytes,
}

# Newmark spans are split by the model kind the pipeline passes.
_NAMES = {
    "newmark.newmark_integrate": lambda args, kwargs: f"newmark.{kwargs.get('kind') or 'other'}",
}
