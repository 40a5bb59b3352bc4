"""Per-layer metrics of a traced run and the end-to-end metric each should move.

Counts and times are per traced unit: one build+fit pass on the offline
workloads, one query stream plus one benchmark on online-desk.  Ratios
(`us_per_call`, `probes_per_sample`, ...) are over every traced call.
"""

from __future__ import annotations

import statistics

from tracing import Tracer

_BUILD = "build_s (offline-*)"
_FIT = "fit_s (offline-*)"
_ONLINE_ROM = "rom_solve_s, speedup, bench_s (online-desk; offline-* only via the untraced check stage)"

# The end-to-end metric (and workload) each per-layer metric should move.
# Names, units and directions are in BENCHMARK.json.
MOVES = {
    "beam_fe.tangent_stiffness.calls": "build_s (offline-desk); hfm_solve_s, bench_s (online-desk)",
    "beam_fe.tangent_stiffness.us_per_call": "build_s (offline-desk); hfm_solve_s, bench_s (online-desk)",
    "beam_fe.tangent_stiffness.computed_mb": "build_s (offline-desk); computed n*n*8 bytes per call, not measured",
    "beam_fe.internal_force.calls": "build_s (offline-dual-ed); hfm_solve_s (online-desk)",
    "beam_fe.internal_force.us_per_call": "build_s (offline-dual-ed); hfm_solve_s (online-desk)",
    "beam_fe.static_solve.calls": "build_s (offline-dual-ed only)",
    "beam_fe.static_solve.s": "build_s (offline-dual-ed only)",
    "modes.solve_vms.calls": _BUILD,
    "modes.solve_vms.self_s": _BUILD,
    "modes.compute_smd.calls": "build_s (offline-desk)",
    "modes.compute_smd.self_s": "build_s (offline-desk)",
    "modes.compute_dual_modes.calls": "build_s (offline-dual-ed)",
    "modes.compute_dual_modes.self_s": "build_s (offline-dual-ed)",
    "global_basis.build_global_rb.s": _BUILD + "; under 2% share",
    "global_basis.mass_orthogonalize.s": _BUILD + "; under 2% share",
    "global_basis.reorder_local_bases.s": _BUILD + "; under 2% share",
    "global_basis.match_to_reference.s": _BUILD + "; under 2% share",
    "tensor_id.identify_eed.calls": "build_s (offline-desk); bench_s via the recomputed model (online-desk)",
    "tensor_id.identify_eed.self_s": "build_s (offline-desk); bench_s via the recomputed model (online-desk)",
    "tensor_id.identify_ed.calls": "build_s (offline-dual-ed)",
    "tensor_id.identify_ed.self_s": "build_s (offline-dual-ed)",
    "tensor_id.probes_per_sample": "build_s (offline-*); closed form in m",
    "rom.reduced_force.calls": _ONLINE_ROM,
    "rom.reduced_force.us_per_call": _ONLINE_ROM,
    "rom.reduced_tangent.calls": _ONLINE_ROM,
    "rom.reduced_tangent.us_per_call": _ONLINE_ROM,
    "sym_tensor.force_quadratic.s": _ONLINE_ROM,
    "sym_tensor.force_cubic.s": _ONLINE_ROM,
    "sym_tensor.tangent_quadratic.s": _ONLINE_ROM,
    "sym_tensor.tangent_cubic.s": _ONLINE_ROM,
    "newmark.rom.calls": "rom_solve_s (online-desk)",
    "newmark.rom.s": "rom_solve_s (online-desk)",
    "newmark.rom.self_s": "rom_solve_s (online-desk)",
    "newmark.rom.steps": "rom_solve_s (online-desk)",
    "newmark.rom.newton_iters_per_step": "rom_solve_s (online-desk)",
    "newmark.hfm.calls": "hfm_solve_s (online-desk)",
    "newmark.hfm.s": "hfm_solve_s (online-desk)",
    "newmark.hfm.self_s": "hfm_solve_s (online-desk)",
    "newmark.hfm.steps": "hfm_solve_s (online-desk)",
    "newmark.hfm.newton_iters_per_step": "hfm_solve_s (online-desk)",
    "rbf.evaluate_prom.us_per_call": "adapt_us_p50, adapt_us_p99 (online-desk)",
    "rbf.validate_eps.s": _FIT,
    "rbf.fit_weights.calls": _FIT,
    "rbf.fit_weights.us_per_call": _FIT,
    "rbf.eps_usable_ratio": _FIT,
    "rbf.fit_prom_interpolants.s": _FIT,
    "database.save_database.calls": "build_s, fit_s; milliseconds, predicts no gain",
    "database.save_database.s": "build_s, fit_s; milliseconds, predicts no gain",
    "database.save_database.bytes": "build_s, fit_s; milliseconds, predicts no gain",
    "database.load_database.calls": "fit_s; milliseconds, predicts no gain",
    "database.load_database.s": "fit_s; milliseconds, predicts no gain",
    "database.load_database.bytes": "fit_s; milliseconds, predicts no gain",
    "pipeline.build_database.self_s": "build_s; orchestration overhead",
    "pipeline.build_companion_database.self_s": "build_s; orchestration overhead",
    "pipeline.fit_prom.self_s": "fit_s; orchestration overhead",
    "pipeline.run_benchmark.self_s": "bench_s; orchestration overhead",
    "trace.overhead_s": "none: traced minus untraced unit wall time",
    "trace.overhead_frac": "none: overhead over the untraced unit wall time",
}

# the tangent call that marks one Newton correction, per Newmark model kind
_NEWTON_CHILD = {"rom": "rom.reduced_tangent", "hfm": "beam_fe.tangent_stiffness"}
_PER_UNIT = ("calls", "s", "self_s")


def layer_metrics(tracer: Tracer, traced: list, untraced: list) -> dict[str, float]:
    """Every MOVES metric's value from one traced run.

    `traced` and `untraced` are the wall times of the units run each way in
    that run; the difference of their medians is the tracing overhead.
    """
    units = max(len(traced), 1)
    layers = tracer.layers()
    counters = tracer.counters
    out: dict[str, float] = {}
    for name in MOVES:
        layer, _, stat = name.rpartition(".")
        entry = layers.get(layer, {"calls": 0, "s": 0.0, "self_s": 0.0})
        if stat in _PER_UNIT:
            out[name] = entry[stat] / units
        elif stat == "us_per_call":
            out[name] = entry["s"] / entry["calls"] * 1e6 if entry["calls"] else 0.0
    mb = counters["beam_fe.tangent_stiffness.computed_bytes"] / 1e6
    out["beam_fe.tangent_stiffness.computed_mb"] = mb / units
    samples = counters["tensor_id.samples"]
    out["tensor_id.probes_per_sample"] = tracer.probes() / samples if samples else 0.0
    for kind, child in _NEWTON_CHILD.items():
        steps = counters[f"newmark.{kind}.steps"]
        out[f"newmark.{kind}.steps"] = steps / units
        iters = tracer.child_calls(f"newmark.{kind}", child)
        out[f"newmark.{kind}.newton_iters_per_step"] = iters / steps if steps else 0.0
    attempted = counters["rbf.eps_attempted"]
    out["rbf.eps_usable_ratio"] = counters["rbf.eps_usable"] / attempted if attempted else 0.0
    for op in ("save_database", "load_database"):
        out[f"database.{op}.bytes"] = counters[f"database.{op}.bytes"] / units
    with_trace = statistics.median(traced) if traced else 0.0
    without = statistics.median(untraced) if untraced else 0.0
    out["trace.overhead_s"] = with_trace - without
    out["trace.overhead_frac"] = (with_trace - without) / without if without else 0.0
    return out
