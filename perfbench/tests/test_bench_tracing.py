"""Tracer: self-time arithmetic, span nesting, counters and restoration."""

import numpy as np
import pytest

from promforge import beam_fe, newmark, pipeline, rom, sym_tensor
from promforge.rom import RomOperators
from promforge.tensor_id import IdentifiedTensors

import layers
from tracing import Span, Tracer, self_times


def test_self_time_subtracts_union_of_children():
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 3.0, 0, 0),
        Span("b", 2.0, 5.0, 0, 0),  # overlaps a: the union 1..5 is covered
        Span("a.leaf", 1.5, 2.5, 1, 0),
        Span("other", 11.0, 12.0, -1, 1),
    ]
    assert self_times(spans) == pytest.approx([6.0, 1.0, 3.0, 1.0, 1.0])


def test_child_outside_parent_is_clipped():
    spans = [Span("p", 0.0, 2.0, -1, 0), Span("c", 1.5, 3.0, 0, 0)]
    assert self_times(spans) == pytest.approx([1.5, 1.5])


def _tiny_rom(m=3):
    return RomOperators(
        basis=np.eye(5, m),
        k1_diag=np.arange(1.0, m + 1.0),
        tensors=IdentifiedTensors.zeros(m),
        alpha=0.1,
        beta=0.01,
        p_hat=np.zeros(2),
    )


def test_wrappers_replace_import_time_bindings_and_are_restored():
    originals = {
        "pipeline.newmark_integrate": pipeline.newmark_integrate,
        "newmark.newmark_integrate": newmark.newmark_integrate,
        "rom.force_quadratic": rom.force_quadratic,
        "internal_force": beam_fe.CurvedBeamAssembly.__dict__["internal_force"],
    }
    with Tracer():
        assert pipeline.newmark_integrate is newmark.newmark_integrate
        assert pipeline.newmark_integrate.__wrapped__ is originals["newmark.newmark_integrate"]
        assert rom.force_quadratic is sym_tensor.force_quadratic
        assert rom.force_quadratic.__wrapped__ is originals["rom.force_quadratic"]
        assert beam_fe.CurvedBeamAssembly.__dict__["internal_force"] is not originals["internal_force"]
    assert pipeline.newmark_integrate is originals["pipeline.newmark_integrate"]
    assert newmark.newmark_integrate is originals["newmark.newmark_integrate"]
    assert rom.force_quadratic is originals["rom.force_quadratic"]
    assert beam_fe.CurvedBeamAssembly.__dict__["internal_force"] is originals["internal_force"]


def test_restored_after_an_exception():
    tracer = Tracer()
    with pytest.raises(ValueError):
        with tracer:
            rom.reduced_force(_tiny_rom(), np.zeros(4))  # wrong width
    assert not hasattr(rom.reduced_force, "__wrapped__")
    assert [s.name for s in tracer.spans][0] == "rom.reduced_force"


def test_spans_nest_and_newmark_counters_split_by_kind():
    ops = _tiny_rom()
    tracer = Tracer()
    tracer.unit = 7
    with tracer:
        hist = newmark.newmark_integrate(
            rom.rom_model(ops, lambda t: np.ones(5) * np.sin(t)), 0.05, 0.01, kind="rom"
        )
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    (root,) = by_name["newmark.rom"]
    assert root.parent == -1 and root.unit == 7
    assert all(tracer.spans[s.parent].name == "newmark.rom" for s in by_name["rom.reduced_force"])
    assert all(tracer.spans[s.parent].name == "rom.reduced_force" for s in by_name["sym_tensor.force_cubic"])
    assert tracer.counters["newmark.rom.steps"] == hist.time.size - 1

    metrics = layers.layer_metrics(tracer, [2.0], [1.5])
    tangents = len(by_name.get("rom.reduced_tangent", []))
    assert metrics["newmark.rom.newton_iters_per_step"] == tangents / (hist.time.size - 1)
    assert metrics["rom.reduced_force.calls"] == len(by_name["rom.reduced_force"])
    assert metrics["trace.overhead_s"] == pytest.approx(0.5)
    assert metrics["trace.overhead_frac"] == pytest.approx(0.5 / 1.5)
    assert set(metrics) == set(layers.MOVES)


def test_probes_are_fe_spans_directly_inside_identification():
    spans = [Span("tensor_id.identify_eed", 0.0, 10.0, -1, 0)]
    spans += [Span("beam_fe.tangent_stiffness", i, i + 0.5, 0, 0) for i in range(3)]
    spans += [Span("tensor_id.identify_ed", 20.0, 30.0, -1, 0)]
    spans += [Span("beam_fe.internal_force", 21.0 + i, 21.5 + i, 4, 0) for i in range(2)]
    spans += [Span("beam_fe.tangent_stiffness", 11.0, 12.0, -1, 0)]  # not a probe
    tracer = Tracer()
    tracer.spans = spans
    assert tracer.probes() == 5
