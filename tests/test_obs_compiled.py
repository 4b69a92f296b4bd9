"""Observation that does not deoptimize: compiled windows under sinks.

Compiled (blockgen) windows emit no core-tick kinds (``cycle_span`` and
the per-instruction pipeline kinds), so the machine may open them while
only SPL, memory or system kinds are subscribed (``obs.core_active``
False).  These tests hold that gate in both directions:

* a sink on the shared-code kinds sees exactly the same event stream
  with blockgen on and off, and the run really goes compiled;
* a profiler or pipeline-trace sink keeps every cycle interpreted, so
  its spans and per-instruction records are those of the interpreter.
"""

import pytest

from repro.common.config import RunOptions
from repro.cpu.trace import PipelineTracer
from repro.obs import CollectorSink, EventBus
from repro.obs import events as ev
from repro.obs.profile import ProfilerSink
from repro.obs.progress import ProgressSink
from repro.system.machine import Machine
from repro.workloads import registry

SHARED_KINDS = ev.SPL_KINDS | ev.MEM_KINDS | ev.SYSTEM_KINDS

#: Multi-core registry variants: SPL queues, communication, software
#: queues, SPL and hardware barriers.
_MULTI = [
    ("wc", "spl", {"items": 24}),
    ("wc", "comm", {"items": 24}),
    ("hmmer", "compcomm", {"M": 48, "R": 2}),
    ("adpcm", "ooo2comm", {"items": 60}),
    ("wc", "swqueue", {"items": 24}),
    ("ll2", "barrier", {"n": 32, "p": 4}),
    ("ll3", "barrier_comp", {"n": 24, "passes": 2, "p": 4}),
    ("dijkstra", "barrier", {"n": 12, "p": 2}),
    ("ll6", "hwbar", {"n": 24, "p": 4}),
]


def _observed_run(bench, variant, params, sink, kinds, blockgen):
    spec = registry.REGISTRY[bench].variants[variant](**params)
    machine = Machine(spec.system)
    machine.obs.attach(sink, kinds=kinds)
    machine.load(spec.workload)
    cycles = machine.run(options=RunOptions(max_cycles=spec.max_cycles,
                                            blockgen=blockgen))
    machine.finish_observation()
    spec.workload.check(machine.memory)
    return cycles, machine


def _stream(sink):
    return [(e.cycle, e.source, e.kind, e.args) for e in sink.events]


class TestFlags:
    @pytest.mark.parametrize("kinds", [
        ProgressSink.KINDS, ev.SPL_KINDS, ev.MEM_KINDS, ev.SYSTEM_KINDS,
        SHARED_KINDS])
    def test_shared_kind_sinks_leave_core_dark(self, kinds):
        bus = EventBus()
        bus.attach(CollectorSink(), kinds=kinds)
        assert bus.active
        assert not bus.core_active
        assert not bus.pipeline_active

    @pytest.mark.parametrize("kinds,pipeline", [
        (None, True),
        (frozenset((ev.CYCLE_SPAN,)), False),
        (frozenset((ev.RETIRE,)), True),
        (ProfilerSink.KINDS, False),
    ])
    def test_core_kind_sinks_light_core(self, kinds, pipeline):
        bus = EventBus()
        sink = bus.attach(CollectorSink(), kinds=kinds)
        assert bus.core_active
        assert bus.pipeline_active is pipeline
        bus.detach(sink)
        assert not (bus.active or bus.core_active or bus.pipeline_active)


@pytest.mark.parametrize("bench,variant,params", _MULTI,
                         ids=[f"{b}-{v}" for b, v, _ in _MULTI])
def test_shared_kind_stream_identical_compiled(bench, variant, params):
    """SPL/memory/system events come from code compiled windows share,
    so the stream is identical with blockgen on and off — and the
    observed blockgen run really executes compiled cycles."""
    runs = []
    for blockgen in (False, True):
        sink = CollectorSink()
        cycles, machine = _observed_run(bench, variant, params, sink,
                                        SHARED_KINDS, blockgen)
        runs.append((cycles, machine.stats.as_dict(), _stream(sink),
                     machine._bg_multi.fused_cycles))
    interp, compiled = runs
    assert interp[3] == 0
    assert compiled[3] > 0, "observed run never opened a compiled window"
    assert compiled[0] == interp[0]
    assert compiled[1] == interp[1]
    assert compiled[2] == interp[2]
    assert interp[2], "no shared-kind events published"


_PROFILED = [
    ("wc", "seq", {"items": 8}),
    ("dijkstra", "barrier", {"n": 12, "p": 2}),
    ("hmmer", "compcomm", {"M": 48, "R": 2}),
]


@pytest.mark.parametrize("bench,variant,params", _PROFILED,
                         ids=[f"{b}-{v}" for b, v, _ in _PROFILED])
def test_profiler_keeps_cycles_interpreted(bench, variant, params):
    """cycle_span subscribers keep compiled windows off: profiler rows
    match the interpreter's under the default (blockgen) options."""
    rows = []
    for blockgen in (False, True):
        sink = ProfilerSink()
        cycles, machine = _observed_run(bench, variant, params, sink,
                                        ProfilerSink.KINDS, blockgen)
        assert machine._bg_multi.fused_cycles == 0
        accounting = sink.accounting()
        assert accounting.total_cycles == cycles
        rows.append({source: accounting.row(source)
                     for source in accounting.sources()})
    assert rows[0] == rows[1]


def test_pipeline_tracer_keeps_cycles_interpreted():
    records = []
    for blockgen in (False, True):
        spec = registry.REGISTRY["wc"].variants["seq"](items=8)
        machine = Machine(spec.system)
        tracer = PipelineTracer()
        machine.obs.attach(tracer, kinds=tracer.kinds)
        machine.load(spec.workload)
        machine.run(options=RunOptions(max_cycles=spec.max_cycles,
                                       blockgen=blockgen))
        assert machine._bg_multi.fused_cycles == 0
        records.append(tracer.render())
    assert records[0] == records[1]
    assert records[0]
