"""Worker-process side of the job service.

Each dispatched job runs :func:`job_worker_main` in a fresh process with
one pipe back to the server.  The worker rebuilds the spec from its
declarative recipe (exactly like the experiment engine's fan-out
workers), then simulates it in bounded ``pause_at`` slices so it can
publish progress between slices without perturbing the simulation:
``pause_at`` preserves fast-forward elision windows (DESIGN.md §8), so
the sliced run is cycle-for-cycle and counter-for-counter identical to
an uninterrupted :func:`repro.experiments.runner.execute` — the parity
tests in tests/test_serve.py hold the service to that.

Heartbeats travel through the machine's own observability bus: the
worker publishes a ``heartbeat`` event at each slice boundary and a
:class:`~repro.obs.progress.ProgressSink` forwards it down the pipe.
Subscribing only to the heartbeat kind leaves the bus's ``core_active``
and ``pipeline_active`` flags False (``active`` alone is set), so both
the fast-forward scheduler and compiled blockgen windows stay engaged:
a watched job runs as fast as an unwatched one.

Pipe protocol (worker -> server), all JSON-safe tuples:

* ``("heartbeat", {"cycle", "retired", "ipc"})`` — progress sample;
* ``("ok", run_result_dict)`` — terminal success;
* ``("error", spec_error_dict)`` — terminal failure, a structured
  :meth:`~repro.experiments.engine.SpecError.to_dict` payload.
"""

from __future__ import annotations

import traceback
from typing import Callable, Dict, Optional

from repro.common.config import RunOptions
from repro.experiments.runner import RunResult, finalize
from repro.obs.progress import ProgressSink, publish_heartbeat
from repro.system.machine import Machine
from repro.workloads.base import RunSpec

#: Default slice length between heartbeats.  Large enough that slicing
#: cost is noise (runs are hundreds of kcycles), small enough that a
#: watcher sees several beats per second of simulation.
HEARTBEAT_CYCLES = 50_000


def execute_sliced(spec: RunSpec,
                   on_sample: Optional[Callable[[Dict], None]] = None,
                   heartbeat_cycles: int = HEARTBEAT_CYCLES,
                   check: bool = True) -> RunResult:
    """Run ``spec`` to completion in heartbeat-emitting slices.

    Equivalent to ``execute(spec)`` — same cycles, stats, energy, and
    metrics snapshot — but pauses every ``heartbeat_cycles`` cycles to
    publish a heartbeat event.  The overall ``max_cycles`` budget is
    enforced against the absolute cycle the uninterrupted run would
    stop at, so overruns fail exactly like the direct path.
    """
    machine = Machine(spec.system)
    machine.load(spec.workload)
    if on_sample is not None:
        machine.obs.attach(ProgressSink(on_sample), kinds=ProgressSink.KINDS)
    run_sliced(machine, spec.max_cycles, heartbeat_cycles)
    return finalize(machine, spec, machine.cycle, check=check)


def run_sliced(machine: Machine, max_cycles: int,
               heartbeat_cycles: int = HEARTBEAT_CYCLES) -> int:
    """Run a loaded ``machine`` to completion in ``pause_at`` slices of
    ``heartbeat_cycles``, publishing a heartbeat after each; returns the
    final cycle.  ``max_cycles`` bounds the whole run, not one slice.
    """
    budget_end = machine.cycle + max_cycles
    while True:
        target = min(machine.cycle + heartbeat_cycles, budget_end)
        machine.run(options=RunOptions(
            max_cycles=budget_end - machine.cycle, pause_at=target))
        publish_heartbeat(machine)
        if machine.finished() or machine.cycle >= budget_end:
            return machine.cycle


def job_worker_main(conn, request_data: Dict,
                    heartbeat_cycles: int = HEARTBEAT_CYCLES) -> None:
    """Process entry point: build, simulate with heartbeats, report."""
    from repro.experiments.engine import build_spec
    from repro.serve.protocol import spec_request_from_dict
    req = spec_request_from_dict(request_data)
    try:
        spec = build_spec(req)
        result = execute_sliced(spec, _beat_sender(conn),
                                heartbeat_cycles=heartbeat_cycles)
        conn.send(("ok", result.to_dict()))
    except Exception as exc:
        from repro.experiments.engine import SpecError
        error = SpecError(req, type(exc).__name__, str(exc),
                          traceback.format_exc())
        try:
            conn.send(("error", error.to_dict()))
        except (BrokenPipeError, OSError):
            pass  # server went away; nothing left to report to
    finally:
        conn.close()


def _beat_sender(conn) -> Callable[[Dict], None]:
    def send(sample: Dict) -> None:
        try:
            conn.send(("heartbeat", sample))
        except (BrokenPipeError, OSError):
            pass  # cancelled mid-run: the process is about to die anyway
    return send
