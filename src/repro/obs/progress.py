"""Live-progress sink: forwards run heartbeats to an arbitrary callback.

:class:`ProgressSink` is the obs-bus end of the job server's streaming
progress feed.  A sliced runner (``repro.serve.worker``) publishes
``heartbeat`` events into the machine's bus between ``pause_at`` slices;
this sink subscribes to exactly that kind and hands each sample to a
callback — in the server, the callback writes the sample down a pipe to
the parent process, which fans it out to Server-Sent-Events
subscribers.

Subscribing only to :data:`~repro.obs.events.HEARTBEAT` sets the bus's
``active`` flag but keeps ``core_active`` and ``pipeline_active`` False,
so attaching a ProgressSink disables neither the fast-forward scheduler
nor compiled blockgen windows, and never changes simulated cycle counts.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.obs import events as ev
from repro.obs.bus import Sink
from repro.obs.events import Event


class ProgressSink(Sink):
    """Forward heartbeat samples to ``on_sample`` as JSON-safe dicts.

    Each sample is ``{"cycle", "retired", "ipc"}``; :meth:`on_finish`
    invokes ``on_finish_cb`` (when given) with the final cycle so
    consumers can close their streams.
    """

    KINDS = frozenset((ev.HEARTBEAT,))

    def __init__(self, on_sample: Callable[[Dict], None],
                 on_finish_cb: Callable[[int], None] = None) -> None:
        self.on_sample = on_sample
        self.on_finish_cb = on_finish_cb
        #: Samples seen, newest last (bounded consumers may ignore this).
        self.samples: List[Dict] = []

    def accept(self, event: Event) -> None:
        sample = {
            "cycle": event.cycle,
            "retired": event.get("retired", 0),
            "ipc": event.get("ipc", 0.0),
        }
        self.samples.append(sample)
        self.on_sample(sample)

    def on_finish(self, cycle: int) -> None:
        if self.on_finish_cb is not None:
            self.on_finish_cb(cycle)


def publish_heartbeat(machine) -> Dict:
    """Publish one heartbeat event for ``machine``'s current state.

    Returns the sample dict (also what any attached
    :class:`ProgressSink` receives).  A no-op returning the sample when
    nothing listens, matching the bus's zero-cost contract.
    """
    retired = machine.total_retired()
    cycle = machine.cycle
    sample = {"cycle": cycle, "retired": retired,
              "ipc": (retired / cycle) if cycle else 0.0}
    if machine.obs.active:
        machine.obs.emit(cycle, "machine", ev.HEARTBEAT,
                         retired=retired, ipc=sample["ipc"])
    return sample
