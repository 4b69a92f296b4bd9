"""Measurement primitives of the end-to-end benchmark.

Pure functions and small classes with no dependency on ``repro``, so the
benchmark's own tests (``perfbench/tests``) exercise them directly:

* :func:`tail` — the highest percentile with at least ten samples
  beyond it, reported with that percentile and the sample count;
* :class:`Tracer` — in-memory spans (name, start, end, parent, request)
  recorded around the calls the benchmark makes into each layer,
  :func:`self_times` over them, and a Chrome-trace export that opens in
  Perfetto next to ``repro trace`` output;
* :func:`check_reference` — one request's simulated cycles, retired
  instructions and counter digest against the recorded reference;
* :class:`Tally` — attempted/failed bookkeeping behind ``error_rate``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import re
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10


def tail(samples: Sequence[float],
         beyond: int = TAIL_BEYOND) -> Tuple[float, float, int]:
    """``(value, percentile, n)`` of the highest percentile that still
    has ``beyond`` samples strictly above its rank.

    With ``n`` sorted samples the value at 0-based rank ``i`` has
    ``n - 1 - i`` samples beyond it, so the tail rank is ``n - 1 -
    beyond`` and its percentile ``100 * (i + 1) / n``.  Too few samples
    for any such rank raise ``ValueError``: the caller must run more.
    """
    n = len(samples)
    rank = n - 1 - beyond
    if rank < 0:
        raise ValueError(f"{n} samples cannot leave {beyond} beyond a "
                         f"tail percentile")
    ordered = sorted(samples)
    return ordered[rank], 100.0 * (rank + 1) / n, n


# -- spans ---------------------------------------------------------------------


@dataclass
class Span:
    """One timed call: ``parent`` indexes the enclosing span, if any."""

    name: str
    start: float
    end: float
    parent: Optional[int]
    request: str
    track: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; :func:`write_chrome_trace` writes them.

    Spans opened with :meth:`span` nest by call order on one thread
    (track 0).  :meth:`add` records an interval measured elsewhere — a
    client thread's own readings, or the job server's ``JobRecord``
    timestamps as children of them — clipped to its parent so self
    times still sum to the root spans' durations.
    """

    def __init__(self, clock=time.time) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._open: List[int] = []
        self._lock = threading.Lock()  # client threads share one tracer

    @contextlib.contextmanager
    def span(self, name: str, request: str = "") -> Iterator[int]:
        parent = self._open[-1] if self._open else None
        with self._lock:
            index = len(self.spans)
            self.spans.append(Span(name, self.clock(), 0.0, parent,
                                   request))
        self._open.append(index)
        try:
            yield index
        finally:
            self._open.pop()
            self.spans[index].end = self.clock()

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None, request: str = "",
            track: int = 0) -> int:
        """Record an already-measured interval; returns its index."""
        if parent is not None:
            outer = self.spans[parent]
            start = min(max(start, outer.start), outer.end)
            end = min(max(end, start), outer.end)
            track = outer.track
        with self._lock:
            self.spans.append(Span(name, start, end, parent, request,
                                   track))
            return len(self.spans) - 1


def _covered(intervals: List[Tuple[float, float]], lo: float,
             hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Per span name: summed duration minus the part children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(
                (span.start, span.end))
    out: Dict[str, float] = {}
    for index, span in enumerate(spans):
        own = span.duration - _covered(children.get(index, []),
                                       span.start, span.end)
        out[span.name] = out.get(span.name, 0.0) + own
    return out


def write_chrome_trace(path: str, tracers: Dict[str, Tracer]) -> None:
    """Write every tracer's spans as one Chrome-trace JSON file.

    Each tracer becomes one process track named after its pass, so the
    file opens in Perfetto (or ``chrome://tracing``) beside ``repro
    trace`` output.
    """
    starts = [span.start for tracer in tracers.values()
              for span in tracer.spans]
    origin = min(starts, default=0.0)
    events: List[Dict] = []
    for pid, (name, tracer) in enumerate(tracers.items(), start=1):
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "args": {"name": name}})
        for span in tracer.spans:
            parent = tracer.spans[span.parent].name \
                if span.parent is not None else None
            events.append({
                "name": span.name, "cat": "perfbench", "ph": "X",
                "pid": pid, "tid": span.track,
                "ts": (span.start - origin) * 1e6,
                "dur": span.duration * 1e6,
                "args": {"request": span.request, "parent": parent}})
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


# -- output checks -------------------------------------------------------------


def digest(counters: Dict[str, float]) -> str:
    """Stable hash of every flattened stats counter of one run."""
    text = json.dumps(counters, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def fingerprint(result: Dict) -> Dict:
    """The reference-checked identity of one ``RunResult.to_dict()``."""
    counters = result["counters"]
    return {"cycles": result["results"]["cycles"],
            "retired": work_counts([result])["cpu.retired"],
            "digest": digest(counters)}


def check_reference(reference: Dict[str, Dict], request_id: str,
                    result: Dict) -> Optional[str]:
    """``None`` when ``result`` matches the reference, else why not."""
    expected = reference.get(request_id)
    if expected is None:
        return f"{request_id}: no reference recorded"
    observed = fingerprint(result)
    for field in ("cycles", "retired", "digest"):
        if observed[field] != expected[field]:
            return (f"{request_id}: {field} {observed[field]} != "
                    f"reference {expected[field]}")
    return None


#: Simulated-work counts summed per workload: metric -> counter key regex.
WORK_COUNTERS = {
    "cpu.retired": r"machine\.cpu\d+\.retired",
    "cpu.core_cycles": r"machine\.cpu\d+\.cycles",
    "cpu.mispredicts": r"machine\.cpu\d+\.mispredicts",
    "mem.l1d_misses": r"machine\.mem\.core\d+\.l1d_misses",
    "mem.snoop_invalidations": r"machine\.mem\.core\d+\.snoop_invalidations",
    "mem.bus_wait_cycles": r"machine\.mem\.bus\.wait_cycles",
    "spl.issues": r"machine\.spl\d+\.issues",
    "spl.barrier_releases": r"machine\.spl\d+\.barrier_releases",
    "spl.recv_stalls": r"machine\.cpu\d+\.spl_recv_stalls",
}
_WORK_PATTERNS = {name: re.compile(f"^{pattern}$")
                  for name, pattern in WORK_COUNTERS.items()}


def work_counts(results: Sequence[Dict]) -> Dict[str, int]:
    """Sum :data:`WORK_COUNTERS` over ``RunResult.to_dict()`` records."""
    totals = dict.fromkeys(WORK_COUNTERS, 0)
    for result in results:
        for key, value in result["counters"].items():
            for name, pattern in _WORK_PATTERNS.items():
                if pattern.match(key):
                    totals[name] += int(value)
    return totals


class Tally:
    """Requests attempted and failed, with failure reasons by kind."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: Counter = Counter()
        self.messages: List[str] = []

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, kind: str, message: str) -> None:
        self.attempted += 1
        self.failures[kind] += 1
        if len(self.messages) < 20:
            self.messages.append(f"{kind}: {message}")

    def absorb(self, attempted: int, failed: int, source: str) -> None:
        """Count another run's requests as this run's own."""
        self.attempted += attempted
        if failed:
            self.failures["failed"] += failed
            self.messages.append(f"failed: {failed} in the {source}")

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
