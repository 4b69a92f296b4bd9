"""The ``service`` workload: a local ``repro serve`` driven in a closed loop.

The server runs as a subprocess with one shard, so the simulating worker
has a core to itself on a two-core host.  Two client threads share one
seeded job list; each submits through :class:`repro.serve.client.Client`
and waits on the job's event stream for its terminal state before
taking the next job (a closed loop: a slow server receives less load).
"""

from __future__ import annotations

import dataclasses
import os
import queue
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from catalogue import request_id
from measure import Tracer

#: Client threads of the closed loop, and worker shards of the server.
CLIENTS = 2
SHARDS = 1
#: Seconds a server may take to announce itself, or to drain and exit.
BOOT_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0
#: Client socket timeout; a job slower than this counts as timed out.
CLIENT_TIMEOUT_S = 120.0

_LISTENING = re.compile(r"listening on http://([\d.]+):(\d+)")


class Server:
    """One ``repro serve`` subprocess with its own result cache."""

    def __init__(self, src: str, cache_dir: str, log_path: str) -> None:
        env = dict(os.environ, PYTHONPATH=src)
        self.log = open(log_path, "w")
        self.booted = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--shards", str(SHARDS), "--cache-dir", cache_dir],
            env=env, stdout=subprocess.PIPE, stderr=self.log, text=True)
        self.url = self._await_announcement()
        from repro.serve.client import Client
        try:
            Client(self.url).health()
        except Exception:
            self.stop()
            raise
        self.boot_s = time.perf_counter() - self.booted
        # Keep draining stdout so the server can never block on it.
        self._drain = threading.Thread(target=self._copy_stdout,
                                       daemon=True)
        self._drain.start()

    def _await_announcement(self) -> str:
        lines: "queue.Queue[str]" = queue.Queue()
        reader = threading.Thread(
            target=lambda: lines.put(self.process.stdout.readline()),
            daemon=True)
        reader.start()
        try:
            line = lines.get(timeout=BOOT_TIMEOUT_S)
        except queue.Empty:
            self.stop()
            raise RuntimeError("job server did not announce itself")
        match = _LISTENING.search(line)
        if match is None:
            self.stop()
            raise RuntimeError(f"job server failed to start: {line!r}")
        return f"{match.group(1)}:{match.group(2)}"

    def _copy_stdout(self) -> None:
        for line in self.process.stdout:
            self.log.write(line)

    def stop(self) -> int:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            code = self.process.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.process.kill()
            code = self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()
        self.log.close()
        return code


@dataclass
class JobSample:
    """What one client saw of one job."""

    req: object
    rid: str
    latency: float = 0.0
    submit_s: float = 0.0
    heartbeats: int = 0
    record: Optional[object] = None  # the terminal JobRecord
    error: Optional[Tuple[str, str]] = None  # (kind, message)

    def drop_result(self) -> None:
        """Forget the (checked) result: warm passes keep thousands of
        samples, and the benchmark's own memory counts in peak RSS."""
        if self.record is not None:
            self.record = dataclasses.replace(self.record, result=None)


def run_job(client, req, tracer: Optional[Tracer] = None,
            track: int = 0) -> JobSample:
    """Submit one job, then watch its events until it is terminal.

    Refusals (HTTP 429 back-pressure or quota, 503 draining), socket
    timeouts and non-``done`` outcomes come back as ``error`` kinds
    ``refused``, ``timeout`` and ``failed``.
    """
    from repro.serve.client import RemoteError
    from repro.serve.protocol import TERMINAL_STATES, JobRecord
    sample = JobSample(req, request_id(req))
    spans = tracer is not None
    started = time.perf_counter()
    wall0 = time.time()
    try:
        record = client.submit(req)
        sample.submit_s = time.perf_counter() - started
        submitted = time.time()
        if record.state not in TERMINAL_STATES:
            for event, payload in client.watch(record.job_id):
                if event == "heartbeat":
                    sample.heartbeats += 1
                elif event == "state":
                    record = JobRecord.from_dict(payload)
        sample.latency = time.perf_counter() - started
    except RemoteError as exc:
        kind = "refused" if exc.status in (429, 503) else "failed"
        sample.error = (kind, str(exc))
        return sample
    except TimeoutError as exc:
        sample.error = ("timeout", str(exc) or "client timeout")
        return sample
    except Exception as exc:  # a broken job must not stop the loop
        sample.error = ("failed", f"{type(exc).__name__}: {exc}")
        return sample
    sample.record = record
    if record.state != "done":
        sample.error = ("failed", f"{record.state}: {record.detail}")
    if spans:
        _span_job(tracer, sample, record, wall0, submitted, track)
    return sample


def _span_job(tracer: Tracer, sample: JobSample, record, wall0: float,
              submitted: float, track: int) -> None:
    """Spans of one finished job, from the client's own clock readings
    plus the server's ``JobRecord`` timestamps as children."""
    rid = sample.rid
    end = wall0 + sample.latency
    root = tracer.add("job", wall0, end, None, rid, track)
    tracer.add("client.submit", wall0, submitted, root, rid)
    if submitted < end:
        wait = tracer.add("client.wait", submitted, end, root, rid)
        if record.started_at is not None:
            tracer.add("serve.queue", record.submitted_at,
                       record.started_at, wait, rid)
            tracer.add("serve.worker", record.started_at,
                       record.finished_at, wait, rid)


def closed_loop(url: str, jobs: List, tracer: Optional[Tracer] = None
                ) -> Tuple[List[JobSample], float]:
    """Run ``jobs`` through :data:`CLIENTS` closed-loop client threads.

    Returns the samples and the wall time from the first submit to the
    last terminal state.
    """
    from repro.serve.client import Client
    pending = list(reversed(jobs))
    lock = threading.Lock()
    samples: List[JobSample] = []
    failures: List[BaseException] = []

    def client_thread(track: int) -> None:
        client = Client(url, timeout_s=CLIENT_TIMEOUT_S)
        try:
            while True:
                with lock:
                    if not pending:
                        return
                    req = pending.pop()
                sample = run_job(client, req, tracer, track)
                with lock:
                    samples.append(sample)
        except BaseException as exc:  # reported by the caller
            failures.append(exc)

    threads = [threading.Thread(target=client_thread, args=(track,))
               for track in range(1, CLIENTS + 1)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    if failures:
        raise failures[0]
    return samples, wall


def job_timings(samples: List[JobSample]) -> Dict[str, Dict[str, float]]:
    """Server-side splits of the successful cold jobs, by request id:
    queue wait, worker time, and the client's notification delay."""
    out: Dict[str, Dict[str, float]] = {"queue_wait": {}, "worker": {},
                                        "notify": {}}
    for sample in samples:
        record = sample.record
        if sample.error or record is None or record.started_at is None:
            continue
        out["queue_wait"][sample.rid] = \
            record.started_at - record.submitted_at
        out["worker"][sample.rid] = record.finished_at - record.started_at
        out["notify"][sample.rid] = \
            sample.latency - (record.finished_at - record.submitted_at)
    return out
