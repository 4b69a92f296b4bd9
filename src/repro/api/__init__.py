"""The supported programmatic surface of the ReMAP reproduction.

``repro.api`` is the one entry point library users, the CLI, and the
HTTP job server all route through.  Five verbs cover the system:

* :func:`run` — simulate one declarative spec request synchronously
  (engine-cached, lint-gated) and return its
  :class:`~repro.experiments.runner.RunResult`;
* :func:`submit` — enqueue the same request as an async job and get a
  :class:`~repro.serve.jobs.Job` handle (state, heartbeats, wait);
* :func:`status` — a job's current :class:`~repro.serve.protocol.JobRecord`;
* :func:`sample` — a SimPoint-style warmup + measured-window run;
* :func:`lint` — static verification without simulating.

All of them delegate to a :class:`Session`, which owns one
:class:`~repro.experiments.engine.ExperimentEngine` (result + lint
caches), one multi-tenant :class:`~repro.serve.jobs.JobTable`, and one
sharded :class:`~repro.serve.pool.WorkerPool`.  The HTTP layer
(:mod:`repro.serve.server`) holds a Session and translates requests
into exactly these calls — it adds a wire codec, never semantics.

Stability: this module is the frozen surface (see DESIGN.md); everything
else in the package is internal and may change without notice.

Jobs take three fast paths before a worker process is ever spawned:

1. **Result cache** — a request whose content-addressed ``cache_key``
   is already stored completes instantly with ``cached: true``;
2. **Lint cache / pre-flight** — a request statically proven broken
   fails instantly with structured ``SpecError`` payloads;
3. otherwise it queues behind per-tenant quotas and the bounded queue
   (back-pressure), and a worker simulates it in heartbeat slices.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.experiments.engine import (ExperimentEngine, SpecError,
                                      SpecRequest, request)
from repro.experiments.runner import RunResult
from repro.serve.jobs import Job, JobTable
from repro.serve.pool import WorkerPool
from repro.serve.protocol import (CANCELLED, DONE, FAILED, QUEUED, RUNNING,
                                  JobRecord, JobRequest)
from repro.serve.worker import HEARTBEAT_CYCLES

__all__ = [
    "Session", "cancel", "configure", "connect", "default_session",
    "lint", "request", "run", "sample", "status", "submit", "wait",
]


def as_request(req: Union[SpecRequest, str], variant: str = "",
               **params: Any) -> SpecRequest:
    """Coerce ``(bench, variant, params)`` or a ready request to one."""
    if isinstance(req, SpecRequest):
        if variant or params:
            raise TypeError(
                "pass either a SpecRequest or bench/variant/params, "
                "not both")
        return req
    return request(req, variant, **params)


class Session:
    """One service instance: engine + job table + worker pool.

    Thread-safe.  Synchronous verbs (:meth:`run`, :meth:`sample`,
    :meth:`lint`) go straight through the engine; :meth:`submit` admits
    an async job and a background dispatcher thread feeds the pool.
    """

    def __init__(self, engine: Optional[ExperimentEngine] = None, *,
                 shards: int = 2, queue_limit: int = 64,
                 tenant_quota: int = 16,
                 default_timeout_s: Optional[float] = 300.0,
                 heartbeat_cycles: int = HEARTBEAT_CYCLES) -> None:
        self.engine = engine if engine is not None else ExperimentEngine()
        self.table = JobTable(queue_limit=queue_limit,
                              tenant_quota=tenant_quota)
        self.pool = WorkerPool(shards=shards,
                               default_timeout_s=default_timeout_s,
                               heartbeat_cycles=heartbeat_cycles)
        self._dispatcher: Optional[threading.Thread] = None
        self._dispatcher_lock = threading.Lock()
        self._closed = False

    # -- the five verbs ----------------------------------------------------

    def run(self, req: Union[SpecRequest, str], variant: str = "",
            **params: Any) -> RunResult:
        """Simulate one request synchronously (cached, lint-gated)."""
        return self.engine.run(as_request(req, variant, **params))

    def submit(self, req: Union[SpecRequest, str], variant: str = "", *,
               tenant: str = "default", priority: int = 0,
               timeout_s: Optional[float] = None, **params: Any) -> Job:
        """Admit one async job; returns its live :class:`Job` handle.

        Raises :class:`~repro.serve.jobs.QueueFullError` /
        :class:`~repro.serve.jobs.QuotaError` /
        :class:`~repro.serve.jobs.DrainingError` on admission failure —
        the HTTP layer maps these to 429/429/503.
        """
        job_request = JobRequest(request=as_request(req, variant, **params),
                                 tenant=tenant, priority=priority,
                                 timeout_s=timeout_s)
        cache_key = job_request.request.cache_key()
        cached = self.engine.cache.load(cache_key) \
            if self.engine.cache else None
        if cached is not None:
            # Fast path: answered from the result cache, no queue slot,
            # no worker, straight to DONE.
            job = self.table.admit_resolved(job_request, cache_key)
            job.transition(DONE, cached=True, result=cached)
            self.engine.cache_hits += 1
            return job
        job = self.table.submit(job_request)
        self._ensure_dispatcher()
        return job

    def status(self, job_id: str) -> JobRecord:
        """The current record of one job (raises UnknownJobError)."""
        return self.table.get(job_id).record()

    def sample(self, req: Union[SpecRequest, str], variant: str = "", *,
               warmup: int = 20_000, sample: int = 50_000,
               snapshot_path: Optional[str] = None,
               compare_full: bool = False, **params: Any) -> Dict:
        """SimPoint-style warmup + measured-window run (see PR 6)."""
        from repro.experiments.sample import sampled_run
        return sampled_run(as_request(req, variant, **params),
                           warmup=warmup, sample=sample,
                           snapshot_path=snapshot_path,
                           compare_full=compare_full)

    def lint(self, benchmarks: Optional[Sequence[str]] = None) -> List:
        """Static diagnostics for the registry (or a subset of it)."""
        from repro.analysis import lint_registry
        benchmarks = list(benchmarks) if benchmarks else None
        return lint_registry(benchmarks,
                             include_library=not benchmarks)

    # -- job control -------------------------------------------------------

    def wait(self, job_id: str,
             timeout: Optional[float] = None) -> JobRecord:
        """Block until the job is terminal; returns its final record."""
        job = self.table.get(job_id)
        job.wait(timeout)
        return job.record()

    def cancel(self, job_id: str, detail: str = "cancelled") -> bool:
        """Cancel a queued or running job; False if already terminal."""
        job = self.table.get(job_id)
        if job.state == QUEUED and self.table.cancel_queued(job, detail):
            return True
        return self.pool.cancel(job_id, detail)

    def jobs(self, tenant: Optional[str] = None) -> List[JobRecord]:
        return [job.record() for job in self.table.jobs(tenant)]

    def stats(self) -> Dict:
        """Health snapshot: queue census, pool occupancy, engine counters."""
        return {
            "jobs": self.table.counts(),
            "running_workers": self.pool.running(),
            "shards": self.pool.shards,
            "queue_limit": self.table.queue_limit,
            "tenant_quota": self.table.tenant_quota,
            "draining": self.table.draining,
            "engine": {
                "cache_hits": self.engine.cache_hits,
                "simulated": self.engine.simulated,
                "failed": self.engine.failed,
            },
        }

    # -- lifecycle ---------------------------------------------------------

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Graceful shutdown: admit nothing new, finish admitted jobs.

        Returns True once every admitted job reached a terminal state
        (False on timeout; jobs keep running).
        """
        self.table.drain()
        idle = self.table.wait_idle(timeout)
        if idle:
            self.pool.drain(timeout=1.0)
        return idle

    def close(self, timeout: Optional[float] = 10.0) -> None:
        """Drain and stop the dispatcher thread (for tests/embedders)."""
        self.drain(timeout)
        self._closed = True
        dispatcher = self._dispatcher
        if dispatcher is not None:
            dispatcher.join(timeout=2.0)

    # -- dispatcher --------------------------------------------------------

    def _ensure_dispatcher(self) -> None:
        with self._dispatcher_lock:
            if self._dispatcher is None or not self._dispatcher.is_alive():
                self._dispatcher = threading.Thread(
                    target=self._dispatch_loop, name="repro-dispatcher",
                    daemon=True)
                self._dispatcher.start()

    def _dispatch_loop(self) -> None:
        while not self._closed:
            job = self.table.next_job(timeout=0.25)
            if job is None:
                if self.table.draining:
                    return
                continue
            self._dispatch_one(job)

    def _dispatch_one(self, job: Job) -> None:
        req = job.request.request
        # Pre-flight: statically broken specs fail without a worker
        # (verdicts are content-addressed and cached, like results).
        error = self.engine.preflight(req)
        if error is not None:
            if job.transition(FAILED, detail="rejected by pre-flight lint",
                              errors=(error.to_dict(),)):
                self.table.release(job)
            return
        import dataclasses
        self.pool.dispatch(
            job.job_id, dataclasses.asdict(req),
            on_message=lambda kind, payload: job.beat(payload),
            on_exit=lambda outcome: self._on_exit(job, outcome),
            timeout_s=job.request.timeout_s,
            on_start=lambda: job.transition(RUNNING))

    def _on_exit(self, job: Job, outcome) -> None:
        kind = outcome[0]
        if kind == "ok":
            record = outcome[1]
            if self.engine.cache:
                self.engine.cache.store(job.cache_key, job.request.request,
                                        record)
            self.engine.simulated += 1
            job.transition(DONE, result=record)
        elif kind == "error":
            self.engine.failed += 1
            job.transition(FAILED, detail=outcome[1].get("message", ""),
                           errors=(outcome[1],))
        elif kind == "timeout":
            self.engine.failed += 1
            payload = SpecError(
                job.request.request, "JobTimeout",
                f"job exceeded its {outcome[1]}s wall-clock budget",
                "").to_dict()
            job.transition(FAILED,
                           detail=f"timed out after {outcome[1]}s",
                           errors=(payload,))
        elif kind == "cancelled":
            job.transition(CANCELLED, detail=outcome[1])
        else:  # crashed
            self.engine.failed += 1
            payload = SpecError(
                job.request.request, "WorkerCrashed",
                f"worker process died with exit code {outcome[1]}",
                "").to_dict()
            job.transition(FAILED,
                           detail=f"worker exit code {outcome[1]}",
                           errors=(payload,))
        self.table.release(job)


# -- module-level default session ---------------------------------------------


_default_session: Optional[Session] = None
_default_lock = threading.Lock()


def default_session() -> Session:
    """The process-wide session behind the module-level verbs."""
    global _default_session
    with _default_lock:
        if _default_session is None:
            _default_session = Session()
        return _default_session


def configure(**kwargs: Any) -> Session:
    """Replace the default session (e.g. cache dir, shards) and return it.

    The previous default (if any) is closed first.
    """
    global _default_session
    with _default_lock:
        previous, _default_session = _default_session, None
    if previous is not None:
        previous.close(timeout=5.0)
    session = Session(**kwargs)
    with _default_lock:
        _default_session = session
    return session


def run(req: Union[SpecRequest, str], variant: str = "",
        **params: Any) -> RunResult:
    return default_session().run(req, variant, **params)


def submit(req: Union[SpecRequest, str], variant: str = "", *,
           tenant: str = "default", priority: int = 0,
           timeout_s: Optional[float] = None, **params: Any) -> Job:
    return default_session().submit(req, variant, tenant=tenant,
                                    priority=priority, timeout_s=timeout_s,
                                    **params)


def status(job_id: str) -> JobRecord:
    return default_session().status(job_id)


def wait(job_id: str, timeout: Optional[float] = None) -> JobRecord:
    return default_session().wait(job_id, timeout)


def cancel(job_id: str, detail: str = "cancelled") -> bool:
    return default_session().cancel(job_id, detail)


def sample(req: Union[SpecRequest, str], variant: str = "",
           **kwargs: Any) -> Dict:
    return default_session().sample(req, variant, **kwargs)


def lint(benchmarks: Optional[Sequence[str]] = None) -> List:
    return default_session().lint(benchmarks)


def connect(url: str):
    """A client for a remote ``repro serve`` instance.

    The returned :class:`~repro.serve.client.Client` speaks the same
    verbs (``submit`` / ``status`` / ``wait`` / ``cancel`` / ``watch``)
    over HTTP — the wire protocol is a codec over this module, so
    switching between in-process and remote execution is a one-line
    change.
    """
    from repro.serve.client import Client
    return Client(url)
