"""Tests for the ``repro.api`` facade and the job-service core.

The end-to-end parity gate lives here: results delivered through the
async job path must be byte-identical to direct engine runs, the second
submission of a spec must be answered from the cache without touching a
worker, and admission control (back-pressure, quotas, draining) must
reject loudly at submit time.
"""

import json
import time

import pytest

from repro import api
from repro.common.errors import ConfigError
from repro.experiments.engine import (ExperimentBatchError,
                                      ExperimentEngine, SpecError, request)
from repro.serve.jobs import (DrainingError, JobTable, QueueFullError,
                              QuotaError, UnknownJobError)
from repro.serve.protocol import (CANCELLED, DONE, FAILED, QUEUED, RUNNING,
                                  JobRecord, JobRequest,
                                  job_request_from_dict,
                                  job_request_to_dict)

SMALL = dict(items=32)


def make_session(tmp_path, **kwargs):
    kwargs.setdefault("shards", 2)
    engine = ExperimentEngine(cache_dir=tmp_path / "cache", progress=False)
    return api.Session(engine=engine, **kwargs)


@pytest.fixture
def session(tmp_path):
    session = make_session(tmp_path)
    yield session
    session.close(timeout=30)


def wait_for(predicate, timeout=20.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


class PoisonedPool:
    """Stands in for the worker pool in cache-fast-path tests: any
    dispatch is a test failure."""

    dispatched = 0

    def dispatch(self, *args, **kwargs):
        raise AssertionError("a cache-served job must never reach a worker")

    def cancel(self, *args, **kwargs):
        raise AssertionError("nothing should be running")

    def drain(self, timeout=None):
        return True

    def running(self):
        return 0

    shards = 0


class TestParityGate:
    def test_job_result_identical_to_direct_run(self, session):
        """The acceptance gate: async job == direct engine run, byte for
        byte, and the job's worker stores into the same cache the direct
        path reads (so the direct run afterwards is a cache hit)."""
        req = request("wc", "seq", **SMALL)
        job = session.submit(req)
        record = session.wait(job.job_id, timeout=120)
        assert record.state == DONE and not record.cached
        assert session.pool.dispatched == 1
        direct = session.engine.run(req)
        assert direct.cache_hit  # the job's worker populated the cache
        assert json.dumps(record.result, sort_keys=True) == \
            json.dumps(direct.to_dict(), sort_keys=True)
        assert record.result["results"]["cycles"] == direct.cycles

    def test_sliced_execution_matches_unsliced(self, tmp_path):
        """Worker-style sliced runs (heartbeat pauses) are cycle- and
        counter-exact against an uninterrupted execute()."""
        from repro.experiments.engine import build_spec
        from repro.experiments.runner import execute
        from repro.serve.worker import execute_sliced
        spec = build_spec(request("wc", "compcomm", items=48))
        sliced = execute_sliced(spec, heartbeat_cycles=500)
        direct = execute(build_spec(request("wc", "compcomm", items=48)))
        assert sliced.cycles == direct.cycles
        assert sliced.counters == direct.counters
        assert sliced.to_dict() == direct.to_dict()

    def test_sliced_run_emits_heartbeats(self, tmp_path):
        from repro.experiments.engine import build_spec
        from repro.serve.worker import execute_sliced
        samples = []
        result = execute_sliced(build_spec(request("wc", "seq", items=48)),
                                samples.append, heartbeat_cycles=1000)
        assert len(samples) >= 2
        cycles = [sample["cycle"] for sample in samples]
        assert cycles == sorted(cycles)
        assert samples[-1]["cycle"] == result.cycles
        assert all(sample["ipc"] > 0 for sample in samples)


class TestCacheFastPath:
    def test_second_submission_served_from_cache(self, session):
        req = request("wc", "seq", **SMALL)
        first = session.submit(req)
        assert session.wait(first.job_id, timeout=120).state == DONE
        assert session.pool.dispatched == 1
        second = session.submit(req)
        record = session.status(second.job_id)
        assert record.state == DONE
        assert record.cached is True
        assert record.result == session.status(first.job_id).result
        assert session.pool.dispatched == 1  # no second worker

    def test_cached_job_never_touches_the_pool(self, tmp_path):
        """Poisoned-pool fixture: with the result already cached, the
        whole submit/wait cycle must complete without any pool call."""
        warm = make_session(tmp_path)
        try:
            req = request("wc", "seq", **SMALL)
            job = warm.submit(req)
            assert warm.wait(job.job_id, timeout=120).state == DONE
        finally:
            warm.close(timeout=30)

        session = make_session(tmp_path)
        session.pool = PoisonedPool()
        try:
            job = session.submit(req)
            record = session.wait(job.job_id, timeout=5)
            assert record.state == DONE
            assert record.cached is True
            assert record.result["results"]["cycles"] > 0
        finally:
            session.close(timeout=5)

    def test_cached_job_is_subscribable_and_listed(self, session):
        req = request("wc", "seq", **SMALL)
        job = session.submit(req)
        session.wait(job.job_id, timeout=120)
        hot = session.submit(req)
        events = []
        hot.subscribe(lambda event, payload: events.append(event))
        # terminal replay: late subscribers get the final state at once
        assert events == ["state"]
        assert hot.job_id in {record.job_id for record in session.jobs()}


class TestAdmissionControl:
    def _parked_session(self, tmp_path, **kwargs):
        """A session whose dispatcher never starts: jobs stay QUEUED."""
        session = make_session(tmp_path, **kwargs)
        session._ensure_dispatcher = lambda: None
        return session

    def test_queue_full_back_pressure(self, tmp_path):
        session = self._parked_session(tmp_path, queue_limit=3,
                                       tenant_quota=3)
        try:
            for items in (101, 102, 103):
                session.submit(request("wc", "seq", items=items))
            with pytest.raises(QueueFullError) as excinfo:
                session.submit(request("wc", "seq", items=104))
            assert excinfo.value.retry_after_s > 0
            assert "429" not in str(excinfo.value)  # HTTP is the server's
        finally:
            session.table.drain()

    def test_tenant_quota(self, tmp_path):
        session = self._parked_session(tmp_path, queue_limit=10,
                                       tenant_quota=2)
        try:
            for items in (111, 112):
                session.submit(request("wc", "seq", items=items),
                               tenant="alice")
            with pytest.raises(QuotaError):
                session.submit(request("wc", "seq", items=113),
                               tenant="alice")
            # another tenant is unaffected
            session.submit(request("wc", "seq", items=113), tenant="bob")
        finally:
            session.table.drain()

    def test_draining_rejects_even_cache_hits(self, session):
        req = request("wc", "seq", **SMALL)
        job = session.submit(req)
        session.wait(job.job_id, timeout=120)
        session.table.drain()
        with pytest.raises(DrainingError):
            session.submit(req)  # would be a cache hit, still refused

    def test_unknown_job(self, session):
        with pytest.raises(UnknownJobError):
            session.status("nope")

    def test_priority_order(self, tmp_path):
        session = self._parked_session(tmp_path)
        try:
            low = session.submit(request("wc", "seq", items=121),
                                 priority=0)
            high = session.submit(request("wc", "seq", items=122),
                                  priority=5)
            mid = session.submit(request("wc", "seq", items=123),
                                 priority=3)
            order = [session.table.next_job(timeout=0).job_id
                     for _ in range(3)]
            assert order == [high.job_id, mid.job_id, low.job_id]
        finally:
            session.table.drain()


class TestLifecycle:
    def test_cancel_queued_job(self, tmp_path):
        session = make_session(tmp_path)
        session._ensure_dispatcher = lambda: None
        job = session.submit(request("wc", "seq", items=131))
        assert session.cancel(job.job_id) is True
        record = session.status(job.job_id)
        assert record.state == CANCELLED
        assert session.cancel(job.job_id) is False  # already terminal
        # the cancelled job's slot was released
        assert session.table.counts()[QUEUED] == 0

    def test_cancel_running_job(self, session):
        job = session.submit(request("wc", "seq", items=4096))
        assert wait_for(lambda: session.status(job.job_id).state == RUNNING)
        assert session.cancel(job.job_id, detail="operator said stop")
        record = session.wait(job.job_id, timeout=30)
        assert record.state == CANCELLED
        assert record.detail == "operator said stop"
        assert session.pool.running() == 0 or \
            wait_for(lambda: session.pool.running() == 0, 10)

    def test_job_timeout(self, session):
        job = session.submit(request("wc", "seq", items=4096),
                             timeout_s=0.2)
        record = session.wait(job.job_id, timeout=60)
        assert record.state == FAILED
        assert record.errors[0]["exception_type"] == "JobTimeout"
        assert "0.2" in record.errors[0]["message"]

    def test_worker_failure_carries_structured_errors(self, session):
        job = session.submit(request("nonexistent-bench", "seq"))
        record = session.wait(job.job_id, timeout=60)
        assert record.state == FAILED
        assert record.errors, "FAILED jobs must carry SpecError payloads"
        payload = record.errors[0]
        assert payload["exception_type"] == "ConfigError"
        assert "nonexistent-bench" in payload["message"]
        assert payload["request"]["bench"] == "nonexistent-bench"
        # payload round-trips through the structured-record constructor
        error = SpecError.from_dict(payload)
        assert error.request.bench == "nonexistent-bench"

    def test_drain_finishes_admitted_jobs(self, session):
        job = session.submit(request("wc", "seq", items=141))
        assert session.drain(timeout=120) is True
        assert session.status(job.job_id).state == DONE
        with pytest.raises(DrainingError):
            session.submit(request("wc", "seq", items=142))

    def test_heartbeats_reach_the_job_record(self, session):
        session.pool.heartbeat_cycles = 2_000
        job = session.submit(request("wc", "seq", items=2048))
        beats = []
        job.subscribe(lambda event, payload:
                      beats.append(payload) if event == "heartbeat"
                      else None)
        record = session.wait(job.job_id, timeout=120)
        assert record.state == DONE
        assert record.heartbeat is not None
        assert record.heartbeat["cycle"] > 0
        assert beats and beats[-1]["cycle"] <= \
            record.result["results"]["cycles"]


class TestProtocolRecords:
    def test_job_request_round_trip(self):
        job_request = JobRequest(request=request("wc", "seq", items=8),
                                 tenant="team-a", priority=2,
                                 timeout_s=30.0)
        data = job_request_to_dict(job_request)
        back = job_request_from_dict(json.loads(json.dumps(data)))
        assert back == job_request

    def test_job_request_validation(self):
        with pytest.raises(ConfigError):
            JobRequest(request=request("wc", "seq"), tenant="")
        with pytest.raises(ConfigError):
            JobRequest(request=request("wc", "seq"), timeout_s=-1)

    def test_job_record_round_trip(self, session):
        job = session.submit(request("wc", "seq", **SMALL))
        record = session.wait(job.job_id, timeout=120)
        data = json.loads(json.dumps(record.to_dict()))
        back = JobRecord.from_dict(data)
        assert back == record

    def test_records_use_the_codec_registry(self):
        from repro.common.serialize import registered_codecs
        codecs = registered_codecs()
        assert "job-request" in codecs and "job-record" in codecs

    def test_job_record_schema_gate(self):
        with pytest.raises(ConfigError, match="schema"):
            JobRecord.from_dict({"schema": 99, "job_id": "x"})


class TestBatchErrorPayloads:
    def test_batch_error_carries_structured_payloads(self, tmp_path):
        engine = ExperimentEngine(cache_dir=tmp_path / "cache",
                                  progress=False)
        good = request("wc", "seq", items=24)
        bad = request("wc", "no-such-variant")
        with pytest.raises(ExperimentBatchError) as excinfo:
            engine.run_batch([good, bad])
        error = excinfo.value
        assert len(error.payloads) == 1
        payload = error.payloads[0]
        assert payload["exception_type"] == "ConfigError"
        assert payload["request"]["variant"] == "no-such-variant"
        assert payload["label"] == bad.label
        assert error.to_dict() == {"errors": error.payloads}
        # payloads survive JSON and rebuild into live SpecErrors
        rebuilt = SpecError.from_dict(json.loads(json.dumps(payload)))
        assert rebuilt.request == bad


class TestCompatShims:
    def test_execute_fast_forward_kwarg_is_gone(self):
        from repro.experiments.runner import execute
        import inspect
        assert "fast_forward" not in inspect.signature(execute).parameters

    def test_trace_module_no_longer_exports_attach_tracer(self):
        import repro.cpu.trace as trace
        assert not hasattr(trace, "attach_tracer")


class TestFacadeSurface:
    def test_module_level_verbs_exist(self):
        for verb in ("submit", "run", "sample", "lint", "status",
                     "wait", "cancel", "connect", "configure"):
            assert callable(getattr(api, verb)), verb

    def test_run_via_facade(self, session):
        result = session.run("wc", "seq", **SMALL)
        assert result.cycles > 0
        again = session.run(request("wc", "seq", **SMALL))
        assert again.cycles == result.cycles

    def test_as_request_rejects_mixed_forms(self):
        with pytest.raises(TypeError):
            api.as_request(request("wc", "seq"), "seq")

    def test_lint_via_facade(self, session):
        diagnostics = session.lint(["wc"])
        assert isinstance(diagnostics, list)

    def test_stats_census(self, session):
        job = session.submit(request("wc", "seq", **SMALL))
        session.wait(job.job_id, timeout=120)
        stats = session.stats()
        assert stats["jobs"][DONE] >= 1
        assert stats["shards"] == 2
        assert set(stats["engine"]) == {"cache_hits", "simulated",
                                        "failed"}
