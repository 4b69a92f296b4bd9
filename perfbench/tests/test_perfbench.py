"""Tests of the benchmark's own logic.

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import catalogue  # noqa: E402
import run  # noqa: E402
import service  # noqa: E402
from measure import (Tally, Tracer, check_reference, fingerprint,  # noqa
                     self_times, tail)


# -- tail percentile -----------------------------------------------------------


def test_tail_leaves_ten_samples_beyond():
    samples = list(range(70, 0, -1))  # unsorted on purpose
    value, percentile, n = tail(samples)
    assert n == 70
    assert value == 60
    assert sum(sample > value for sample in samples) == 10
    assert percentile == pytest.approx(100 * 60 / 70)


def test_tail_is_the_highest_such_percentile():
    samples = [float(i) for i in range(36)]
    value, percentile, _ = tail(samples)
    # one rank higher would leave only nine samples beyond
    assert sum(sample > value for sample in samples) == 10
    assert percentile == pytest.approx(100 * 26 / 36)


def test_tail_needs_more_than_ten_samples():
    assert tail([1.0] * 11)[0] == 1.0
    with pytest.raises(ValueError):
        tail([1.0] * 10)


# -- span self time ------------------------------------------------------------


def fake_clock(*readings):
    return iter(readings).__next__


def test_self_time_subtracts_nested_children():
    # request [0, 10] > build [1, 4] > lint [2, 3]; request > run [5, 6]
    tracer = Tracer(clock=fake_clock(0, 1, 2, 3, 4, 5, 6, 10))
    with tracer.span("request", "r1"):
        with tracer.span("build", "r1"):
            with tracer.span("lint", "r1"):
                pass
        with tracer.span("run", "r1"):
            pass
    own = self_times(tracer.spans)
    assert own == {"request": 6, "build": 2, "lint": 1, "run": 1}
    assert sum(own.values()) == tracer.spans[0].duration
    assert [span.parent for span in tracer.spans] == [None, 0, 1, 0]


def test_self_time_sums_per_name_and_clips_added_children():
    tracer = Tracer(clock=fake_clock(0, 4))
    with tracer.span("job", "a") as root:
        pass
    # server timestamps reach outside the client's interval: clipped
    wait = tracer.add("wait", 1.0, 9.0, root, "a")
    tracer.add("worker", 0.5, 2.0, wait, "a")
    tracer.add("worker", 3.0, 3.5, wait, "a")
    own = self_times(tracer.spans)
    assert own["job"] == pytest.approx(1.0)
    assert own["wait"] == pytest.approx(1.5)
    assert own["worker"] == pytest.approx(1.5)
    assert sum(own.values()) == pytest.approx(4.0)


# -- reference check -----------------------------------------------------------


def test_reference_check_flags_one_perturbed_cycle_count():
    from repro.experiments.engine import build_spec, request
    from repro.experiments.runner import execute
    req = request("ll2", "seq", n=16)
    rid = catalogue.request_id(req)
    reference = catalogue.load_reference()
    record = execute(build_spec(req)).to_dict()
    assert check_reference(reference, rid, record) is None
    record["results"]["cycles"] += 1
    problem = check_reference(reference, rid, record)
    assert problem is not None and "cycles" in problem


def test_reference_check_flags_one_perturbed_counter():
    record = {"results": {"cycles": 100},
              "counters": {"machine.cpu0.retired": 40,
                           "machine.cpu0.mispredicts": 3}}
    reference = {"x": fingerprint(record)}
    assert check_reference(reference, "x", record) is None
    record["counters"]["machine.cpu0.mispredicts"] = 4
    assert "digest" in check_reference(reference, "x", record)
    assert "no reference" in check_reference(reference, "y", record)


def test_reference_covers_every_request_of_every_workload():
    reference = catalogue.load_reference()
    ids = [catalogue.request_id(req)
           for workload in run.WORKLOADS
           for req in catalogue.catalogue(workload, reference)]
    assert len(catalogue.regions()) == 70
    assert len(catalogue.barriers()) == 36
    assert set(ids) <= set(reference)


# -- warm bursts ---------------------------------------------------------------


class FakeResult:
    def __init__(self, record, cache_hit):
        self.record = record
        self.cache_hit = cache_hit

    def to_dict(self):
        return dict(self.record)


class FakeEngine:
    """Simulates each request once, then answers it from its cache."""

    def __init__(self, corrupt=None):
        self.calls = []
        self.cache = {}
        self.corrupt = corrupt

    def run(self, req):
        self.calls.append((req.label, req.label in self.cache))
        if req.label in self.cache:
            record = dict(self.cache[req.label])
            if req.label == self.corrupt:
                record["results"] = {"cycles": -1}
            return FakeResult(record, True)
        self.cache[req.label] = {"results": {"cycles": len(req.label)},
                                 "counters": {"machine.cpu0.retired": 1}}
        return FakeResult(self.cache[req.label], False)


def fake_requests():
    from repro.experiments.engine import request
    reqs = [request(label, "seq") for label in ("wc", "ll2", "ll3")]
    reference = {catalogue.request_id(req): fingerprint(
        {"results": {"cycles": len(req.label)},
         "counters": {"machine.cpu0.retired": 1}}) for req in reqs}
    return reqs, reference


def test_cold_pass_bursts_read_only_cached_requests():
    import random
    from collections import Counter
    import inproc
    reqs, reference = fake_requests()
    engine, tally, hits = FakeEngine(), Tally(), Counter()
    latencies, records, wall, samples = inproc.cold_pass(
        engine, reqs, reference, tally, random.Random(1), 0.0, hits)
    # each cold call is followed by one pass over what is cached so far
    assert [hit for _, hit in engine.calls] == \
        [False, True, False, True, True, False, True, True, True]
    assert [len(samples[catalogue.request_id(req)]) for req in reqs] \
        == [3, 2, 1]
    assert hits == Counter({True: 6})
    assert wall == pytest.approx(sum(latencies))
    assert set(records) == set(reference)
    assert (tally.attempted, tally.failed) == (9, 0)


def test_warm_result_differing_from_cold_is_a_mismatch():
    import random
    from collections import Counter
    import inproc
    reqs, reference = fake_requests()
    tally = Tally()
    inproc.cold_pass(FakeEngine(corrupt="ll2/seq"), reqs, reference, tally,
                     random.Random(1), 0.0, Counter())
    assert tally.failures["mismatch"] == 2  # ll2 is read back twice
    assert "warm result differs" in tally.messages[0]


# -- error rate ----------------------------------------------------------------


class RefusingClient:
    def __init__(self, status):
        self.status = status

    def submit(self, req):
        from repro.serve.client import RemoteError
        raise RemoteError(self.status, "refused",
                          1.0 if self.status == 429 else None)


@pytest.mark.parametrize("status", [429, 503])
def test_error_rate_counts_a_refusal_as_a_failure(status):
    from repro.experiments.engine import request
    sample = service.run_job(RefusingClient(status), request("wc", "seq"))
    assert sample.error[0] == "refused"
    tally = Tally()
    tally.ok()
    run.check_jobs([sample], {}, tally, cold=True)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert tally.error_rate == 0.5
