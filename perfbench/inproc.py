"""The in-process workloads (``regions``, ``barriers``).

The untraced passes call :meth:`ExperimentEngine.run` once per request,
exactly as the figure studies do with ``jobs=1``.  The traced pass
drives the engine's per-request call sequence itself, with a span
around each public call, so every layer's self time is measured at its
own boundary without touching the program.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Dict, List, Tuple

from catalogue import request_id, shuffled
from measure import Tally, Tracer, check_reference


def cold_pass(engine, order: List, reference: Dict, tally: Tally, rng,
              warm_share: float, hits: Counter
              ) -> Tuple[List[float], Dict[str, Dict], float,
                         Dict[str, List[float]]]:
    """One engine call per request on an empty cache, with warm bursts.

    After each cold request, seeded passes over the requests cached so
    far repeat for ``warm_share`` of that request's latency (at least
    one pass), so warm samples are spread over the whole run rather
    than bunched after it: host-speed episodes last seconds, and a
    request's best sample over a run-long window is what stays steady.

    Returns per-request cold latencies, the ``to_dict`` records of the
    results that match the reference (by request id), the cold pass's
    wall time (the sum of its engine calls, bursts excluded) and the
    warm samples by request id.
    """
    from repro.experiments.engine import ExperimentBatchError
    latencies: List[float] = []
    records: Dict[str, Dict] = {}
    cached: List = []
    samples: Dict[str, List[float]] = {request_id(r): [] for r in order}
    for req in order:
        rid = request_id(req)
        before = time.perf_counter()
        try:
            result = engine.run(req)
        except ExperimentBatchError as exc:
            tally.fail("failed", str(exc.errors[0]))
            continue
        latency = time.perf_counter() - before
        latencies.append(latency)
        record = result.to_dict()
        problem = check_reference(reference, rid, record)
        if problem:
            tally.fail("mismatch", problem)
            continue
        tally.ok()
        records[rid] = record
        cached.append(req)
        until = time.perf_counter() + warm_share * latency
        while True:
            warm_pass(engine, cached, records, tally, rng, samples, hits)
            if time.perf_counter() >= until:
                break
    return latencies, records, sum(latencies), samples


def warm_pass(engine, requests: List, records: Dict[str, Dict],
              tally: Tally, rng, samples: Dict[str, List[float]],
              hits: Counter) -> None:
    """One seeded pass over cached requests: latencies go to
    ``samples``, and ``hits[True]``/``hits[False]`` count cache hits and
    misses.  Every answer must equal its reference-checked cold record
    in ``records``."""
    from repro.experiments.engine import ExperimentBatchError
    for req in shuffled(requests, rng):
        rid = request_id(req)
        before = time.perf_counter()
        try:
            result = engine.run(req)
        except ExperimentBatchError as exc:
            tally.fail("failed", str(exc.errors[0]))
            continue
        samples[rid].append(time.perf_counter() - before)
        hits[result.cache_hit] += 1
        if result.to_dict() == records[rid]:
            tally.ok()
        else:
            tally.fail("mismatch", f"{rid}: warm result differs from the "
                                   f"cold result")


class LintRejected(Exception):
    """The pre-flight found error-severity diagnostics."""


def traced_request(tracer: Tracer, engine, req) -> Dict:
    """Run one cold request through the engine's call sequence, spanned.

    Mirrors ``ExperimentEngine.run`` + ``runner.execute`` call for call:
    cache probe, pre-flight (``build_spec`` + ``lint_spec`` with its
    verdict cache), ``build_spec``, ``Machine`` + ``load``,
    ``Machine.run``, ``finalize``, then ``to_dict`` + cache store and
    the ``from_dict`` the engine hands its caller.  Returns the record.
    """
    from repro.analysis import lint_spec
    from repro.common.config import RunOptions
    from repro.experiments.engine import build_spec
    from repro.experiments.runner import RunResult, finalize
    from repro.system.machine import Machine
    rid = request_id(req)

    def span(name: str):
        return tracer.span(name, rid)

    with span("request"):
        key = req.cache_key()
        with span("engine.probe"):
            if engine.cache.load(key) is not None:
                raise RuntimeError(f"{rid}: cold pass hit the cache")
        with span("analysis.preflight"):
            if engine.lint_cache.load(key) is None:
                with span("workloads.build"):
                    spec = build_spec(req)
                with span("analysis.lint"):
                    errors = [diag for diag in lint_spec(spec)
                              if diag.is_error]
                if errors:
                    raise LintRejected(f"{rid}: {errors[0]}")
                engine.lint_cache.store(key, None)
        with span("workloads.build"):
            spec = build_spec(req)
        options = RunOptions(max_cycles=spec.max_cycles)
        with span("system.build"):
            machine = Machine(spec.system)
            machine.load(spec.workload)
        with span("system.run"):
            cycles = machine.run(options=options)
        with span("runner.finalize"):
            result = finalize(machine, spec, cycles)
        with span("engine.store"):
            record = result.to_dict()
            engine.cache.store(key, req, record)
        RunResult.from_dict(record)
    return record


def traced_cold_pass(tracer: Tracer, engine, order: List, reference: Dict,
                     tally: Tally) -> Tuple[List[Dict], float]:
    """The traced cold pass; returns records and its wall time."""
    records = []
    started = time.perf_counter()
    for req in order:
        try:
            record = traced_request(tracer, engine, req)
        except Exception as exc:  # counted, and the pass goes on
            tally.fail("failed", f"{type(exc).__name__}: {exc}")
            continue
        records.append((req, record))
    wall = time.perf_counter() - started
    for req, record in records:
        problem = check_reference(reference, request_id(req), record)
        if problem:
            tally.fail("mismatch", problem)
        else:
            tally.ok()
    return [record for _, record in records], wall


def traced_load(tracer: Tracer, cache, req):
    """One spanned cache read: ``ResultCache.load`` + ``from_dict``."""
    from repro.experiments.runner import RunResult
    rid = request_id(req)
    with tracer.span("request", rid):
        key = req.cache_key()
        with tracer.span("engine.load", rid):
            record = cache.load(key)
            result = RunResult.from_dict(record) \
                if record is not None else None
    return result


def traced_warm_passes(tracer: Tracer, engine, requests: List,
                       reference: Dict, tally: Tally, rng,
                       passes: int) -> Tuple[int, int]:
    """Spanned cache reads over the cached requests; (hits, lookups)."""
    hits = lookups = 0
    for _ in range(passes):
        for req in shuffled(requests, rng):
            result = traced_load(tracer, engine.cache, req)
            lookups += 1
            if result is None:
                continue
            hits += 1
            problem = check_reference(reference, request_id(req),
                                      result.to_dict())
            if problem:
                tally.fail("mismatch", problem)
            else:
                tally.ok()
    return hits, lookups
