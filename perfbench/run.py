"""End-to-end benchmark of the ReMAP reproduction.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload regions --seed 1 --seconds 30 \\
        --trace 0

Workloads (why each was chosen is recorded in ``perfbench/claims.json``):

* ``regions`` — the Figure 10/11 quick grid, 70 requests run serially
  in-process through ``ExperimentEngine(jobs=1)``;
* ``barriers`` — the Figure 12 quick grid for ll2 and ll3 at p=8,16,
  36 requests run serially in-process;
* ``service`` — a local ``repro serve`` (1 shard) driven by a closed
  loop of 2 client threads with a seeded mix of short requests.

Each run sets up (timed several times, median reported), runs a *cold
pass* on an empty result cache, and *warm passes* of the same requests
answered from the cache.  In-process, a short warm burst over the
requests cached so far follows each cold request (its time is not part
of the cold pass), and warm passes over all requests follow the cold
pass until ``--seconds`` have passed since it began; a request's warm
latency is its best sample over the whole run.  The service runs
:data:`SERVICE_WARM_PASSES` warm passes after its cold pass (3 with
``--seconds 0``); there a request's warm latency is its median pass,
because two clients share one server and a single lucky pass is not
repeatable.  ``--seed`` picks the request order of every pass and the
service job order; the program receives only the generated requests.

Every result is checked: the workload's own output check runs inside
the program, and cycles, retired instructions and a digest of all stats
counters must equal ``reference.json``.  A failure is counted in
``error_rate``/``failed`` and makes the exit code 1.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` first runs
the untraced benchmark as a child process (for ``trace.overhead_s``),
then repeats the workload with a span around every call into a layer,
writes the spans as Chrome-trace JSON under ``.perfbench/``, prints
per-layer self time, and prints the per-layer metrics.  The last line of
standard output is always one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.

The benchmark's own tests: ``python3 -m pytest -q perfbench/tests``.
``perfbench/record_reference.py`` re-records the expected outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
from statistics import mean, median
import subprocess
import sys
import tempfile
import time
from collections import Counter
from typing import Dict, List

import catalogue
import inproc
import service
from measure import (Tally, Tracer, check_reference, self_times, tail,
                     work_counts, write_chrome_trace)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space inside the checkout: caches, span files, run records.
OUT = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("regions", "barriers", "service")
DEFAULT_SEED = 1
#: Set-up is timed this many times per run; the median is reported.
SETUP_PROBES = 7
SERVER_BOOTS = 5
#: In-process warm bursts after each cold request last this share of
#: its latency; after the cold pass, warm passes run until --seconds have
#: passed since it began, for at least WARM_MIN_SECONDS and at least
#: WARM_MIN_PASSES of them, so that on a slow host the requests cached
#: last still get warm samples that are not the first after a simulation.
WARM_SHARE = 0.15
WARM_MIN_SECONDS = 3.0
WARM_MIN_PASSES = 3
#: The service runs a fixed number of warm passes instead: its job table
#: keeps every job, so the server's memory grows with the job count.
SERVICE_WARM_PASSES = 60
TRACED_WARM_PASSES = 3
#: A child run (the untraced half of a traced run) must end within this.
CHILD_TIMEOUT_S = 170

#: Metric names and units: ``end_to_end`` for --trace 0, ``per_layer``
#: for --trace 1.
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
#: Layers the traced pass spans, reported as summed self time.
SPAN_LAYERS = ("workloads.build", "analysis.lint", "system.build",
               "system.run", "runner.finalize", "engine.store")

#: Imports and engine construction a fresh process needs before its
#: first request: the set-up ``setup_s`` times.
_PROBE = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import catalogue
from repro.experiments.engine import ExperimentEngine
ExperimentEngine(jobs=1, cache_dir=sys.argv[4])
if sys.argv[3] == "service":
    import repro.serve.client
catalogue.catalogue(sys.argv[3], catalogue.load_reference())
print("ready", flush=True)
"""


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def host_fingerprint() -> Dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"platform": platform.platform(), "cpu": model,
            "nproc": os.cpu_count(), "python": platform.python_version()}


# -- set-up --------------------------------------------------------------------


def import_program(tracer, workload: str) -> None:
    """Import what the first request needs, spanned (``setup.import``)."""
    with tracer.span("setup.import"):
        import repro.experiments.engine  # noqa: F401
        import repro.experiments.runner  # noqa: F401
        if workload == "service":
            import repro.serve.client  # noqa: F401
    from repro.experiments.engine import code_fingerprint
    with tracer.span("engine.fingerprint"):
        code_fingerprint()


def setup_probe_s(workload: str, work: str) -> float:
    """Median time for a fresh process to become ready to send."""
    samples = []
    for index in range(SETUP_PROBES):
        cache = os.path.join(work, f"probe-{index}")
        started = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, "-c", _PROBE, HERE, SRC, workload, cache],
                stdout=subprocess.PIPE, text=True) as probe:
            line = probe.stdout.readline()
            samples.append(time.perf_counter() - started)
            probe.stdout.read()
        if line.strip() != "ready" or probe.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit "
                               f"{probe.returncode})")
    return median(samples)


def peak_rss_mb(with_children: bool) -> float:
    """Peak RSS of this process, plus the largest reaped child's."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def untraced_child(args, tally: Tally) -> Dict:
    """Run this benchmark untraced in a child process; its result.

    Only the child's cold pass is used, so it runs with ``--seconds 0``
    (the shortest warm phase).  Its requests count as attempted by this
    run too, and a child that saw failures fails this run.
    """
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", "0", "--trace", "0"],
        stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"untraced child printed nothing "
                           f"(exit {done.returncode})")
    child = json.loads(lines[-1])
    tally.absorb(child["attempted"], child["failed"], "untraced child")
    return child


# -- shared metric helpers -----------------------------------------------------


def latency_metrics(prefix: str, samples: List[float], scale: float,
                    unit: str, notes: Dict) -> Dict:
    value, percentile, n = tail(samples)
    notes[f"{prefix}_tail"] = {"percentile": round(percentile, 2), "n": n}
    return {f"{prefix}_p50_{unit}": median(samples) * scale,
            f"{prefix}_tail_{unit}": value * scale}


def per_request(samples: Dict[str, List[float]], pick) -> List[float]:
    """``pick`` (``min`` or ``median``) of each request's warm samples."""
    return [pick(values) for values in samples.values() if values]


def span_layers(tracer) -> Dict[str, float]:
    own = self_times(tracer.spans)
    return {f"{layer}_s": own.get(layer, 0.0) for layer in SPAN_LAYERS}


def run_per_kinst(layers: Dict, retired: int) -> float:
    return layers["system.run_s"] * 1e6 / (retired / 1e3)


#: serve.* layers of the in-process workloads, which call no serve code.
SERVE_LAYERS_NOT_APPLICABLE = {
    "serve.boot_s": 0.0, "serve.submit_ms": 0.0,
    "serve.queue_wait_s": 0.0, "serve.worker_s": 0.0,
    "serve.worker_overhead_s": 0.0, "serve.notify_ms": 0.0,
    "serve.sliced_over_direct": 0.0, "serve.heartbeats_per_job": 0.0,
}


# -- in-process workloads ------------------------------------------------------


def run_inproc(args, work: str, tracers: Dict, tally, notes: Dict) -> Dict:
    from repro.experiments.engine import ExperimentEngine
    reference = catalogue.load_reference()
    requests = catalogue.catalogue(args.workload, reference)
    engine = ExperimentEngine(jobs=1, cache_dir=os.path.join(work, "cache"),
                              lint=True, progress=False)
    setup_s = setup_probe_s(args.workload, work)
    rng = random.Random(args.seed)
    cold_order = catalogue.shuffled(requests, rng)
    notes["requests"] = len(requests)

    if not args.trace:
        started = time.perf_counter()
        hits: Counter = Counter()
        latencies, records, wall, samples = inproc.cold_pass(
            engine, cold_order, reference, tally, rng, WARM_SHARE, hits)
        cached = [req for req in requests
                  if catalogue.request_id(req) in records]
        end = max(started + args.seconds,
                  time.perf_counter() + WARM_MIN_SECONDS)
        passes = 0
        while passes < WARM_MIN_PASSES or time.perf_counter() < end:
            inproc.warm_pass(engine, cached, records, tally, rng,
                             samples, hits)
            passes += 1
        notes["warm_lookups"] = hits[True] + hits[False]
        notes["warm_hits"] = hits[True]
        retired = work_counts(records.values())["cpu.retired"]
        metrics = {"setup_s": setup_s, "wall_s": wall,
                   "sim_kips": retired / wall / 1e3}
        metrics.update(latency_metrics("req", latencies, 1.0, "s", notes))
        metrics.update(latency_metrics(
            "hit", per_request(samples, min), 1e3, "ms", notes))
        metrics["peak_rss_mb"] = peak_rss_mb(with_children=False)
        return metrics

    child = untraced_child(args, tally)
    tracers["cold"] = cold = Tracer()
    tracers["warm"] = warm = Tracer()
    records, wall = inproc.traced_cold_pass(cold, engine, cold_order,
                                            reference, tally)
    hits, lookups = inproc.traced_warm_passes(
        warm, engine, requests, reference, tally, rng, TRACED_WARM_PASSES)
    counts = work_counts(records)
    metrics = layer_setup(tracers["setup"])
    metrics.update(span_layers(cold))
    metrics["system.run_us_per_kinst"] = run_per_kinst(
        metrics, counts["cpu.retired"])
    metrics["engine.load_s"] = \
        self_times(warm.spans).get("engine.load", 0.0) / TRACED_WARM_PASSES
    metrics["engine.hit_ratio"] = hits / lookups
    metrics.update(SERVE_LAYERS_NOT_APPLICABLE)
    metrics.update(counts)
    metrics["trace.overhead_s"] = wall - child["metrics"]["wall_s"]["value"]
    return metrics


def layer_setup(tracer) -> Dict:
    own = self_times(tracer.spans)
    return {"setup.import_s": own["setup.import"],
            "engine.fingerprint_s": own["engine.fingerprint"]}


# -- the job service -----------------------------------------------------------


def boot_servers(work: str, cache_dir: str):
    """Boot :data:`SERVER_BOOTS` servers, keep the last; boot times."""
    boots = []
    server = None
    for index in range(SERVER_BOOTS):
        if server is not None:
            server.stop()
        server = service.Server(SRC, cache_dir,
                        os.path.join(work, f"server-{index}.log"))
        boots.append(server.boot_s)
    return server, boots


def check_jobs(samples, reference: Dict, tally, cold: bool) -> None:
    for sample in samples:
        if sample.error is not None:
            tally.fail(*sample.error)
            continue
        record = sample.record
        if record.cached == cold:
            tally.fail("mismatch", f"{sample.rid}: cached={record.cached}"
                                   f" on the {'cold' if cold else 'warm'}"
                                   f" pass")
            continue
        problem = check_reference(reference, sample.rid, record.result)
        if problem:
            tally.fail("mismatch", problem)
        else:
            tally.ok()


def run_service(args, work: str, tracers: Dict, tally, notes: Dict) -> Dict:
    reference = catalogue.load_reference()
    requests = catalogue.catalogue("service", reference)
    cache_dir = os.path.join(work, "server-cache")
    probe_s = setup_probe_s("service", work)
    rng = random.Random(args.seed)
    cold_order = catalogue.shuffled(requests, rng)
    notes["requests"] = len(requests)
    child = untraced_child(args, tally) if args.trace else None
    server, boots = boot_servers(work, cache_dir)
    try:
        if args.trace:
            tracers["cold"] = Tracer()
            tracers["warm"] = Tracer()
        cold, wall = service.closed_loop(server.url, cold_order,
                                         tracers.get("cold"))
        warm = []
        # The traced pass, and an untraced child (``--seconds 0``) whose
        # cold pass alone is used, run the shortest warm phase.
        short = args.trace or not args.seconds
        for _ in range(TRACED_WARM_PASSES if short
                       else SERVICE_WARM_PASSES):
            batch, _ = service.closed_loop(
                server.url, catalogue.shuffled(requests, rng),
                tracers.get("warm"))
            check_jobs(batch, reference, tally, cold=False)
            for sample in batch:
                sample.drop_result()
            warm += batch
    finally:
        server.stop()
    check_jobs(cold, reference, tally, cold=True)
    done = [sample for sample in cold if sample.error is None]
    results = [sample.record.result for sample in done]
    retired = work_counts(results)["cpu.retired"]
    notes["warm_jobs"] = len(warm)

    if not args.trace:
        hits: Dict[str, List[float]] = {}
        for sample in warm:
            if sample.error is None:
                hits.setdefault(sample.rid, []).append(sample.latency)
        metrics = {"setup_s": probe_s + median(boots), "wall_s": wall,
                   "sim_kips": retired / wall / 1e3}
        metrics.update(latency_metrics(
            "req", [sample.latency for sample in done], 1.0, "s", notes))
        metrics.update(latency_metrics(
            "hit", per_request(hits, median), 1e3, "ms", notes))
        metrics["peak_rss_mb"] = peak_rss_mb(with_children=True)
        return metrics

    metrics = layer_setup(tracers["setup"])
    metrics["serve.boot_s"] = median(boots)
    direct, sliced = inprocess_twins(done, cache_dir, tracers, work, tally)
    metrics.update(span_layers(tracers["inproc"]))
    metrics["system.run_us_per_kinst"] = run_per_kinst(metrics, retired)
    metrics["engine.load_s"] = \
        self_times(tracers["load"].spans).get("engine.load", 0.0)
    warm_ok = [sample for sample in warm if sample.error is None]
    metrics["engine.hit_ratio"] = \
        sum(sample.record.cached for sample in warm_ok) / len(warm)
    metrics["serve.submit_ms"] = \
        median([sample.submit_s for sample in warm_ok]) * 1e3
    timings = service.job_timings(done)
    metrics["serve.queue_wait_s"] = median(timings["queue_wait"].values())
    metrics["serve.worker_s"] = median(timings["worker"].values())
    metrics["serve.worker_overhead_s"] = median(
        [worker - sliced[rid] for rid, worker in timings["worker"].items()])
    metrics["serve.notify_ms"] = median(timings["notify"].values()) * 1e3
    metrics["serve.sliced_over_direct"] = \
        sum(sliced.values()) / sum(direct.values())
    metrics["serve.heartbeats_per_job"] = \
        mean(sample.heartbeats for sample in done)
    metrics.update(work_counts(results))
    metrics["trace.overhead_s"] = wall - child["metrics"]["wall_s"]["value"]
    return metrics


def inprocess_twins(done, server_cache: str, tracers: Dict, work: str,
                    tally):
    """Re-run each successful cold job in-process, three ways.

    1. the engine's call sequence, spanned (per-layer self time); its
       record must equal the job's result exactly;
    2. ``execute`` and 3. ``execute_sliced`` with a heartbeat
       ``ProgressSink`` (what the job worker runs), timed back to back
       in alternating order once the first run has warmed in-process
       memoization.

    Also reads each job's stored result back from the server's cache,
    spanned (``engine.load``).  Returns per-request seconds of 2 and 3.
    """
    from repro.experiments.engine import (ExperimentEngine, ResultCache,
                                          build_spec)
    from repro.experiments.runner import execute
    from repro.serve.worker import execute_sliced
    tracers["inproc"] = twin_tracer = Tracer()
    tracers["load"] = load_tracer = Tracer()
    engine = ExperimentEngine(jobs=1, cache_dir=os.path.join(work, "twins"),
                              lint=True, progress=False)
    server_results = ResultCache(server_cache)
    direct: Dict[str, float] = {}
    sliced: Dict[str, float] = {}
    for index, sample in enumerate(done):
        req = sample.req
        record = inproc.traced_request(twin_tracer, engine, req)
        if _normal(record) != _normal(sample.record.result):
            tally.fail("mismatch", f"{sample.rid}: service result differs "
                                   f"from the in-process result")
        legs = [("direct", execute),
                ("sliced", lambda spec: execute_sliced(
                    spec, on_sample=lambda beat: None))]
        if index % 2:
            legs.reverse()
        for leg, run in legs:
            spec = build_spec(req)
            started = time.perf_counter()
            result = run(spec)
            seconds = time.perf_counter() - started
            (direct if leg == "direct" else sliced)[sample.rid] = seconds
            if _normal(result.to_dict()) != _normal(record):
                tally.fail("mismatch", f"{sample.rid}: {leg} run differs")
        inproc.traced_load(load_tracer, server_results, req)
    return direct, sliced


def _normal(record: Dict) -> str:
    """Canonical JSON text of a result record (tuples read as lists)."""
    return json.dumps(record, sort_keys=True)


# -- driver --------------------------------------------------------------------


def print_layers(tracers: Dict) -> None:
    """Per-layer self time of each traced pass, and its accounting."""
    for name, tracer in tracers.items():
        own = self_times(tracer.spans)
        roots = sum(span.duration for span in tracer.spans
                    if span.parent is None)
        if not roots:
            continue
        print(f"[{name}] roots {roots:.4f}s = sum of self times "
              f"{sum(own.values()):.4f}s")
        for layer, seconds in sorted(own.items(), key=lambda kv: -kv[1]):
            print(f"  {layer:22s} {seconds:10.4f}s "
                  f"{100.0 * seconds / roots:6.2f}%")


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT)
    os.environ["TMPDIR"] = work
    tempfile.tempdir = work
    tracers = {"setup": Tracer()}
    tally = Tally()
    notes: Dict = {"host": host_fingerprint(), "seed": args.seed}
    try:
        import_program(tracers["setup"], args.workload)
        runner = run_service if args.workload == "service" else run_inproc
        metrics = runner(args, work, tracers, tally, notes)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        metrics["error_rate"] = tally.error_rate
    units = declared_units(args.trace)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} "
                           f"disagree with {BENCHMARK}")
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}"
                                 f".json")
        write_chrome_trace(path, tracers)
        print_layers(tracers)
        print(f"trace.overhead_s {metrics['trace.overhead_s']:.4f}s; "
              f"spans -> {path}")
    for message in tally.messages:
        print(f"FAILED {message}")
    out = {name: {"value": metrics[name], "unit": unit}
           for name, unit in units.items()}
    with open(os.path.join(OUT, f"result-{stem}.json"), "w") as handle:
        json.dump({"metrics": out, "notes": notes,
                   "failures": tally.messages}, handle, indent=1)
    for key, note in notes.items():
        print(f"{key}: {note}")
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": out}))
    return 0 if tally.failed == 0 else 1


def declared_units(trace: int) -> Dict[str, str]:
    with open(BENCHMARK) as handle:
        declared = json.load(handle)["per_layer" if trace else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in declared}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
