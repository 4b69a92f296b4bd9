"""Command-line interface: regenerate any table, figure, or ablation.

Usage::

    python -m repro list
    python -m repro table 1
    python -m repro figure 10 --quick --jobs 4
    python -m repro figure 12 --bench dijkstra
    python -m repro ablation sharing --no-cache
    python -m repro run hmmer compcomm --items M=64 R=3
    python -m repro trace dijkstra --out run.json
    python -m repro profile dijkstra
    python -m repro sample mpeg2enc seq --warmup 20000 --sample 50000
    python -m repro resume out/snap_mpeg2enc_seq.json
    python -m repro serve --port 8321
    python -m repro submit hmmer compcomm --items M=64 --watch
    python -m repro status --url 127.0.0.1:8321
    python -m repro watch a1b2c3d4e5f6

Simulation commands accept ``--jobs N`` (fan out over N worker
processes; also ``REPRO_JOBS``), ``--no-cache`` (ignore the persistent
result cache; also ``REPRO_NO_CACHE``), ``--cache-dir PATH``
(default ``~/.cache/repro``; also ``REPRO_CACHE_DIR``), and
``--no-lint`` (skip the static pre-flight verification of specs; also
``REPRO_NO_LINT``).  ``python -m repro lint`` runs the static verifier
over the whole registry and the SPL function library without
simulating anything; it exits non-zero when any error-severity
diagnostic is found.

Every ``cmd_*`` handler returns an integer exit code (the table is in
``python -m repro --help``): 0 success, 1 for failed checks or failed
jobs, 2 for usage errors (argparse's convention).  Simulation verbs
route through :mod:`repro.api`, the supported programmatic facade; the
service commands (``serve`` / ``submit`` / ``status`` / ``watch``)
speak to the job server from :mod:`repro.serve`.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.experiments import ablations
from repro.experiments.barriers import (PAPER_SIZES, QUICK_SIZES,
                                        figure12_series, figure13_series,
                                        figure14_series, run_barrier_sweep)
from repro.experiments.engine import ExperimentEngine, request
from repro.experiments.regions import (figure10_rows, figure11_rows,
                                       run_region_study, swqueue_rows)
from repro.obs.render import format_series, format_table
from repro.experiments.tables import table1, table2, table3
from repro.experiments.whole_program import (figure8_rows, figure9_rows,
                                             whole_program_study)
from repro.workloads import registry

#: The CLI-wide exit-code convention (every ``cmd_*`` returns one).
EXIT_OK = 0        # the command did what was asked
EXIT_FAIL = 1      # ran, but a check/lint/job/baseline gate failed
EXIT_USAGE = 2     # bad arguments (argparse and SystemExit paths)

EXIT_CODE_TABLE = """\
exit codes:
  0  success
  1  a gate failed: lint errors, bound violations, baseline check
     mismatches, fuzz disagreements, or a submitted job that did not
     complete (failed / cancelled / timed out)
  2  usage error (unknown command, malformed arguments)
"""

_ABLATIONS = {
    "sharing": ablations.sharing_degree,
    "fabric-size": ablations.fabric_size,
    "partitioning": ablations.spatial_partitioning,
    "queue-depth": ablations.queue_depth,
    "barrier-bus": ablations.barrier_bus_latency,
    "reconfig": ablations.reconfiguration_cost,
    "manager": ablations.dynamic_management,
}


def _coerce(value: str):
    """int, float, bool, or str — whichever the text reads as."""
    if value.lower() in ("true", "false"):
        return value.lower() == "true"
    for parse in (int, float):
        try:
            return parse(value)
        except ValueError:
            pass
    return value


def _parse_kwargs(pairs: List[str]) -> dict:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(
                f"bad parameter {pair!r}: expected name=value, e.g. M=64, "
                f"scale=0.5, wide_core=true, bench=g721dec")
        key, value = pair.split("=", 1)
        out[key] = _coerce(value)
    return out


def _engine_from_args(args) -> ExperimentEngine:
    return ExperimentEngine(
        jobs=args.jobs,
        use_cache=False if args.no_cache else None,
        cache_dir=args.cache_dir,
        lint=False if args.no_lint else None,
        progress=True)


def _session_from_args(args):
    """An :mod:`repro.api` session over the flag-configured engine."""
    from repro import api
    return api.Session(engine=_engine_from_args(args))


def cmd_list(_args) -> int:
    print("Benchmarks (Table III):")
    for info in registry.REGISTRY.values():
        variants = ", ".join(sorted(info.variants))
        print(f"  {info.name:12s} [{info.category}] variants: {variants}")
    print("\nTables: 1 2 3;  Figures: 8 9 10 11 12 13 14")
    print("Ablations:", ", ".join(_ABLATIONS))
    return EXIT_OK


def cmd_table(args) -> int:
    if args.number == 1:
        rows = [dict(component=k, **v) for k, v in table1().items()]
        print(format_table(rows))
    elif args.number == 2:
        print(format_table([{"parameter": p, "OOO1": a, "OOO2": b}
                            for p, a, b in table2()]))
    elif args.number == 3:
        print(format_table([{"benchmark": n, "functions": f, "% exec": p}
                            for n, f, p in table3()]))
    else:
        raise SystemExit("tables are 1, 2, or 3")
    return EXIT_OK


def cmd_figure(args) -> int:
    number = args.number
    engine = _engine_from_args(args)
    if number in (8, 9):
        points = whole_program_study(args.benchmarks or None, engine=engine)
        rows = figure8_rows(points) if number == 8 else figure9_rows(points)
        print(format_table(rows))
    elif number in (10, 11):
        study = run_region_study(args.benchmarks or None,
                                 include_swqueue=True, engine=engine)
        rows = figure10_rows(study) if number == 10 \
            else figure11_rows(study)
        print(format_table(rows))
        if number == 10:
            print("\nSoftware queues (Section V-B):")
            print(format_table(swqueue_rows(study)))
    elif number in (12, 13, 14):
        benches = args.benchmarks or (["ll3", "dijkstra"] if number == 13
                                      else ["ll2", "ll6", "ll3", "dijkstra"])
        for bench in benches:
            sizes = (QUICK_SIZES if args.quick else PAPER_SIZES)[bench]
            threads = (2, 4, 8, 16) if number == 13 else (8, 16)
            sweep = run_barrier_sweep(bench, sizes=list(sizes),
                                      thread_counts=threads, engine=engine)
            series = {12: figure12_series, 13: figure13_series,
                      14: figure14_series}[number](sweep,
                                                   thread_counts=threads)
            print(f"--- {bench} ---")
            print(format_series(series))
    else:
        raise SystemExit("figures are 8-14")
    return EXIT_OK


def cmd_ablation(args) -> int:
    if args.name not in _ABLATIONS:
        raise SystemExit(f"ablations: {', '.join(_ABLATIONS)}")
    print(format_table(_ABLATIONS[args.name](
        engine=_engine_from_args(args))))
    return EXIT_OK


def cmd_run(args) -> int:
    info = registry.REGISTRY.get(args.benchmark)
    if info is None:
        raise SystemExit(f"unknown benchmark {args.benchmark!r}")
    if args.variant not in info.variants:
        raise SystemExit(f"{args.benchmark} variants: "
                         f"{', '.join(sorted(info.variants))}")
    result = _session_from_args(args).run(
        request(args.benchmark, args.variant,
                **_parse_kwargs(args.params)))
    if args.json:
        import json
        print(json.dumps(result.to_dict(), indent=2))
        return EXIT_OK
    print(f"{result.name}: {result.cycles} cycles "
          f"({result.cycles_per_item:.2f} per item), "
          f"energy {result.energy_joules * 1e6:.2f} uJ, "
          f"ED {result.energy_delay:.3e} J*s")
    if result.cache_hit:
        print("result served from the cache (simulated and verified "
              "in an earlier run)")
    else:
        print("output verified against the reference kernel")
    return EXIT_OK


_VARIANT_PREFERENCE = ("spl", "compcomm", "barrier", "comm", "sw")


def _resolve_observed_spec(args):
    """RunSpec for the trace/profile commands (default variant if blank)."""
    from repro.experiments.engine import build_spec
    bench = args.benchmark_opt or args.benchmark
    if not bench:
        raise SystemExit("name a benchmark (positional or --bench)")
    variant = args.variant
    if args.benchmark_opt and args.benchmark and not variant:
        # "trace --bench hmmer compcomm": the positional is the variant.
        variant = args.benchmark
    info = registry.REGISTRY.get(bench)
    if info is None:
        raise SystemExit(f"unknown benchmark {bench!r}")
    if not variant:
        for candidate in _VARIANT_PREFERENCE:
            if candidate in info.variants:
                variant = candidate
                break
        else:
            variant = sorted(info.variants)[0]
    if variant not in info.variants:
        raise SystemExit(f"{bench} variants: "
                         f"{', '.join(sorted(info.variants))}")
    return build_spec(request(bench, variant, **_parse_kwargs(args.params)))


def _run_observed(spec, *sinks):
    """Simulate ``spec`` with sinks attached to the machine's event bus."""
    from repro.common.config import RunOptions
    from repro.system.machine import Machine
    machine = Machine(spec.system)
    for sink, kinds in sinks:
        machine.obs.attach(sink, kinds=kinds)
    machine.load(spec.workload)
    machine.run(options=RunOptions(max_cycles=spec.max_cycles))
    machine.finish_observation()
    return machine


def cmd_trace(args) -> int:
    import os
    from repro.obs.perfetto import PERFETTO_KINDS, PerfettoSink
    spec = _resolve_observed_spec(args)
    sink = PerfettoSink()
    machine = _run_observed(spec, (sink, PERFETTO_KINDS))
    # Default under the gitignored out/ directory so traces (easily
    # hundreds of thousands of lines) never end up committed.
    out = args.out or os.path.join("out", "trace.json")
    parent = os.path.dirname(out)
    if parent:
        os.makedirs(parent, exist_ok=True)
    sink.write(out)
    print(f"{spec.name}: {machine.cycle} cycles, "
          f"{len(sink.trace_events)} trace events -> {out}")
    print("open in https://ui.perfetto.dev or chrome://tracing "
          "(1 us shown = 1 core cycle)")
    return EXIT_OK


def _cmd_profile_hot(args) -> int:
    """Hot-path report: per-PC retire counts plus block-cache statistics.

    Runs WITHOUT observation sinks: an active event bus disables the
    compiled hot loop (DESIGN.md section 10), and the point of ``--hot``
    is to profile the run exactly as the default configuration executes
    it — fused windows, trace-cache hits and all.
    """
    import json
    import os
    from repro.common.config import RunOptions
    from repro.system.machine import Machine
    spec = _resolve_observed_spec(args)
    machine = Machine(spec.system)
    machine.load(spec.workload)
    programs = {}
    for core in machine.cores:
        core._retire_pcs = {}
        if core.ctx is not None:
            programs[core.index] = core.ctx.program.instructions
    cycles = machine.run(options=RunOptions(max_cycles=spec.max_cycles))
    runners = list(machine._bg_runners.values())
    windows = sum(r.windows for r in runners)
    fused = sum(r.fused_cycles for r in runners)
    deopts = sum(r.deopts for r in runners)
    compiles = sum(r.bp.compiles for r in runners)
    entries = sum(r.bp.entries for r in runners)
    hit_rate = (1.0 - compiles / entries) if entries else 0.0
    rows = []
    for core in machine.cores:
        insts = programs.get(core.index, [])
        for pc, count in (core._retire_pcs or {}).items():
            text = repr(insts[pc]) if pc < len(insts) else "?"
            rows.append({"core": core.index, "pc": pc,
                         "retired": count, "instruction": text})
    rows.sort(key=lambda row: -row["retired"])
    top = rows[:args.top]
    if args.dump_blocks:
        parent = os.path.dirname(args.dump_blocks)
        if parent:
            os.makedirs(parent, exist_ok=True)
        chunks = []
        for index in sorted(machine._bg_runners):
            runner = machine._bg_runners[index]
            chunks.append(f"# core {index}\n{runner.bp.source_dump()}")
        with open(args.dump_blocks, "w", encoding="utf-8") as handle:
            handle.write("\n\n".join(chunks) + "\n")
    if args.json:
        print(json.dumps({
            "name": spec.name,
            "total_cycles": cycles,
            "blockgen": {"windows": windows, "fused_cycles": fused,
                         "deopts": deopts, "block_compiles": compiles,
                         "block_entries": entries, "hit_rate": hit_rate,
                         "multi_windows": machine._bg_multi.windows,
                         "multi_fused_cycles": machine._bg_multi.fused_cycles},
            "hot_pcs": top,
        }, indent=2))
        return EXIT_OK
    print(f"{spec.name}: {cycles} cycles")
    print(f"blockgen: {windows} windows, {fused} fused cycles "
          f"({fused / cycles:.1%} of total), {deopts} deopts")
    print(f"walk: {machine._bg_multi.windows} fused windows, "
          f"{machine._bg_multi.fused_cycles} core-cycles stepped")
    print(f"block cache: {compiles} compiles, {entries} entries, "
          f"hit rate {hit_rate:.1%}")
    print(f"hot PCs (top {len(top)} by retire count):")
    for row in top:
        print(f"  core {row['core']:>2d}  pc {row['pc']:>5d}  "
              f"{row['retired']:>9d}  {row['instruction']}")
    if args.dump_blocks:
        print(f"generated block source -> {args.dump_blocks}")
    return EXIT_OK


def cmd_profile(args) -> int:
    from repro.analysis.bounds import check_measured, compute_bounds
    from repro.obs.profile import ProfilerSink
    from repro.obs.render import render_profile
    if args.hot:
        return _cmd_profile_hot(args)
    spec = _resolve_observed_spec(args)
    sink = ProfilerSink()
    _run_observed(spec, (sink, ProfilerSink.KINDS))
    accounting = sink.accounting()
    bounds = compute_bounds(spec)
    bound_diags = check_measured(bounds, accounting.total_cycles,
                                 unit=spec.name)
    if args.json:
        import json
        print(json.dumps({"name": spec.name,
                          "total_cycles": accounting.total_cycles,
                          "min_cycles_bound": bounds.min_cycles,
                          "bound_violations": [d.render()
                                               for d in bound_diags],
                          "cores": accounting.rows()}, indent=2))
        return EXIT_FAIL if bound_diags else EXIT_OK
    print(f"{spec.name}:")
    print(render_profile(accounting))
    print(f"static lower bound: {bounds.min_cycles} cycles "
          f"({accounting.total_cycles} measured)")
    for diag in bound_diags:
        print(diag.render())
    return EXIT_FAIL if bound_diags else EXIT_OK


def cmd_sample(args) -> int:
    import json
    import os

    from repro.experiments.sample import format_report
    info = registry.REGISTRY.get(args.benchmark)
    if info is None:
        raise SystemExit(f"unknown benchmark {args.benchmark!r}")
    if args.variant not in info.variants:
        raise SystemExit(f"{args.benchmark} variants: "
                         f"{', '.join(sorted(info.variants))}")
    snapshot_path = args.snapshot
    if snapshot_path is None:
        snapshot_path = os.path.join(
            "out", f"snap_{args.benchmark}_{args.variant}.json")
    parent = os.path.dirname(snapshot_path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    from repro import api
    report = api.sample(
        request(args.benchmark, args.variant, **_parse_kwargs(args.params)),
        warmup=args.warmup, sample=args.sample,
        snapshot_path=snapshot_path, compare_full=args.compare_full)
    if args.json:
        print(json.dumps(report, indent=2))
        return EXIT_OK
    print(format_report(report))
    return EXIT_OK


def cmd_resume(args) -> int:
    from repro.system.snapshot import resume_from_file
    machine, cycles = resume_from_file(args.snapshot,
                                       check=not args.no_check)
    print(f"resumed {args.snapshot}: completed at cycle {cycles}, "
          f"{machine.total_retired()} instructions retired")
    if not args.no_check:
        print("output verified against the reference kernel")
    return EXIT_OK


def cmd_bench(args) -> int:
    import json

    from repro.experiments.bench import (DEFAULT_OUT, SNAPSHOT_OUT,
                                         check_report, format_report,
                                         run_bench, run_snapshot_roundtrip,
                                         write_report)
    cases = list(args.cases or [])
    for group in args.case_list or []:
        cases.extend(name for name in group.split(",") if name)
    if args.snapshot_roundtrip:
        report = run_snapshot_roundtrip(cases or None,
                                        snapshot_dir=args.snapshot_dir)
        out = args.out or SNAPSHOT_OUT
    else:
        report = run_bench(cases or None)
        out = args.out or DEFAULT_OUT
    write_report(report, out)
    print(format_report(report))
    print(f"report -> {out}")
    if args.check:
        with open(args.check, encoding="utf-8") as handle:
            baseline = json.load(handle)
        failures = check_report(report, baseline)
        if failures:
            for failure in failures:
                print(f"CHECK FAIL {failure}")
            return EXIT_FAIL
        print(f"check OK against {args.check}")
    return EXIT_OK


def cmd_lint(args) -> int:
    from repro import api
    from repro.analysis import has_errors, render_json, render_text
    benchmarks = args.benchmarks or None
    if benchmarks:
        unknown = [b for b in benchmarks if b not in registry.REGISTRY]
        if unknown:
            raise SystemExit(f"unknown benchmarks: {', '.join(unknown)}")
    diagnostics = api.lint(benchmarks)
    if args.json:
        print(render_json(diagnostics))
    else:
        print(render_text(diagnostics))
    return EXIT_FAIL if has_errors(diagnostics) else EXIT_OK


def cmd_fuzz(args) -> int:
    from repro.analysis.fuzz import (render_fuzz_text, run_fuzz,
                                     write_fuzz_json)
    seeds = range(args.start, args.start + args.seeds)
    report = run_fuzz(seeds)
    print(render_fuzz_text(report))
    if args.json_out:
        import os
        parent = os.path.dirname(args.json_out)
        if parent:
            os.makedirs(parent, exist_ok=True)
        write_fuzz_json(report, args.json_out)
        print(f"report -> {args.json_out}")
    return EXIT_FAIL if report["disagreements"] else EXIT_OK


# -- job-service commands ------------------------------------------------------


def cmd_serve(args) -> int:
    """Run the async job server until drained (SIGTERM/Ctrl-C/drain)."""
    from repro import api
    from repro.serve import server
    session = api.Session(
        engine=_engine_from_args(args), shards=args.shards,
        queue_limit=args.queue_limit, tenant_quota=args.tenant_quota,
        default_timeout_s=args.timeout)

    def announce(port: int) -> None:
        print(f"repro job server listening on http://{args.host}:{port} "
              f"({args.shards} shards, queue limit {args.queue_limit}, "
              f"{args.tenant_quota} jobs/tenant)", flush=True)

    return server.main(session, host=args.host, port=args.port,
                       on_ready=announce)


def _client_from_args(args):
    from repro.serve.client import Client
    return Client(args.url)


def _print_record(record, as_json: bool) -> None:
    import json
    if as_json:
        print(json.dumps(record.to_dict(), indent=2, sort_keys=True))
        return
    line = f"{record.job_id}  {record.state:9s} {record.label}"
    if record.cached:
        line += "  [cached]"
    if record.heartbeat:
        line += (f"  cycle {record.heartbeat['cycle']} "
                 f"ipc {record.heartbeat['ipc']:.2f}")
    if record.detail:
        line += f"  ({record.detail})"
    print(line)


def _job_exit(record) -> int:
    return EXIT_OK if record.state == "done" else EXIT_FAIL


def cmd_submit(args) -> int:
    info = registry.REGISTRY.get(args.benchmark)
    if info is None:
        raise SystemExit(f"unknown benchmark {args.benchmark!r}")
    if args.variant not in info.variants:
        raise SystemExit(f"{args.benchmark} variants: "
                         f"{', '.join(sorted(info.variants))}")
    client = _client_from_args(args)
    record = client.submit(
        request(args.benchmark, args.variant, **_parse_kwargs(args.params)),
        tenant=args.tenant, priority=args.priority,
        timeout_s=args.timeout)
    _print_record(record, args.json)
    if args.watch and record.state not in ("done", "failed", "cancelled"):
        return _watch(client, record.job_id, args.json)
    if args.watch or record.cached:
        return _job_exit(record)
    return EXIT_OK


def cmd_status(args) -> int:
    client = _client_from_args(args)
    if args.job_id:
        _print_record(client.status(args.job_id), args.json)
        return EXIT_OK
    health = client.health()
    records = client.jobs(args.tenant)
    if args.json:
        import json
        print(json.dumps({"health": health,
                          "jobs": [r.to_dict() for r in records]},
                         indent=2, sort_keys=True))
        return EXIT_OK
    census = " ".join(f"{state}={count}"
                      for state, count in sorted(health["jobs"].items()))
    print(f"server: {census}  workers {health['running_workers']}"
          f"/{health['shards']}"
          + ("  [draining]" if health.get("draining") else ""))
    for record in records:
        _print_record(record, False)
    return EXIT_OK


def _watch(client, job_id: str, as_json: bool) -> int:
    from repro.serve.protocol import JobRecord
    final = None
    for event, payload in client.watch(job_id):
        if event == "heartbeat":
            if as_json:
                import json
                print(json.dumps({"heartbeat": payload}, sort_keys=True))
            else:
                print(f"  cycle {payload['cycle']:>10}  "
                      f"retired {payload['retired']:>10}  "
                      f"ipc {payload['ipc']:.3f}")
        elif event == "state":
            final = JobRecord.from_dict(payload)
            _print_record(final, as_json)
    if final is None:
        final = client.status(job_id)
    return _job_exit(final)


def cmd_watch(args) -> int:
    return _watch(_client_from_args(args), args.job_id, args.json)


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes (default $REPRO_JOBS or 1)")
    parser.add_argument("--no-cache", action="store_true",
                        help="do not read or write the result cache")
    parser.add_argument("--cache-dir", default=None,
                        help="result cache location "
                             "(default $REPRO_CACHE_DIR or ~/.cache/repro)")
    parser.add_argument("--no-lint", action="store_true",
                        help="skip the static pre-flight verification "
                             "of specs before simulating")


def _add_client_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--url", default="127.0.0.1:8321",
                        help="job server address "
                             "(default 127.0.0.1:8321)")
    parser.add_argument("--json", action="store_true",
                        help="emit job records as JSON")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ReMAP (MICRO 2010) reproduction driver",
        epilog=EXIT_CODE_TABLE,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list benchmarks and experiments") \
        .set_defaults(func=cmd_list)

    p_table = sub.add_parser("table", help="print Table 1/2/3")
    p_table.add_argument("number", type=int)
    _add_engine_flags(p_table)
    p_table.set_defaults(func=cmd_table)

    p_fig = sub.add_parser("figure", help="regenerate Figure 8-14")
    p_fig.add_argument("number", type=int)
    p_fig.add_argument("--quick", action="store_true",
                       help="use reduced sweep sizes")
    p_fig.add_argument("--bench", dest="benchmarks", action="append",
                       help="restrict to specific benchmarks")
    _add_engine_flags(p_fig)
    p_fig.set_defaults(func=cmd_figure)

    p_abl = sub.add_parser("ablation", help="run one ablation study")
    p_abl.add_argument("name")
    _add_engine_flags(p_abl)
    p_abl.set_defaults(func=cmd_ablation)

    p_run = sub.add_parser("run", help="run one benchmark variant")
    p_run.add_argument("benchmark")
    p_run.add_argument("variant")
    p_run.add_argument("--items", dest="params", nargs="*", default=[],
                       help="spec parameters, e.g. M=64 R=3 or items=128")
    p_run.add_argument("--json", action="store_true",
                       help="emit a JSON record of the run")
    _add_engine_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_trace = sub.add_parser(
        "trace", help="export a Perfetto/Chrome trace of one run")
    p_trace.add_argument("benchmark", nargs="?", default="")
    p_trace.add_argument("variant", nargs="?", default="",
                         help="variant (default: the SPL variant)")
    p_trace.add_argument("--bench", dest="benchmark_opt", default=None,
                         help="benchmark (alternative to the positional)")
    p_trace.add_argument("--out", default=None,
                         help="output path (default out/trace.json)")
    p_trace.add_argument("--items", dest="params", nargs="*", default=[],
                         help="spec parameters, e.g. n=64 p=4")
    p_trace.set_defaults(func=cmd_trace)

    p_prof = sub.add_parser(
        "profile", help="cycle-accounting breakdown of one run")
    p_prof.add_argument("benchmark", nargs="?", default="")
    p_prof.add_argument("variant", nargs="?", default="",
                        help="variant (default: the SPL variant)")
    p_prof.add_argument("--bench", dest="benchmark_opt", default=None,
                        help="benchmark (alternative to the positional)")
    p_prof.add_argument("--items", dest="params", nargs="*", default=[],
                        help="spec parameters, e.g. n=64 p=4")
    p_prof.add_argument("--json", action="store_true",
                        help="emit the breakdown as JSON")
    p_prof.add_argument("--hot", action="store_true",
                        help="per-PC retire counts and trace-cache block "
                             "statistics instead of cycle accounting "
                             "(runs unobserved so blockgen engages)")
    p_prof.add_argument("--top", type=int, default=20,
                        help="rows in the --hot per-PC table (default 20)")
    p_prof.add_argument("--dump-blocks", default=None,
                        help="with --hot: write the generated block "
                             "source to this file")
    p_prof.set_defaults(func=cmd_profile)

    p_sample = sub.add_parser(
        "sample", help="SimPoint-style sampled run: warmup, snapshot, "
                       "measure a bounded window")
    p_sample.add_argument("benchmark")
    p_sample.add_argument("variant")
    p_sample.add_argument("--warmup", type=int, default=20_000,
                          help="detailed warmup cycles before the "
                               "snapshot/measurement boundary")
    p_sample.add_argument("--sample", type=int, default=50_000,
                          help="measured window length in cycles")
    p_sample.add_argument("--snapshot", default=None,
                          help="snapshot path written at the warmup "
                               "boundary (default out/snap_<bench>_"
                               "<variant>.json)")
    p_sample.add_argument("--compare-full", action="store_true",
                          help="also run uninterrupted and report the "
                               "sampled-vs-full IPC error and wall-clock "
                               "ratio")
    p_sample.add_argument("--items", dest="params", nargs="*", default=[],
                          help="spec parameters, e.g. M=64 R=3 or items=128")
    p_sample.add_argument("--json", action="store_true",
                          help="emit the report as JSON")
    p_sample.set_defaults(func=cmd_sample)

    p_resume = sub.add_parser(
        "resume", help="continue a snapshotted run to completion")
    p_resume.add_argument("snapshot", help="snapshot file written by "
                                           "'repro sample' --snapshot")
    p_resume.add_argument("--no-check", action="store_true",
                          help="skip the workload's reference-output check")
    p_resume.set_defaults(func=cmd_resume)

    p_bench = sub.add_parser(
        "bench", help="time the simulation loop (naive, fast-forward, "
                      "blockgen, sliced with a heartbeat sink)")
    p_bench.add_argument("--case", dest="cases", action="append",
                         help="case to run (seq, barrier, compcomm, adpcm, "
                              "livermore); repeatable, default all")
    p_bench.add_argument("--cases", dest="case_list", action="append",
                         help="comma-separated case selection, e.g. "
                              "--cases seq,adpcm")
    p_bench.add_argument("--out", default=None,
                         help="report path (default BENCH_simloop.json)")
    p_bench.add_argument("--check", default=None, metavar="PATH",
                         help="compare simulated results (cycles, retired) "
                              "against a committed baseline report; exact "
                              "match required, and the sliced leg may take "
                              "at most 1.25x the blockgen leg's wall time")
    p_bench.add_argument("--snapshot-roundtrip", action="store_true",
                         help="instead of timing, pause each case mid-run, "
                              "snapshot to disk, restore and continue; "
                              "--check then gates the round-tripped results "
                              "against the same baseline")
    p_bench.add_argument("--snapshot-dir", default=None,
                         help="where round-trip snapshot files are written "
                              "(default: a temporary directory)")
    p_bench.set_defaults(func=cmd_bench)

    p_lint = sub.add_parser(
        "lint", help="statically verify benchmarks and SPL functions")
    p_lint.add_argument("--bench", dest="benchmarks", action="append",
                        help="restrict to specific benchmarks (also skips "
                             "the function library)")
    p_lint.add_argument("--json", action="store_true",
                        help="emit the diagnostic report as JSON")
    p_lint.set_defaults(func=cmd_lint)

    p_fuzz = sub.add_parser(
        "fuzz", help="cross-check static verdicts against simulation on "
                     "randomized scenarios")
    p_fuzz.add_argument("--seeds", type=int, default=100,
                        help="number of seeds to fuzz (default 100)")
    p_fuzz.add_argument("--start", type=int, default=0,
                        help="first seed (default 0)")
    p_fuzz.add_argument("--json", dest="json_out", default=None,
                        help="also write the full report to this path")
    p_fuzz.set_defaults(func=cmd_fuzz)

    p_serve = sub.add_parser(
        "serve", help="run the async HTTP job server over the engine")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8321,
                         help="listen port (0 picks a free one; "
                              "default 8321)")
    p_serve.add_argument("--shards", type=int, default=2,
                         help="concurrent worker processes (default 2)")
    p_serve.add_argument("--queue-limit", type=int, default=64,
                         help="max live jobs before 429 back-pressure "
                              "(default 64)")
    p_serve.add_argument("--tenant-quota", type=int, default=16,
                         help="max live jobs per tenant (default 16)")
    p_serve.add_argument("--timeout", type=float, default=300.0,
                         help="default per-job wall-clock budget in "
                              "seconds (default 300)")
    _add_engine_flags(p_serve)
    p_serve.set_defaults(func=cmd_serve)

    p_submit = sub.add_parser(
        "submit", help="submit one benchmark variant to a job server")
    p_submit.add_argument("benchmark")
    p_submit.add_argument("variant")
    p_submit.add_argument("--items", dest="params", nargs="*", default=[],
                          help="spec parameters, e.g. M=64 R=3 or "
                               "items=128")
    p_submit.add_argument("--tenant", default="default")
    p_submit.add_argument("--priority", type=int, default=0,
                          help="higher runs first (default 0)")
    p_submit.add_argument("--timeout", type=float, default=None,
                          help="per-job wall-clock budget in seconds")
    p_submit.add_argument("--watch", action="store_true",
                          help="stream the job's progress to completion "
                               "and exit by its final state")
    _add_client_flags(p_submit)
    p_submit.set_defaults(func=cmd_submit)

    p_status = sub.add_parser(
        "status", help="show a job's record, or the whole server")
    p_status.add_argument("job_id", nargs="?", default=None)
    p_status.add_argument("--tenant", default=None,
                          help="filter the job list to one tenant")
    _add_client_flags(p_status)
    p_status.set_defaults(func=cmd_status)

    p_watch = sub.add_parser(
        "watch", help="stream one job's SSE feed until it finishes")
    p_watch.add_argument("job_id")
    _add_client_flags(p_watch)
    p_watch.set_defaults(func=cmd_watch)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
