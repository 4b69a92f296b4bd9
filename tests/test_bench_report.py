"""``repro bench --check`` gate logic on synthetic reports."""

from repro.experiments.bench import SLICED_RATIO_LIMIT, check_report


def _row(case, sliced_s, blockgen_s=1.0, cycles=100):
    return {"case": case, "cycles": cycles, "retired": 50,
            "blockgen": {"wall_median_s": blockgen_s},
            "sliced": {"wall_median_s": sliced_s}}


def _report(*rows, schema=3):
    return {"schema": schema, "cases": list(rows)}


def test_sliced_ratio_within_limit_passes():
    fresh = _report(_row("seq", 1.05))
    assert check_report(fresh, _report(_row("seq", 9.0))) == []


def test_sliced_ratio_over_limit_fails():
    fresh = _report(_row("seq", SLICED_RATIO_LIMIT + 0.1),
                    _row("barrier", 1.0))
    failures = check_report(fresh, _report(_row("seq", 1.0),
                                           _row("barrier", 1.0)))
    assert len(failures) == 1
    assert failures[0].startswith("seq: sliced leg")


def test_schema_2_baseline_still_gates_cycles():
    baseline = _report({"case": "seq", "cycles": 99, "retired": 50},
                       schema=2)
    failures = check_report(_report(_row("seq", 1.0)), baseline)
    assert failures == ["seq: cycles changed 99 -> 100 "
                        "(simulated results must be exact)"]
