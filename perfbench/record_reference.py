"""Re-record ``reference.json``: the expected output of every request.

Usage (from the repository root)::

    python3 perfbench/record_reference.py

Simulates every request of the ``regions`` and ``barriers`` grids (the
``service`` mix is drawn from both) with the plain in-process
``execute`` path, checks each workload's own output check, and stores
cycles, retired instructions and a digest of all stats counters per
request.  Run it only when a change is meant to alter simulated results.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import catalogue  # noqa: E402
from measure import fingerprint  # noqa: E402


def main() -> int:
    from repro.experiments.engine import build_spec
    from repro.experiments.runner import execute
    records = {}
    for workload, requests in (("regions", catalogue.regions()),
                               ("barriers", catalogue.barriers())):
        for req in requests:
            rid = catalogue.request_id(req)
            record = fingerprint(execute(build_spec(req)).to_dict())
            record["workload"] = workload
            records[rid] = record
            print(f"{rid:32s} cycles={record['cycles']:>7} "
                  f"retired={record['retired']:>7}", flush=True)
    with open(catalogue.REFERENCE, "w") as handle:
        json.dump({"schema": 1, "requests": records}, handle, indent=1,
                  sort_keys=True)
        handle.write("\n")
    print(f"{len(records)} requests -> {catalogue.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
