"""The requests each workload sends, and the seeded order it sends them in.

The grids come from the figure studies themselves: a recording stand-in
for the experiment engine captures the requests ``run_region_study`` and
``run_barrier_sweep`` submit, so the benchmark runs exactly what the
Figure 10/11 and Figure 12 quick runs run.  ``repro`` is imported lazily
so the benchmark can time that import as part of set-up.
"""

from __future__ import annotations

import json
import os
import random
from typing import Dict, List

#: Expected output of every request any seed can produce
#: (re-record with ``record_reference.py``).
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference.json")

#: Figure 12 benchmarks of the ``barriers`` workload (quick sizes, p=8,16).
BARRIER_BENCHES = ("ll2", "ll3")

#: A request is short enough for the ``service`` mix when its recorded
#: reference retires at most this many instructions over all cores.
SERVICE_MAX_RETIRED = 15_000


class _Recorder:
    """Duck-typed engine that records submissions and simulates nothing."""

    def __init__(self) -> None:
        self.requests: List = []

    def submit(self, req, key=None) -> None:
        self.requests.append(req)

    def gather(self) -> Dict:
        return {}


def load_reference() -> Dict[str, Dict]:
    with open(REFERENCE) as handle:
        return json.load(handle)["requests"]


def request_id(req) -> str:
    """Stable, human-readable identity of one request."""
    params = " ".join(f"{key}={value}" for key, value in req.params)
    return f"{req.label} {params}".rstrip()


def regions() -> List:
    """The 70 requests of the Figure 10/11 quick grid (with swqueue)."""
    from repro.experiments.regions import run_region_study
    recorder = _Recorder()
    run_region_study(include_swqueue=True, engine=recorder)
    return recorder.requests


def barriers() -> List:
    """The 36 requests of the Figure 12 quick grid for ll2 and ll3."""
    from repro.experiments.barriers import run_barrier_sweep
    recorder = _Recorder()
    for bench in BARRIER_BENCHES:
        run_barrier_sweep(bench, engine=recorder)
    return recorder.requests


def service(reference: Dict[str, Dict]) -> List:
    """Short requests drawn from both grids, for the job-service mix."""
    return [req for req in regions() + barriers()
            if reference[request_id(req)]["retired"] <= SERVICE_MAX_RETIRED]


def catalogue(workload: str, reference: Dict[str, Dict]) -> List:
    if workload == "regions":
        return regions()
    if workload == "barriers":
        return barriers()
    return service(reference)


def shuffled(requests: List, rng: random.Random) -> List:
    """A seeded permutation (the input list is left alone)."""
    order = list(requests)
    rng.shuffle(order)
    return order
