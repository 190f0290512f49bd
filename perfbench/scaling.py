"""Rate of two workloads as their rounds grow (the README's scaling rows).

    python3 perfbench/scaling.py

Throughput should not fall as a run grows; on this code it does.  The
sizes of a workload take turns, five rounds each after one untimed
round, so machine-speed drift hits every size alike.  Rates are the
median per size, scaled to the reference machine speed the same way
as ``run.py`` scales ``ops_per_s``.
"""

from __future__ import annotations

import gc
import statistics
import sys
import time

import run
from workloads import WORKLOADS

SIZES = {
    "smr-steady": [{"commands": c} for c in (64, 128, 256)],
    "fuzz-guided": [{"budget": b} for b in (256, 1024, 2048)],
}
ROUNDS = 5
SEED = 1


def timed_rate(workload, inputs, index: int) -> float:
    before = run._calibrate()
    start = time.perf_counter()
    result = workload.run_round(inputs, index)
    wall = time.perf_counter() - start
    gc.collect()
    if result.problems:
        sys.exit(f"{workload.name}: {result.problems[:3]}")
    return result.ops / wall * (before + run._calibrate()) / 2


def main() -> None:
    run._load_program()
    run._import_program()
    for name, sizes in SIZES.items():
        workload = WORKLOADS[name]
        inputs = [workload.prepare(SEED, {**workload.size, **s}) for s in sizes]
        for each in inputs:
            workload.run_round(each, 0)
        rates = [[] for _ in sizes]
        for index in range(ROUNDS):
            for each, samples in zip(inputs, rates):
                samples.append(timed_rate(workload, each, index))
        for size, samples in zip(sizes, rates):
            print(f"{name} {size}: {statistics.median(samples):.0f} ops/s",
                  flush=True)


if __name__ == "__main__":
    main()
