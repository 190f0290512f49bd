"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload smr-steady --seed 1 --seconds 30 --trace 0

Run from the repository root; the program is imported from ``src/``
with the pure-Python backend pinned (``REPRO_ACCEL=0``).  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``:

* ``--trace 0`` reports the end-to-end metrics ``ops_per_s``,
  ``setup_s`` and ``peak_rss_mb`` from untraced rounds.  The two times
  are scaled to a reference machine speed by a fixed calibration pass
  run next to every measurement; the line before the result gives them
  as measured (``raw_ops_per_s``, ``raw_setup_s``);
* ``--trace 1`` alternates untraced and traced rounds and reports the
  per-layer split (see README.md); the span log is written under
  ``perfbench/out/``.

The exit code is 0 when the run completed, whether or not its checks
held (``correct`` says that), and non-zero when it could not run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

#: Set-up probes per untraced run; ``setup_s`` is their median.
SETUP_PROBES = 5

#: Wall time of one calibration pass at the reference speed: its median
#: on the 2-vCPU Intel Xeon VM (CPython 3.11.7) the figures in README.md
#: come from.  Rates and set-up times are reported at this speed.
CALIBRATION_REFERENCE_S = 0.1


def _calibration_kernel(n: int = 100_000) -> int:
    """Fixed interpreter-bound work (object creation, attribute access,
    dict stores, string slicing, one sort).  It uses nothing from
    ``repro``, so no change to the program can move it."""

    class Pair:
        __slots__ = ("a", "b")

        def __init__(self, a: int, b: str) -> None:
            self.a = a
            self.b = b

    table = {}
    total = 0
    for i in range(n):
        pair = Pair(i, str(i))
        table[(i & 1023, pair.b[-2:])] = pair
        total += len(pair.b) + pair.a % 7
    return total + len(sorted(table.items(), key=lambda item: item[0]))


def _calibrate() -> float:
    """Slowness of the machine right now: calibration wall / reference."""
    start = time.perf_counter()
    _calibration_kernel()
    return (time.perf_counter() - start) / CALIBRATION_REFERENCE_S


def _load_program() -> None:
    """Make ``repro`` importable from the checkout, pure backend pinned."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program to measure at {SRC / 'repro'}")
    os.environ["REPRO_ACCEL"] = "0"
    sys.path.insert(0, str(SRC))


def _import_program() -> str:
    """Import every module the workloads call; returns the backend name."""
    import repro._core
    import repro.analysis  # noqa: F401
    import repro.fuzz  # noqa: F401
    import repro.obs.recorder  # noqa: F401
    import repro.scenarios  # noqa: F401
    import repro.smr.client  # noqa: F401
    import repro.smr.replica  # noqa: F401

    if repro._core.BACKEND != "pure":
        sys.exit(f"perfbench: expected the pure backend, got {repro._core.BACKEND}")
    return repro._core.BACKEND


def _setup_probe(workload: str, seed: int) -> None:
    """Child process: set up exactly as a run does, then report ready."""
    from workloads import WORKLOADS

    _import_program()
    spec = WORKLOADS[workload]
    spec.prepare(seed, spec.size)
    sys.stdout.write("ready\n")
    sys.stdout.flush()


def _measure_setup(workload: str, seed: int):
    """Wall time from process start to inputs built, over fresh probe
    processes.  Returns (median at reference speed, median as measured)."""
    samples, slowness = [], [_calibrate()]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            stdout=subprocess.PIPE, text=True,
        ) as child:  # leaving the block waits for the child to exit
            line = child.stdout.readline()
            samples.append(time.perf_counter() - start)
        if line.strip() != "ready" or child.returncode != 0:
            sys.exit(f"perfbench: set-up probe failed (exit {child.returncode})")
        slowness.append(_calibrate())
    scaled = [wall / ((before + after) / 2)
              for wall, before, after in zip(samples, slowness, slowness[1:])]
    return statistics.median(scaled), statistics.median(samples)


def _run_rounds(run_round, inputs, seconds, tracer=None):
    """Timed rounds 0, 1, ... until the next would end after ``seconds``.

    Returns ``(plain, traced)``: lists of ``(round, wall_s, slowness)``
    and of ``(round, wall_s, capture)``.  ``slowness`` is the mean of the
    calibrations just before and just after the untraced round.  With a
    tracer, every round index runs untraced and then traced on the same
    input, so the pair's wall times give the tracing overhead.
    """
    from tracing import traced_round

    plain, traced = [], []
    started = time.perf_counter()
    index = 0
    while True:
        before = _calibrate()
        start = time.perf_counter()
        result = run_round(inputs, index)
        wall = time.perf_counter() - start
        gc.collect()
        plain.append((result, wall, (before + _calibrate()) / 2))
        if tracer is not None:
            result, capture, wall_ns = traced_round(
                tracer, lambda: run_round(inputs, index)
            )
            traced.append((result, wall_ns / 1e9, capture))
            gc.collect()
        index += 1
        elapsed = time.perf_counter() - started
        if elapsed * (index + 1) / index > seconds:
            return plain, traced


def _check_rounds(rounds) -> list:
    """Every round's own checks, plus: rounds on the same input (the same
    campaign, or the same SMR run) must reproduce the same digest."""
    problems = [p for r in rounds for p in r.problems]
    digests = {}
    for r in rounds:
        digests.setdefault(r.facts["input"], set()).add(r.facts["digest"])
    for key, seen in digests.items():
        if len(seen) > 1:
            problems.append(f"input {key}: one input, {len(seen)} different digests")
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    return problems


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: str, seed: int, seconds: float) -> tuple:
    from workloads import WORKLOADS

    setup_s, raw_setup_s = _measure_setup(workload, seed)
    _import_program()
    spec = WORKLOADS[workload]
    inputs = spec.prepare(seed, spec.size)
    plain, _ = _run_rounds(spec.run_round, inputs, seconds)
    rounds = [r for r, _, _ in plain]
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    details = {
        "walls_s": [round(wall, 4) for _, wall, _ in plain],
        "slowness": [round(slow, 4) for _, _, slow in plain],
        "raw_ops_per_s": statistics.median(r.ops / wall for r, wall, _ in plain),
        "raw_setup_s": raw_setup_s,
    }
    return details, {
        "correct": not _check_rounds(rounds),
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {
            "ops_per_s": _metric(
                statistics.median(r.ops / wall * slow for r, wall, slow in plain),
                "ops/s"),
            "setup_s": _metric(setup_s, "s"),
            "peak_rss_mb": _metric(peak_kib / 1024, "MiB"),
        },
    }


def per_layer(workload: str, seed: int, seconds: float, imports_s: float) -> tuple:
    from tracing import LAYERS, Tracer, counters, ratio
    from workloads import WORKLOADS

    spec = WORKLOADS[workload]
    inputs = spec.prepare(seed, spec.size)
    tracer = Tracer()
    plain, traced = _run_rounds(spec.run_round, inputs, seconds, tracer)
    rounds = [r for r, _, _ in plain] + [r for r, _, _ in traced]
    problems = _check_rounds(rounds)

    # Every figure below covers all traced rounds: counts divided by the
    # operations (``*_per_op``) or by the number of traced rounds.
    runs = len(traced)
    ops = max(sum(r.ops for r, _, _ in traced), 1)
    traced_wall_ns = sum(wall for _, wall, _ in traced) * 1e9
    count: dict = {}
    for _, _, capture in traced:
        for key, value in counters(capture).items():
            count[key] = count.get(key, 0) + value
    fact = lambda key: sum(r.facts.get(key, 0) for r, _, _ in traced)  # noqa: E731
    calls = lambda name: tracer.calls_of(name) / ops  # noqa: E731
    layer_ns = tracer.layer_self_ns()
    metrics = {
        f"{layer}.self_us_per_op": _metric(layer_ns[layer] / 1e3 / ops, "us/op")
        for layer in LAYERS
    }
    verifies = count["verify_hits"] + count["verify_misses"]
    canonicals = count["canonical_hits"] + count["canonical_misses"]
    sizes = count["size_hits"] + count["size_misses"]
    metrics.update({
        "harness.predicate_calls_per_op": _metric(
            calls("harness:predicate"), "calls/op"),
        "repro._core.calls_per_op": _metric(
            tracer.layer_calls("repro._core") / ops, "calls/op"),
        "crypto.signs_per_op": _metric(calls("crypto:Signer.sign"), "signs/op"),
        "crypto.verifies_per_op": _metric(verifies / ops, "verifies/op"),
        "crypto.verify_memo_hit_ratio": _metric(
            ratio(count["verify_hits"], verifies), "ratio"),
        "crypto.canonical_memo_hit_ratio": _metric(
            ratio(count["canonical_hits"], canonicals), "ratio"),
        "sim.network.msgs_per_op": _metric(count["messages"] / ops, "msgs/op"),
        "sim.network.bytes_per_op": _metric(count["bytes"] / ops, "B/op"),
        "sim.network.size_memo_hit_ratio": _metric(
            ratio(count["size_hits"], sizes), "ratio"),
        "sim.trace.envelopes_held_per_op": _metric(
            count["envelopes"] / ops, "envelopes/op"),
        "sim.events.events_per_op": _metric(count["events"] / ops, "events/op"),
        "smr.replica.slots_per_op": _metric(fact("slots") / ops, "slots/op"),
        "storage.wal_appends_per_op": _metric(
            calls("storage:MemoryWAL.append"), "appends/op"),
        "storage.checkpoints_stable": _metric(
            fact("checkpoints_stable") / runs, "count"),
        "storage.catchup_msgs": _metric(count["catchup_msgs"] / runs, "count"),
        "storage.catchup_bytes": _metric(count["catchup_bytes"] / runs, "B"),
        "obs.recorder_events_per_op": _metric(
            fact("recorder_events") / ops, "events/op"),
        "fuzz.corpus_entries": _metric(fact("corpus_entries") / runs, "count"),
        "fuzz.unique_signatures": _metric(
            fact("unique_signatures") / runs, "count"),
        "setup.imports_s": _metric(imports_s, "s"),
        "other.self_us_per_op": _metric(
            (traced_wall_ns - sum(layer_ns.values())) / 1e3 / ops, "us/op"),
        "trace.overhead_ratio": _metric(
            statistics.median(
                t[1] / p[1] for p, t in zip(plain, traced)
            ), "ratio"),
    })
    spans = tracer.dump(OUT, f"spans-{workload}-seed{seed}", {
        "workload": workload,
        "seed": seed,
        "backend": "pure",
        "traced_rounds": runs,
        "ops": ops,
        "traced_walls_s": [wall for _, wall, _ in traced],
        "untraced_walls_s": [wall for _, wall, _ in plain],
    })
    return {"traced_rounds": runs, "spans": str(spans.relative_to(HERE.parent))}, {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _load_program()
    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0
    if args.trace:
        start = time.perf_counter()
        backend = _import_program()
        imports_s = time.perf_counter() - start
        details, report = per_layer(
            args.workload, args.seed, args.seconds, imports_s
        )
    else:
        details, report = end_to_end(args.workload, args.seed, args.seconds)
        backend = _import_program()
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "backend": backend, "trace": args.trace, **details}))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
