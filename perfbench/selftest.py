"""The benchmark's own tests (reduced sizes, a few seconds in total).

    python3 -m pytest perfbench/selftest.py -q      # or
    python3 perfbench/selftest.py

Named so that the repository's default test collection skips it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
os.environ["REPRO_ACCEL"] = "0"
sys.path.insert(0, str(HERE.parent / "src"))

from tracing import Tracer, counters, traced_round  # noqa: E402
from workloads import REDUCED, WORKLOADS  # noqa: E402

SEED = 7


def _reduced_round(name: str, tracer: Tracer = None):
    workload = WORKLOADS[name]
    inputs = workload.prepare(SEED, REDUCED[name])
    if tracer is None:
        return workload.run_round(inputs, 0), None
    result, capture, _ = traced_round(tracer, lambda: workload.run_round(inputs, 0))
    return result, capture


def test_reduced_pass_of_each_workload_passes_its_checks():
    import repro._core

    assert repro._core.BACKEND == "pure"
    for name in WORKLOADS:
        result, _ = _reduced_round(name)
        assert result.problems == [], (name, result.problems)
        assert result.failed == 0, name
        assert result.ops == result.attempted > 0, name


def test_two_runs_give_identical_counts_and_digests():
    for name in WORKLOADS:
        runs = []
        for _ in range(2):
            tracer = Tracer()
            result, capture = _reduced_round(name, tracer)
            runs.append((
                dict(zip(tracer.names, tracer.calls)),
                counters(capture),
                result.facts,
            ))
        assert runs[0][2]["digest"], name
        assert runs[0] == runs[1], name


def test_traced_round_restores_the_program():
    import repro._core
    import repro.crypto.keys
    from repro.sim.network import Network

    before = (repro._core.payload_size, repro.crypto.keys.canonical_bytes,
              Network.__dict__["send"])
    _reduced_round("smr-steady", Tracer())
    after = (repro._core.payload_size, repro.crypto.keys.canonical_bytes,
             Network.__dict__["send"])
    assert before == after


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    inner = tracer.wrap("core:inner", lambda: sum(range(20000)))
    outer = tracer.wrap("harness:outer", lambda: inner() + inner())
    outer()
    spans = len(tracer)
    assert spans == 3 and list(tracer.parents) == [-1, 0, 0]
    total = tracer.ends[0] - tracer.starts[0]
    children = sum(tracer.ends[i] - tracer.starts[i] for i in (1, 2))
    layers = tracer.layer_self_ns()
    assert layers["harness"] == total - children
    assert layers["core"] == children


def test_refuses_to_run_without_the_program(tmp_path: Path):
    """In a directory holding only the benchmark, it exits non-zero
    without printing a result."""
    target = tmp_path / "perfbench"
    shutil.copytree(HERE, target, ignore=shutil.ignore_patterns("out", "__pycache__"))
    try:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "smr-steady",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp_path, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(target, ignore_errors=True)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


if __name__ == "__main__":
    import tempfile

    for test in (
        test_reduced_pass_of_each_workload_passes_its_checks,
        test_two_runs_give_identical_counts_and_digests,
        test_traced_round_restores_the_program,
        test_self_time_excludes_child_spans,
    ):
        test()
        print(f"ok  {test.__name__}")
    with tempfile.TemporaryDirectory() as scratch:
        test_refuses_to_run_without_the_program(Path(scratch))
    print("ok  test_refuses_to_run_without_the_program")
