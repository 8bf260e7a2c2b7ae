"""Self-test of the benchmark on tiny inputs.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from harness import import_program, run_cycles
from layers import measure
from tracing import TRACED, Tracer
from workloads import TINY, WORKLOADS, ClassifySweep, EchGenerators

BENCH = Path(__file__).resolve().parent


def load(path):
    return json.loads(path.read_text())


@pytest.fixture(scope="module")
def spec():
    return load(BENCH.parent / "BENCHMARK.json")


@pytest.fixture
def reference():
    return load(BENCH / "reference.json")


def run_tiny(workload, trace):
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7"]
    argv += ["--seconds", "0.01", "--trace", str(trace), "--tiny"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=300, check=False)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_is_emitted_and_outputs_match_reference(workload, trace, spec):
    result = run_tiny(workload, trace)
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def test_layer_map_covers_every_per_layer_metric(spec):
    layers = load(BENCH / "layers.json")["metrics"]
    assert {name: m["unit"] for name, m in layers.items()} == {
        m["name"]: m["unit"] for m in spec["per_layer"]
    }
    names = {w["name"] for w in spec["workloads"]}
    assert names == set(WORKLOADS)
    assert all(m["workload"] in names for n, m in layers.items() if n != "trace.overhead_ratio")


def test_changed_output_fails_the_check(reference):
    pt = import_program()
    w = ClassifySweep(pt, reference, 7, TINY)
    block = w.order[0]
    assert run_cycles([[w.batch(block)]]).failed == 0
    reference["classify"][str(block)][1] += 1.0  # display-only float sum, off by a degree
    tally = run_cycles([[w.batch(block)]])
    assert tally.failed == len(w.blocks[block]) and tally.items == 0
    reference["reeb_orbits"]["31/3"][0] = "0" * 16
    ech = EchGenerators(pt, reference, 7, TINY)
    assert run_cycles([ech.warmup()]).failed == 1


def test_spans_nest_and_self_times_are_nonnegative(reference):
    pt = import_program()
    originals = {(m, a): getattr(getattr(pt, m), a) for m, a in TRACED}
    tracer = Tracer()
    metrics, tally, missing = measure(pt, reference, 7, TINY, "classify-sweep", tracer)
    assert tally.failed == 0 and missing == []
    assert {(m, a): getattr(getattr(pt, m), a) for m, a in TRACED} == originals
    assert len(tracer.start) > 1000
    durations = tracer.durations()
    for sid, parent in enumerate(tracer.parent):
        assert tracer.start[sid] <= tracer.end[sid]
        assert tracer.request[sid] >= 0
        if parent >= 0:
            assert parent < sid
            assert tracer.start[parent] <= tracer.start[sid] <= tracer.end[sid] <= tracer.end[parent]
            assert tracer.request[parent] == tracer.request[sid]
    assert min(tracer.self_times(durations)) >= 0
    assert metrics["trace.overhead_ratio"] > 0


def test_benchmark_calls_no_private_name():
    private = re.compile(r"\b(?:cli|docio|errors|lattice|plumbing|reeb|toric|pt)\._\w")
    for path in BENCH.glob("*.py"):
        assert not private.search(path.read_text()), path
    assert not [a for _, a in TRACED if a.startswith("_")]
