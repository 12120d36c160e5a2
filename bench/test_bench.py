"""Tests of the benchmark itself: percentile rule, span self time, smoke runs.

Run with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402

DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_highest_percentile_keeps_ten_samples_beyond():
    for samples in range(11, 400):
        values = list(range(samples))

        def beyond(p):  # samples strictly above the nearest-rank p-th percentile
            return sum(1 for v in values if v > run.percentile(values, p))

        p = run.highest_percentile(samples)
        assert beyond(p) >= 10, samples
        assert p == 99 or beyond(p + 1) < 10, samples


def test_highest_percentile_small_and_hundred():
    assert run.highest_percentile(10) == 0
    assert run.highest_percentile(60) == 83
    assert run.highest_percentile(99) == 89
    assert run.highest_percentile(100) == 90


def test_every_workload_supports_a_90th_percentile():
    for spec in run.WORKLOADS.values():
        assert run.highest_percentile(spec.n * spec.reps) >= 90


def test_span_self_time_on_synthetic_tree():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0])
    t = spans.Tracer(clock=lambda: next(ticks))
    root = t.open("engine.generate")       # 0 .. 10
    a = t.open("querygen.rank")            # 1 .. 4
    a1 = t.open("metrics.battery")         # 2 .. 3
    t.close(a1)
    t.close(a)
    b = t.open("paramgen.single")          # 5 .. 9
    t.close(b)
    t.close(root)
    assert t.self_times() == [3.0, 2.0, 1.0, 4.0]
    summary = t.summary(wall=12.0)
    assert summary["layer_self"] == {"engine": 3.0, "querygen": 2.0, "metrics": 1.0,
                                     "paramgen": 4.0}
    assert summary["phase_self"] == summary["layer_self"]
    assert sum(summary["layer_self"].values()) == summary["phase_wall"] == 10.0
    assert summary["by_name"]["querygen.rank"] == [1, 3.0]


def test_failed_generate_is_recorded_not_raised(tmp_path, monkeypatch):
    def boom(self, n, resume=False):
        raise ValueError("execution-type weights sum to zero")

    monkeypatch.setattr(worker.GenerationEngine, "generate", boom)
    task = {"seed": 1, "n": 2, "library_size": 0, "library_seed": 1, "values_per_group": 0,
            "prior_examples": 0, "setup_repeats": 1, "execution_types": []}
    result = worker.generate_rep(task, None, tmp_path)
    assert result["problems"][0] == "ValueError: execution-type weights sum to zero"
    assert result["accepted"] == 0


def test_generate_draws_only_the_listed_execution_types(tmp_path):
    task = {"seed": 2, "n": 4, "library_size": 0, "library_seed": 2, "values_per_group": 0,
            "prior_examples": 0, "setup_repeats": 1, "execution_types": ["SINGLE"]}
    result = worker.generate_rep(task, None, tmp_path)
    assert not result["problems"]
    types = {ex.execution_type.value for ex in worker.read_dataset(tmp_path / "dataset.jsonl")}
    assert types == {"SINGLE"}


TINY = {
    "fixture-grow": dict(n=3, reps=1, setup_repeats=1, corpus_size=20),
    "wide-library": dict(n=3, reps=1, library_size=24, corpus_size=6, report_repeats=1),
    "warm-resume": dict(n=3, reps=1, setup_repeats=1, values_per_group=30, prior_examples=4,
                        corpus_size=6, report_repeats=1),
}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_tiny_smoke_run(name, trace, monkeypatch):
    monkeypatch.setitem(run.WORKLOADS, name, replace(run.WORKLOADS[name], **TINY[name]))
    details, result = run.run(name, seed=3, trace=trace)
    assert result["correct"], details["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = DECLARED["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)
    assert all(math.isfinite(v) for v in result["metrics"].values())
    if trace:
        m = result["metrics"]
        self_total = sum(m[f"trace.self_ms.{layer}"] for layer in spans.LAYERS)
        assert self_total + m["trace.unattributed_ms"] == pytest.approx(m["trace.wall_ms"])
        assert m["trace.unattributed_ms"] >= 0
