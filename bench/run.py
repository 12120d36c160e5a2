"""divgen benchmark: one command, three seeded workloads, offline providers.

    python3 bench/run.py --workload fixture-grow --seed 7 --seconds 30 --trace 0

Each workload is a closed loop with one caller: a batch job that starts the
next example only when the previous one is done. A run makes the workload's
repetitions once; their sizes are set so that a run measures for about
``--seconds`` (30) on a 2-core machine. Every repetition runs in a fresh
interpreter, one at a time, with BLAS capped at one thread. The last
stdout line is the result: ``{"correct", "attempted", "failed", "metrics"}``,
with the end-to-end metrics under ``--trace 0`` and the per-layer metrics
under ``--trace 1``. The line before it holds the run's details:
per-repetition digests, working sets, abandoned attempts by reason and
execution type, unscaled times, and the settings used. See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DEADLINE_S = 170.0
# Times are scaled to a machine on which one run of the reference mix takes
# this long (see end_to_end).
REFERENCE_S = 0.010
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    """Sizes of one workload's run: ``reps`` generate repetitions of ``n``
    new examples each, then ``report_repeats`` runs of one report, which
    analyses one seeded corpus (``analyze``) or compares two (``compare``) of
    ``corpus_size`` queries each."""

    why: str
    n: int
    reps: int
    report: str = "analyze"
    corpus_size: int = 40
    report_repeats: int = 1        # the same report, this many times a run
    setup_repeats: int = 5
    library_size: int = 0          # 0: the bundled 12-function fixture
    values_per_group: int = 0      # > 0: resume from a warm checkpoint
    prior_examples: int = 0
    execution_types: tuple[str, ...] = ()  # the only types drawn; (): RunConfig's mix


WORKLOADS: dict[str, Workload] = {
    "fixture-grow": Workload(
        why="cold generate on the 12-function fixture: corpus growth makes ranking (querygen +"
            " metrics) ~95% of generate time; the report compares two seeded corpora",
        n=34, reps=3, report="compare", report_repeats=3),
    "wide-library": Workload(
        why="200-function templated library, PARALLEL and SEQUENTIAL examples only: similarity"
            " graph and walks take a large share, ranking stays at small-corpus cost",
        n=20, reps=7, library_size=200, setup_repeats=1, report_repeats=2,
        execution_types=("PARALLEL", "SEQUENTIAL")),
    "warm-resume": Workload(
        why="resume with 1000 values per group tracker, then SINGLE examples on the 4 fixture"
            " functions with a STRING parameter: every example runs cluster-entropy selection",
        n=25, reps=4, values_per_group=1000, prior_examples=10, setup_repeats=3,
        report_repeats=2, execution_types=("SINGLE",)),
}

DEFAULT_SEED = 7  # 1013 is held out for confirming later claims

# The layers each workload is meant to stress, and the wall time their share is
# taken over: the generate calls or whole generate repetitions.
FOCUS = {
    "fixture-grow": (("querygen", "metrics"), "generate"),
    "wide-library": (("sampler", "preprocess"), "rep"),
    "warm-resume": (("paramgen",), "generate"),
}


def highest_percentile(samples: int) -> int:
    """The highest whole percentile with at least ten samples beyond it."""
    return max(0, math.floor(100 - 1000 / samples)) if samples > 10 else 0


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def source_digest() -> str:
    """Digest of the program and of the benchmark's own code, which builds
    the program's inputs."""
    h = hashlib.sha256()
    for path in sorted([*(SRC / "divgen").rglob("*"), *BENCH.glob("*.py")]):
        if path.suffix in (".py", ".json"):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def tasks_for(name: str, spec: Workload, seed: int, work: Path) -> list[dict]:
    """The generate repetitions, then the report runs."""
    base = {"workload": name, "setup_repeats": spec.setup_repeats,
            "focus": FOCUS[name][0]}
    tasks = []
    for i in range(spec.reps):
        tasks.append({**base, "kind": "generate", "seed": seed * 1000 + i, "n": spec.n,
                      "library_size": spec.library_size, "library_seed": seed,
                      "values_per_group": spec.values_per_group,
                      "prior_examples": spec.prior_examples, "work": str(work / f"g{i}"),
                      "execution_types": list(spec.execution_types)})
    report = {**base, "kind": spec.report, "seed": seed * 1000 + 500,
              "corpus_size": spec.corpus_size, "work": str(work / "r")}
    return tasks + [report] * spec.report_repeats


def run_task(task: dict, trace: bool, deadline: float) -> dict:
    env = dict(os.environ, PYTHONPATH=f"{BENCH}{os.pathsep}{SRC}", PYTHONHASHSEED="0",
               **{k: "1" for k in THREAD_ENV})
    arg = json.dumps({**task, "trace": trace})
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), arg], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return {"kind": task["kind"], "problems": ["repetition timed out"]}
    if proc.returncode != 0 or not proc.stdout.strip():
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"kind": task["kind"], "problems": [f"worker exit {proc.returncode}: {tail}"]}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _task_key(task: dict) -> str:
    return json.dumps({k: v for k, v in task.items() if k != "work"}, sort_keys=True)


def check_digests(results: list[tuple[dict, dict]], src: str) -> list[str]:
    """Same source, workload task and seed must give the same dataset and run
    log bytes, across repetitions, traced runs and earlier runs here."""
    store_path = WORK / "digests.json"
    try:
        store = json.loads(store_path.read_text())
    except (OSError, ValueError):
        store = {}
    problems = []
    for task, res in results:
        if res.get("kind") != "generate" or res["problems"]:
            continue
        key = f"{src}|{_task_key(task)}"
        seen = store.setdefault(key, [res["digest"], res["log_digest"]])
        if seen != [res["digest"], res["log_digest"]]:
            problems.append(f"digest differs for seed {task['seed']}: {seen} vs"
                            f" {[res['digest'], res['log_digest']]}")
    tmp = store_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=0, sort_keys=True))
    os.replace(tmp, store_path)
    return problems


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(gen: list[dict], reports: list[dict]) -> dict[str, float]:
    """The metrics of a run's generate and report repetitions.

    The machine is shared and its speed drifts from one second to the next,
    by up to about 1.7x. Workers time a fixed reference mix (reference.py) at
    both ends of every stretch of work they time and report each time twice:
    in seconds, and in units of the mean reference time at its ends. The
    metrics use the second, scaled by REFERENCE_S. The report runs repeat
    identical work and noise only ever slows work down, so its time is the
    minimum over them. Set-up time is the median of every set-up.
    """
    accepted = sum(r["accepted"] for r in gen)
    latencies = [x[1] * REFERENCE_S * 1000 for r in gen for x in r["latencies_s"]]
    generate = sum(r["generate_s"][1] for r in gen) * REFERENCE_S
    return {
        "setup_s": median([x[1] for r in gen for x in r["setup_s"]]) * REFERENCE_S,
        "examples_per_s": accepted / generate,
        "example_latency_p50_ms": median(latencies),
        "example_latency_p90_ms": percentile(latencies, 90),
        "analyze_s": min(r["analyze_s"][1] for r in reports) * REFERENCE_S,
        "llm_calls_per_example": sum(r["chat_calls"] for r in gen) / accepted,
        "prompt_kchars_per_example": sum(r["prompt_chars"] for r in gen) / 1000 / accepted,
        "embed_texts_per_example": sum(r["embed_texts"] for r in gen) / accepted,
        "peak_rss_mb": max(r["rss_mb"] for r in gen + reports),
    }


def raw_times(results: list[dict]) -> dict[str, Any]:
    """Unscaled seconds, for the details line."""
    gen = [r for r in results if r["kind"] == "generate" and not r["problems"]]
    return {
        "setup_s": [round(x[0], 5) for r in gen for x in r["setup_s"]],
        "generate_s": [round(r["generate_s"][0], 4) for r in gen],
        "analyze_s": [round(r["analyze_s"][0], 4) for r in results
                      if r["kind"] != "generate" and not r["problems"]],
        "examples_per_s": _ratio(sum(r["accepted"] for r in gen),
                                 sum(r["generate_s"][0] for r in gen)),
    }


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(name: str, gen: list[dict], reports: list[dict],
              untraced: list[dict]) -> dict[str, float]:
    """Layer metrics from the traced repetitions' span summaries."""
    from divgen.providers import catalog

    traces = [r["trace"] for r in gen + reports]
    calls: Counter[str] = Counter()
    total: Counter[str] = Counter()
    layer_self: Counter[str] = Counter()
    phase_self: Counter[str] = Counter()
    counters: Counter[str] = Counter()
    for t in traces:
        for span, (n, dur) in t["by_name"].items():
            calls[span] += n
            total[span] += dur
        layer_self.update(t["layer_self"])
        phase_self.update(t["phase_self"])
        counters.update(t["counters"])
    memo: Counter[str] = Counter()
    for r in gen + reports:
        for k, (hits, misses) in r["memo"].items():
            memo[f"{k}.hits"] += hits
            memo[f"{k}.misses"] += misses
    accepted = sum(r["accepted"] for r in gen)
    attempts = sum(r["attempts"] for r in gen)
    wall = sum(t["wall"] for t in traces)
    ms = 1000.0

    def per_call(span: str) -> float:
        return _ratio(total[span] * ms, calls[span])

    def hit_ratio(k: str) -> float:
        return _ratio(memo[f"{k}.hits"], memo[f"{k}.hits"] + memo[f"{k}.misses"])

    paramgen_entries = ("paramgen.single", "paramgen.missing", "paramgen.parallel",
                        "paramgen.sequential")
    out = {
        "preprocess.group_parameters_ms": per_call("preprocess.group_parameters"),
        "preprocess.similarity_graph_ms": per_call("preprocess.build_similarity_graph"),
        "preprocess.artifact_io_ms": _ratio(
            (total["preprocess.write_artifact"] + total["preprocess.read_artifact"]) * ms,
            calls["preprocess.write_artifact"]),
        "preprocess.graph_edges": _ratio(counters["preprocess.graph_edges"],
                                         calls["preprocess.build_similarity_graph"]),
        "sampler.walk_ms_per_call": per_call("sampler.sample_walk"),
        "sampler.walk_calls_per_example": _ratio(calls["sampler.sample_walk"], accepted),
        "sampler.walk_failures_per_call": _ratio(counters["sampler.sample_walk.error"],
                                                 calls["sampler.sample_walk"]),
        "sampler.pairwise_check_ms": total["sampler.check_pairwise_similarity"] * ms,
        "paramgen.self_ms_per_example": _ratio(phase_self["paramgen"] * ms, accepted),
        "paramgen.select_value_ms_per_call": per_call("paramgen.select_diverse_value"),
        "paramgen.augmented_values_per_call": _ratio(counters["paramgen.augmented"],
                                                     calls["paramgen.select_diverse_value"]),
        "paramgen.failures_per_attempt": _ratio(
            sum(counters[f"{e}.error"] for e in paramgen_entries), attempts),
        "metrics.battery_ms_per_call": per_call("metrics.battery"),
        "metrics.battery_calls_per_example": _ratio(calls["metrics.battery"], accepted),
        "metrics.battery_corpus_size_mean": _ratio(counters["metrics.battery_texts"],
                                                   calls["metrics.battery"]),
    }
    for metric in ("ttr", "compression_ratio", "paraphrase_variety", "parse_tree_entropy",
                   "chamfer", "var_fkgl", "var_length", "vendi"):
        out[f"metrics.{metric}_ms"] = total[f"metrics.{metric}"] * ms
    out.update({
        "metrics.cluster_entropy_ms_per_call": per_call("metrics.cluster_entropy"),
        "metrics.tree_edit_distance_ms": total["metrics.tree_edit_distance"] * ms,
        "metrics.bootstrap_ms": total["metrics.bootstrap"] * ms,
        "metrics.ted_memo_hit_ratio": hit_ratio("ted"),
        "metrics.memo_hit_ratio.tokenize": hit_ratio("tokenize"),
        "metrics.memo_hit_ratio.fkgl_grade": hit_ratio("fkgl_grade"),
        "metrics.memo_hit_ratio.chunk_sentence": hit_ratio("chunk_sentence"),
        "querygen.self_ms_per_example": _ratio(phase_self["querygen"] * ms, accepted),
        "querygen.rank_ms_per_call": per_call("querygen.rank"),
        "querygen.rank_calls_per_example": _ratio(calls["querygen.rank"], accepted),
        "querygen.pool_size_mean": _ratio(counters["querygen.pool"], calls["querygen.rank"]),
        "querygen.judge_ms": total["querygen.judge_queries"] * ms,
        "querygen.rounds_per_example": _ratio(counters["querygen.rounds"], accepted),
        "querygen.valid_candidate_ratio": _ratio(counters["querygen.valid"],
                                                 counters["querygen.judged"]),
        "distractors.assemble_ms_per_call": per_call("distractors.assemble_candidates"),
        "distractors.retrieve_ms_per_call": per_call("distractors.retrieve_candidates"),
        "distractors.kept_per_retrieved": _ratio(counters["distractors.kept"],
                                                 counters["distractors.retrieved"]),
        "distractors.failures_per_attempt": _ratio(
            counters["distractors.assemble_candidates.error"] + counters["distractors.invalid"],
            attempts),
        "engine.self_ms_per_example": _ratio(phase_self["engine"] * ms, accepted),
        "engine.attempts_per_example": _ratio(attempts, accepted),
        "engine.checkpoint_ms_per_write": per_call("engine.checkpoint"),
        "engine.checkpoint_kb": _ratio(sum(r["working_set"]["checkpoint_kb"] for r in gen),
                                       len(gen)),
        "engine.resume_ms": per_call("engine.resume"),
    })
    for sig in catalog.SIGNATURES:
        if sig != "ToolCallEquivalence":
            out[f"providers.calls.{sig}"] = counters[f"providers.chat.{sig}"]
    chats = calls["providers.chat"]
    out.update({
        "providers.chat_ms": total["providers.chat"] * ms,
        "providers.chat_retries_per_call": _ratio(chats, calls["providers.signature_call"]) - 1
        if calls["providers.signature_call"] else 0.0,
        "providers.prompt_kchars_per_call": _ratio(sum(r["prompt_chars"] for r in gen) / 1000,
                                                   sum(r["chat_calls"] for r in gen)),
        "providers.reply_kchars_per_call": _ratio(sum(r["reply_chars"] for r in gen) / 1000,
                                                  sum(r["chat_calls"] for r in gen)),
        "providers.embed_calls_per_example": _ratio(sum(r["embed_calls"] for r in gen), accepted),
        "providers.embed_texts_per_call": _ratio(sum(r["embed_texts"] for r in gen),
                                                 sum(r["embed_calls"] for r in gen)),
        "providers.embed_ms": total["providers.embed"] * ms,
        "evaluate.analyze_corpus_ms": total["evaluate.analyze_corpus"] * ms,
        "evaluate.compare_argument_ms": total["evaluate.compare_argument"] * ms,
        "abandon_rate": _ratio(sum(sum(r["abandoned"].values()) for r in gen), attempts),
    })
    for layer in spans.LAYERS:
        out[f"trace.self_ms.{layer}"] = layer_self[layer] * ms
    out["trace.wall_ms"] = wall * ms
    out["trace.unattributed_ms"] = (wall - sum(layer_self.values())) * ms
    # scaled times, like the end-to-end ones: raw seconds of separate
    # processes differ by more than the overhead as the machine's speed drifts
    traced_work = sum(r.get("generate_s", r.get("analyze_s"))[1] for r in gen + reports)
    plain_work = sum(r.get("generate_s", r.get("analyze_s"))[1] for r in untraced)
    out["trace.overhead_ratio"] = _ratio(traced_work, plain_work) - 1 if plain_work else 0.0
    if FOCUS[name][1] == "rep":
        share = _ratio(sum(r["trace"]["focus_s"] for r in gen),
                       sum(r["trace"]["wall"] for r in gen))
    else:
        share = _ratio(sum(r["trace"]["phase_focus_s"] for r in gen),
                       sum(r["trace"]["phase_wall"] for r in gen))
    out["trace.focus_share"] = share
    return out


def run(name: str, seed: int, trace: bool) -> tuple[dict, dict]:
    """The workload's repetitions, once. A traced run takes the first half of
    the generate repetitions and one report run, and runs each twice,
    untraced and traced, so that it takes about as long as an untraced run."""
    spec = WORKLOADS[name]
    deadline = time.monotonic() + DEADLINE_S
    WORK.mkdir(exist_ok=True)
    run_dir = WORK / f"run-{os.getpid()}"
    src = source_digest()
    tasks = tasks_for(name, spec, seed, run_dir)
    if trace:  # the first half of the generate repetitions and one report run
        gen_tasks = [t for t in tasks if t["kind"] == "generate"]
        tasks = gen_tasks[: (len(gen_tasks) + 1) // 2] + [tasks[-1]]
    try:
        plain = [run_task(task, False, deadline) for task in tasks]
        traced = [run_task(task, True, deadline) for task in tasks] if trace else []
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    problems = [p for r in plain + traced for p in r["problems"]]
    problems += check_digests(list(zip(tasks, plain)) + list(zip(tasks, traced)), src)
    gen = [r for r in plain if r["kind"] == "generate" and not r["problems"]]
    reports = [r for r in plain if r["kind"] != "generate" and not r["problems"]]
    samples = sum(len(r["latencies_s"]) for r in gen)
    attempted = failed = 0
    for task, r in zip(tasks, plain):
        units = task["n"] if task["kind"] == "generate" else 1
        attempted += units
        failed += units if r["problems"] else 0
    metrics: dict[str, float] = {}
    if trace and not problems:
        metrics = per_layer(name, [t for t in traced if t["kind"] == "generate"],
                            [t for t in traced if t["kind"] != "generate"], plain)
    elif not trace and gen and reports:
        metrics = end_to_end(gen, reports)
    abandoned: Counter[str] = Counter()
    for r in gen:
        abandoned.update(r["abandoned"])
    attempts = sum(r["attempts"] for r in gen)
    details = {
        "workload": name, "seed": seed, "spec": asdict(spec),
        "source_digest": src,
        "settings": {"python": platform.python_version(), "nproc": os.cpu_count(),
                     **{k: "1" for k in THREAD_ENV}, "PYTHONHASHSEED": "0"},
        "repetitions": [{"kind": task["kind"], "seed": task["seed"], "digest": r.get("digest"),
                         "working_set": r.get("working_set")}
                        for task, r in zip(tasks, plain)],
        "raw_times": raw_times(plain),
        "latency_samples": samples,
        "p90_supported": highest_percentile(samples) >= 90,
        "attempts": attempts,
        "abandoned_by_type_and_reason": {k: [v, _ratio(v, attempts)]
                                         for k, v in sorted(abandoned.items())},
        "abandon_rate": _ratio(sum(abandoned.values()), attempts),
        "problems": problems[:20],
    }
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return details, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    # the workload sizes, not --seconds, set how long a run takes (README.md)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "divgen" / "__init__.py").is_file():
        print(f"error: divgen sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    details, result = run(args.workload, args.seed, bool(args.trace))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    result["metrics"] = {k: {"value": v, "unit": units[k]}
                         for k, v in result["metrics"].items()}
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
