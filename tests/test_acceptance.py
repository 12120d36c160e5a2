"""Acceptance suite: the ten exit criteria, one printed verdict line each.

Criterion 7's final clause (the step-down correction rejecting all of
{0.01, 0.03, 0.04} at alpha 0.05) contradicts the procedure's own thresholds
(0.05/3, 0.05/2, 0.05): 0.03 > 0.025 halts the step-down after the first
rejection. The implementation follows the standard procedure, so that clause
fails and is reported honestly rather than forced green.
"""

import json
import math
import random
import string
import time

import numpy as np

import divgen.cli as cli
from divgen.distractors import elbow_cutoff, filter_by_plausibility, score_plausibility, ScoredCandidate
from divgen.fixtures import fixture_library_path, repetitive_corpus, varied_corpus
from divgen.metrics.battery import REPORT_METRICS, EmbeddingCache, evaluate_full_battery
from divgen.metrics.cluster_entropy import ValueIndex, value_cluster_entropy
from divgen.metrics.dbscan import dbscan
from divgen.metrics.fusion import rrf_fuse
from divgen.metrics.semantic import vendi_score
from divgen.metrics.stats import bootstrap_std, holm_bonferroni, mcnemar, significance
from divgen.metrics.text import type_token_ratio
from divgen.model import ExecutionType, read_dataset
from divgen.paramgen import select_diverse_value
from divgen.providers.base import SignatureClient
from divgen.providers.mock import ScriptedChat
from divgen.providers.signature import (
    Field,
    PromptSignature,
    format_output,
    parse_signature_output,
)
from test_dbscan import brute_force_partition
from test_fusion import rank_matrix
from test_preprocess import fn, param


def verdict(n, label, ok=True):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {n}: {label}")


def test_criterion_1_cluster_entropy_maximum(embedder):
    start = time.time()
    distant_numeric = [i * 100.0 for i in range(20)]
    got = value_cluster_entropy(distant_numeric, "NUMERICAL")
    assert abs(got - 4.321928094887362) < 1e-9
    assert abs(got - math.log2(20)) < 1e-9
    distant_strings = [f"zone{i} marker{i}a marker{i}b marker{i}c" for i in range(20)]
    got_s = value_cluster_entropy(distant_strings, "STRING", embedder)
    assert abs(got_s - math.log2(20)) < 1e-9
    assert value_cluster_entropy([3.14] * 20, "NUMERICAL") == 0.0
    elapsed = time.time() - start
    assert elapsed < 1.0
    verdict(1, f"20 distant values -> 4.3219 bits (1e-9), identical -> 0"
               f" ({elapsed:.3f}s)")


def test_criterion_2_dbscan_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(20240)
    for case in range(200):
        n = int(rng.integers(1, 51))
        metric = "euclidean" if case % 2 == 0 else "cosine"
        points = rng.normal(size=(n, 2))
        if metric == "cosine":
            points = points + np.sign(points) * 0.1
        eps = 0.4 if metric == "euclidean" else 0.2
        min_samples = int(rng.integers(1, 5))
        part = dbscan(points, eps, min_samples, metric)
        got = part.as_sets()
        want = brute_force_partition(points, eps, min_samples, metric)
        assert got == want, f"case {case} diverged"
    elapsed = time.time() - start
    assert elapsed < 30.0
    verdict(2, f"200 random instances match the reachability oracle"
               f" ({elapsed:.1f}s)")


def test_criterion_3_vendi_exactness():
    e = np.eye(7)
    assert abs(vendi_score([e[0]] * 9 ) - 1.0) < 1e-6
    assert abs(vendi_score([e[i] for i in range(7)]) - 7.0) < 1e-6
    pairs = [e[0], e[0], e[1], e[1]]
    assert abs(vendi_score(pairs) - 2.0) < 1e-6
    verdict(3, "kernel scores 1, n, and 2.0 (duplicate pairs) within 1e-6")


def test_criterion_4_rrf():
    cands = [f"c{i}" for i in range(5)]
    dominant = np.repeat(np.arange(1, 6)[:, None], 8, axis=1)  # c0 first everywhere
    scores, order = rrf_fuse(dominant)
    assert cands[order[0]] == "c0"
    assert abs(scores[0] - 8 / 61) < 1e-12

    metric_scores = [
        {c: float(len(c) + i * hash(c) % 7) for c in cands} for i in range(4)
    ]
    rng = random.Random(5)
    metric_scores = [{c: rng.random() for c in cands} for _ in range(4)]

    def ranking(tables):
        return rank_matrix([[table[c] for c in cands] for table in tables])

    raw = ranking(metric_scores)
    for transform in (lambda v: 3 * v + 2, math.exp, lambda v: v ** 3 + v):
        moved = ranking([{c: transform(v) for c, v in t.items()} for t in metric_scores])
        assert rrf_fuse(raw)[1] == rrf_fuse(moved)[1]
    verdict(4, "dominant candidate first; 8/61 exact; monotone-transform invariant")


# --- criterion 5: greedy diversity uplift -----------------------------------------

N_REGIONS = 20
HEAD_REGIONS = 3
REGION_TOKENS = {
    r: " ".join(f"zone{r:02d}tok{j}" for j in range(11)) for r in range(N_REGIONS)
}


def region_value(region, serial):
    return f"{REGION_TOKENS[region]} v{serial}"


def candidate_batch(round_no):
    """25 candidates: one value from every region plus 5 head-region extras,
    so the candidates always allow reaching the entropy maximum."""
    batch = [region_value(r, round_no * 100 + r) for r in range(N_REGIONS)]
    head = round_no % HEAD_REGIONS
    batch += [region_value(head, round_no * 100 + 50 + j) for j in range(5)]
    return batch


def run_greedy_trial(seed, embedder):
    rng = random.Random(seed)
    tracker = []
    for round_no in range(20):
        chosen, _ = select_diverse_value(
            candidate_batch(round_no), tracker, rng, ValueIndex("STRING", embedder))
        tracker.append(chosen)
    return value_cluster_entropy(tracker, "STRING", embedder)


def run_random_trial(seed, embedder):
    rng = random.Random(seed)
    tracker = []
    for round_no in range(20):
        exposed = rng.sample(candidate_batch(round_no), 5)
        tracker.append(exposed[rng.randrange(5)])
    return value_cluster_entropy(tracker, "STRING", embedder)


def test_criterion_5_greedy_uplift(embedder):
    start = time.time()
    canonical = run_greedy_trial(0, embedder)
    assert canonical >= 4.0, f"canonical greedy entropy {canonical:.3f} < 4.0"
    wins = 0
    for seed in range(100):
        greedy = run_greedy_trial(seed, embedder)
        baseline = run_random_trial(10_000 + seed, embedder)
        if greedy > baseline:
            wins += 1
    elapsed = time.time() - start
    assert wins >= 95, f"greedy beat the random baseline in only {wins}/100 trials"
    assert elapsed < 60.0
    verdict(5, f"greedy tracker entropy {canonical:.3f} bits;"
               f" beat random baseline {wins}/100 ({elapsed:.1f}s)")


def test_criterion_6_end_to_end_determinism(tmp_path):
    start = time.time()
    art = tmp_path / "artifact.json"
    assert cli.main(["preprocess", fixture_library_path(), "--seed", "7",
                     "--out", str(art)]) == 0

    def generate(out, n, resume=False):
        argv = ["generate", str(art), "--n", str(n), "--seed", "7",
                "--out", str(out)]
        if resume:
            argv.append("--resume")
        assert cli.main(argv) == 0
        return out.read_bytes()

    full_a = generate(tmp_path / "a.jsonl", 25)
    full_b = generate(tmp_path / "b.jsonl", 25)
    assert full_a == full_b, "two identical runs diverged"
    generate(tmp_path / "c.jsonl", 10)
    resumed = generate(tmp_path / "c.jsonl", 25, resume=True)
    assert resumed == full_a, "interrupt/resume run diverged"

    examples = read_dataset(tmp_path / "a.jsonl")
    assert len(examples) == 25
    for ex in examples:
        ex.validate()
        assert ex.query
    types = {ex.execution_type for ex in examples}
    assert types == set(ExecutionType), f"missing types: {set(ExecutionType) - types}"
    elapsed = time.time() - start
    assert elapsed < 120.0
    verdict(6, f"n=25 byte-identical across reruns and resume; all 5 types"
               f" ({elapsed:.1f}s)")


def test_criterion_7_statistics():
    failures = []

    # bootstrap reproducibility: 100 x 80% subsamples, seed-determined
    corpus = varied_corpus()[:15]
    a = bootstrap_std(corpus, type_token_ratio, seed=11)
    b = bootstrap_std(corpus, type_token_ratio, seed=11)
    if a != b:
        failures.append("bootstrap std not reproducible under a fixed seed")

    # significance on the reported (4.32, 0.01) vs (3.40, 0.16)
    sig, direction = significance(4.32, 0.01, 3.40, 0.16)
    if not (sig and direction == 1):
        failures.append("(4.32,0.01) vs (3.40,0.16) not flagged significant")

    # exact McNemar against an independent binomial-tail oracle
    oracle = (sum(math.comb(20, i) for i in range(6))
              + sum(math.comb(20, i) for i in range(15, 21))) / 2 ** 20
    got = mcnemar(5, 15)
    if abs(got - 0.0414) > 5e-4 or abs(got - oracle) > 1e-12:
        failures.append(f"mcnemar(5,15)={got:.6f} disagrees with the oracle")

    # step-down correction on {0.01, 0.03, 0.04}: the sheet expects all three
    decisions = holm_bonferroni([0.01, 0.03, 0.04], alpha=0.05)
    if decisions != [True, True, True]:
        failures.append(
            f"holm on [0.01,0.03,0.04] rejected {decisions}, not all three"
            " (0.03 > 0.05/2 halts the standard step-down)")

    ok = not failures
    verdict(7, "statistics battery" if ok else "; ".join(failures), ok)
    assert ok, failures


def test_criterion_8_direction_check(embedder):
    start = time.time()
    cache = EmbeddingCache(embedder)
    rep = repetitive_corpus()
    var = varied_corpus()
    rep_scores = evaluate_full_battery(rep, cache.matrix(rep))
    var_scores = evaluate_full_battery(var, cache.matrix(var))
    losses = [m for m in REPORT_METRICS
              if m != "var_length" and not var_scores[m] > rep_scores[m]]
    wins = sum(1 for m in REPORT_METRICS if var_scores[m] > rep_scores[m])
    elapsed = time.time() - start
    assert not losses, f"varied did not win: {losses}"
    assert wins >= 11
    assert elapsed < 60.0
    verdict(8, f"varied beats repetitive on {wins}/12 metrics,"
               f" var_length exempt ({elapsed:.1f}s)")


def test_criterion_9_distractor_pipeline():
    # hand trace 1: plateau then cliff -> keep through the acceleration point
    assert elbow_cutoff([0.9, 0.88, 0.86, 0.5, 0.48], min_keep=1) == 3
    # hand trace 2: equal steps -> first argmax, keep 2 (floored at min_keep)
    assert elbow_cutoff([1.0, 0.75, 0.5, 0.25], min_keep=1) == 2
    assert elbow_cutoff([1.0, 0.75, 0.5, 0.25], min_keep=4) == 4

    lib = [
        fn("target_api", param("a", "field one"), description="the true target"),
        fn("near_api", param("b", "field two"), description="close but wrong"),
        fn("mid_api", param("c", "field three"), description="somewhat related"),
        fn("far_api", param("d", "field four"), description="unrelated"),
    ]
    ratings = {"target_api": 5, "near_api": 3, "mid_api": 2, "far_api": 1}
    rows = [{"api_name": n, "score": s, "reasoning": "scripted"}
            for n, s in ratings.items()]
    from divgen.providers import catalog
    reply = format_output(catalog.get("BatchAPIRelevanceScorer"),
                          {"reasoning": "scripted", "scores": json.dumps(rows)})
    candidates = [ScoredCandidate(n, 0.9 - 0.1 * i, is_target=(n == "target_api"))
                  for i, n in enumerate(ratings)]

    for etype, kept_names in (
        (ExecutionType.SINGLE, ["target_api", "mid_api", "far_api"]),
        (ExecutionType.MISSING_PARAMS, ["target_api", "far_api"]),
    ):
        chat = ScriptedChat().script(reply, signature="BatchAPIRelevanceScorer")
        scored = score_plausibility("q", candidates, ["target_api"], etype,
                                    {f.name: f for f in lib}, SignatureClient(chat, 3, {}))
        kept = filter_by_plausibility(scored, etype)
        assert [c.name for c in kept] == kept_names
        assert any(c.name == "target_api" for c in kept)  # never filtered
        threshold = 1 if etype is ExecutionType.MISSING_PARAMS else 2
        assert all(c.plausibility <= threshold for c in kept if not c.is_target)
    verdict(9, "elbow hand traces exact; per-type thresholds hold; targets survive")


def test_criterion_10_wire_format():
    rng = random.Random(31337)
    alphabet = string.ascii_lowercase + string.digits + "_"
    for i in range(1000):
        n_out = rng.randrange(1, 6)
        names = []
        while len(names) < n_out:
            name = "".join(rng.choices(alphabet, k=rng.randrange(1, 12)))
            if name not in names and not name.isdigit():
                names.append(name)
        sig = PromptSignature(
            name=f"Rand{i}",
            objective="Randomized signature round-trip.",
            input_fields=(),
            output_fields=tuple(Field(n) for n in names),
        )
        values = {}
        for n in names:
            raw = "".join(rng.choices(string.printable, k=rng.randrange(0, 60)))
            while "[[ ##" in raw:
                raw = raw.replace("[[ ##", "")
            values[n] = raw
        parsed = parse_signature_output(format_output(sig, values), sig)
        assert parsed == {n: v.strip() for n, v in values.items()}, f"case {i}"

    # verbatim-style wire blocks from the documented interaction format
    from divgen.providers import catalog
    compat = catalog.get("ValidateSequentialSchemaCompatibility")
    block = ("[[ ## reasoning ## ]]\nThe second call cannot require the first"
             " call's output.\n\n[[ ## is_compatible ## ]]\nNO\n\n"
             "[[ ## completed ## ]]")
    assert parse_signature_output(block, compat)["is_compatible"] == "NO"
    judge = catalog.get("APIQueryJudge")
    block = ("[[ ## reasoning ## ]]\nThe request names the function's exact"
             " parameters.\n\n[[ ## is_reasonable ## ]]\nYES\n\n"
             "[[ ## completed ## ]]")
    assert parse_signature_output(block, judge)["is_reasonable"] == "YES"
    equiv = catalog.get("ToolCallEquivalence")
    block = ("[[ ## reasoning ## ]]\nBoth spellings name the same city.\n\n"
             "[[ ## equivalent ## ]]\nYES\n\n[[ ## completed ## ]]")
    assert parse_signature_output(block, equiv)["equivalent"] == "YES"
    verdict(10, "1,000 randomized signatures round-trip; documented blocks parse")
