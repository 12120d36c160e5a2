"""Dataset-vs-dataset diversity comparison and paired model statistics.

Linguistic comparison scores twelve metrics per corpus with seeded bootstrap
standard deviations and the 1.96-rule significance flag. Argument comparison
matches parameter groups across datasets (grouping both libraries jointly),
samples 20 values per group, and scores them by compression distance and
cluster entropy. A score and its bootstrap resamples are one function of
positions: a ``battery.METRICS`` entry over one ``battery.Corpus``, or a value
sample's NCD or neighbourhood table. Model comparisons build discordant-pair
counts for McNemar, with Holm-Bonferroni across categories.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass, field
from typing import Any, Sequence

# evaluate_full_battery, value_cluster_entropy: bench/spans.py wraps these names
from divgen.metrics.battery import (  # noqa: F401
    METRICS,
    REPORT_METRICS,
    Corpus,
    EmbeddingCache,
    evaluate_full_battery,
)
from divgen.metrics.cluster_entropy import (  # noqa: F401
    UnusableValue,
    numeric_value,
    text_value,
    value_cluster_entropy,
    value_entropy_over_indices,
)
from divgen.metrics.stats import bootstrap_std, holm_bonferroni, mcnemar, significance
from divgen.metrics.text import ncd_over_indices, tokenize
from divgen.model import (
    MISSING_SENTINEL,
    FunctionSchema,
    GeneratedExample,
    ModelError,
    ParamCategory,
)
from divgen.preprocess import GroupIndex, group_parameters
from divgen.providers import catalog
from divgen.providers.base import SignatureClient

GROUP_MIN_OCCURRENCES = 20
GROUP_SAMPLE_SIZE = 20


@dataclass
class MetricRow:
    metric: str
    score_a: float
    std_a: float
    score_b: float | None = None
    std_b: float | None = None
    significant: bool | None = None
    direction: int | None = None

    def to_dict(self) -> dict[str, Any]:
        return {k: v for k, v in self.__dict__.items() if v is not None}


@dataclass
class DiversityReport:
    rows: list[MetricRow] = field(default_factory=list)
    label_a: str = "A"
    label_b: str | None = None
    seed: int = 0

    def row(self, metric: str) -> MetricRow:
        for r in self.rows:
            if r.metric == metric:
                return r
        raise KeyError(metric)

    def to_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {
            "label_a": self.label_a,
            "seed": self.seed,
            "rows": [r.to_dict() for r in self.rows],
        }
        if self.label_b is not None:
            d["label_b"] = self.label_b
        return d

    def to_table(self) -> str:
        """Aligned plain-text table mirroring the structured report."""
        headers = ["metric", self.label_a, "std"]
        if self.label_b is not None:
            headers += [self.label_b, "std", "significant"]
        lines = []
        for r in self.rows:
            cells = [r.metric, f"{r.score_a:.4f}", f"{r.std_a:.4f}"]
            if self.label_b is not None:
                flag = "*" if r.significant else ""
                cells += [f"{r.score_b:.4f}", f"{r.std_b:.4f}", flag]
            lines.append(cells)
        widths = [max(len(h), *(len(row[i]) for row in lines)) if lines else len(h)
                  for i, h in enumerate(headers)]
        def fmt(cells: list[str]) -> str:
            return "  ".join(c.ljust(w) for c, w in zip(cells, widths))
        return "\n".join([fmt(headers)] + [fmt(row) for row in lines])


def _metric_seed(seed: int, metric: str) -> int:
    # stable per-metric offset so reports are reproducible metric by metric
    return seed * 1000 + REPORT_METRICS.index(metric)


def analyze_corpus(corpus: Sequence[str], embedder, seed: int = 0,
                   label: str = "corpus") -> DiversityReport:
    """Single-corpus report: all twelve metrics with bootstrap stds.

    An empty corpus, or a query without a word token, which no text metric
    can score, raises ModelError naming ``label`` and the query's 1-based
    position. Each metric's ``METRICS`` entry reads one ``battery.Corpus``
    for the score and then each resample. The score comes first so that the
    tree edit distance table, kept for the last corpus its kernel ran on,
    holds every resample's trees.
    """
    corpus = list(corpus)
    if not corpus:
        raise ModelError(f"{label}: cannot analyze an empty corpus")
    for position, query in enumerate(corpus, 1):
        if not tokenize(query):
            raise ModelError(f"{label}: query {position} has no word token")
    data = Corpus(corpus, EmbeddingCache(embedder).matrix(corpus))
    report = DiversityReport(label_a=label, seed=seed)
    indices = list(range(len(corpus)))
    for metric in REPORT_METRICS:
        fn = functools.partial(METRICS[metric], data)
        score = fn(indices)
        std = bootstrap_std(indices, fn, seed=_metric_seed(seed, metric))
        report.rows.append(MetricRow(metric, score, std))
    return report


def compare_linguistic_diversity(
    corpus_a: Sequence[str],
    corpus_b: Sequence[str],
    embedder,
    seed: int = 0,
    label_a: str = "A",
    label_b: str = "B",
) -> DiversityReport:
    """Two-corpus report with per-metric significance verdicts."""
    rep_a = analyze_corpus(corpus_a, embedder, seed, label_a)
    rep_b = analyze_corpus(corpus_b, embedder, seed, label_b)
    report = DiversityReport(label_a=label_a, label_b=label_b, seed=seed)
    for metric in REPORT_METRICS:
        a = rep_a.row(metric)
        b = rep_b.row(metric)
        sig, direction = significance(a.score_a, a.std_a, b.score_a, b.std_a)
        report.rows.append(MetricRow(metric, a.score_a, a.std_a,
                                     b.score_a, b.std_a, sig, direction))
    return report


# ---------------------------------------------------------------------------
# Argument diversity


def collect_group_values(
    examples: Sequence[GeneratedExample], groups: GroupIndex
) -> dict[str, list[Any]]:
    """Argument values per group id, in dataset order, sentinels excluded."""
    out: dict[str, list[Any]] = {}
    for ex in examples:
        for inv in ex.target_invocations:
            for pname, value in inv.arguments.items():
                if value == MISSING_SENTINEL:
                    continue
                try:
                    group = groups.group_of(inv.function_name, pname)
                except KeyError:
                    continue
                out.setdefault(group.id, []).append(value)
    return out


def value_frequencies(values_by_group: dict[str, list[Any]]) -> dict[str, dict[str, int]]:
    """Value -> count per group, most frequent first (machine-checkable view of
    how concentrated each group's argument distribution is)."""
    tables: dict[str, dict[str, int]] = {}
    for group_id, values in values_by_group.items():
        counts: dict[str, int] = {}
        for value in values:
            key = value if isinstance(value, str) else json.dumps(value, ensure_ascii=False)
            counts[key] = counts.get(key, 0) + 1
        tables[group_id] = dict(sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))
    return tables


def compare_argument_diversity(
    examples_a: Sequence[GeneratedExample],
    examples_b: Sequence[GeneratedExample],
    library_a: Sequence[FunctionSchema],
    library_b: Sequence[FunctionSchema],
    embedder,
    seed: int = 0,
    threshold: float = 0.6,
) -> dict[str, Any]:
    """Per-group and average NCD + cluster entropy over matched groups.

    Both libraries are grouped jointly with the shared threshold so a group can
    span datasets; only groups with at least ``GROUP_MIN_OCCURRENCES`` values in
    each dataset participate, and ``GROUP_SAMPLE_SIZE`` values of each are
    sampled uniformly under the seed. Before any is embedded, a value of those
    groups that cluster entropy cannot place raises ModelError naming it.
    """
    merged: list[FunctionSchema] = list(library_a)
    names_a = {fn.name for fn in library_a}
    merged += [fn for fn in library_b if fn.name not in names_a]
    groups = group_parameters(merged, embedder, threshold)
    values_a = collect_group_values(examples_a, groups)
    values_b = collect_group_values(examples_b, groups)
    freq_a = value_frequencies(values_a)
    freq_b = value_frequencies(values_b)
    matched = [group for group in groups.groups
               if group.category in (ParamCategory.NUMERICAL, ParamCategory.STRING)
               and len(values_a.get(group.id, [])) >= GROUP_MIN_OCCURRENCES
               and len(values_b.get(group.id, [])) >= GROUP_MIN_OCCURRENCES]
    for group in matched:
        numerical = group.category is ParamCategory.NUMERICAL
        admit = numeric_value if numerical else text_value
        problem = "is not a finite number" if numerical else "has no word token"
        for label, values in (("A", values_a), ("B", values_b)):
            for value in values[group.id]:
                try:
                    admit(value)
                except UnusableValue:
                    raise ModelError(f"dataset {label}: group {group.id}: {value!r} {problem}")

    rng = random.Random(seed)
    positions = list(range(GROUP_SAMPLE_SIZE))
    rows: list[dict[str, Any]] = []
    sums = {"ncd_a": 0.0, "ncd_b": 0.0, "ce_a": 0.0, "ce_b": 0.0}
    for group in matched:
        sample_a = rng.sample(values_a[group.id], GROUP_SAMPLE_SIZE)
        sample_b = rng.sample(values_b[group.id], GROUP_SAMPLE_SIZE)
        category = group.category.value
        ncd_a, ncd_b = (ncd_over_indices([str(v) for v in s]) for s in (sample_a, sample_b))
        ce_a, ce_b = (value_entropy_over_indices(s, category, embedder)
                      for s in (sample_a, sample_b))
        row = {
            "group": group.id,
            "category": category,
            "members": [f"{fn}.{pn}" for fn, pn in group.members],
            "frequencies_a": freq_a.get(group.id, {}),
            "frequencies_b": freq_b.get(group.id, {}),
            "ncd_a": ncd_a(positions),
            "ncd_b": ncd_b(positions),
            "ncd_std_a": bootstrap_std(positions, ncd_a, seed=seed + 1),
            "ncd_std_b": bootstrap_std(positions, ncd_b, seed=seed + 2),
            "ce_a": ce_a(positions),
            "ce_b": ce_b(positions),
            "ce_std_a": bootstrap_std(positions, ce_a, seed=seed + 3),
            "ce_std_b": bootstrap_std(positions, ce_b, seed=seed + 4),
        }
        ncd_sig, ncd_dir = significance(row["ncd_a"], row["ncd_std_a"],
                                        row["ncd_b"], row["ncd_std_b"])
        ce_sig, ce_dir = significance(row["ce_a"], row["ce_std_a"],
                                      row["ce_b"], row["ce_std_b"])
        row["ncd_significant"], row["ncd_direction"] = ncd_sig, ncd_dir
        row["ce_significant"], row["ce_direction"] = ce_sig, ce_dir
        rows.append(row)
        for key in sums:
            sums[key] += row[key]

    result: dict[str, Any] = {"groups": rows, "seed": seed}
    if rows:
        n = len(rows)
        result["average"] = {k: v / n for k, v in sums.items()}
    else:
        result["warning"] = ("no parameter group appears at least"
                             f" {GROUP_MIN_OCCURRENCES} times in both datasets")
    return result


# ---------------------------------------------------------------------------
# Model-output evaluation


def judge_tool_call_equivalence(
    query: str,
    schema: FunctionSchema | dict[str, Any],
    ground_truth_call: dict[str, Any] | str,
    predicted_call: dict[str, Any] | str,
    client: SignatureClient,
) -> tuple[bool, str]:
    """LLM verdict on whether two calls mean the same thing."""
    schema_dict = schema.to_dict() if isinstance(schema, FunctionSchema) else schema

    def as_text(call: dict[str, Any] | str) -> str:
        return call if isinstance(call, str) else json.dumps(call, ensure_ascii=False)

    out = client.call(catalog.get("ToolCallEquivalence"), {
        "user_query": query,
        "tool_schema": json.dumps(schema_dict, ensure_ascii=False),
        "ground_truth_call": as_text(ground_truth_call),
        "predicted_call": as_text(predicted_call),
    })
    return out["equivalent"].strip().upper() == "YES", out.get("reasoning", "")


def paired_model_comparison(
    labels_a: Sequence[bool],
    labels_b: Sequence[bool],
    alpha: float = 0.05,
    categories: Sequence[str] | None = None,
) -> dict[str, Any]:
    """Accuracies, discordant counts, McNemar p-value(s), and verdicts.

    b counts items the first system got right and the second wrong; c the
    reverse. With ``categories`` given, the per-category verdicts are
    Holm-Bonferroni corrected.
    """
    if len(labels_a) != len(labels_b):
        raise ValueError("label vectors must have equal length")
    if not 0.0 < alpha < 1.0:  # NaN fails too
        raise ValueError(f"alpha must be a number between 0 and 1, not {alpha}")
    n = len(labels_a)
    if n == 0:
        raise ValueError("label vectors must be non-empty")

    def counts(idx: Sequence[int]) -> tuple[int, int]:
        b = sum(1 for i in idx if labels_a[i] and not labels_b[i])
        c = sum(1 for i in idx if not labels_a[i] and labels_b[i])
        return b, c

    all_idx = list(range(n))
    b, c = counts(all_idx)
    result: dict[str, Any] = {
        "accuracy_a": sum(map(bool, labels_a)) / n,
        "accuracy_b": sum(map(bool, labels_b)) / n,
        "b": b,
        "c": c,
        "p_value": mcnemar(b, c),
    }
    result["significant"] = result["p_value"] < alpha
    if categories is not None:
        if len(categories) != n:
            raise ValueError("categories must align with labels")
        per_cat: list[dict[str, Any]] = []
        cat_names = sorted(set(categories))
        pvalues = []
        for cat in cat_names:
            idx = [i for i in all_idx if categories[i] == cat]
            cb, cc = counts(idx)
            p = mcnemar(cb, cc)
            pvalues.append(p)
            per_cat.append({
                "category": cat,
                "accuracy_a": sum(1 for i in idx if labels_a[i]) / len(idx),
                "accuracy_b": sum(1 for i in idx if labels_b[i]) / len(idx),
                "b": cb, "c": cc, "p_value": p,
            })
        for row, rej in zip(per_cat, holm_bonferroni(pvalues, alpha)):
            row["significant"] = rej
        result["categories"] = per_cat
    return result
