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
import operator
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
    for the score and then each resample, in any order: the corpus builds
    the tree edit distances of its shapes once, on the first read, and every
    resample's shapes are among them.
    """
    corpus = list(corpus)
    if not corpus:
        raise ModelError(f"{label}: cannot analyze an empty corpus")
    for position, query in enumerate(corpus, 1):
        if not tokenize.__wrapped__(query):  # splits nothing: the Corpus reads it
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
    for a, b in zip(rep_a.rows, rep_b.rows):  # both in REPORT_METRICS order
        sig, direction = significance(a.score_a, a.std_a, b.score_a, b.std_a)
        report.rows.append(MetricRow(a.metric, a.score_a, a.std_a,
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
    datasets = [collect_group_values(examples, groups) for examples in (examples_a, examples_b)]
    tables = [value_frequencies(values) for values in datasets]
    matched = [group for group in groups.groups
               if group.category in (ParamCategory.NUMERICAL, ParamCategory.STRING)
               and all(len(values.get(group.id, [])) >= GROUP_MIN_OCCURRENCES
                       for values in datasets)]
    for group in matched:
        numerical = group.category is ParamCategory.NUMERICAL
        admit = numeric_value if numerical else text_value
        problem = "is not a finite number" if numerical else "has no word token"
        for label, values in zip("AB", datasets):
            for value in values[group.id]:
                try:
                    admit(value)
                except UnusableValue:
                    raise ModelError(f"dataset {label}: group {group.id}: {value!r} {problem}")

    rng = random.Random(seed)
    positions = list(range(GROUP_SAMPLE_SIZE))
    rows: list[dict[str, Any]] = []
    for group in matched:
        samples = [rng.sample(values[group.id], GROUP_SAMPLE_SIZE) for values in datasets]
        category = group.category.value
        row = {"group": group.id, "category": category,
               "members": [f"{fn}.{pn}" for fn, pn in group.members],
               "frequencies_a": tables[0][group.id], "frequencies_b": tables[1][group.id]}
        verdicts: dict[str, Any] = {}
        seeds = iter(range(seed + 1, seed + 5))  # ncd A, ncd B, ce A, ce B
        # each scorer is looked up by its module name at each call
        for column, scorer in (("ncd", lambda s: ncd_over_indices([str(v) for v in s])),
                               ("ce", lambda s: value_entropy_over_indices(s, category, embedder))):
            scores = [scorer(sample) for sample in samples]
            a, b = (score(positions) for score in scores)
            std_a, std_b = (bootstrap_std(positions, score, seed=next(seeds)) for score in scores)
            row |= {f"{column}_a": a, f"{column}_b": b,
                    f"{column}_std_a": std_a, f"{column}_std_b": std_b}
            (verdicts[f"{column}_significant"],
             verdicts[f"{column}_direction"]) = significance(a, std_a, b, std_b)
        rows.append(row | verdicts)

    result: dict[str, Any] = {"groups": rows, "seed": seed}
    if rows:
        # plain running sums in row order; sum() compensates float sums from Python 3.12
        result["average"] = {key: functools.reduce(operator.add, (row[key] for row in rows), 0.0)
                             / len(rows) for key in ("ncd_a", "ncd_b", "ce_a", "ce_b")}
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

    def summary(idx: Sequence[int]) -> dict[str, Any]:
        b = sum(1 for i in idx if labels_a[i] and not labels_b[i])
        c = sum(1 for i in idx if not labels_a[i] and labels_b[i])
        return {"accuracy_a": sum(1 for i in idx if labels_a[i]) / len(idx),
                "accuracy_b": sum(1 for i in idx if labels_b[i]) / len(idx),
                "b": b, "c": c, "p_value": mcnemar(b, c)}

    result = summary(range(n))
    result["significant"] = result["p_value"] < alpha
    if categories is not None:
        if len(categories) != n:
            raise ValueError("categories must align with labels")
        rows = [{"category": cat, **summary([i for i in range(n) if categories[i] == cat])}
                for cat in sorted(set(categories))]
        for row, rejected in zip(rows, holm_bonferroni([row["p_value"] for row in rows], alpha)):
            row["significant"] = rejected
        result["categories"] = rows
    return result
