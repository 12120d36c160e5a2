"""Layer spans recorded from outside divgen.

``install`` replaces functions on the names the calling module looks them up
by (the package uses ``from ... import``), so every span sits at a layer
boundary without any change to ``src/``. A span records its name, start, end
and parent; spans stay in memory until the repetition ends and are then
summarised. A span's layer is the part of its name before the first dot.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from typing import Any, Callable

LAYERS = ("preprocess", "sampler", "paramgen", "metrics", "querygen",
          "distractors", "engine", "providers", "evaluate")
# The span of the timed generate call; layer self times are also kept for the
# part of the run inside it.
PHASE = "engine.generate"


class Tracer:
    """Span stack plus counters taken at the same boundaries."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.counters: Counter[str] = Counter()

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        self._stack.pop()

    def current(self) -> str:
        return self.names[self._stack[-1]] if self._stack else ""

    def span(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    def self_times(self) -> list[float]:
        """Per span: its duration minus the part of it its children cover."""
        children: dict[int, list[int]] = defaultdict(list)
        for i, p in enumerate(self.parents):
            if p >= 0:
                children[p].append(i)
        out = []
        for i in range(len(self.names)):
            lo, hi = self.starts[i], self.ends[i]
            covered = 0.0
            cursor = lo
            for c in sorted(children.get(i, ()), key=lambda c: self.starts[c]):
                a, b = max(self.starts[c], cursor), min(self.ends[c], hi)
                if b > a:
                    covered += b - a
                    cursor = b
            out.append((hi - lo) - covered)
        return out

    def summary(self, wall: float, focus: tuple[str, ...] = ()) -> dict[str, Any]:
        """Call count and total time per span name; self time per layer,
        overall and inside PHASE spans; and the time spent inside ``focus``
        layers (callees included, each interval counted once), overall and
        inside PHASE."""
        selfs = self.self_times()
        by_name: dict[str, list[float]] = defaultdict(lambda: [0, 0.0])
        layer_self: Counter[str] = Counter()
        phase_self: Counter[str] = Counter()
        focus_s = phase_focus_s = 0.0
        in_phase = [False] * len(self.names)
        under_focus = [False] * len(self.names)
        for i, name in enumerate(self.names):
            p = self.parents[i]
            layer = name.split(".", 1)[0]
            dur = self.ends[i] - self.starts[i]
            in_phase[i] = name == PHASE or (p >= 0 and in_phase[p])
            under_focus[i] = layer in focus or (p >= 0 and under_focus[p])
            if layer in focus and not (p >= 0 and under_focus[p]):
                focus_s += dur
                phase_focus_s += dur if in_phase[i] else 0.0
            row = by_name[name]
            row[0] += 1
            row[1] += dur
            layer_self[layer] += selfs[i]
            if in_phase[i]:
                phase_self[layer] += selfs[i]
        return {
            "wall": wall,
            "by_name": dict(by_name),
            "layer_self": dict(layer_self),
            "phase_self": dict(phase_self),
            "phase_wall": by_name[PHASE][1] if PHASE in by_name else 0.0,
            "focus_s": focus_s,
            "phase_focus_s": phase_focus_s,
            "counters": dict(self.counters),
        }


def _wrap(tracer: Tracer, fn: Callable, name: str,
          observe: Callable | None = None) -> Callable:
    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        parent = tracer.current()
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            # count a failure once, where it leaves its layer
            if parent.split(".", 1)[0] != name.split(".", 1)[0]:
                tracer.counters[f"{name}.error"] += 1
            raise
        finally:
            tracer.close(idx)
        if observe is not None:
            observe(tracer.counters, args, kwargs, result)
        return result
    return traced


def _observe_rank(c: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    c["querygen.pool"] += len(result[0])


def _observe_judge(c: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    c["querygen.judged"] += len(result)
    c["querygen.valid"] += sum(1 for v in result if v.valid)


def _observe_query(c: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    if result is not None:
        c["querygen.rounds"] += result.rounds_run


def _observe_battery(c: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    c["metrics.battery_texts"] += len(args[0])


def _observe_select(c: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    c["paramgen.augmented"] += len(result[1])


def _observe_retrieve(c: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    c["distractors.retrieved"] += len(result)


def _observe_assemble(c: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    c["distractors.kept"] += len(result.candidates)
    c["distractors.invalid"] += bool(result.invalid)


def _observe_graph(c: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    c["preprocess.graph_edges"] += len(result.edges)


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every layer boundary; returns a function that undoes it."""
    import divgen.distractors as distractors
    import divgen.engine as engine
    import divgen.evaluate as evaluate
    import divgen.metrics.battery as battery
    import divgen.paramgen as paramgen
    import divgen.preprocess as preprocess
    import divgen.providers.base as base
    import divgen.querygen as querygen

    targets: list[tuple[Any, str, str, Callable | None]] = [
        (preprocess, "group_parameters", "preprocess.group_parameters", None),
        (preprocess, "build_api_pools", "preprocess.build_api_pools", None),
        (preprocess, "build_similarity_graph", "preprocess.build_similarity_graph", _observe_graph),
        (preprocess, "write_artifact", "preprocess.write_artifact", None),
        (preprocess, "read_artifact", "preprocess.read_artifact", None),
        (evaluate, "group_parameters", "preprocess.group_parameters", None),
        (engine, "sample_execution_type", "sampler.sample_execution_type", None),
        (engine, "sample_single_api", "sampler.sample_single_api", None),
        (engine, "sample_walk", "sampler.sample_walk", None),
        (engine, "check_pairwise_similarity", "sampler.check_pairwise_similarity", None),
        (engine, "validate_sequential_schema_compatibility", "sampler.validate_compatibility",
         None),
        (engine, "commit_to_trackers", "paramgen.commit_to_trackers", None),
        (engine, "assemble_candidates", "distractors.assemble_candidates", _observe_assemble),
        (engine, "finalize", "distractors.finalize", None),
        (engine, "analyze_dataset_patterns", "querygen.analyze_dataset_patterns", None),
        (engine, "generate_diversity_guidance", "querygen.generate_diversity_guidance", None),
        (engine.GenerationEngine, "resume", "engine.resume", None),
        (engine.GenerationEngine, "_write_checkpoint", "engine.checkpoint", None),
        (paramgen.ParamGenerator, "generate_single_params", "paramgen.single", None),
        (paramgen.ParamGenerator, "generate_missing_params", "paramgen.missing", None),
        (paramgen.ParamGenerator, "generate_parallel_params", "paramgen.parallel", None),
        (paramgen.ParamGenerator, "generate_sequential_chain", "paramgen.sequential", None),
        (paramgen, "select_diverse_value", "paramgen.select_diverse_value", _observe_select),
        (paramgen, "value_cluster_entropy", "metrics.cluster_entropy", None),
        (evaluate, "value_cluster_entropy", "metrics.cluster_entropy", None),
        (querygen.QueryGenerator, "generate_query", "querygen.generate_query", _observe_query),
        (querygen, "judge_queries", "querygen.judge_queries", _observe_judge),
        (querygen, "rank_candidates_by_diversity", "querygen.rank", _observe_rank),
        (querygen, "build_feedback", "querygen.build_feedback", None),
        (querygen, "evaluate_battery", "metrics.battery", _observe_battery),
        (battery, "type_token_ratio", "metrics.ttr", None),
        (battery, "compression_ratio_diversity", "metrics.compression_ratio", None),
        (battery, "paraphrase_variety", "metrics.paraphrase_variety", None),
        (battery, "parse_tree_entropy", "metrics.parse_tree_entropy", None),
        (battery, "chamfer_distance_score", "metrics.chamfer", None),
        (battery, "fkgl_grade", "metrics.var_fkgl", None),
        (battery, "tokenize", "metrics.var_length", None),
        (battery, "vendi_score", "metrics.vendi", None),
        (battery, "avg_tree_edit_distance", "metrics.tree_edit_distance", None),
        (distractors, "retrieve_candidates", "distractors.retrieve_candidates", _observe_retrieve),
        (distractors, "score_plausibility", "distractors.score_plausibility", None),
        (distractors, "validate_invocation_alternatives", "distractors.alternatives", None),
        (base.SignatureClient, "call", "providers.signature_call", None),
        (evaluate, "analyze_corpus", "evaluate.analyze_corpus", None),
        (evaluate, "compare_linguistic_diversity", "evaluate.compare_linguistic", None),
        (evaluate, "compare_argument_diversity", "evaluate.compare_argument", None),
        (evaluate, "evaluate_full_battery", "metrics.full_battery", None),
        (evaluate, "bootstrap_std", "metrics.bootstrap", None),
    ]
    saved = []
    for owner, attr, name, observe in targets:
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, _wrap(tracer, original, name, observe))

    def undo() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
    return undo
