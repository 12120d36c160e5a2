"""The generation loop: sample, fill arguments, write the query, pick distractors.

One RNG stream drives every draw in a documented order, acceptance is globally
serialized (dataset append + tracker commit + checkpoint), and abandoned
attempts leave no trace beyond a log line, so a run is byte-reproducible from
its seed and can resume from the checkpoint after any interruption. The
checkpoint is replaced atomically and records the sizes of the dataset and of
the run log, so a resumed run first drops any line written after the last
checkpoint.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence, TextIO

from divgen.distractors import DistractorFailure, assemble_candidates, finalize
from divgen.metrics.battery import EmbeddingCache
from divgen.model import (
    ExecutionType,
    FunctionSchema,
    GeneratedExample,
    Invocation,
    RunConfig,
    serialize_example,
)
from divgen.paramgen import ParamGenerator, ParamGenFailure, commit_to_trackers
from divgen.preprocess import ApiGraph, ApiPools, GroupIndex
from divgen.providers.base import ChatProvider, EmbeddingProvider, SignatureClient
from divgen.querygen import (
    ExampleSkeleton,
    QueryGenerator,
    analyze_dataset_patterns,
    generate_diversity_guidance,
)
from divgen.sampler import (
    SamplingFailure,
    sample_execution_type,
    sample_single_api,
    sample_walk,
    check_pairwise_similarity,
    validate_sequential_schema_compatibility,
)


class AbandonedExample(RuntimeError):
    """This attempt is dropped; the loop moves on without counting it."""


@dataclass
class EngineState:
    accepted: int = 0
    attempts: int = 0


class GenerationEngine:
    def __init__(
        self,
        library: Sequence[FunctionSchema],
        groups: GroupIndex,
        pools: ApiPools,
        graph: ApiGraph,
        config: RunConfig,
        chat: ChatProvider,
        embedder: EmbeddingProvider,
        out_path: str | Path,
        log_stream: TextIO | None = None,
    ):
        self.library = list(library)
        self.by_name = {fn.name: fn for fn in self.library}
        self.groups = groups
        self.pools = pools
        self.graph = graph
        self.config = config
        self.rng = random.Random(config.rng_seed)
        self.client = SignatureClient(chat, config.retry_limit, config.decode_params)
        self.embedder = embedder
        self.embed_cache = EmbeddingCache(embedder)
        self.paramgen = ParamGenerator(groups, self.client, embedder, self.rng, config)
        self.querygen = QueryGenerator(self.client, self.embed_cache, self.rng, config)
        self.out_path = Path(out_path)
        self.log_stream = log_stream
        self.log_bytes = 0  # UTF-8 bytes in the run log, as this run has written it
        self.state = EngineState()
        self.queries: list[str] = []

    # -- checkpointing ---------------------------------------------------------

    @property
    def checkpoint_path(self) -> Path:
        return self.out_path.with_suffix(self.out_path.suffix + ".checkpoint")

    def _config_digest(self) -> str:
        blob = json.dumps(self.config.to_dict(), sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()

    def _write_checkpoint(self) -> None:
        state = self.rng.getstate()
        doc = {
            "accepted": self.state.accepted,
            "dataset_bytes": self.out_path.stat().st_size,
            "log_bytes": self.log_bytes if self.log_stream is not None else None,
            "last_id": f"ex-{self.state.accepted:06d}" if self.state.accepted else None,
            "attempts": self.state.attempts,
            "rng_state": [state[0], list(state[1]), state[2]],
            "trackers": self.groups.snapshot_all(),
            "guidance": self.querygen.guidance,
            "queries": self.queries,
            "config_digest": self._config_digest(),
        }
        tmp = self.checkpoint_path.with_name(self.checkpoint_path.name + ".tmp")
        tmp.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
        os.replace(tmp, self.checkpoint_path)

    def resume(self) -> None:
        """Restore RNG, trackers, guidance and the run log's size from the
        checkpoint file, and cut the dataset back to the size it records."""
        doc = json.loads(self.checkpoint_path.read_text(encoding="utf-8"))
        if doc["config_digest"] != self._config_digest():
            raise ValueError("checkpoint was produced under a different configuration")
        size = doc.get("dataset_bytes")  # absent from checkpoints of older runs
        if size is not None:
            with open(self.out_path, "ab") as fh:
                if fh.tell() < size:
                    raise ValueError("dataset is shorter than the checkpoint records")
                fh.truncate(size)
        self.log_bytes = doc.get("log_bytes") or 0
        self.state.accepted = doc["accepted"]
        self.state.attempts = doc["attempts"]
        version, internal, gauss = doc["rng_state"]
        self.rng.setstate((version, tuple(internal), gauss))
        self.groups.restore(doc["trackers"])
        if size is None:  # older runs could commit STRING values without a word token
            self.groups.drop_tokenless_strings()
        self.querygen.guidance = doc["guidance"]
        self.queries = list(doc["queries"])

    def cut_log(self, path: str | Path) -> None:
        """Cut the run log at ``path`` back to the size the checkpoint records,
        so a resumed run does not log twice what it redoes."""
        doc = json.loads(self.checkpoint_path.read_text(encoding="utf-8"))
        size = doc.get("log_bytes")  # None: the run had no log, or is older
        if size is not None:
            with open(path, "ab") as fh:
                if fh.tell() > size:
                    fh.truncate(size)

    # -- logging -----------------------------------------------------------------

    def _log(self, event: dict[str, Any]) -> None:
        if self.log_stream is not None:
            line = json.dumps(event, ensure_ascii=False) + "\n"
            self.log_stream.write(line)
            self.log_stream.flush()
            self.log_bytes += len(line.encode("utf-8"))

    # -- skeleton construction ------------------------------------------------------

    def _sample_multi(self, etype: ExecutionType) -> list[FunctionSchema]:
        last = "no usable walk"
        for _ in range(self.config.retry_limit):
            try:
                names = sample_walk(
                    self.graph, etype, self.rng,
                    lam=self.config.walk_lambda,
                    edge_bias=self.config.walk_edge_bias,
                    retries=self.config.walk_retries,
                )
            except SamplingFailure as exc:
                last = str(exc)
                continue
            schemas = [self.by_name[n] for n in names]
            if not check_pairwise_similarity(
                    schemas, self.embedder, self.config.pairwise_similarity_threshold):
                last = "pairwise similarity below threshold"
                continue
            if etype is ExecutionType.SEQUENTIAL:
                ok, reason = validate_sequential_schema_compatibility(schemas, self.client)
                if not ok:
                    last = f"schemas incompatible: {reason}"
                    continue
            return schemas
        raise AbandonedExample(last)

    def _build_skeleton(
        self, etype: ExecutionType
    ) -> tuple[ExampleSkeleton, list[tuple[str, Any]], dict[str, Any]]:
        meta: dict[str, Any] = {}
        if etype is ExecutionType.NONE:
            kind = "vague" if self.rng.random() < 0.5 else "no-api"
            meta["none_kind"] = kind
            return ExampleSkeleton(execution_type=etype, none_kind=kind), [], meta

        if etype in (ExecutionType.SINGLE, ExecutionType.MISSING_PARAMS):
            api = sample_single_api(self.pools, self.library, self.rng)
            if etype is ExecutionType.MISSING_PARAMS:
                for _ in range(self.config.walk_retries):
                    if api.required_parameters:
                        break
                    api = sample_single_api(self.pools, self.library, self.rng)
                if not api.required_parameters:
                    raise AbandonedExample("no function with required parameters drawn")
                result = self.paramgen.generate_missing_params(api)
                meta["omitted_parameters"] = list(result.omitted)
            else:
                result = self.paramgen.generate_single_params(api)
            skeleton = ExampleSkeleton(
                execution_type=etype,
                schemas=(api,),
                arguments=(result.arguments,),
                omitted=result.omitted,
            )
            return skeleton, list(result.commits), meta

        schemas = self._sample_multi(etype)
        meta["walk"] = [s.name for s in schemas]
        if etype is ExecutionType.PARALLEL:
            results, diverse_idx = self.paramgen.generate_parallel_params(schemas)
            meta["diverse_function"] = schemas[diverse_idx].name
            commits = [c for r in results for c in r.commits]
            skeleton = ExampleSkeleton(
                execution_type=etype,
                schemas=tuple(schemas),
                arguments=tuple(r.arguments for r in results),
            )
            return skeleton, commits, meta
        results, returns = self.paramgen.generate_sequential_chain(schemas)
        commits = [c for r in results for c in r.commits]
        skeleton = ExampleSkeleton(
            execution_type=etype,
            schemas=tuple(schemas),
            arguments=tuple(r.arguments for r in results),
            return_values=tuple(returns),
        )
        return skeleton, commits, meta

    # -- example assembly ----------------------------------------------------------

    def _assemble(self, skeleton: ExampleSkeleton, meta: dict[str, Any],
                  query_meta: dict[str, Any], query: str) -> GeneratedExample:
        etype = skeleton.execution_type
        targets = [s.name for s in skeleton.schemas]
        outcome = assemble_candidates(
            query, targets, etype, self.library, self.embed_cache,
            self.client, self.rng, self.config.retrieval_k)
        if outcome.invalid:
            raise AbandonedExample(f"candidate validation: {outcome.note}")
        if outcome.note:
            meta["distractor_note"] = outcome.note

        new_targets = outcome.targets
        new_type = outcome.exec_type
        argmap = {s.name: args for s, args in zip(skeleton.schemas, skeleton.arguments)}
        invocations: list[Invocation] = []
        if new_type is ExecutionType.SEQUENTIAL:
            for i, name in enumerate(new_targets):
                invocations.append(Invocation(name, argmap[name], i))
            returns = list(skeleton.return_values)[: max(0, len(new_targets) - 1)]
        else:
            for name in new_targets:
                invocations.append(Invocation(name, argmap[name], 0))
            returns = []

        distractor_names = [c.name for c in outcome.candidates if c.name not in set(new_targets)]
        candidates = finalize(distractor_names, new_targets, self.rng)

        example = GeneratedExample(
            id=f"ex-{self.state.accepted + 1:06d}",
            execution_type=new_type,
            query=query,
            target_invocations=tuple(invocations),
            return_values=tuple(returns),
            candidate_functions=tuple(candidates),
            metadata={
                "rng_seed": self.config.rng_seed,
                "acceptance_index": self.state.accepted + 1,
                "attempt": self.state.attempts,
                **meta,
                **query_meta,
            },
        )
        example.validate()
        return example

    # -- the loop ----------------------------------------------------------------------

    def generate(self, n: int, resume: bool = False) -> int:
        """Produce accepted examples until the dataset holds n; returns count added."""
        if resume:
            self.resume()
        added = 0
        with open(self.out_path, "a" if resume else "w", encoding="utf-8") as out:
            if not resume:
                self._write_checkpoint()  # a crash before the first acceptance can resume
            while self.state.accepted < n:
                self.state.attempts += 1
                etype = sample_execution_type(self.config, self.rng)
                try:
                    skeleton, commits, meta = self._build_skeleton(etype)
                    qres = self.querygen.generate_query(skeleton, self.queries)
                    if qres is None:
                        raise AbandonedExample("no judge-valid query after all rounds")
                    query_meta = {
                        "query_round": qres.round_found,
                        "rounds_run": qres.rounds_run,
                        "judge_reasoning": qres.judge_reasoning,
                        "diversity_ranks": qres.per_metric_ranks,
                        "valid_pool_size": qres.pool_size,
                    }
                    example = self._assemble(skeleton, meta, query_meta, qres.query)
                except (AbandonedExample, SamplingFailure, ParamGenFailure,
                        DistractorFailure) as exc:
                    self._log({"event": "abandoned", "attempt": self.state.attempts,
                               "execution_type": etype.value, "reason": str(exc)})
                    continue
                # acceptance: serialized commit of trackers, dataset line, checkpoint
                commit_to_trackers(commits, self.groups)
                self.queries.append(example.query)
                out.write(serialize_example(example) + "\n")
                out.flush()
                self.state.accepted += 1
                added += 1
                self._log({"event": "accepted", "attempt": self.state.attempts,
                           "id": example.id, "execution_type": example.execution_type.value})
                if (self.config.pattern_period > 0
                        and self.state.accepted % self.config.pattern_period == 0):
                    self._refresh_guidance()
                self._write_checkpoint()
        return added

    def _refresh_guidance(self) -> None:
        sample_size = min(self.config.pattern_sample, len(self.queries))
        if sample_size == 0:
            return
        sample = self.rng.sample(self.queries, sample_size)
        patterns = analyze_dataset_patterns(sample, self.client)
        guidance = generate_diversity_guidance(sample, patterns, self.client)
        if guidance:
            self.querygen.guidance = guidance
            self._log({"event": "pattern_analysis", "at": self.state.accepted})
