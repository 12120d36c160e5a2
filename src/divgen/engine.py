"""The generation loop: sample, fill arguments, write the query, pick distractors.

One RNG stream drives every draw in a documented order, acceptance is globally
serialized (dataset append + tracker commit + checkpoint), and abandoned
attempts leave no trace beyond a log line, so a run is byte-reproducible from
its seed and can resume from the checkpoint after any interruption. The
checkpoint is replaced atomically and records the sizes of the dataset and of
the run log, so a resumed run first drops any line written after the last
checkpoint; the accepted queries are read back from the dataset.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence, TextIO

from divgen.distractors import DistractorFailure, assemble_candidates, finalize
from divgen.metrics.battery import EmbeddingCache
from divgen.metrics.text import sentences_of
from divgen.model import (
    ExecutionType,
    FunctionLibrary,
    FunctionSchema,
    GeneratedExample,
    Invocation,
    ModelError,
    RunConfig,
    read_dataset,
    serialize_example,
)
from divgen.paramgen import ParamGenerator, ParamGenFailure, commit_to_trackers
from divgen.preprocess import ApiGraph, ApiPools, GroupIndex
from divgen.providers.base import ChatProvider, EmbeddingProvider, SignatureClient
from divgen.providers.signature import SignatureParseError
from divgen.querygen import (
    ExampleSkeleton,
    QueryGenerator,
    analyze_dataset_patterns,
    generate_diversity_guidance,
)
from divgen.sampler import (
    WALK_RETRIES,
    SamplingFailure,
    check_reachable_types,
    sample_execution_type,
    sample_single_api,
    sample_walk,
    check_pairwise_similarity,
    validate_sequential_schema_compatibility,
)

#: Consecutive abandoned attempts after which ``generate`` stops. No working
#: run measured has abandoned two attempts in a row (the seed-7 n=200 fixture
#: run, and every benchmark repetition at seeds 7 and 1013), so a run that
#: reaches this many has a cause no retry mends; with the stub providers it
#: ends in seconds.
MAX_CONSECUTIVE_ABANDONS = 500

PATTERN_SAMPLE = 20  # accepted queries sampled per pattern analysis


class AbandonedExample(RuntimeError):
    """This attempt is dropped; the loop moves on without counting it."""


class GenerationStalled(RuntimeError):
    """``MAX_CONSECUTIVE_ABANDONS`` attempts in a row were abandoned. The
    dataset and checkpoint are those of the last acceptance, so ``--resume``
    continues once the cause is fixed."""

    def __init__(self, reasons: Counter[tuple[str, str]]):
        by_type: dict[str, list[tuple[str, int]]] = {}
        for (etype, reason), count in reasons.most_common():
            by_type.setdefault(etype, []).append((reason, count))
        parts = []
        for etype, rows in by_type.items():
            shown = "; ".join(f"{count} x {reason}" for reason, count in rows[:3])
            more = f"; {len(rows) - 3} other reasons" if len(rows) > 3 else ""
            parts.append(f"{etype} {sum(c for _, c in rows)} ({shown}{more})")
        super().__init__(f"{reasons.total()} consecutive attempts abandoned, by execution"
                         f" type: {', '.join(parts)}")


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
        self.library = FunctionLibrary(library)
        self.groups = groups
        self.pools = pools
        self.graph = graph
        self.config = config
        self.rng = random.Random(config.rng_seed)
        self.client = SignatureClient(chat, config.retry_limit, config.decode_params)
        self.embed_cache = EmbeddingCache(embedder)
        self.paramgen = ParamGenerator(groups, self.client, self.embed_cache, self.rng, config)
        self.querygen = QueryGenerator(self.client, self.embed_cache, self.rng, config)
        self.out_path = Path(out_path)
        self.log_stream = log_stream
        self.log_bytes = 0  # UTF-8 bytes in the run log; cut_log counts a resumed one
        self.state = EngineState()
        self.queries: list[str] = []
        self._checked: tuple[dict[str, Any], list[GeneratedExample]] | None = None  # by cut_log

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
            "attempts": self.state.attempts,
            "rng_state": [state[0], list(state[1]), state[2]],
            "trackers": self.groups.snapshot_all(),
            "guidance": self.querygen.guidance,
            "config_digest": self._config_digest(),
        }
        tmp = self.checkpoint_path.with_name(self.checkpoint_path.name + ".tmp")
        tmp.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
        os.replace(tmp, self.checkpoint_path)

    def _read_checkpoint(self) -> tuple[dict[str, Any], list[GeneratedExample]]:
        """The checkpoint and the examples of the dataset prefix it records,
        checked (config digest, trackers, then prefix) before any file is touched."""
        doc = json.loads(self.checkpoint_path.read_text(encoding="utf-8"))
        if doc["config_digest"] != self._config_digest():
            raise ModelError("checkpoint was produced under a different configuration")
        trackers = doc["trackers"]
        if not (isinstance(trackers, dict) and all(isinstance(t, list) for t in trackers.values())):
            raise ModelError("the checkpoint's trackers must be an object of arrays")
        size = doc["dataset_bytes"]
        if self.out_path.stat().st_size < size:
            raise ModelError("dataset is shorter than the checkpoint records")
        kept = read_dataset(self.out_path, size)
        if len(kept) != doc["accepted"]:
            raise ModelError(f"{self.out_path}: its first {size} bytes hold {len(kept)}"
                             f" examples, the checkpoint records {doc['accepted']} accepted")
        for example in kept:
            if not sentences_of(example.query):
                raise ModelError(f"{self.out_path}: {example.id}'s query has no word token")
        return doc, kept

    def resume(self) -> None:
        """Restore RNG, trackers and guidance from the checkpoint, cut the dataset back
        to the size it records and take the accepted queries from it; both are read and
        checked once, here or by a preceding ``cut_log``, which counts a log's bytes."""
        (doc, kept), self._checked = self._checked or self._read_checkpoint(), None
        os.truncate(self.out_path, doc["dataset_bytes"])
        self.state.accepted = doc["accepted"]
        self.state.attempts = doc["attempts"]
        version, internal, gauss = doc["rng_state"]
        self.rng.setstate((version, tuple(internal), gauss))
        self.groups.restore(doc["trackers"])
        self.querygen.guidance = doc["guidance"]
        self.queries = [ex.query for ex in kept]

    def cut_log(self, path: str | Path) -> None:
        """Cut the run log at ``path`` to the size the checkpoint records, if any, so a
        resumed run does not log twice what it redoes, and count its bytes from there;
        a checkpoint that ``resume`` would refuse leaves the log as it is."""
        self._checked = self._read_checkpoint()
        size = self._checked[0]["log_bytes"]
        with open(path, "ab") as fh:
            if size is not None and fh.tell() > size:
                fh.truncate(size)
            self.log_bytes = fh.seek(0, os.SEEK_END)

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
                names = sample_walk(self.graph, etype, self.rng)
            except SamplingFailure as exc:
                last = str(exc)
                continue
            schemas = [self.library.by_name[n] for n in names]
            if not check_pairwise_similarity(
                    schemas, self.embed_cache, self.config.pairwise_similarity_threshold):
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
            api = sample_single_api(self.pools, self.library.by_name, self.rng)
            if etype is ExecutionType.MISSING_PARAMS:
                for _ in range(WALK_RETRIES):
                    if api.required_parameters:
                        break
                    api = sample_single_api(self.pools, self.library.by_name, self.rng)
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
        returns: list[Any] = []
        if etype is ExecutionType.PARALLEL:
            results, diverse_idx = self.paramgen.generate_parallel_params(schemas)
            meta["diverse_function"] = schemas[diverse_idx].name
        else:
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
            self.client, self.rng)
        if outcome.invalid:
            raise AbandonedExample(f"candidate validation: {outcome.note}")
        if outcome.note:
            meta["distractor_note"] = outcome.note

        new_targets = outcome.targets
        new_type = outcome.exec_type
        argmap = {s.name: args for s, args in zip(skeleton.schemas, skeleton.arguments)}
        sequential = new_type is ExecutionType.SEQUENTIAL
        invocations = [Invocation(name, argmap[name], i if sequential else 0)
                       for i, name in enumerate(new_targets)]
        # every step but the last returns a value; a shrunk chain keeps those
        # of its remaining steps, by name
        returned = {s.name: r for s, r in zip(skeleton.schemas, skeleton.return_values)}
        returns = [returned[name] for name in new_targets[:-1]] if sequential else []

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
        """Produce accepted examples until the dataset holds n; returns count added.

        Raises ``ModelError`` before touching any file if the type weights
        draw a type the graph can never serve, and ``GenerationStalled`` after
        ``MAX_CONSECUTIVE_ABANDONS`` abandoned attempts in a row."""
        check_reachable_types(self.config, self.graph)
        if resume:
            self.resume()
        added = 0
        abandons: Counter[tuple[str, str]] = Counter()  # since the last acceptance
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
                    abandons[etype.value, str(exc)] += 1
                    if abandons.total() == MAX_CONSECUTIVE_ABANDONS:
                        raise GenerationStalled(abandons) from exc
                    continue
                abandons.clear()
                # acceptance: serialized commit of trackers, dataset line, checkpoint
                commit_to_trackers(commits, self.groups)
                self.queries.append(example.query)
                out.write(serialize_example(example) + "\n")
                out.flush()
                self.state.accepted += 1
                added += 1
                self._log({"event": "accepted", "attempt": self.state.attempts,
                           "id": example.id, "execution_type": example.execution_type.value})
                if self.state.accepted % self.config.pattern_period == 0:
                    self._refresh_guidance()
                self._write_checkpoint()
        return added

    def _refresh_guidance(self) -> None:
        """Analyse a sample of the accepted queries and replace the guidance;
        an unparseable reply keeps the previous guidance."""
        sample_size = min(PATTERN_SAMPLE, len(self.queries))
        if sample_size == 0:
            return
        sample = self.rng.sample(self.queries, sample_size)
        try:
            patterns = analyze_dataset_patterns(sample, self.client)
            guidance = generate_diversity_guidance(sample, patterns, self.client)
        except SignatureParseError as exc:
            self._log({"event": "pattern_analysis_failed", "at": self.state.accepted,
                       "reason": str(exc)})
            return
        if guidance:
            self.querygen.guidance = guidance
            self._log({"event": "pattern_analysis", "at": self.state.accepted})
