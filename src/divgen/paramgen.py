"""Ground-truth argument generation with greedy diversity optimization.

For NUMERICAL and STRING parameters the generator asks for 25 candidate values,
exposes a uniform sample of 5 to the selector, folds the hidden 20 into the
group's committed values ("virtual augmentation"), and keeps the exposed
candidate whose augmented-group cluster entropy is highest. Each group's
committed values are indexed once (``ValueIndex``) and kept in step with its
tracker, so a selection embeds and clusters only its new values. ENUM parameters
draw uniformly; OTHER parameters take a single LLM value. Parameter sets are
LLM-validated with a bounded retry budget, and an abandoned example never
touches the group trackers: commits are collected and applied atomically by the
caller. A STRING value without a word token cannot be embedded, so it never
reaches selection or a tracker: such candidates are left out (and named in the
top-up request), and such a cohesive value fails its attempt, as does a
non-numeric NUMERICAL one.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Any, Sequence

# value_cluster_entropy stays importable here: bench/spans.py wraps it by name
from divgen.metrics.cluster_entropy import ValueIndex, value_cluster_entropy  # noqa: F401
from divgen.metrics.text import tokenize
from divgen.model import (
    MISSING_SENTINEL,
    FunctionSchema,
    ParamCategory,
    ParameterSpec,
    RunConfig,
)
from divgen.preprocess import GroupIndex, ParameterGroup
from divgen.providers import catalog
from divgen.providers.base import SignatureClient
from divgen.providers.signature import SignatureParseError


class ParamGenFailure(RuntimeError):
    """The example's argument generation was abandoned after retries."""


class UnusableValue(ValueError):
    """An LLM-supplied value that cannot be its parameter's argument."""


@dataclass
class GenResult:
    """Arguments for one function plus the tracker commits they imply."""

    arguments: dict[str, Any]
    commits: list[tuple[str, Any]] = field(default_factory=list)
    omitted: tuple[str, ...] = ()
    validations: list[str] = field(default_factory=list)


def commit_to_trackers(commits: Sequence[tuple[str, Any]], groups: GroupIndex) -> None:
    """Append accepted values to their group trackers, in commit order."""
    by_id = {g.id: g for g in groups.groups}
    for group_id, value in commits:
        by_id[group_id].tracker.append(value)


def _group_context(group: ParameterGroup) -> str:
    members = ", ".join(f"{fn}.{pn}" for fn, pn in group.members)
    return (f"Group {group.id} ({group.category.value}) spans {len(group.members)}"
            f" parameter(s): {members}; {len(group.tracker)} committed value(s).")


def _parse_json_or_text(raw: str) -> Any:
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def _coerce_numeric(value: Any) -> float | int:
    if isinstance(value, bool):
        raise UnusableValue(f"non-numeric value: {value!r}")
    if isinstance(value, (int, float)):
        return value
    try:
        text = str(value).strip()
        return int(text) if text.lstrip("+-").isdigit() else float(text)
    except ValueError:
        raise UnusableValue(f"non-numeric value: {value!r}") from None


def select_diverse_value(
    candidates: Sequence[Any],
    tracker_snapshot: Sequence[Any],
    rng: random.Random,
    category: str,
    embedder,
    select_size: int = 5,
    index: ValueIndex | None = None,
) -> tuple[Any, list[Any]]:
    """Greedy argmax over a uniform sample of the candidates.

    Returns (chosen value, augmented view): the view is the tracker snapshot
    plus the candidates that were hidden from the selector. Ties keep the first
    candidate in sampled order. STRING values must carry a word token (see
    ``ParamGenerator.generate_value_candidates``). ``index``, when given, holds
    a prefix of the tracker snapshot; without one the whole view is scored
    from scratch.
    """
    if not candidates:
        raise ValueError("select_diverse_value requires candidates")
    exposed = rng.sample(list(candidates), min(select_size, len(candidates)))
    exposed_set = {repr(x) for x in exposed}
    hidden = [c for c in candidates if repr(c) not in exposed_set]
    augmented = list(tracker_snapshot) + hidden
    if index is None:
        index = ValueIndex(category, embedder)
    scores = index.entropies(augmented[len(index):], exposed)
    best, best_score = exposed[0], scores[0]
    for cand, score in zip(exposed[1:], scores[1:]):
        if score > best_score:
            best, best_score = cand, score
    return best, augmented


class ParamGenerator:
    """Argument generation for all execution types over one shared tracker state."""

    def __init__(
        self,
        groups: GroupIndex,
        client: SignatureClient,
        embedder,
        rng: random.Random,
        config: RunConfig,
    ):
        self.groups = groups
        self.client = client
        self.embedder = embedder
        self.rng = rng
        self.config = config
        self._value_indexes: dict[str, ValueIndex] = {}

    def _value_index(self, group: ParameterGroup) -> ValueIndex:
        """The group's value index, brought in step with its tracker. Built on
        the group's first selection; values of an attempt in progress never
        enter it."""
        index = self._value_indexes.get(group.id)
        if index is None:
            index = self._value_indexes[group.id] = ValueIndex(
                group.category.value, self.embedder)
        index.sync(group.tracker)
        return index

    # -- candidate generation -------------------------------------------------

    def generate_value_candidates(
        self,
        param: ParameterSpec,
        api: FunctionSchema,
        y_current: dict[str, Any],
        group: ParameterGroup,
        existing: Sequence[Any],
        previous_failures: str = "None",
    ) -> list[Any]:
        """25 distinct raw values (one top-up call if duplicates or token-less
        STRING values shrink the set)."""
        if param.category not in (ParamCategory.NUMERICAL, ParamCategory.STRING):
            raise ValueError("candidate generation serves NUMERICAL/STRING parameters")
        numeric = param.category is ParamCategory.NUMERICAL
        sig = catalog.get(
            "GenerateMultipleNumericalParameters" if numeric
            else "GenerateMultipleStringParameters"
        )
        want = self.config.virtual_candidates
        tokenless: list[str] = []

        def ask(count: int, failures: str) -> list[Any]:
            out = self.client.call(sig, {
                "parameter_name": param.name,
                "parameter_description": param.description,
                "parameter_type": param.declared_type,
                "function_name": api.name,
                "function_description": api.description,
                "other_parameter_values": json.dumps(y_current, ensure_ascii=False),
                "existing_values": json.dumps(list(existing), ensure_ascii=False),
                "parameter_group_context": _group_context(group),
                "num_candidates": str(count),
                "previous_failures": failures,
            })
            parsed = json.loads(out["generated_values"])
            if not isinstance(parsed, list):
                raise ValueError("generated_values is not a JSON list")
            if numeric:
                return [_coerce_numeric(v) for v in parsed]
            texts = [str(v) for v in parsed]
            tokenless.extend(t for t in texts if not tokenize(t))
            return [t for t in texts if tokenize(t)]

        values: list[Any] = []
        failures = previous_failures
        for attempt in range(self.config.retry_limit):
            try:
                values = ask(want, failures)
                break
            except (SignatureParseError, ValueError, json.JSONDecodeError) as exc:
                failures = f"previous attempt failed: {exc}"
                if attempt == self.config.retry_limit - 1:
                    raise ParamGenFailure(
                        f"{api.name}.{param.name}: candidate generation failed: {exc}"
                    ) from exc

        seen: set[str] = set()
        distinct: list[Any] = []
        for v in values:
            key = repr(v)
            if key not in seen:
                seen.add(key)
                distinct.append(v)
        if len(distinct) < want:
            note = (f"; left out values without a word token:"
                    f" {json.dumps(tokenless, ensure_ascii=False)}" if tokenless else "")
            try:
                extra = ask(want - len(distinct),
                            f"{want - len(distinct)} more distinct values needed;"
                            f" avoid repeating earlier candidates{note}")
            except (SignatureParseError, ValueError, json.JSONDecodeError):
                extra = []
            for v in extra:
                key = repr(v)
                if key not in seen and len(distinct) < want:
                    seen.add(key)
                    distinct.append(v)
        if len(distinct) < self.config.selection_size:
            raise ParamGenFailure(
                f"{api.name}.{param.name}: only {len(distinct)} distinct candidates"
            )
        return distinct

    # -- per-parameter dispatch ------------------------------------------------

    def _llm_single_value(self, sig_name: str, param: ParameterSpec, api: FunctionSchema,
                          y_current: dict[str, Any], existing: Sequence[Any],
                          extra: dict[str, str], failures: str) -> Any:
        sig = catalog.get(sig_name)
        group = self.groups.group_of(api.name, param.name)
        inputs = {
            "parameter_name": param.name,
            "parameter_description": param.description,
            "parameter_type": param.declared_type,
            "function_name": api.name,
            "function_description": api.description,
            "other_parameter_values": json.dumps(y_current, ensure_ascii=False),
            "existing_values": json.dumps(list(existing), ensure_ascii=False),
            "parameter_group_context": _group_context(group),
            "previous_failures": failures,
        }
        inputs.update(extra)
        out = self.client.call(sig, inputs)
        raw = out["generated_value"]
        if param.category is ParamCategory.NUMERICAL:
            return _coerce_numeric(raw)
        if param.category is ParamCategory.OTHER:
            return _parse_json_or_text(raw)
        if not tokenize(raw):
            raise UnusableValue(f"{param.name}: value {raw!r} has no word token")
        return raw

    def _existing_for(self, api: FunctionSchema, param: ParameterSpec,
                      pending: list[tuple[str, Any]]) -> tuple[ParameterGroup, list[Any]]:
        group = self.groups.group_of(api.name, param.name)
        snapshot = list(group.tracker)
        snapshot.extend(v for gid, v in pending if gid == group.id)
        return group, snapshot

    def _included_params(self, api: FunctionSchema,
                         skip: set[str] | None = None) -> list[ParameterSpec]:
        """Required parameters always; optionals with the configured probability."""
        out = []
        for p in api.parameters:
            if skip and p.name in skip:
                continue
            if p.required or self.rng.random() < self.config.optional_param_rate:
                out.append(p)
        return out

    # -- single-function generation ---------------------------------------------

    def generate_single_params(
        self,
        api: FunctionSchema,
        previous_failures: str = "None",
        skip: set[str] | None = None,
        validator: str = "ParameterSetValidator",
    ) -> GenResult:
        """Diverse generation for one function, validated, retried, uncommitted."""
        failures = previous_failures
        last_reason = ""
        for _ in range(self.config.retry_limit):
            params = self._included_params(api, skip)
            y_current: dict[str, Any] = {}
            pending: list[tuple[str, Any]] = []
            try:
                for p in params:
                    group, existing = self._existing_for(api, p, pending)
                    if p.category is ParamCategory.ENUM:
                        value: Any = p.enum_values[self.rng.randrange(len(p.enum_values))]
                    elif p.category is ParamCategory.OTHER:
                        value = self._llm_single_value(
                            "GenerateOtherParameter", p, api, y_current, existing, {}, failures)
                    else:
                        candidates = self.generate_value_candidates(
                            p, api, y_current, group, existing, failures)
                        value, _ = select_diverse_value(
                            candidates, existing, self.rng,
                            group.category.value, self.embedder,
                            self.config.selection_size, self._value_index(group))
                    y_current[p.name] = value
                    pending.append((group.id, value))
            except SignatureParseError as exc:
                raise ParamGenFailure(f"{api.name}: {exc}") from exc
            ok, reason = self.validate_parameter_set(api, y_current, validator)
            if ok:
                return GenResult(arguments=y_current, commits=pending,
                                 validations=[reason])
            failures = reason or "validator rejected the parameter set"
            last_reason = failures
        raise ParamGenFailure(f"{api.name}: parameter set rejected after"
                              f" {self.config.retry_limit} attempts: {last_reason}")

    def generate_missing_params(self, api: FunctionSchema) -> GenResult:
        """Arguments with >= 1 required parameter replaced by the sentinel."""
        required = [p.name for p in api.required_parameters]
        if not required:
            raise ValueError(f"{api.name}: MISSING_PARAMS needs a required parameter")
        draw = sum(1 for _ in required if self.rng.random() < self.config.missing_binomial_p)
        k = max(1, draw)
        omitted = sorted(self.rng.sample(required, k))
        result = self.generate_single_params(
            api, skip=set(omitted), validator="PartialParameterSetValidator")
        arguments = dict(result.arguments)
        for spec in api.parameters:
            if spec.name in omitted:
                arguments[spec.name] = MISSING_SENTINEL
        return GenResult(arguments=arguments, commits=result.commits,
                         omitted=tuple(omitted), validations=result.validations)

    # -- multi-function generation ------------------------------------------------

    def generate_parallel_params(
        self, apis: Sequence[FunctionSchema]
    ) -> tuple[list[GenResult], int]:
        """Uniformly chosen function(s) get the diverse path (count from
        ``diverse_apis_per_example``, normally 1); the rest are generated
        cohesively against the accumulated context. Nothing commits unless
        every function validates."""
        if len(apis) < 2:
            raise ValueError("PARALLEL needs at least two functions")
        n_diverse = max(1, min(self.config.diverse_apis_per_example, len(apis)))
        diverse = sorted(self.rng.sample(range(len(apis)), n_diverse))
        results: dict[int, GenResult] = {}
        context: dict[str, Any] = {}

        order = diverse + [i for i in range(len(apis)) if i not in diverse]
        for idx in order:
            api = apis[idx]
            if idx in diverse:
                res = self.generate_single_params(api)
            else:
                res = self._generate_cohesive(api, {
                    "parallel_context_parameters": json.dumps(context, ensure_ascii=False),
                }, kind="parallel")
            results[idx] = res
            context[api.name] = res.arguments
        ordered = [results[i] for i in range(len(apis))]
        return ordered, diverse[0]

    def generate_sequential_chain(
        self, apis: Sequence[FunctionSchema]
    ) -> tuple[list[GenResult], list[Any]]:
        """Backward generation: the last function gets the diverse path; each
        earlier one first gets a return value aimed at its successor, then
        cohesive parameters. Emits exactly len(apis) - 1 return values."""
        if len(apis) < 2:
            raise ValueError("SEQUENTIAL needs at least two functions")
        n = len(apis)
        chain_failures = "None"
        last_reason = ""
        for _ in range(self.config.retry_limit):
            args: dict[int, GenResult] = {}
            returns: dict[int, Any] = {}
            ok = True
            for idx in range(n - 1, -1, -1):
                api = apis[idx]
                if idx == n - 1:
                    args[idx] = self.generate_single_params(api, chain_failures)
                    continue
                ret = self._generate_return_value(apis, idx, args, chain_failures)
                returns[idx] = ret
                later = [args[i].arguments for i in range(idx + 2, n)]
                args[idx] = self._generate_cohesive(api, {
                    "return_value": json.dumps(ret, ensure_ascii=False),
                    "next_api_parameters": json.dumps(args[idx + 1].arguments,
                                                      ensure_ascii=False),
                    "later_api_parameters": json.dumps(later, ensure_ascii=False),
                }, kind="sequential", failures=chain_failures)
                valid, reason = self.validate_return_value(
                    apis, idx, ret, args[idx].arguments, args[idx + 1].arguments)
                if not valid:
                    ok = False
                    last_reason = chain_failures = f"return value rejected: {reason}"
                    break
            if not ok:
                continue
            order = list(range(n))
            valid, reason = self.validate_sequential_chain(
                apis, [args[i].arguments for i in order],
                [returns[i] for i in range(n - 1)])
            if valid:
                return [args[i] for i in order], [returns[i] for i in range(n - 1)]
            last_reason = chain_failures = f"chain rejected: {reason}"
        raise ParamGenFailure(f"sequential chain abandoned: {last_reason}")

    def _generate_cohesive(self, api: FunctionSchema, extra: dict[str, str],
                           kind: str, failures: str = "None") -> GenResult:
        sig_names = {
            ("parallel", ParamCategory.STRING): "GenerateCohesiveStringParameter",
            ("parallel", ParamCategory.NUMERICAL): "GenerateCohesiveNumericalParameter",
            ("parallel", ParamCategory.OTHER): "GenerateCohesiveOtherParameter",
            ("sequential", ParamCategory.STRING): "GenerateSequentialCohesiveStringParameter",
            ("sequential", ParamCategory.NUMERICAL): "GenerateSequentialCohesiveNumericalParameter",
            ("sequential", ParamCategory.OTHER): "GenerateSequentialCohesiveOtherParameter",
        }
        last_reason = ""
        for _ in range(self.config.retry_limit):
            params = self._included_params(api)
            y_current: dict[str, Any] = {}
            pending: list[tuple[str, Any]] = []
            try:
                for p in params:
                    group, existing = self._existing_for(api, p, pending)
                    if p.category is ParamCategory.ENUM:
                        value: Any = p.enum_values[self.rng.randrange(len(p.enum_values))]
                    else:
                        value = self._llm_single_value(
                            sig_names[(kind, p.category)], p, api,
                            y_current, existing, extra, failures)
                    y_current[p.name] = value
                    pending.append((group.id, value))
            except SignatureParseError as exc:
                raise ParamGenFailure(f"{api.name}: {exc}") from exc
            except UnusableValue as exc:
                failures = last_reason = str(exc)
                continue
            ok, reason = self.validate_parameter_set(api, y_current)
            if ok:
                return GenResult(arguments=y_current, commits=pending,
                                 validations=[reason])
            failures = last_reason = reason or "validator rejected the parameter set"
        raise ParamGenFailure(f"{api.name}: cohesive set rejected: {last_reason}")

    def _generate_return_value(self, apis: Sequence[FunctionSchema], idx: int,
                               args: dict[int, GenResult], failures: str) -> Any:
        api = apis[idx]
        nxt = apis[idx + 1]
        sig = catalog.get("GenerateReturnValue")
        out = self.client.call(sig, {
            "api_name": api.name,
            "api_description": api.description,
            "return_type_schema": json.dumps(
                [f.to_dict() for f in api.return_fields], ensure_ascii=False),
            "next_api_name": nxt.name,
            "next_api_description": nxt.description,
            "next_api_parameters_schema": json.dumps(
                nxt.to_dict()["parameters"], ensure_ascii=False),
            "next_api_parameters_values": json.dumps(
                args[idx + 1].arguments, ensure_ascii=False),
            "previous_failures": failures,
        })
        return _parse_json_or_text(out["return_value"])

    # -- validators ------------------------------------------------------------------

    def _verdict(self, sig_name: str, inputs: dict[str, str],
                 verdict_field: str = "is_valid") -> tuple[bool, str]:
        sig = catalog.get(sig_name)
        try:
            out = self.client.call(sig, inputs)
        except SignatureParseError:
            return False, "parse failure"
        return out[verdict_field].strip().upper() == "YES", out.get("reasoning", "")

    def validate_parameter_set(self, api: FunctionSchema, arguments: dict[str, Any],
                               validator: str = "ParameterSetValidator") -> tuple[bool, str]:
        param_field = ("provided_parameters" if validator == "PartialParameterSetValidator"
                       else "selected_parameters")
        return self._verdict(validator, {
            "api_name": api.name,
            "api_description": api.description,
            "full_parameter_schema": json.dumps(api.to_dict()["parameters"],
                                                ensure_ascii=False),
            param_field: json.dumps(arguments, ensure_ascii=False),
        })

    def validate_return_value(self, apis: Sequence[FunctionSchema], idx: int,
                              return_value: Any, arguments: dict[str, Any],
                              next_arguments: dict[str, Any]) -> tuple[bool, str]:
        api, nxt = apis[idx], apis[idx + 1]
        return self._verdict("ValidateReturnValue", {
            "api_name": api.name,
            "api_description": api.description,
            "return_type_schema": json.dumps(
                [f.to_dict() for f in api.return_fields], ensure_ascii=False),
            "return_value": json.dumps(return_value, ensure_ascii=False),
            "api_parameters": json.dumps(arguments, ensure_ascii=False),
            "next_api_name": nxt.name,
            "next_api_description": nxt.description,
            "next_api_parameters": json.dumps(next_arguments, ensure_ascii=False),
        })

    def validate_sequential_chain(self, apis: Sequence[FunctionSchema],
                                  args_list: list[dict[str, Any]],
                                  return_values: list[Any]) -> tuple[bool, str]:
        return self._verdict("ValidateSequentialChain", {
            "api_schemas": json.dumps([a.to_dict() for a in apis], ensure_ascii=False),
            "parameters_list": json.dumps(args_list, ensure_ascii=False),
            "return_values_list": json.dumps(return_values, ensure_ascii=False),
        })
