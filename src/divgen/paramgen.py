"""Ground-truth argument generation with greedy diversity optimization.

For NUMERICAL and STRING parameters the generator asks for 25 candidate values,
exposes a uniform sample of 5 to the selector, folds the hidden 20 into the
group's committed values ("virtual augmentation"), and keeps the exposed
candidate whose augmented-group cluster entropy is highest. Each group's
committed values are indexed once (``ValueIndex``) and kept in step with its
tracker, so a selection embeds and clusters only its new values; each checkpoint
records the groups' components, and a resumed run restores a group's index from
its record instead of clustering its committed values again. ENUM parameters
draw uniformly; OTHER parameters take a single LLM value. Parameter sets are
LLM-validated with a bounded retry budget, and an abandoned example never
touches the group trackers: commits are collected and applied atomically by the
caller. A value that ``cluster_entropy.numeric_value`` or ``text_value`` refuses
(a STRING value without a word token, a NUMERICAL one that is not a finite
number) cannot be placed, so it never reaches selection or a tracker: such
candidates are left out (and named in the top-up request), and such a cohesive
value fails its attempt. One loop builds every parameter set, diverse or
cohesive, from a per-parameter value source. Each value signature takes the
fields it declares from the one context it is given: the nine shared fields
plus, for a cohesive value, the other calls' context.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

# value_cluster_entropy stays importable here: bench/spans.py wraps it by name
from divgen.metrics.cluster_entropy import (  # noqa: F401
    UnusableValue,
    ValueIndex,
    covers,
    numeric_value,
    text_value,
    value_cluster_entropy,
)
from divgen.model import (
    MISSING_SENTINEL,
    FunctionSchema,
    ModelError,
    ParamCategory,
    ParameterSpec,
    RunConfig,
)
from divgen.preprocess import GroupIndex, ParameterGroup
from divgen.providers import catalog
from divgen.providers.base import SignatureClient
from divgen.providers.signature import SignatureParseError

VIRTUAL_CANDIDATES = 25   # values generated per NUMERICAL or STRING parameter
SELECTION_SIZE = 5        # of them exposed to the selector; the rest augment the group
OPTIONAL_PARAM_RATE = 0.3
MISSING_BINOMIAL_P = 0.5  # omission probability per required parameter (at least one)

# A non-ENUM parameter's value from (parameter, group, values so far, group's
# values, previous failures); raises UnusableValue to fail the attempt.
ValueSource = Callable[[ParameterSpec, ParameterGroup, dict[str, Any], list[Any], str], Any]

_PARALLEL_COHESIVE = {
    ParamCategory.STRING: "GenerateCohesiveStringParameter",
    ParamCategory.NUMERICAL: "GenerateCohesiveNumericalParameter",
    ParamCategory.OTHER: "GenerateCohesiveOtherParameter",
}

_SEQUENTIAL_COHESIVE = {
    ParamCategory.STRING: "GenerateSequentialCohesiveStringParameter",
    ParamCategory.NUMERICAL: "GenerateSequentialCohesiveNumericalParameter",
    ParamCategory.OTHER: "GenerateSequentialCohesiveOtherParameter",
}


class ParamGenFailure(RuntimeError):
    """The example's argument generation was abandoned after retries."""


@dataclass
class GenResult:
    """Arguments for one function plus the tracker commits they imply."""

    arguments: dict[str, Any]
    commits: list[tuple[str, Any]] = field(default_factory=list)
    omitted: tuple[str, ...] = ()


def commit_to_trackers(commits: Sequence[tuple[str, Any]], groups: GroupIndex) -> None:
    """Append accepted values to their group trackers, in commit order."""
    by_id = {g.id: g for g in groups.groups}
    for group_id, value in commits:
        by_id[group_id].tracker.append(value)


def _group_context(group: ParameterGroup) -> str:
    members = ", ".join(f"{fn}.{pn}" for fn, pn in group.members)
    return (f"Group {group.id} ({group.category.value}) spans {len(group.members)}"
            f" parameter(s): {members}; {len(group.tracker)} committed value(s).")


def _value_fields(param: ParameterSpec, api: FunctionSchema, group: ParameterGroup,
                  y_current: dict[str, Any], existing: Sequence[Any],
                  failures: str) -> dict[str, str]:
    """The nine fields every value-generation signature declares."""
    return {
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


def _return_step_fields(apis: Sequence[FunctionSchema], idx: int) -> dict[str, str]:
    """The chain step's fields that both return-value signatures declare."""
    api, nxt = apis[idx], apis[idx + 1]
    return {
        "api_name": api.name,
        "api_description": api.description,
        "return_type_schema": json.dumps(
            [f.to_dict() for f in api.return_fields], ensure_ascii=False),
        "next_api_name": nxt.name,
        "next_api_description": nxt.description,
    }


def _parse_json_or_text(raw: str) -> Any:
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def select_diverse_value(
    candidates: Sequence[Any],
    committed: Sequence[Any],
    rng: random.Random,
    index: ValueIndex,
) -> tuple[Any, list[Any]]:
    """Greedy argmax over a uniform sample of ``SELECTION_SIZE`` candidates.

    Returns (chosen value, augmented view): the view is the group's committed
    values plus the candidates that were hidden from the selector. Ties keep
    the first candidate in sampled order. STRING values must carry a word token
    (see ``ParamGenerator.generate_value_candidates``). ``index`` holds a
    prefix of ``committed``; the rest of the view is scored on top of it.
    """
    if not candidates:
        raise ValueError("select_diverse_value requires candidates")
    exposed = rng.sample(list(candidates), min(SELECTION_SIZE, len(candidates)))
    exposed_set = {repr(x) for x in exposed}
    hidden = [c for c in candidates if repr(c) not in exposed_set]
    augmented = list(committed) + hidden
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
        # each NUMERICAL/STRING group's component record at the last checkpoint
        self.records: dict[str, Any] = {}

    def restore(self, records: Any) -> None:
        """Take a checkpoint's component records (none unless an object) and drop
        every index: a group's is restored from its record on first use."""
        self.records = records if isinstance(records, dict) else {}
        self._value_indexes.clear()

    def _value_index(self, group: ParameterGroup, keep: bool = True) -> ValueIndex:
        """The group's value index, brought in step with its tracker. On first
        use it is restored from the group's component record where the record
        matches a prefix of the tracker, built otherwise, and kept if ``keep``;
        values of an attempt in progress never enter it. A committed value the
        group cannot place (one a checkpoint kept from a run that admitted it)
        raises ModelError naming both."""
        index = self._value_indexes.get(group.id)
        try:
            if index is None:
                index = ValueIndex(group.category.value, self.embedder)
                index.restore(group.tracker, self.records.get(group.id))
                if keep:
                    self._value_indexes[group.id] = index
            index.sync(group.tracker)
        except ValueError as exc:
            admit = numeric_value if group.category is ParamCategory.NUMERICAL else text_value
            for value in group.tracker:
                try:
                    admit(value)
                except UnusableValue as unusable:
                    raise ModelError(f"parameter group {group.id} holds a committed value"
                                     f" it cannot place: {unusable}") from exc
            raise
        return index

    def component_records(self) -> dict[str, dict[str, Any]]:
        """Each NUMERICAL/STRING group's component record, kept as the records of
        the last checkpoint. A group keeps its record while its tracker has not
        grown; a grown group takes the record of its index, extended, or, if it
        has none, of an index used once and dropped, so a run that never selects
        holds no group's points."""
        records = {}
        for group in self.groups.groups:
            if group.category not in (ParamCategory.NUMERICAL, ParamCategory.STRING):
                continue
            record = self.records.get(group.id)
            if covers(record, group.tracker):
                records[group.id] = record
            else:
                records[group.id] = self._value_index(group, keep=False).record()
        self.records = records
        return records

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
        """25 distinct raw values. Values that cannot be arguments (STRING
        values without a word token, NUMERICAL values that are not finite
        numbers) are left out; one top-up call names them if they or
        duplicates shrink the set."""
        if param.category not in (ParamCategory.NUMERICAL, ParamCategory.STRING):
            raise ValueError("candidate generation serves NUMERICAL/STRING parameters")
        numeric = param.category is ParamCategory.NUMERICAL
        sig = catalog.get(
            "GenerateMultipleNumericalParameters" if numeric
            else "GenerateMultipleStringParameters"
        )
        want = VIRTUAL_CANDIDATES
        unusable = ("non-numeric or non-finite values" if numeric
                    else "values without a word token")
        coerce = numeric_value if numeric else text_value
        left_out: list[Any] = []

        def ask(count: int, failures: str) -> list[Any]:
            out = self.client.call(sig, {
                **_value_fields(param, api, group, y_current, existing, failures),
                "num_candidates": str(count),
            })
            parsed = json.loads(out["generated_values"])
            if not isinstance(parsed, list):
                raise ValueError("generated_values is not a JSON list")
            kept = []
            for value in parsed:
                try:
                    kept.append(coerce(value))
                except UnusableValue:
                    left_out.append(value)
            return kept

        def note() -> str:
            return (f"; left out {unusable}: {json.dumps(left_out, ensure_ascii=False)}"
                    if left_out else "")

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

        distinct = {repr(v): v for v in values}  # equal reprs: equal values
        if len(distinct) < want:
            try:
                extra = ask(want - len(distinct),
                            f"{want - len(distinct)} more distinct values needed;"
                            f" avoid repeating earlier candidates{note()}")
            except (SignatureParseError, ValueError, json.JSONDecodeError):
                extra = []
            for v in extra:
                if len(distinct) < want:
                    distinct.setdefault(repr(v), v)
        if len(distinct) < SELECTION_SIZE:
            raise ParamGenFailure(
                f"{api.name}.{param.name}: only {len(distinct)} distinct candidates{note()}"
            )
        return list(distinct.values())

    # -- per-parameter dispatch ------------------------------------------------

    def _llm_single_value(self, sig_name: str, param: ParameterSpec,
                          fields: dict[str, str]) -> Any:
        out = self.client.call(catalog.get(sig_name), fields)
        raw = out["generated_value"]
        if param.category is ParamCategory.NUMERICAL:
            return numeric_value(raw)
        if param.category is ParamCategory.OTHER:
            return _parse_json_or_text(raw)
        return text_value(raw)

    def _existing_for(self, api: FunctionSchema, param: ParameterSpec,
                      pending: list[tuple[str, Any]]) -> tuple[ParameterGroup, list[Any]]:
        group = self.groups.group_of(api.name, param.name)
        snapshot = list(group.tracker)
        snapshot.extend(v for gid, v in pending if gid == group.id)
        return group, snapshot

    def _included_params(self, api: FunctionSchema,
                         skip: set[str] | None = None) -> list[ParameterSpec]:
        """Required parameters always; optionals with probability ``OPTIONAL_PARAM_RATE``."""
        out = []
        for p in api.parameters:
            if skip and p.name in skip:
                continue
            if p.required or self.rng.random() < OPTIONAL_PARAM_RATE:
                out.append(p)
        return out

    # -- parameter sets ---------------------------------------------------------

    def _parameter_set(self, api: FunctionSchema, value_of: ValueSource, failures: str,
                       rejected: str, skip: set[str] | None = None,
                       validator: str = "ParameterSetValidator") -> GenResult:
        """Draw the included parameters, give each a value (ENUM uniformly, the
        rest from ``value_of``), validate, and retry; nothing is committed."""
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
                    else:
                        value = value_of(p, group, y_current, existing, failures)
                    y_current[p.name] = value
                    pending.append((group.id, value))
            except SignatureParseError as exc:
                raise ParamGenFailure(f"{api.name}: {exc}") from exc
            except UnusableValue as exc:
                failures = last_reason = f"{p.name}: {exc}"
                continue
            ok, reason = self.validate_parameter_set(api, y_current, validator)
            if ok:
                return GenResult(arguments=y_current, commits=pending)
            failures = last_reason = reason or "validator rejected the parameter set"
        raise ParamGenFailure(f"{api.name}: {rejected}: {last_reason}")

    def generate_single_params(
        self,
        api: FunctionSchema,
        previous_failures: str = "None",
        skip: set[str] | None = None,
        validator: str = "ParameterSetValidator",
    ) -> GenResult:
        """Diverse generation for one function, validated, retried, uncommitted."""
        def diverse_value(p: ParameterSpec, group: ParameterGroup, y_current: dict[str, Any],
                          existing: list[Any], failures: str) -> Any:
            if p.category is ParamCategory.OTHER:
                return self._llm_single_value("GenerateOtherParameter", p, _value_fields(
                    p, api, group, y_current, existing, failures))
            candidates = self.generate_value_candidates(
                p, api, y_current, group, existing, failures)
            value, _ = select_diverse_value(
                candidates, existing, self.rng, self._value_index(group))
            return value

        return self._parameter_set(
            api, diverse_value, previous_failures,
            f"parameter set rejected after {self.config.retry_limit} attempts", skip, validator)

    def generate_missing_params(self, api: FunctionSchema) -> GenResult:
        """Arguments with >= 1 required parameter replaced by the sentinel."""
        required = [p.name for p in api.required_parameters]
        if not required:
            raise ValueError(f"{api.name}: MISSING_PARAMS needs a required parameter")
        draw = sum(1 for _ in required if self.rng.random() < MISSING_BINOMIAL_P)
        k = max(1, draw)
        omitted = sorted(self.rng.sample(required, k))
        result = self.generate_single_params(
            api, skip=set(omitted), validator="PartialParameterSetValidator")
        arguments = dict(result.arguments)
        for spec in api.parameters:
            if spec.name in omitted:
                arguments[spec.name] = MISSING_SENTINEL
        return GenResult(arguments=arguments, commits=result.commits, omitted=tuple(omitted))

    # -- multi-function generation ------------------------------------------------

    def generate_parallel_params(
        self, apis: Sequence[FunctionSchema]
    ) -> tuple[list[GenResult], int]:
        """One uniformly chosen function gets the diverse path; the rest are
        generated cohesively against the accumulated context. Nothing commits
        unless every function validates. Returns the results in ``apis``
        order and the diverse function's index."""
        if len(apis) < 2:
            raise ValueError("PARALLEL needs at least two functions")
        diverse = self.rng.sample(range(len(apis)), 1)[0]
        results = {diverse: self.generate_single_params(apis[diverse])}
        context = {apis[diverse].name: results[diverse].arguments}
        for idx in range(len(apis)):
            if idx == diverse:
                continue
            res = results[idx] = self._generate_cohesive(apis[idx], _PARALLEL_COHESIVE, {
                "parallel_context_parameters": json.dumps(context, ensure_ascii=False),
            })
            context[apis[idx].name] = res.arguments
        return [results[i] for i in range(len(apis))], diverse

    def generate_sequential_chain(
        self, apis: Sequence[FunctionSchema]
    ) -> tuple[list[GenResult], list[Any]]:
        """Backward generation: the last function gets the diverse path; each
        earlier one first gets a return value aimed at its successor, then
        cohesive parameters. Emits exactly len(apis) - 1 return values. A
        return value that is rejected or cannot be parsed, like a rejected
        chain, spends one of the chain's retries."""
        if len(apis) < 2:
            raise ValueError("SEQUENTIAL needs at least two functions")
        n = len(apis)
        chain_failures = "None"
        last_reason = ""
        for _ in range(self.config.retry_limit):
            args = {n - 1: self.generate_single_params(apis[n - 1], chain_failures)}
            returns: dict[int, Any] = {}
            for idx in range(n - 2, -1, -1):
                try:
                    ret = returns[idx] = self._generate_return_value(
                        apis, idx, args, chain_failures)
                except SignatureParseError as exc:
                    last_reason = chain_failures = f"return value rejected: {exc}"
                    break
                later = [args[i].arguments for i in range(idx + 2, n)]
                args[idx] = self._generate_cohesive(apis[idx], _SEQUENTIAL_COHESIVE, {
                    "return_value": json.dumps(ret, ensure_ascii=False),
                    "next_api_parameters": json.dumps(args[idx + 1].arguments,
                                                      ensure_ascii=False),
                    "later_api_parameters": json.dumps(later, ensure_ascii=False),
                }, failures=chain_failures)
                valid, reason = self.validate_return_value(
                    apis, idx, ret, args[idx].arguments, args[idx + 1].arguments)
                if not valid:
                    last_reason = chain_failures = f"return value rejected: {reason}"
                    break
            else:
                results = [args[i] for i in range(n)]
                return_values = [returns[i] for i in range(n - 1)]
                valid, reason = self.validate_sequential_chain(
                    apis, [r.arguments for r in results], return_values)
                if valid:
                    return results, return_values
                last_reason = chain_failures = f"chain rejected: {reason}"
        raise ParamGenFailure(f"sequential chain abandoned: {last_reason}")

    def _generate_cohesive(self, api: FunctionSchema, signatures: dict[ParamCategory, str],
                           context: dict[str, str], failures: str = "None") -> GenResult:
        """One LLM value per parameter, cohesive with the other calls' ``context``."""
        def cohesive_value(p: ParameterSpec, group: ParameterGroup, y_current: dict[str, Any],
                           existing: list[Any], failures: str) -> Any:
            return self._llm_single_value(signatures[p.category], p, {
                **_value_fields(p, api, group, y_current, existing, failures), **context})

        return self._parameter_set(api, cohesive_value, failures, "cohesive set rejected")

    def _generate_return_value(self, apis: Sequence[FunctionSchema], idx: int,
                               args: dict[int, GenResult], failures: str) -> Any:
        nxt = apis[idx + 1]
        out = self.client.call(catalog.get("GenerateReturnValue"), {
            **_return_step_fields(apis, idx),
            "next_api_parameters_schema": json.dumps(
                nxt.to_dict()["parameters"], ensure_ascii=False),
            "next_api_parameters_values": json.dumps(
                args[idx + 1].arguments, ensure_ascii=False),
            "previous_failures": failures,
        })
        return _parse_json_or_text(out["return_value"])

    # -- validators ------------------------------------------------------------------

    def _verdict(self, sig_name: str, inputs: dict[str, str]) -> tuple[bool, str]:
        try:
            out = self.client.call(catalog.get(sig_name), inputs)
        except SignatureParseError:
            return False, "parse failure"
        return out["is_valid"].strip().upper() == "YES", out.get("reasoning", "")

    def validate_parameter_set(self, api: FunctionSchema, arguments: dict[str, Any],
                               validator: str = "ParameterSetValidator") -> tuple[bool, str]:
        # the full validator declares selected_parameters, the partial one
        # provided_parameters: both carry the arguments
        chosen = json.dumps(arguments, ensure_ascii=False)
        return self._verdict(validator, {
            "api_name": api.name,
            "api_description": api.description,
            "full_parameter_schema": json.dumps(api.to_dict()["parameters"],
                                                ensure_ascii=False),
            "selected_parameters": chosen,
            "provided_parameters": chosen,
        })

    def validate_return_value(self, apis: Sequence[FunctionSchema], idx: int,
                              return_value: Any, arguments: dict[str, Any],
                              next_arguments: dict[str, Any]) -> tuple[bool, str]:
        return self._verdict("ValidateReturnValue", {
            **_return_step_fields(apis, idx),
            "return_value": json.dumps(return_value, ensure_ascii=False),
            "api_parameters": json.dumps(arguments, ensure_ascii=False),
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
