"""Offline chat providers: a strict scripted mock and a deterministic stub.

``ScriptedChat`` is for tests: responses are registered per signature (or per
prompt substring) and any unscripted prompt raises. ``StubChat`` answers every
catalog signature with plausible, deterministic content derived purely from the
prompt text, which makes full pipeline runs reproducible byte-for-byte with no
network access.
"""

from __future__ import annotations

import hashlib
import json
import threading
from typing import Any, Callable, Mapping, Sequence

from divgen.providers import catalog
from divgen.providers.base import ProviderError
from divgen.providers.signature import PromptSignature, format_output, parse_blocks

Responder = Callable[[str], str]


class UnscriptedPromptError(ProviderError):
    """The scripted mock received a prompt with no registered response."""

    retryable = False


class ScriptedChat:
    """Deterministic mock with explicit scripts and strict failure otherwise."""

    def __init__(self) -> None:
        self._rules: list[tuple[Callable[[str], bool], list[str | Responder]]] = []
        self._lock = threading.Lock()
        self.calls: list[str] = []

    def script(
        self,
        responses: Sequence[str | Responder] | str | Responder,
        *,
        signature: str | PromptSignature | None = None,
        contains: str | None = None,
    ) -> "ScriptedChat":
        """Register responses for prompts matching the given condition.

        With a list, responses are consumed one per call and the last one
        repeats. ``signature`` matches any prompt rendered from that catalog
        signature; ``contains`` matches a substring.
        """
        if isinstance(responses, (str,)) or callable(responses):
            responses = [responses]
        conditions = []
        if signature is not None:
            objective = (
                signature.objective
                if isinstance(signature, PromptSignature)
                else catalog.get(signature).objective
            )
            conditions.append(lambda p, _o=objective: _o in p)
        if contains is not None:
            conditions.append(lambda p, _c=contains: _c in p)
        matcher = (lambda p, _cs=tuple(conditions): all(c(p) for c in _cs))
        self._rules.append((matcher, list(responses)))
        return self

    def script_output(self, sig_name: str, values: Mapping[str, str], **kw: Any) -> "ScriptedChat":
        """Script a well-formed signature reply built from output-field values."""
        sig = catalog.get(sig_name)
        return self.script(format_output(sig, values), signature=sig_name, **kw)

    def complete(self, prompt: str, params: Mapping[str, Any] | None = None) -> str:
        with self._lock:
            self.calls.append(prompt)
            for matcher, responses in self._rules:
                if matcher(prompt):
                    item = responses.pop(0) if len(responses) > 1 else responses[0]
                    return item(prompt) if callable(item) else item
        raise UnscriptedPromptError("unscripted prompt")


# ---------------------------------------------------------------------------
# Deterministic stub


_TOPICS = [
    "weekend plans", "a client briefing", "my travel budget", "the quarterly report",
    "a school project", "an upcoming trip", "tonight's dinner party", "a research memo",
    "the family reunion", "a product launch", "my thesis defense", "a charity event",
]
_PERSONAS = [
    "busy parent", "financial analyst", "travel blogger", "graduate student",
    "event coordinator", "retired teacher", "startup founder", "city official",
]
_OPENERS = [
    "Could you", "Please", "I need you to", "Would you kindly", "Help me",
    "Quick favor:", "For context,", "Whenever you get a chance,",
]


def _digest(*parts: str) -> int:
    h = hashlib.md5("␟".join(parts).encode("utf-8")).digest()
    return int.from_bytes(h[:8], "big")


class StubChat:
    """Answers every catalog signature deterministically from the prompt alone."""

    def complete(self, prompt: str, params: Mapping[str, Any] | None = None) -> str:
        name = catalog.identify(prompt)
        if name is None:
            raise UnscriptedPromptError("unscripted prompt")
        sig = catalog.get(name)
        fields = parse_blocks(prompt)
        values = self._respond(name, fields)
        values.setdefault("reasoning", "Checked the request against the provided context.")
        return format_output(sig, values)

    # Per-signature behavior. Everything is a pure function of the prompt.
    def _respond(self, name: str, f: dict[str, str]) -> dict[str, str]:
        if name in ("GenerateMultipleStringParameters", "GenerateMultipleNumericalParameters"):
            return {"generated_values": self._candidate_values(name, f)}
        if name in ("GenerateOtherParameter", "GenerateCohesiveOtherParameter",
                    "GenerateSequentialCohesiveOtherParameter"):
            h = _digest(name, f.get("parameter_name", ""), f.get("other_parameter_values", ""))
            return {"generated_value": json.dumps([f"label-{h % 9973:04d}"])}
        if "Cohesive" in name:  # STRING or NUMERICAL: OTHER is answered above
            sequential = name.startswith("GenerateSequential")
            context = f.get("return_value" if sequential else "parallel_context_parameters", "")
            h = _digest(name, f.get("parameter_name", ""), context)
            if name.endswith("NumericalParameter"):
                return {"generated_value": str(h % 500)}
            prefix = "chained" if sequential else "shared"
            return {"generated_value": f"{prefix} {f.get('parameter_name', 'value')} {h % 9973:04d}"}
        if name == "GenerateReturnValue":
            h = _digest(name, f.get("api_name", ""), f.get("next_api_parameters_values", ""))
            return {"return_value": json.dumps({"value": f"result-{h % 99991:05d}"})}
        if name in ("ParameterSetValidator", "PartialParameterSetValidator",
                    "ValidateReturnValue", "ValidateSequentialChain",
                    "ValidateSequentialInvocation", "ValidateParallelInvocation"):
            return {"is_valid": "YES"}
        if name == "ValidateSequentialSchemaCompatibility":
            return {"is_compatible": "YES"}
        if name.endswith("QueryGenerator"):
            return self._queries(name, f)
        if name.endswith("QueryJudge"):
            return {"is_reasonable": self._verdicts(f.get("query", ""))}
        if name == "DatasetPatternAnalysis":
            return {"pattern_analysis": "Requests lean on a formal, informational tone"
                                        " with recurring personas."}
        if name == "DiversityGuidanceGeneration":
            return {"diversity_guidance": "Vary tone and sentence shape; rotate personas;"
                                          " bring in unrelated everyday scenarios."}
        if name in ("BatchAPIRelevanceScorer", "ParallelAPIRelevanceScorer"):
            return {"scores": self._scores(f)}
        if name == "ConstructSequentialInvocation":
            return {"next_api": ""}
        if name == "ConstructParallelInvocation":
            return {"invocation_apis": "[]"}
        if name == "ToolCallEquivalence":
            return {"equivalent": "YES"}
        raise UnscriptedPromptError(f"stub has no behavior for signature {name}")

    def _candidate_values(self, name: str, f: dict[str, str]) -> str:
        count = int(f.get("num_candidates", "25"))
        pname = f.get("parameter_name", "value")
        base = _digest(name, pname, f.get("existing_values", ""),
                       f.get("other_parameter_values", ""))
        if name.endswith("NumericalParameters"):
            vals: list[Any] = [((base + 7919 * i) % 100000) + round(i * 0.5, 1)
                               for i in range(count)]
        else:
            vals = [f"{pname} item {(base + 7919 * i) % 100000:05d}" for i in range(count)]
        return json.dumps(vals)

    def _queries(self, name: str, f: dict[str, str]) -> dict[str, str]:
        subject = "general knowledge"
        for key in ("api_schema", "api_schemas"):
            raw = f.get(key)
            if raw:
                try:
                    parsed = json.loads(raw)
                except json.JSONDecodeError:
                    parsed = None
                if isinstance(parsed, dict):
                    subject = str(parsed.get("name", subject))
                elif isinstance(parsed, list) and parsed:
                    subject = " and ".join(str(p.get("name", "?")) for p in parsed
                                           if isinstance(p, dict))
                break
        h = _digest(name, subject, f.get("previous_attempts", ""),
                    f.get("dataset_guidance", ""))
        out: dict[str, str] = {}
        for i in range(5):
            topic = _TOPICS[(h + 3 * i) % len(_TOPICS)]
            persona = _PERSONAS[(h // 7 + i) % len(_PERSONAS)]
            opener = _OPENERS[(h // 13 + 2 * i) % len(_OPENERS)]
            token = (h + 131 * i) % 9973
            if name == "NoAPIQueryGenerator":
                q = (f"{opener} explain what matters most about {topic}, "
                     f"speaking as a {persona}; note {token} is unrelated.")
            else:
                q = (f"{opener} handle {subject} for {topic} as a {persona} "
                     f"would, reference {token}.")
            out[f"query_{i + 1}"] = q
        return out

    def _verdicts(self, query_field: str) -> str:
        try:
            parsed = json.loads(query_field)
        except json.JSONDecodeError:
            parsed = None
        if isinstance(parsed, list):
            return json.dumps(["YES"] * len(parsed))
        return "YES"

    def _scores(self, f: dict[str, str]) -> str:
        try:
            apis = json.loads(f.get("apis", "[]"))
        except json.JSONDecodeError:
            apis = []
        targets: set[str] = set()
        raw_target = f.get("target_api", "")
        if raw_target:
            targets.add(raw_target)
        try:
            parsed_targets = json.loads(f.get("target_apis", "[]"))
            if isinstance(parsed_targets, list):
                targets.update(str(t) for t in parsed_targets)
        except json.JSONDecodeError:
            pass
        rows = []
        for api in apis:
            api_name = str(api.get("name", "")) if isinstance(api, dict) else str(api)
            if api_name in targets:
                score = 5
            else:
                roll = _digest("score", api_name, f.get("query", "")) % 10
                score = 1 if roll < 6 else (2 if roll < 9 else 3)
            rows.append({"api_name": api_name, "score": score,
                         "reasoning": "relevance estimate"})
        return json.dumps(rows)
