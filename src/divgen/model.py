"""Domain types for function libraries and generated datasets, plus persistence.

A function library is a JSON array of function definitions; a dataset is a
newline-delimited file with one JSON record per example. Both formats round-trip
exactly: ``read_dataset(write_dataset(X)) == X``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Any, Iterable

#: Reserved value marking a required parameter that was intentionally omitted
#: from a MISSING_PARAMS example.
MISSING_SENTINEL = "__MISSING__"


class ParamCategory(str, Enum):
    NUMERICAL = "NUMERICAL"
    STRING = "STRING"
    ENUM = "ENUM"
    OTHER = "OTHER"


class ExecutionType(str, Enum):
    SINGLE = "SINGLE"
    PARALLEL = "PARALLEL"
    SEQUENTIAL = "SEQUENTIAL"
    MISSING_PARAMS = "MISSING_PARAMS"
    NONE = "NONE"


class ModelError(ValueError):
    """Invalid domain object or malformed library/dataset input."""


_NUMERIC_TYPES = {"int", "integer", "float", "double", "number", "numeric", "long"}
_STRING_TYPES = {"str", "string", "text"}


def classify_parameter_type(declared_type: str, enum_values: Iterable[str] | None = None) -> ParamCategory:
    """Assign one of the four parameter categories.

    Enum values dominate; otherwise the declared type string must match a
    numeric or string type name exactly (after lowercasing). Everything else,
    including booleans and structured types such as ``array of string``, is
    OTHER. Total and deterministic.
    """
    if enum_values:
        return ParamCategory.ENUM
    norm = declared_type.strip().lower()
    if norm in _NUMERIC_TYPES:
        return ParamCategory.NUMERICAL
    if norm in _STRING_TYPES:
        return ParamCategory.STRING
    return ParamCategory.OTHER


@dataclass(frozen=True)
class ParameterSpec:
    """One typed parameter of a function."""

    name: str
    description: str
    declared_type: str
    category: ParamCategory
    enum_values: tuple[str, ...] = ()
    required: bool = True

    def __post_init__(self) -> None:
        if not self.name:
            raise ModelError("parameter name must be non-empty")
        if (self.category is ParamCategory.ENUM) != bool(self.enum_values):
            raise ModelError(
                f"parameter {self.name!r}: category ENUM iff enum_values non-empty"
            )


@dataclass(frozen=True)
class ReturnField:
    """One named field of a function's return schema (possibly nested)."""

    name: str
    declared_type: str
    description: str = ""
    fields: tuple["ReturnField", ...] = ()

    def to_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {"name": self.name, "type": self.declared_type}
        if self.description:
            d["description"] = self.description
        if self.fields:
            d["fields"] = [f.to_dict() for f in self.fields]
        return d


@dataclass(frozen=True)
class FunctionSchema:
    """One callable function. The name is preserved byte-exactly from the source."""

    name: str
    description: str
    parameters: tuple[ParameterSpec, ...] = ()
    return_fields: tuple[ReturnField, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ModelError("function name must be non-empty")
        names = [p.name for p in self.parameters]
        if len(names) != len(set(names)):
            raise ModelError(f"function {self.name!r}: duplicate parameter names")

    @property
    def required_parameters(self) -> tuple[ParameterSpec, ...]:
        return tuple(p for p in self.parameters if p.required)

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly schema used in prompts and artifacts."""
        params = []
        for p in self.parameters:
            pd: dict[str, Any] = {
                "name": p.name,
                "type": p.declared_type,
                "description": p.description,
                "required": p.required,
            }
            if p.enum_values:
                pd["enum"] = list(p.enum_values)
            params.append(pd)
        d: dict[str, Any] = {
            "name": self.name,
            "description": self.description,
            "parameters": params,
        }
        if self.return_fields:
            d["returns"] = [f.to_dict() for f in self.return_fields]
        return d


@dataclass(frozen=True)
class Invocation:
    """One ground-truth function call within an example."""

    function_name: str
    arguments: dict[str, Any] = field(default_factory=dict)
    order_index: int = 0

    def __post_init__(self) -> None:
        if self.order_index < 0:
            raise ModelError("order_index must be >= 0")

    def to_dict(self) -> dict[str, Any]:
        return {
            "function_name": self.function_name,
            "arguments": dict(self.arguments),
            "order_index": self.order_index,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "Invocation":
        if not isinstance(d["arguments"], dict):
            raise ModelError(f"arguments is not an object: {d['arguments']!r}")
        return cls(
            function_name=d["function_name"],
            arguments=dict(d["arguments"]),
            order_index=int(d["order_index"]),
        )


@dataclass(frozen=True)
class GeneratedExample:
    """One dataset row."""

    id: str
    execution_type: ExecutionType
    query: str
    target_invocations: tuple[Invocation, ...] = ()
    return_values: tuple[Any, ...] = ()
    candidate_functions: tuple[str, ...] = ()
    metadata: dict[str, Any] = field(default_factory=dict)

    def validate(self) -> None:
        """Raise ModelError when the structural invariants do not hold."""
        et = self.execution_type
        n = len(self.target_invocations)
        if et is ExecutionType.NONE:
            if n != 0:
                raise ModelError(f"{self.id}: NONE example must have no targets")
        else:
            if n == 0:
                raise ModelError(f"{self.id}: {et.value} example must have targets")
            missing = [
                inv.function_name
                for inv in self.target_invocations
                if inv.function_name not in self.candidate_functions
            ]
            if missing:
                raise ModelError(f"{self.id}: targets absent from candidates: {missing}")
        if et is ExecutionType.PARALLEL:
            if n < 2:
                raise ModelError(f"{self.id}: PARALLEL requires >= 2 invocations")
            if any(inv.order_index != 0 for inv in self.target_invocations):
                raise ModelError(f"{self.id}: PARALLEL invocations must all have order_index 0")
        if et is ExecutionType.SEQUENTIAL:
            if n < 2:
                raise ModelError(f"{self.id}: SEQUENTIAL requires >= 2 invocations")
            idx = [inv.order_index for inv in self.target_invocations]
            if idx != list(range(n)):
                raise ModelError(f"{self.id}: SEQUENTIAL order indices must be 0..{n - 1}")
            if len(self.return_values) != n - 1:
                raise ModelError(
                    f"{self.id}: SEQUENTIAL chain of {n} needs {n - 1} return values"
                )

    def to_dict(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "execution_type": self.execution_type.value,
            "query": self.query,
            "target_invocations": [inv.to_dict() for inv in self.target_invocations],
            "return_values": list(self.return_values),
            "candidate_functions": list(self.candidate_functions),
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "GeneratedExample":
        required = ("id", "execution_type", "query", "target_invocations",
                    "return_values", "candidate_functions", "metadata")
        for key in required:
            if key not in d:
                raise ModelError(f"record missing field {key!r}")
        if not isinstance(d["query"], str):
            raise ModelError(f"query is not a string: {d['query']!r}")
        for key in ("target_invocations", "return_values", "candidate_functions"):
            if not isinstance(d[key], list):
                raise ModelError(f"{key} is not a list: {d[key]!r}")
        if not all(isinstance(name, str) for name in d["candidate_functions"]):
            raise ModelError(f"candidate_functions holds a non-string: {d['candidate_functions']}")
        if not isinstance(d["metadata"], dict):
            raise ModelError(f"metadata is not an object: {d['metadata']!r}")
        return cls(
            id=d["id"],
            execution_type=ExecutionType(d["execution_type"]),
            query=d["query"],
            target_invocations=tuple(Invocation.from_dict(x) for x in d["target_invocations"]),
            return_values=tuple(d["return_values"]),
            candidate_functions=tuple(d["candidate_functions"]),
            metadata=dict(d["metadata"]),
        )


# ---------------------------------------------------------------------------
# Run configuration


def _check_finite(name: str, value: Any) -> None:
    """JSON reads ``NaN`` and ``Infinity``; no threshold or weight can use them."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ModelError(f"{name} must be a finite number, got {value!r}")


@dataclass
class RunConfig:
    """The settings a run can vary: the seed, the type mix, the cosine
    thresholds (their right values depend on the embedder's cosine scale),
    the loop budgets and the providers. The method's fixed constants live in
    the module that reads each one (``sampler``, ``paramgen``, ``querygen``,
    ``distractors``, ``engine``)."""

    rng_seed: int = 0
    type_weights: dict[str, float] = field(default_factory=lambda: {
        "SINGLE": 1.0,
        "PARALLEL": 1.0,
        "SEQUENTIAL": 1.0,
        "MISSING_PARAMS": 1.0,
        "NONE": 1.0,
    })
    group_threshold: float = 0.6          # cosine threshold for parameter grouping
    graph_threshold: float = 0.6          # edge threshold for the API similarity graph
    pairwise_similarity_threshold: float = 0.3
    rounds: int = 5                       # query-generation rounds
    retry_limit: int = 3
    pattern_period: int = 50              # accepted examples between pattern analyses
    chat_provider: str = "stub"
    embedding_provider: str = "hash"
    embedding_dimension: int = 384
    chat_endpoint: str = ""
    chat_model: str = ""
    embedding_endpoint: str = ""
    embedding_model: str = ""
    decode_params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if isinstance(self.rng_seed, bool) or not isinstance(self.rng_seed, int):
            raise ModelError(f"config rng_seed must be an integer, got {self.rng_seed!r}")
        for name in ("type_weights", "decode_params"):
            if not isinstance(value := getattr(self, name), dict):
                raise ModelError(f"config {name} must be a JSON object, got {value!r}")
        for name in ("rounds", "retry_limit", "pattern_period", "embedding_dimension"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value <= 0:
                raise ModelError(f"config {name} must be a positive integer, got {value!r}")
        for name in ("group_threshold", "graph_threshold", "pairwise_similarity_threshold"):
            _check_finite(f"config {name}", getattr(self, name))
        unknown = sorted(set(self.type_weights) - {t.value for t in ExecutionType})
        if unknown:
            raise ModelError(f"unknown execution types in type_weights: {unknown}")
        for name, w in self.type_weights.items():
            _check_finite(f"type_weights[{name!r}]", w)
        if any(w < 0 for w in self.type_weights.values()):
            raise ModelError("execution-type weights must be nonnegative")
        if sum(self.type_weights.values()) <= 0:
            raise ModelError("execution-type weights must sum to a positive value")

    def to_dict(self) -> dict[str, Any]:
        return {k: (dict(v) if isinstance(v, dict) else v) for k, v in self.__dict__.items()}

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "RunConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(d) - known
        if unknown:
            raise ModelError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# Function library loading


def _parse_parameter(raw: dict[str, Any], fn_name: str) -> ParameterSpec:
    if "name" not in raw or not raw["name"]:
        raise ModelError(f"function {fn_name!r}: parameter without a name")
    declared = str(raw.get("type", ""))
    if not declared:
        raise ModelError(f"function {fn_name!r}, parameter {raw['name']!r}: missing type")
    enum_values = tuple(str(v) for v in raw.get("enum", []) or [])
    return ParameterSpec(
        name=str(raw["name"]),
        description=str(raw.get("description", "")),
        declared_type=declared,
        category=classify_parameter_type(declared, enum_values),
        enum_values=enum_values,
        required=bool(raw.get("required", True)),
    )


def _parse_return_field(raw: dict[str, Any], fn_name: str) -> ReturnField:
    if "name" not in raw:
        raise ModelError(f"function {fn_name!r}: return field without a name")
    return ReturnField(
        name=str(raw["name"]),
        declared_type=str(raw.get("type", "")),
        description=str(raw.get("description", "")),
        fields=tuple(_parse_return_field(f, fn_name) for f in raw.get("fields", []) or []),
    )


def parse_function_library(entries: list[dict[str, Any]]) -> list[FunctionSchema]:
    """Build validated schemas from already-parsed JSON entries."""
    schemas: list[FunctionSchema] = []
    seen: set[str] = set()
    for i, raw in enumerate(entries):
        if not isinstance(raw, dict) or "name" not in raw:
            raise ModelError(f"library entry {i}: not a function definition object")
        name = str(raw["name"])
        if name in seen:
            raise ModelError(f"duplicate function name {name!r}")
        seen.add(name)
        schemas.append(
            FunctionSchema(
                name=name,
                description=str(raw.get("description", "")),
                parameters=tuple(_parse_parameter(p, name) for p in raw.get("parameters", []) or []),
                return_fields=tuple(
                    _parse_return_field(f, name) for f in raw.get("returns", []) or []
                ),
            )
        )
    return schemas


def load_function_library(path: str | Path) -> list[FunctionSchema]:
    """Load and validate a function library file (JSON array of definitions)."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelError(f"cannot parse {path}: {exc}") from exc
    if not isinstance(data, list):
        raise ModelError(f"{path}: library must be a JSON array of function definitions")
    return parse_function_library(data)


# ---------------------------------------------------------------------------
# Dataset persistence (one JSON record per line)


def write_dataset(examples: Iterable[GeneratedExample], path: str | Path) -> int:
    """Write examples as newline-delimited JSON; returns the number written.

    Every example is validated first; a violation rejects the whole write.
    """
    examples = list(examples)
    for ex in examples:
        ex.validate()
    with open(path, "w", encoding="utf-8") as fh:
        for ex in examples:
            fh.write(serialize_example(ex) + "\n")
    return len(examples)


def serialize_example(ex: GeneratedExample) -> str:
    return json.dumps(ex.to_dict(), ensure_ascii=False)


def read_dataset(path: str | Path, size: int | None = None) -> list[GeneratedExample]:
    """Read a newline-delimited dataset file, or its first ``size`` bytes; errors carry the line number."""
    with open(path, "rb") as fh:
        data = fh.read(size)
    out: list[GeneratedExample] = []
    for lineno, line in enumerate(data.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
            out.append(GeneratedExample.from_dict(record))
        except (ModelError, KeyError, ValueError, TypeError) as exc:  # JSONDecodeError is a ValueError
            raise ModelError(f"{path}: line {lineno}: {exc}") from exc
    return out
