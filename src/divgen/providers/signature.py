"""Field-structured prompt templates with a bit-exact render/parse format.

Every LLM interaction is a named signature: an objective, ordered input fields,
and ordered output fields. Rendering produces a single prompt text; the model's
reply carries each output field under a ``[[ ## name ## ]]`` marker and ends
with ``[[ ## completed ## ]]``. Parsing is position-based, so out-of-order but
complete replies still round-trip.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping

COMPLETED_MARKER = "[[ ## completed ## ]]"

_MARKER_RE = re.compile(r"\[\[ ## ([A-Za-z0-9_]+) ## \]\]")


def marker(name: str) -> str:
    """The byte-exact field marker: ``[[ ## name ## ]]``."""
    return f"[[ ## {name} ## ]]"


class SignatureError(ValueError):
    """Invalid signature definition or render inputs."""


class SignatureParseError(ValueError):
    """A reply did not carry every declared output field."""

    def __init__(self, signature: str, missing: list[str]):
        self.signature = signature
        self.missing = list(missing)
        super().__init__(
            f"signature {signature!r}: output missing fields: {', '.join(missing)}"
        )


@dataclass(frozen=True)
class Field:
    name: str
    description: str = ""


@dataclass(frozen=True)
class PromptSignature:
    """A named LLM interaction template."""

    name: str
    objective: str
    input_fields: tuple[Field, ...]
    output_fields: tuple[Field, ...]

    def __post_init__(self) -> None:
        names = [f.name for f in self.input_fields + self.output_fields]
        if len(names) != len(set(names)):
            raise SignatureError(f"signature {self.name!r}: duplicate field names")
        if not self.output_fields:
            raise SignatureError(f"signature {self.name!r}: needs at least one output field")
        for n in names:
            if not re.fullmatch(r"[A-Za-z0-9_]+", n):
                raise SignatureError(f"signature {self.name!r}: bad field name {n!r}")

    @property
    def output_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.output_fields)


def _field_docs(fields: tuple[Field, ...]) -> str:
    return "\n".join(
        f"{i}. `{f.name}` (str): {f.description}" for i, f in enumerate(fields, start=1)
    )


def render_signature(sig: PromptSignature, inputs: Mapping[str, str]) -> str:
    """Render the full prompt for one interaction.

    The text carries, in order: the input/output field documentation, the
    objective, one marker block per input field with its value filled in, the
    bare output-field markers, and the completed marker last. Each declared
    input field is taken from ``inputs``, which may carry more keys than the
    signature declares: the others are left out of the prompt, so a caller can
    pass one context to several signatures. A declared field absent from
    ``inputs`` raises SignatureError.
    """
    missing = [f.name for f in sig.input_fields if f.name not in inputs]
    if missing:
        raise SignatureError(
            f"signature {sig.name!r}: {', '.join(missing)} not provided"
        )
    parts = [
        "Your input fields are:",
        _field_docs(sig.input_fields),
        "",
        "Your output fields are:",
        _field_docs(sig.output_fields),
        "",
        "All interactions will be structured in the following way, with the appropriate values filled in.",
        "",
        "In adhering to this structure, your objective is: ",
        sig.objective,
        "",
    ]
    for f in sig.input_fields:
        parts.append(marker(f.name))
        parts.append(str(inputs[f.name]))
        parts.append("")
    for f in sig.output_fields:
        parts.append(marker(f.name))
        parts.append("")
    parts.append(COMPLETED_MARKER)
    return "\n".join(parts)


def format_output(sig: PromptSignature, values: Mapping[str, str]) -> str:
    """Build a well-formed reply text carrying the given output-field values.

    Used by scripted providers and tests; ``parse_signature_output`` is its
    inverse for values that contain no marker substrings.
    """
    parts: list[str] = []
    for f in sig.output_fields:
        parts.append(marker(f.name))
        parts.append(str(values.get(f.name, "")))
        parts.append("")
    parts.append(COMPLETED_MARKER)
    return "\n".join(parts)


def parse_blocks(text: str) -> dict[str, str]:
    """Map each marker's name to its block, the text up to the next marker (or
    the end of text), trimmed; the first occurrence of a name wins."""
    matches = list(_MARKER_RE.finditer(text))
    ends = [m.start() for m in matches[1:]] + [len(text)]
    found: dict[str, str] = {}
    for m, end in zip(matches, ends):
        found.setdefault(m.group(1), text[m.end():end].strip())
    return found


def parse_signature_output(text: str, sig: PromptSignature) -> dict[str, str]:
    """Extract each declared output field from a reply by ``parse_blocks``.
    Raises SignatureParseError listing every absent declared field."""
    found = parse_blocks(text)
    missing = [n for n in sig.output_names if n not in found]
    if missing:
        raise SignatureParseError(sig.name, missing)
    return {n: found[n] for n in sig.output_names}
