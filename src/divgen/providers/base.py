"""Provider contracts, typed transport errors, and the retrying signature client."""

from __future__ import annotations

import time
from typing import Any, Callable, Mapping, Protocol, Sequence, runtime_checkable

import numpy as np

from divgen.providers.signature import (
    PromptSignature,
    SignatureParseError,
    parse_signature_output,
    render_signature,
)


class ProviderError(RuntimeError):
    """Base class for provider failures."""

    retryable = False


class TransportError(ProviderError):
    """Network failure, timeout, or 5xx response."""

    retryable = True


class RateLimitError(ProviderError):
    """Provider asked us to back off, for ``retry_after`` seconds if it said."""

    retryable = True

    def __init__(self, message: str, retry_after: float | None = None):
        super().__init__(message)
        self.retry_after = retry_after


# Back-off before retrying a rate-limited call that named no delay: doubling
# with each attempt from BACKOFF_BASE_S, at most BACKOFF_CAP_S.
BACKOFF_BASE_S = 1.0
BACKOFF_CAP_S = 30.0


@runtime_checkable
class ChatProvider(Protocol):
    def complete(self, prompt: str, params: Mapping[str, Any] | None = None) -> str:
        """Return the model's raw reply text for one prompt."""
        ...


@runtime_checkable
class EmbeddingProvider(Protocol):
    dimension: int

    def embed(self, texts: Sequence[str]) -> list[np.ndarray]:
        """One vector per text, same order; identical text gives identical vectors."""
        ...


class SignatureClient:
    """Render/complete/parse loop with bounded retries.

    A parse failure triggers one re-prompt per attempt, with the missing-field
    list appended so the model can repair its reply. Retryable transport errors
    consume the same budget; before retrying a rate-limited call the client
    sleeps the provider's ``retry_after``, or else a capped exponential delay.
    ``retry_limit`` (at least 1) and ``decode_params`` are the run's
    ``RunConfig`` values.
    """

    def __init__(self, chat: ChatProvider, retry_limit: int,
                 decode_params: Mapping[str, Any],
                 sleep: Callable[[float], None] = time.sleep):
        self.chat = chat
        self.retry_limit = retry_limit
        self.decode_params = dict(decode_params)
        self.sleep = sleep

    def call(self, sig: PromptSignature, inputs: Mapping[str, str]) -> dict[str, str]:
        prompt = render_signature(sig, inputs)
        attempt_prompt = prompt
        last_error: Exception | None = None
        for attempt in range(self.retry_limit):
            try:
                reply = self.chat.complete(attempt_prompt, self.decode_params)
            except ProviderError as exc:
                if not exc.retryable:
                    raise
                last_error = exc
                if isinstance(exc, RateLimitError) and attempt + 1 < self.retry_limit:
                    self.sleep(exc.retry_after if exc.retry_after is not None
                               else min(BACKOFF_CAP_S, BACKOFF_BASE_S * 2 ** attempt))
                continue
            try:
                return parse_signature_output(reply, sig)
            except SignatureParseError as exc:
                last_error = exc
                attempt_prompt = (
                    prompt
                    + "\n\nYour previous reply was missing the required fields: "
                    + ", ".join(exc.missing)
                    + ". Reply again with every output field present."
                )
        assert last_error is not None
        raise last_error
