"""Generic HTTP chat-completion and embedding clients.

Both speak the common OpenAI-compatible wire shape: POST ``/chat/completions``
with a messages array and POST ``/embeddings`` with an input list. Endpoint and
model come from configuration; the bearer token is read from an environment
variable so credentials never live in config files.
"""

from __future__ import annotations

import math
import os
from typing import Any, Mapping, Sequence

import numpy as np
import requests

from divgen.providers.base import ProviderError, RateLimitError, TransportError

DEFAULT_TOKEN_ENV = "DIVGEN_API_TOKEN"


def _headers(token_env: str) -> dict[str, str]:
    headers = {"Content-Type": "application/json"}
    token = os.environ.get(token_env, "")
    if token:
        headers["Authorization"] = f"Bearer {token}"
    return headers


def _retry_after(value: str | None) -> float | None:
    """Seconds from a numeric ``Retry-After`` header; None for a date or junk."""
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        return None
    return seconds if math.isfinite(seconds) and seconds >= 0 else None


def _post(url: str, payload: dict[str, Any], token_env: str, timeout: float) -> dict[str, Any]:
    try:
        resp = requests.post(url, json=payload, headers=_headers(token_env), timeout=timeout)
    except requests.RequestException as exc:
        raise TransportError(f"request to {url} failed: {exc}") from exc
    if resp.status_code == 429:
        raise RateLimitError(f"rate-limited by {url}",
                             _retry_after(resp.headers.get("Retry-After")))
    if resp.status_code >= 500:
        raise TransportError(f"{url} returned {resp.status_code}")
    if resp.status_code >= 400:
        raise ProviderError(f"{url} returned {resp.status_code}: {resp.text[:200]}")
    try:
        return resp.json()
    except ValueError as exc:
        raise TransportError(f"{url} returned non-JSON body") from exc


class HttpChat:
    def __init__(self, endpoint: str, model: str, token_env: str = DEFAULT_TOKEN_ENV,
                 timeout: float = 60.0):
        if not endpoint:
            raise ProviderError("chat endpoint not configured")
        self.endpoint = endpoint.rstrip("/")
        self.model = model
        self.token_env = token_env
        self.timeout = timeout

    def complete(self, prompt: str, params: Mapping[str, Any] | None = None) -> str:
        payload: dict[str, Any] = {
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
        }
        payload.update(dict(params or {}))
        data = _post(f"{self.endpoint}/chat/completions", payload, self.token_env, self.timeout)
        try:
            return data["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise TransportError("malformed chat completion response") from exc


class HttpEmbedder:
    def __init__(self, endpoint: str, model: str, dimension: int = 384,
                 token_env: str = DEFAULT_TOKEN_ENV, timeout: float = 60.0):
        if not endpoint:
            raise ProviderError("embedding endpoint not configured")
        self.endpoint = endpoint.rstrip("/")
        self.model = model
        self.dimension = dimension
        self.token_env = token_env
        self.timeout = timeout

    def embed(self, texts: Sequence[str]) -> list[np.ndarray]:
        if len(texts) == 0:
            raise ValueError("embed requires at least one text")
        data = _post(
            f"{self.endpoint}/embeddings",
            {"model": self.model, "input": list(texts)},
            self.token_env,
            self.timeout,
        )
        try:
            rows = sorted(data["data"], key=lambda r: r["index"])
            out = [np.asarray(r["embedding"], dtype=np.float64) for r in rows]
        except (KeyError, TypeError) as exc:
            raise TransportError("malformed embedding response") from exc
        if len(out) != len(texts):
            raise TransportError("embedding response count mismatch")
        return out
