"""Generic HTTP chat-completion and embedding clients.

Both speak the common OpenAI-compatible wire shape: POST ``/chat/completions``
with a messages array and POST ``/embeddings`` with an input list. Endpoint and
model come from configuration; the bearer token is read from the ``TOKEN_ENV``
environment variable so credentials never live in config files.
"""

from __future__ import annotations

import math
import os
from typing import Any, Mapping, Sequence

import numpy as np
import requests

from divgen.providers.base import ProviderError, RateLimitError, TransportError

TOKEN_ENV = "DIVGEN_API_TOKEN"
TIMEOUT_S = 60.0  # seconds a request may take before it is a transport failure


def _headers() -> dict[str, str]:
    headers = {"Content-Type": "application/json"}
    token = os.environ.get(TOKEN_ENV, "")
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


def _post(url: str, payload: dict[str, Any]) -> dict[str, Any]:
    try:
        resp = requests.post(url, json=payload, headers=_headers(), timeout=TIMEOUT_S)
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
    def __init__(self, endpoint: str, model: str):
        if not endpoint:
            raise ProviderError("chat endpoint not configured")
        self.endpoint = endpoint.rstrip("/")
        self.model = model

    def complete(self, prompt: str, params: Mapping[str, Any] | None = None) -> str:
        payload: dict[str, Any] = {
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
        }
        payload.update(dict(params or {}))
        data = _post(f"{self.endpoint}/chat/completions", payload)
        try:
            content = data["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise TransportError("malformed chat completion response") from exc
        # a null or structured content carries no text: an empty reply, re-prompted
        return content if isinstance(content, str) else ""


class HttpEmbedder:
    def __init__(self, endpoint: str, model: str, dimension: int):
        if not endpoint:
            raise ProviderError("embedding endpoint not configured")
        self.endpoint = endpoint.rstrip("/")
        self.model = model
        self.dimension = dimension

    def embed(self, texts: Sequence[str]) -> list[np.ndarray]:
        if len(texts) == 0:
            raise ValueError("embed requires at least one text")
        data = _post(f"{self.endpoint}/embeddings", {"model": self.model, "input": list(texts)})
        try:
            rows = sorted(data["data"], key=lambda r: r["index"])
            out = [np.asarray(r["embedding"], dtype=np.float64) for r in rows]
        except (KeyError, TypeError, ValueError) as exc:
            raise TransportError("malformed embedding response") from exc
        if len(out) != len(texts):
            raise TransportError("embedding response count mismatch")
        for i, row in enumerate(out):
            if row.shape != (self.dimension,) or not np.isfinite(row).all():
                raise TransportError(
                    f"embedding row {i}: expected {self.dimension} finite values")
        return out
