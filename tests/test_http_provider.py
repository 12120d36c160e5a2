import json

import pytest

from divgen.providers.base import ProviderError, RateLimitError, TransportError
from divgen.providers.http import HttpChat, HttpEmbedder


class FakeResponse:
    def __init__(self, status_code, payload=None, text="", headers=None):
        self.status_code = status_code
        self._payload = payload
        self.text = text or json.dumps(payload or {})
        self.headers = headers or {}

    def json(self):
        if self._payload is None:
            raise ValueError("no body")
        return self._payload


def patch_post(monkeypatch, response):
    captured = {}

    def fake_post(url, json=None, headers=None, timeout=None):
        captured["url"] = url
        captured["payload"] = json
        captured["headers"] = headers
        return response if not callable(response) else response()

    monkeypatch.setattr("divgen.providers.http.requests.post", fake_post)
    return captured


def test_chat_happy_path(monkeypatch):
    payload = {"choices": [{"message": {"content": "the reply"}}]}
    captured = patch_post(monkeypatch, FakeResponse(200, payload))
    chat = HttpChat("https://llm.example/v1", "test-model")
    assert chat.complete("hello", {"temperature": 0.2}) == "the reply"
    assert captured["url"] == "https://llm.example/v1/chat/completions"
    assert captured["payload"]["temperature"] == 0.2
    assert captured["payload"]["messages"][0]["content"] == "hello"


def test_chat_rate_limit_maps_to_retryable(monkeypatch):
    patch_post(monkeypatch, FakeResponse(429, {}))
    chat = HttpChat("https://llm.example/v1", "m")
    with pytest.raises(RateLimitError) as err:
        chat.complete("x")
    assert err.value.retryable


@pytest.mark.parametrize("header, seconds", [
    ({"Retry-After": "12"}, 12.0),
    ({"Retry-After": "0.5"}, 0.5),
    ({"Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"}, None),
    ({"Retry-After": "-3"}, None),
    ({}, None),
])
def test_rate_limit_carries_a_numeric_retry_after(monkeypatch, header, seconds):
    patch_post(monkeypatch, FakeResponse(429, {}, headers=header))
    with pytest.raises(RateLimitError) as err:
        HttpChat("https://llm.example/v1", "m").complete("x")
    assert err.value.retry_after == seconds


def test_chat_server_error_is_transport(monkeypatch):
    patch_post(monkeypatch, FakeResponse(503, {}))
    with pytest.raises(TransportError):
        HttpChat("https://llm.example/v1", "m").complete("x")


def test_chat_client_error_is_not_retryable(monkeypatch):
    patch_post(monkeypatch, FakeResponse(400, {"error": "bad"}))
    with pytest.raises(ProviderError) as err:
        HttpChat("https://llm.example/v1", "m").complete("x")
    assert not err.value.retryable


def test_chat_token_from_environment(monkeypatch):
    payload = {"choices": [{"message": {"content": "ok"}}]}
    captured = patch_post(monkeypatch, FakeResponse(200, payload))
    monkeypatch.setenv("DIVGEN_API_TOKEN", "secret-token")
    HttpChat("https://llm.example/v1", "m").complete("x")
    assert captured["headers"]["Authorization"] == "Bearer secret-token"


def test_embedder_happy_path_and_order(monkeypatch):
    payload = {"data": [
        {"index": 1, "embedding": [0.0, 1.0]},
        {"index": 0, "embedding": [1.0, 0.0]},
    ]}
    patch_post(monkeypatch, FakeResponse(200, payload))
    emb = HttpEmbedder("https://emb.example/v1", "embed-model", dimension=2)
    vecs = emb.embed(["first", "second"])
    assert vecs[0].tolist() == [1.0, 0.0]
    assert vecs[1].tolist() == [0.0, 1.0]


def test_embedder_count_mismatch(monkeypatch):
    payload = {"data": [{"index": 0, "embedding": [1.0]}]}
    patch_post(monkeypatch, FakeResponse(200, payload))
    with pytest.raises(TransportError, match="count mismatch"):
        HttpEmbedder("https://emb.example/v1", "m").embed(["a", "b"])


def test_missing_endpoint_rejected():
    with pytest.raises(ProviderError):
        HttpChat("", "m")
    with pytest.raises(ProviderError):
        HttpEmbedder("", "m")
