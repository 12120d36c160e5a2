import hashlib

import numpy as np
import pytest

from divgen.metrics.text import tokenize
from divgen.providers import catalog
from divgen.providers.base import RateLimitError, SignatureClient, TransportError
from divgen.providers.hash_embed import HashEmbedder
from divgen.providers.mock import ScriptedChat, StubChat, UnscriptedPromptError
from divgen.providers.signature import (
    SignatureParseError,
    format_output,
    render_signature,
)


def test_scripted_mock_signature_match():
    chat = ScriptedChat()
    sig = catalog.get("APIQueryJudge")
    reply = format_output(sig, {"reasoning": "fits", "is_reasonable": "YES"})
    chat.script(reply, signature="APIQueryJudge")
    prompt = render_signature(sig, {"query": "q", "api_schema": "{}",
                                    "target_parameters": "{}"})
    assert chat.complete(prompt) == reply


def test_scripted_mock_unscripted_prompt_errors():
    with pytest.raises(UnscriptedPromptError, match="unscripted prompt"):
        ScriptedChat().complete("anything")


def test_scripted_mock_consumes_sequences():
    chat = ScriptedChat().script(["one", "two"], contains="x")
    assert chat.complete("x") == "one"
    assert chat.complete("x") == "two"
    assert chat.complete("x") == "two"  # last repeats


def test_signature_client_retries_on_missing_fields():
    sig = catalog.get("APIQueryJudge")
    good = format_output(sig, {"reasoning": "ok", "is_reasonable": "YES"})
    chat = ScriptedChat().script(["[[ ## reasoning ## ]]\nonly this", good],
                                 signature="APIQueryJudge")
    client = SignatureClient(chat, 3, {})
    out = client.call(sig, {"query": "q", "api_schema": "{}",
                            "target_parameters": "{}"})
    assert out["is_reasonable"] == "YES"
    assert len(chat.calls) == 2
    assert "missing the required fields: is_reasonable" in chat.calls[1]


def test_signature_client_exhausts_budget():
    sig = catalog.get("APIQueryJudge")
    chat = ScriptedChat().script("no markers here", signature="APIQueryJudge")
    client = SignatureClient(chat, 2, {})
    with pytest.raises(SignatureParseError):
        client.call(sig, {"query": "q", "api_schema": "{}",
                          "target_parameters": "{}"})
    assert len(chat.calls) == 2


def test_signature_client_retries_transport_errors():
    sig = catalog.get("APIQueryJudge")
    good = format_output(sig, {"reasoning": "ok", "is_reasonable": "YES"})
    calls = {"n": 0}

    class Flaky:
        def complete(self, prompt, params=None):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RateLimitError("429")
            if calls["n"] == 2:
                raise TransportError("boom")
            return good

    slept = []
    out = SignatureClient(Flaky(), 3, {}, sleep=slept.append).call(
        sig, {"query": "q", "api_schema": "{}", "target_parameters": "{}"})
    assert out["is_reasonable"] == "YES"
    assert calls["n"] == 3
    assert slept == [1.0]  # the rate limit backs off; the transport error does not


class RateLimited:
    """Raises RateLimitError (with the given retry_after values, in turn) for
    the first ``times`` calls, then answers."""

    def __init__(self, times, retry_after=(), reply=""):
        self.times, self.retry_after, self.reply = times, list(retry_after), reply
        self.calls = 0

    def complete(self, prompt, params=None):
        self.calls += 1
        if self.calls <= self.times:
            after = self.retry_after[self.calls - 1] if self.retry_after else None
            raise RateLimitError("429", retry_after=after)
        return self.reply


JUDGE_INPUTS = {"query": "q", "api_schema": "{}", "target_parameters": "{}"}


def test_rate_limit_sleeps_the_providers_retry_after():
    sig = catalog.get("APIQueryJudge")
    chat = RateLimited(2, retry_after=[7.5, 0.0],
                       reply=format_output(sig, {"reasoning": "ok", "is_reasonable": "YES"}))
    slept = []
    out = SignatureClient(chat, 3, {}, sleep=slept.append).call(sig, JUDGE_INPUTS)
    assert out["is_reasonable"] == "YES"
    assert slept == [7.5, 0.0]


def test_rate_limit_without_retry_after_backs_off_exponentially_up_to_a_cap():
    sig = catalog.get("APIQueryJudge")
    chat = RateLimited(100)
    slept = []
    with pytest.raises(RateLimitError):
        SignatureClient(chat, 8, {}, sleep=slept.append).call(sig, JUDGE_INPUTS)
    assert chat.calls == 8  # the retry budget is unchanged
    assert slept == [1.0, 2.0, 4.0, 8.0, 16.0, 30.0, 30.0]  # no sleep after the last try


def test_hash_embedder_determinism_and_geometry():
    emb = HashEmbedder()
    a1, a2 = emb.embed(["The same string", "The same string"])
    assert np.allclose(a1, a2)
    assert a1.shape == (384,)
    assert abs(float(np.linalg.norm(a1)) - 1.0) < 1e-12
    u, v = emb.embed(["alpha beta gamma", "delta epsilon zeta"])
    assert abs(float(u @ v)) < 1e-12  # token-disjoint, no collisions here
    assert float(u.min()) >= 0.0


def test_hash_embedder_counts_md5_buckets_and_holds_no_text_state():
    texts = ["Find a hotel in Rome, a cheap hotel.", "42 flights", "!!!", "Find a hotel"]
    emb = HashEmbedder(16)
    for text, vec in zip(texts, emb.embed(texts)):
        want = np.zeros(16)
        for token in tokenize(text):
            want[int.from_bytes(hashlib.md5(token.encode("utf-8")).digest()[:8], "big") % 16] += 1
        norm = np.linalg.norm(want)
        assert vec.tobytes() == (want / norm if norm else want).tobytes()
    # a run's EmbeddingCache is its one text-to-vector memo
    assert vars(HashEmbedder()) == {"dimension": 384}


def test_hash_embedder_empty_list_errors():
    with pytest.raises(ValueError):
        HashEmbedder().embed([])


def test_stub_chat_is_deterministic_and_covers_catalog():
    stub = StubChat()
    sig = catalog.get("ParameterSetValidator")
    prompt = render_signature(sig, {
        "api_name": "f", "api_description": "d",
        "full_parameter_schema": "[]", "selected_parameters": "{}"})
    assert stub.complete(prompt) == stub.complete(prompt)
    from divgen.providers.signature import parse_signature_output
    out = parse_signature_output(stub.complete(prompt), sig)
    assert out["is_valid"] == "YES"
    with pytest.raises(UnscriptedPromptError):
        stub.complete("free-form prompt with no known objective")
