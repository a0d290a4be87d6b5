"""Chat-completion providers: one real HTTP client plus deterministic doubles.

All providers share the same contract: ``complete(prompt) -> Completion``
sends exactly one request, safe to call from many worker threads at once.
A request worth repeating raises ``TransportError`` with the server's
``retry_after``; any other ``ProviderError`` is final. A provider only
sends: ``router.run_calls`` bounds the requests in flight, counts the
attempts and asks a ``router.Pacing`` when each one goes (``--rps``,
``Retry-After``, seeded jitter, ``max_retries``). Subclasses implement a
single ``_request`` hook; the base class keeps the latency and a
peak-concurrency count.

The wire protocol of HttpProvider is the de-facto chat-completions JSON
shape, so any compatible endpoint works: POST {"model", "messages"} with a
bearer token, read choices[0].message.content. It goes over kept-alive
HTTP/1.1 connections, spoken by the small client in ``ivroute.httpclient``.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import namedtuple
from typing import NamedTuple

DEFAULT_API_KEY_ENV = "IVR_LLM_API_KEY"

RETRYABLE_STATUSES = frozenset({429, 500, 502, 503, 504})
# Statuses whose Retry-After header is read.
RETRY_AFTER_STATUSES = frozenset({429, 503})


class ProviderError(Exception):
    """Base class for completion failures."""


class TransportError(ProviderError):
    """Network failure or retryable HTTP status: ``router.run_calls``
    retries the attempt that raised it when its ``Pacing`` says, and past
    ``max_retries`` fails the call with a TransportError("gave up after ...").

    ``retry_after`` is the server's Retry-After header value, if it sent one.
    """

    def __init__(self, message: str, retry_after: str | None = None):
        super().__init__(message)
        self.retry_after = retry_after


class ProtocolError(ProviderError):
    """The endpoint answered, but not with a usable completion body."""


# Each setting, by its config-file key: its flag and the flag's help; its
# default, and None is a value only where it is the default; its type, str,
# int or float (which takes an int too), never a bool; and for a number, the
# interval it must lie in, "[low, high]" with a parenthesis at an open end.
# No wait can be longer than threading.TIMEOUT_MAX, the longest a lock or a
# socket takes: that bounds the timeout, and the turn that --rps sets.
SETTINGS = {
    "endpoint_url": ("--endpoint", "chat-completions endpoint URL (http provider)", "", str, ""),
    "model_name": ("--model", "model name sent with each request", "mock", str, ""),
    "api_key_env": ("--api-key-env", f"environment variable holding the bearer token (default {DEFAULT_API_KEY_ENV})",
                    DEFAULT_API_KEY_ENV, str, ""),
    "temperature": ("--temperature", "sampling temperature (default: unset)", None, float, "[0, 2]"),
    "max_retries": ("--max-retries", "retry budget for transport failures", 3, int, "[0, 5]"),
    "request_timeout": ("--timeout", "per-request timeout in seconds", 60.0, float, f"(0, {threading.TIMEOUT_MAX}]"),
    "max_in_flight": ("--max-in-flight", "concurrent request cap", 4, int, "[1, inf)"),
    "requests_per_second": ("--rps", "client-side requests-per-second cap", None, float,
                            f"[{1 / threading.TIMEOUT_MAX}, inf)"),
}
_TYPE_WORDS = {str: "a string", int: "an integer", float: "a number"}


def _within(interval: str, value) -> bool:
    low, high = (float(end) for end in interval[1:-1].split(","))
    return ((low <= value) if interval[0] == "[" else (low < value)) and (
        (value <= high) if interval[-1] == "]" else (value < high))


class ProviderConfig(namedtuple("ProviderConfig", SETTINGS,
                                defaults=[default for _, _, default, _, _ in SETTINGS.values()])):
    """A ``temperature`` of None keeps the endpoint's default: the field is not sent."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> ProviderConfig:
        self = super().__new__(cls, *args, **kwargs)
        for (name, (_, _, default, kind, interval)), value in zip(SETTINGS.items(), self):
            if value is None and default is None:
                continue
            what = _TYPE_WORDS[kind] + (interval and f" in {interval}")
            if type(value) is not kind and not (kind is float and type(value) is int):
                raise TypeError(f"{name} must be {what}, not {value!r}")
            if interval and not _within(interval, value):
                raise ValueError(f"{name} must be {what}, not {value!r}")
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too


def mock_config(kind: str, **settings) -> ProviderConfig:
    """The settings of the ``kind`` double: its model is ``<kind>-mock`` unless named."""
    return ProviderConfig(**{"model_name": f"{kind}-mock", **settings})


class Completion(NamedTuple):
    """One reply: its text, and the seconds its request took."""

    raw_text: str
    latency: float


class Provider:
    """Shared plumbing: latency and peak-concurrency bookkeeping. It holds
    no pacing state: when to send, and when to retry, is the caller's
    ``router.Pacing``."""

    def __init__(self, config: ProviderConfig | None = None):
        self.config = config or ProviderConfig()
        self._state_lock = threading.Lock()
        self._in_flight = 0
        self.peak_in_flight = 0

    def complete(self, prompt) -> Completion:
        """Send one request for one completion; ``prompt`` is a PromptText
        or a plain string."""
        text = prompt.content if hasattr(prompt, "content") else str(prompt)
        with self._state_lock:
            self._in_flight += 1
            self.peak_in_flight = max(self.peak_in_flight, self._in_flight)
        start = time.perf_counter()
        try:
            raw = self._request(text, prompt)
        finally:
            with self._state_lock:
                self._in_flight -= 1
        return Completion(raw_text=raw, latency=time.perf_counter() - start)

    def _request(self, text: str, prompt) -> str:
        """Send one request and return the reply text. A TransportError is
        worth retrying; any other ProviderError fails the call at once."""
        raise NotImplementedError

    def close(self) -> None:
        """Release what the provider keeps between calls, such as idle
        connections; it stays usable. The doubles keep nothing."""


# --- the real thing ---------------------------------------------------------

class HttpProvider(Provider):
    """POSTs chat-completion requests over kept-alive connections, one
    request per ``_request``: transport failures, 429 and 5xx raise
    TransportError, and a parseable 200 is never re-asked.

    ``_transport(payload) -> (status, body, retry_after)`` sends one
    request. It is the ``request`` of the provider's own ConnectionPool,
    built once with the endpoint, the headers and the timeout, unless a
    ``transport`` is given or substituted later; ``close`` goes to the pool
    directly, so it closes the connections either way.

    The API key is read from the environment once, here; a key holding
    anything but printable ASCII is refused with a ValueError that names
    the variable, never the value.
    """

    def __init__(self, config: ProviderConfig, transport=None):
        super().__init__(config)
        headers = {}
        key = os.environ.get(config.api_key_env, "")
        if key:
            if not (key.isascii() and key.isprintable()):
                raise ValueError(
                    f"the API key in ${config.api_key_env} holds control or non-ASCII characters"
                )
            headers["Authorization"] = f"Bearer {key}"
        from .httpclient import ConnectionPool

        self._connections = ConnectionPool(config.endpoint_url, config.max_in_flight, headers,
                                           config.request_timeout)
        self._transport = transport or self._connections.request

    def close(self) -> None:
        self._connections.close()

    def _payload(self, text: str) -> dict:
        payload = {
            "model": self.config.model_name,
            "messages": [{"role": "user", "content": text}],
        }
        if self.config.temperature is not None:
            payload["temperature"] = self.config.temperature
        return payload

    def _request(self, text: str, prompt) -> str:
        status, body, retry_after = self._transport(self._payload(text))
        if status in RETRYABLE_STATUSES:
            raise TransportError(f"HTTP {status}", retry_after)
        if status != 200:
            raise ProtocolError(f"HTTP {status}: {body[:200]}")
        return self._extract_text(body)

    @staticmethod
    def _extract_text(body: str) -> str:
        try:
            data = json.loads(body)
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"response body is not JSON: {exc}") from exc
        choices = data.get("choices") if isinstance(data, dict) else None
        if not isinstance(choices, list) or not choices:
            raise ProtocolError("response carries no choices")
        message = choices[0].get("message") if isinstance(choices[0], dict) else None
        if not isinstance(message, dict) or not isinstance(message.get("content", 0), (str, type(None))):
            raise ProtocolError("first choice carries no message content, or content that is no text")
        return message["content"] or ""


# --- deterministic doubles ---------------------------------------------------

class OracleProvider(Provider):
    """Answers every routing prompt with the ground-truth path of its query.

    Built from a mapping of intent text to canonical path, usually via
    ``OracleProvider.for_dataset``. Deterministic and content-addressed, so
    it is safe at any concurrency.
    """

    def __init__(self, truth_by_text: dict[str, str], config: ProviderConfig | None = None):
        super().__init__(config or mock_config("oracle"))
        self._truth_by_text = dict(truth_by_text)

    @classmethod
    def for_dataset(cls, dataset, config: ProviderConfig | None = None) -> "OracleProvider":
        truth = {r.text: r.ground_truth for r in dataset.records}
        return cls(truth, config)

    def _request(self, text: str, prompt) -> str:
        query = getattr(prompt, "query", None)
        if query is None:
            raise ProviderError("oracle mock needs a routing prompt with a query")
        try:
            return self._truth_by_text[query]
        except KeyError:
            raise ProviderError(f"oracle mock has no truth for query {query!r}") from None


class KeywordProvider(Provider):
    """Routes by word overlap between the query and each breadcrumb; ties go
    to the earliest path in document order. Crude but fully deterministic."""

    def __init__(self, paths, config: ProviderConfig | None = None):
        super().__init__(config or mock_config("keyword"))
        self._paths = [(tp.path, _words(tp.breadcrumb_text())) for tp in paths]
        if not self._paths:
            raise ValueError("keyword mock needs at least one terminal path")

    def _request(self, text: str, prompt) -> str:
        query = getattr(prompt, "query", text)
        query_words = _words(query)
        best_path = self._paths[0][0]
        best_score = -1
        for path, words in self._paths:
            score = len(query_words & words)
            if score > best_score:  # strict: ties keep the earlier path
                best_path, best_score = path, score
        return best_path


def _words(text: str) -> set[str]:
    return {w for w in "".join(c.lower() if c.isalnum() else " " for c in text).split() if w}


class ScriptedProvider(Provider):
    """Plays back a fixed reply list in call order; raises when exhausted.

    Reply assignment is call-order based, so tests that need a specific
    reply per intent should run with max_in_flight=1.
    """

    def __init__(self, replies: list[str], config: ProviderConfig | None = None):
        super().__init__(config or mock_config("scripted"))
        self._replies = list(replies)
        self._next = 0
        self._script_lock = threading.Lock()
        self.calls: list[str] = []

    def _request(self, text: str, prompt) -> str:
        with self._script_lock:
            if self._next >= len(self._replies):
                raise ProviderError("scripted mock ran out of replies")
            reply = self._replies[self._next]
            self._next += 1
            self.calls.append(text)
        return reply


# --- pipeline hygiene --------------------------------------------------------

PIPELINE_STAGES = ("menugen", "datagen", "routing")


def check_role_separation(stage_configs: dict[str, ProviderConfig]) -> list[str]:
    """Warn when one model serves more than one pipeline stage.

    Reusing a model across menu generation, intent generation, and routing
    lets artifacts leak between stages; distinct models keep the routing
    measurement honest. Warnings are advisory.
    """
    warnings: list[str] = []
    first_stage_for: dict[str, str] = {}
    for stage, config in stage_configs.items():
        model = config.model_name
        if model in first_stage_for:
            warnings.append(
                f"stage '{stage}' reuses model '{model}' already assigned to "
                f"stage '{first_stage_for[model]}'"
            )
        else:
            first_stage_for[model] = stage
    return warnings
