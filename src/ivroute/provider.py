"""Chat-completion providers: one real HTTP client plus two deterministic
doubles whose reply depends only on the prompt, so concurrency never
changes what they answer.

All providers share the same contract: ``complete(text)`` sends ``text``,
and only it, in exactly one request, and returns the reply's text; it is
safe to call from many worker threads at once. The doubles read a routing
prompt's query out of the text after ``prompts.QUERY_MARKER`` and the
keyword double the paths the context before it offers, as a model has to.
A request worth repeating raises ``TransportError`` with the server's
``retry_after``; any other ``ProviderError`` is final. A provider only
sends: ``router.run_calls`` bounds the requests in flight, and its
``router.Schedule`` counts the attempts and asks a ``router.Pacing`` when
each one goes (``--rps``, ``Retry-After``, seeded jitter, ``max_retries``).
Subclasses implement a single ``_request`` hook; the base class keeps a
peak-concurrency count and times nothing.

The wire protocol of HttpProvider is the de-facto chat-completions JSON
shape, so any compatible endpoint works: POST {"model", "messages"} with a
bearer token, read choices[0].message.content. It goes over kept-alive
HTTP/1.1 connections of ``ivroute.httpclient``, whose pool raises OSError
and knows no retry policy: HttpProvider alone decides what outcomes mean.
"""

from __future__ import annotations

import json
import os
import sys
import threading
from collections import namedtuple

from .menu import LONE_SURROGATE, has_lone_surrogate, offered_paths
from .prompts import QUERY_MARKER, query_of

DEFAULT_API_KEY_ENV = "IVR_LLM_API_KEY"

RETRYABLE_STATUSES = frozenset({429, 500, 502, 503, 504})
# Statuses whose Retry-After header is read.
RETRY_AFTER_STATUSES = frozenset({429, 503})


class ProviderError(Exception):
    """A completion failure: final, unless it is a TransportError."""


class TransportError(ProviderError):
    """Network failure or retryable HTTP status: a ``router.Schedule`` sends
    the attempt again when its ``Pacing`` says, and past ``max_retries``
    fails the call with a TransportError("gave up after ...").

    ``retry_after`` is the server's Retry-After header value, if it sent one.
    """

    def __init__(self, message: str, retry_after: str | None = None):
        super().__init__(message)
        self.retry_after = retry_after


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
            if kind is str and has_lone_surrogate(value):
                raise ValueError(f"{name} holds a lone surrogate: {value!r}")
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too


def mock_config(kind: str, **settings) -> ProviderConfig:
    """The settings of the ``kind`` double: its model is ``<kind>-mock`` unless named."""
    return ProviderConfig(**{"model_name": f"{kind}-mock", **settings})


class Provider:
    """Shared plumbing: a peak-concurrency count, and no pacing state: when
    to send and when to retry is a ``router.Schedule``'s."""

    def __init__(self, config: ProviderConfig | None = None):
        self.config = config or ProviderConfig()
        self._state_lock = threading.Lock()
        self._in_flight = 0
        self.peak_in_flight = 0

    def complete(self, text: str) -> str:
        """Send ``text`` in one request; return the reply's text."""
        with self._state_lock:
            self._in_flight += 1
            self.peak_in_flight = max(self.peak_in_flight, self._in_flight)
        try:
            return self._request(text)
        finally:
            with self._state_lock:
                self._in_flight -= 1

    def _request(self, text: str) -> str:
        """Send one request and return the reply text. A TransportError is
        worth retrying; any other ProviderError fails the call at once."""
        raise NotImplementedError

    def close(self) -> None:
        """Release what the provider keeps between calls, such as idle
        connections; it stays usable. The doubles keep nothing."""


# --- the real thing ---------------------------------------------------------

class HttpProvider(Provider):
    """POSTs chat-completion requests over kept-alive connections, one
    request per ``_request``: a refused certificate, which fails again,
    raises ProviderError; another OSError, a 429 or a 5xx raises
    TransportError, with the Retry-After of a 429 or 503.

    ``_transport(payload) -> (status, body, retry_after)`` sends one
    request: it is the ``request`` of the provider's own ConnectionPool,
    built once with the endpoint, the headers and the timeout. A benchmark
    may substitute the attribute to time each attempt; ``close`` goes to
    the pool directly, so it closes the connections either way.

    The API key is read from the environment once, here; a key holding
    anything but printable ASCII is refused with a ValueError that names
    the variable, never the value.
    """

    def __init__(self, config: ProviderConfig):
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
        self._transport = self._connections.request

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

    def _request(self, text: str) -> str:
        try:
            status, body, retry_after = self._transport(self._payload(text))
        except OSError as exc:
            ssl = sys.modules.get("ssl")  # any TLS connection loaded it; an http:// run need not
            if ssl is not None and isinstance(exc, ssl.SSLCertVerificationError):
                raise ProviderError(f"TLS certificate refused: {exc}") from exc
            raise TransportError(f"{type(exc).__name__}: {exc}") from exc
        if status in RETRYABLE_STATUSES:
            raise TransportError(f"HTTP {status}", retry_after if status in RETRY_AFTER_STATUSES else None)
        if status != 200:
            raise ProviderError(f"HTTP {status}: {body[:200]}")
        return self._extract_text(body)

    @staticmethod
    def _extract_text(body: str) -> str:
        try:
            data = json.loads(body)
        except ValueError as exc:  # no JSON, or an integer of more digits than int() converts
            raise ProviderError(f"response body is not JSON: {exc}") from exc
        choices = data.get("choices") if isinstance(data, dict) else None
        if not isinstance(choices, list) or not choices:
            raise ProviderError("response carries no choices")
        message = choices[0].get("message") if isinstance(choices[0], dict) else None
        if not isinstance(message, dict) or not isinstance(message.get("content", 0), (str, type(None))):
            raise ProviderError("first choice carries no message content, or content that is no text")
        # a lone surrogate is replaced, as undecodable bytes are
        return LONE_SURROGATE.sub("\ufffd", message["content"] or "")


# --- deterministic doubles ---------------------------------------------------

class OracleProvider(Provider):
    """Answers every routing prompt with the ground-truth path of its query,
    looked up by text among ``records``. Deterministic and content-addressed,
    so it is safe at any concurrency.
    """

    def __init__(self, records, config: ProviderConfig | None = None):
        super().__init__(config or mock_config("oracle"))
        self._truth_by_text = {r.text: r.ground_truth for r in records}

    def _request(self, text: str) -> str:
        query = query_of(text)
        try:
            return self._truth_by_text[query]
        except KeyError:
            raise ProviderError(f"oracle mock has no truth for query {query!r}") from None


class KeywordProvider(Provider):
    """Routes by word overlap between the query and the line of each path
    that the prompt's context offers (``menu.offered_paths``): a flattened
    path's breadcrumb, or an outline's "press" line. Ties go to the first
    offer. Crude but fully deterministic."""

    def __init__(self, config: ProviderConfig | None = None):
        super().__init__(config or mock_config("keyword"))

    def _request(self, text: str) -> str:
        context, _, query = text.partition(QUERY_MARKER)
        offers = offered_paths(context)
        if not offers:
            raise ProviderError("keyword mock finds no path offered in the prompt")
        query_words = _words(query)
        return max(offers, key=lambda offer: len(query_words & _words(offer[1])))[0]  # the first of equals


def _words(text: str) -> set[str]:
    return {w for w in "".join(c.lower() if c.isalnum() else " " for c in text).split() if w}


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
