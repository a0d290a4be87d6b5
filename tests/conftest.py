"""Shared fixtures: the bundled menu and dataset, small synthetic menus,
the one provider double that answers by a test's function, ``simulate``,
which runs the scheduler at simulated times, and the one fake HTTP
endpoint: a loopback server, answering with scripted bytes or as a
chat-completions endpoint, which HttpProviders built on its URL reach
through the shipped client."""

from __future__ import annotations

import contextlib
import heapq
import itertools
import json
import math
import socket
import ssl
import threading
import time
from importlib import resources
from pathlib import Path

import pytest

from ivroute.datagen import Dataset, IntentRecord, load_dataset
from ivroute.menu import (
    ActionType,
    DtmfPath,
    MenuNode,
    MenuTree,
    NodeKind,
    flatten,
    parse_menu,
)
from ivroute.provider import HttpProvider, Provider, ProviderConfig

DATA = resources.files("ivroute.data")

# A test-only self-signed certificate for localhost and 127.0.0.1, valid
# until 2126, and its key, made with OpenSSL 3.5:
#   openssl req -x509 -newkey ec -pkeyopt ec_paramgen_curve:prime256v1 -nodes \
#     -days 36500 -subj "/CN=localhost" \
#     -addext "subjectAltName=DNS:localhost,IP:127.0.0.1" \
#     -addext "basicConstraints=critical,CA:TRUE" \
#     -addext "keyUsage=critical,digitalSignature,keyCertSign" \
#     -addext "extendedKeyUsage=serverAuth" \
#     -keyout localhost-key.pem -out localhost-cert.pem
TLS_CERT = Path(__file__).parent / "data" / "localhost-cert.pem"
TLS_KEY = Path(__file__).parent / "data" / "localhost-key.pem"


def data_text(name: str) -> str:
    return DATA.joinpath(name).read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def fixture_menu_path(tmp_path_factory) -> Path:
    """The bundled menu copied to a real filesystem path for CLI tests."""
    target = tmp_path_factory.mktemp("fixtures") / "agentnet.menu.json"
    target.write_text(data_text("agentnet.menu.json"), encoding="utf-8")
    return target


@pytest.fixture(scope="session")
def fixture_dataset_path(tmp_path_factory) -> Path:
    target = tmp_path_factory.mktemp("fixtures") / "agentnet.intents.jsonl"
    target.write_text(data_text("agentnet.intents.jsonl"), encoding="utf-8")
    return target


@pytest.fixture(scope="session")
def tree() -> MenuTree:
    return parse_menu(data_text("agentnet.menu.json"))


@pytest.fixture(scope="session")
def paths(tree):
    return flatten(tree)


@pytest.fixture(scope="session")
def dataset(fixture_dataset_path, tree) -> Dataset:
    return load_dataset(fixture_dataset_path, menu_name=tree.name)


def action(label: str, digit: int, service: ActionType = ActionType.SELF_SERVICE) -> MenuNode:
    return MenuNode(label=label, digit=digit, kind=NodeKind.ACTION, action_type=service)


def submenu(label: str, digit: int | None, children, prompt_text: str = "") -> MenuNode:
    return MenuNode(
        label=label,
        digit=digit,
        kind=NodeKind.MENU,
        children=tuple(children),
        prompt_text=prompt_text,
    )


def navigation(label: str = "Return to Main Menu") -> MenuNode:
    return MenuNode(label=label, digit=0, kind=NodeKind.NAVIGATION)


@pytest.fixture
def tiny_tree() -> MenuTree:
    """Two branches, three terminals, one navigation node to skip."""
    root = submenu(
        "Root Menu",
        None,
        [
            submenu(
                "Billing",
                1,
                [
                    action("Pay Bill", 1),
                    action("Billing Agent", 9, ActionType.AGENT_HANDOFF),
                    navigation(),
                ],
            ),
            action("Support", 2),
        ],
    )
    return MenuTree(name="Tiny", root=root)


def make_record(
    path: str,
    text: str,
    *,
    suffix: str = "b00",
    origin: str = "base",
    base_suffix: str | None = None,
    variant_index: int = 0,
) -> IntentRecord:
    base_id = f"{path}:{base_suffix or suffix}"
    rid = f"{path}:{suffix}" if origin == "base" else f"{base_id}:v{variant_index}"
    return IntentRecord(
        id=rid,
        text=text,
        ground_truth=DtmfPath(path),
        origin=origin,
        base_id=base_id,
        variant_index=variant_index,
    )


def tiny_dataset() -> Dataset:
    """Two base records per terminal path of tiny_tree; validates cleanly."""
    records = [
        make_record("1-1", "I want to pay my bill."),
        make_record("1-1", "how do I pay what I owe", suffix="b01"),
        make_record("1-9", "get me a billing person"),
        make_record("1-9", "human for my bill please", suffix="b01"),
        make_record("2", "my service is broken"),
        make_record("2", "nothing works at my house", suffix="b01"),
    ]
    return Dataset(menu_name="Tiny", records=records)


# --- the provider double ----------------------------------------------------------

class AnsweringProvider(Provider):
    """A provider whose ``answer(prompt)`` makes the reply to each request,
    or raises its failure; ``settings`` are its ProviderConfig's. ``calls``
    holds the text of each call answered, in order."""

    def __init__(self, answer, **settings):
        super().__init__(ProviderConfig(**settings))
        self.answer = answer
        self.calls = []

    def _request(self, text, prompt):
        reply = self.answer(prompt)
        self.calls.append(text)
        return reply


# --- the scheduler at simulated times ---------------------------------------------

def simulate(schedule, width: int, outcomes=None, latency: float = 0.0) -> list[tuple[float, int, int]]:
    """Drive ``schedule``, a router.Schedule, as run_calls' ``width`` workers
    do, at simulated times and with no thread: a free worker asks for the
    next attempt and sends it, or waits until the time it is given or until
    the next outcome. Each attempt takes ``latency`` seconds; the outcomes
    of job ``j``'s attempts are those queued in ``outcomes[j]``, in order,
    and then the value ``j``. Returns the attempts sent, as (time, job,
    attempt), once the schedule has nothing more to send."""
    outcomes = outcomes or {}
    now, sends, running = 0.0, [], []  # running: a heap of (done at, send number, job, attempt)
    while True:
        task = schedule.next(now) if len(running) < width else math.inf
        if isinstance(task, tuple):
            sends.append((now, *task))
            heapq.heappush(running, (now + latency, len(sends), *task))
        elif task is None:
            return sends
        elif running and running[0][0] <= task:
            now, _, job, attempt = heapq.heappop(running)
            queued = outcomes.get(job)
            schedule.record(now, job, attempt, queued.pop(0) if queued else job)
        else:
            assert task < math.inf, "the schedule waits for an outcome that no attempt will bring"
            now = task


# --- loopback HTTP server --------------------------------------------------------

PROXY_VARIABLES = tuple(
    name for base in ("http_proxy", "https_proxy", "all_proxy", "no_proxy")
    for name in (base, base.upper())
)


class Close(bytes):
    """A reply after which the server ends the connection; ``Close(b"")``
    ends it without a reply."""


class Request(bytes):
    """The bytes of one request as read, with its request ``line``, its
    ``headers`` by lower-case name and its ``body``."""


class LoopbackServer:
    """An HTTP/1.1 server on 127.0.0.1, one thread per connection.

    ``answer(request, index)`` makes the reply to each Request, ``index``
    being its place on its connection: bytes, written in one go, since a
    response split over several writes stalls kept-alive calls on the
    Nagle / delayed-ACK interaction, or a Close. ``tls`` makes it speak TLS
    with the test certificate, TLS_CERT: from the first byte (``"https"``),
    or once it has answered a CONNECT with a 200 (``"tunnel"``), as a proxy
    that is the endpoint at the tunnel's far end. It keeps the requests it
    read and counts the connections accepted, open now and at most at once,
    the requests answered and the connections the client closed.
    """

    def __init__(self, answer, tls=None):
        self.answer, self.tls = answer, tls
        if tls:
            self.context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
            self.context.load_cert_chain(TLS_CERT, TLS_KEY)
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self.url = f"{'https' if tls == 'https' else 'http'}://127.0.0.1:{self.port}/v1/chat/completions"
        self.lock = threading.Lock()
        self.requests: list[Request] = []
        self.accepted = self.open = self.peak_open = self.answered = self.client_closed = 0
        threading.Thread(target=self._accept, daemon=True).start()

    def close(self) -> None:
        with contextlib.suppress(OSError):  # shutdown wakes the accept loop at once
            self.listener.shutdown(socket.SHUT_RDWR)
        self.listener.close()

    def wait(self, timeout: float = 5.0, **counts: int) -> bool:
        """Whether each named counter came to its count within ``timeout``."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self.lock:
                if all(getattr(self, name) == count for name, count in counts.items()):
                    return True
            time.sleep(0.01)
        return False

    def _accept(self) -> None:
        while True:
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return  # closed
            with self.lock:
                self.accepted += 1
                self.open += 1
                self.peak_open = max(self.peak_open, self.open)
            threading.Thread(target=self._serve, args=(conn,), daemon=True).start()

    def _serve(self, conn) -> None:
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self.tls == "https":
                conn = self.context.wrap_socket(conn, server_side=True)
            buffer = b""
            for index in itertools.count():
                request, buffer = self._read(conn, buffer)
                if request is None:
                    with self.lock:
                        self.client_closed += 1
                    return
                reply = self.answer(request, index)
                with self.lock:
                    self.requests.append(request)
                    self.answered += bool(reply)
                conn.sendall(reply)
                if isinstance(reply, Close):
                    return
                if self.tls == "tunnel" and request.startswith(b"CONNECT ") and reply.startswith(b"HTTP/1.1 200 "):
                    conn = self.context.wrap_socket(conn, server_side=True)
        except OSError:
            pass  # a client that resets loses only its own connection
        finally:
            conn.close()
            with self.lock:
                self.open -= 1

    @staticmethod
    def _read(conn, buffer: bytes) -> tuple[Request | None, bytes]:
        """The next request on ``conn``, whose bytes begin with ``buffer``,
        and the bytes read past it; (None, b"") once the client has closed."""
        while True:
            head, end, rest = buffer.partition(b"\r\n\r\n")
            if end:
                line, *fields = head.decode("latin-1").split("\r\n")
                headers = {name.strip().lower(): value.strip()
                           for name, _, value in (field.partition(":") for field in fields)}
                length = int(headers.get("content-length", 0))
                if len(rest) >= length:
                    request = Request(head + end + rest[:length])
                    request.line, request.headers, request.body = line, headers, rest[:length]
                    return request, rest[length:]
            if not (chunk := conn.recv(65536)):
                return None, b""
            buffer += chunk


def prompt_of(request: Request) -> str:
    """The prompt of a chat-completions request."""
    return json.loads(request.body)["messages"][-1]["content"]


def query_of(request: Request) -> str:
    """The query of a routing prompt's request."""
    return prompt_of(request).rpartition("User Query:\n")[2].strip()


def chat_response(status=200, content="1-1", retry_after=None, body=None) -> bytes:
    """One response of a chat-completions endpoint: a 200 whose first
    choice's message holds ``content``, or an error body with any other
    ``status``; ``body`` is sent instead when given, and ``retry_after``,
    when set, as a Retry-After header."""
    if body is None:
        body = (json.dumps({"choices": [{"message": {"content": content}}]}, ensure_ascii=False)
                if status == 200 else '{"error": "unavailable"}')
    head = f"HTTP/1.1 {status} Status\r\nContent-Type: application/json\r\n"
    if retry_after is not None:
        head += f"Retry-After: {retry_after}\r\n"
    body = body.encode("utf-8")
    return f"{head}Content-Length: {len(body)}\r\n\r\n".encode("utf-8") + body


def chat_replies(reply="1-1", status=200, statuses=(), delay=0.0, retry_after=None, hang_up=None):
    """The answer of a chat-completions endpoint. ``reply`` is the content
    of every 200, or a function from the request's prompt to that content;
    ``statuses`` the statuses of the first responses, in order, ``status``
    that of every later one and ``delay`` holds each response.
    ``retry_after``, when set, goes out as a Retry-After header on every
    response that is not a 200. ``hang_up`` closes each connection after
    its first response, without a ``Connection: close`` header, as a
    server whose idle timeout ran out does: at once (``"after-reply"``), or
    once the next request on it has been read (``"before-reply"``), as
    when that request crosses the hang-up."""
    statuses = iter(statuses)

    def answer(request: Request, index: int) -> bytes:
        if index and hang_up == "before-reply":
            return Close(b"")
        time.sleep(delay)
        code = next(statuses, status)
        if code == 200:
            response = chat_response(content=reply(prompt_of(request)) if callable(reply) else reply)
        else:
            response = chat_response(code, retry_after=retry_after)
        return Close(response) if hang_up == "after-reply" else response

    return answer


@pytest.fixture
def loopback(monkeypatch):
    """``loopback(answer, tls=None)`` starts a LoopbackServer, closed at
    teardown. No proxy settings reach the code under test."""
    for name in PROXY_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    servers = []

    def start(answer, tls=None) -> LoopbackServer:
        servers.append(LoopbackServer(answer, tls))
        return servers[-1]

    yield start
    for server in servers:
        server.close()


@pytest.fixture
def raw_server(loopback):
    """``raw_server(replies, tls=None)`` starts a server that answers each
    request, in arrival order, with the next of ``replies``."""

    def start(replies, tls=None) -> LoopbackServer:
        replies = iter(replies)
        return loopback(lambda request, index: next(replies), tls)

    return start


@pytest.fixture
def chat_server(loopback):
    """``chat_server(**options)`` starts a chat-completions endpoint, https
    with ``tls=True``; the other options are chat_replies'."""
    return lambda tls=False, **options: loopback(chat_replies(**options), "https" if tls else None)


@pytest.fixture
def live_provider():
    """``live_provider(url, **settings)`` builds an HttpProvider on ``url``
    with the model ``test-model``, closed at teardown."""
    providers = []

    def build(url, **settings) -> HttpProvider:
        providers.append(HttpProvider(ProviderConfig(endpoint_url=url, model_name="test-model", **settings)))
        return providers[-1]

    yield build
    for provider in providers:
        provider.close()


def closed_port() -> int:
    """A port on 127.0.0.1 that nothing listens on."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


@pytest.fixture
def trusted_test_certificate(monkeypatch):
    """TLS contexts made during the test, and in child processes it starts,
    trust the test certificate; the shared context is dropped before and
    after, so no other test sees it."""
    from ivroute.httpclient import _tls_context

    monkeypatch.setenv("SSL_CERT_FILE", str(TLS_CERT))
    _tls_context.cache_clear()
    yield
    _tls_context.cache_clear()
