"""Shared fixtures: the bundled menu and dataset, small synthetic menus,
provider doubles wired for deterministic tests, and a loopback
chat-completions server for the real HTTP transport."""

from __future__ import annotations

import json
import socket
import socketserver
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


# --- loopback chat-completions server ------------------------------------------

PROXY_VARIABLES = tuple(
    name for base in ("http_proxy", "https_proxy", "all_proxy", "no_proxy")
    for name in (base, base.upper())
)


class ChatServer(socketserver.ThreadingTCPServer):
    """A chat-completions endpoint on 127.0.0.1, one thread per connection.

    Every response leaves in one write: status line, headers and body split
    over several writes stall kept-alive calls on the Nagle / delayed-ACK
    interaction. ``reply`` is the content of every 200, or a function from
    the request's prompt to that content; ``statuses`` the
    statuses of the first responses, in order, ``status`` that of every
    later one and ``delay`` holds each response.
    ``retry_after``, when set, goes out as a Retry-After header on every
    response that is not a 200. With ``tls`` the server speaks https with
    the test certificate, TLS_CERT.
    ``hang_up`` closes each connection after its first response, without a
    ``Connection: close`` header, as a server whose idle timeout ran out
    does: at once (``"after-reply"``), or once the next request on it has
    been read (``"before-reply"``), as when that request crosses the
    hang-up. Counters: connections accepted, open now and at most at once,
    and the requests answered.
    """

    daemon_threads = True
    block_on_close = False

    def __init__(self, reply="1-1", status=200, delay=0.0, hang_up=None, retry_after=None,
                 statuses=(), tls=False):
        super().__init__(("127.0.0.1", 0), _ChatHandler)
        self.reply, self.status, self.delay = reply, status, delay
        self.statuses = list(statuses)
        self.retry_after = retry_after
        self.hang_up = hang_up
        self.tls = None
        if tls:
            self.tls = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
            self.tls.load_cert_chain(TLS_CERT, TLS_KEY)
        self.port = self.server_address[1]
        self.url = f"{'https' if tls else 'http'}://127.0.0.1:{self.port}/v1/chat/completions"
        self.lock = threading.Lock()
        self.accepted = self.open = self.peak_open = self.answered = 0
        self.seen: list[tuple[str, dict, bytes]] = []  # (request line, headers, body)

    def get_request(self):
        conn, address = super().get_request()
        if self.tls is not None:  # the handshake is made on the connection's own thread
            conn = self.tls.wrap_socket(conn, server_side=True, do_handshake_on_connect=False)
        return conn, address

    def response(self, status: int, body: bytes) -> bytes:
        if status == 200:
            content = self.reply
            if callable(content):
                content = content(json.loads(body)["messages"][-1]["content"])
            body = json.dumps({"choices": [{"message": {"content": content}}]},
                              ensure_ascii=False).encode("utf-8")
        else:
            body = b'{"error": "unavailable"}'
        head = f"HTTP/1.1 {status} Status\r\nContent-Type: application/json\r\n"
        if status != 200 and self.retry_after is not None:
            head += f"Retry-After: {self.retry_after}\r\n"
        head += f"Content-Length: {len(body)}\r\n\r\n"
        return head.encode("ascii") + body

    def shutdown_request(self, request) -> None:
        super().shutdown_request(request)
        with self.lock:
            self.open -= 1

    def wait_open(self, count: int, timeout: float = 5.0) -> bool:
        """Whether the open connections came down to ``count`` within ``timeout``."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self.lock:
                if self.open == count:
                    return True
            time.sleep(0.01)
        return False

    def wait_all_closed(self, timeout: float = 5.0) -> bool:
        return self.wait_open(0, timeout)


class _ChatHandler(socketserver.StreamRequestHandler):
    server: ChatServer

    def handle(self) -> None:
        server = self.server
        self.request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        with server.lock:
            server.accepted += 1
            server.open += 1
            server.peak_open = max(server.peak_open, server.open)
        try:
            if server.tls is not None:
                self.request.do_handshake()
            answered = self._answer_one()
            if answered and server.hang_up == "before-reply":
                self._read_request()
            while answered and server.hang_up is None:
                answered = self._answer_one()
        except OSError:
            pass  # a client that hangs up mid-request loses only its own connection

    def _read_request(self) -> tuple[str, dict, bytes] | None:
        request_line = self.rfile.readline()
        if not request_line:
            return None
        headers = {}
        while (line := self.rfile.readline()) not in (b"\r\n", b""):
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        body = self.rfile.read(int(headers.get("content-length", 0)))
        return request_line.decode("latin-1").strip(), headers, body

    def _answer_one(self) -> bool:
        request = self._read_request()
        if request is None:
            return False
        time.sleep(self.server.delay)
        with self.server.lock:
            self.server.answered += 1
            self.server.seen.append(request)
            status = self.server.statuses.pop(0) if self.server.statuses else self.server.status
        self.wfile.write(self.server.response(status, request[2]))
        return True


@pytest.fixture
def chat_server(monkeypatch):
    """Start a ChatServer; calls ``chat_server(**options)`` return it. No
    proxy settings reach the code under test."""
    for name in PROXY_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    servers = []

    def start(**options) -> ChatServer:
        server = ChatServer(**options)
        threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True).start()
        servers.append(server)
        return server

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


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
