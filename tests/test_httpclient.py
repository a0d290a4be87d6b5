"""The HTTP/1.1 client against a raw loopback socket server that sends
scripted bytes: response framing, connection reuse, the bounds on what a
server may send, the one-write request, TLS and the CONNECT tunnel. The
response reader is also checked against http.client on generated
responses, delivered in pieces down to one byte."""

import base64
import http.client
import io
import json
import os
import re
import socket
import ssl
import subprocess
import sys
import threading
import time
from pathlib import Path
from unittest.mock import ANY

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ivroute
from ivroute.httpclient import BadResponse, ConnectionPool, NoResponse, _Connection, _authority
from ivroute.provider import TransportError

from conftest import PROXY_VARIABLES, TLS_CERT, TLS_KEY


class Close(bytes):
    """A scripted reply after which RawServer closes the connection."""


class RawServer:
    """A loopback server that answers each request, in arrival order, with
    the next bytes of ``replies``, written as they are. Records the raw
    requests, the connections accepted and those the client closed.

    ``tls`` makes it speak TLS with the test certificate, TLS_CERT: from
    the first byte (``"https"``), or once it has answered a CONNECT with a
    200 (``"tunnel"``), as a proxy that is the endpoint at the tunnel's far
    end."""

    def __init__(self, replies, tls=None):
        self.replies = list(replies)
        self.tls = tls
        if tls:
            self.context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
            self.context.load_cert_chain(TLS_CERT, TLS_KEY)
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self.url = f"{'https' if tls == 'https' else 'http'}://127.0.0.1:{self.port}/v1/chat/completions"
        self.lock = threading.Lock()
        self.requests: list[bytes] = []
        self.accepted = self.client_closed = 0
        threading.Thread(target=self._accept, daemon=True).start()

    def close(self) -> None:
        self.listener.close()

    def wait_client_closed(self, count: int, timeout: float = 5.0) -> bool:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self.lock:
                if self.client_closed == count:
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
            threading.Thread(target=self._serve, args=(conn,), daemon=True).start()

    def _serve(self, conn) -> None:
        try:
            if self.tls == "https":
                conn = self.context.wrap_socket(conn, server_side=True)
            buffer = b""
            while True:
                while b"\r\n\r\n" not in buffer:
                    chunk = conn.recv(65536)
                    if not chunk:
                        with self.lock:
                            self.client_closed += 1
                        return
                    buffer += chunk
                head, _, rest = buffer.partition(b"\r\n\r\n")
                length = re.search(rb"\r\nContent-Length: (\d+)", head)
                length = int(length.group(1)) if length else 0
                while len(rest) < length:
                    rest += conn.recv(65536)
                buffer = rest[length:]
                with self.lock:
                    self.requests.append(head + b"\r\n\r\n" + rest[:length])
                    reply = self.replies.pop(0)
                conn.sendall(reply)
                if isinstance(reply, Close):
                    return
                if self.tls == "tunnel" and head.startswith(b"CONNECT ") and reply.startswith(b"HTTP/1.1 200 "):
                    conn = self.context.wrap_socket(conn, server_side=True)
        finally:
            conn.close()


@pytest.fixture
def raw_server(monkeypatch):
    """``raw_server(replies, tls=None)`` starts a RawServer; no proxy
    settings reach the code under test."""
    for name in PROXY_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    servers = []

    def start(replies, tls=None) -> RawServer:
        servers.append(RawServer(replies, tls))
        return servers[-1]

    yield start
    for server in servers:
        server.close()


def pool_to(url, headers=None):
    """A pool of one connection to ``url``, whose sockets time out after 5 s."""
    return ConnectionPool(url, 1, headers or {}, 5.0)


def call(pool):
    return pool.request({"q": "x"})


def test_chunked_body_with_extension_and_trailer_keeps_the_connection(raw_server):
    chunked = (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
               b"5;name=value\r\nhello\r\n6\r\n world\r\n0\r\nX-Checksum: 1\r\n\r\n")
    server = raw_server([chunked, chunked])
    pool = pool_to(server.url)
    assert call(pool) == (200, "hello world", None)
    assert call(pool) == (200, "hello world", None)
    assert server.accepted == 1
    pool.close()
    assert server.wait_client_closed(1)


@pytest.mark.parametrize("reply", [
    b"HTTP/1.0 200 OK\r\nContent-Length: 5\r\n\r\nhello",
    b"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 5\r\n\r\nhello",
    Close(b"HTTP/1.1 200 OK\r\n\r\nhello"),  # no length: the body runs to the close
    Close(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip\r\n\r\nhello"),
], ids=["http-1.0", "connection-close", "read-to-close", "other-coding"])
def test_reply_that_ends_the_connection_is_never_reused(raw_server, reply):
    server = raw_server([reply, reply])
    pool = pool_to(server.url)
    assert call(pool) == (200, "hello", None)
    assert call(pool) == (200, "hello", None)
    assert server.accepted == 2
    if not isinstance(reply, Close):
        assert server.wait_client_closed(2)  # the client hung up itself


def test_tls_reply_without_a_length_runs_to_the_close(raw_server, trusted_test_certificate):
    # The server closes the TCP connection without a TLS close_notify, as
    # many do; the body still ends there, and the next call opens anew.
    reply = Close(b"HTTP/1.1 200 OK\r\n\r\nhello over tls")
    server = raw_server([reply, reply], tls="https")
    pool = pool_to(server.url)
    assert call(pool) == (200, "hello over tls", None)
    assert call(pool) == (200, "hello over tls", None)
    assert server.accepted == 2 and pool._idle == []


def test_interim_100_continue_is_skipped(raw_server):
    server = raw_server([b"HTTP/1.1 100 Continue\r\n\r\n"
                         b"HTTP/1.1 503 Busy\r\nRetry-After: 7\r\nContent-Length: 2\r\n\r\nno"])
    pool = pool_to(server.url)
    assert call(pool) == (503, "no", "7")
    pool.close()


def headers(count, size=10):
    return b"".join(b"X-%03d: " % i + b"v" * (size - 9) + b"\r\n" for i in range(count))


@pytest.mark.parametrize("reply", [
    b"HTTP/1.1 200 OK\r\n" + headers(1, 65536) + b"Content-Length: 2\r\n\r\nok",
    b"HTTP/1.1 200 OK\r\n" + headers(99) + b"Content-Length: 2\r\n\r\nok",
], ids=["65536-byte-line", "100-headers"])
def test_response_at_the_bounds_is_read(raw_server, reply):
    server = raw_server([reply])
    pool = pool_to(server.url)
    assert call(pool) == (200, "ok", None)
    pool.close()


@pytest.mark.parametrize("reply, message", [
    (b"SSH-2.0-OpenSSH_9.6\r\n\r\n", "not an HTTP/1.x status line"),
    (b"HTTP/1.1 200 OK\r\n" + headers(1, 65537) + b"Content-Length: 2\r\n\r\nok", "longer than 65536"),
    (b"HTTP/1.1 200 OK\r\n" + headers(1, 70000), "longer than 65536"),  # no end of head in sight
    (b"HTTP/1.1 200 OK\r\n" + headers(100) + b"Content-Length: 2\r\n\r\nok", "more than 100 header"),
    (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n", "bad chunk size"),
    (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n0x2\r\nok\r\n0\r\n\r\n", "bad chunk size"),
    (b"HTTP/1.1 200 OK\r\nContent-Length: 1, 2\r\n\r\nok", "bad Content-Length"),
    (Close(b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nhello"), "closed inside the response"),
], ids=["non-http", "65537-byte-line", "endless-line", "101-headers", "chunk-size",
        "prefixed-chunk-size", "two-lengths", "cut-short"])
def test_malformed_response_is_a_transport_error_that_closes_the_connection(raw_server, reply,
                                                                          message):
    server = raw_server([reply])
    pool = pool_to(server.url)
    with pytest.raises(TransportError, match=f"BadResponse: .*{message}"):
        call(pool)
    assert pool._idle == []
    if not isinstance(reply, Close):
        assert server.wait_client_closed(1)


def test_request_leaves_in_one_write_on_a_nodelay_socket(raw_server, monkeypatch):
    writes = []
    sendall, send = socket.socket.sendall, socket.socket.send
    monkeypatch.setattr(socket.socket, "sendall", lambda s, data, *a: writes.append(bytes(data)) or sendall(s, data, *a))
    monkeypatch.setattr(socket.socket, "send", lambda s, data, *a: writes.append(bytes(data)) or send(s, data, *a))
    ok = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"
    server = raw_server([ok, ok])
    pool = pool_to(server.url, {"Authorization": "Bearer k"})
    payload = {"model": "m", "messages": [{"role": "user", "content": "x" * 3000}]}
    for _ in range(2):
        assert pool.request(payload)[:2] == (200, "ok")
    client_writes = [data for data in writes if data.startswith(b"POST ")]
    assert len(client_writes) == 2 and client_writes == server.requests
    head, _, body = client_writes[0].partition(b"\r\n\r\n")
    assert json.loads(body) == payload
    lines = head.split(b"\r\n")
    assert lines[1:3] == [f"Host: 127.0.0.1:{server.port}".encode(), b"Accept-Encoding: identity"]
    assert b"Authorization: Bearer k" in lines and b"Content-Type: application/json" in lines
    assert lines[-1] == f"Content-Length: {len(body)}".encode()
    assert [data for data in writes if data not in client_writes] == [ok, ok]  # the server's
    assert pool._idle[0].sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
    pool.close()


def test_header_value_with_a_line_break_is_refused_unsent(raw_server):
    server = raw_server([])
    with pytest.raises(ValueError, match="'X-Key' holds a line break") as error:
        pool_to(server.url, {"X-Key": "sekrit\r\nX-Evil: 1"})  # refused when the pool is built
    assert "sekrit" not in str(error.value)
    assert server.accepted == 0


@pytest.mark.parametrize("host, port, default, authority", [
    ("example.test", 80, 80, "example.test"),
    ("example.test", 8080, 80, "example.test:8080"),
    ("::1", 443, 443, "[::1]"),
    ("::1", 8443, 443, "[::1]:8443"),
    ("bücher.example", 443, None, "xn--bcher-kva.example:443"),
])
def test_authority_of_host_header_and_connect_target(host, port, default, authority):
    assert _authority(host, port, default) == authority


@pytest.mark.parametrize("reply, message", [
    (b"HTTP/1.1 407 Proxy Authentication Required\r\nContent-Length: 0\r\n\r\n",
     "refused the tunnel: HTTP 407"),
    (b"HTTP/1.1 200 Connection established\r\n\r\n\x16\x03\x01", "bytes past its CONNECT reply"),
])
def test_tunnel_sends_connect_and_refuses_a_bad_reply(raw_server, monkeypatch, reply, message):
    proxy = raw_server([reply])
    monkeypatch.setenv("HTTPS_PROXY", f"http://ivr:pw@127.0.0.1:{proxy.port}")
    pool = pool_to("https://endpoint.test/v1/chat/completions")
    with pytest.raises(TransportError, match=message):
        call(pool)
    assert proxy.requests == [b"CONNECT endpoint.test:443 HTTP/1.1\r\nHost: endpoint.test:443\r\n"
                              b"Proxy-Authorization: Basic " + base64.b64encode(b"ivr:pw")
                              + b"\r\n\r\n"]
    assert proxy.wait_client_closed(1)


def test_tunnel_carries_tls_and_is_kept_for_the_next_request(raw_server, monkeypatch,
                                                              trusted_test_certificate):
    # The certificate names localhost: TLS inside the tunnel is checked
    # against the endpoint's name, not the proxy's address.
    ok = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"
    proxy = raw_server([b"HTTP/1.1 200 Connection established\r\n\r\n", ok, ok], tls="tunnel")
    monkeypatch.setenv("HTTPS_PROXY", f"http://127.0.0.1:{proxy.port}")
    pool = pool_to("https://localhost:8443/v1/chat/completions")
    assert call(pool) == (200, "ok", None)
    assert call(pool) == (200, "ok", None)
    assert proxy.accepted == 1  # one tunnel, kept for the second request
    connect, *posts = proxy.requests
    assert connect == b"CONNECT localhost:8443 HTTP/1.1\r\nHost: localhost:8443\r\n\r\n"
    assert [post.split(b"\r\n")[:2] for post in posts] == [
        [b"POST /v1/chat/completions HTTP/1.1", b"Host: localhost:8443"]] * 2
    pool.close()
    assert proxy.wait_client_closed(1)


PROXY_PROBE = """
import sys
from ivroute.httpclient import ConnectionPool
ConnectionPool(sys.argv[1], 1, {}, 5.0)
print("urllib.request" in sys.modules)
"""


@pytest.mark.parametrize("variable, loaded", [(None, False), ("NO_PROXY", False),
                                              ("https_proxy", False), ("HTTP_PROXY", True),
                                              ("all_proxy", True)])
def test_urllib_is_imported_only_when_a_proxy_may_apply(variable, loaded):
    env = {name: value for name, value in os.environ.items() if name not in PROXY_VARIABLES}
    env["PYTHONPATH"] = str(Path(ivroute.__file__).resolve().parents[1])
    if variable:
        env[variable] = "http://127.0.0.1:9"
    child = subprocess.run([sys.executable, "-c", PROXY_PROBE, "http://127.0.0.1:8/v1"], env=env,
                           capture_output=True, text=True, timeout=60)
    assert child.stdout.split() == [str(loaded)], child.stderr


# --- the reader against http.client -----------------------------------------------

def spelled(draw, name: str) -> str:
    """``name`` in a random mix of upper and lower case."""
    mask = draw(st.integers(0, 2 ** len(name) - 1))
    return "".join(c.upper() if mask >> i & 1 else c.lower() for i, c in enumerate(name))


def field(draw, name: str, value: str, trailing_space: bool = True) -> bytes:
    """A header or trailer line with random case and optional white space."""
    lead = draw(st.sampled_from(["", " ", "\t", "  "]))
    trail = draw(st.sampled_from(["", " ", "\t"])) if trailing_space else ""
    return f"{spelled(draw, name)}:{lead}{value}{trail}\r\n".encode("latin-1")


SIZES = st.lists(st.integers(1, 16), min_size=1, max_size=4)


def pieces(data: bytes, sizes: list[int]) -> list[bytes]:
    """``data`` cut into pieces of ``sizes``, cycled."""
    out = []
    while data:
        size = sizes[len(out) % len(sizes)]
        out.append(data[:size])
        data = data[size:]
    return out


OTHER_FIELDS = [("Content-Type", "application/json"), ("Retry-After", "7"), ("X-Request-Id", "a1, b2"),
                ("Server", "stub/1.0"), ("Connection", "keep-alive"), ("Connection", "close")]
CHUNK_EXTENSIONS = ["", ";x", ";name=value", ' ;q="a b"']


@st.composite
def responses(draw):
    """(bytes, status, body, framing, head size) of one HTTP/1.1 response:
    header fields in random case and spacing, a body framed by
    Content-Length, by chunked coding with random chunk sizes, extensions
    and trailers, or by the close, and perhaps a 100 Continue first. A 204
    or 304 has no body and no framing field."""
    status = draw(st.sampled_from([200, 201, 204, 304, 400, 429, 500, 503]))
    body = b"" if status in (204, 304) else draw(st.binary(max_size=40))
    framing = "none" if status in (204, 304) else draw(st.sampled_from(["length", "chunked", "close"]))
    fields = [field(draw, name, value) for name, value in draw(st.lists(st.sampled_from(OTHER_FIELDS),
                                                                        max_size=3, unique_by=lambda f: f[0]))]
    if framing == "length":
        fields.append(field(draw, "Content-Length", str(len(body))))
    elif framing == "chunked":  # http.client takes only the exact token as chunked
        fields.append(field(draw, "Transfer-Encoding", spelled(draw, "chunked"), trailing_space=False))
    head = b"".join(draw(st.permutations(fields)))
    reason = draw(st.sampled_from(["", " OK", " Some Reason"]))
    message = f"HTTP/1.1 {status}{reason}\r\n".encode("ascii") + head + b"\r\n"
    if draw(st.booleans()):
        message = b"HTTP/1.1 100 Continue\r\n" + draw(st.sampled_from([b"", b"X-Note: wait\r\n"])) + b"\r\n" + message
    head_size = len(message)
    if framing != "chunked":
        return message + body, status, body, framing, head_size
    for chunk in pieces(body, draw(SIZES)):
        size = format(len(chunk), draw(st.sampled_from(["x", "X", "03x"])))
        message += f"{size}{draw(st.sampled_from(CHUNK_EXTENSIONS))}\r\n".encode() + chunk + b"\r\n"
    message += f"0{draw(st.sampled_from(CHUNK_EXTENSIONS))}\r\n".encode()
    message += b"".join(field(draw, "X-Trailer", str(i)) for i in range(draw(st.integers(0, 2))))
    return message + b"\r\n", status, body, framing, head_size


class Drip:
    """A socketpair that delivers ``data`` to its reading end ``sock`` in
    pieces of ``sizes``, cycled: the writing end sends the next piece each
    time the reader asks for more. Once all is sent it hangs up when
    ``hang_up``, or else stays silent, so that a reader waiting past its
    response times out."""

    def __init__(self, data: bytes, sizes: list[int], hang_up: bool):
        self.writer, self.sock = socket.socketpair()
        self.sock.settimeout(1.0)
        self.pieces = pieces(data, sizes)[::-1]
        self.hang_up = hang_up

    def recv(self, size: int) -> bytes:
        if self.pieces:
            self.writer.sendall(self.pieces.pop())
        elif self.hang_up:
            self.writer.shutdown(socket.SHUT_WR)
        return self.sock.recv(size)

    def close(self) -> None:
        self.writer.close()
        self.sock.close()


def read_dripped(data: bytes, sizes: list[int], hang_up: bool):
    """_Connection.read_response of ``data`` delivered by a Drip."""
    drip = Drip(data, sizes, hang_up)
    try:
        return _Connection(drip).read_response()
    finally:
        drip.close()


class BytesSocket:
    """What http.client.HTTPResponse needs of a socket, holding ``data``."""

    def __init__(self, data: bytes):
        self.data = data

    def makefile(self, mode):
        return io.BytesIO(self.data)


@settings(max_examples=150, deadline=None)
@given(response=responses(), sizes=SIZES)
def test_reader_agrees_with_http_client_over_any_segmenting(response, sizes):
    data, status, body, framing, _ = response
    expected = http.client.HTTPResponse(BytesSocket(data), method="POST")
    expected.begin()
    assert (expected.status, expected.read()) == (status, body)
    got_status, fields, got_body, reusable = read_dripped(data, sizes, hang_up=framing == "close")
    assert (got_status, got_body) == (status, body)
    assert fields == {name.lower(): value.rstrip(" \t") for name, value in expected.getheaders()}
    assert reusable == (not expected.will_close)


@settings(max_examples=100, deadline=None)
@given(response=responses(), sizes=SIZES, data=st.data())
def test_truncated_response_is_a_bad_response(response, sizes, data):
    message, status, body, framing, head_size = response
    cut = data.draw(st.integers(0, len(message) - 1), label="cut")
    if framing == "close" and cut >= head_size:  # the close ends the body: a shorter one is read
        assert read_dripped(message[:cut], sizes, hang_up=True) == (status, ANY, body[:cut - head_size], False)
        return
    with pytest.raises((BadResponse, NoResponse)):
        read_dripped(message[:cut], sizes, hang_up=True)
