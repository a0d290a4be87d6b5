"""The HTTP/1.1 client against the loopback server sending canned bytes: response framing, connection reuse, the bounds on what a
server may send, the one-write request, TLS and the CONNECT tunnel. The
response reader is also checked against http.client on generated
responses, delivered in pieces down to one byte."""

import base64
import http.client
import io
import json
import socket
from functools import partial
from typing import NamedTuple
from unittest.mock import ANY

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ivroute
from ivroute.httpclient import BadResponse, ConnectionPool, NoResponse, _Connection, _authority
from ivroute.provider import TransportError

from conftest import Close, Raises, outcome_of, python_child, table_tests


def pool_to(url, headers=None):
    """A pool of one connection to ``url``, whose sockets time out after 5 s."""
    return ConnectionPool(url, 1, headers or {}, 5.0)


def call(pool):
    return pool.request({"q": "x"})


def headers(count, size=10):
    return b"".join(b"X-%03d: " % i + b"v" * (size - 9) + b"\r\n" for i in range(count))


class Exchange(NamedTuple):
    """What a pool of one connection to ``url``, by default the loopback
    server's, makes of the server's raw ``replies``, over ``tls`` when set,
    with HTTPS_PROXY set to ``proxy`` at the server's {port} when set: each
    call's (status, body, Retry-After) or Raises, in turn, on ``accepted``
    connections, the server reading the requests ``sent`` whole when given.
    The client closes, itself, each connection that the server does not end
    with a Close, and keeps none open after a failed call."""

    replies: list
    outcomes: list
    accepted: int = 1
    tls: str | None = None
    url: str | None = None
    proxy: str | None = None
    sent: list | None = None


def check_exchange(row, raw_server, monkeypatch, request):
    if row.tls:
        request.getfixturevalue("trusted_test_certificate")
    server = raw_server(row.replies, tls=row.tls)
    if row.proxy:
        monkeypatch.setenv("HTTPS_PROXY", row.proxy.format(port=server.port))
    pool = pool_to(row.url or server.url)
    for expected in row.outcomes:
        if outcome_of(partial(call, pool), expected) is not None:
            assert pool._idle == []
    pool.close()
    assert row.sent is None or server.requests == row.sent
    assert server.accepted == row.accepted
    assert server.wait(client_closed=row.accepted - sum(isinstance(reply, Close) for reply in row.replies))


CHUNKED = (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
           b"5;name=value\r\nhello\r\n6\r\n world\r\n0\r\nX-Checksum: 1\r\n\r\n")
HELLO = (200, "hello", None)


def malformed(reply, message):
    # The pool raises a BadResponse, an OSError, which HttpProvider takes for a TransportError.
    return Exchange([reply], [Raises(BadResponse, message)])


EXCHANGES = {
    "test_chunked_body_with_extension_and_trailer_keeps_the_connection": Exchange(
        [CHUNKED, CHUNKED], [(200, "hello world", None)] * 2),
    "test_reply_that_ends_the_connection_is_never_reused": {
        name: Exchange([reply, reply], [HELLO] * 2, 2) for name, reply in [
            ("http-1.0", b"HTTP/1.0 200 OK\r\nContent-Length: 5\r\n\r\nhello"),
            ("connection-close", b"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 5\r\n\r\nhello"),
            ("read-to-close", Close(b"HTTP/1.1 200 OK\r\n\r\nhello")),  # no length: the body runs to the close
            ("other-coding", Close(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip\r\n\r\nhello"))]},
    # The server closes the TCP connection without a TLS close_notify, as
    # many do; the body still ends there, and the next call opens anew.
    "test_tls_reply_without_a_length_runs_to_the_close": Exchange(
        [Close(b"HTTP/1.1 200 OK\r\n\r\nhello over tls")] * 2, [(200, "hello over tls", None)] * 2, 2, "https"),
    "test_interim_100_continue_is_skipped": Exchange(
        [b"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 503 Busy\r\nRetry-After: 7\r\nContent-Length: 2\r\n\r\nno"],
        [(503, "no", "7")]),
    "test_response_at_the_bounds_is_read": {name: Exchange([reply], [(200, "ok", None)]) for name, reply in [
        ("65536-byte-line", b"HTTP/1.1 200 OK\r\n" + headers(1, 65536) + b"Content-Length: 2\r\n\r\nok"),
        ("100-headers", b"HTTP/1.1 200 OK\r\n" + headers(99) + b"Content-Length: 2\r\n\r\nok"),
        ("100-trailers", b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nok\r\n0\r\n" + headers(100)
         + b"\r\n")]},
    "test_malformed_response_is_a_transport_error_that_closes_the_connection": {
        "non-http": malformed(b"SSH-2.0-OpenSSH_9.6\r\n\r\n", "not an HTTP/1.x status line: 'SSH-2.0-OpenSSH_9.6'"),
        "65537-byte-line": malformed(b"HTTP/1.1 200 OK\r\n" + headers(1, 65537) + b"Content-Length: 2\r\n\r\nok",
                                     "a response line is longer than 65536 bytes"),
        # 65536 bytes and no line feed, on a connection that stays open
        "endless-line": malformed(b"HTTP/1.1 200 OK\r\nX-000: " + b"v" * 65529,
                                  "a response line is longer than 65536 bytes"),
        "101-headers": malformed(b"HTTP/1.1 200 OK\r\n" + headers(100) + b"Content-Length: 2\r\n\r\nok",
                                 "more than 100 header fields"),
        "no-colon": malformed(b"HTTP/1.1 200 OK\r\nNo colon\r\nContent-Length: 2\r\n\r\nok",
                              "malformed header line: 'No colon'"),
        "chunk-size": malformed(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n", "bad chunk size: 'zz'"),
        "prefixed-chunk-size": malformed(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n0x2\r\nok\r\n0\r\n\r\n",
                                         "bad chunk size: '0x2'"),
        "chunk-past-its-size": malformed(
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nokay\r\n0\r\n\r\n",
            "a chunk runs past its size"),
        "101-trailers": malformed(
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n" + headers(101) + b"\r\n",
            "more than 100 trailer fields"),
        "switching-protocols": malformed(
            b"HTTP/1.1 101 Switching Protocols\r\nUpgrade: h2c\r\nConnection: Upgrade\r\n\r\n",
            "101 Switching Protocols to a request that asked for no upgrade"),
        "two-lengths": malformed(b"HTTP/1.1 200 OK\r\nContent-Length: 1, 2\r\n\r\nok", "bad Content-Length: '1, 2'"),
        "5001-digit-length": malformed(b"HTTP/1.1 200 OK\r\nContent-Length: " + b"0" * 5000 + b"1\r\n\r\nok",
                                       f"bad Content-Length: '{'0' * 80}'"),
        "cut-short": malformed(Close(b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nhello"),
                               "the connection closed inside the response"),
        # One digit past each bound: the server closes at once, so a reader that took the size waits for no timeout.
        "19-digit-length": malformed(Close(b"HTTP/1.1 200 OK\r\nContent-Length: " + b"1" * 19 + b"\r\n\r\nok"),
                                     f"bad Content-Length: '{'1' * 19}'"),
        "17-hex-digit-chunk-size": malformed(
            Close(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" + b"1" * 17 + b"\r\nok\r\n0\r\n\r\n"),
            f"bad chunk size: '{'1' * 17}'")},
}
table_tests(globals(), check_exchange, EXCHANGES)


OK = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"
# The CONNECT a pool sends a proxy that holds credentials, and the POST of call() inside the tunnel it opens.
CONNECT = (b"CONNECT endpoint.test:443 HTTP/1.1\r\nHost: endpoint.test:443\r\nProxy-Authorization: Basic "
           + base64.b64encode(b"ivr:pw") + b"\r\n\r\n")
POST = (b"POST /v1/chat/completions HTTP/1.1\r\nHost: localhost:8443\r\nAccept-Encoding: identity\r\nUser-Agent: "
        b"ivroute/" + ivroute.__version__.encode() + b"\r\nContent-Type: application/json\r\nContent-Length: 10\r\n\r\n"
        b'{"q": "x"}')


def refused_tunnel(reply, error):
    return Exchange([reply], [error], url="https://endpoint.test/v1/chat/completions",
                    proxy="http://ivr:pw@127.0.0.1:{port}", sent=[CONNECT])


table_tests(globals(), check_exchange, {
    "test_tunnel_sends_connect_and_refuses_a_bad_reply": {  # ids: the reply and a fragment of its refusal
        f"{reply.decode('latin-1')}-{fragment}": refused_tunnel(reply, Raises(kind, message))
        for reply, kind, message, fragment in [
            (b"HTTP/1.1 407 Proxy Authentication Required\r\nContent-Length: 0\r\n\r\n", OSError,
             "the proxy refused the tunnel: HTTP 407", "refused the tunnel: HTTP 407"),
            (b"HTTP/1.1 200 Connection established\r\n\r\n\x16\x03\x01", BadResponse,
             "the proxy sent bytes past its CONNECT reply", "bytes past its CONNECT reply")]},
    # The certificate names localhost: TLS inside the tunnel is checked
    # against the endpoint's name, not the proxy's address; one tunnel is
    # kept for the second request.
    "test_tunnel_carries_tls_and_is_kept_for_the_next_request": Exchange(
        [b"HTTP/1.1 200 Connection established\r\n\r\n", OK, OK], [(200, "ok", None)] * 2, tls="tunnel",
        url="https://localhost:8443/v1/chat/completions", proxy="http://127.0.0.1:{port}",
        sent=[b"CONNECT localhost:8443 HTTP/1.1\r\nHost: localhost:8443\r\n\r\n", POST, POST]),
})


def test_malformed_bytes_reach_the_provider_as_a_transport_error(raw_server, live_provider):
    server = raw_server([b"SSH-2.0-OpenSSH_9.6\r\n\r\n"])
    with pytest.raises(TransportError, match="^BadResponse: not an HTTP/1.x status line") as excinfo:
        live_provider(server.url).complete("q")
    assert isinstance(excinfo.value.__cause__, BadResponse)
    assert server.wait(client_closed=1)


def test_request_leaves_in_one_write_on_a_nodelay_socket(raw_server, monkeypatch):
    writes = []
    sendall, send = socket.socket.sendall, socket.socket.send
    monkeypatch.setattr(socket.socket, "sendall", lambda s, data, *a: writes.append(bytes(data)) or sendall(s, data, *a))
    monkeypatch.setattr(socket.socket, "send", lambda s, data, *a: writes.append(bytes(data)) or send(s, data, *a))
    server = raw_server([OK, OK])
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
    assert [data for data in writes if data not in client_writes] == [OK, OK]  # the server's
    assert pool._idle[0].sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
    pool.close()


def test_reused_connection_that_fails_is_sent_once_more_on_a_fresh_one(raw_server, monkeypatch):
    # The request never reached the server, so no retry is spent on it.
    server = raw_server([OK, OK])
    pool = pool_to(server.url)
    assert call(pool) == (200, "ok", None)
    sendall, failed = socket.socket.sendall, []

    def reset_once(sock, data, *args):
        if not failed:
            failed.append(data)
            raise ConnectionResetError(104, "Connection reset by peer")
        return sendall(sock, data, *args)

    monkeypatch.setattr(socket.socket, "sendall", reset_once)
    assert call(pool) == (200, "ok", None)
    assert failed[0].startswith(b"POST ") and len(server.requests) == 2
    assert server.accepted == 2 and server.wait(client_closed=1)  # the failed connection, closed
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
    proxy = {variable: "http://127.0.0.1:9"} if variable else {}
    assert python_child(PROXY_PROBE, "http://127.0.0.1:8/v1", **proxy) == f"{loaded}\n"


def test_the_client_imports_nothing_from_the_provider():
    # The pool knows no retry policy: what an HTTP outcome means is HttpProvider's alone.
    assert python_child("import sys, ivroute.httpclient; print('ivroute.provider' in sys.modules)") == "False\n"


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
