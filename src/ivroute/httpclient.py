"""A small HTTP/1.1 client: kept-alive connections to one chat-completions
endpoint, spoken on the standard library's sockets.

It does only what HttpProvider needs: a POST whose head and body leave in
one write, and a response framed by Content-Length, by chunked coding or by
the end of the connection. ``ssl`` is loaded only for an https endpoint or
a CONNECT tunnel, and ``urllib.request`` only when a proxy variable is set.
The module is imported when the first HttpProvider is built, so commands
that build none never load it.
"""

from __future__ import annotations

import functools
import json
import os
import select
import socket
import sys
import threading
from urllib.parse import unquote, urlsplit, urlunsplit

from . import __version__
from .provider import RETRY_AFTER_STATUSES, ProtocolError, TransportError

# Bounds on what the server sends, as http.client has them: one status,
# header, chunk-size or trailer line (its line ending counted) and the
# number of header or trailer fields.
MAX_LINE = 65536
MAX_FIELDS = 100
DEFAULT_PORTS = {"http": 80, "https": 443}
_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


class BadResponse(Exception):
    """The server's bytes are not an HTTP/1.x response."""


class NoResponse(ConnectionError):
    """The connection ended before the first byte of the response."""


class _Connection:
    """One HTTP/1.1 connection: its socket and the bytes received on it but
    not yet read."""

    __slots__ = ("sock", "buffer")

    def __init__(self, sock):
        self.sock = sock
        self.buffer = bytearray()

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None

    def fill(self) -> bool:
        """Append what the socket has to the buffer; False at end of stream."""
        chunk = self.sock.recv(65536)
        self.buffer += chunk
        return bool(chunk)

    def _more(self) -> None:
        if not self.fill():
            raise BadResponse("the connection closed inside the response")

    def read_head(self) -> tuple[int, bool, dict[str, str]]:
        """(status, whether the connection may stay open, header fields by
        lower-case name, repeated ones joined with ", ")."""
        status_line = self.read_line()
        version, _, rest = status_line.partition(" ")
        code = rest[:3]
        if not (version.startswith("HTTP/1.") and code.isascii() and code.isdigit()
                and code >= "100" and rest[3:4] in ("", " ")):
            raise BadResponse(f"not an HTTP/1.x status line: {status_line[:80]!r}")
        fields: dict[str, str] = {}
        for _ in range(MAX_FIELDS + 1):  # the fields, then the empty line
            if not (line := self.read_line()):
                break
            name, colon, value = line.partition(":")
            if not colon or not name or name.strip() != name:
                raise BadResponse(f"malformed header line: {line[:80]!r}")
            name, value = name.lower(), value.strip(" \t")
            fields[name] = f"{fields[name]}, {value}" if name in fields else value
        else:
            raise BadResponse(f"more than {MAX_FIELDS} header fields")
        keep_alive = version != "HTTP/1.0" and "close" not in _tokens(fields.get("connection", ""))
        return int(code), keep_alive, fields

    def read_line(self) -> str:
        """The next line without its ending."""
        buffer = self.buffer
        searched = 0
        while (end := buffer.find(b"\n", searched)) < 0:
            if len(buffer) >= MAX_LINE:
                break
            searched = len(buffer)
            self._more()
        if not 0 <= end < MAX_LINE:
            raise BadResponse(f"a response line is longer than {MAX_LINE} bytes")
        line = buffer[:end].decode("latin-1").rstrip("\r")
        del buffer[:end + 1]
        return line

    def read(self, size: int) -> bytes:
        buffer = self.buffer
        while len(buffer) < size:
            self._more()
        data = bytes(buffer[:size])
        del buffer[:size]
        return data

    def read_to_close(self) -> bytes:
        while self.fill():
            pass
        data = bytes(self.buffer)
        self.buffer.clear()
        return data

    def read_chunked(self) -> bytes:
        """A chunked body; chunk extensions and trailer fields are dropped."""
        body = bytearray()
        while True:
            size = self.read_line().partition(";")[0].strip(" \t")
            if not (0 < len(size) <= 16 and _HEX_DIGITS.issuperset(size)):
                raise BadResponse(f"bad chunk size: {size[:80]!r}")
            if not (size := int(size, 16)):
                break
            body += self.read(size)
            if self.read_line():
                raise BadResponse("a chunk runs past its size")
        for _ in range(MAX_FIELDS + 1):  # trailer fields, then the empty line
            if not self.read_line():
                return bytes(body)
        raise BadResponse(f"more than {MAX_FIELDS} trailer fields")

    def read_response(self) -> tuple[int, dict[str, str], bytes, bool]:
        """(status, header fields, body, whether the connection can carry
        another request). Interim 1xx responses are skipped."""
        status, keep_alive, fields = self.read_head()
        while status < 200:
            if status == 101:
                raise BadResponse("101 Switching Protocols to a request that asked for no upgrade")
            status, keep_alive, fields = self.read_head()
        coding = fields.get("transfer-encoding")
        length = fields.get("content-length")
        if status in (204, 304):
            body = b""
        elif coding is not None and _tokens(coding)[-1:] == ["chunked"]:
            body = self.read_chunked()
        elif coding is None and length is not None:
            lengths = set(_tokens(length))
            value = lengths.pop() if len(lengths) == 1 else ""
            if not (value.isascii() and value.isdigit()):
                raise BadResponse(f"bad Content-Length: {length[:80]!r}")
            body = self.read(int(value))
        else:  # no length given, or a transfer coding other than chunked
            body = self.read_to_close()
            keep_alive = False
        return status, fields, body, keep_alive and not self.buffer


def _tokens(value: str) -> list[str]:
    """The items of a comma-separated header value, in lower case."""
    return [item for item in (part.strip(" \t").lower() for part in value.split(",")) if item]


def _authority(host: str, port: int, default_port: int | None = None) -> str:
    """``host:port`` for a Host header or a CONNECT target: an IPv6 address
    in brackets, a non-ASCII name in IDNA form, no port when it is the
    default."""
    if ":" in host:
        host = f"[{host}]"
    elif not host.isascii():
        host = host.encode("idna").decode("ascii")
    return host if port == default_port else f"{host}:{port}"


def _proxy_for(scheme: str, host: str) -> str | None:
    """The proxy the environment names for ``scheme`` and ``host``, or None.
    urllib.request, which reads the proxy settings, is imported only when a
    ``<scheme>_proxy`` or ``all_proxy`` variable is set, in either case."""
    names = (f"{scheme}_proxy", "all_proxy")
    if not any(value and name.lower() in names for name, value in os.environ.items()):
        return None
    import urllib.request

    proxies = urllib.request.getproxies()
    proxy = proxies.get(scheme) or proxies.get("all")
    if proxy and not urllib.request.proxy_bypass(host):
        return proxy
    return None


class ConnectionPool:
    """Kept-alive HTTP/1.1 connections to one endpoint, reused across calls.

    ``request`` is HttpProvider's transport. A call takes the most recently
    used idle connection, or opens one, and puts it back once the response
    is read, unless the response ended the connection. At most ``size``
    connections are kept, so a provider with ``size`` calls in flight never
    holds more than that. The proxy (from ``HTTP(S)_PROXY`` / ``NO_PROXY``),
    the request head but its Content-Length, with ``headers`` in it, and the
    ``timeout`` of every socket are settled here, once, not per request; a
    header that holds a line break is refused here, before anything is sent.
    """

    def __init__(self, url: str, size: int, headers: dict, timeout: float):
        parts = urlsplit(url)
        if parts.scheme not in DEFAULT_PORTS or not parts.hostname:
            raise ValueError(f"endpoint must be an http:// or https:// URL, not {url!r}")
        default_port = DEFAULT_PORTS[parts.scheme]
        port = default_port if parts.port is None else parts.port  # .port raises ValueError when malformed
        self._size = size
        self._timeout = timeout
        self._idle: list[_Connection] = []
        self._lock = threading.Lock()
        self._address = (parts.hostname, port)
        self._tls_host = parts.hostname if parts.scheme == "https" else None
        self._tunnel = None  # the CONNECT request, when TLS goes through a proxy
        target = urlunsplit(("", "", parts.path or "/", parts.query, ""))
        fields = {
            "Host": _authority(parts.hostname, port, default_port), "Accept-Encoding": "identity",
            "User-Agent": f"ivroute/{__version__}", "Content-Type": "application/json",
        }

        proxy = _proxy_for(parts.scheme, parts.hostname)
        if proxy:
            proxy_parts = urlsplit(proxy if "://" in proxy else "http://" + proxy)
            if proxy_parts.scheme != "http" or not proxy_parts.hostname:
                raise ValueError(f"unsupported proxy {proxy!r}: only http:// proxies are")
            proxy_headers = {}
            if proxy_parts.username is not None:
                import base64

                user = f"{unquote(proxy_parts.username)}:{unquote(proxy_parts.password or '')}"
                token = base64.b64encode(user.encode("utf-8")).decode("ascii")
                proxy_headers["Proxy-Authorization"] = f"Basic {token}"
            self._address = (proxy_parts.hostname, proxy_parts.port or 80)
            if self._tls_host:  # a CONNECT tunnel through the proxy, TLS to the endpoint inside it
                authority = _authority(parts.hostname, port)
                connect = _head(f"CONNECT {authority} HTTP/1.1", {"Host": authority, **proxy_headers})
                self._tunnel = connect + b"\r\n"
            else:  # the proxy takes the absolute URL
                target = url
                fields.update(proxy_headers)
        self._head = _head(f"POST {target} HTTP/1.1", {**fields, **headers})

    def request(self, payload: dict) -> tuple[int, str, str | None]:
        """POST ``payload`` as JSON; (status, body decoded as UTF-8, the
        Retry-After header of a 429 or 503 response or None)."""
        body = json.dumps(payload).encode("utf-8")
        message = self._head + b"Content-Length: %d\r\n\r\n" % len(body) + body
        conn = self._checkout()
        try:
            if conn is not None:
                try:
                    response = self._send(conn, message)
                except NoResponse:
                    # The server closed a kept-alive connection between the
                    # liveness check and the request: the request was never
                    # answered, so it goes once more on a fresh connection.
                    conn.close()
                    conn = None
            if conn is None:
                conn = self._open()
                response = self._send(conn, message)
        except BaseException as exc:
            if conn is not None:
                conn.close()
            # A certificate that failed verification fails again, so it is
            # not retried. Any TLS connection has loaded ssl; looking it up
            # instead of importing it keeps ssl out of http:// runs.
            ssl = sys.modules.get("ssl")
            if ssl is not None and isinstance(exc, ssl.SSLCertVerificationError):
                raise ProtocolError(f"TLS certificate refused: {exc}") from exc
            if isinstance(exc, (OSError, BadResponse)):
                raise TransportError(f"{type(exc).__name__}: {exc}") from exc
            raise
        status, fields, data, reusable = response
        if reusable:
            self._checkin(conn)
        else:
            conn.close()
        retry_after = fields.get("retry-after") if status in RETRY_AFTER_STATUSES else None
        return status, data.decode("utf-8", errors="replace"), retry_after

    def close(self) -> None:
        """Close every idle connection. The pool stays usable: the next
        request opens a new one."""
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def _open(self) -> _Connection:
        conn = _Connection(socket.create_connection(self._address, self._timeout))
        try:
            conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._tunnel:
                conn.sock.sendall(self._tunnel)
                status, _, _ = conn.read_head()
                if status != 200:
                    raise OSError(f"the proxy refused the tunnel: HTTP {status}")
                if conn.buffer:
                    raise BadResponse("the proxy sent bytes past its CONNECT reply")
            if self._tls_host:
                conn.sock = _tls_context().wrap_socket(conn.sock, server_hostname=self._tls_host)
        except BaseException:
            conn.close()
            raise
        return conn

    def _checkout(self) -> _Connection | None:
        """The most recently used idle connection still open, or None."""
        while True:
            with self._lock:
                if not self._idle:
                    return None
                conn = self._idle.pop()
            if not _dropped(conn.sock):
                return conn
            conn.close()  # the server hung up while it sat idle: no attempt is spent on it

    def _checkin(self, conn: _Connection) -> None:
        with self._lock:
            if len(self._idle) < self._size:
                self._idle.append(conn)
                return
        conn.close()

    def _send(self, conn: _Connection, message: bytes) -> tuple[int, dict[str, str], bytes, bool]:
        """Write the request in one go and read the response: (status,
        header fields, body, whether the connection can carry another)."""
        try:
            conn.sock.sendall(message)
            answered = conn.fill()
        except ConnectionError as exc:
            raise NoResponse(f"{type(exc).__name__}: {exc}") from exc
        if not answered:
            raise NoResponse("the server closed the connection without a response")
        return conn.read_response()


def _head(start_line: str, fields: dict) -> bytes:
    """A request head up to its closing empty line, each line ended. A field
    that holds a line break is refused, named but not shown, since it may
    hold a credential."""
    lines = [start_line]
    for name, value in fields.items():
        line = f"{name}: {value}"
        if "\r" in line or "\n" in line:
            raise ValueError(f"header field {name!r} holds a line break")
        lines.append(line)
    return "".join(line + "\r\n" for line in lines).encode("latin-1")


@functools.cache
def _tls_context():
    """The system's trust store and the default TLS settings, with host
    name checks; loading them takes tens of milliseconds, so every pool
    shares one context."""
    import ssl

    return ssl.create_default_context()


def _dropped(sock) -> bool:
    """Whether an idle kept-alive socket can no longer carry a request: it
    is gone, or it polls readable, which between requests means the
    server's FIN (or stray bytes) arrived, or hung up or in error."""
    if sock is None:
        return True
    poller = select.poll()  # select.select() cannot watch a descriptor past FD_SETSIZE (1024)
    poller.register(sock, select.POLLIN)
    return bool(poller.poll(0))
