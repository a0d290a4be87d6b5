"""Loopback chat-completions stub with a fixed 20 ms service time.

Run as its own process so its Python work never shares an interpreter lock
with the program under test:

    python3 perfbench/stub.py --plan plan.json

It prints ``PORT <n>`` once it listens on 127.0.0.1 and exits when its
standard input closes, so it cannot outlive the benchmark that started it.

* Two handler threads each own one connection at a time, so at most two
  connections are served at once; a kept-alive connection keeps its thread.
* Status line, headers and body go out in one ``sendall`` on a
  ``TCP_NODELAY`` socket: a split write stalls kept-alive calls on the
  Nagle / delayed-ACK interaction.
* The reply and any injected fault are looked up by the query text in the
  plan; only the per-query attempt count (cleared by ``POST /__reset``) is
  state, so arrival order never changes an answer.
* ``GET /__stats`` returns the requests and statuses served, and the
  service time of each, since the last reset.
"""

from __future__ import annotations

import argparse
import json
import socket
import sys
import threading
import time

HANDLER_THREADS = 2
# Time from reading a chat-completion request to sending its response.
SERVICE_S = 0.020
QUERY_MARKER = "User Query:\n"
REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found", 429: "Too Many Requests", 503: "Service Unavailable"}


def frame_response(status: int, body: bytes, extra_headers: tuple[str, ...] = ()) -> bytes:
    """The whole HTTP/1.1 response as one buffer, for a single write."""
    head = [
        f"HTTP/1.1 {status} {REASONS.get(status, 'Error')}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        *extra_headers,
    ]
    return ("\r\n".join(head) + "\r\n\r\n").encode("ascii") + body


def query_of(prompt: str) -> str:
    """The query a routing prompt was built for: the text after the
    template's last query marker."""
    return prompt.rpartition(QUERY_MARKER)[2]


class StubState:
    """Plan, per-query attempt counts and served-request statistics."""

    def __init__(self, plan: dict):
        self.plan = plan
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self._attempts: dict[str, int] = {}
            self._status: dict[int, int] = {}
            self._service_ms: list[float] = []

    def stats(self) -> dict:
        with self._lock:
            return {
                "requests": sum(self._status.values()),
                "status": {str(k): v for k, v in sorted(self._status.items())},
                "service_ms": list(self._service_ms),
            }

    def record(self, status: int, service_ms: float) -> None:
        with self._lock:
            self._status[status] = self._status.get(status, 0) + 1
            self._service_ms.append(service_ms)

    def next_attempt(self, query: str) -> int:
        with self._lock:
            self._attempts[query] = self._attempts.get(query, 0) + 1
            return self._attempts[query]

    def complete(self, body: bytes) -> tuple[int, bytes, tuple[str, ...]]:
        try:
            request = json.loads(body)
            prompt = request["messages"][-1]["content"]
            model = request.get("model", "stub")
        except (ValueError, KeyError, IndexError, TypeError):
            return 400, b'{"error": "bad request"}', ()
        query = query_of(prompt)
        if query not in self.plan:
            return 404, b'{"error": "query not in plan"}', ()
        entry = self.plan[query]
        attempt = self.next_attempt(query)
        fault = entry["fault"]
        if fault == "503_always" or (fault == "503_once" and attempt == 1):
            return 503, b'{"error": "overloaded"}', ()
        if fault == "429_once" and attempt == 1:
            return 429, b'{"error": "rate limited"}', ("Retry-After: 0",)
        reply = {
            "id": "stub",
            "object": "chat.completion",
            "model": model,
            "choices": [{
                "index": 0,
                "message": {"role": "assistant", "content": entry["reply"]},
                "finish_reason": "stop",
            }],
        }
        return 200, json.dumps(reply, ensure_ascii=False).encode("utf-8"), ()


def read_request(conn: socket.socket, buffer: bytearray) -> tuple[str, str, bytes] | None:
    """(method, target, body) of the next request, or None at end of stream."""
    while b"\r\n\r\n" not in buffer:
        chunk = conn.recv(65536)
        if not chunk:
            return None
        buffer += chunk
    head, _, rest = bytes(buffer).partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    method, target, _ = lines[0].split(" ", 2)
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    while len(rest) < length:
        chunk = conn.recv(65536)
        if not chunk:
            return None
        rest += chunk
    buffer[:] = rest[length:]
    return method, target, rest[:length]


def serve_connection(conn: socket.socket, state: StubState) -> None:
    buffer = bytearray()
    while True:
        request = read_request(conn, buffer)
        if request is None:
            return
        method, target, body = request
        start = time.perf_counter()
        if method == "POST" and target == "/__reset":
            state.reset()
            conn.sendall(frame_response(200, b"{}"))
        elif method == "GET" and target == "/__stats":
            conn.sendall(frame_response(200, json.dumps(state.stats()).encode("ascii")))
        elif method == "POST":
            status, payload, headers = state.complete(body)
            time.sleep(max(0.0, SERVICE_S - (time.perf_counter() - start)))
            conn.sendall(frame_response(status, payload, headers))
            state.record(status, (time.perf_counter() - start) * 1e3)
        else:
            conn.sendall(frame_response(404, b"{}"))


def handler_loop(listener: socket.socket, state: StubState) -> None:
    while True:
        try:
            conn, _ = listener.accept()
        except OSError:
            return  # listener closed at shutdown
        with conn:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            try:
                serve_connection(conn, state)
            except (ConnectionError, ValueError):
                pass  # a client that hangs up or sends garbage loses only its own connection


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--plan", required=True, help="JSON plan: query text -> reply and fault")
    args = parser.parse_args(argv)
    with open(args.plan, encoding="utf-8") as handle:
        state = StubState(json.load(handle))

    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind(("127.0.0.1", 0))
    listener.listen(16)
    threads = [
        threading.Thread(target=handler_loop, args=(listener, state), daemon=True)
        for _ in range(HANDLER_THREADS)
    ]
    for thread in threads:
        thread.start()
    print(f"PORT {listener.getsockname()[1]}", flush=True)
    sys.stdin.read()  # until the benchmark closes our stdin
    listener.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
