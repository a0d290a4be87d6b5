"""Fast self-test of the benchmark harness on tiny inputs.

    python3 -m pytest perfbench -q

Checks the seeded dataset builder, the stub's keyed replies and one-write
framing, the output checks, and the self-time arithmetic.
"""

from __future__ import annotations

import http.client
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import stub  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer, covered, self_cpu, self_time  # noqa: E402


# --- dataset builder ----------------------------------------------------------

def test_same_seed_same_bytes_other_seed_other_order():
    fixture = workloads.read_fixture(ROOT)
    one = workloads.dataset_jsonl(workloads.build_records(fixture, seed=7))
    again = workloads.dataset_jsonl(workloads.build_records(fixture, seed=7))
    other = workloads.dataset_jsonl(workloads.build_records(fixture, seed=8))
    assert one == again
    assert one != other
    assert sorted(one.splitlines()) == sorted(other.splitlines())  # same records, other order


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_dataset_passes_validation(name, tmp_path):
    from ivroute.datagen import load_dataset, validate_dataset
    from ivroute.menu import flatten, load_menu

    workload = workloads.WORKLOADS[name]
    inputs = workloads.write_inputs(ROOT, workload, seed=3, out_dir=tmp_path)
    tree = load_menu(ROOT / workloads.FIXTURE_MENU)
    ds = load_dataset(inputs["dataset"], menu_name=tree.name)
    assert validate_dataset(ds, flatten(tree)) == []
    assert len(ds.records) == 920
    assert len({r.text for r in ds.records}) == len(ds.records)
    assert [r.id for r in ds.records if workload.record_filter == "all" or r.origin == "base"] == [
        r["id"] for r in inputs["selected"]
    ]


def test_fault_plan_counts_and_positions():
    records = workloads.build_records(workloads.read_fixture(ROOT), seed=5)
    selected = workloads.select(records, "base_only")
    plan = workloads.build_plan(selected, seed=5, faults=True)
    faults = [plan[r["text"]]["fault"] for r in selected]
    assert faults.count("503_always") == 1
    assert faults.count("503_once") == faults.count("429_once") == round(0.05 * 230)
    assert faults.index("503_always") < len(selected) // 4
    assert all(f is None for f in faults[(3 * len(selected)) // 4:])
    plain = workloads.build_plan(selected, seed=5, faults=False)
    assert plain == workloads.build_plan(selected[::-1], seed=5, faults=False)
    assert {t: e["reply"] for t, e in plan.items()} == {t: e["reply"] for t, e in plain.items()}


# --- stub ---------------------------------------------------------------------

PLAN = {
    "my bill is wrong": {"reply": "`1-2`", "fault": None},
    "no signal": {"reply": "2-1-1", "fault": "503_once"},
    "slow internet": {"reply": "2-2-1", "fault": "429_once"},
    "broken": {"reply": "3-1", "fault": "503_always"},
}


def prompt_for(query: str) -> str:
    return f"Select a path.\n\nUser Query:\n{query}"


def test_frame_response_is_one_complete_buffer():
    body = b'{"ok": true}'
    framed = stub.frame_response(429, body, ("Retry-After: 0",))
    head, _, rest = framed.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 429 ")
    assert b"Retry-After: 0" in head
    assert f"Content-Length: {len(body)}".encode() in head
    assert rest == body


class FakeConnection:
    """A socket stand-in that replays requests and records every write."""

    def __init__(self, data: bytes):
        self._chunks = [data[i:i + 7] for i in range(0, len(data), 7)]  # arrives in pieces
        self.writes: list[bytes] = []

    def recv(self, size: int) -> bytes:
        return self._chunks.pop(0) if self._chunks else b""

    def sendall(self, data: bytes) -> None:
        self.writes.append(data)


def request_bytes(query: str) -> bytes:
    body = json.dumps({"model": "m", "messages": [{"role": "user", "content": prompt_for(query)}]}).encode()
    return b"POST /v1/chat/completions HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n" % len(body) + body


def test_each_response_is_a_single_write_on_a_kept_alive_connection():
    state = stub.StubState(PLAN)
    conn = FakeConnection(request_bytes("my bill is wrong") + request_bytes("no signal") * 2)
    stub.serve_connection(conn, state)
    assert len(conn.writes) == 3
    statuses = [w.split(b" ", 2)[1] for w in conn.writes]
    assert statuses == [b"200", b"503", b"200"]
    body = conn.writes[0].partition(b"\r\n\r\n")[2]
    assert json.loads(body)["choices"][0]["message"]["content"] == "`1-2`"
    assert state.stats()["status"] == {"200": 2, "503": 1}


def test_replies_are_keyed_on_the_query_not_on_arrival_order():
    for order in (list(PLAN), list(reversed(PLAN))):
        state = stub.StubState(PLAN)
        seen = {}
        for query in order:
            status, body, headers = state.complete(json.dumps(
                {"messages": [{"role": "user", "content": prompt_for(query)}]}).encode())
            seen[query] = (status, headers)
        assert seen == {
            "my bill is wrong": (200, ()),
            "no signal": (503, ()),
            "slow internet": (429, ("Retry-After: 0",)),
            "broken": (503, ()),
        }


def test_stub_process_serves_counts_and_exits_when_stdin_closes(tmp_path):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(PLAN))
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "stub.py"), "--plan", str(plan_path)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    try:
        port = int(proc.stdout.readline().split()[1])

        def call(method, target, payload=None):
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
            try:
                conn.request(method, target, body=payload)
                response = conn.getresponse()
                return response.status, dict(response.getheaders()), response.read()
            finally:
                conn.close()

        payload = json.dumps({"messages": [{"role": "user", "content": prompt_for("slow internet")}]})
        assert call("POST", "/v1/chat/completions", payload)[0] == 429
        status, _, body = call("POST", "/v1/chat/completions", payload)
        assert status == 200 and json.loads(body)["choices"][0]["message"]["content"] == "2-2-1"
        stats = json.loads(call("GET", "/__stats")[2])
        assert stats["requests"] == 2 and stats["status"] == {"200": 1, "429": 1}
        assert all(ms >= 20.0 for ms in stats["service_ms"])
        call("POST", "/__reset")
        assert json.loads(call("GET", "/__stats")[2])["requests"] == 0
    finally:
        proc.stdin.close()
        proc.wait(timeout=5)
        proc.stdout.close()
    assert proc.returncode == 0


# --- output checks --------------------------------------------------------------

def clean_case():
    selected = [
        {"id": "a", "text": "A", "ground_truth": "1-1"},
        {"id": "b", "text": "B", "ground_truth": "2-1-1"},
    ]
    plan = {r["text"]: {"expected": r["ground_truth"]} for r in selected}
    rows = [{"intent_id": r["id"], "ground_truth": r["ground_truth"], "predicted": r["ground_truth"]} for r in selected]
    labels = ["1-1", "2-1-1", "INVALID", "UNKNOWN_PATH"]
    report = {"n": 2, "accuracy": 1.0, "matrix": {"predicted_labels": labels, "counts": [[1, 0, 0, 0], [0, 1, 0, 0]]}}
    return {"selected": selected, "plan": plan, "planned_failures": set()}, rows, {"failures": []}, report


def test_output_check_accepts_a_correct_round_trip():
    assert harness.check_round_trip(*clean_case()) == []


def test_output_check_flags_order_loss_and_accuracy():
    inputs, rows, manifest, report = clean_case()
    assert any("order" in p for p in harness.check_round_trip(inputs, rows[::-1], manifest, report))
    assert any("exactly once" in p for p in harness.check_round_trip(inputs, rows[:1], manifest, report))
    wrong = [dict(rows[0], predicted="2-1-1"), rows[1]]
    assert harness.check_round_trip(inputs, wrong, manifest, report)


def test_output_check_accepts_only_the_planned_failure():
    selected = [{"id": "a", "text": "A", "ground_truth": "1-1"}, {"id": "b", "text": "B", "ground_truth": "2-1-1"}]
    plan = {"A": {"expected": "INVALID"}, "B": {"expected": "2-1-1"}}
    rows = [{"intent_id": "a", "ground_truth": "1-1", "predicted": "INVALID"}]
    labels = ["1-1", "2-1-1", "INVALID", "UNKNOWN_PATH"]
    report = {"n": 1, "accuracy": 0.0, "matrix": {"predicted_labels": labels, "counts": [[0, 0, 1, 0], [0, 0, 0, 0]]}}
    manifest = {"failures": [{"intent_id": "b", "error": "HTTP 503"}]}
    inputs = {"selected": selected, "plan": plan, "planned_failures": {"b"}}
    assert harness.check_round_trip(inputs, rows, manifest, report) == []
    inputs["planned_failures"] = set()
    assert any("planned" in p for p in harness.check_round_trip(inputs, rows, manifest, report))


def test_tail_percentile_keeps_ten_samples_beyond():
    assert harness.tail_percentile(920) == 98
    assert harness.tail_percentile(229) == 95
    assert harness.tail_percentile(2000) == 99
    assert harness.tail_percentile(19) is None
    assert harness.tail_value([3.0, 1.0, 2.0]) == 3.0  # too few samples: the maximum


# --- spans and self time --------------------------------------------------------

def span(i, start, end, parent=None, thread=1, cpu=0.0):
    return Span(i, f"s{i}", start, end, parent, None, None, thread, cpu)


def test_covered_merges_overlapping_children_and_clips_to_parent():
    assert covered(0.0, 10.0, [(1.0, 4.0), (3.0, 6.0), (8.0, 12.0), (-1.0, 0.5)]) == pytest.approx(7.5)
    assert covered(0.0, 10.0, []) == 0.0


def test_self_time_subtracts_union_of_children_once():
    parent = span(1, 0.0, 10.0)
    spans = [parent, span(2, 1.0, 5.0, 1), span(3, 2.0, 6.0, 1), span(4, 2.5, 3.0, 2)]
    assert self_time(parent, spans) == pytest.approx(5.0)  # grandchild 4 not counted again


def test_self_cpu_subtracts_only_children_on_the_same_thread():
    parent = span(1, 0.0, 10.0, thread=1, cpu=6.0)
    spans = [parent, span(2, 1.0, 2.0, 1, thread=1, cpu=1.0), span(3, 1.0, 9.0, 1, thread=2, cpu=8.0)]
    assert self_cpu(parent, spans) == pytest.approx(5.0)


def test_tracer_records_parent_request_and_adoption_across_threads():
    import threading

    tracer = Tracer()

    def worker():
        tracer.call("child", lambda: None, request="q1")

    def outer():
        with tracer.adopting():
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join(5)
            assert not thread.is_alive()

    tracer.call("outer", outer)
    child, outer_span = tracer.spans
    assert (child.name, outer_span.name) == ("child", "outer")
    assert child.parent == outer_span.id and child.request == "q1"
    assert child.thread != outer_span.thread
