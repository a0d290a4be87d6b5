"""``ivroute route`` end to end against a loopback endpoint that fails on
purpose: each request gets a drawn fault, and whatever the faults and the
width, the run either ends with a documented exit code and every intent
accounted for once, or says why it stopped."""

import json
import tempfile
import threading
import time
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from ivroute.cli import main
from ivroute.datagen import save_dataset
from ivroute.menu import tree_to_document
from ivroute.provider import DEFAULT_API_KEY_ENV

from conftest import Close, tiny_dataset

# Faults that carry no Retry-After, so a retry of theirs sleeps a jittered
# wait: drawn only with --max-retries 0, which keeps the test from sleeping.
JITTERED = {"500", "hang-up", "cut-body"}
# A plan is one of these, or the seconds a 200 is held back.
FAULTS = ["429", "503", "not-a-completion", *sorted(JITTERED)]


def response(status: int, body: bytes, extra: str = "") -> bytes:
    return (f"HTTP/1.1 {status} Status\r\nContent-Type: application/json\r\n{extra}"
            f"Content-Length: {len(body)}\r\n\r\n").encode("ascii") + body


class FaultPlan:
    """The answer of an endpoint that routes like the oracle: each request
    takes the next plan, in arrival order, and a 200 once they run out."""

    def __init__(self, truth: dict[str, str]):
        self.truth = truth
        self.plans: list = []
        self.lock = threading.Lock()

    def __call__(self, request, index: int) -> bytes:
        with self.lock:
            plan = self.plans.pop(0) if self.plans else 0.0
        if plan in ("429", "503"):
            return response(int(plan), b'{"error": "busy"}', "Retry-After: 0\r\n")
        if plan == "500":
            return response(500, b'{"error": "boom"}')
        if plan == "hang-up":
            return Close(b"")
        query = json.loads(request.body)["messages"][-1]["content"].rpartition("User Query:\n")[2].strip()
        body = json.dumps({"choices": [{"message": {"content": self.truth[query]}}]}).encode("utf-8")
        if plan == "not-a-completion":
            return response(200, b'{"answer": "1-1"}')
        if plan == "cut-body":
            return Close(response(200, body)[:-5])
        time.sleep(plan)
        return response(200, body)


def route(menu: Path, dataset: Path, url: str, out: Path, *flags: str) -> int:
    return main(["route", "--menu", str(menu), "--dataset", str(dataset), "--provider", "http",
                 "--endpoint", url, "--out", str(out), *flags])


def rows_and_failures(out: Path) -> tuple[list[dict], list[str]]:
    (run_dir,) = out.glob("run-*")
    rows = [json.loads(line) for line in (run_dir / "results.jsonl").read_text(encoding="utf-8").splitlines()]
    manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    return rows, [failure["intent_id"] for failure in manifest["failures"]]


def test_route_under_drawn_faults_accounts_for_every_intent(tiny_tree, tmp_path, loopback, monkeypatch, capsys):
    monkeypatch.delenv(DEFAULT_API_KEY_ENV, raising=False)
    ds = tiny_dataset()
    menu, dataset = tmp_path / "menu.json", tmp_path / "intents.jsonl"
    menu.write_text(json.dumps(tree_to_document(tiny_tree)), encoding="utf-8")
    save_dataset(ds, dataset)
    plan = FaultPlan({r.text: r.ground_truth.canonical() for r in ds.records})
    server = loopback(plan)

    assert route(menu, dataset, server.url, tmp_path / "clean", "--max-in-flight", "1") == 0
    clean, no_failures = rows_and_failures(tmp_path / "clean")
    assert no_failures == [] and [row["predicted"] for row in clean] == [r.ground_truth.canonical() for r in ds.records]
    for row in clean:
        del row["latency"]
    assert server.wait(open=0)

    @settings(max_examples=40, deadline=None)
    @given(plans=st.lists(st.one_of(st.sampled_from(FAULTS), st.integers(0, 50).map(lambda ms: ms / 1000)),
                          max_size=12),
           width=st.integers(1, 8), budget=st.integers(0, 100).map(lambda n: n / 100),
           retries=st.integers(0, 3))
    def check(plans, width, budget, retries):
        plan.plans = list(plans)
        if JITTERED & set(plans):
            retries = 0
        capsys.readouterr()
        with tempfile.TemporaryDirectory() as out:
            code = route(menu, dataset, server.url, Path(out), "--max-in-flight", str(width),
                         "--error-budget", str(budget), "--max-retries", str(retries))
            err = capsys.readouterr().err
            assert code in (0, 1), err
            if code == 0:
                rows, failed = rows_and_failures(Path(out))
                assert sorted([row["intent_id"] for row in rows] + failed) == sorted(r.id for r in ds.records)
                for row in rows:
                    del row["latency"]
                assert rows == [row for row in clean if row["intent_id"] not in failed]
            else:
                assert "exceeded the budget of" in err or "no intent was routed" in err, err
            assert "Traceback" not in err
        assert server.wait(open=0)

    check()
