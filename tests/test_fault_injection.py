"""``ivroute route`` end to end against a loopback endpoint that fails on
purpose: each request gets a drawn fault, and whatever the faults, the
width and the retries, the run either ends with a documented exit code,
every intent accounted for once and ``eval`` agreeing with it, or says why
it stopped."""

import json
import re
import tempfile
import threading
import time
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from ivroute import router
from ivroute.cli import main
from ivroute.datagen import save_dataset
from ivroute.menu import tree_to_document
from ivroute.provider import DEFAULT_API_KEY_ENV

from conftest import Close, chat_response, query_of, tiny_dataset

# A plan is one of these, or the seconds a 200 is held back. The 429s and
# 503s carry Retry-After: 0; the 500s, hang-ups and cut bodies carry none,
# so a retry of theirs waits a jittered backoff.
FAULTS = ["429", "503", "not-a-completion", "500", "cut-body", "hang-up"]


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
            return chat_response(int(plan), retry_after="0")
        if plan == "500":
            return chat_response(500)
        if plan == "hang-up":
            return Close(b"")
        if plan == "not-a-completion":
            return chat_response(body='{"answer": "1-1"}')
        reply = chat_response(content=self.truth[query_of(request)])
        if plan == "cut-body":
            return Close(reply[:-5])
        time.sleep(plan)
        return reply


def route(menu: Path, dataset: Path, url: str, out: Path, *flags: str) -> int:
    return main(["route", "--menu", str(menu), "--dataset", str(dataset), "--provider", "http",
                 "--endpoint", url, "--out", str(out), *flags])


def rows_and_failures(out: Path) -> tuple[list[dict], list[str]]:
    (run_dir,) = out.glob("run-*")
    rows = [json.loads(line) for line in (run_dir / "results.jsonl").read_text(encoding="utf-8").splitlines()]
    manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    return rows, [failure["intent_id"] for failure in manifest["failures"]]


def eval_agrees_with_route(menu: Path, out: Path, route_stdout: str, capsys) -> None:
    """``eval --menu`` of the run in ``out`` prints the accuracy and N that its route printed."""
    (run_dir,) = out.glob("run-*")
    n, accuracy = re.search(r"routed (\d+) intents, accuracy ([^%]+)%", route_stdout).groups()
    assert main(["eval", str(run_dir / "results.jsonl"), "--menu", str(menu)]) == 0
    assert f"accuracy {accuracy}% over {n} results\n" in capsys.readouterr().out


def test_route_under_drawn_faults_accounts_for_every_intent(tiny_tree, tmp_path, loopback, monkeypatch, capsys):
    monkeypatch.delenv(DEFAULT_API_KEY_ENV, raising=False)
    # Every wait a retry is given is a thousandth as long: a jittered
    # backoff, at most 2 s at --max-retries 3, lasts at most 2 ms.
    retry_at = router.Pacing.retry_at
    monkeypatch.setattr(router.Pacing, "retry_at", lambda self, now, *rest: (
        None if (due := retry_at(self, now, *rest)) is None else now + (due - now) / 1000))
    ds = tiny_dataset()
    menu, dataset = tmp_path / "menu.json", tmp_path / "intents.jsonl"
    menu.write_text(json.dumps(tree_to_document(tiny_tree)), encoding="utf-8")
    save_dataset(ds, dataset)
    plan = FaultPlan({r.text: r.ground_truth.canonical() for r in ds.records})
    server = loopback(plan)

    assert route(menu, dataset, server.url, tmp_path / "clean", "--max-in-flight", "1") == 0
    eval_agrees_with_route(menu, tmp_path / "clean", capsys.readouterr().out, capsys)
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
        capsys.readouterr()
        with tempfile.TemporaryDirectory() as out:
            code = route(menu, dataset, server.url, Path(out), "--max-in-flight", str(width),
                         "--error-budget", str(budget), "--max-retries", str(retries))
            printed, err = capsys.readouterr()
            assert code in (0, 1), err
            if code == 0:
                eval_agrees_with_route(menu, Path(out), printed, capsys)
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
