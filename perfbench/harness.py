"""Pieces shared by the end-to-end and the traced runs: the checkout and its
child-process environment, the stub process, output checks and percentiles.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import FIXTURE_DATASET, FIXTURE_MENU, INVALID

PACKAGE_INIT = Path("src/ivroute/__init__.py")
PROXY_VARIABLES = ("http_proxy", "https_proxy", "all_proxy", "HTTP_PROXY", "HTTPS_PROXY", "ALL_PROXY")


class BenchError(Exception):
    """The benchmark cannot run, or the program failed or gave wrong output."""


def require_checkout(root: Path) -> None:
    """Refuse to run anywhere but a source checkout of the program."""
    missing = [str(p) for p in (PACKAGE_INIT, FIXTURE_MENU, FIXTURE_DATASET) if not (root / p).is_file()]
    if missing:
        raise BenchError(f"not an ivroute source checkout ({root}): missing {', '.join(missing)}")


def child_env(root: Path) -> dict:
    """The environment for child interpreters: the checkout's sources first
    on the import path, and no proxy, so loopback calls stay on this host."""
    env = {k: v for k, v in os.environ.items() if k not in PROXY_VARIABLES}
    env["PYTHONPATH"] = str(root / "src")
    env["NO_PROXY"] = env["no_proxy"] = "127.0.0.1,localhost"
    env.pop("IVR_LLM_API_KEY", None)
    return env


def run_child(argv: list[str], env: dict, log_path: Path, timeout: float) -> tuple[float, resource.struct_rusage]:
    """Run ``argv`` to completion; (wall seconds, rusage). Output goes to
    ``log_path``; a nonzero exit or a timeout raises BenchError."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)  # like wait(), plus the child's rusage
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    if code != 0:
        tail = log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
        raise BenchError(f"{' '.join(argv[1:4])} exited with {code}:\n{tail}")
    return wall, usage


class Stub:
    """The loopback chat-completions stub, in its own process."""

    def __init__(self, root: Path, plan_path: Path, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, str(root / "perfbench" / "stub.py"), "--plan", str(plan_path)],
            env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("PORT "):
            self.close()
            raise BenchError(f"stub did not start: {line!r}")
        self.port = int(line.split()[1])
        self.endpoint = f"http://127.0.0.1:{self.port}/v1/chat/completions"

    def _call(self, method: str, target: str) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request(method, target)
            response = conn.getresponse()
            return json.loads(response.read())
        finally:
            conn.close()

    def reset(self) -> None:
        self._call("POST", "/__reset")

    def stats(self) -> dict:
        return self._call("GET", "/__stats")

    def close(self) -> None:
        """Close its stdin (the stub's signal to exit) and wait for it."""
        if self.proc.stdin:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


# --- statistics -------------------------------------------------------------

def tail_percentile(n: int) -> int | None:
    """The highest whole percentile with at least ten samples beyond it."""
    if n < 20:
        return None
    return min(99, math.floor(100 - 1000 / n))


def percentile(values: list[float], q: int) -> float:
    if q == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def tail_value(values: list[float]) -> float:
    """The tail_percentile of ``values``, or their maximum when too few."""
    q = tail_percentile(len(values))
    return percentile(values, q) if q else max(values)


# --- output checks ----------------------------------------------------------

def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def check_round_trip(inputs: dict, rows: list[dict], manifest: dict, report: dict) -> list[str]:
    """Everything a correct round trip must show; empty when it does.

    * every selected intent appears exactly once, as a result row or as a
      manifest failure, and only the plan's permanently failing query fails;
    * result rows come in dataset order;
    * every prediction is the one the stub's reply plan predicts;
    * the eval report's accuracy, size and INVALID / UNKNOWN_PATH counts
      match the rows the plan predicts.
    """
    problems = []
    selected = inputs["selected"]
    plan = inputs["plan"]
    selected_ids = [r["id"] for r in selected]
    failed_ids = [f["intent_id"] for f in manifest.get("failures", [])]
    row_ids = [r["intent_id"] for r in rows]

    if sorted(row_ids + failed_ids) != sorted(selected_ids):
        problems.append(
            f"{len(row_ids)} rows + {len(failed_ids)} failures do not account for "
            f"the {len(selected_ids)} selected intents exactly once"
        )
    if set(failed_ids) != inputs["planned_failures"]:
        problems.append(f"failed intents {sorted(failed_ids)} != planned {sorted(inputs['planned_failures'])}")
    failed = set(failed_ids)
    if row_ids != [i for i in selected_ids if i not in failed]:
        problems.append("result rows are not in dataset order")

    by_id = {r["id"]: r for r in selected}
    expected = {}
    for row in rows:
        record = by_id.get(row["intent_id"])
        if record is None:
            continue
        expected[row["intent_id"]] = plan[record["text"]]["expected"]
        if row["ground_truth"] != record["ground_truth"]:
            problems.append(f"{row['intent_id']}: ground truth {row['ground_truth']} != {record['ground_truth']}")
    wrong = [row["intent_id"] for row in rows if expected.get(row["intent_id"]) != row["predicted"]]
    if wrong:
        problems.append(f"{len(wrong)} prediction(s) differ from the plan, e.g. {wrong[:3]}")

    truths = {r["id"]: r["ground_truth"] for r in selected}
    terminal = set(truths.values())
    n_correct = sum(1 for i, want in expected.items() if want == truths[i])
    want_accuracy = n_correct / len(rows) if rows else 0.0
    if report.get("n") != len(rows) or report.get("accuracy") != want_accuracy:
        problems.append(
            f"report accuracy {report.get('accuracy')} over {report.get('n')} != "
            f"predicted {want_accuracy} over {len(rows)}"
        )
    predicted = list(expected.values())
    want_columns = {
        INVALID: sum(1 for p in predicted if p == INVALID),
        "UNKNOWN_PATH": sum(1 for p in predicted if p != INVALID and p not in terminal),
    }
    labels = report["matrix"]["predicted_labels"]
    for column, want in want_columns.items():
        got = sum(row[labels.index(column)] for row in report["matrix"]["counts"])
        if got != want:
            problems.append(f"report {column} count {got} != predicted {want}")
    return problems
