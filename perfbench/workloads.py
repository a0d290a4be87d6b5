"""Workload definitions and the seeded inputs each one hands to the program.

Everything here derives from the bundled fixture dataset and the seed alone,
so the same seed gives byte-identical files. The program under test only
ever sees the generated dataset; the reply plan goes to the loopback stub,
and the benchmark keeps the plan to predict what a correct run must score.

This module reads the fixture as plain JSON and never imports ``ivroute``:
the expected outcomes must not come from the code being measured.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

FIXTURE_DATASET = Path("src/ivroute/data/agentnet.intents.jsonl")
FIXTURE_MENU = Path("src/ivroute/data/agentnet.menu.json")

INVALID = "INVALID"
# A well-formed path that is not a terminal of the bundled menu.
NON_TERMINAL_PATH = "9-9-9"
FAULT_RATE = 0.05
# Concurrent provider calls: one per core of the two-core reference machine.
MAX_IN_FLIGHT = 2
# The CLI's --condition value -> the RoutingCondition value it selects.
CONDITION_VALUES = {"flattened": "flattened_paths", "descriptive": "descriptive_menu"}


@dataclass(frozen=True)
class Workload:
    """A route/eval round trip through ``--provider http`` to the stub."""

    name: str
    condition: str  # the CLI's --condition value
    record_filter: str  # the CLI's --filter value
    faults: bool  # whether the stub injects 503/429 replies


WORKLOADS = {
    # Model latency dominates, as in live runs: the 2.5 KB descriptive
    # context and the reply mix exercise the HTTP provider and the parser.
    "http_loopback": Workload("http_loopback", "descriptive", "all", False),
    # The provider's retry, backoff and error-budget path.
    "http_retry": Workload("http_retry", "flattened", "base_only", True),
}


def read_fixture(root: Path) -> list[dict]:
    with open(root / FIXTURE_DATASET, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def build_records(fixture: list[dict], seed: int) -> list[dict]:
    """The fixture's records in an order shuffled by seed."""
    records = [dict(record) for record in fixture]
    random.Random(f"dataset:{seed}").shuffle(records)
    return records


def dataset_jsonl(records: list[dict]) -> str:
    return "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records)


def select(records: list[dict], record_filter: str) -> list[dict]:
    """The records ``route --filter`` routes, in dataset order."""
    if record_filter == "base_only":
        return [r for r in records if r["origin"] == "base"]
    return list(records)


# --- reply and fault plan for the loopback stub -----------------------------

# (kind, weight). Each kind names how the reply is formed from the truth and
# what a strict parser must make of it. The weights are arbitrary coverage
# weights, not measured model behaviour: they only make every normalization
# rule fire, and the INVALID and UNKNOWN_PATH columns fill, in a run's
# hundreds of queries.
REPLY_KINDS = (
    ("clean", 40),
    ("padded", 8),  # surrounding whitespace and a newline
    ("single_quoted", 5),
    ("double_quoted", 5),
    ("backticked", 6),
    ("trailing_period", 8),
    ("unicode_dash", 8),  # en dash instead of hyphen
    ("wrong_path", 8),  # another terminal path: wrong but known
    ("non_terminal", 4),  # well-formed, not a terminal: UNKNOWN_PATH
    ("prose", 6),  # a sentence around the path: INVALID in strict mode
    ("empty", 2),  # INVALID
)


def make_reply(kind: str, truth: str, other: str) -> tuple[str, str]:
    """(reply text, the prediction a strict parse of it must give)."""
    replies = {
        "clean": (truth, truth),
        "padded": (f"  {truth}\n", truth),
        "single_quoted": (f"'{truth}'", truth),
        "double_quoted": (f'"{truth}"', truth),
        "backticked": (f"`{truth}`", truth),
        "trailing_period": (f"{truth}.", truth),
        "unicode_dash": (truth.replace("-", "–"), truth),
        "wrong_path": (other, other),
        "non_terminal": (NON_TERMINAL_PATH, NON_TERMINAL_PATH),
        "prose": (f"The best option is {truth}.", INVALID),
        "empty": ("", INVALID),
    }
    return replies[kind]


def build_plan(selected: list[dict], seed: int, faults: bool) -> dict[str, dict]:
    """Per query text: the stub's reply, the expected prediction, and the
    fault to inject. Choices depend on the seed and the query only.

    With ``faults``, exactly round(5 %) of the queries get one 503, as many
    again get one 429 (``Retry-After: 0``), and one query gets 503 on every
    attempt. The faulted queries are drawn from the first three quarters of
    the routing order, and the permanent failure (about 3.5 s of client
    backoff) from the first quarter: the other worker then has enough
    ordinary calls left to finish level, so the wall time measures the
    retry path and not where the seed happened to put the slowest query.
    """
    paths = sorted({r["ground_truth"] for r in selected})
    if NON_TERMINAL_PATH in paths:
        raise ValueError(f"{NON_TERMINAL_PATH} must not be a terminal path")
    kinds = [k for k, _ in REPLY_KINDS]
    weights = [w for _, w in REPLY_KINDS]
    plan = {}
    for record in selected:
        rng = random.Random(f"reply:{seed}:{record['text']}")
        kind = rng.choices(kinds, weights)[0]
        truth = record["ground_truth"]
        other = rng.choice([p for p in paths if p != truth])
        reply, expected = make_reply(kind, truth, other)
        plan[record["text"]] = {
            "reply": reply,
            "kind": kind,
            "expected": expected,
            "fault": None,
        }
    if faults:
        rng = random.Random(f"faults:{seed}")
        texts = [r["text"] for r in selected]
        n_each = round(FAULT_RATE * len(texts))
        always = rng.choice(texts[: max(1, len(texts) // 4)])
        pool = [t for t in texts[: (3 * len(texts)) // 4] if t != always]
        chosen = rng.sample(pool, 2 * n_each)
        plan[always]["fault"] = "503_always"
        for text in chosen[:n_each]:
            plan[text]["fault"] = "503_once"
        for text in chosen[n_each:]:
            plan[text]["fault"] = "429_once"
    return plan


def write_inputs(root: Path, workload: Workload, seed: int, out_dir: Path) -> dict:
    """Write the workload's dataset (and stub plan) into ``out_dir``.

    Returns what the run needs: file paths, the selected records in routing
    order, the plan and the ids of the intents the plan makes fail on every
    attempt.
    """
    records = build_records(read_fixture(root), seed)
    selected = select(records, workload.record_filter)
    dataset_path = out_dir / "dataset.jsonl"
    dataset_path.write_text(dataset_jsonl(records), encoding="utf-8")
    plan = build_plan(selected, seed, workload.faults)
    plan_path = out_dir / "plan.json"
    plan_path.write_text(json.dumps(plan, ensure_ascii=False), encoding="utf-8")
    return {
        "dataset": dataset_path,
        "plan_path": plan_path,
        "selected": selected,
        "plan": plan,
        "planned_failures": {r["id"] for r in selected if plan[r["text"]]["fault"] == "503_always"},
    }
