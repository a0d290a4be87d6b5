"""Acceptance suite: one test per shipping criterion.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion. Every check here is deterministic and offline; criterion 10
only verifies that the live-endpoint reproduction script and its
documentation exist, it does not call any network service.
"""

import os
import random
import re
import socket
import threading
import time
from pathlib import Path

import pytest

from ivroute.cli import main as cli_main
from ivroute.datagen import validate_dataset
from ivroute.evaluation import (
    EXTRA_COLUMNS,
    UNKNOWN_PATH,
    accuracy,
    confusion_matrix,
    format_percent,
    per_class_metrics,
)
from ivroute.menu import flatten, render_descriptive, render_paths_tsv
from ivroute.prompts import RoutingCondition, load_template, query_of
from ivroute.provider import (
    OracleProvider,
    Provider,
    ProviderConfig,
    check_role_separation,
)
from ivroute.router import INVALID, RoutingResult, parse_dtmf_response, route_all
from ivroute.synthesis import build_dataset

from conftest import AnsweringProvider, golden_text, numbered, subject_of

REPO_ROOT = Path(__file__).resolve().parent.parent

BOTH_CONDITIONS = (RoutingCondition.FLATTENED_PATHS, RoutingCondition.DESCRIPTIVE_MENU)


def announce(criterion: int, message: str) -> None:
    print(f"PASS criterion {criterion:02d}: {message}")


# --- 1. golden flattening ----------------------------------------------------------

def test_criterion_01_golden_flattening(tree):
    started = time.perf_counter()
    terminal = flatten(tree)
    tsv = render_paths_tsv(terminal)
    elapsed = time.perf_counter() - started

    assert len(terminal) == 23
    assert tsv == golden_text("agentnet.paths.tsv")
    assert elapsed < 1.0
    announce(1, f"23 terminal paths byte-equal to the golden TSV in {elapsed:.3f}s")


# --- 2. golden rendering and template wording -----------------------------------------

EXPECTED_DESCRIPTIVE_TEMPLATE = (
    "Given the following IVR menu structure, identify the exact DTMF path "
    "(e.g., '1-2-3') that best addresses the user's query. Output only the path.\n"
    "\n"
    "IVR Menu:\n"
    "{{MENU}}\n"
    "\n"
    "User Query:\n"
    "{{QUERY}}"
)

EXPECTED_FLATTENED_TEMPLATE = (
    "Select the most appropriate DTMF path from the list below that "
    "corresponds to the user's query. Output only the path.\n"
    "\n"
    "Available Paths:\n"
    "{{PATHS}}\n"
    "\n"
    "User Query:\n"
    "{{QUERY}}"
)


def test_criterion_02_golden_rendering(tree):
    started = time.perf_counter()
    outline = render_descriptive(tree)
    descriptive = load_template("template_descriptive.txt")
    flattened = load_template("template_flattened.txt")
    elapsed = time.perf_counter() - started

    assert outline == golden_text("agentnet.descriptive.txt")
    assert descriptive == EXPECTED_DESCRIPTIVE_TEMPLATE
    assert flattened == EXPECTED_FLATTENED_TEMPLATE
    assert elapsed < 1.0
    announce(2, f"menu outline and both prompt templates byte-exact in {elapsed:.3f}s")


# --- 3. oracle end-to-end ---------------------------------------------------------------

def test_criterion_03_oracle_end_to_end(tree, dataset, monkeypatch):
    def no_network(*args, **kwargs):
        raise AssertionError("network access attempted during the oracle run")

    monkeypatch.setattr(socket, "socket", no_network)
    monkeypatch.setattr(socket, "create_connection", no_network)

    classes = [tp.path.canonical() for tp in flatten(tree)]
    expected_n = {"base_only": 230, "all": 920}
    started = time.perf_counter()
    for condition in BOTH_CONDITIONS:
        for record_filter, n in expected_n.items():
            provider = OracleProvider(dataset.records, ProviderConfig(model_name="oracle-mock", max_in_flight=8))
            run = route_all(dataset, condition, tree, provider, record_filter=record_filter)
            assert len(run.results) == n
            assert accuracy(run.results) == 1.0
            matrix = confusion_matrix(run.results, classes)
            for i, row in enumerate(matrix.counts):
                assert row == [sum(row) if j == i else 0 for j in range(len(row))]
    elapsed = time.perf_counter() - started

    assert elapsed < 10.0
    announce(3, "oracle routing scored 1.0 with diagonal matrices for "
                f"N in {{230, 920}} under both conditions in {elapsed:.2f}s, no network")


# --- 4. accuracy arithmetic ----------------------------------------------------------------

def wrong_path(truth: str) -> str:
    return "1-2" if truth == "1-1" else "1-1"


def answered_run(dataset, tree, record_filter: str, n_correct: int) -> list[RoutingResult]:
    """The results of a run whose first ``n_correct`` selected queries are
    answered with their truth and the rest with a wrong path."""
    records = dataset.records if record_filter == "all" else [
        r for r in dataset.records if r.origin == "base"
    ]
    replies = {
        r.text: r.ground_truth.canonical() if i < n_correct else wrong_path(r.ground_truth.canonical())
        for i, r in enumerate(records)
    }
    provider = AnsweringProvider(lambda prompt: replies[query_of(prompt)], model_name="answering-mock")
    run = route_all(dataset, RoutingCondition.FLATTENED_PATHS, tree, provider,
                    record_filter=record_filter)
    return run.results


def test_criterion_04_accuracy_arithmetic(tree, dataset):
    base = answered_run(dataset, tree, "base_only", 205)
    assert len(base) == 230
    assert sum(r.correct for r in base) == 205
    assert format_percent(accuracy(base)) == "89.13"

    augmented = answered_run(dataset, tree, "all", 709)
    assert len(augmented) == 920
    assert sum(r.correct for r in augmented) == 709
    assert format_percent(accuracy(augmented)) == "77.07"
    announce(4, 'answering 205/230 right reports "89.13" and 709/920 reports "77.07"')


# --- 5. metric oracle equivalence ------------------------------------------------------------

def make_result(truth: str, predicted: str) -> RoutingResult:
    return RoutingResult(
        intent_id=f"{truth}:b00",
        raw_response=predicted,
        predicted=predicted,
        ground_truth=truth,
        latency=0.0,
    )


def brute_force_score(results, classes):
    """Straight-line reimplementation of the scorer with plain dicts."""
    columns = list(classes) + list(EXTRA_COLUMNS)
    cells = {(t, p): 0 for t in classes for p in columns}
    for r in results:
        predicted = r.predicted
        if predicted != INVALID and predicted not in classes:
            predicted = UNKNOWN_PATH
        cells[(r.ground_truth, predicted)] += 1

    acc = sum(1 for r in results if r.predicted == r.ground_truth) / len(results)

    per_class = {}
    for label in classes:
        tp = cells[(label, label)]
        support = sum(cells[(label, p)] for p in columns)
        col = sum(cells[(t, label)] for t in classes)
        precision = tp / col if col else 0.0
        recall = tp / support if support else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class[label] = (precision, recall, f1, support)
    return acc, cells, per_class


def test_criterion_05_metric_oracle_equivalence():
    rng = random.Random(5150)
    labels = [f"{a}-{b}" for a in range(1, 4) for b in range(1, 5)]
    mismatches = 0
    for _ in range(1000):
        classes = rng.sample(labels, rng.randint(2, len(labels)))
        predictions = classes + [INVALID, "9-9-9", "8-8"]
        results = [
            make_result(rng.choice(classes), rng.choice(predictions))
            for _ in range(rng.randint(1, 50))
        ]

        acc, cells, per_class = brute_force_score(results, classes)
        matrix = confusion_matrix(results, classes)
        metrics = per_class_metrics(matrix)

        if accuracy(results) != acc:
            mismatches += 1
        for (truth, predicted), count in cells.items():
            cell = matrix.counts[matrix.true_labels.index(truth)][matrix.predicted_labels.index(predicted)]
            if cell != count:
                mismatches += 1
        for m in metrics:
            expected = per_class[m.label]
            if (m.precision, m.recall, m.f1, m.support) != expected:
                mismatches += 1

    assert mismatches == 0
    announce(5, "scorer matched the brute-force oracle on 1000 random result lists")


# --- 6. parser grammar property ------------------------------------------------------------

REFERENCE_QUOTES = (("'", "'"), ('"', '"'), ("`", "`"))
REFERENCE_DASHES = "‐‑‒–—―−"
REFERENCE_GRAMMAR = re.compile(r"[0-9](?:-[0-9])*\Z")


def reference_normalize(text: str) -> str:
    text = text.strip()
    if len(text) >= 2:
        for open_q, close_q in REFERENCE_QUOTES:
            if text.startswith(open_q) and text.endswith(close_q):
                text = text[1:-1]
                break
    if text.endswith("."):
        text = text[:-1]
    for dash in REFERENCE_DASHES:
        text = text.replace(dash, "-")
    return text


def random_reply(rng: random.Random) -> str:
    alphabet = "0123456789" * 3 + "-" + REFERENCE_DASHES + "'\"`. \t\nabzXY{}()１٣"
    style = rng.random()
    if style < 0.45:
        # arbitrary soup
        return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
    # decorated path, valid more often than not
    sep = rng.choice("-" + REFERENCE_DASHES)
    core = sep.join(str(rng.randint(0, 9)) for _ in range(rng.randint(1, 4)))
    if rng.random() < 0.25:
        core = core.replace(sep, sep + sep, 1)  # doubled separator breaks the grammar
    if rng.random() < 0.4:
        quote = rng.choice("'\"`")
        core = quote + core + quote
    if rng.random() < 0.4:
        core += rng.choice([".", "..", " please"])
    if rng.random() < 0.4:
        core = rng.choice(["", " ", "\t", "\n "]) + core + rng.choice(["", " ", "\n"])
    return core


def test_criterion_06_parser_grammar_property():
    rng = random.Random(60606)
    violations = 0
    accepted = 0
    for _ in range(10**5):
        reply = random_reply(rng)
        parsed = parse_dtmf_response(reply)
        expected_valid = REFERENCE_GRAMMAR.match(reference_normalize(reply)) is not None
        if (parsed.path is not None) != expected_valid:
            violations += 1
            continue
        if parsed.path is not None:
            accepted += 1
            canonical = parsed.path.canonical()
            again = parse_dtmf_response(canonical)
            if again.path is None or again.path.canonical() != canonical:
                violations += 1
            elif again.normalization_applied != ():
                violations += 1

    assert violations == 0
    assert accepted > 1000  # the generator must actually exercise the accept side
    announce(6, f"100000 random replies, {accepted} accepted, zero grammar violations")


# --- 7. dataset invariants --------------------------------------------------------------------

def generation_replies(paths, per_node: int, variants: int):
    """An ``answer`` for both generation stages: ``per_node`` complaints
    that name the path, and ``variants`` paraphrases that name the text."""
    tag_of = {tp.breadcrumb_text(): tp.path.canonical() for tp in paths}

    def answer(prompt) -> str:
        subject = subject_of(prompt)
        if subject in tag_of:
            return numbered([f"please handle {tag_of[subject]} issue number {i}" for i in range(per_node)])
        return numbered([f"variant {k} of {subject}" for k in range(variants)])

    return answer


@pytest.mark.parametrize("per_node, variants", [(1, 0), (2, 1), (10, 3)])
def test_criterion_07_dataset_invariants(tree, paths, per_node, variants):
    provider = AnsweringProvider(generation_replies(paths, per_node, variants), model_name="answering-mock")
    ds = build_dataset(tree, provider, per_node=per_node, variants=variants, seed=7)

    assert len(ds.records) == per_node * 23 * (1 + variants)
    base_truth = {r.id: r.ground_truth.canonical() for r in ds.records if r.origin == "base"}
    for record in ds.records:
        if record.origin == "augmented":
            assert record.ground_truth.canonical() == base_truth[record.base_id]
    assert validate_dataset(ds, paths) == []
    announce(7, f"per_node={per_node} variants={variants} gave "
                f"{len(ds.records)} valid records")


# --- 8. concurrency bound ------------------------------------------------------------------

class CountingProvider(Provider):
    """Tracks overlap with its own counter, independent of the base class."""

    def __init__(self, bound: int):
        super().__init__(ProviderConfig(model_name="counting-mock", max_in_flight=bound))
        self._counter_lock = threading.Lock()
        self._active = 0
        self.observed_peak = 0

    def _request(self, text):
        with self._counter_lock:
            self._active += 1
            self.observed_peak = max(self.observed_peak, self._active)
        time.sleep(0.0005)
        with self._counter_lock:
            self._active -= 1
        return "1-1"


@pytest.mark.parametrize("bound", [1, 4, 16])
def test_criterion_08_concurrency_bound(tree, dataset, bound):
    provider = CountingProvider(bound)
    run = route_all(dataset, RoutingCondition.FLATTENED_PATHS, tree, provider,
                    record_filter="all")
    assert len(run.results) == 920
    assert provider.observed_peak <= bound
    assert provider.peak_in_flight <= bound
    announce(8, f"920 calls at max_in_flight={bound}: peak overlap "
                f"{provider.observed_peak} <= {bound}")


# --- 9. role separation ----------------------------------------------------------------------

def test_criterion_09_role_separation(capsys):
    distinct = {
        "menugen": ProviderConfig(model_name="gpt-3.5-turbo"),
        "datagen": ProviderConfig(model_name="gpt-4o-mini"),
        "routing": ProviderConfig(model_name="gpt-4.1-mini"),
    }
    assert check_role_separation(distinct) == []

    shared = {
        "menugen": ProviderConfig(model_name="gpt-4o-mini"),
        "datagen": ProviderConfig(model_name="gpt-4o-mini"),
        "routing": ProviderConfig(model_name="gpt-4.1-mini"),
    }
    warnings = check_role_separation(shared)
    assert len(warnings) == 1
    assert "menugen" in warnings[0] and "datagen" in warnings[0]

    exit_code = cli_main([
        "check-roles", "--menugen-model", "gpt-4o-mini",
        "--datagen-model", "gpt-4o-mini", "--strict-roles",
    ])
    capsys.readouterr()
    assert exit_code != 0
    announce(9, "distinct models clean, shared model warns, --strict-roles exits nonzero")


# --- 10. live reproduction assets (not gating a live run) -------------------------------------

def test_criterion_10_live_reproduction_documented():
    script = REPO_ROOT / "scripts" / "live_table.sh"
    assert script.is_file()
    assert os.access(script, os.X_OK)
    body = script.read_text(encoding="utf-8")
    for needle in ("descriptive", "flattened", "base_only", "all", "| IVR Context |"):
        assert needle in body

    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    for value in ("89.13", "86.52", "81.30", "77.07"):
        assert value in readme
    assert "2-2-3" in readme
    assert "recall" in readme.lower()
    announce(10, "live run script and reference accuracy documentation present "
                 "(live endpoint itself not exercised)")
