"""Response parsing, single-shot routing, batch routing, the scheduler's
rules at simulated times, manifests, and result files.

A reply, with what strict and lenient parsing and ``route_one`` make of
it, a ``route_all`` outcome and a scheduling case at simulated times are
each a row of a table run by one ``check_*``. Beside them, a
``hypothesis`` state machine checks every scheduling rule on random
outcomes, and bespoke tests drive ``route_all`` on real threads."""

import hashlib
import json
import math
import random
import signal
import sys
import threading
import time
from collections import Counter
from functools import partial
from typing import NamedTuple

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from ivroute.datagen import Dataset
from ivroute.prompts import RoutingCondition, build_prompt, query_of
from ivroute import router
from ivroute.provider import (
    OracleProvider,
    ProviderConfig,
    ProviderError,
    TransportError,
)
from ivroute.router import (
    INVALID,
    WINDOW_PER_SLOT,
    Pacing,
    RoutingAborted,
    RoutingResult,
    Schedule,
    build_manifest,
    load_results,
    parse_dtmf_response,
    plan_run,
    render_context,
    route_one,
    run_identity,
    save_results,
    select_records,
)

from conftest import (AnsweringProvider, Raises, Run, check_run, fail_with, in_time, make_record, outcome_of,
                      table_tests, tiny_dataset)

# Every routing run here fails its test when it does not end in time; the
# Ctrl-C test alone routes on the test's own thread, which the signal reaches.
route_all, route_plan = in_time(router.route_all), in_time(router.route_plan)


# --- a reply: parsed, and routed by route_one ------------------------------------------

class Reply(NamedTuple):
    """A model's reply and what strict parsing makes of it: the path, or
    INVALID, and the rules that fired; ``lenient``, where lenient parsing
    makes another (path, rules) of it."""

    raw: str
    path: str
    rules: tuple = ()
    lenient: tuple | None = None


def check_reply(row, tiny_tree):
    """Parse the reply in each mode, and route it with ``route_one`` as the
    reply to the prompt of an intent whose truth is 1-1."""
    context = render_context(tiny_tree, RoutingCondition.FLATTENED_PATHS)
    record = make_record("1-1", "I want to pay my bill.")
    strict = (row.path, row.rules)
    for lenient, (path, rules) in [(False, strict), (True, row.lenient or strict)]:
        assert parse_dtmf_response(row.raw, lenient) == (None if path == INVALID else path, rules)
        provider = AnsweringProvider(lambda prompt: row.raw)
        result = route_one(record, RoutingCondition.FLATTENED_PATHS, context, provider, lenient)
        assert result._replace(latency=0) == RoutingResult(record.id, row.raw, path, "1-1", 0)
        assert result.latency >= 0 and result.correct == (path == "1-1")
        assert provider.calls == [build_prompt(RoutingCondition.FLATTENED_PATHS, context, record.text)]


def salvaged(raw, path, rules=()):
    """A reply that is INVALID strictly and ``path`` leniently, from its one token."""
    return Reply(raw, INVALID, rules, (path, (*rules, "lenient_extract")))


PERIOD = ("strip_trailing_period",)
REPLIES = {  # parameter ids as the earlier parametrizations made them
    "test_strict_accepts_canonical": {raw: Reply(raw, raw) for raw in ["1", "1-1", "2-1-9", "0-0-0",
                                                                       "9-8-7-6-5-4-3-2-1-0"]},
    "test_strict_normalization_rules": {
        "  2-1-9  -2-1-9-rules0": Reply("  2-1-9  ", "2-1-9", ("trim",)),
        "'2-1-9'-2-1-9-rules1": Reply("'2-1-9'", "2-1-9", ("unquote",)),
        '"1-4"-1-4-rules2': Reply('"1-4"', "1-4", ("unquote",)),
        "`3-9`-3-9-rules3": Reply("`3-9`", "3-9", ("unquote",)),
        "2-1-9.-2-1-9-rules4": Reply("2-1-9.", "2-1-9", PERIOD),
        "2–1–9-2-1-9-rules5": Reply("2–1–9", "2-1-9", ("map_unicode_dashes",)),
        "2—1—9-2-1-9-rules6": Reply("2—1—9", "2-1-9", ("map_unicode_dashes",)),
        # The single trailing-period strip happens after unquoting, so a quoted "2-1-9." does resolve.
        " '2-1-9.'  -2-1-9.-None": Reply(" '2-1-9.'  ", "2-1-9", ("trim", "unquote", *PERIOD))},
    "test_strict_combined_normalization": Reply('  "2–1–9."  ', "2-1-9",
                                                ("trim", "unquote", *PERIOD, "map_unicode_dashes")),
    "test_strict_rejects_noise": {
        **{raw: Reply(raw, INVALID) for raw in ["", "12", "1-23", "1-", "-1", "1--2", "one-two"]},
        "   ": Reply("   ", INVALID, ("trim",)), "''": Reply("''", INVALID, ("unquote",)),
        **{raw: salvaged(raw, path) for raw, path in [("path 1-2", "1-2"), ("1-2 maybe", "1-2"),
                                                      ("1-2-3. extra", "1-2-3"),
                                                      ("((1-2))", "1-2")]},  # parentheses are not quotes
        "2-1-9..": salvaged("2-1-9..", "2-1-9", PERIOD)},  # only one trailing period is stripped
    # The parse holds no text; the reply is kept once, in the result row.
    "test_strict_mismatch_keeps_raw_text": salvaged("The answer is 1-4.", "1-4", PERIOD),
    "test_lenient_salvages_single_token": salvaged("The best path is 2-1-9.", "2-1-9", PERIOD),
    "test_lenient_refuses_multiple_tokens": Reply("either 1-2 or 3-4", INVALID),
    "test_lenient_refuses_zero_tokens": Reply("no digits here", INVALID),
    "test_lenient_ignores_embedded_digit_runs": Reply("code 12-3", INVALID),  # "12-3" is no token, nor is "2-3"
    "test_lenient_not_used_when_strict_matches": Reply("2-1-9", "2-1-9"),
    "test_route_one_correct": Reply("1-1", "1-1"),
    "test_route_one_wrong_but_known": Reply("1-9", "1-9"),
    "test_route_one_valid_but_unknown": Reply("7-7-7", "7-7-7"),
    "test_route_one_invalid_reply": Reply("I think you should press one", INVALID),
    "test_route_needs_no_ground_truth": salvaged("The path is 1-9.", "1-9", PERIOD),
}
table_tests(globals(), check_reply, REPLIES)


def test_route_one_passes_provider_error_through(tiny_tree):
    # route_all names the failing intent; route_one adds nothing to the error.
    record = make_record("1-1", "text")
    provider = AnsweringProvider(fail_with(ProviderError("no reply")))
    context = render_context(tiny_tree, RoutingCondition.FLATTENED_PATHS)
    with pytest.raises(ProviderError) as excinfo:
        route_one(record, RoutingCondition.FLATTENED_PATHS, context, provider)
    assert type(excinfo.value) is ProviderError
    assert str(excinfo.value) == "no reply"
    assert excinfo.value.__cause__ is None


# --- route_all -----------------------------------------------------------------------

def test_select_records(dataset):
    base = select_records(dataset, "base_only")
    everything = select_records(dataset, "all")
    assert len(base) == 230 and len(everything) == 920
    with pytest.raises(ValueError):
        select_records(dataset, "bases")


class Routed(NamedTuple):
    """route_all of tiny_dataset() and tiny_tree, or of what ``forge`` makes
    of them, on ``width`` workers under ``budget``; each record's call
    answers, or raises, its entry of ``answers`` after 2 ms. An answered
    record's row predicts its answer; ``failures`` are the manifest's, or
    those of the RoutingAborted that ``error`` names, or their number. It
    starts no more workers than it has intents or slots, and leaves none
    running."""

    answers: tuple
    failures: tuple | int = ()
    error: Raises | None = None
    budget: float = 0.01
    width: int = 1
    forge: object = None


def workers_alive():
    return [t.name for t in threading.enumerate() if t.name.startswith("ivroute-route")]


def check_routed(row, tiny_tree, monkeypatch):
    ds = tiny_dataset()
    answers = dict(zip((record.text for record in ds.records), row.answers))

    def answer(prompt):
        time.sleep(0.002)
        if isinstance(reply := answers[query_of(prompt)], Exception):
            raise reply
        return reply

    started = []

    class CountingThread(threading.Thread):
        def start(self):
            started.append(self.name)
            super().start()

    monkeypatch.setattr(threading, "Thread", CountingThread)
    tree, ds = row.forge(tiny_tree, ds) if row.forge else (tiny_tree, ds)
    provider = AnsweringProvider(answer, max_in_flight=row.width)
    route = partial(route_all, ds, RoutingCondition.FLATTENED_PATHS, tree, provider, error_budget=row.budget)
    if row.error:
        failures = getattr(outcome_of(route, row.error), "failures", [])
        assert len(failures) == row.failures if isinstance(row.failures, int) else failures == list(row.failures)
        assert provider.calls == []  # no call answered, and none sent after the error
    else:
        run = route()
        assert [(r.intent_id, r.predicted, r.correct) for r in run.results] == [
            (record.id, reply, reply == record.ground_truth) for record, reply in zip(ds.records, row.answers)
            if not isinstance(reply, Exception)]
        assert run.manifest["failures"] == [{"intent_id": i, "error": message} for i, message in row.failures]
        assert "n_results" not in run.manifest  # route's results_sha256 vouches for the rows
    assert len(started) <= min(row.width, len(ds.records)) and workers_alive() == []


def lone_surrogate_in(what):
    """A ``forge``: a lone surrogate, which no UTF-8 file can hold, in the
    label of the tree's node 2 or in the text of every record."""
    def forge(tree, ds):
        if what == "label":
            support = tree.root.children[1]._replace(label="Bal\udcffance")
            return tree._replace(root=tree.root._replace(children=(tree.root.children[0], support))), ds
        return tree, Dataset(ds.menu_name, [record._replace(text=record.text + "\udcff") for record in ds.records])
    return forge


TRUTH = ("1-1", "1-1", "1-9", "1-9", "2", "2")
OVER_BUDGET = "1 provider failure(s) exceeded the budget of 0"
OUTAGE = ProviderError("synthetic outage")

ROUTED = {
    "test_route_all_verdicts_land_on_their_rows": Routed(("1-1", "2", "1-9", "1-9", "2", "2"), width=4),  # one wrong
    "test_route_all_rejects_invalid_dataset": Routed(TRUTH, error=Raises(
        ValueError, "dataset is not valid: base record count per terminal path must be one number, but 2 has 1 and "
                    "1-1 has 2"), forge=lambda tree, ds: (tree, Dataset(ds.menu_name, ds.records[:-1]))),
    # Inputs built in code are held to the rules of a file before any call,
    # not met as a UnicodeEncodeError while they are hashed.
    "test_route_all_holds_inputs_built_in_code_to_the_rules_of_a_file": [
        Routed(TRUTH, error=Raises(ValueError, "menu is not valid: 2: label holds a lone surrogate"),
               forge=lone_surrogate_in("label")),
        Routed(TRUTH, error=Raises(ValueError, "dataset is not valid: record '1-1:b00': text holds a lone "
                                               "surrogate; record '1-1:b01': text", prefix=True),
               forge=lone_surrogate_in("text"))],
    "test_route_all_tolerates_failures_within_budget": Routed(("1-1", OUTAGE, *TRUTH[2:]),
                                                              (("1-1:b01", "synthetic outage"),), budget=0.5),
    "test_route_all_aborts_past_budget": Routed((OUTAGE,) * 3 + TRUTH[3:], (("1-1:b00", "synthetic outage"),),
                                                Raises(RoutingAborted, OVER_BUDGET), budget=0.0),
    # no ProviderError: it ends the run as it is, and no queued call is made
    "test_route_all_other_error_cancels_queued_calls": Routed((RuntimeError("provider bug"), *TRUTH[1:]),
                                                              error=Raises(RuntimeError, "provider bug")),
    "test_route_all_starts_no_more_workers_than_intents": Routed(TRUTH, width=64),
    # Four calls fail at once; the first failure aborts the run, and the
    # calls still running when it does are not counted after it.
    "test_route_all_leaves_no_worker_behind": [Routed(TRUTH, width=4), Routed(
        (OUTAGE,) * 4 + TRUTH[4:], 1, Raises(RoutingAborted, OVER_BUDGET), budget=0.0, width=4)],
}
table_tests(globals(), check_routed, ROUTED)


def fixed_backoff(monkeypatch, delay):
    """Make every retry that Pacing allows wait exactly ``delay`` seconds."""
    retry_at = router.Pacing.retry_at
    monkeypatch.setattr(router.Pacing, "retry_at", lambda self, now, *rest: (
        None if retry_at(self, now, *rest) is None else now + delay))


def backing_off(backoffs, latency=0.0):
    """An answer that fails the first ``backoffs.get(query, 0)`` requests
    for a query with a TransportError that run_calls retries, and answers
    every other ``1-1`` after ``latency`` seconds; and the list of
    (query, its request number from 1, monotonic time) it appends each
    request to as it arrives."""
    lock, sent, arrivals = threading.Lock(), Counter(), []

    def answer(prompt):
        with lock:
            sent[query_of(prompt)] += 1
            number = sent[query_of(prompt)]
            arrivals.append((query_of(prompt), number, time.monotonic()))
        if number <= backoffs.get(query_of(prompt), 0):
            raise TransportError("busy")
        time.sleep(latency)
        return "1-1"

    return answer, arrivals


def test_route_all_wakes_an_idle_worker_for_intents_admitted_after_an_answer(tiny_tree, monkeypatch):
    ds = tiny_dataset()
    queries = [r.text for r in ds.records]
    # Two workers, a window of four: the first, second and fourth intents
    # back off while the third is answered, so the endpoint is failing and
    # the window is full until that answer admits the last two intents at
    # once. The worker waiting for the first retry takes one of them then,
    # not when that retry is due: one worker taking both in turn would start
    # the second after 2 x 0.3 s, past the 0.5 s backoff.
    fixed_backoff(monkeypatch, 0.5)
    answer, arrivals = backing_off({queries[0]: 1, queries[1]: 1, queries[3]: 1}, latency=0.3)
    provider = AnsweringProvider(answer, max_in_flight=2)
    run = route_all(ds, RoutingCondition.FLATTENED_PATHS, tiny_tree, provider)
    assert [r.intent_id for r in run.results] == [r.id for r in ds.records]
    first = {query: at for query, number, at in arrivals if number == 1}
    first_retry_due = min(first[queries[i]] for i in (0, 1, 3)) + 0.5
    assert max(first.values()) < first_retry_due


def test_route_all_seeds_its_retry_jitter_with_the_run_id(tiny_tree, monkeypatch):
    ds = tiny_dataset()
    draws = []  # (attempt, wait) for each failed attempt, in order
    retry_at = router.Pacing.retry_at

    def recording(self, now, attempt, retry_after):  # records the wait, retries at once
        wait = retry_at(self, 0.0, attempt, retry_after)
        draws.append((attempt, wait))
        return None if wait is None else now

    monkeypatch.setattr(router.Pacing, "retry_at", recording)

    def waits(forged_run_id=None):
        draws.clear()
        answer, _ = backing_off(dict.fromkeys((r.text for r in ds.records), 2))
        provider = AnsweringProvider(answer, model_name="backoff-mock", max_in_flight=1)
        if forged_run_id is None:
            run = route_all(ds, RoutingCondition.FLATTENED_PATHS, tiny_tree, provider)
        else:  # the same inputs under another run id
            plan = plan_run(ds, tiny_tree, RoutingCondition.FLATTENED_PATHS, provider.config)
            run = route_plan(plan._replace(identity={**plan.identity, "run_id": forged_run_id}), provider)
        assert len(run.results) == len(ds.records)
        return run.manifest["run_id"], list(draws)

    run_id, first = waits()
    assert len(first) == 2 * len(ds.records)
    assert waits() == (run_id, first)  # a rerun of the same inputs retries on the same schedule
    rng = random.Random(run_id)
    assert first == [(attempt, rng.uniform(0.0, 0.5 * 2 ** (attempt - 1))) for attempt, _ in first]
    identity = run_identity(ds, tiny_tree, RoutingCondition.FLATTENED_PATHS, "all", "backoff-mock", False)
    assert identity["run_id"] == run_id
    other_id, other = waits(forged_run_id="0123456789ab")
    assert other_id == "0123456789ab" and [a for a, _ in other] == [a for a, _ in first]
    assert other != first


def test_plan_run_makes_no_call(tiny_tree):
    ds = tiny_dataset()
    provider = AnsweringProvider(lambda prompt: "1-1", model_name="m", temperature=0.5)
    provider.complete = fail_with(AssertionError("plan_run made a call"))
    plan = plan_run(ds, tiny_tree, RoutingCondition.DESCRIPTIVE_MENU, provider.config, "base_only", lenient=True)
    assert plan.identity == run_identity(ds, tiny_tree, RoutingCondition.DESCRIPTIVE_MENU, "base_only", "m", True,
                                         0.5)
    assert plan.records == select_records(ds, "base_only")
    assert plan.context == render_context(tiny_tree, RoutingCondition.DESCRIPTIVE_MENU)


def test_route_plan_neither_judges_nor_hashes(tiny_tree, monkeypatch):
    ds = tiny_dataset()
    plain = route_all(ds, RoutingCondition.FLATTENED_PATHS, tiny_tree, AnsweringProvider(lambda prompt: "1-1"))
    provider = AnsweringProvider(lambda prompt: "1-1")
    plan = plan_run(ds, tiny_tree, RoutingCondition.FLATTENED_PATHS, provider.config)
    probed = []
    for name in ("validate_menu", "validate_dataset", "dataset_to_jsonl"):
        monkeypatch.setattr(router, name, lambda *args, name=name: probed.append(name))
    planned = route_plan(plan, provider)
    assert probed == []  # the manifest takes the plan's identity, it does not hash again
    assert [r._replace(latency=0) for r in planned.results] == [r._replace(latency=0) for r in plain.results]
    assert json.dumps({**planned.manifest, "timestamp": ""}) == json.dumps({**plain.manifest, "timestamp": ""})


def test_route_all_interrupted_in_the_caller_drops_queued_calls(tiny_tree):
    ds = tiny_dataset()
    caller = threading.get_ident()
    closed = []

    def interrupt(prompt):
        signal.pthread_kill(caller, signal.SIGINT)  # Ctrl-C while this call runs
        time.sleep(0.1)
        return "1-1"

    provider = AnsweringProvider(interrupt, max_in_flight=1)
    provider.close = lambda: closed.append(workers_alive())
    with pytest.raises(KeyboardInterrupt):
        router.route_all(ds, RoutingCondition.FLATTENED_PATHS, tiny_tree, provider)
    # The running call finished before the provider was closed; the
    # intent queued behind it was never sent.
    assert len(provider.calls) == 1
    assert closed == [[]]
    assert workers_alive() == []


def test_route_all_stress_keeps_every_intent_once(dataset, tree, monkeypatch):
    # Eight workers share the queue, the retry heap and the pacing turn;
    # switching threads every microsecond makes a lost update under the lock
    # show as a missing, repeated or reordered result, a wrong request
    # count, or two requests sent on one turn.
    queries = [r.text for r in dataset.records]
    backoffs = dict.fromkeys(queries[::3], 1)
    rate = 2000
    fixed_backoff(monkeypatch, 0.0)
    answer, arrivals = backing_off(backoffs)
    provider = AnsweringProvider(answer, max_in_flight=8, requests_per_second=rate)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        started = time.monotonic()
        run = route_all(dataset, RoutingCondition.FLATTENED_PATHS, tree, provider)
        elapsed = time.monotonic() - started
    finally:
        sys.setswitchinterval(interval)
    assert [r.intent_id for r in run.results] == [r.id for r in dataset.records]
    assert len(arrivals) == len(queries) + len(backoffs)
    assert sorted((q, a) for q, a, _ in arrivals) == sorted(
        [(q, 1) for q in queries] + [(q, 2) for q in backoffs]
    )
    sent = sorted(at for _, _, at in arrivals)
    assert sent[-1] - sent[0] >= (len(sent) - 1) / rate - 0.01
    assert elapsed < 30
    assert workers_alive() == []


# --- the scheduler at simulated times ------------------------------------------------

def busy(retry_after=None):
    return TransportError("busy", retry_after)


def budget_run(budget, count, allowed):
    """Every job of ``count`` fails on one worker; ``allowed`` failures are within the budget."""
    ended = min(allowed + 1, count)  # the first failure past the budget aborts the run
    return Run(count, 1, budget, {job: [ProviderError("down")] for job in range(count)},
               [(0.0, job, 1) for job in range(ended)], [None] * count, [(job, "down") for job in range(ended)],
               None if allowed == count else f"{allowed + 1} provider failure(s) exceeded the budget of {allowed}")


ANSWERED = list(range(6))
RUNS = {
    # One worker; the first job's first attempt gets a 503 with Retry-After:
    # 0. The second job goes out before that retry; holding the worker
    # through the wait would give 0, 0, 1.
    "test_route_all_retry_gives_its_worker_to_the_next_intent": Run(
        6, 1, 0.01, {0: [TransportError("HTTP 503", "0")]},
        [(0.0, 0, 1), (0.0, 1, 1), (0.0, 0, 2), (0.0, 2, 1), (0.0, 3, 1), (0.0, 4, 1), (0.0, 5, 1)], ANSWERED),
    # Retries waiting on a failing endpoint fill the window of
    # router.WINDOW_PER_SLOT x max_in_flight: no third job is started.
    "test_route_all_dead_endpoint_whose_retries_wait_sees_a_bounded_window": Run(
        6, 1, 0, {job: [busy()] * 4 for job in range(6)},
        [(0.0, 0, 1), (0.0, 1, 1), (0.5, 0, 2), (0.5, 1, 2), (1.5, 0, 3), (1.5, 1, 3), (3.5, 0, 4)], [None] * 6,
        [(0, "gave up after 4 attempt(s): busy")], OVER_BUDGET, settings={"max_retries": 3}),
    # A window's worth of jobs (2 at max_in_flight=1) back off once, each
    # followed by a job that is answered: every job starts before the first
    # retry is due. Were waiting retries always counted against the window,
    # the two of them would hold back every job after the third.
    "test_route_all_keeps_starting_intents_while_retries_wait_on_a_healthy_endpoint": Run(
        6, 1, 0.01, {0: [busy("1")], 2: [busy("1")]},
        [(0.0, 0, 1), (0.02, 1, 1), (0.04, 2, 1), (0.06, 3, 1), (0.08, 4, 1), (0.1, 5, 1), (1.02, 0, 2),
         (1.06, 2, 2)], ANSWERED, latency=0.02),
    # Every job backs off once for a second; on two idle workers each
    # retry goes out when it is due, not before and not later.
    "test_route_all_submits_a_retry_once_it_is_due": Run(
        6, 2, 0.01, {job: [busy("1")] for job in range(6)},
        [(0.0, 0, 1), (0.0, 1, 1), (0.0, 2, 1), (0.0, 3, 1), (1.0, 0, 2), (1.0, 1, 2), (1.0, 2, 2), (1.0, 3, 2),
         (1.0, 4, 1), (1.0, 5, 1), (2.0, 4, 2), (2.0, 5, 2)], ANSWERED),
    "test_run_calls_counts_a_failure_within_budget_and_keeps_going": [
        Run(3, 2, budget, {1: [ProviderError("down")]}, [(0.0, 0, 1), (0.0, 1, 1), (0.0, 2, 1)], values,
            [(1, "down")], error) for budget, values, error in [(0.5, [0, None, 2], None),
                                                               (0.0, [0, None, None], OVER_BUDGET)]],
    # In binary floating point 0.29 x 100 is 28.999999999999996.
    "test_error_budget_allows_the_floor_of_the_decimal_product": {
        f"{budget}-{count}-{allowed}": budget_run(budget, count, allowed) for budget, count, allowed in [
            (0.29, 100, 29), (0.57, 100, 57), (0.58, 100, 58), (0.01, 230, 2),
            (0, 7, 0), (0.0, 230, 0), (1, 7, 7), (1.0, 230, 230)]},
}
table_tests(globals(), check_run, RUNS)


HONOURED = ("0", "1", "7", "60")  # Retry-After values that Pacing waits out exactly
RETRY_AFTERS = st.one_of(st.none(), st.sampled_from([*HONOURED, "61", "-1", "soon"]))


@st.composite
def outcomes(draw):
    """An attempt's outcome: a value, a TransportError with any Retry-After,
    another ProviderError, or, seldom, another exception."""
    kind = draw(st.sampled_from(["value", "retry"] * 4 + ["failure", "failure", "bug"]))
    if kind == "retry":
        return TransportError("busy", draw(RETRY_AFTERS))
    return {"value": draw(st.integers()), "failure": ProviderError("down"),
            "bug": RuntimeError("bug")}[kind]  # no ProviderError: it aborts the run as it is


WAITS = st.sampled_from([1.0, 0.0, 0.5])  # the share of a wait a worker waits before the next step


class ScheduleMachine(RuleBasedStateMachine):
    """Drives the real Schedule at simulated times with random outcomes, as
    run_calls' workers would, and checks its rules against what it sent."""

    @initialize(count=st.integers(2, 8), width=st.integers(1, 3), rps=st.sampled_from([None, 0.5, 3, 10]),
                max_retries=st.integers(0, 3), budget=st.integers(0, 100), seed=st.integers(0, 2 ** 16))
    def start(self, count, width, rps, max_retries, budget, seed):
        self.config = ProviderConfig(max_in_flight=width, requests_per_second=rps, max_retries=max_retries)
        self.count, self.budget, self.seed = count, budget / 100, seed
        self.allowed = budget * count // 100
        self.interval = 1 / rps if rps else 0.0
        self.schedule = self.new_schedule()
        self.calls = []  # (method, arguments, result) of every call made to the schedule
        self.now = 0.0
        self.running = []  # (job, attempt) sent, its outcome not yet recorded
        self.sends = []  # (time, job, attempt)
        self.attempt = {}  # the attempt a job sends next, when it is not 1
        self.due = {}  # when a job's retry is due
        self.values = [None] * count
        self.failed = []
        self.ended = set()
        self.failing = False  # the latest outcome recorded was an exception
        self.aborted = False
        self.ask(waits=0.0)

    def new_schedule(self):
        return Schedule(self.count, self.config.max_in_flight, self.budget,
                        Pacing(self.config, random.Random(self.seed)))

    def call(self, method, *args):
        result = getattr(self.schedule, method)(*args)
        self.calls.append((method, args, result))
        return result

    def ask(self, waits):
        """The free workers ask what to send until the schedule says to
        wait; they then wait ``waits`` of that wait, and ask again once
        they have waited it all."""
        while len(self.running) < self.config.max_in_flight:
            admitted = self.schedule.next_job
            task = self.call("next", self.now)
            if self.aborted:  # nothing is admitted after an abort
                assert task is None and self.schedule.next_job == admitted
                return
            # Submissions never exceed the window, counting jobs waiting out
            # a retry only while the latest outcome was a failure; and the
            # window is filled while jobs are left.
            waiting = sum(1 for due in self.due.values() if due > self.now)
            held = self.schedule.next_job - len(self.ended) - (0 if self.failing else waiting)
            window = WINDOW_PER_SLOT * self.config.max_in_flight
            assert held <= window or self.schedule.next_job == admitted
            assert held >= window or self.schedule.next_job == self.count
            if task is None:
                assert not self.running and self.ended == set(range(self.count))
                return
            if isinstance(task, tuple):
                self.send(*task)
                continue
            assert self.now < task and (task < math.inf or self.running)
            if task == math.inf:
                return
            self.now += waits * (task - self.now)
            if waits < 1:
                return

    def send(self, job, attempt):
        assert job not in self.ended and job not in {j for j, _ in self.running}
        started = {j for _, j, _ in self.sends}
        assert job in started or job == len(started)  # jobs start in order
        assert attempt == self.attempt.pop(job, 1)
        if job in self.due:  # no retry is sent before it is due
            assert self.now >= self.due.pop(job)
        if self.sends:  # every attempt takes its own --rps turn
            assert self.now - self.sends[-1][0] >= self.interval - 1e-9
        self.sends.append((self.now, job, attempt))
        self.running.append((job, attempt))

    @precondition(lambda self: self.running)
    @rule(index=st.integers(0, 2), took=st.sampled_from([0.0, 0.1, 0.5, 2.0]), outcome=outcomes(),
          waits=WAITS)
    def finish(self, index, took, outcome, waits):
        """A running attempt ends, ``took`` seconds on, with ``outcome``; its
        worker, free again, asks what to send next."""
        job, attempt = self.running.pop(index % len(self.running))
        self.now += took
        self.record(job, attempt, outcome)
        self.ask(waits)

    def record(self, job, attempt, outcome):
        due = self.call("record", self.now, job, attempt, outcome)
        if self.aborted:
            assert due is None
            return
        self.failing = isinstance(outcome, BaseException)
        if isinstance(outcome, TransportError) and attempt <= self.config.max_retries:
            if outcome.retry_after in HONOURED:  # an honoured Retry-After is exact
                assert due == self.now + int(outcome.retry_after)
            else:  # a jittered wait stays under its cap
                assert self.now <= due <= self.now + min(0.5 * 2 ** (attempt - 1), 8.0)
            self.due[job], self.attempt[job] = due, attempt + 1
            return
        assert due is None
        if isinstance(outcome, ProviderError):
            if isinstance(outcome, TransportError):  # min(failures, max_retries) + 1 attempts per call
                outcome = f"gave up after {attempt} attempt(s): {outcome}"
            assert self.schedule.failures[-1] == (job, str(outcome))
            self.failed.append(job)
            if len(self.failed) > self.allowed:  # the first failure past the budget aborts
                message = f"{len(self.failed)} provider failure(s) exceeded the budget of {self.allowed}"
                assert isinstance(self.schedule.error, RoutingAborted) and str(self.schedule.error) == message
                self.aborted = True
        elif self.failing:
            assert self.schedule.error is outcome
            self.aborted = True
        else:
            self.values[job] = outcome
        assert job not in self.ended  # each job ends once
        self.ended.add(job)

    @rule(seconds=st.sampled_from([0.05, 0.3, 1.0, 10.0]), waits=WAITS)
    def advance(self, seconds, waits):
        """Time passes; waiting workers wake and ask."""
        self.now += seconds
        self.ask(waits)

    @precondition(lambda self: not self.aborted and len(self.calls) >= 40)
    @rule()
    def interrupt(self):
        """The caller aborts the run, as run_calls does on a Ctrl-C, late
        enough that the other rules have had their turns."""
        self.schedule.error = KeyboardInterrupt()
        self.calls.append(("interrupt", (), None))
        self.aborted = True

    @invariant()
    def results_match_the_outcomes(self):
        assert self.schedule.values == self.values
        assert [job for job, _ in self.schedule.failures] == self.failed
        assert (self.schedule.error is not None) == self.aborted
        self.checked = len(self.calls)  # every step so far kept the rules

    def teardown(self):
        if getattr(self, "checked", None) != len(getattr(self, "calls", ())):
            return  # the run never started, or a step broke a rule: that is the report
        # Every job ends once the running attempts answer.
        self.ask(waits=1.0)
        while not self.aborted and len(self.ended) < self.count:
            self.finish(0, 0.0, "answer", waits=1.0)
        # The same seed gives the same schedule.
        self.schedule = self.new_schedule()
        for method, args, result in self.calls:
            if method == "interrupt":
                self.schedule.error = KeyboardInterrupt()
            else:
                assert getattr(self.schedule, method)(*args) == result


ScheduleMachine.TestCase.settings = settings(max_examples=90, stateful_step_count=40, deadline=None, derandomize=True)
test_schedule_keeps_every_rule = ScheduleMachine.TestCase


# --- manifest ------------------------------------------------------------------------

def manifest_for(ds, tree, condition=RoutingCondition.FLATTENED_PATHS, record_filter="base_only",
                 model_name="answering-mock", lenient=False, failures=(), temperature=None):
    identity = run_identity(ds, tree, condition, record_filter, model_name, lenient, temperature)
    return build_manifest(identity, list(failures))


def check_manifest(row, tiny_tree):
    """``row``: manifest_for's arguments, the fields the manifest holds, and whether its run id is the
    defaults'; every manifest is stamped, begins with the fields its run id hashes, and hashes to its run id."""
    arguments, fields, same_run = row
    manifest = manifest_for(tiny_dataset(), tiny_tree, **arguments)
    assert {key: manifest[key] for key in fields} == fields
    assert list(manifest)[:list(manifest).index("run_id") + 1] == [
        key for key in (*router.IDENTITY_KEYS, "run_id") if key in manifest]
    assert (manifest["run_id"] == manifest_for(tiny_dataset(), tiny_tree)["run_id"]) == same_run
    assert router.run_id(manifest) == manifest["run_id"] and len(manifest["run_id"]) == 12 and manifest["timestamp"]


table_tests(globals(), check_manifest, {
    "test_manifest_run_id_ignores_timestamp_and_counts": (
        {"failures": [("x", "boom")]}, {"failures": [{"intent_id": "x", "error": "boom"}]}, True),
    "test_manifest_run_id_tracks_inputs": [
        ({"condition": RoutingCondition.DESCRIPTIVE_MENU}, {"condition": "descriptive_menu"}, False),
        ({"record_filter": "all"}, {"dataset_filter": "all"}, False),
        ({"model_name": "other"}, {"model_name": "other"}, False),
        ({"lenient": True}, {"parse_mode": "lenient"}, False)],
    "test_manifest_core_fields": ({}, {"menu_name": "Tiny", "condition": "flattened_paths",
                                       "dataset_filter": "base_only", "model_name": "answering-mock",
                                       "parse_mode": "strict", "failures": []}, True),
    # The run id hashes every input named, a set temperature too.
    "test_a_manifest_hashes_to_its_run_id": ({"failures": [("x", "boom")], "temperature": 0.5}, {"temperature": 0.5},
                                             False),
})


@pytest.mark.parametrize("condition, record_filter, run_id", [
    (RoutingCondition.DESCRIPTIVE_MENU, "base_only", "8a900ae47168"),
    (RoutingCondition.DESCRIPTIVE_MENU, "all", "f01ca3e681f7"),
    (RoutingCondition.FLATTENED_PATHS, "base_only", "c3ca07a72a4f"),
    (RoutingCondition.FLATTENED_PATHS, "all", "dfc44e400268"),
])
def test_fixture_oracle_run_ids_are_stable(dataset, tree, condition, record_filter, run_id):
    # Run directories are named by these; a drift orphans every earlier run.
    identity = run_identity(dataset, tree, condition, record_filter, "oracle-mock", False)
    assert identity["run_id"] == run_id


def test_a_set_temperature_names_the_run(dataset, tree):
    def identity(temperature):
        return run_identity(dataset, tree, RoutingCondition.FLATTENED_PATHS, "base_only", "oracle-mock",
                            False, temperature)

    assert identity(None)["run_id"] == "c3ca07a72a4f"  # unset, as in every pinned id
    assert "temperature" not in identity(None)
    assert len({identity(t)["run_id"] for t in (None, 0, 1.5)}) == 3
    assert identity(1) == identity(1.0)  # one temperature, however it is written
    # route_all names its run with its provider's temperature.
    oracle = OracleProvider(dataset.records, config=ProviderConfig(model_name="oracle-mock", temperature=1.5))
    run = route_all(dataset, RoutingCondition.FLATTENED_PATHS, tree, oracle, record_filter="base_only")
    assert run.manifest["run_id"] == identity(1.5)["run_id"]
    assert run.manifest["temperature"] == 1.5


# --- result files --------------------------------------------------------------------

def check_results_file(row, tmp_path):
    """``row``: results, and the whole text that save_results writes of
    them; it returns that text's sha256, and load_results reads them back."""
    results, text = row
    file = tmp_path / "results.jsonl"
    assert save_results(results, file) == hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert (file.read_text(encoding="utf-8"), load_results(file)) == (text, results)


def results_of(*rows):
    """A RoutingResult of each (reply, prediction) of the tiny dataset's records in turn, each taking 0.25 s."""
    return [RoutingResult(record.id, reply, predicted, record.ground_truth, 0.25)
            for record, (reply, predicted) in zip(tiny_dataset().records, rows)]


def row_line(intent_id, reply, predicted, truth):
    return (f'{{"intent_id": "{intent_id}", "raw_response": "{reply}", "predicted": "{predicted}", '
            f'"ground_truth": "{truth}", "latency": 0.25}}\n')


table_tests(globals(), check_results_file, {
    # The answer alone, in file order: a row's verdict and rules come of its reply, as the REPLIES rows check.
    "test_results_row_keys_in_file_order": (results_of((" '1-1.' ", "1-1"), ("2\u20139", "2-9")), (
        row_line("1-1:b00", " '1-1.' ", "1-1", "1-1") + row_line("1-1:b01", "2\u20139", "2-9", "1-1"))),
    "test_save_results_returns_the_sha256_of_the_bytes_it_wrote": ([], ""),
    "test_results_round_trip": (
        results_of(("1-1", "1-1"), ("nonsense", INVALID), ("1-9", "1-9"), ("7-7", "7-7")), "".join(
            row_line(*row) for row in [("1-1:b00", "1-1", "1-1", "1-1"), ("1-1:b01", "nonsense", INVALID, "1-1"),
                                       ("1-9:b00", "1-9", "1-9", "1-9"), ("1-9:b01", "7-7", "7-7", "1-9")])),
})
