"""Response parsing, single-shot routing, batch routing, the scheduler's
rules at simulated times, manifests, and result files."""

import hashlib
import json
import math
import random
import signal
import sys
import threading
import time
from collections import Counter

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from ivroute.datagen import Dataset
from ivroute.prompts import RoutingCondition
from ivroute import router
from ivroute.provider import (
    OracleProvider,
    ProviderConfig,
    ProviderError,
    ScriptedProvider,
    TransportError,
)
from ivroute.router import (
    AGAIN,
    INVALID,
    WINDOW_PER_SLOT,
    Pacing,
    RoutingAborted,
    Schedule,
    build_manifest,
    load_results,
    parse_dtmf_response,
    render_context,
    route,
    route_all,
    route_one,
    run_identity,
    save_results,
    select_records,
)

from conftest import AnsweringProvider, make_record, query_of, simulate, tiny_dataset


# --- parsing: strict ---------------------------------------------------------------

@pytest.mark.parametrize("text", ["1", "1-1", "2-1-9", "0-0-0", "9-8-7-6-5-4-3-2-1-0"])
def test_strict_accepts_canonical(text):
    parsed = parse_dtmf_response(text)
    assert parsed.path.canonical() == text
    assert parsed.normalization_applied == ()


@pytest.mark.parametrize(
    "raw, expected, rules",
    [
        ("  2-1-9  ", "2-1-9", ("trim",)),
        ("'2-1-9'", "2-1-9", ("unquote",)),
        ('"1-4"', "1-4", ("unquote",)),
        ("`3-9`", "3-9", ("unquote",)),
        ("2-1-9.", "2-1-9", ("strip_trailing_period",)),
        ("2–1–9", "2-1-9", ("map_unicode_dashes",)),
        ("2—1—9", "2-1-9", ("map_unicode_dashes",)),
        (" '2-1-9.'  ", "2-1-9.", None),  # inner period survives the outer quote
    ],
)
def test_strict_normalization_rules(raw, expected, rules):
    parsed = parse_dtmf_response(raw)
    if expected == "2-1-9.":
        # The single trailing-period strip happens after unquoting, so a
        # quoted "2-1-9." does resolve; spell the pipeline out.
        assert parsed.path.canonical() == "2-1-9"
        assert parsed.normalization_applied == ("trim", "unquote", "strip_trailing_period")
    else:
        assert parsed.path.canonical() == expected
        assert parsed.normalization_applied == rules


def test_strict_combined_normalization():
    parsed = parse_dtmf_response('  "2–1–9."  ')
    assert parsed.path.canonical() == "2-1-9"
    assert parsed.normalization_applied == (
        "trim", "unquote", "strip_trailing_period", "map_unicode_dashes",
    )


@pytest.mark.parametrize(
    "raw",
    [
        "",
        "   ",
        "12",
        "1-23",
        "1-",
        "-1",
        "1--2",
        "path 1-2",
        "1-2 maybe",
        "one-two",
        "1-2-3. extra",
        "''",
        "2-1-9..",  # only one trailing period is stripped
        "((1-2))",  # parentheses are not quotes
    ],
)
def test_strict_rejects_noise(raw):
    assert parse_dtmf_response(raw).path is None


def test_strict_mismatch_keeps_raw_text(tiny_tree):
    # The parse holds no text; the reply is kept once, in the result row.
    assert parse_dtmf_response("The answer is 1-4.") == (None, ("strip_trailing_period",))
    context = render_context(tiny_tree, RoutingCondition.FLATTENED_PATHS)
    result = route_one(make_record("1-1", "my bill"), RoutingCondition.FLATTENED_PATHS, context,
                       ScriptedProvider(["The answer is 1-4."]))
    assert result.raw_response == "The answer is 1-4." and result.predicted == INVALID


# --- parsing: lenient ----------------------------------------------------------------

def test_lenient_salvages_single_token():
    parsed = parse_dtmf_response("The best path is 2-1-9.", lenient=True)
    assert parsed.path.canonical() == "2-1-9"
    assert parsed.normalization_applied[-1] == "lenient_extract"


def test_lenient_refuses_multiple_tokens():
    parsed = parse_dtmf_response("either 1-2 or 3-4", lenient=True)
    assert parsed.path is None


def test_lenient_refuses_zero_tokens():
    parsed = parse_dtmf_response("no digits here", lenient=True)
    assert parsed.path is None


def test_lenient_ignores_embedded_digit_runs():
    # "12-3" is not a well-formed token and must not yield "2-3".
    parsed = parse_dtmf_response("code 12-3", lenient=True)
    assert parsed.path is None


def test_lenient_not_used_when_strict_matches():
    parsed = parse_dtmf_response("2-1-9", lenient=True)
    assert parsed.normalization_applied == ()


# --- route_one -----------------------------------------------------------------------

def test_route_one_correct(tiny_tree):
    record = make_record("1-1", "I want to pay my bill.")
    provider = ScriptedProvider(["1-1"])
    context = render_context(tiny_tree, RoutingCondition.FLATTENED_PATHS)
    result = route_one(record, RoutingCondition.FLATTENED_PATHS, context, provider)
    assert result.predicted == "1-1"
    assert result.correct
    assert result.ground_truth == "1-1"
    assert result.intent_id == record.id
    assert result.latency >= 0


def test_route_one_wrong_but_known(tiny_tree):
    record = make_record("1-1", "I want to pay my bill.")
    provider = ScriptedProvider(["1-9"])
    context = render_context(tiny_tree, RoutingCondition.FLATTENED_PATHS)
    result = route_one(record, RoutingCondition.FLATTENED_PATHS, context, provider)
    assert result.predicted == "1-9"
    assert not result.correct


def test_route_one_valid_but_unknown(tiny_tree):
    record = make_record("1-1", "I want to pay my bill.")
    provider = ScriptedProvider(["7-7-7"])
    context = render_context(tiny_tree, RoutingCondition.FLATTENED_PATHS)
    result = route_one(record, RoutingCondition.FLATTENED_PATHS, context, provider)
    assert result.predicted == "7-7-7"
    assert not result.correct


def test_route_one_invalid_reply(tiny_tree):
    record = make_record("1-1", "I want to pay my bill.")
    provider = ScriptedProvider(["I think you should press one"])
    context = render_context(tiny_tree, RoutingCondition.FLATTENED_PATHS)
    result = route_one(record, RoutingCondition.FLATTENED_PATHS, context, provider)
    assert result.predicted == INVALID
    assert not result.correct
    assert result.raw_response == "I think you should press one"


def test_route_one_passes_provider_error_through(tiny_tree):
    # route_all names the failing intent; route_one adds nothing to the error.
    record = make_record("1-1", "text")
    provider = ScriptedProvider([])  # immediately exhausted
    context = render_context(tiny_tree, RoutingCondition.FLATTENED_PATHS)
    with pytest.raises(ProviderError) as excinfo:
        route_one(record, RoutingCondition.FLATTENED_PATHS, context, provider)
    assert type(excinfo.value) is ProviderError
    assert str(excinfo.value) == "scripted mock ran out of replies"
    assert excinfo.value.__cause__ is None


def test_route_needs_no_ground_truth(tiny_tree):
    provider = ScriptedProvider(["The path is 1-9."])
    context = render_context(tiny_tree, RoutingCondition.DESCRIPTIVE_MENU)
    parsed, completion = route("get me a person about my bill",
                               RoutingCondition.DESCRIPTIVE_MENU, context, provider,
                               lenient=True)
    assert parsed.path.canonical() == "1-9"
    assert completion.raw_text == "The path is 1-9."
    assert "get me a person about my bill" in provider.calls[0]


# --- route_all -----------------------------------------------------------------------

def test_select_records(dataset):
    base = select_records(dataset, "base_only")
    everything = select_records(dataset, "all")
    assert len(base) == 230 and len(everything) == 920
    with pytest.raises(ValueError):
        select_records(dataset, "bases")


def test_route_all_oracle_order_preserved_under_concurrency(dataset, tree):
    oracle = OracleProvider.for_dataset(
        dataset, config=ProviderConfig(model_name="oracle-mock", max_in_flight=8)
    )
    run = route_all(dataset, RoutingCondition.FLATTENED_PATHS, tree, oracle,
                    record_filter="base_only")
    assert [r.intent_id for r in run.results] == [
        r.id for r in dataset.records if r.origin == "base"
    ]
    assert all(r.correct for r in run.results)


def test_route_all_scripted_alignment_serial(tiny_tree):
    ds = tiny_dataset()
    replies = ["1-1", "2", "1-9", "1-9", "2", "2"]  # second record misrouted
    provider = ScriptedProvider(replies, config=ProviderConfig(max_in_flight=1))
    run = route_all(ds, RoutingCondition.FLATTENED_PATHS, tiny_tree, provider)
    verdicts = [r.correct for r in run.results]
    assert verdicts == [True, False, True, True, True, True]


def test_route_all_rejects_invalid_dataset(tiny_tree):
    ds = tiny_dataset()
    broken = Dataset(ds.menu_name, ds.records[:-1])
    with pytest.raises(ValueError, match="dataset is not valid"):
        route_all(broken, RoutingCondition.FLATTENED_PATHS, tiny_tree, ScriptedProvider(["1-1"]))


def flaky_oracle(ds, failing):
    """A width-1 provider that answers each query with its truth in ``ds``,
    but fails the calls for the records ``failing``."""
    truth = {r.text: r.ground_truth.canonical() for r in ds.records}
    fail = {r.text for r in failing}

    def answer(prompt):
        if prompt.query in fail:
            raise ProviderError("synthetic outage")
        return truth[prompt.query]

    return AnsweringProvider(answer, max_in_flight=1)


def test_route_all_tolerates_failures_within_budget(tiny_tree):
    ds = tiny_dataset()
    provider = flaky_oracle(ds, ds.records[1:2])
    run = route_all(ds, RoutingCondition.FLATTENED_PATHS, tiny_tree, provider,
                    error_budget=0.5)
    assert len(run.results) == 5
    assert run.manifest["failures"] == [
        {"intent_id": ds.records[1].id, "error": "synthetic outage"}
    ]
    assert "n_results" not in run.manifest  # route's results_sha256 vouches for the rows


def test_route_all_aborts_past_budget(tiny_tree):
    ds = tiny_dataset()
    provider = flaky_oracle(ds, ds.records[:3])
    with pytest.raises(RoutingAborted) as excinfo:
        route_all(ds, RoutingCondition.FLATTENED_PATHS, tiny_tree, provider,
                  error_budget=0.0)
    aborted = excinfo.value
    assert len(aborted.failures) == 1
    assert str(aborted) == "1 provider failure(s) exceeded the budget of 0"


def test_route_all_other_error_cancels_queued_calls(tiny_tree):
    ds = tiny_dataset()

    def broken(prompt):  # the call for the first record fails with no ProviderError
        if prompt.query == ds.records[0].text:
            raise RuntimeError("provider bug")
        time.sleep(0.05)
        return "1-1"

    provider = AnsweringProvider(broken, max_in_flight=1)
    with pytest.raises(RuntimeError, match="provider bug"):
        route_all(ds, RoutingCondition.FLATTENED_PATHS, tiny_tree, provider)
    # The single worker may have started the next call before the abort;
    # every call queued behind it is cancelled, not run.
    assert len(provider.calls) <= 1


def test_route_all_dead_endpoint_sees_a_bounded_window(tiny_tree, chat_server, live_provider):
    ds = tiny_dataset()
    server = chat_server(status=503, retry_after="0")
    provider = live_provider(server.url, max_in_flight=1, max_retries=3)
    with pytest.raises(RoutingAborted) as excinfo:
        route_all(ds, RoutingCondition.FLATTENED_PATHS, tiny_tree, provider, error_budget=0.0)
    assert len(excinfo.value.failures) == 1
    assert "gave up after 4 attempt(s): HTTP 503" in excinfo.value.failures[0][1]
    assert len(set(map(query_of, server.requests))) <= 2  # router.WINDOW_PER_SLOT x max_in_flight


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
            sent[prompt.query] += 1
            number = sent[prompt.query]
            arrivals.append((prompt.query, number, time.monotonic()))
        if number <= backoffs.get(prompt.query, 0):
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

    def waits(**kwargs):
        draws.clear()
        answer, _ = backing_off(dict.fromkeys((r.text for r in ds.records), 2))
        provider = AnsweringProvider(answer, model_name="backoff-mock", max_in_flight=1)
        run = route_all(ds, RoutingCondition.FLATTENED_PATHS, tiny_tree, provider, **kwargs)
        assert len(run.results) == len(ds.records)
        return run.manifest["run_id"], list(draws)

    run_id, first = waits()
    assert len(first) == 2 * len(ds.records)
    assert waits() == (run_id, first)  # a rerun of the same inputs retries on the same schedule
    rng = random.Random(run_id)
    assert first == [(attempt, rng.uniform(0.0, 0.5 * 2 ** (attempt - 1))) for attempt, _ in first]
    identity = run_identity(ds, tiny_tree, RoutingCondition.FLATTENED_PATHS, "all", "backoff-mock", False)
    assert identity["run_id"] == run_id
    other_id, other = waits(identity={**identity, "run_id": "0123456789ab"})
    assert other_id == "0123456789ab" and [a for a, _ in other] == [a for a, _ in first]
    assert other != first


def test_route_all_takes_the_callers_identity(tiny_tree, monkeypatch):
    ds = tiny_dataset()
    config = ProviderConfig(max_in_flight=1)
    plain = route_all(ds, RoutingCondition.FLATTENED_PATHS, tiny_tree,
                      ScriptedProvider(["1-1"] * 6, config=config))
    identity = run_identity(ds, tiny_tree, RoutingCondition.FLATTENED_PATHS, "all", "mock", False)
    hashed = []
    monkeypatch.setattr(router, "dataset_to_jsonl", lambda d: hashed.append(d) or "")
    given = route_all(ds, RoutingCondition.FLATTENED_PATHS, tiny_tree,
                      ScriptedProvider(["1-1"] * 6, config=config), identity=identity)
    assert hashed == []  # the manifest reuses the identity, it does not hash again
    assert json.dumps({**given.manifest, "timestamp": ""}) == json.dumps({**plain.manifest, "timestamp": ""})


def workers_alive():
    return [t.name for t in threading.enumerate() if t.name.startswith("ivroute-route")]


def test_route_all_starts_no_more_workers_than_intents(tiny_tree, monkeypatch):
    started = []

    class CountingThread(threading.Thread):
        def start(self):
            started.append(self.name)
            super().start()

    monkeypatch.setattr(threading, "Thread", CountingThread)
    ds = tiny_dataset()
    provider = ScriptedProvider(["1-1"] * 6, config=ProviderConfig(max_in_flight=64))
    run = route_all(ds, RoutingCondition.FLATTENED_PATHS, tiny_tree, provider)
    assert len(run.results) == len(ds.records)
    assert 1 <= len(started) <= len(ds.records)


def test_route_all_leaves_no_worker_behind(tiny_tree):
    ds = tiny_dataset()
    provider = AnsweringProvider(lambda prompt: time.sleep(0.01) or "1-1", max_in_flight=4)  # calls overlap
    route_all(ds, RoutingCondition.FLATTENED_PATHS, tiny_tree, provider)
    assert workers_alive() == []

    def fail_slowly(prompt):
        time.sleep(0.05)
        raise ProviderError("down")

    provider = AnsweringProvider(fail_slowly, max_in_flight=4)
    with pytest.raises(RoutingAborted) as excinfo:
        route_all(ds, RoutingCondition.FLATTENED_PATHS, tiny_tree, provider, error_budget=0.0)
    assert workers_alive() == []
    # Four calls failed at once; the first failure aborted the run and the
    # calls still running when it did are not counted after it.
    assert len(excinfo.value.failures) == 1


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
        route_all(ds, RoutingCondition.FLATTENED_PATHS, tiny_tree, provider)
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


def test_route_all_retry_gives_its_worker_to_the_next_intent():
    # One worker; the first job's first attempt gets a 503 with Retry-After:
    # 0. The second job goes out before that retry; holding the worker
    # through the wait would give 0, 0, 1.
    schedule = Schedule(6, 1, 0.01, Pacing(ProviderConfig(max_in_flight=1)))
    sends = simulate(schedule, 1, {0: [TransportError("HTTP 503", "0")]})
    assert [(job, attempt) for _, job, attempt in sends] == [(0, 1), (1, 1), (0, 2), (2, 1), (3, 1), (4, 1), (5, 1)]
    assert schedule.values == list(range(6))


def test_route_all_dead_endpoint_whose_retries_wait_sees_a_bounded_window():
    # Retries waiting on a failing endpoint fill the window of
    # router.WINDOW_PER_SLOT x max_in_flight: no third job is started.
    config = ProviderConfig(max_in_flight=1, max_retries=3)
    schedule = Schedule(6, 1, 0, Pacing(config, random.Random(0)))
    sends = simulate(schedule, 1, {job: [busy()] * 4 for job in range(6)})
    assert str(schedule.error) == "1 provider failure(s) exceeded the budget of 0"
    assert schedule.failures[0][1] == "gave up after 4 attempt(s): busy"
    assert {job for _, job, _ in sends} == {0, 1}


def test_route_all_keeps_starting_intents_while_retries_wait_on_a_healthy_endpoint():
    # A window's worth of jobs (2 at max_in_flight=1) back off once, each
    # followed by a job that is answered. Were waiting retries always
    # counted against the window, the two of them would hold back every
    # job after the third until a retry came back.
    schedule = Schedule(6, 1, 0.01, Pacing(ProviderConfig(max_in_flight=1)))
    sends = simulate(schedule, 1, {0: [busy("1")], 2: [busy("1")]}, latency=0.02)
    assert schedule.values == list(range(6))
    first = {job: at for at, job, attempt in sends if attempt == 1}
    assert sorted(first) == list(range(6))
    assert max(first.values()) < first[0] + 0.02 + 1  # before the first retry is due


def test_route_all_submits_a_retry_once_it_is_due():
    # Every job backs off once for a second; on two idle workers each
    # retry goes out when it is due, not before and not later.
    schedule = Schedule(6, 2, 0.01, Pacing(ProviderConfig(max_in_flight=2)))
    sends = simulate(schedule, 2, {job: [busy("1")] for job in range(6)})
    assert schedule.values == list(range(6))
    at = {(job, attempt): at for at, job, attempt in sends}
    assert sorted(at) == [(job, attempt) for job in range(6) for attempt in (1, 2)]
    assert all(at[job, 2] == at[job, 1] + 1 for job in range(6))


def test_run_calls_makes_a_follow_up_call_at_once_and_a_retry_after_the_next_job():
    # Job 0 backs off, its retry asks for a follow-up call, and that one
    # answers; job 1 answers at once. One worker takes job 1 while job 0
    # waits, and makes job 0's follow-up call right after the call that
    # asked for it.
    schedule = Schedule(2, 1, 0, Pacing(ProviderConfig(max_in_flight=1)))
    sends = simulate(schedule, 1, {0: [busy("0"), AGAIN]})
    assert [(job, attempt) for _, job, attempt in sends] == [(0, 1), (1, 1), (0, 2), (0, 1)]
    assert (schedule.values, schedule.failures) == ([0, 1], [])


def test_run_calls_gives_a_follow_up_call_a_retry_budget_of_its_own():
    # With one retry allowed, the job's first call fails once and then asks
    # for a follow-up, which fails once too: two failures in one job, but
    # one per call, so the job still succeeds. Had the follow-up inherited
    # the first call's retry, its failure would have given up.
    schedule = Schedule(1, 1, 0, Pacing(ProviderConfig(max_in_flight=1, max_retries=1)))
    sends = simulate(schedule, 1, {0: [busy("0"), AGAIN, busy("0"), "done"]})
    assert [(job, attempt) for _, job, attempt in sends] == [(0, 1), (0, 2), (0, 1), (0, 2)]
    assert (schedule.values, schedule.failures) == (["done"], [])


def test_run_calls_counts_a_failure_within_budget_and_keeps_going():
    def run(budget):
        schedule = Schedule(3, 2, budget, Pacing(ProviderConfig(max_in_flight=2)))
        simulate(schedule, 2, {1: [ProviderError("down")]})
        return schedule

    within = run(0.5)
    assert (within.values, within.failures, within.error) == ([0, None, 2], [(1, "down")], None)
    over = run(0.0)
    assert isinstance(over.error, RoutingAborted) and over.error.failures == [(1, "down")]
    assert str(over.error) == "1 provider failure(s) exceeded the budget of 0"


@pytest.mark.parametrize("budget, count, allowed", [
    (0.29, 100, 29), (0.57, 100, 57), (0.58, 100, 58), (0.01, 230, 2),
    (0, 7, 0), (0.0, 230, 0), (1, 7, 7), (1.0, 230, 230),
])
def test_error_budget_allows_the_floor_of_the_decimal_product(budget, count, allowed):
    # In binary floating point 0.29 x 100 is 28.999999999999996.
    schedule = Schedule(count, 1, budget, Pacing(ProviderConfig()))
    assert schedule.allowed_failures == allowed
    simulate(schedule, 1, {job: [ProviderError("down")] for job in range(count)})
    if allowed < count:  # the first failure past the budget aborts the run
        assert str(schedule.error) == f"{allowed + 1} provider failure(s) exceeded the budget of {allowed}"
    else:
        assert schedule.error is None and len(schedule.failures) == count


HONOURED = ("0", "1", "7", "60")  # Retry-After values that Pacing waits out exactly
RETRY_AFTERS = st.one_of(st.none(), st.sampled_from([*HONOURED, "61", "-1", "soon"]))


@st.composite
def outcomes(draw):
    """An attempt's outcome: a value, AGAIN, a TransportError with any
    Retry-After, another ProviderError, or, seldom, another exception."""
    kind = draw(st.sampled_from(["value", "retry"] * 4 + ["again", "failure", "again", "failure", "bug"]))
    if kind == "retry":
        return TransportError("busy", draw(RETRY_AFTERS))
    return {"value": draw(st.integers()), "again": AGAIN, "failure": ProviderError("down"),
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
        self.follow_ups = []  # jobs owed a follow-up call, the latest last
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
        if self.follow_ups:  # a follow-up call goes before any other
            assert (job, attempt) == (self.follow_ups.pop(), 1)
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
        if self.aborted or outcome is AGAIN:
            assert due is None
            if not self.aborted:
                self.follow_ups.append(job)
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


ScheduleMachine.TestCase.settings = settings(max_examples=60, stateful_step_count=40, deadline=None)
test_schedule_keeps_every_rule = ScheduleMachine.TestCase


# --- manifest ------------------------------------------------------------------------

def manifest_for(ds, tree, condition=RoutingCondition.FLATTENED_PATHS, record_filter="base_only",
                 model_name="scripted-mock", lenient=False, failures=()):
    identity = run_identity(ds, tree, condition, record_filter, model_name, lenient)
    return build_manifest(identity, list(failures))


def test_manifest_run_id_ignores_timestamp_and_counts(tiny_tree, monkeypatch):
    ds = tiny_dataset()
    first = manifest_for(ds, tiny_tree)
    second = manifest_for(ds, tiny_tree, failures=[("x", "boom")])
    assert first["run_id"] == second["run_id"]
    assert first["timestamp"]


def test_a_manifest_hashes_to_its_run_id(tiny_tree):
    ds = tiny_dataset()
    manifest = manifest_for(ds, tiny_tree, failures=[("x", "boom")])
    assert router.run_id(manifest) == manifest["run_id"]
    identity = run_identity(ds, tiny_tree, RoutingCondition.FLATTENED_PATHS, "all", "m", False, 0.5)
    assert list(identity) == [*router.IDENTITY_KEYS, "run_id"]  # the run id hashes every input named


def test_manifest_run_id_tracks_inputs(tiny_tree):
    ds = tiny_dataset()
    base = manifest_for(ds, tiny_tree)
    reconditioned = manifest_for(ds, tiny_tree, condition=RoutingCondition.DESCRIPTIVE_MENU)
    assert base["run_id"] != reconditioned["run_id"]
    refiltered = manifest_for(ds, tiny_tree, record_filter="all")
    assert base["run_id"] != refiltered["run_id"]
    remodeled = manifest_for(ds, tiny_tree, model_name="other")
    assert base["run_id"] != remodeled["run_id"]


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
    # Without an identity from its caller, route_all hashes its provider's temperature.
    oracle = OracleProvider.for_dataset(dataset, config=ProviderConfig(model_name="oracle-mock",
                                                                      temperature=1.5))
    run = route_all(dataset, RoutingCondition.FLATTENED_PATHS, tree, oracle, record_filter="base_only")
    assert run.manifest["run_id"] == identity(1.5)["run_id"]
    assert run.manifest["temperature"] == 1.5


def test_manifest_core_fields(tiny_tree):
    ds = tiny_dataset()
    manifest = manifest_for(ds, tiny_tree)
    assert manifest["menu_name"] == "Tiny"
    assert manifest["condition"] == "flattened_paths"
    assert manifest["dataset_filter"] == "base_only"
    assert manifest["model_name"] == "scripted-mock"
    assert manifest["parse_mode"] == "strict"
    assert len(manifest["run_id"]) == 12


# --- result files --------------------------------------------------------------------

def test_results_row_keys_in_file_order(tmp_path, tiny_tree):
    ds = tiny_dataset()
    provider = ScriptedProvider([" '1-1.' "] + ["2\u20139"] * 5, config=ProviderConfig(max_in_flight=1))
    run = route_all(ds, RoutingCondition.FLATTENED_PATHS, tiny_tree, provider)
    file = tmp_path / "results.jsonl"
    save_results([r._replace(latency=0.25) for r in run.results[:2]], file)
    assert file.read_text(encoding="utf-8").splitlines() == [
        '{"intent_id": "1-1:b00", "raw_response": " \'1-1.\' ", "predicted": "1-1", '
        '"ground_truth": "1-1", "latency": 0.25}',
        '{"intent_id": "1-1:b01", "raw_response": "2\u20139", "predicted": "2-9", '
        '"ground_truth": "1-1", "latency": 0.25}',
    ]
    assert [r.correct for r in run.results[:2]] == [True, False]  # graded from the row, not stored in it
    # The rules that fired are read off the stored reply, under the run's parse mode.
    assert [parse_dtmf_response(r.raw_response).normalization_applied for r in run.results[:2]] == [
        ("trim", "unquote", "strip_trailing_period"), ("map_unicode_dashes",)]


def test_save_results_returns_the_sha256_of_the_bytes_it_wrote(tmp_path, tiny_tree):
    ds = tiny_dataset()
    run = route_all(ds, RoutingCondition.FLATTENED_PATHS, tiny_tree, ScriptedProvider(["1-1"] * 6))
    file = tmp_path / "results.jsonl"
    assert save_results(run.results, file) == hashlib.sha256(file.read_bytes()).hexdigest()
    assert save_results([], file) == hashlib.sha256(b"").hexdigest() and file.read_bytes() == b""


def test_results_round_trip(tmp_path, tiny_tree):
    ds = tiny_dataset()
    provider = ScriptedProvider(
        ["1-1", "nonsense", "1-9", "7-7", "2", "2"],
        config=ProviderConfig(max_in_flight=1),
    )
    run = route_all(ds, RoutingCondition.FLATTENED_PATHS, tiny_tree, provider)
    file = tmp_path / "results.jsonl"
    save_results(run.results, file)
    loaded = load_results(file)
    assert loaded == run.results
    lines = file.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 6
    second = json.loads(lines[1])
    assert second["predicted"] == INVALID
    assert second["raw_response"] == "nonsense"
