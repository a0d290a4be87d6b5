"""Response parsing, single-shot routing, batch routing, manifests, and
result files."""

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

from ivroute.datagen import Dataset
from ivroute.prompts import RoutingCondition
from ivroute import router
from ivroute.provider import (
    HttpProvider,
    OracleProvider,
    Provider,
    ProviderConfig,
    ProviderError,
    ScriptedProvider,
    TransportError,
)
from ivroute.router import (
    AGAIN,
    INVALID,
    RoutingAborted,
    build_manifest,
    load_results,
    parse_dtmf_response,
    render_context,
    route,
    route_all,
    route_one,
    run_calls,
    run_identity,
    save_results,
    select_records,
)

from conftest import make_record, tiny_dataset


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


class FlakyOracle(Provider):
    """Echoes truth, except queries marked to fail."""

    def __init__(self, truth_by_text, fail_texts, max_in_flight=1):
        super().__init__(ProviderConfig(model_name="flaky-mock", max_in_flight=max_in_flight))
        self._truth = truth_by_text
        self._fail = set(fail_texts)

    def _request(self, text, prompt):
        query = prompt.query
        if query in self._fail:
            raise ProviderError("synthetic outage")
        return self._truth[query]


def test_route_all_tolerates_failures_within_budget(tiny_tree):
    ds = tiny_dataset()
    truth = {r.text: r.ground_truth.canonical() for r in ds.records}
    provider = FlakyOracle(truth, fail_texts={ds.records[1].text})
    run = route_all(ds, RoutingCondition.FLATTENED_PATHS, tiny_tree, provider,
                    error_budget=0.5)
    assert len(run.results) == 5
    assert run.manifest["failures"] == [
        {"intent_id": ds.records[1].id, "error": "synthetic outage"}
    ]
    assert "n_results" not in run.manifest  # route's results_sha256 vouches for the rows


def test_route_all_aborts_past_budget(tiny_tree):
    ds = tiny_dataset()
    truth = {r.text: r.ground_truth.canonical() for r in ds.records}
    provider = FlakyOracle(truth, fail_texts={r.text for r in ds.records[:3]})
    with pytest.raises(RoutingAborted) as excinfo:
        route_all(ds, RoutingCondition.FLATTENED_PATHS, tiny_tree, provider,
                  error_budget=0.0)
    aborted = excinfo.value
    assert len(aborted.failures) == 1
    assert str(aborted) == "1 provider failure(s) exceeded the budget of 0"


class SlowProvider(Provider):
    """Answers 1-1 after holding each call open for ``delay`` seconds, so
    concurrency tests see real overlap; records each call's prompt text."""

    def __init__(self, max_in_flight, delay):
        super().__init__(ProviderConfig(max_in_flight=max_in_flight))
        self.delay = delay
        self.calls = []

    def _request(self, text, prompt):
        self.calls.append(text)
        time.sleep(self.delay)
        return "1-1"


def test_route_all_other_error_cancels_queued_calls(tiny_tree):
    ds = tiny_dataset()

    class Broken(SlowProvider):  # its call for the first record fails with no ProviderError
        def _request(self, text, prompt):
            if prompt.query == ds.records[0].text:
                raise RuntimeError("provider bug")
            return super()._request(text, prompt)

    provider = Broken(max_in_flight=1, delay=0.05)
    with pytest.raises(RuntimeError, match="provider bug"):
        route_all(ds, RoutingCondition.FLATTENED_PATHS, tiny_tree, provider)
    # The single worker may have started the next call before the abort;
    # every call queued behind it is cancelled, not run.
    assert len(provider.calls) <= 1


class QueryTransport:
    """An HTTP transport that answers by the prompt's query: the statuses
    queued for it in ``faults`` first, each with ``Retry-After: 0``, then a
    200 with the reply ``1-1`` (a ``None`` queue answers 503 forever).
    Records the queries in the order their requests arrive."""

    def __init__(self, faults):
        self.faults = {query: list(statuses) if statuses is not None else None
                       for query, statuses in faults.items()}
        self.queries = []
        self._lock = threading.Lock()

    def __call__(self, payload):
        query = payload["messages"][0]["content"].rpartition("User Query:\n")[2].strip()
        with self._lock:
            self.queries.append(query)
            queued = self.faults.get(query, [])
            status = 503 if queued is None else (queued.pop(0) if queued else 200)
        if status != 200:
            return status, "busy", "0"
        return 200, json.dumps({"choices": [{"message": {"content": "1-1"}}]}), None


def http_provider_on(transport, **config_kwargs):
    config = ProviderConfig(endpoint_url="http://endpoint.test/v1", **config_kwargs)
    return HttpProvider(config, transport=transport)


def test_route_all_retry_gives_its_worker_to_the_next_intent(tiny_tree):
    ds = tiny_dataset()
    queries = [r.text for r in ds.records]
    transport = QueryTransport({queries[0]: [503]})
    provider = http_provider_on(transport, max_in_flight=1)
    run = route_all(ds, RoutingCondition.FLATTENED_PATHS, tiny_tree, provider)
    assert [r.intent_id for r in run.results] == [r.id for r in ds.records]
    # The second intent goes out while the first waits out its backoff;
    # holding the worker through the wait would give q0, q0, q1.
    assert transport.queries[:3] == [queries[0], queries[1], queries[0]]
    assert len(transport.queries) == 7


def test_route_all_dead_endpoint_sees_a_bounded_window(tiny_tree):
    ds = tiny_dataset()
    transport = QueryTransport({r.text: None for r in ds.records})
    provider = http_provider_on(transport, max_in_flight=1, max_retries=3)
    with pytest.raises(RoutingAborted) as excinfo:
        route_all(ds, RoutingCondition.FLATTENED_PATHS, tiny_tree, provider, error_budget=0.0)
    assert len(excinfo.value.failures) == 1
    assert "gave up after 4 attempt(s): HTTP 503" in excinfo.value.failures[0][1]
    assert len(set(transport.queries)) <= 2  # router.WINDOW_PER_SLOT x max_in_flight


def fixed_backoff(monkeypatch, delay):
    """Make every retry that Pacing allows wait exactly ``delay`` seconds."""
    retry_at = router.Pacing.retry_at
    monkeypatch.setattr(router.Pacing, "retry_at", lambda self, now, *rest: (
        None if retry_at(self, now, *rest) is None else now + delay))


class BackoffProvider(Provider):
    """Fails the first ``backoffs.get(query, 0)`` requests for a query with
    a TransportError that run_calls retries; every other request answers
    ``1-1`` after ``latency`` seconds. Records when each request arrived,
    numbered per query from 1."""

    def __init__(self, backoffs, max_in_flight, latency=0.0, rps=None):
        config = ProviderConfig(model_name="backoff-mock", max_in_flight=max_in_flight,
                                requests_per_second=rps)
        super().__init__(config)
        self._backoffs = backoffs
        self._latency = latency
        self._lock = threading.Lock()
        self._sent = Counter()
        self.arrivals = []  # (query, its request number, monotonic time)

    def complete(self, prompt):
        with self._lock:
            self._sent[prompt.query] += 1
            number = self._sent[prompt.query]
            self.arrivals.append((prompt.query, number, time.monotonic()))
        if number <= self._backoffs.get(prompt.query, 0):
            raise TransportError("busy")
        return super().complete(prompt)

    def _request(self, text, prompt):
        time.sleep(self._latency)
        return "1-1"


def test_route_all_dead_endpoint_whose_retries_wait_sees_a_bounded_window(tiny_tree, monkeypatch):
    ds = tiny_dataset()
    dead = dict.fromkeys((r.text for r in ds.records), math.inf)
    fixed_backoff(monkeypatch, 0.05)
    provider = BackoffProvider(backoffs=dead, max_in_flight=1)
    with pytest.raises(RoutingAborted) as excinfo:
        route_all(ds, RoutingCondition.FLATTENED_PATHS, tiny_tree, provider, error_budget=0.0)
    assert excinfo.value.failures[0][1] == "gave up after 4 attempt(s): busy"
    # Retries waiting on a failing endpoint fill the window of
    # router.WINDOW_PER_SLOT x max_in_flight: no third intent is started.
    assert len({query for query, _, _ in provider.arrivals}) <= 2


def test_route_all_keeps_starting_intents_while_retries_wait_on_a_healthy_endpoint(tiny_tree, monkeypatch):
    ds = tiny_dataset()
    queries = [r.text for r in ds.records]
    # A window's worth of intents (2 at max_in_flight=1) back off once, each
    # followed by an intent that is answered. Were waiting retries always
    # counted against the window, the two of them would hold back every
    # intent after the third until a retry came back.
    fixed_backoff(monkeypatch, 0.3)
    provider = BackoffProvider(backoffs={queries[0]: 1, queries[2]: 1},
                               max_in_flight=1, latency=0.02)
    run = route_all(ds, RoutingCondition.FLATTENED_PATHS, tiny_tree, provider)
    assert [r.intent_id for r in run.results] == [r.id for r in ds.records]
    first = {query: at for query, number, at in provider.arrivals if number == 1}
    assert set(first) == set(queries)
    first_retry_due = min(first[queries[0]], first[queries[2]]) + 0.3
    assert max(first.values()) < first_retry_due


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
    provider = BackoffProvider(backoffs={queries[0]: 1, queries[1]: 1, queries[3]: 1},
                               max_in_flight=2, latency=0.3)
    run = route_all(ds, RoutingCondition.FLATTENED_PATHS, tiny_tree, provider)
    assert [r.intent_id for r in run.results] == [r.id for r in ds.records]
    first = {query: at for query, number, at in provider.arrivals if number == 1}
    first_retry_due = min(first[queries[i]] for i in (0, 1, 3)) + 0.5
    assert max(first.values()) < first_retry_due


def test_route_all_submits_a_retry_once_it_is_due(tiny_tree, monkeypatch):
    ds = tiny_dataset()
    fixed_backoff(monkeypatch, 0.05)
    provider = BackoffProvider(backoffs=dict.fromkeys((r.text for r in ds.records), 1),
                               max_in_flight=2)
    run = route_all(ds, RoutingCondition.FLATTENED_PATHS, tiny_tree, provider)
    assert [r.intent_id for r in run.results] == [r.id for r in ds.records]
    first = {query: at for query, number, at in provider.arrivals if number == 1}
    second = {query: at for query, number, at in provider.arrivals if number == 2}
    assert set(first) == set(second) == {r.text for r in ds.records}
    assert all(second[query] - first[query] >= 0.05 for query in first)


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
        provider = BackoffProvider(backoffs=dict.fromkeys((r.text for r in ds.records), 2),
                                   max_in_flight=1)
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
    provider = SlowProvider(max_in_flight=4, delay=0.01)
    route_all(ds, RoutingCondition.FLATTENED_PATHS, tiny_tree, provider)
    assert workers_alive() == []

    class SlowlyFailing(Provider):
        def _request(self, text, prompt):
            time.sleep(0.05)
            raise ProviderError("down")

    provider = SlowlyFailing(ProviderConfig(max_in_flight=4))
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

    class InterruptingProvider(ScriptedProvider):
        def _request(self, text, prompt):
            signal.pthread_kill(caller, signal.SIGINT)  # Ctrl-C while this call runs
            time.sleep(0.1)
            return super()._request(text, prompt)

        def close(self):
            closed.append(workers_alive())

    provider = InterruptingProvider(["1-1"] * 6, config=ProviderConfig(max_in_flight=1))
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
    provider = BackoffProvider(backoffs=backoffs, max_in_flight=8, rps=rate)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        started = time.monotonic()
        run = route_all(dataset, RoutingCondition.FLATTENED_PATHS, tree, provider)
        elapsed = time.monotonic() - started
    finally:
        sys.setswitchinterval(interval)
    assert [r.intent_id for r in run.results] == [r.id for r in dataset.records]
    assert len(provider.arrivals) == len(queries) + len(backoffs)
    assert sorted((q, a) for q, a, _ in provider.arrivals) == sorted(
        [(q, 1) for q in queries] + [(q, 2) for q in backoffs]
    )
    sent = sorted(at for _, _, at in provider.arrivals)
    assert sent[-1] - sent[0] >= (len(sent) - 1) / rate - 0.01
    assert elapsed < 30
    assert workers_alive() == []


def test_run_calls_makes_a_follow_up_call_at_once_and_a_retry_after_the_next_job():
    # Job 0 backs off, its retry asks for a follow-up call, and that one
    # answers; job 1 answers at once. One worker takes job 1 while job 0
    # waits, and makes job 0's follow-up call right after the call that
    # asked for it.
    steps = []

    def step(index):
        steps.append(index)
        if index == 1:
            return "one"
        if len(steps) == 1:
            raise TransportError("busy", retry_after="0")
        return AGAIN if len(steps) == 3 else "zero"

    provider = ScriptedProvider([], config=ProviderConfig(max_in_flight=1))
    assert run_calls(provider, 2, step, error_budget=0) == (["zero", "one"], [])
    assert steps == [0, 1, 0, 0]


def test_run_calls_gives_a_follow_up_call_a_retry_budget_of_its_own():
    # With one retry allowed, the job's first call fails once and then asks
    # for a follow-up, which fails once too: two failures in one job, but
    # one per call, so the job still succeeds. Had the follow-up inherited
    # the first call's retry, its failure would have given up.
    outcomes = iter([TransportError("busy", "0"), AGAIN, TransportError("busy", "0"), "done"])
    calls = []

    def step(index):
        calls.append(index)
        outcome = next(outcomes)
        if isinstance(outcome, TransportError):
            raise outcome
        return outcome

    provider = ScriptedProvider([], config=ProviderConfig(max_in_flight=1, max_retries=1))
    assert run_calls(provider, 1, step, error_budget=0) == (["done"], [])
    assert calls == [0, 0, 0, 0]


def test_run_calls_counts_a_failure_within_budget_and_keeps_going():
    def step(index):
        if index == 1:
            raise ProviderError("down")
        return index

    provider = ScriptedProvider([], config=ProviderConfig(max_in_flight=2))
    assert run_calls(provider, 3, step, error_budget=0.5) == ([0, None, 2], [(1, "down")])
    with pytest.raises(RoutingAborted, match="exceeded the budget of 0") as excinfo:
        run_calls(provider, 3, step, error_budget=0.0)
    assert excinfo.value.failures == [(1, "down")]


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
