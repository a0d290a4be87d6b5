"""Routing: turn one query plus one rendered context into one predicted path.

``route`` is the routing itself and needs no label; ``route_one`` grades its
prediction against an intent's ground truth, and ``route_all`` does that for
a whole dataset. ``run_calls`` is the scheduler every model call of the
package goes through, routing and synthesis alike.

Model output is held to a strict grammar: after a small, fixed normalization
pipeline the whole reply must be ``digit ("-" digit)*`` or it is scored as
INVALID. Content is never re-requested for being wrong; only transport
failures are retried, and ``run_calls`` decides when.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
import random
import re
import threading
import time
from collections import deque
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

from .datagen import Dataset, IntentRecord, dataset_to_jsonl, read_jsonl, validate_dataset
from .menu import (
    PATH_PATTERN,
    DtmfPath,
    MenuTree,
    flatten,
    render_descriptive,
    render_flattened,
    tree_to_document,
    validate_menu,
)
from .prompts import PromptText, RoutingCondition, build_prompt
from .provider import Completion, Provider, ProviderConfig, ProviderError, TransportError

INVALID = "INVALID"

# Jobs run_calls keeps in progress per in-flight slot: enough to keep every
# worker fed, and few enough that a dead endpoint sees a bounded number.
WINDOW_PER_SLOT = 2

# The longest Retry-After, in seconds, that Pacing honours.
MAX_RETRY_AFTER_S = 60

# What a step returns when its job needs a follow-up call.
AGAIN = object()

# a path token not butted against other digits/hyphens, for lenient salvage
_PATH_TOKEN = re.compile(rf"(?<![0-9-]){PATH_PATTERN}(?![0-9-])")

# hyphen, non-breaking hyphen, figure dash, en dash, em dash, horizontal bar, minus sign
_DASH_TRANSLATION = str.maketrans(dict.fromkeys("\u2010\u2011\u2012\u2013\u2014\u2015\u2212", "-"))


class ParsedResponse(NamedTuple):
    path: DtmfPath | None  # None means INVALID
    normalization_applied: tuple[str, ...]


class RoutingResult(NamedTuple):
    """One results-file row, its fields in the row's key order; the run's
    manifest names the run. The rules that fired are those of
    ``parse_dtmf_response(raw_response)`` under the run's parse mode."""

    intent_id: str
    raw_response: str
    predicted: str  # a DtmfPath or "INVALID"
    ground_truth: DtmfPath
    latency: float

    @property
    def correct(self) -> bool:
        return self.predicted == self.ground_truth  # INVALID is never a path


def parse_dtmf_response(raw: str, lenient: bool = False) -> ParsedResponse:
    """Normalize a model reply and match it against the path grammar.

    Pipeline, applied once each in order: trim whitespace, strip one layer
    of surrounding quotes or backticks, strip one trailing period, map
    unicode dashes to ASCII hyphens. Rules that changed the text are
    recorded. In lenient mode a reply that still fails the grammar is
    salvaged iff it contains exactly one path-shaped token.
    """
    applied: list[str] = []
    text = raw

    trimmed = text.strip()
    if trimmed != text:
        applied.append("trim")
    text = trimmed

    if len(text) >= 2 and text[0] == text[-1] and text[0] in "'\"`":
        text = text[1:-1]
        applied.append("unquote")

    if text.endswith("."):
        text = text[:-1]
        applied.append("strip_trailing_period")

    mapped = text.translate(_DASH_TRANSLATION)
    if mapped != text:
        applied.append("map_unicode_dashes")
    text = mapped

    try:
        return ParsedResponse(DtmfPath(text), tuple(applied))
    except ValueError:
        pass

    if lenient:
        tokens = _PATH_TOKEN.findall(text)
        if len(tokens) == 1:
            applied.append("lenient_extract")
            return ParsedResponse(DtmfPath(tokens[0]), tuple(applied))

    return ParsedResponse(None, tuple(applied))


def route(
    query: str,
    condition: RoutingCondition,
    context: str,
    provider: Provider,
    lenient: bool = False,
) -> tuple[ParsedResponse, Completion]:
    """One prompt, one completion (one request), one parsed reply for a
    single query."""
    prompt: PromptText = build_prompt(condition, context, query)
    completion = provider.complete(prompt)
    return parse_dtmf_response(completion.raw_text, lenient=lenient), completion


def route_one(
    intent: IntentRecord,
    condition: RoutingCondition,
    context: str,
    provider: Provider,
    lenient: bool = False,
) -> RoutingResult:
    """Route one intent's text and grade the reply against its ground truth.

    A ProviderError passes through unchanged, for ``run_calls`` to retry or
    to record against the intent.
    """
    parsed, completion = route(intent.text, condition, context, provider, lenient)
    return RoutingResult(
        intent_id=intent.id,
        raw_response=completion.raw_text,
        predicted=INVALID if parsed.path is None else parsed.path,
        ground_truth=intent.ground_truth,
        latency=completion.latency,
    )


class RoutingAborted(ProviderError):
    """Provider failures went over budget; the failures are attached."""

    def __init__(self, message: str, failures: list[tuple]):
        super().__init__(message)
        self.failures = failures


class RoutingRun(NamedTuple):
    results: list[RoutingResult]
    manifest: dict


def accuracy(results: Sequence[RoutingResult]) -> float:
    if not results:
        raise ValueError("no results to score")
    return sum(1 for r in results if r.correct) / len(results)


def format_percent(fraction: float) -> str:
    return f"{fraction * 100:.2f}"


# Each --filter value: its report label, and the record origins it keeps.
DATASET_FILTERS = {"base_only": ("Base Only", {"base"}), "all": ("Augmented", {"base", "augmented"})}


def select_records(ds: Dataset, record_filter: str) -> list[IntentRecord]:
    if record_filter not in DATASET_FILTERS:
        raise ValueError(f"unknown dataset filter {record_filter!r}")
    return [r for r in ds.records if r.origin in DATASET_FILTERS[record_filter][1]]


def render_context(tree: MenuTree, condition: RoutingCondition) -> str:
    if condition is RoutingCondition.DESCRIPTIVE_MENU:
        return render_descriptive(tree)
    return render_flattened(flatten(tree))


class Pacing:
    """When ``run_calls`` sends an attempt; ``now`` is a ``time.monotonic()``.
    Every attempt takes its own requests_per_second turn. A failed attempt
    goes again after the server's Retry-After when it is whole seconds within
    [0, MAX_RETRY_AFTER_S], exactly, and otherwise (none sent, an HTTP-date,
    text, or longer) after a draw from ``rng`` below a cap of 0.5 s doubling
    per attempt to 8 s ("full jitter"), so calls that fail together come back
    apart. Runs given one Pacing keep one pace."""

    def __init__(self, config: ProviderConfig, rng: random.Random | None = None):
        self.interval = 1.0 / config.requests_per_second if config.requests_per_second else 0.0
        self.max_retries = config.max_retries
        self.rng = rng or random.Random()
        self.next_send = 0.0  # no attempt is sent before this

    def admit(self, now: float) -> float:
        """``now`` if an attempt may go now, taking the turn; else when the next turn comes."""
        if self.next_send > now:
            return self.next_send
        self.next_send = now + self.interval
        return now

    def retry_at(self, now: float, attempt: int, retry_after: str | None) -> float | None:
        """When failed attempt ``attempt`` (1-based) goes again; None past max_retries."""
        if attempt > self.max_retries:
            return None
        value = (retry_after or "").strip()
        if value.isascii() and value.isdigit() and int(value) <= MAX_RETRY_AFTER_S:
            return now + int(value)
        return now + self.rng.uniform(0.0, min(0.5 * 2 ** (attempt - 1), 8.0))


def run_calls(
    provider: Provider,
    count: int,
    step: Callable[[int], object],
    error_budget: float,
    pacing: Pacing | None = None,
) -> tuple[list, list[tuple[int, str]]]:
    """Run jobs 0 .. count - 1; return their values (None for a failed job)
    and the failures as (job, message).

    ``step(index)`` makes one provider call for job ``index`` and returns
    the job's value, or AGAIN for a follow-up call, admitted before any
    other with a retry budget of its own. Attempts are counted here, for
    ``pacing``, and nowhere else. Up to max_in_flight workers take jobs in
    submission order; after each step its worker records the outcome and
    submits what is due, with no scheduling thread. ``pacing`` (by default a
    fresh Pacing of the provider's config) admits every attempt and times
    each retry; a worker with nothing to admit waits for the next turn or
    the next due retry. At most WINDOW_PER_SLOT x max_in_flight jobs are
    submitted at once; while the latest step to finish brought no value,
    jobs waiting out a retry count too. A job whose step raises
    TransportError gives its worker back and goes again, after the jobs
    already submitted and ahead of those not yet submitted, or fails with
    TransportError("gave up after N attempt(s): ...") once ``pacing`` gives
    up. Another ``ProviderError`` fails its job;
    one failure past ``error_budget`` (a fraction of ``count``) raises
    RoutingAborted, and any other exception, a step's or a worker's own, is
    raised as it is once every worker has stopped; nothing is admitted after
    either, and queued jobs and waiting retries are dropped.
    The provider stays open for the caller's next run; the caller closes it.
    """
    allowed_failures = math.floor(error_budget * count)
    window = WINDOW_PER_SLOT * provider.config.max_in_flight
    pacing = pacing or Pacing(provider.config)

    values: list = [None] * count
    failures: list[tuple[int, str]] = []
    # The state below is shared by the workers and guarded by ``lock``.
    lock = threading.Condition()
    tasks: deque[tuple[int, int]] = deque()  # submitted (job, attempt), not yet taken
    waiting: list[tuple[float, int, int]] = []  # heap of (due time, job, attempt)
    submitted = 0  # tasks queued or running
    next_index = 0
    failing = False  # the latest step to finish brought no value
    error: BaseException | None = None  # what aborts the run

    def work() -> None:
        nonlocal submitted, next_index, failing, error
        with lock:
            try:
                while error is None:
                    now = time.monotonic()
                    while waiting and waiting[0][0] <= now:
                        _, index, attempt = heapq.heappop(waiting)
                        tasks.append((index, attempt))
                        submitted += 1
                    while next_index < count and submitted + (len(waiting) if failing else 0) < window:
                        tasks.append((next_index, 1))
                        next_index += 1
                        submitted += 1
                    if not tasks:
                        if not waiting and not submitted:
                            break  # every job is done
                        lock.wait(waiting[0][0] - now if waiting else None)
                        continue
                    due = pacing.admit(now)
                    if due > now:  # the next --rps turn has not come
                        lock.wait(due - now)
                        continue
                    index, attempt = tasks.popleft()
                    lock.notify(len(tasks))  # idle workers take the rest
                    lock.release()
                    try:
                        outcome = step(index)
                    except BaseException as exc:  # TransportError, ProviderError, or what aborts the run
                        outcome = exc
                    lock.acquire()
                    if error is not None:
                        break
                    if outcome is AGAIN:  # the follow-up call is admitted first
                        tasks.appendleft((index, 1))
                        continue
                    submitted -= 1
                    failing = isinstance(outcome, BaseException)
                    due = (pacing.retry_at(time.monotonic(), attempt, outcome.retry_after)
                           if isinstance(outcome, TransportError) else None)
                    if not failing:
                        values[index] = outcome
                    elif due is not None:
                        heapq.heappush(waiting, (due, index, attempt + 1))
                        lock.notify()  # a worker waiting for a later retry times its wait again
                    elif not isinstance(outcome, ProviderError):
                        error = outcome
                    else:
                        if isinstance(outcome, TransportError):
                            gave_up = TransportError(f"gave up after {attempt} attempt(s): {outcome}")
                            gave_up.__cause__ = outcome
                            outcome = gave_up
                        failures.append((index, str(outcome)))
                        if len(failures) > allowed_failures:
                            error = RoutingAborted(
                                f"{len(failures)} provider failure(s) exceeded the budget of {allowed_failures}",
                                failures=failures,
                            )
                            error.__cause__ = outcome
            except BaseException as exc:  # the scheduling's own, as a wait too long or a Pacing that raises
                error = exc
            lock.notify_all()  # the run is over, or aborted

    threads = [threading.Thread(target=work, name=f"ivroute-route-{n}", daemon=True)
               for n in range(min(provider.config.max_in_flight, count))]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    except BaseException as exc:  # a KeyboardInterrupt in the caller
        with lock:
            error = exc
            lock.notify_all()
        for thread in threads:
            if thread.is_alive():
                thread.join()
        raise
    if error is not None:
        raise error
    return values, failures


def route_all(
    ds: Dataset,
    condition: RoutingCondition,
    tree: MenuTree,
    provider: Provider,
    record_filter: str = "all",
    lenient: bool = False,
    error_budget: float = 0.01,
    identity: dict | None = None,
) -> RoutingRun:
    """Route every selected record on ``run_calls`` and return results in
    dataset order; the context is rendered once. A RoutingAborted names
    its failures by intent id.

    ``identity`` is the ``run_identity`` of these inputs when the caller has
    it already; without it, the inputs are hashed here. Its run id seeds the
    retry jitter, so a rerun of the same inputs retries on the same schedule.
    """
    menu_problems = validate_menu(tree)
    if menu_problems:
        raise ValueError("menu is not valid: " + "; ".join(menu_problems))
    data_problems = validate_dataset(ds, flatten(tree))
    if data_problems:
        raise ValueError("dataset is not valid: " + "; ".join(data_problems))

    records = select_records(ds, record_filter)
    context = render_context(tree, condition)

    def step(index: int) -> RoutingResult:
        return route_one(records[index], condition, context, provider, lenient)

    def by_id(failures: list[tuple[int, str]]) -> list[tuple[str, str]]:
        return [(records[index].id, message) for index, message in failures]

    if identity is None:
        identity = run_identity(ds, tree, condition, record_filter, provider.config.model_name, lenient,
                                provider.config.temperature)
    try:
        slots, failures = run_calls(provider, len(records), step, error_budget,
                                    Pacing(provider.config, random.Random(identity["run_id"])))
    except RoutingAborted as exc:
        exc.failures = by_id(exc.failures)
        raise
    finally:
        # The running attempts are done: no idle connection outlives the run.
        provider.close()
    return RoutingRun([r for r in slots if r is not None], build_manifest(identity, by_id(failures)))


# --- manifest and results files ----------------------------------------------

def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# The keys of run_identity that its run id hashes; "temperature" only when set.
IDENTITY_KEYS = ("menu_name", "menu_hash", "dataset_hash", "condition", "dataset_filter", "model_name",
                 "parse_mode", "temperature")


def menu_hash(tree: MenuTree) -> str:
    return sha256(json.dumps(tree_to_document(tree), sort_keys=True, ensure_ascii=False).encode("utf-8"))


def run_identity(
    ds: Dataset,
    tree: MenuTree,
    condition: RoutingCondition,
    record_filter: str,
    model_name: str,
    lenient: bool,
    temperature: float | None = None,
) -> dict:
    """The inputs that name a run, plus ``run_id``, their hash. A run at
    the endpoint's default temperature (None) hashes no temperature.

    It depends on nothing routing produces, so it is known before the
    first call is made.
    """
    core = {
        "menu_name": tree.name,
        "menu_hash": menu_hash(tree),
        "dataset_hash": sha256(dataset_to_jsonl(ds).encode("utf-8")),
        "condition": condition.value,
        "dataset_filter": record_filter,
        "model_name": model_name,
        "parse_mode": "lenient" if lenient else "strict",
    }
    if temperature is not None:
        core["temperature"] = float(temperature)  # 1 and 1.0 name one run
    return {**core, "run_id": run_id(core)}


def run_id(fields: dict) -> str:
    """The id of the run that ``fields``, a ``run_identity`` or a manifest, names: its IDENTITY_KEYS' hash."""
    identity = {key: fields[key] for key in IDENTITY_KEYS if key in fields}
    return sha256(json.dumps(identity, sort_keys=True).encode("utf-8"))[:12]


def build_manifest(identity: dict, failures: list[tuple[str, str]]) -> dict:
    """A run's ``run_identity``, failures and time; ``route`` adds ``results_sha256`` once it saves the rows."""
    return {
        **identity,
        "failures": [{"intent_id": i, "error": e} for i, e in failures],
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def result_from_record(record: dict) -> RoutingResult:
    """The result a results-file row holds; a field of the wrong type is
    refused with ValueError. Other keys, as the ``condition``, ``model_name``,
    ``correct``, ``known_path`` and ``normalization_applied`` of rows of
    earlier formats, are ignored."""
    intent_id = record["intent_id"]
    if not isinstance(intent_id, str):
        raise ValueError(f"intent_id must be a string, not {intent_id!r}")
    if not isinstance(record["raw_response"], str):
        raise ValueError(f"intent {intent_id}: raw_response must be a string, not {record['raw_response']!r}")
    latency = record["latency"]
    if type(latency) not in (int, float) or not 0 <= latency < math.inf:  # no bool, no NaN
        raise ValueError(f"intent {intent_id}: latency must be a finite number ≥ 0, not {latency!r}")
    predicted = record["predicted"]
    if predicted != INVALID:
        predicted = DtmfPath(predicted)  # refused when it is no path
    return RoutingResult(intent_id, record["raw_response"], predicted, DtmfPath(record["ground_truth"]), latency)


def save_results(results: Iterable[RoutingResult], path: str | Path) -> str:
    """Write ``results`` as a results file; return the ``sha256`` of its bytes."""
    data = "".join(json.dumps(result._asdict(), ensure_ascii=False) + "\n" for result in results).encode("utf-8")
    Path(path).write_bytes(data)
    return sha256(data)


def load_results(path: str | Path) -> list[RoutingResult]:
    """The results of a results file; a line that is no valid results row
    raises ValueError naming its line."""
    return read_jsonl(path, result_from_record, "result")
