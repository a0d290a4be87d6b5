"""Routing: turn one query plus one rendered context into one predicted path.

``route`` is the routing itself and needs no label; ``route_one`` grades its
prediction against an intent's ground truth, and ``route_all`` does that for
a whole dataset: ``plan_run`` judges, selects and names its inputs, then
``route_plan`` makes the calls. Every model call of the package, routing
and synthesis alike, goes through ``run_calls``: its threads drive a
``Schedule``, which holds the scheduling rules.

Model output is held to a strict grammar: after a small, fixed normalization
pipeline the whole reply must be ``digit ("-" digit)*`` or it is scored as
INVALID. Content is never re-requested for being wrong; only transport
failures are retried, and the ``Schedule`` decides when.
"""

from __future__ import annotations

import hashlib
import heapq
import io
import json
import math
import random
import re
import threading
import time
from collections import deque
from decimal import Decimal
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

from . import __version__
from .datagen import Dataset, IntentRecord, dataset_to_jsonl, read_jsonl, validate_dataset, write_whole
from .menu import (
    PATH_PATTERN,
    DtmfPath,
    MenuTree,
    flatten,
    has_lone_surrogate,
    render_descriptive,
    render_flattened,
    tree_to_document,
    validate_menu,
)
from .prompts import CONDITIONS, RoutingCondition, build_prompt, template_bytes
from .provider import Provider, ProviderConfig, ProviderError, TransportError

INVALID = "INVALID"

# Jobs a Schedule keeps in progress per in-flight slot: enough to keep every
# worker fed, and few enough that a dead endpoint sees a bounded number.
WINDOW_PER_SLOT = 2

# The longest Retry-After, in seconds, that Pacing honours.
MAX_RETRY_AFTER_S = 60

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
) -> tuple[ParsedResponse, str]:
    """One prompt, one request, and the reply parsed and as it came, for a
    single query."""
    raw = provider.complete(build_prompt(condition, context, query))
    return parse_dtmf_response(raw, lenient=lenient), raw


def route_one(
    intent: IntentRecord,
    condition: RoutingCondition,
    context: str,
    provider: Provider,
    lenient: bool = False,
) -> RoutingResult:
    """Route one intent's text and grade the reply against its ground truth;
    the latency is this attempt's, from building the prompt to parsing.

    A ProviderError passes through unchanged, for ``run_calls`` to retry or
    to record against the intent.
    """
    start = time.perf_counter()
    parsed, raw = route(intent.text, condition, context, provider, lenient)
    return RoutingResult(
        intent_id=intent.id,
        raw_response=raw,
        predicted=INVALID if parsed.path is None else parsed.path,
        ground_truth=intent.ground_truth,
        latency=time.perf_counter() - start,
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
    """When a Schedule sends an attempt; ``now`` is a ``time.monotonic()``.
    Every attempt takes its own requests_per_second turn. A failed attempt
    goes again after the server's Retry-After when it is whole seconds within
    [0, MAX_RETRY_AFTER_S], exactly, and otherwise (none sent, an HTTP-date,
    text, or longer) after a draw from ``rng`` below a cap of 0.5 s doubling
    per attempt, to 8 s at max_retries' bound of 5 ("full jitter"), so calls
    that fail together come back apart. Runs given one Pacing keep one pace."""

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
        seconds = value.lstrip("0") or "0"  # so no int() is taken of more digits than the cap has
        if value.isascii() and value.isdigit() and len(seconds) <= 2 and int(seconds) <= MAX_RETRY_AFTER_S:
            return now + int(seconds)
        return now + self.rng.uniform(0.0, 0.5 * 2 ** (attempt - 1))


class Schedule:
    """The rules of ``run_calls`` as plain state at the times ``now`` given
    to its methods: it reads no clock, takes no lock, starts no thread.

    Jobs 0 .. count - 1 are submitted in order, at most WINDOW_PER_SLOT x
    max_in_flight at once, counting jobs waiting out a retry while the
    latest outcome brought no value. Every attempt takes its ``pacing``
    turn. A TransportError goes again when ``pacing`` says, ahead of jobs
    not yet submitted, or fails its job as "gave up after N attempt(s)",
    as another ProviderError does. A failure past ``error_budget`` x
    ``count`` (the decimal product, floored) aborts the run with
    RoutingAborted, any other exception as it is; nothing is sent after.
    Results: ``values`` (None where a job failed), ``failures`` as (job,
    message), and ``error``, set by whatever aborts the run.
    """

    def __init__(self, count: int, max_in_flight: int, error_budget: float, pacing: Pacing):
        self.count, self.pacing = count, pacing
        self.window = WINDOW_PER_SLOT * max_in_flight
        self.allowed_failures = math.floor(Decimal(repr(error_budget)) * count)  # 0.29 x 100 is 29, not 28
        self.values: list = [None] * count
        self.failures: list[tuple[int, str]] = []
        self.error: BaseException | None = None
        self.ready: deque[tuple[int, int]] = deque()  # submitted (job, attempt), not yet taken
        self.waiting: list[tuple[float, int, int]] = []  # heap of (due time, job, attempt)
        self.submitted = 0  # jobs ready or running
        self.next_job = 0
        self.failing = False  # the latest outcome recorded brought no value

    def next(self, now: float) -> tuple[int, int] | float | None:
        """The (job, attempt) to send now, taking its pacing turn; else the time to wait until
        (math.inf: until an outcome is recorded); None once every job has ended or the run aborted."""
        if self.error is not None:
            return None
        while self.waiting and self.waiting[0][0] <= now:
            self.ready.append(heapq.heappop(self.waiting)[1:])  # (job, attempt)
            self.submitted += 1
        while self.next_job < self.count and self.submitted + (len(self.waiting) if self.failing else 0) < self.window:
            self.ready.append((self.next_job, 1))
            self.next_job += 1
            self.submitted += 1
        if not self.ready:  # wait for the next retry, else for an outcome, else the run is over
            return self.waiting[0][0] if self.waiting else math.inf if self.submitted else None
        due = self.pacing.admit(now)
        return self.ready.popleft() if due <= now else due

    def record(self, now: float, job: int, attempt: int, outcome: object) -> float | None:
        """Take the outcome of ``job``'s attempt ``attempt``, its value or its step's exception;
        return when its retry is due, if one was scheduled."""
        if self.error is not None:
            return None
        self.submitted -= 1
        self.failing = isinstance(outcome, BaseException)
        due = self.pacing.retry_at(now, attempt, outcome.retry_after) if isinstance(outcome, TransportError) else None
        if not self.failing:
            self.values[job] = outcome
        elif due is not None:
            heapq.heappush(self.waiting, (due, job, attempt + 1))
        elif not isinstance(outcome, ProviderError):
            self.error = outcome
        else:
            if isinstance(outcome, TransportError):
                gave_up = TransportError(f"gave up after {attempt} attempt(s): {outcome}")
                gave_up.__cause__ = outcome
                outcome = gave_up
            self.failures.append((job, str(outcome)))
            if len(self.failures) > self.allowed_failures:
                self.error = RoutingAborted(f"{len(self.failures)} provider failure(s) exceeded the budget of "
                                            f"{self.allowed_failures}", failures=self.failures)
                self.error.__cause__ = outcome
        return due


def run_calls(provider: Provider, count: int, step: Callable[[int], object], error_budget: float,
              pacing: Pacing) -> tuple[list, list[tuple[int, str]]]:
    """Run jobs 0 .. count - 1 by the rules of a Schedule on up to
    max_in_flight worker threads, and no scheduling thread; return their
    values (None for a failed job) and the failures as (job, message).
    ``step(index)`` makes one provider call for job ``index`` and returns
    the job's value. ``pacing`` admits and times every attempt.
    What aborts the run, a step's exception or a worker's own, is raised
    once every worker has stopped, and queued jobs and waiting retries are
    dropped. The provider stays open for the caller's next run; the caller
    closes it.
    """
    schedule = Schedule(count, provider.config.max_in_flight, error_budget, pacing)
    lock = threading.Condition()  # guards ``schedule``
    def work() -> None:
        with lock:
            try:
                while (task := schedule.next(now := time.monotonic())) is not None:
                    if not isinstance(task, tuple):  # nothing to send until then
                        lock.wait(task - now if task < math.inf else None)
                        continue
                    lock.notify(len(schedule.ready))  # idle workers take the rest
                    lock.release()
                    try:
                        outcome = step(task[0])
                    except BaseException as exc:  # TransportError, ProviderError, or what aborts the run
                        outcome = exc
                    lock.acquire()
                    if schedule.record(time.monotonic(), task[0], task[1], outcome) is not None:
                        lock.notify()  # a worker waiting for a later retry times its wait again
            except BaseException as exc:  # the scheduling's own, as a wait too long or a Pacing that raises
                schedule.error = exc
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
            schedule.error = exc
            lock.notify_all()
        for thread in filter(threading.Thread.is_alive, threads):
            thread.join()
        raise
    if schedule.error is not None:
        raise schedule.error
    return schedule.values, schedule.failures


class RunPlan(NamedTuple):
    """All a run needs besides its provider; its ``run_identity`` holds its condition and parse mode."""

    identity: dict
    records: list[IntentRecord]
    context: str


def plan_run(ds: Dataset, tree: MenuTree, condition: RoutingCondition, config: ProviderConfig,
             record_filter: str = "all", lenient: bool = False) -> RunPlan:
    """Judge the menu and the dataset, select the records, render the
    context once, and name the run by its inputs and ``config``'s model and
    temperature; no call is made. A ValueError says what is not valid."""
    menu_problems = validate_menu(tree)
    if menu_problems:
        raise ValueError("menu is not valid: " + "; ".join(menu_problems))
    data_problems = validate_dataset(ds, flatten(tree))
    if data_problems:
        raise ValueError("dataset is not valid: " + "; ".join(data_problems))
    records = select_records(ds, record_filter)
    context = render_context(tree, condition)
    identity = run_identity(ds, tree, condition, record_filter, config.model_name, lenient, config.temperature)
    return RunPlan(identity, records, context)


def route_plan(plan: RunPlan, provider: Provider, error_budget: float = 0.01) -> RoutingRun:
    """Route every record of ``plan`` on ``run_calls`` and return results
    in dataset order. A RoutingAborted names its failures by intent id.
    The run id seeds the retry jitter, so a rerun of the same inputs
    retries on the same schedule."""
    condition = RoutingCondition(plan.identity["condition"])
    lenient = plan.identity["parse_mode"] == "lenient"

    def step(index: int) -> RoutingResult:
        return route_one(plan.records[index], condition, plan.context, provider, lenient)

    def by_id(failures: list[tuple[int, str]]) -> list[tuple[str, str]]:
        return [(plan.records[index].id, message) for index, message in failures]

    try:
        slots, failures = run_calls(provider, len(plan.records), step, error_budget,
                                    Pacing(provider.config, random.Random(plan.identity["run_id"])))
    except RoutingAborted as exc:
        exc.failures = by_id(exc.failures)
        raise
    finally:
        # The running attempts are done: no idle connection outlives the run.
        provider.close()
    return RoutingRun([r for r in slots if r is not None], build_manifest(plan.identity, by_id(failures)))


def route_all(ds: Dataset, condition: RoutingCondition, tree: MenuTree, provider: Provider,
              record_filter: str = "all", lenient: bool = False, error_budget: float = 0.01) -> RoutingRun:
    """``route_plan`` of the ``plan_run`` of these inputs under the provider's config."""
    plan = plan_run(ds, tree, condition, provider.config, record_filter, lenient)
    return route_plan(plan, provider, error_budget)


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
    """A run's ``run_identity``, failures and time, and, outside the run id, its template file's
    sha256 and the ivroute version; ``save_run`` adds ``results_sha256`` once it saves the rows."""
    return {
        **identity,
        "failures": [{"intent_id": i, "error": e} for i, e in failures],
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "template_sha256": sha256(template_bytes(RoutingCondition(identity["condition"]))),
        "ivroute_version": __version__,
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


def results_bytes(results: Iterable[RoutingResult]) -> bytes:
    """The bytes of a results file of ``results``, one JSON row each."""
    return "".join(json.dumps(result._asdict(), ensure_ascii=False) + "\n" for result in results).encode("utf-8")


def save_results(results: Iterable[RoutingResult], path: str | Path) -> str:
    """Write ``results`` as a results file; return the ``sha256`` of its bytes."""
    data = results_bytes(results)
    Path(path).write_bytes(data)
    return sha256(data)


def save_run(run: RoutingRun, run_dir: Path) -> None:
    """Write ``run`` as the directory ``run_dir``, replacing it whole with all
    it held, an old report too (``write_whole``): its rows as results.jsonl,
    and manifest.json, whose ``results_sha256`` vouches for their bytes."""
    results = results_bytes(run.results)
    manifest = json.dumps({**run.manifest, "results_sha256": sha256(results)}, indent=2, ensure_ascii=False)
    write_whole(run_dir, {"results.jsonl": results, "manifest.json": (manifest + "\n").encode("utf-8")})


def read_results(path: str | Path) -> tuple[list[RoutingResult], str]:
    """The results of a results file and the ``sha256`` of the bytes they
    were parsed from, read once; a line that is no valid results row raises
    ValueError naming its line."""
    data = Path(path).read_bytes()
    lines = io.StringIO(data.decode("utf-8"), newline=None)  # split as a text-mode file is
    return read_jsonl(lines, path, result_from_record, "result"), sha256(data)


def load_results(path: str | Path) -> list[RoutingResult]:
    """The results of a results file, as ``read_results`` reads them."""
    return read_results(path)[0]


def read_manifest(path: str | Path) -> dict:
    """A route run's manifest.json; ValueError naming each field that is missing or wrong, or a false run_id."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    data = data if isinstance(data, dict) else {}
    digest = data.get("results_sha256")
    fields = {"condition": data.get("condition") in list(CONDITIONS),
              "model_name": isinstance(data.get("model_name"), str) and not has_lone_surrogate(data["model_name"]),
              "dataset_filter": data.get("dataset_filter") in list(DATASET_FILTERS),
              "parse_mode": data.get("parse_mode") in ("strict", "lenient"),
              "results_sha256": isinstance(digest, str) and re.fullmatch("[0-9a-f]{64}", digest) is not None}
    if not all(fields.values()):
        raise ValueError(f"not a route run's manifest (bad {', '.join(k for k, ok in fields.items() if not ok)})")
    if run_id(data) != data.get("run_id"):  # so it is 12 hex digits, fit to name a directory
        raise ValueError(f"run_id {data.get('run_id')!r} is not the hash of the fields that name its run")
    return data


def check_vouched(path: str | Path, results: Sequence[RoutingResult], digest: str, manifest: dict) -> None:
    """ValueError unless ``manifest`` vouches for ``results``, read from
    ``path`` as bytes of sha256 ``digest``, and each row's reply parses to
    its prediction under the run's parse mode."""
    # The rows must be the bytes route wrote: no row added, dropped, moved or edited.
    if digest != manifest["results_sha256"]:
        raise ValueError(f"{path} has sha256 {digest}, but the run's results_sha256 is {manifest['results_sha256']}")
    # A prediction is graded from the reply its row stores, parsed again.
    lenient = manifest["parse_mode"] == "lenient"
    for r in results:
        if (parse_dtmf_response(r.raw_response, lenient).path or INVALID) != r.predicted:
            raise ValueError(f"{path}: intent {r.intent_id}'s reply does not parse to its prediction "
                             f"{r.predicted} under {manifest['parse_mode']} parsing")
