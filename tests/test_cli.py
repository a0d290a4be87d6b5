"""Command-line behavior: exit codes, file outputs, the demo loop, and
configuration layering.

Each command's outcomes are rows of its table, run by ``check_cli``: the
exit code, the whole stderr and stdout, each entry the call wrote and the
requests it sent, a refusal writing nothing and sending nothing. The
fixture's four oracle runs and its keyword run are routed once a session,
and rows edit copies of them. The bespoke tests count calls made inside
the CLI, run ``hypothesis`` properties and drive child processes."""

import argparse
import contextlib
import errno
import hashlib
import io
import json
import math
import os
import select
import shutil
import signal
import stat
import subprocess
import sys
import threading
import time
import unicodedata
from collections import Counter
from pathlib import Path
from typing import Callable, NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ivroute
from ivroute.cli import _load_config_file, _make_provider, build_parser, main
from ivroute.datagen import load_dataset, validate_dataset
from ivroute.menu import flatten, load_menu
from ivroute.prompts import RoutingCondition
from ivroute.provider import DEFAULT_API_KEY_ENV
from ivroute import cli, router

from conftest import (AnsweringProvider, chat_replies, chat_response, child_env, data_text, fail_at_step, golden_text,
                      make_record, numbered, prompt_of, subject_of, table_tests)


@pytest.fixture(autouse=True)
def no_api_key(monkeypatch):
    """No request carries a bearer token from the environment."""
    monkeypatch.delenv(DEFAULT_API_KEY_ENV, raising=False)


def route_args(menu, dataset, out, **extra):
    argv = [
        "route", "--menu", str(menu), "--dataset", str(dataset),
        "--provider", "oracle", "--out", str(out),
    ]
    for key, value in extra.items():
        argv += [f"--{key.replace('_', '-')}", str(value)]
    return argv


def sha256_of(file: Path) -> str:
    return hashlib.sha256(file.read_bytes()).hexdigest()


def contents(directory: Path) -> dict:
    """The bytes of each file under ``directory``, and None for each directory, by path relative to it."""
    return {str(entry.relative_to(directory)): entry.read_bytes() if entry.is_file() else None
            for entry in directory.rglob("*")}


def results_rows(run_dir: Path) -> list:
    return [json.loads(line) for line in (run_dir / "results.jsonl").read_text(encoding="utf-8").splitlines()]


# The fixture's runs that a session routes once, by run id: the provider,
# condition and slice of each, and the line that route prints for it.
ORACLE_RUN, KEYWORD_RUN = "c3ca07a72a4f", "b9b785510a80"
FIXTURE_RUNS = {
    ORACLE_RUN: ("oracle", "flattened", "base_only", "routed 230 intents, accuracy 100.00%"),
    "dfc44e400268": ("oracle", "flattened", "all", "routed 920 intents, accuracy 100.00%"),
    "8a900ae47168": ("oracle", "descriptive", "base_only", "routed 230 intents, accuracy 100.00%"),
    "f01ca3e681f7": ("oracle", "descriptive", "all", "routed 920 intents, accuracy 100.00%"),
    KEYWORD_RUN: ("keyword", "flattened", "base_only", "routed 230 intents, accuracy 30.87%"),
}


@pytest.fixture(scope="session")
def fixture_runs(tmp_path_factory, fixture_menu_path, fixture_dataset_path) -> dict:
    """The directory of each of FIXTURE_RUNS, routed once and its output
    checked, by run id; tests edit copies of them."""
    out = tmp_path_factory.mktemp("runs")
    for run_id, (provider, condition, record_filter, routed) in FIXTURE_RUNS.items():
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = main(route_args(fixture_menu_path, fixture_dataset_path, out, condition=condition,
                                   filter=record_filter) + ["--provider", provider])
        assert (code, printed.getvalue()) == (0, f"{routed}\nrun directory: {out}/run-{run_id}\n")
    return {run_id: out / f"run-{run_id}" for run_id in FIXTURE_RUNS}


@pytest.fixture
def oracle_run(fixture_runs) -> Path:
    return fixture_runs[ORACLE_RUN]


# --- the outcome runner ----------------------------------------------------------------

class Row(NamedTuple):
    """A command line, and all the CLI makes of it: the exit code, the
    whole stderr and stdout, each entry under the row's directory that the
    call added, changed or removed (``wrote``), and the number of requests
    that reached {url}, a loopback chat endpoint answering as chat_server's
    options in ``server`` say (None: not counted). The defaults are a
    refusal's: nothing written, nothing sent.

    ``argv``, ``err``, ``out`` and the values of ``env`` hold placeholders:
    {tmp}, the row's directory; {menu} and {dataset}, the fixture's files
    unless ``prepare`` wrote others; {out}, {tmp}/out; {run}, {tmp}/run, a
    copy of the oracle run, or of the fixture run that ``use_run`` names,
    and {vouched}, its results_sha256; {digest}, the sha256 of
    {run}/results.jsonl once ``prepare`` has run; {url} and {port}, the
    endpoint's; {usage} and "{usage <command>}", argparse's usage lines.
    ``prepare(inputs)`` writes or edits the row's inputs, and may set
    placeholders, before the one call of ``main``, which reads ``stdin``;
    ``then(inputs)`` checks what the call left. ``inputs`` also holds the
    endpoint (``server``), the fixture runs by id (``runs``) and the test's
    ``monkeypatch``."""

    argv: tuple[str, ...]
    code: int
    err: str
    out: str = ""
    prepare: Callable[[dict], object] | None = None
    env: tuple[tuple[str, str], ...] = ()
    wrote: tuple[str, ...] = ()
    server: dict = {}
    requests: int | None = 0
    stdin: str = "i want to check my balance\n"
    then: Callable[[dict], object] | None = None


def fill(text: str, inputs: dict) -> str:
    for key, value in inputs.items():
        if "{" + key + "}" in text:
            text = text.replace("{" + key + "}", str(value))
    return text


def commands(parser) -> dict:
    """The parser of each command of the CLI's ``parser``, by name."""
    (subparsers,) = (action for action in parser._actions if isinstance(action, argparse._SubParsersAction))
    return subparsers.choices


def usages() -> dict:
    parser = build_parser()
    return {"usage": parser.format_usage(),
            **{f"usage {name}": command.format_usage() for name, command in commands(parser).items()}}


def choice_refused(command, option, value) -> str:
    """What ``command`` prints refusing ``value`` for ``option``, a choice it
    does not offer; argparse words the list of choices its own way in each
    Python release, so its words are taken from argparse itself."""
    (action,) = (action for action in commands(build_parser())[command]._actions if option in action.option_strings)
    probe = argparse.ArgumentParser(exit_on_error=False)
    probe.add_argument(option, choices=action.choices)
    with pytest.raises(argparse.ArgumentError) as refusal:
        probe.parse_args([option, value])
    return f"{{usage {command}}}ivroute {command}: error: {refusal.value}\n"


def vouched_by(run_dir: Path) -> str:
    return json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))["results_sha256"]


def check_cli(rows, tmp_path, fixture_menu_path, fixture_dataset_path, fixture_runs, chat_server, monkeypatch,
              capsys):
    """Run a Row, or each Row of a tuple in turn, each in a directory of its
    own, and check all that it says it makes."""
    for index, row in enumerate((rows,) if isinstance(rows, Row) else rows):
        tmp, server = tmp_path / str(index), chat_server(**row.server)
        inputs = {"tmp": tmp, "menu": fixture_menu_path, "dataset": fixture_dataset_path, "out": tmp / "out",
                  "run": shutil.copytree(fixture_runs[ORACLE_RUN], tmp / "run"), "url": server.url,
                  "port": server.port, "vouched": vouched_by(fixture_runs[ORACLE_RUN]), "runs": fixture_runs,
                  "server": server, "monkeypatch": monkeypatch, **usages()}
        if row.prepare:
            row.prepare(inputs)
        inputs["digest"] = sha256_of(tmp / "run" / "results.jsonl")
        for name, value in row.env:
            monkeypatch.setenv(name, fill(value, inputs))
        monkeypatch.setattr("sys.stdin", io.StringIO(row.stdin))
        before = contents(tmp)
        capsys.readouterr()  # what a prepare printed
        try:
            code = main([fill(arg, inputs) for arg in row.argv])  # returned: an exception would leave main
        except SystemExit as exc:  # argparse's refusal
            code = exc.code
        captured = capsys.readouterr()
        assert (code, captured.err, captured.out) == (row.code, fill(row.err, inputs), fill(row.out, inputs))
        after = contents(tmp)
        assert sorted(path for path in before.keys() | after.keys()
                      if before.get(path, ...) != after.get(path, ...)) == sorted(row.wrote)
        if row.requests is not None:  # where no request is sent, no connection is opened either
            assert (len(server.requests), bool(server.accepted)) == (row.requests, bool(row.requests))
        assert server.wait(open=0)  # the command closed every connection it opened
        if row.then:
            row.then(inputs)


def test_a_table_may_not_take_the_name_of_a_test():
    namespace = {"__name__": "test_example", "test_taken": print}
    table_tests(namespace, lambda row: None, {"test_free": 1})
    for name in ("test_taken", "test_free"):  # a test's name, and a row's of an earlier table
        with pytest.raises(ValueError) as refusal:
            table_tests(namespace, lambda row: None, {name: 2})
        assert str(refusal.value) == f"test_example already binds {name!r}: a table may not replace it"
    assert namespace["test_taken"] is print and namespace["test_free"].__defaults__ == (1,)


# What a route or eval writes, under the row's directory, and what it prints.
REPORT_FILES = ("report.json", "matrix.csv", "matrix_long.csv", "summary.md")


def run_entries(run_id=ORACLE_RUN, under="out"):
    """The --out directory, the run directory and the run's two files."""
    return under, f"{under}/run-{run_id}", f"{under}/run-{run_id}/manifest.json", f"{under}/run-{run_id}/results.jsonl"


def report_entries(run_id=ORACLE_RUN, under="run"):
    """The report directory and its four files."""
    return f"{under}/eval-{run_id}", *(f"{under}/eval-{run_id}/{name}" for name in REPORT_FILES)


def routed(count=230, accuracy="100.00", run_id=ORACLE_RUN, under="{out}"):
    return f"routed {count} intents, accuracy {accuracy}%\nrun directory: {under}/run-{run_id}\n"


def evaluated(accuracy="100.00", count=230, run_id=ORACLE_RUN, under="{run}"):
    return f"accuracy {accuracy}% over {count} results\n" + "".join(
        f"wrote {under}/eval-{run_id}/{name}\n" for name in REPORT_FILES)


def with_menu(doc):
    """A ``prepare``: {menu} becomes {tmp}/menu.json, holding ``doc``: its
    text, a document, or an edit, in place, of the fixture menu's document."""
    def prepare(inputs):
        if callable(doc):
            document = json.loads(data_text("agentnet.menu.json"))
            doc(document)
        else:
            document = doc
        inputs["menu"] = inputs["tmp"] / "menu.json"
        inputs["menu"].write_text(document if isinstance(document, str) else json.dumps(document), encoding="utf-8")
    return prepare


def with_dataset(edit):
    """A ``prepare``: {dataset} becomes {tmp}/intents.jsonl, holding ``edit``,
    its text, or the fixture dataset with ``edit`` applied to each row."""
    def prepare(inputs):
        text = edit if isinstance(edit, str) else "".join(
            json.dumps(edit(json.loads(line))) + "\n" for line in data_text("agentnet.intents.jsonl").splitlines())
        inputs["dataset"] = inputs["tmp"] / "intents.jsonl"
        inputs["dataset"].write_text(text, encoding="utf-8")
    return prepare


def edit_rows(results_file: Path, edit) -> None:
    rows = [json.loads(line) for line in results_file.read_text(encoding="utf-8").splitlines()]
    results_file.write_text("".join(json.dumps(row) + "\n" for row in edit(rows)), encoding="utf-8")


def edit_manifest(run_dir, forged=False, **fields):
    manifest = {**json.loads((run_dir / "manifest.json").read_text(encoding="utf-8")), **fields}
    if forged:
        manifest["run_id"] = router.run_id(manifest)
    (run_dir / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")


def vouch(run_dir):
    """Vouch for the run's results file as it now is, as README's migration of an earlier run does."""
    edit_manifest(run_dir, results_sha256=sha256_of(run_dir / "results.jsonl"))


def with_rows(edit, vouched=False):
    """A ``prepare``: {run}'s rows become ``edit(rows)``, which the manifest vouches for when ``vouched``."""
    def prepare(inputs):
        edit_rows(inputs["run"] / "results.jsonl", edit)
        if vouched:
            vouch(inputs["run"])
    return prepare


def with_row(index, vouched=False, **fields):
    """A ``prepare``: {run}'s row ``index`` gets ``fields``."""
    return with_rows(lambda rows: [{**row, **fields} if i == index else row for i, row in enumerate(rows)], vouched)


def write(path, content):
    """A ``prepare``: the file at ``path``, which holds placeholders, holds ``content``, text or bytes."""
    def prepare(inputs):
        Path(fill(path, inputs)).write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
    return prepare


def with_config(config):
    return write("{tmp}/config.json", json.dumps(config))


def use_run(run_id):
    """A ``prepare``: {run} becomes a copy of the fixture run ``run_id``, and {vouched} its results_sha256."""
    def prepare(inputs):
        shutil.rmtree(inputs["run"])
        shutil.copytree(inputs["runs"][run_id], inputs["run"])
        inputs["vouched"] = vouched_by(inputs["run"])
    return prepare


def steps(*prepares):
    """A ``prepare`` of each of ``prepares`` in turn."""
    def prepare(inputs):
        for step in prepares:
            step(inputs)
    return prepare


def succeeds(argv):
    """A ``prepare``: ``main`` of ``argv``, its placeholders filled, exits 0."""
    def prepare(inputs):
        assert main([fill(arg, inputs) for arg in argv]) == 0
    return prepare


def patched(target, value):
    """A ``prepare`` that sets ``target``, as monkeypatch.setattr takes it, to ``value``."""
    return lambda inputs: inputs["monkeypatch"].setattr(target, value)


# --- validate-menu -------------------------------------------------------------------

def first_child(doc):
    return doc["root"]["children"][0]["children"][0]


VALIDATE = ("validate-menu", "{menu}")


def invalid_menu(doc, error, argv=VALIDATE):
    return Row(argv, 1, f"error: invalid menu: {error}\n", prepare=with_menu(doc))


def three_faults(doc):
    first_child(doc)["digit"] = "\uff11"
    doc["root"]["children"][1]["children"][0]["children"] = []
    doc["root"]["children"][2]["children"][0]["action_type"] = "robot"


def one_menu(*children):
    return {"name": "Menu", "root": {"label": "Root", "kind": "menu", "prompt_text": "", "children": list(children)}}


def action(label, digit, action_type="self_service"):
    return {"label": label, "digit": digit, "kind": "action", "action_type": action_type}


# Let through, the line break would put a "2-9: Fake Agent" line, a path the
# menu does not have, in the flattened context, and the tab would split a TSV row.
FORGED = one_menu(action("Pay\tBill", "1"), action("Support\n2-9: Fake Agent", "2", "agent_handoff"))
FORGED_ERROR = ("1: label holds a control character or line separator: 'Pay\\tBill'; "
                "2: label holds a control character or line separator: 'Support\\n2-9: Fake Agent'")

VALIDATE_MENU = {
    "test_validate_menu_ok": Row(VALIDATE, 0, "", out="OK: AgentNet IVR: 23 terminal paths\n"),
    "test_validate_menu_violations_exit_1": invalid_menu(one_menu(action("A", "1"), action("B", "1")),
                                                         "root: duplicate digit 1 among children"),
    "test_validate_menu_missing_file_exit_2": Row(
        ("validate-menu", "{tmp}/nope.json"), 2, "error: no such menu file: {tmp}/nope.json\n"),
    "test_validate_menu_unparseable_json_exit_1": invalid_menu(
        "{nope", "menu document is not valid JSON: Expecting property name enclosed in double quotes: "
                 "line 1 column 2 (char 1)"),
    "test_validate_menu_unicode_digit_exit_1": {
        name: invalid_menu(lambda doc, digit=digit: first_child(doc).update(digit=digit),
                           f"1: child 'Check Balance' has digit {digit!r}, not a one-character string '0'-'9'")
        for name, digit in [("superscript-two", "\u00b2"), ("fullwidth-one", "\uff11")]},
    "test_validate_menu_reports_every_tree_violation_together": invalid_menu(
        one_menu({"label": "Pay", "digit": "1", "kind": "action"},
                 {"label": "Empty", "digit": "2", "kind": "menu", "children": []}),
        "1: action node without an action_type; 2: menu node has no children"),
    "test_validate_menu_reports_bad_digits_and_action_types_with_the_other_violations": invalid_menu(
        three_faults, "1: child 'Check Balance' has digit '\uff11', not a one-character string '0'-'9'; "
                      "2-1: menu node has no children; 3-1: action_type must be 'self_service' or 'agent_handoff'"),
    "test_validate_menu_refuses_a_label_that_would_forge_a_path_line": (
        invalid_menu(FORGED, FORGED_ERROR), invalid_menu(FORGED, FORGED_ERROR, ("flatten", "{menu}", "--format",
                                                                                "prompt-lines"))),
    # Edits, in place, of the bundled menu document, refused with an error that names the node where there is one.
    "test_validate_menu_refusal_names_the_node_exit_1": {
        "empty-name": invalid_menu(lambda doc: doc.update(name=""), "menu name must be a non-empty string"),
        "missing-label": invalid_menu(lambda doc: first_child(doc).pop("label"), "1-1: missing label"),
        "unknown-kind": invalid_menu(lambda doc: first_child(doc).update(kind="submenu"),
                                     "1-1: unknown kind 'submenu'"),
        "misplaced-field": invalid_menu(lambda doc: first_child(doc).update(children=[]),
                                        "1-1: field(s) ['children'] not allowed on action nodes"),
        "bad-action-type": invalid_menu(lambda doc: first_child(doc).update(action_type="robot"),
                                        "1-1: action_type must be 'self_service' or 'agent_handoff'"),
        "prompt-not-text": invalid_menu(lambda doc: doc["root"]["children"][0].update(prompt_text=5),
                                        "1: prompt_text must be a string"),
        "children-not-a-list": invalid_menu(lambda doc: doc["root"]["children"][0].update(children={}),
                                            "1: children must be a list"),
        "action-root": invalid_menu(lambda doc: doc.update(root={"label": "Root", "kind": "action",
                                                                 "action_type": "self_service"}),
                                    "root: must have kind 'menu'"),
        "root-with-a-digit": invalid_menu(lambda doc: doc["root"].update(digit="1"),
                                          "root: carries a digit but is not selected by a keypress"),
        "child-without-a-digit": invalid_menu(lambda doc: first_child(doc).pop("digit"),
                                              "1: child 'Check Balance' has no digit"),
        # json.dumps writes each lone surrogate as a JSON escape, such as \ud83d
        "surrogate-in-name": invalid_menu(lambda doc: doc.update(name="AgentNet \ud83d"),
                                          "menu name holds a lone surrogate"),
        "surrogate-in-label": invalid_menu(lambda doc: first_child(doc).update(label="Balance \udcff"),
                                           "1-1: label holds a lone surrogate"),
        "separator-in-name": invalid_menu(lambda doc: doc.update(name="AgentNet\u2028Support"), "menu name holds a "
                                          "control character or line separator: 'AgentNet\\u2028Support'"),
        "c1-control-in-label": invalid_menu(lambda doc: first_child(doc).update(label="Balance\x85"),
                                            "1-1: label holds a control character or line separator: 'Balance\\x85'"),
        "surrogate-in-prompt-text": invalid_menu(lambda doc: doc["root"]["children"][1].update(
            prompt_text="\ude00 press 1"), "2: prompt_text holds a lone surrogate"),
        # Menu text that would make the outline offer a path the menu does not have: a message line that reads
        # as a section header re-prefixes the "press" lines after it, and the fallback line of a menu that speaks
        # no message, "For <label>, press <d>.", offers the digit its label names too.
        "header-in-prompt-text": invalid_menu(lambda doc: doc["root"].update(
            prompt_text="For balance, press 1.\n--- Fake (DTMF: 9) ---\nFor bill, press 2."),
            "root: prompt_text line '--- Fake (DTMF: 9) ---' reads as an outline's section header"),
        "press-in-label": invalid_menu(
            lambda doc: doc["root"].update(prompt_text="", children=[action("to cancel press 9", "1"),
                                                                     *doc["root"]["children"][1:]]),
            "1: label says 'press 9', which an outline offers as a choice: 'to cancel press 9'")},
}
table_tests(globals(), check_cli, VALIDATE_MENU)


# --- flatten ---------------------------------------------------------------------------

GOLDEN_TSV = golden_text("agentnet.paths.tsv")
FIXTURE_PATHS, CRUMBS = ([line.split("\t")[column] for line in GOLDEN_TSV.splitlines()] for column in (0, 1))
table_tests(globals(), check_cli, {
    "test_flatten_tsv_matches_golden": Row(("flatten", "{menu}", "--format", "tsv"), 0, "", out=GOLDEN_TSV),
    "test_flatten_prompt_lines": Row(("flatten", "{menu}", "--format", "prompt-lines"), 0, "", out="".join(
        f"{path}: {breadcrumb}\n" for path, breadcrumb, _ in (line.split("\t") for line in GOLDEN_TSV.splitlines()))),
    "test_flatten_single_action_menu": Row(("flatten", "{menu}"), 0, "", out="1\tOnly\tself_service\n",
                                           prepare=with_menu(one_menu(action("Only", "1")))),
})


# --- gen-intents -----------------------------------------------------------------------

# The error of a call that chat_server answers with a 400, a final status.
REFUSED = 'HTTP 400: {"error": "unavailable"}'


def about_subject(prompt):
    """One complaint about what a generation prompt names: a path's
    breadcrumb, or the text to paraphrase."""
    return numbered([f"about {subject_of(prompt)}"])


def next_round(inputs):
    """A ``prepare``: the first path's first answer holds one of the two
    complaints asked for, so it needs a second call: that goes out once every
    path's first call has been answered. Each of its two calls gets a 503
    first, and with --max-retries 1 each call still gets its answer: the
    retry budget is per call, not per path."""
    answered = Counter()

    def reply(prompt):
        subject = subject_of(prompt)
        answered[subject] += 1
        if subject == CRUMBS[0]:
            return numbered([f"complaint {answered[subject]} about {subject}"])
        return numbered([f"about {subject}", f"more about {subject}"])

    inputs["server"].answer = chat_replies(reply=reply, statuses=[503] + [200] * 23 + [503], retry_after="0")


def sent_in_rounds(inputs):
    first, *others = CRUMBS
    sent = [subject_of(prompt_of(request)) for request in inputs["server"].requests]
    assert sent == [first, others[0], first, *others[1:], first, first]  # each 503 retried after the next call
    records = load_dataset(inputs["tmp"] / "intents.jsonl").records
    assert [r.text for r in records[:2]] == [f"complaint 1 about {first}", f"complaint 2 about {first}"]


def generated_dataset_is_valid(inputs):
    ds = load_dataset(inputs["tmp"] / "intents.jsonl")
    assert validate_dataset(ds, flatten(load_menu(inputs["menu"]))) == [] and len(ds.records) == 46


def no_space(*args):
    raise OSError(errno.ENOSPC, "No space left on device")


def needs_dev_full(inputs):
    if not (os.path.exists("/dev/full") and stat.S_ISCHR(os.stat("/dev/full").st_mode)):
        pytest.skip("needs /dev/full, a device every write to fails")


def one_connection(inputs):
    assert inputs["server"].accepted == 1  # the paraphrase stage reused the base stage's connection


GEN_INTENTS = ("gen-intents", "{menu}", "--provider", "http", "--endpoint", "{url}")
GENERATE = (*GEN_INTENTS, "--per-node", "1", "--variants", "1", "--dataset-out", "{tmp}/intents.jsonl")

GEN_INTENTS_ROWS = {
    # 23 base prompts, then 23 paraphrase prompts
    "test_gen_intents_writes_a_valid_dataset": Row(
        GENERATE, 0, "", "wrote 46 records to {tmp}/intents.jsonl\n", wrote=("intents.jsonl",),
        server={"reply": about_subject}, requests=46, then=generated_dataset_is_valid),
    "test_gen_intents_failed_call_exit_1": Row(
        GENERATE, 1, f"error: {REFUSED}\n", server={"reply": about_subject, "statuses": [200], "status": 400},
        requests=None),  # one answer for 23 paths; the calls in flight when the first refusal comes
    # Every call was made, then the write failed.
    "test_gen_intents_dataset_that_cannot_be_written_exit_1": Row(
        (*GEN_INTENTS, "--per-node", "1", "--variants", "0", "--dataset-out", "/dev/full"), 1,
        "error: cannot write /dev/full: [Errno 28] No space left on device\n", prepare=needs_dev_full,
        server={"reply": about_subject}, requests=23),
    "test_gen_intents_dataset_that_cannot_be_renamed_into_place_exit_1_and_keeps_the_old_one": Row(
        (*GEN_INTENTS, "--per-node", "1", "--variants", "0", "--dataset-out", "{tmp}/intents.jsonl"), 1,
        "error: cannot write {tmp}/intents.jsonl: [Errno 28] No space left on device\n",
        prepare=steps(write("{tmp}/intents.jsonl", "old dataset\n"), patched("os.replace", no_space)),
        server={"reply": about_subject}, requests=23),
    # Every reply is "1-1", whichever path it is for; each paraphrase is asked again once.
    "test_gen_intents_one_text_for_every_path_exit_1": Row(
        (*GENERATE, "--max-in-flight", "1"), 1, "".join(
            f"violation: record {path}:b00{variant}: same text as record 1-1:b00, which is labelled 1-1\n"
            for variant in ("", ":v1") for path in FIXTURE_PATHS[1:])
        + "error: generated dataset failed validation\n", requests=3 * 23),
    # One complaint per path, its breadcrumb; a paraphrase repeats its
    # original, which is asked again once and then kept.
    "test_gen_intents_stages_share_one_connection": Row(
        (*GENERATE, "--max-in-flight", "1"), 0, "", "wrote 46 records to {tmp}/intents.jsonl\n",
        wrote=("intents.jsonl",), server={"reply": subject_of}, requests=3 * 23, then=one_connection),
    "test_gen_intents_sends_a_jobs_next_call_in_the_next_round": Row(
        (*GEN_INTENTS, "--per-node", "2", "--variants", "0", "--max-in-flight", "1", "--max-retries", "1",
         "--dataset-out", "{tmp}/intents.jsonl"), 0, "", "wrote 46 records to {tmp}/intents.jsonl\n",
        wrote=("intents.jsonl",), prepare=next_round, requests=26, then=sent_in_rounds),
    "test_gen_intents_rejects_oracle": Row(
        ("gen-intents", "{menu}", "--provider", "oracle", "--dataset-out", "{out}/intents.jsonl"), 2,
        "error: oracle provider cannot synthesize intents; use http\n"),
    "test_gen_intents_counts_checked_before_any_call": {
        "per-node-0": Row((*GEN_INTENTS, "--per-node", "0", "--dataset-out", "{out}/intents.jsonl"), 2,
                          "error: --per-node must be at least 1, not 0\n"),
        "variants-minus-1": Row((*GEN_INTENTS, "--per-node", "1", "--variants", "-1",
                                 "--dataset-out", "{out}/intents.jsonl"), 2,
                                "error: --variants must be at least 0, not -1\n")},
    # Each command's output location that cannot be written, under a file or
    # a directory where a file goes, refused before any call.
    "test_output_that_cannot_be_written_exit_2_before_any_call": {
        "route --out a file": Row(
            ("route", "--menu", "{menu}", "--dataset", "{dataset}", "--provider", "http", "--endpoint", "{url}",
             "--out", "{tmp}/taken"), 2, "error: cannot write {tmp}/taken: [Errno 17] File exists: '{tmp}/taken'\n",
            prepare=write("{tmp}/taken", "")),
        "gen-intents --dataset-out under a file": Row(
            (*GEN_INTENTS, "--dataset-out", "{tmp}/taken/intents.jsonl"), 2,
            "error: cannot write {tmp}/taken: [Errno 17] File exists: '{tmp}/taken'\n",
            prepare=write("{tmp}/taken", "")),
        "gen-intents --dataset-out a directory": Row(
            (*GEN_INTENTS, "--dataset-out", "{tmp}"), 2, "error: cannot write {tmp}: it is a directory\n")},
}
table_tests(globals(), check_cli, GEN_INTENTS_ROWS)


# --- route -----------------------------------------------------------------------------

def test_route_oracle_base_only(oracle_run):
    # The session routed this run, and checked what route printed; here is what it wrote.
    manifest = json.loads((oracle_run / "manifest.json").read_text(encoding="utf-8"))
    assert list(manifest) == ["menu_name", "menu_hash", "dataset_hash", "condition", "dataset_filter",
                              "model_name", "parse_mode", "run_id", "failures", "timestamp", "template_sha256",
                              "ivroute_version", "results_sha256"]
    assert (manifest["dataset_filter"], manifest["run_id"], len(results_rows(oracle_run))) == ("base_only",
                                                                                                ORACLE_RUN, 230)
    assert manifest["results_sha256"] == sha256_of(oracle_run / "results.jsonl")
    # What made the run, outside its run id: the bytes of the template it filled, and the version.
    template = Path(ivroute.__file__).parent / "data" / "template_flattened.txt"
    assert manifest["template_sha256"] == sha256_of(template)
    assert manifest["ivroute_version"] == ivroute.__version__


def test_route_rows_hold_the_answer_alone(oracle_run):
    rows = results_rows(oracle_run)
    assert len(rows) == 230
    assert {tuple(row) for row in rows} == {("intent_id", "raw_response", "predicted", "ground_truth", "latency")}


def message_of(expression) -> str:
    """The message of the exception that ``expression()`` raises: Python words some differently by release."""
    try:
        expression()
    except Exception as exc:
        return str(exc)


STRING_INDEX = message_of(lambda: json.loads('"x"')["id"])
ROUTE = ("route", "--menu", "{menu}", "--dataset", "{dataset}", "--provider", "oracle", "--out", "{out}")
HTTP = ("--provider", "http", "--endpoint", "{url}")
RATE = f"requests_per_second must be a number in [{1 / threading.TIMEOUT_MAX}, inf), not "
TIMEOUT = f"request_timeout must be a number in (0, {threading.TIMEOUT_MAX}], not "
NEEDS_ENDPOINT = "error: http provider needs --endpoint (or an endpoint_url in the config file)\n"
FIRST_LINE, SECOND_LINE = data_text("agentnet.intents.jsonl").splitlines()[:2]
SHORT_BASE = "base record count per terminal path must be one number, but 3-9 has 9 and 1-1 has 10"


def bad_settings(argv, problem, **row):
    return Row(argv, 2, f"error: bad provider settings: {problem}\n", **row)


def invalid_dataset(edit, problem, argv=ROUTE):
    return Row(argv, 1, f"error: dataset is not valid: {problem}\n", prepare=with_dataset(edit))


def malformed_dataset_rows(argv):
    """The dataset with its second line cut short, or JSON that is no object, and the reason that line is refused."""
    return tuple(Row(argv, 1, f"error: cannot load dataset {{dataset}}: {{dataset}}:2: bad record: {reason}\n",
                     prepare=with_dataset(f"{FIRST_LINE}\n{line}\n")) for line, reason in [
        (SECOND_LINE[: len(SECOND_LINE) // 2], "Expecting property name enclosed in double quotes: line 1 column 83 "
                                                "(char 82)"),
        ("3", "'int' object is not subscriptable"), ('"x"', STRING_INDEX),
        ("null", "'NoneType' object is not subscriptable"),
        (f"[{SECOND_LINE}]", "list indices must be integers or slices, not str")])


def at(record_id, **fields):
    """An edit of the fixture dataset's rows: record ``record_id`` gets ``fields``."""
    return lambda row: {**row, **fields} if row["id"] == record_id else row


def wrong_type(field, value):
    # line 233, a paraphrase whose variant_index is 3: int() would read 3.7 as 3 and true as 1
    error = (f"error: cannot load dataset {{dataset}}: {{dataset}}:233: bad record: "
             f"{field} must be {'a string' if field == 'text' else 'an integer'}, not {value!r}\n")
    prepare = with_dataset(at("1-1:b00:v3", **{field: value}))
    return Row(ROUTE, 1, error, prepare=prepare), Row(DEMO_ORACLE, 1, error, prepare=prepare)


def lone_surrogate(field):
    record_id = "1-1:b00:v3" + ("\ud83d" if field == "id" else "")
    return invalid_dataset(lambda row: {**row, field: row[field] + "\ud83d"} if row["id"] == "1-1:b00:v3" else row,
                           f"record {record_id!r}: {field} holds a lone surrogate")


BASE_229 = "".join(data_text("agentnet.intents.jsonl").splitlines(keepends=True)[:229])  # one base record short
DEMO_ORACLE = ("demo", "--menu", "{menu}", "--provider", "oracle", "--dataset", "{dataset}")

ROUTE_REFUSALS = {
    "test_flag_the_command_does_not_read_is_refused": {
        name: Row(argv, 2, "{usage}ivroute: error: unrecognized arguments: " + " ".join(argv[argv.index(flag):]) + "\n")
        for name, flag, argv in [
            ("route-seed", "--seed", (*ROUTE, "--seed", "1")),
            ("demo-seed", "--seed", ("demo", "--menu", "{menu}", "--provider", "keyword", "--seed", "1")),
            ("validate-menu-config", "--config", ("validate-menu", "{menu}", "--config", "c.json")),
            ("flatten-out", "--out", ("flatten", "{menu}", "--out", "{out}")),
            ("eval-config", "--config", ("eval", "results.jsonl", "--menu", "{menu}", "--config", "c.json")),
            ("eval-force", "--force", ("eval", "results.jsonl", "--menu", "{menu}", "--force")),
            ("check-roles-out", "--out", ("check-roles", "--out", "{out}")),
            ("gen-intents-out", "--out", ("gen-intents", "{menu}", "--provider", "http", "--out", "{out}")),
            ("gen-intents-noise", "--noise", ("gen-intents", "{menu}", "--provider", "http", "--noise", "0.3", "0.3",
                                              "0.2")),
            ("route-script", "--script", (*ROUTE, "--script", "replies.json"))]},
    "test_route_unknown_condition_usage_error": Row((*ROUTE, "--condition", "nonsense"), 2,
                                                    choice_refused("route", "--condition", "nonsense")),
    # A kind that is gone, as a flag or in the config file.
    "test_a_provider_kind_that_is_gone_is_refused": (
        Row((*ROUTE, "--provider", "scripted"), 2, choice_refused("route", "--provider", "scripted")),
        bad_settings((*ROUTE, "--config", "{tmp}/config.json"), "kind must be one of http, oracle, keyword, not "
                     "'scripted'", prepare=with_config({"providers": {"routing": {"kind": "scripted"}}}))),
    "test_route_missing_dataset_exit_2": Row(
        ("route", "--menu", "{menu}", "--dataset", "{tmp}/absent.jsonl", "--provider", "oracle", "--out", "{out}"), 2,
        "error: no such dataset file: {tmp}/absent.jsonl\n"),
    # argv bytes that are no UTF-8 reach Python as lone surrogates: b"\xff" as "\udcff"
    "test_route_model_flag_that_is_no_utf8_exit_2_before_any_call": bad_settings(
        (*ROUTE, "--filter", "base_only", os.fsdecode(b"--model=m\xff")),
        "model_name holds a lone surrogate: 'm\\udcff'"),
    "test_route_http_requires_endpoint": Row((*ROUTE, "--provider", "http"), 2, NEEDS_ENDPOINT),
    "test_route_bad_provider_setting_exit_2": {
        f"{flag}-{value}": bad_settings((*ROUTE, flag, value), problem) for flag, value, problem in [
            ("--max-in-flight", "0", "max_in_flight must be an integer in [1, inf), not 0"),
            ("--temperature", "3", "temperature must be a number in [0, 2], not 3.0"),
            ("--rps", "0", RATE + "0.0"), ("--rps", "nan", RATE + "nan"), ("--rps", "inf", RATE + "inf"),
            ("--max-retries", "9", "max_retries must be an integer in [0, 5], not 9"),
            ("--timeout", "-1", TIMEOUT + "-1.0"), ("--timeout", "0", TIMEOUT + "0.0"),
            ("--rps", "1e-300", RATE + "1e-300"), ("--timeout", "1e10", TIMEOUT + "10000000000.0")]},
    "test_route_unusable_endpoint_exit_2": {
        endpoint: bad_settings((*ROUTE, "--provider", "http", "--endpoint", endpoint), problem)
        for endpoint, problem in [
            ("ftp://example.test/v1", "endpoint must be an http:// or https:// URL, not 'ftp://example.test/v1'"),
            ("http://127.0.0.1:port/v1", "Port could not be cast to integer value as 'port'")]},
    "test_route_api_key_with_control_characters_exit_2": bad_settings(
        (*ROUTE, *HTTP), "the API key in $IVR_LLM_API_KEY holds control or non-ASCII characters",
        env=(("IVR_LLM_API_KEY", "sk-secret-123\n"),)),
    "test_route_https_proxy_exit_2": bad_settings(
        (*ROUTE, *HTTP), "unsupported proxy 'https://127.0.0.1:{port}': only http:// proxies are supported",
        env=(("ALL_PROXY", "https://127.0.0.1:{port}"),)),
    "test_route_error_budget_out_of_range_exit_2": {
        budget: Row((*ROUTE, "--error-budget", budget), 2,
                    f"error: --error-budget must be within [0, 1], not {float(budget)}\n")
        for budget in ["-0.1", "1.5", "2", "nan"]},
    # The run directory of the fixture's flattened run of every record by the http provider's default model.
    "test_route_existing_run_dir_refused_before_any_request": Row(
        (*ROUTE, *HTTP), 1, "error: {out}/run-99f2c29c8dd7 already exists (same menu/dataset/condition/model); "
                            "use --force to overwrite\n",
        prepare=lambda inputs: (inputs["out"] / "run-99f2c29c8dd7").mkdir(parents=True)),
    "test_route_malformed_dataset_line_exit_1": malformed_dataset_rows(ROUTE),
    "test_route_text_under_two_labels_exit_1": invalid_dataset(
        at("1-2:b00", text="How much do I currently owe on my account?"),
        "record 1-2:b00: same text as record 1-1:b00, which is labelled 1-1"),
    "test_route_invalid_dataset_claims_no_out_dir": invalid_dataset(BASE_229, SHORT_BASE),
    # Each fault alone keeps its exit code; together, the settings are refused first.
    "test_route_refuses_unusable_provider_settings_before_judging_the_dataset": (
        invalid_dataset(BASE_229, SHORT_BASE),
        Row((*ROUTE, "--provider", "http"), 2, NEEDS_ENDPOINT, prepare=with_dataset(BASE_229))),
    "test_route_blank_text_is_refused_before_any_call": invalid_dataset(
        at("3-9:b09:v3", text="   "), "record 3-9:b09:v3: text is blank", (*ROUTE, "--filter", "all", *HTTP)),
    "test_route_uneven_dataset_exit_1": {
        # its base record and three paraphrases move from 1-1 to 1-2
        "uneven-base-counts": invalid_dataset(
            lambda row: {**row, "ground_truth": "1-2"} if row["base_id"] == "1-1:b00" else row,
            "base record count per terminal path must be one number, but 1-1 has 9 and 1-2 has 11"),
        "uneven-paraphrase-counts": invalid_dataset(
            at("1-1:b00:v3", base_id="1-1:b01", variant_index=4),
            "paraphrase count per base record must be one number, but 1-1:b00 has 2 and 1-1:b01 has 4")},
    "test_route_record_that_is_no_base_or_paraphrase_exit_1": {
        "base-of-another-base": invalid_dataset(at("1-1:b00", base_id="1-1:b01"),
                                                "record 1-1:b00: base record must be its own base_id"),
        "base-with-a-variant-index": invalid_dataset(at("1-1:b00", variant_index=1),
                                                     "record 1-1:b00: base record with variant_index != 0"),
        "unknown-origin": invalid_dataset(at("1-1:b00:v3", origin="synthetic"),
                                          "record 1-1:b00:v3: unknown origin 'synthetic'; paraphrase count per base "
                                          "record must be one number, but 1-1:b00 has 2 and 1-1:b01 has 3")},
    "test_dataset_field_of_wrong_type_exit_1": {
        f"{field}-{value}": wrong_type(field, value)
        for field, value in [("text", 5), ("variant_index", 3.7), ("variant_index", True)]},
    "test_dataset_field_holding_a_lone_surrogate_exit_1": {
        field: lone_surrogate(field) for field in ["id", "text", "origin", "base_id"]},
}
table_tests(globals(), check_cli, ROUTE_REFUSALS)


BASE_ONLY = (*ROUTE, "--filter", "base_only")
OVERWRITE = ("error: {out}/run-c3ca07a72a4f already exists (same menu/dataset/condition/model); "
             "use --force to overwrite\n")
RUN_FILES = (f"out/run-{ORACLE_RUN}/manifest.json", f"out/run-{ORACLE_RUN}/results.jsonl")
HTTP_RUN = "7764641436c7"  # the flattened base-only run of the http provider's default model


def aborted(count, budget, failed, more=0):
    """What route prints when its run aborts: the first five failures named."""
    return (f"error: run aborted: {count} provider failure(s) exceeded the budget of {budget}\n"
            + "".join(f"  failed {intent}: {message}\n" for intent, message in failed)
            + (f"  ... and {more} more\n" if more else ""))


def replaced_and_regraded(inputs):
    results_file = inputs["out"] / f"run-{HTTP_RUN}" / "results.jsonl"
    assert {(r.raw_response, r.predicted) for r in router.load_results(results_file)} == {("1-1\ufffd", "INVALID")}
    assert main(["eval", str(results_file), "--menu", str(inputs["menu"])]) == 0  # each row regraded as saved


def run_in_out(inputs):
    """A ``prepare``: {out} holds a copy of the oracle run."""
    shutil.copytree(inputs["run"], inputs["out"] / f"run-{ORACLE_RUN}")


def failing_first_write(inputs):
    fail_at_step(inputs["monkeypatch"], 0)  # the first file write


def linked_run(inputs):
    """{out}/run-<oracle run id> is a link to a copy of the run elsewhere."""
    (inputs["out"]).mkdir()
    target = shutil.copytree(inputs["run"], inputs["tmp"] / "elsewhere")
    (inputs["out"] / f"run-{ORACLE_RUN}").symlink_to(target, target_is_directory=True)


def a_directory_not_a_link(inputs):
    assert not (inputs["out"] / f"run-{ORACLE_RUN}").is_symlink()


def counting(*targets):
    """A ``prepare``: the calls of each of ``targets``, a module and a name in it, are counted by name."""
    def prepare(inputs):
        inputs["calls"] = Counter()
        for module, name in targets:
            inputs["monkeypatch"].setattr(module, name, lambda *args, fn=getattr(module, name), name=name: (
                inputs["calls"].update([name]) or fn(*args)))
    return prepare


def counted(**calls):
    """A ``then``: the calls ``counting`` counted."""
    def then(inputs):
        assert inputs["calls"] == calls
    return then


def same_rows_as(run_id):
    """A ``then``: the run's rows are those of the fixture run ``run_id``, but for their latencies."""
    def then(inputs):
        runs = [[{**row, "latency": None} for row in results_rows(run_dir)]
                for run_dir in (inputs["out"] / f"run-{run_id}", inputs["runs"][run_id])]
        assert runs[0] == runs[1]
    return then


def nothing_routed(inputs):
    run_dir = inputs["out"] / f"run-{HTTP_RUN}"
    assert (run_dir / "results.jsonl").read_bytes() == b""
    assert len(json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))["failures"]) == 230


SCORED_IN_OUT = steps(run_in_out, succeeds(("eval", f"{{out}}/run-{ORACLE_RUN}/results.jsonl", "--menu", "{menu}")))
LINES = data_text("agentnet.intents.jsonl").splitlines(keepends=True)
THREE_PATHS = {"name": "Three", "root": {"label": "Root", "kind": "menu", "children": [
    action(label, digit) for digit, label in (("1", "Pay"), ("2", "Repair"), ("3", "Cancel"))]}}
# Texts that end in a newline: the prompt's query is the intent's text, the oracle's key for its answer.
NEWLINE_TEXTS = "".join(json.dumps(r._asdict()) + "\n" for r in [
    make_record("1", "my bill is wrong\n"), make_record("2", "the internet is down\r\n"),
    make_record("3", "cancel my plan\n\n")])
NO_UTF8_OUT = os.fsdecode(b"out\xff")  # argv bytes that are no UTF-8: the line that names the path escapes them

ROUTE_ROWS = {
    # Each double's reply depends only on its prompt, so a run of one run id
    # on eight workers holds the rows of the session's run on four.
    "test_a_run_id_names_one_set_of_rows_at_any_concurrency": {
        provider: Row((*BASE_ONLY, "--max-in-flight", "8", "--provider", provider), 0, "",
                      routed(accuracy=accuracy, run_id=run_id), wrote=run_entries(run_id), then=same_rows_as(run_id))
        for provider, accuracy, run_id in [("keyword", "30.87", KEYWORD_RUN), ("oracle", "100.00", ORACLE_RUN)]},
    # For the run id, before routing; the manifest reuses it.
    "test_route_hashes_its_inputs_once": Row(BASE_ONLY, 0, "", routed(), prepare=counting((router, "dataset_to_jsonl")),
                                             wrote=run_entries(), then=counted(dataset_to_jsonl=1)),
    "test_route_judges_and_names_its_run_once": Row(
        ROUTE, 0, "", routed(920, run_id="dfc44e400268"), wrote=run_entries("dfc44e400268"),
        prepare=counting((cli, "validate_dataset"), (router, "validate_dataset"), (router, "dataset_to_jsonl")),
        then=counted(validate_dataset=1, dataset_to_jsonl=1)),
    # The keyword double reads the query and the offered paths out of the outline's prompt too.
    "test_route_descriptive_all_920": Row(
        (*ROUTE, "--condition", "descriptive", "--filter", "all", "--provider", "keyword"), 0, "",
        routed(920, "28.26", "3fbc001469bd"), wrote=run_entries("3fbc001469bd")),
    "test_route_refuses_overwrite_without_force": (
        Row(BASE_ONLY, 1, OVERWRITE, prepare=run_in_out),
        Row((*BASE_ONLY, "--force"), 0, "", routed(), prepare=run_in_out, wrote=RUN_FILES)),
    "test_route_a_set_temperature_names_its_own_run": tuple(  # not refused as one run, nor as the unset one's
        Row((*BASE_ONLY, "--temperature", temperature), 0, "", routed(run_id=run_id), wrote=run_entries(run_id))
        for temperature, run_id in [("0", "0e8a820ee964"), ("1.5", "500c34253f6c")]),
    "test_route_error_budget_bounds_are_allowed": {
        budget: Row((*BASE_ONLY, "--error-budget", budget), 0, "", routed(), wrote=run_entries()) for budget in "01"},
    "test_an_output_path_from_argv_bytes_that_are_no_utf8_is_printed_escaped": {
        "route": Row((*BASE_ONLY, "--out", f"{{tmp}}/{NO_UTF8_OUT}"), 0, "",
                     routed(under="{tmp}/out\\udcff"), wrote=run_entries(under=NO_UTF8_OUT)),
        "gen-intents": Row(
            (*GEN_INTENTS, "--per-node", "1", "--variants", "0",
             "--dataset-out", f"{{tmp}}/{NO_UTF8_OUT}/intents.jsonl"),
            0, "", "wrote 23 records to {tmp}/out\\udcff/intents.jsonl\n",
            wrote=(NO_UTF8_OUT, f"{NO_UTF8_OUT}/intents.jsonl"), server={"reply": about_subject}, requests=23),
        "eval": Row(("eval", "{run}/results.jsonl", "--menu", "{menu}", "--out", f"{{tmp}}/{NO_UTF8_OUT}"), 0, "",
                    evaluated(under="{tmp}/out\\udcff"), wrote=(NO_UTF8_OUT, *report_entries(under=NO_UTF8_OUT)))},
    "test_route_oracle_scores_texts_that_end_in_a_newline_as_they_are": {
        condition: Row((*ROUTE, "--condition", condition), 0, "", routed(3, run_id=run_id),
                       prepare=steps(with_menu(THREE_PATHS), with_dataset(NEWLINE_TEXTS)), wrote=run_entries(run_id))
        for condition, run_id in [("flattened", "836af9828f5d"), ("descriptive", "1d485dc120c0")]},
    "test_route_skips_blank_dataset_lines_and_keeps_the_run_id": Row(
        BASE_ONLY, 0, "", routed(), prepare=with_dataset("\n" + "".join(LINES[:100]) + " \t\n\n" + "".join(LINES[100:])
                                                         + "\n"), wrote=run_entries()),
    # Half a surrogate pair, escaped in the reply's JSON.
    "test_a_reply_holding_a_lone_surrogate_is_saved_with_a_replacement_character": Row(
        (*BASE_ONLY, *HTTP), 0, "", routed(accuracy="0.00", run_id=HTTP_RUN), wrote=run_entries(HTTP_RUN),
        prepare=lambda inputs: setattr(inputs["server"], "answer", lambda request, index: chat_response(
            body='{"choices": [{"message": {"content": "1-1\\ud83d"}}]}')), requests=230, then=replaced_and_regraded),
    # One worker: the first two intents are answered.
    "test_route_names_each_failure_once": Row(
        (*BASE_ONLY, *HTTP, "--max-in-flight", "1"), 1, aborted(3, 2, [(f"1-1:b0{i}", REFUSED) for i in (2, 3, 4)]),
        wrote=("out",), server={"statuses": [200, 200], "status": 400}, requests=5),
    "test_route_names_five_failures_and_counts_the_rest": Row(
        (*BASE_ONLY, *HTTP, "--max-in-flight", "1", "--error-budget", "0.03"), 1,
        aborted(7, 6, [(f"1-1:b0{i}", REFUSED) for i in range(5)], more=2), wrote=("out",), server={"status": 400},
        requests=7),
    "test_route_reply_content_that_is_no_text_exit_1": Row(  # "content": 219
        (*BASE_ONLY, *HTTP, "--max-in-flight", "1"), 1, aborted(3, 2, [
            (f"1-1:b0{i}", "first choice carries no message content, or content that is no text") for i in range(3)]),
        wrote=("out",), server={"reply": 219}, requests=3),
    # Two of the 230 base intents get no reply.
    "test_route_summary_counts_the_failures_it_does_not_score": Row(
        (*BASE_ONLY, *HTTP, "--max-in-flight", "1"), 0, "",
        "routed 228 intents, accuracy 4.39%, 2 failed and not scored\nrun directory: {out}/run-" + HTTP_RUN + "\n",
        wrote=run_entries(HTTP_RUN), server={"statuses": [200] * 228, "status": 400}, requests=230),
    "test_route_every_intent_failing_within_budget_exit_1": Row(
        (*BASE_ONLY, *HTTP, "--error-budget", "1"), 1,
        "error: no intent was routed (230 provider failure(s)); see {out}/run-" + HTTP_RUN + "\n",
        wrote=run_entries(HTTP_RUN), server={"status": 400}, requests=230, then=nothing_routed),
    # The old run and its report stay, byte for byte, and no temporary entry is left beside them.
    "test_route_force_over_results_that_cannot_be_written_exit_1": Row(
        (*BASE_ONLY, "--force"), 1, "error: cannot write {out}/run-c3ca07a72a4f: [Errno 28] No space left on device\n",
        prepare=steps(SCORED_IN_OUT, failing_first_write)),
    # The same run id under another provider, the model being in it and the provider kind not: a rerun that
    # aborts keeps the old results and their report together; one that ends replaces both.
    "test_route_force_replaces_the_report_only_once_new_results_are_written": (
        Row((*BASE_ONLY, "--model", "oracle-mock", "--force", *HTTP, "--max-in-flight", "1"), 1,
            aborted(3, 2, [(f"1-1:b0{i}", REFUSED) for i in range(3)]), prepare=SCORED_IN_OUT,
            server={"status": 400}, requests=3),
        Row((*BASE_ONLY, "--model", "oracle-mock", "--force", "--provider", "keyword"), 0, "", routed(230, "30.87"),
            prepare=SCORED_IN_OUT, wrote=RUN_FILES + report_entries(under=f"out/run-{ORACLE_RUN}"))),
    # The link is replaced by the run; the directory it named is kept.
    "test_route_force_over_a_linked_run_directory_replaces_the_link_and_keeps_its_target": Row(
        (*BASE_ONLY, "--force"), 0, "", routed(), prepare=linked_run, wrote=RUN_FILES, then=a_directory_not_a_link),
}
table_tests(globals(), check_cli, ROUTE_ROWS)




# --- eval ------------------------------------------------------------------------------

EVAL = ("eval", "{run}/results.jsonl", "--menu", "{menu}")
UNVOUCHED = "error: {run}/results.jsonl has sha256 {digest}, but the run's results_sha256 is {vouched}\n"
MANIFEST_ERROR = "error: cannot load manifest {run}/manifest.json: %s\n"
RESULTS_ERROR = "error: cannot load results {run}/results.jsonl: {run}/results.jsonl:4: bad result: %s\n"
NOT_HASHED = "run_id 'c3ca07a72a4f' is not the hash of the fields that name its run"
NO_FIELDS = "not a route run's manifest (bad condition, model_name, dataset_filter, parse_mode, results_sha256)"


def edited_manifest(forged=False, **fields):
    """A ``prepare``: {run}'s manifest gets ``fields``, and, when ``forged``, the run_id they hash to."""
    return lambda inputs: edit_manifest(inputs["run"], forged, **fields)


def not_a_manifest(bad, **fields):
    """A manifest whose ``fields`` no route run writes, refused by their own check even under a forged run_id."""
    return Row(EVAL, 1, MANIFEST_ERROR % f"not a route run's manifest (bad {bad})",
               prepare=edited_manifest(forged=True, **fields))


def other_run(**fields):
    """A manifest of another run than the one its run_id names."""
    return Row(EVAL, 1, MANIFEST_ERROR % NOT_HASHED, prepare=edited_manifest(**fields))


def not_a_row(edit, problem):
    return Row(EVAL, 1, RESULTS_ERROR % problem,
               prepare=with_rows(lambda rows: rows[:3] + [edit(rows[3])] + rows[4:]))


def another_menu(inputs):
    inputs["menu"] = inputs["tmp"] / "other.menu.json"  # the same paths, so the same classes, under another name
    inputs["menu"].write_text(json.dumps({**json.loads(data_text("agentnet.menu.json")), "name": "Other"}),
                              encoding="utf-8")


def results_alone(inputs):
    (inputs["tmp"] / "alone").mkdir()
    shutil.copy(inputs["run"] / "results.jsonl", inputs["tmp"] / "alone")


EVAL_REFUSALS = {
    "test_eval_without_menu_exit_2_and_writes_nothing": Row(
        ("eval", "{run}/results.jsonl"), 2,
        "{usage eval}ivroute eval: error: the following arguments are required: --menu\n"),
    "test_eval_missing_file_exit_2": Row(
        ("eval", "{tmp}/none.jsonl", "--menu", "{menu}"), 2, "error: no such results file: {tmp}/none.jsonl\n"),
    "test_eval_without_a_manifest_exit_2": Row(
        ("eval", "{tmp}/alone/results.jsonl", "--menu", "{menu}"), 2,
        "error: no such manifest file: {tmp}/alone/manifest.json\n", prepare=results_alone),
    "test_eval_out_a_file_exit_2": Row(
        (*EVAL, "--out", "{tmp}/taken"), 2, "error: cannot write {tmp}/taken: [Errno 17] File exists: '{tmp}/taken'\n",
        prepare=write("{tmp}/taken", "")),
    "test_eval_menu_that_cannot_be_used_writes_no_report": {
        "missing": Row(("eval", "{run}/results.jsonl", "--menu", "{tmp}/menu.json"), 2,
                       "error: no such menu file: {tmp}/menu.json\n"),
        "invalid": Row(EVAL, 1, "error: invalid menu: root: must be a JSON object\n",
                       prepare=with_menu('{"name": "Broken", "root": []}'))},
    "test_eval_refuses_a_menu_of_another_run": Row(
        EVAL, 1, "error: menu {menu} has hash a20d1abb47dde27494792a498eec5ddcdb63228ba993bb902ab707a81c8a34cf, "
                 "but the run's menu_hash is d8d792a1c3d50cda738dfb29b7dc21ac06ac7066890eee30c42e6863e044af53\n",
        prepare=another_menu),
    # Edits of a route-written results file that leave each row well formed and each intent once or absent.
    "test_eval_refuses_an_intent_with_two_rows": Row(
        EVAL, 1, UNVOUCHED, prepare=with_rows(lambda rows: rows[:5] + [rows[4]] + rows[6:])),
    "test_eval_refuses_rows_in_another_order_or_number_than_route_wrote": {
        "two rows swapped": Row(EVAL, 1, UNVOUCHED,
                                prepare=with_rows(lambda rows: rows[:3] + [rows[4], rows[3]] + rows[5:])),
        "a row duplicated": Row(EVAL, 1, UNVOUCHED, prepare=with_rows(lambda rows: rows[:4] + [rows[3]] + rows[4:])),
        "the last row cut off": Row(EVAL, 1, UNVOUCHED, prepare=with_rows(lambda rows: rows[:-1]))},
    "test_eval_refuses_a_prediction_its_reply_does_not_parse_to": Row(
        EVAL, 1, "error: {run}/results.jsonl: intent 1-1:b03's reply does not parse to its prediction 1-1 under "
                 "strict parsing\n",
        prepare=with_rows(lambda rows: rows[:3] + [{**rows[3], "raw_response": "I cannot tell, sorry"}, rows[4],
                                                   {**rows[5], "raw_response": "no idea"}] + rows[6:], vouched=True)),
    "test_eval_prediction_edited_against_its_flag_exit_1": Row(
        EVAL, 1, "error: {run}/results.jsonl: intent 1-1:b03's reply does not parse to its prediction 1-2 under "
                 "strict parsing\n",
        prepare=with_row(3, vouched=True, predicted="1-2", correct=True)),  # a stale flag of a previous-format row
    "test_eval_ground_truth_that_is_no_class_of_the_menu_exit_1": Row(
        EVAL, 1, "error: result 1-1:b03: ground truth 9-9-9 is outside the class list\n",
        prepare=with_row(3, vouched=True, ground_truth="9-9-9")),
    "test_eval_ground_truth_that_is_no_path_exit_1": {
        str(truth): Row(EVAL, 1, RESULTS_ERROR % f"not a canonical DTMF path: {truth!r}",
                        prepare=with_row(3, ground_truth=truth)) for truth in ["abc", "1--2", 12, None]},
    "test_eval_results_line_that_is_no_results_row_exit_1": {
        "number": not_a_row(lambda row: 3, "'int' object is not subscriptable"),
        "string": not_a_row(lambda row: "row", STRING_INDEX),
        "null": not_a_row(lambda row: None, "'NoneType' object is not subscriptable"),
        "array": not_a_row(lambda row: [row], "list indices must be integers or slices, not str"),
        **{f"latency-{name}": not_a_row(lambda row, value=value: {**row, "latency": value},
                                        f"intent 1-1:b03: latency must be a finite number ≥ 0, not {value!r}")
           for name, value in [("a-string", "fast"), ("negative", -0.5), ("not-finite", math.inf), ("a-bool", True)]},
        "intent-id-not-a-string": not_a_row(lambda row: {**row, "intent_id": 7}, "intent_id must be a string, not 7"),
        "raw-response-not-a-string": not_a_row(lambda row: {**row, "raw_response": None},
                                               "intent 1-1:b03: raw_response must be a string, not None")},
    "test_eval_ignores_a_manifest_that_is_no_object": {
        text: Row(EVAL, 1, MANIFEST_ERROR % problem, prepare=write("{run}/manifest.json", text)) for text, problem in [
            ("[]", NO_FIELDS), ('"run"', NO_FIELDS), ("3", NO_FIELDS),
            ("{not json", "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
            ('{"run_id": "x/../../escaped"}', NO_FIELDS),  # a run_id is a directory name
            ('{"run_id": 7}', NO_FIELDS), ('{"condition": ["x"]}', NO_FIELDS)]},
    # A route-written manifest edited in one field.
    "test_eval_refuses_a_manifest_edited_in_one_field": {
        # a value no route run writes, refused by its own check even under a run_id hashed to match it
        "run_id": Row(EVAL, 1, MANIFEST_ERROR % ("run_id 'C3CA07A72A4F' is not the hash of the fields that "
                                                     "name its run"), prepare=edited_manifest(run_id="C3CA07A72A4F")),
        "no condition": not_a_manifest("condition", condition="foo"),
        "no model name": not_a_manifest("model_name", model_name=["oracle-mock"]),
        "model name with a lone surrogate": not_a_manifest("model_name", model_name="oracle-mock\udcff"),
        "dataset_filter": not_a_manifest("dataset_filter", dataset_filter="augmented"),
        "parse_mode": not_a_manifest("parse_mode", parse_mode=None),
        "no digest": not_a_manifest("results_sha256", results_sha256=None),
        "digest in capitals": not_a_manifest("results_sha256", results_sha256="A" * 64),
        # another run than the one its run_id names, in each field the run_id hashes
        "menu_name": other_run(menu_name="Other"),
        "menu_hash": other_run(menu_hash="0" * 64),
        "dataset_hash": other_run(dataset_hash="0" * 64),
        "condition": other_run(condition="descriptive_menu"),
        "dataset_filter hashed": other_run(dataset_filter="all"),
        "model_name": other_run(model_name="keyword-mock"),
        "parse_mode hashed": other_run(parse_mode="lenient"),
        "temperature": other_run(temperature=0.0),
        # another results file than the run's
        "results_sha256": Row(EVAL, 1, UNVOUCHED.replace("{vouched}", "0" * 64),
                              prepare=edited_manifest(results_sha256="0" * 64))},
}
table_tests(globals(), check_cli, EVAL_REFUSALS)



# The sha256 of each file eval writes for the fixture's four oracle runs, named by run id.
BASE_MATRIX = {"matrix.csv": "5ee26d428aea9533c9142f4076aff482ec2abae3a1dcf8cecb4ccb4d3cb9fdcf",
               "matrix_long.csv": "2cb852598550cf3c5e92fac20620b5f71d9090db1d2a23d203d6cc7e48d168e0"}
ALL_MATRIX = {"matrix.csv": "e90258698e3c7f8e5abec26baf568eb514375af76306e3cf7e474f86a58f8a46",
              "matrix_long.csv": "635962ef06c06aca68fae631030a75fff9c00bff71cb3b43228a22ade573cbd8"}
ORACLE_REPORTS = {
    "c3ca07a72a4f": {**BASE_MATRIX, "report.json": "c6cb6da9168619d042124020a24afc190a0f5df5121c19840d5040079aef6475",
                     "summary.md": "d9c8c78cfb7f988c2760dd754aea630fe61e7bdbbd9d20710857be57f0d05f52"},
    "dfc44e400268": {**ALL_MATRIX, "report.json": "6d87560bf6f7da6f0297cbdf147837cc2742fdd948417fc7ab86c08b184664a0",
                     "summary.md": "99c96df1e715658ee9d0c362f3194f3b4a13e91a8a524fb1b708369af1b0d81c"},
    "8a900ae47168": {**BASE_MATRIX, "report.json": "30f84890c937b22a19a83c1fd8fd4effe4a3e431c19bed9091a566876ba5b101",
                     "summary.md": "169fc01470d844464e78ebb4861f1ec1b771506c3d65d53cf384f0ec2efde037"},
    "f01ca3e681f7": {**ALL_MATRIX, "report.json": "cde2948ac86d6f8adb3cb215eb3f37f29bd7f150c976265ee4c0b0817ac24c6a",
                     "summary.md": "77c7a40834743f72e684b23a3d3a85aefbf186cb079a35d56ddbc835a41fda6f"},
}
# The report of the oracle run whose fourth row names another path, scored
# from the rows as route writes them and as earlier formats held them.
ONE_WRONG_REPORT = {
    "report.json": "d3d816fd32a2c75ba052a4b3c5020e18f4f65e9a9ea35141ab992fad0096cd70",
    "matrix.csv": "e164b34ec21bed9c55ffb6689b7980216bd029ed279edf237e9acb3c04b15180",
    "matrix_long.csv": "913e562ba8cffe9231e845700a09372097b989efc1361ba1e882568f50353143",
    "summary.md": "33b6c8df8b7dc4587d05ab9d5b830a08f4ba85cb6f52009320949d80cda53b51"}


def pinned(digests, run_id=ORACLE_RUN):
    """A ``then``: the sha256 of each file of {run}'s report."""
    def then(inputs):
        report_dir = inputs["run"] / f"eval-{run_id}"
        assert {file.name: sha256_of(file) for file in report_dir.iterdir()} == digests
    return then


def earlier_format(rows):
    """Rows of an earlier format: a row claiming that 9-9-9 is a terminal path
    does not make it a class, and rules listed beside a clean reply are ignored."""
    rows = [{**row, "known_path": True, "normalization_applied": []} for row in rows]
    rows[3].update(raw_response="9-9-9", predicted="9-9-9", normalization_applied=["bogus", "trim"])
    return rows


def scored_over_the_menus_classes(inputs):
    matrix = json.loads((inputs["run"] / f"eval-{ORACLE_RUN}" / "report.json").read_text(encoding="utf-8"))["matrix"]
    assert matrix["true_labels"] == [tp.path for tp in flatten(load_menu(inputs["menu"]))]
    assert len(matrix["true_labels"]) == 23 and matrix["predicted_labels"][-2:] == ["INVALID", "UNKNOWN_PATH"]
    unknown = {label: row[-1] for label, row in zip(matrix["true_labels"], matrix["counts"]) if row[-1]}
    assert unknown == {"1-1": 1}  # the fourth row's truth


def one_wrong(rows):
    wrong = "1-2" if rows[3]["ground_truth"] == "1-1" else "1-1"
    return rows[:3] + [{**rows[3], "raw_response": wrong, "predicted": wrong}] + rows[4:]


def previous_format(rows):
    """The rows as they were written before they held the answer alone: each
    names the run's condition and model and stores a flag, true even on the wrong answer."""
    return [{"intent_id": row["intent_id"], "condition": "flattened_paths", **row, "correct": True,
             "model_name": "oracle-mock"} for row in one_wrong(rows)]


def mixed_with(run_id):
    """A ``prepare``: {run}'s first five rows, then the first five of the fixture run ``run_id``."""
    def prepare(inputs):
        other = results_rows(inputs["runs"][run_id])[:5]
        with_rows(lambda rows: rows[:5] + other)(inputs)
    return prepare


def row_of_another_run(inputs):
    """{run}'s sixth row becomes an augmented row of the oracle run of every record: 230 rows, each intent
    once, each reply parsing to its prediction."""
    augmented = next(row for row in results_rows(inputs["runs"]["dfc44e400268"]) if ":v" in row["intent_id"])
    with_rows(lambda rows: rows[:5] + [augmented] + rows[6:])(inputs)


def labels_to_predictions(rows):
    wrong = [row for row in rows if row["predicted"] not in (row["ground_truth"], "INVALID")]
    assert len(wrong) > 40
    for row in wrong[:40]:
        row["ground_truth"] = row["predicted"]
    return rows


def swapped_while_parsed(inputs):
    """Once eval has begun to parse {run}'s rows, the keyword run's files
    replace them, as a route --force would; {swapped} is their results_sha256."""
    other = shutil.copytree(inputs["runs"][KEYWORD_RUN], inputs["tmp"] / "other")
    inputs["swapped"], parse = vouched_by(other), router.result_from_record

    def swapping(record):
        for name in ("results.jsonl", "manifest.json"):
            if (other / name).exists():
                os.replace(other / name, inputs["run"] / name)
        return parse(record)

    inputs["monkeypatch"].setattr(router, "result_from_record", swapping)


def undigested(inputs):
    """{run}'s manifest as route wrote it before manifests held a results digest."""
    manifest = json.loads((inputs["run"] / "manifest.json").read_text(encoding="utf-8"))
    del manifest["results_sha256"]
    (inputs["run"] / "manifest.json").write_text(json.dumps({**manifest, "n_results": 230}), encoding="utf-8")


NO_SPACE = "error: cannot write {run}/eval-c3ca07a72a4f: [Errno 28] No space left on device\n"
EVALUATED = report_entries()

EVAL_ROWS = {
    "test_eval_oracle_run": Row(EVAL, 0, "", evaluated(), wrote=EVALUATED),
    "test_eval_writes_the_pinned_report_of_each_fixture_oracle_run": {
        run_id: Row(EVAL, 0, "", evaluated(count=FIXTURE_RUNS[run_id][3].split()[1], run_id=run_id),
                    prepare=use_run(run_id), wrote=report_entries(run_id), then=pinned(digests, run_id))
        for run_id, digests in ORACLE_REPORTS.items()},
    "test_eval_scores_an_earlier_format_row_over_the_menus_classes": Row(
        EVAL, 0, "", evaluated("99.57"), prepare=with_rows(earlier_format, vouched=True), wrote=EVALUATED,
        then=scored_over_the_menus_classes),
    "test_eval_scores_a_previous_format_results_file_from_the_evidence": (
        Row(EVAL, 0, "", evaluated("99.57"), prepare=with_rows(one_wrong, vouched=True), wrote=EVALUATED,
            then=pinned(ONE_WRONG_REPORT)),
        Row(EVAL, 0, "", evaluated("99.57"), prepare=with_rows(previous_format, vouched=True), wrote=EVALUATED,
            then=pinned(ONE_WRONG_REPORT))),
    "test_eval_refuses_rows_of_two_runs": (
        Row(EVAL, 1, UNVOUCHED, prepare=steps(use_run(KEYWORD_RUN), mixed_with("8a900ae47168"))),
        # One run's rows beside another run's manifest, which names another model.
        Row(EVAL, 1, MANIFEST_ERROR % NOT_HASHED.replace(ORACLE_RUN, KEYWORD_RUN),
            prepare=steps(use_run(KEYWORD_RUN), edited_manifest(model_name="oracle-mock")))),
    "test_eval_grades_only_the_rows_it_hashed": Row(
        EVAL, 1, "error: {run}/results.jsonl has sha256 {digest}, but the run's results_sha256 is {swapped}\n",
        prepare=swapped_while_parsed,
        wrote=("other/manifest.json", "other/results.jsonl", "run/manifest.json", "run/results.jsonl")),
    # The 920 rows of the augmented run beside the base-only run's manifest.
    "test_eval_refuses_the_rows_of_another_slice_than_the_manifest": Row(
        EVAL, 1, UNVOUCHED, prepare=lambda inputs: shutil.copy(inputs["runs"]["dfc44e400268"] / "results.jsonl",
                                                               inputs["run"])),
    "test_eval_refuses_a_row_of_another_run_in_place_of_one_of_its_own": Row(
        EVAL, 1, UNVOUCHED, prepare=row_of_another_run),
    "test_eval_refuses_labels_edited_to_the_predictions": Row(
        EVAL, 1, UNVOUCHED, prepare=steps(use_run(KEYWORD_RUN), with_rows(labels_to_predictions))),
    "test_eval_scores_a_run_routed_before_manifests_held_a_digest_once_vouched": (
        Row(EVAL, 1, MANIFEST_ERROR % "not a route run's manifest (bad results_sha256)", prepare=undigested),
        # README's migration: vouch for the rows as they are.
        Row(EVAL, 0, "", evaluated(), prepare=steps(undigested, lambda inputs: vouch(inputs["run"])), wrote=EVALUATED)),
    "test_eval_empty_results_exit_1": (
        Row(EVAL, 1, "error: no results to score\n", prepare=with_rows(lambda rows: [], vouched=True)),
        # An empty results file with no manifest beside it is no run at all.
        Row(("eval", "{tmp}/alone/results.jsonl", "--menu", "{menu}"), 2,
            "error: no such manifest file: {tmp}/alone/manifest.json\n", prepare=steps(
                lambda inputs: (inputs["tmp"] / "alone").mkdir(), write("{tmp}/alone/results.jsonl", "")))),
    # The old report stays, byte for byte, and no temporary entry is left beside it.
    "test_eval_report_file_that_cannot_be_written_exit_1": Row(
        EVAL, 1, NO_SPACE, prepare=steps(succeeds(EVAL), failing_first_write)),
    "test_eval_whose_first_write_fails_exit_1_and_leaves_no_report": Row(
        EVAL, 1, NO_SPACE, prepare=failing_first_write),
}
table_tests(globals(), check_cli, EVAL_ROWS)


@settings(max_examples=100, deadline=None)
@given(reply=st.text(max_size=30) | st.from_regex(r"\A[ '`.]{0,2}[0-9](-[0-9]){0,3}[ '`.]{0,2}\Z"),
       lenient=st.booleans(), other=st.sampled_from(["1-1", "2-1", "INVALID"]))
def test_eval_regrades_any_reply_route_one_wrote(tmp_path_factory, fixture_menu_path, reply, lenient, other):
    intent = make_record("1-1", "i want my balance")  # the ground truth is 1-1
    row = router.route_one(intent, RoutingCondition.FLATTENED_PATHS, "1-1: Balance",
                           AnsweringProvider(lambda prompt: reply), lenient)
    run_dir = tmp_path_factory.mktemp("regrade")
    tree = load_menu(fixture_menu_path)
    identity = {"menu_name": tree.name, "menu_hash": router.menu_hash(tree), "dataset_hash": "0" * 64,
                "condition": "flattened_paths", "dataset_filter": "base_only", "model_name": "answering-mock",
                "parse_mode": "lenient" if lenient else "strict"}
    manifest = {**identity, "run_id": router.run_id(identity),
                "results_sha256": router.save_results([row], run_dir / "results.jsonl")}
    (run_dir / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    evaluate = ["eval", str(run_dir / "results.jsonl"), "--menu", str(fixture_menu_path), "--out"]
    assert main(evaluate + [str(run_dir / "ok")]) == 0
    if other != row.predicted:
        edited = row._replace(predicted=other)
        router.save_results([edited], run_dir / "results.jsonl")
        vouch(run_dir)
        assert main(evaluate + [str(run_dir / "edited")]) == 1
        assert not (run_dir / "edited").exists()


# --- demo ------------------------------------------------------------------------------

DEMO_KEYWORD = ("demo", "--menu", "{menu}", "--provider", "keyword")
DEMO_HTTP = ("demo", "--menu", "{menu}", "--provider", "http", "--endpoint", "{url}")
BALANCE = "1-1  Billing and Account Management -> Check Balance\n"
INTERNET_AGENT = "2-1-9  Technical Assistance -> Internet Issues -> Technical Representative\n"


def recording_paces(inputs):
    inputs["paced"], run_calls = [], router.run_calls
    inputs["monkeypatch"].setattr("ivroute.cli.run_calls", lambda *args, pacing, **kwargs: (
        inputs["paced"].append(pacing) or run_calls(*args, pacing=pacing, **kwargs)))


def one_pace(inputs):
    assert len(inputs["paced"]) == 2 and inputs["paced"][0] is inputs["paced"][1]  # the second line keeps the pace


DEMO_ROWS = {
    "test_demo_keyword_prints_path_and_breadcrumb": Row((*DEMO_KEYWORD, "--condition", "flattened"), 0, "", BALANCE),
    # No word of the query matches any breadcrumb, so the keyword double ties
    # every path at zero and document order picks 1-1.
    "test_demo_zero_overlap_falls_back_to_first_path": Row(DEMO_KEYWORD, 0, "", BALANCE,
                                                           stdin="my bill looks wrong\n"),
    # One call, for the only line that is not empty.
    "test_demo_empty_line_costs_no_provider_call": Row(DEMO_HTTP, 0, "", INTERNET_AGENT, server={"reply": "2-1-9"},
                                                       requests=1, stdin="\n\nrouter is broken\n"),
    "test_demo_eof_exits_zero": Row(DEMO_KEYWORD, 0, "", stdin=""),
    # The lines go one by one: two refused lines, and the loop kept going.
    "test_demo_provider_error_continues": Row(
        DEMO_HTTP, 0, f"error: {REFUSED}\n" * 2, "1-4  Billing and Account Management -> Dispute Recent Charges\n",
        server={"reply": "1-4", "statuses": [200], "status": 400}, requests=3,
        stdin="first query\nsecond query\nthird query\n"),
    # The 503, then its retry.
    "test_demo_retries_a_503_and_prints_the_path": Row(
        DEMO_HTTP, 0, "", INTERNET_AGENT, server={"reply": "2-1-9", "statuses": [503], "retry_after": "0"},
        requests=2, stdin="router is broken\n"),
    "test_demo_lines_share_one_connection": Row(
        DEMO_HTTP, 0, "", INTERNET_AGENT * 2, server={"reply": "2-1-9"}, requests=2,
        stdin="router is broken\nstill broken\n", then=one_connection),
    "test_demo_lines_share_one_pace": Row(
        DEMO_KEYWORD, 0, "", BALANCE * 2,
        stdin="check my balance\npay my bill\n", prepare=recording_paces, then=one_pace),
    "test_demo_invalid_reply_reported": Row(
        DEMO_HTTP, 0, "", "INVALID  (reply did not parse: 'press one please')\n5-5-5  (not a terminal path of this "
        "menu)\n", server={"reply": lambda prompt: "press one please" if prompt.endswith("\nfirst") else "5-5-5"},
        requests=2, stdin="first\nsecond\n"),
    "test_demo_oracle_without_dataset_exit_2": Row(
        ("demo", "--menu", "{menu}", "--provider", "oracle"), 2,
        "error: oracle provider needs a dataset to take its answers from\n"),
    "test_demo_malformed_dataset_line_exit_1": malformed_dataset_rows(DEMO_ORACLE),
    "test_demo_dataset_is_validated": invalid_dataset(
        at("1-2:b00", text="How much do I currently owe on my account?"),
        "record 1-2:b00: same text as record 1-1:b00, which is labelled 1-1", DEMO_ORACLE),
}
table_tests(globals(), check_cli, DEMO_ROWS)


# --- check-roles -------------------------------------------------------------------------

REUSED = "warning: stage '{}' reuses model '{}' already assigned to stage '{}'\n"
SHARED = {"menugen": {"model_name": "shared"}, "datagen": {"model_name": "shared"}}

CHECK_ROLES_ROWS = {
    "test_check_roles_distinct_models": Row(
        ("check-roles", "--menugen-model", "gpt-3.5-turbo", "--datagen-model", "gpt-4o-mini", "--routing-model",
         "gpt-4.1-mini"), 0, "", "ok: 3 stage(s), no shared models\n"),
    "test_check_roles_warns_without_strict": Row(
        ("check-roles", "--menugen-model", "m", "--datagen-model", "m", "--routing-model", "m"), 0, "",
        REUSED.format("datagen", "m", "menugen") + REUSED.format("routing", "m", "menugen")),
    # The flag renames datagen's model, clearing the conflict.
    "test_config_flag_overrides_file": Row(
        ("check-roles", "--config", "{tmp}/config.json", "--datagen-model", "unique", "--strict-roles"), 0, "",
        "ok: 2 stage(s), no shared models\n", prepare=with_config({"providers": SHARED})),
    "test_check_roles_strict_exit_1": Row(
        ("check-roles", "--menugen-model", "m", "--datagen-model", "m", "--strict-roles"), 1, "",
        REUSED.format("datagen", "m", "menugen")),
    "test_check_roles_reads_config_file": Row(
        ("check-roles", "--config", "{tmp}/config.json", "--strict-roles"), 1, "",
        REUSED.format("datagen", "shared", "menugen"),
        prepare=with_config({"providers": {**SHARED, "routing": {"model_name": "distinct"}}})),
}
table_tests(globals(), check_cli, CHECK_ROLES_ROWS)


# --- pipeline composition -----------------------------------------------------------------

MINI_RUN = "c85baf5d52ca"  # the descriptive run of every record of the generated dataset
table_tests(globals(), check_cli, {
    # validate-menu, flatten, gen-intents, route, then eval of what route wrote
    "test_pipeline_composes_end_to_end": Row(
        ("eval", f"{{tmp}}/runs/run-{MINI_RUN}/results.jsonl", "--menu", "{menu}"), 0, "",
        evaluated(count=23, run_id=MINI_RUN, under=f"{{tmp}}/runs/run-{MINI_RUN}"),
        prepare=steps(*map(succeeds, [VALIDATE, ("flatten", "{menu}"), (
            *GEN_INTENTS, "--per-node", "1", "--variants", "0", "--dataset-out", "{tmp}/mini.jsonl"), (
            "route", "--menu", "{menu}", "--dataset", "{tmp}/mini.jsonl", "--provider", "oracle", "--condition",
            "descriptive", "--filter", "all", "--out", "{tmp}/runs")])),
        wrote=report_entries(MINI_RUN, under=f"runs/run-{MINI_RUN}"), server={"reply": about_subject}, requests=23),
})


# --- config files ---------------------------------------------------------------------------

# The commands that read a config file, each refusing a bad one before any call.
CONFIG_COMMANDS = {
    "route": ROUTE,
    "demo": ("demo", "--menu", "{menu}", "--provider", "keyword"),
    "gen-intents": (*GEN_INTENTS, "--dataset-out", "{out}/intents.jsonl"),
    "check-roles": ("check-roles",),
}


def config_refusals(config, error, commands=tuple(CONFIG_COMMANDS.values())):
    """Each of ``commands`` refusing the config file ``config`` with ``error``."""
    return tuple(Row((*argv, "--config", "{tmp}/config.json"), 2, f"error: {error}\n", prepare=with_config(config))
                 for argv in commands)


# A bool is no number here, though Python counts it as an int; json.loads
# reads NaN and Infinity as floats, but neither is a rate. No wait may
# outlast threading.TIMEOUT_MAX: not a timeout of 1e10 s, nor a turn of
# 1e300 s at 1e-300 requests per second. A stage block is checked whole, so
# a flag that overrides a setting (as --provider does kind) does not hide
# its wrong type. Every command checks every block it may read, its own or not.
WRONG_TYPES = [
    ({"max_in_flight": "4"}, "max_in_flight must be an integer in [1, inf), not '4'"),
    ({"max_in_flight": 2.5}, "max_in_flight must be an integer in [1, inf), not 2.5"),
    ({"max_retries": True}, "max_retries must be an integer in [0, 5], not True"),
    ({"temperature": True}, "temperature must be a number in [0, 2], not True"),
    ({"requests_per_second": math.nan}, RATE + "nan"),
    ({"requests_per_second": math.inf}, RATE + "inf"),
    ({"model_name": 3}, "model_name must be a string, not 3"),
    ({"endpoint_url": 3}, "endpoint_url must be a string, not 3"),
    ({"api_key_env": []}, "api_key_env must be a string, not []"),
    ({"kind": 3}, "kind must be one of http, oracle, keyword, not 3"),
    ({"requests_per_second": 1e-300}, RATE + "1e-300"),
    ({"request_timeout": 1e10}, TIMEOUT + "10000000000.0"),
]


def stages(settings):
    return {"providers": dict.fromkeys(("datagen", "routing"), settings)}


CONFIG_REFUSALS = {
    "test_route_config_value_of_wrong_type_exit_2": tuple(
        row for settings, problem in WRONG_TYPES
        for row in config_refusals(stages(settings), f"bad provider settings: {problem}")),
    "test_config_setting_holding_a_lone_surrogate_exit_2": {
        key: config_refusals(stages({key: "m\udcff"}), f"bad provider settings: {key} holds a lone surrogate: "
                                                        "'m\\udcff'")
        for key in ["model_name", "endpoint_url", "api_key_env"]},
    # Every command that reads the file checks it, even where --seed overrides it.
    "test_gen_intents_config_seed_of_wrong_type_exit_2": {
        str(seed): config_refusals({"seed": seed}, f"bad config: seed must be an integer, not {seed!r}",
                                   (*CONFIG_COMMANDS.values(), (*CONFIG_COMMANDS["gen-intents"], "--seed", "5")))
        for seed in ["x", True, 1.5, None]},
    "test_config_key_no_command_reads_exit_2": {
        name: config_refusals(config, f"bad config: {problem}") for name, config, problem in [
            ("top-level key", {"seed": 1, "bogus": 1}, "no command reads the top level key(s) ['bogus']"),
            ("stage key", {"providers": {"routing": {"kind": "oracle", "bogus": 1}}},
             "no command reads providers.routing key(s) ['bogus']"),
            ("script key", {"providers": {"routing": {"kind": "oracle", "script": "replies.json"}}},
             "no command reads providers.routing key(s) ['script']"),
            ("menugen provider key", {"providers": {"menugen": {"model_name": "m", "temperature": 0}}},
             "no command reads providers.menugen key(s) ['temperature']"),
            ("misspelt stage key", {"providers": {"routing": {"max_in_fligth": 8}}},
             "no command reads providers.routing key(s) ['max_in_fligth']"),
            ("stage", {"providers": {"scoring": {}}}, "no command reads providers key(s) ['scoring']"),
            ("providers no object", {"providers": ["routing"]}, "providers must be an object, not ['routing']"),
            ("stage no object", {"providers": {"routing": "oracle"}},
             "providers.routing must be an object, not 'oracle'")]},
    # --provider overrides the kind, but does not hide that it names no provider.
    "test_config_kind_that_names_no_provider_exit_2": config_refusals(
        {"providers": {"routing": {"kind": "bogus"}}},
        "bad provider settings: kind must be one of http, oracle, keyword, not 'bogus'",
        (*CONFIG_COMMANDS.values(), *((*argv, "--provider", "oracle") for argv in list(CONFIG_COMMANDS.values())[:3]))),
}
table_tests(globals(), check_cli, CONFIG_REFUSALS)


# ProviderConfig field: its flag, its config-file key, its default (for the
# keyword provider), and values to draw for it.
PROVIDER_SETTINGS = {
    "endpoint_url": ("--endpoint", "endpoint_url", "", st.sampled_from(["http://a.test/v1", "http://b.test/v1"])),
    "model_name": ("--model", "model_name", "keyword-mock", st.sampled_from(["model-a", "model-b"])),
    "api_key_env": ("--api-key-env", "api_key_env", DEFAULT_API_KEY_ENV, st.sampled_from(["KEY_A", "KEY_B"])),
    "temperature": ("--temperature", "temperature", None, st.floats(0, 2)),
    "max_retries": ("--max-retries", "max_retries", 3, st.integers(0, 5)),
    "request_timeout": ("--timeout", "request_timeout", 60.0, st.floats(0.5, 600)),
    "max_in_flight": ("--max-in-flight", "max_in_flight", 4, st.integers(1, 64)),
    "requests_per_second": ("--rps", "requests_per_second", None, st.floats(0.5, 1000)),
}


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_provider_settings_layer_flag_then_file_then_default(tmp_path_factory, fixture_menu_path, data):
    argv = ["demo", "--menu", str(fixture_menu_path), "--provider", "keyword"]
    stage, expected = {}, {}
    for field, (flag, key, default, values) in PROVIDER_SETTINGS.items():
        from_flag = data.draw(st.none() | values, label=flag)
        from_file = data.draw(st.none() | values, label=key)
        if from_flag is not None:
            argv += [flag, str(from_flag)]
        if from_file is not None or data.draw(st.booleans(), label=f"{key} null"):
            stage[key] = from_file  # a null in the file leaves the default
        expected[field] = from_flag if from_flag is not None else from_file if from_file is not None else default
    file = tmp_path_factory.getbasetemp() / "layering.json"  # rewritten by every example
    file.write_text(json.dumps({"providers": {"routing": stage}}), encoding="utf-8")
    args = build_parser().parse_args(argv + ["--config", str(file)])
    provider = _make_provider(args, _load_config_file(args.config), "routing")
    assert provider.config._asdict() == expected


# --- input files -----------------------------------------------------------------------------

NO_UTF8 = b"\xff\xfe{}\n"
UTF8_ERROR = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
# Nested deeper than json.loads reads under any supported Python, in arrays
# alone, so that what it says does not depend on the stack it is read on.
TOO_DEEP = "[" * 100_000
DEEP_ERROR = message_of(lambda: json.loads(TOO_DEEP))
# A good line, then one nested too deep.
DEEP_RESULTS = json.dumps({"intent_id": "1-1:b00", "raw_response": "1-1", "predicted": "1-1", "ground_truth": "1-1",
                           "latency": 0.0}) + "\n" + TOO_DEEP + "\n"
DEEP_DATASET = data_text("agentnet.intents.jsonl").splitlines()[0] + "\n" + TOO_DEEP + "\n"
DATASET_AT = ("route", "--menu", "{menu}", "--dataset", "{tmp}/dataset", "--provider", "oracle", "--out", "{out}")

def unreadable(path):
    raise PermissionError(13, "Permission denied", str(path))


# Each input file of the CLI, read by its command, that is no UTF-8 text or
# nests too deep to parse: a menu, dataset, results or manifest file is
# refused (1), and a config file is a usage error (2). A JSONL line nested
# too deep is refused by its line number.
INPUT_FILE_REFUSALS = {
    "test_input_file_no_utf8_or_too_deep_ends_with_its_exit_code": {
        "menu": Row(("validate-menu", "{tmp}/menu"), 1, f"error: invalid menu: {UTF8_ERROR}\n",
                    prepare=write("{tmp}/menu", NO_UTF8)),
        "deep menu": Row(("validate-menu", "{tmp}/menu"), 1, f"error: invalid menu: {DEEP_ERROR}\n",
                         prepare=write("{tmp}/menu", TOO_DEEP)),
        "dataset": Row(DATASET_AT, 1, f"error: cannot load dataset {{tmp}}/dataset: {UTF8_ERROR}\n",
                       prepare=write("{tmp}/dataset", NO_UTF8)),
        "results": Row(("eval", "{tmp}/results", "--menu", "{menu}"), 1,
                       f"error: cannot load results {{tmp}}/results: {UTF8_ERROR}\n",
                       prepare=write("{tmp}/results", NO_UTF8)),
        "deep dataset": Row(DATASET_AT, 1, f"error: cannot load dataset {{tmp}}/dataset: {{tmp}}/dataset:2: bad "
                                           f"record: {DEEP_ERROR}\n", prepare=write("{tmp}/dataset", DEEP_DATASET)),
        "deep results": Row(("eval", "{tmp}/results", "--menu", "{menu}"), 1,
                            f"error: cannot load results {{tmp}}/results: {{tmp}}/results:2: bad result: "
                            f"{DEEP_ERROR}\n", prepare=write("{tmp}/results", DEEP_RESULTS)),
        "config": Row((*ROUTE, "--config", "{tmp}/config"), 2,
                      f"error: cannot read config file {{tmp}}/config: {UTF8_ERROR}\n",
                      prepare=write("{tmp}/config", NO_UTF8)),
        "manifest": Row(EVAL, 1, MANIFEST_ERROR % UTF8_ERROR, prepare=write("{run}/manifest.json", NO_UTF8))},
    # Permissions cannot make a file unreadable to root, so the loader is made to refuse it.
    "test_input_file_that_cannot_be_read_exit_2": Row(
        VALIDATE, 2, "error: cannot read menu file {menu}: [Errno 13] Permission denied: '{menu}'\n",
        prepare=patched("ivroute.cli.load_menu", unreadable)),
}
table_tests(globals(), check_cli, INPUT_FILE_REFUSALS)


@settings(max_examples=100, deadline=None)
@given(content=st.binary())
def test_any_bytes_as_menu_or_config_end_with_an_exit_code(tmp_path_factory, fixture_menu_path,
                                                           fixture_dataset_path, content):
    file = tmp_path_factory.getbasetemp() / "any-bytes"  # rewritten by every example
    file.write_bytes(content)
    assert main(["validate-menu", str(file)]) in (0, 1, 2)
    argv = route_args(fixture_menu_path, fixture_dataset_path, file.parent / "any-bytes-runs",
                      filter="base_only")
    assert main(argv + ["--config", str(file)]) in (0, 1, 2)


# Text that may hold a lone surrogate (category Cs), which st.text() never draws.
texts_with_surrogates = st.text(st.characters() | st.characters(categories=["Cs"]), max_size=6)


def holds_a_surrogate(text: str) -> bool:
    return any(0xD800 <= ord(c) <= 0xDFFF for c in text)


def breaks_a_line(text: str) -> bool:
    """Whether ``text`` holds a control character, U+2028 or U+2029, which no menu label may hold."""
    return any(unicodedata.category(c) in ("Cc", "Zl", "Zp") for c in text)


def read_back(text: str) -> str:
    """``text`` written to a JSON file and read again: an escaped high and low surrogate make one character."""
    return json.loads(json.dumps(text))


@settings(max_examples=100, deadline=None)
@given(label=texts_with_surrogates, text=texts_with_surrogates, model=texts_with_surrogates)
@example(label="", text="&\n", model="")  # a text that ends in a newline is routed as it is
@example(label="\n2-9: Fake", text="", model="")  # a label that would forge a path line is refused
def test_text_that_may_hold_a_lone_surrogate_is_routed_or_refused_with_its_exit_code(tmp_path_factory, label,
                                                                                     text, model):
    # A menu label, a dataset text and a model name: a lone surrogate in the
    # menu or the dataset is refused with exit 1, in a setting with exit 2.
    # A label that holds a control character or a line separator is refused with exit 1 too.
    # The menu is judged first, then the settings, then the dataset's values.
    directory = tmp_path_factory.getbasetemp() / "surrogates"  # rewritten by every example
    directory.mkdir(exist_ok=True)
    menu, dataset = directory / "menu.json", directory / "intents.jsonl"
    menu.write_text(json.dumps({"name": "One", "root": {"label": "Root", "kind": "menu", "children": [
        {"label": "Pay " + label, "digit": "1", "kind": "action", "action_type": "self_service"}]}}), encoding="utf-8")
    dataset.write_text(json.dumps(make_record("1", "my bill " + text)._asdict()) + "\n", encoding="utf-8")
    argv = route_args(menu, dataset, directory / "runs") + [f"--model={model}", "--force"]
    menu_refused = holds_a_surrogate(read_back(label)) or breaks_a_line(label)
    expected = 1 if menu_refused else 2 if holds_a_surrogate(model) else 1 if holds_a_surrogate(read_back(text)) else 0
    assert main(argv) == expected


# --- interrupts and closed pipes ------------------------------------------------------------

class Child(NamedTuple):
    """``python -m ivroute.cli`` of ``argv``, its placeholders as a Row's, in
    a child process whose stdout is buffered, as in a shell pipe, or is a
    pipe whose reader has gone (``closed_pipe``), as in ``| head -0``. It is
    sent ``line``, its stdin kept open, and answers it with ``answer``. Then
    it gets a Ctrl-C (``interrupt``), once that answer is out or the
    endpoint, answering as chat_server's options in ``server`` say, has
    answered a request, or its stdin is closed. It ends with ``code``, its
    whole stderr, no more output, and ``saved`` entries under {out}."""

    argv: tuple[str, ...]
    code: int
    err: str = ""
    line: str | None = None
    answer: str = ""
    interrupt: bool = False
    server: dict = {}
    closed_pipe: bool = False
    saved: int = 0


def check_child(row, tmp_path, fixture_menu_path, fixture_dataset_path, chat_server):
    server = chat_server(**row.server)
    inputs = {"menu": fixture_menu_path, "dataset": fixture_dataset_path, "out": tmp_path, "url": server.url}
    read_end, write_end = os.pipe()
    stdout = open(read_end, encoding="utf-8")
    if row.closed_pipe:
        stdout.close()
    with contextlib.closing(stdout), subprocess.Popen(
            [sys.executable, "-m", "ivroute.cli", *(fill(arg, inputs) for arg in row.argv)], env=child_env(), text=True,
            stdin=subprocess.PIPE, stdout=write_end, stderr=subprocess.PIPE) as child:
        os.close(write_end)
        try:
            if row.line is not None:
                child.stdin.write(row.line)
                child.stdin.flush()
                assert select.select([stdout], [], [], 20)[0], "no answer while stdin was open"
                assert stdout.readline() == row.answer
            deadline = time.monotonic() + 30
            while row.interrupt and row.line is None and not server.answered and time.monotonic() < deadline:
                time.sleep(0.01)
            if row.interrupt:
                assert row.line is not None or server.answered, "no request was sent"
                child.send_signal(signal.SIGINT)
            else:
                child.stdin.close()
            assert (child.wait(timeout=60), child.stderr.read()) == (row.code, row.err)
            assert row.closed_pipe or stdout.read() == ""
        finally:
            child.kill()  # a no-op once it has ended
    assert len(list(tmp_path.rglob("*"))) == row.saved


QUERY = "i want to check my balance\n"
INTERRUPTED = "error: interrupted\n"
table_tests(globals(), check_child, {
    # Its answer is out, so it is waiting on stdin for the next line; stdin stays open.
    "test_ctrl_c_ends_demo_waiting_on_stdin_with_exit_130": Child(DEMO_KEYWORD, 130, INTERRUPTED, QUERY, BALANCE,
                                                                  interrupt=True),
    # A program that drives demo line by line through pipes waits for each
    # answer before it writes the next line.
    "test_demo_answers_a_line_while_stdin_is_still_open": {
        "path": Child(DEMO_KEYWORD, 0, line=QUERY, answer=BALANCE),
        "invalid": Child(DEMO_HTTP, 0, line=QUERY, answer="INVALID  (reply did not parse: 'press one please')\n",
                         server={"reply": "press one please"})},
    # Every attempt waits a minute to go again.
    "test_ctrl_c_ends_route_waiting_to_retry_with_exit_130": Child(
        (*BASE_ONLY, *HTTP), 130, INTERRUPTED, interrupt=True, server={"status": 503, "retry_after": "60"}),
    "test_output_into_a_closed_pipe_ends_quietly_with_exit_141": {
        "flatten": Child(("flatten", "{menu}"), 141, closed_pipe=True),
        "route": Child(BASE_ONLY, 141, closed_pipe=True, saved=3)},  # the run was saved first
})
