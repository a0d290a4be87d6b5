"""Command-line behavior: exit codes, file outputs, the demo loop, and
configuration layering.

Each command's refusals are rows of its table, run by ``refused``; the
bespoke tests are the successful round trips, request counting and
concurrency, byte-for-byte artifacts, ``hypothesis`` properties and child
processes."""

import argparse
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
from ivroute.cli import _PROVIDER_KINDS, _load_config_file, _make_provider, build_parser, main
from ivroute.datagen import load_dataset, validate_dataset
from ivroute.menu import flatten, load_menu
from ivroute.prompts import RoutingCondition
from ivroute.provider import DEFAULT_API_KEY_ENV
from ivroute import cli, router
from ivroute.router import load_results, run_identity

from conftest import (AnsweringProvider, chat_response, data_text, fail_at_step, golden_text, make_record, numbered,
                      prompt_of, subject_of, table_tests)


def run(argv):
    return main(argv)


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


@pytest.fixture(scope="session")
def oracle_run(tmp_path_factory, fixture_menu_path, fixture_dataset_path) -> Path:
    """The directory of the fixture's flattened base-only oracle run, routed once; tests edit copies of it."""
    out = tmp_path_factory.mktemp("oracle")
    assert run(route_args(fixture_menu_path, fixture_dataset_path, out, condition="flattened",
                          filter="base_only")) == 0
    return out / "run-c3ca07a72a4f"


def copy_run(oracle_run: Path, directory: Path) -> Path:
    return shutil.copytree(oracle_run, directory / oracle_run.name)


# --- the refusal tables -------------------------------------------------------------------

class Row(NamedTuple):
    """A command line the CLI refuses, and all it prints. ``argv``, ``err``,
    ``out`` and the values of ``env`` hold placeholders: {tmp}, the row's
    directory; {menu} and {dataset}, the fixture's files unless ``prepare``
    wrote others; {out}, {tmp}/out; {run}, a copy of the oracle run; {url} and
    {port}, a loopback chat endpoint; {vouched}, the run's results_sha256, and
    {digest}, the sha256 of {run}/results.jsonl once ``prepare`` has run;
    {usage} and "{usage <command>}", argparse's usage lines.
    ``prepare(inputs)`` writes or edits the row's inputs, and may set
    placeholders, before the one call of ``main``."""

    argv: tuple[str, ...]
    code: int
    err: str
    out: str = ""
    prepare: Callable[[dict], object] | None = None
    env: tuple[tuple[str, str], ...] = ()


def fill(text: str, inputs: dict) -> str:
    for key, value in inputs.items():
        text = text.replace("{" + key + "}", str(value))
    return text


def usages() -> dict:
    parser = build_parser()
    (commands,) = (action for action in parser._actions if isinstance(action, argparse._SubParsersAction))
    return {"usage": parser.format_usage(),
            **{f"usage {name}": command.format_usage() for name, command in commands.choices.items()}}


def refused(rows, tmp_path, fixture_menu_path, fixture_dataset_path, oracle_run, chat_server, monkeypatch, capsys):
    """Run a Row, or each Row of a tuple in turn, each in a directory of its
    own, with "i want to check my balance" on stdin. Check the exit code and
    the whole stderr and stdout; that the command wrote nothing, since the
    files under the row's directory are the same, byte for byte, before and
    after; and that no request reached {url}."""
    server = chat_server()
    vouched = json.loads((oracle_run / "manifest.json").read_text(encoding="utf-8"))["results_sha256"]
    for index, row in enumerate((rows,) if isinstance(rows, Row) else rows):
        tmp = tmp_path / str(index)
        inputs = {"tmp": tmp, "menu": fixture_menu_path, "dataset": fixture_dataset_path, "out": tmp / "out",
                  "run": shutil.copytree(oracle_run, tmp / "run"), "url": server.url, "port": server.port,
                  "vouched": vouched, **usages()}
        if row.prepare:
            row.prepare(inputs)
        inputs["digest"] = sha256_of(tmp / "run" / "results.jsonl")
        for name, value in row.env:
            monkeypatch.setenv(name, fill(value, inputs))
        monkeypatch.setattr("sys.stdin", io.StringIO("i want to check my balance\n"))
        before = contents(tmp)
        try:
            code = main([fill(arg, inputs) for arg in row.argv])  # returned: an exception would leave main
        except SystemExit as exc:  # argparse's refusal
            code = exc.code
        captured = capsys.readouterr()
        assert (code, captured.err, captured.out) == (row.code, fill(row.err, inputs), fill(row.out, inputs))
        assert contents(tmp) == before
    assert server.accepted == 0


def test_a_table_may_not_take_the_name_of_a_test():
    namespace = {"__name__": "test_example", "test_taken": print}
    table_tests(namespace, lambda row: None, {"test_free": 1})
    for name in ("test_taken", "test_free"):  # a test's name, and a row's of an earlier table
        with pytest.raises(ValueError) as refusal:
            table_tests(namespace, lambda row: None, {name: 2})
        assert str(refusal.value) == f"test_example already binds {name!r}: a table may not replace it"
    assert namespace["test_taken"] is print and namespace["test_free"].__defaults__ == (1,)


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


# --- validate-menu -------------------------------------------------------------------

def test_validate_menu_ok(fixture_menu_path, capsys):
    assert run(["validate-menu", str(fixture_menu_path)]) == 0
    assert "23 terminal paths" in capsys.readouterr().out


def first_child(doc):
    return doc["root"]["children"][0]["children"][0]


VALIDATE = ("validate-menu", "{menu}")


def invalid_menu(doc, error, argv=VALIDATE):
    return Row(argv, 1, f"error: invalid menu: {error}\n", prepare=with_menu(doc))


def first_child(doc):
    return doc["root"]["children"][0]["children"][0]


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
table_tests(globals(), refused, VALIDATE_MENU)


# --- flatten ---------------------------------------------------------------------------

def test_flatten_tsv_matches_golden(fixture_menu_path, capsys):
    assert run(["flatten", str(fixture_menu_path), "--format", "tsv"]) == 0
    assert capsys.readouterr().out == golden_text("agentnet.paths.tsv")


def test_flatten_prompt_lines(fixture_menu_path, capsys):
    assert run(["flatten", str(fixture_menu_path), "--format", "prompt-lines"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 23
    assert lines[0] == "1-1: Billing and Account Management -> Check Balance"


def test_flatten_single_action_menu(tmp_path, capsys):
    doc = {"name": "One", "root": {"label": "Root", "kind": "menu", "prompt_text": "", "children": [
        {"label": "Only", "digit": "1", "kind": "action", "action_type": "self_service"}]}}
    menu = tmp_path / "one.menu.json"
    menu.write_text(json.dumps(doc), encoding="utf-8")
    assert run(["flatten", str(menu)]) == 0
    assert capsys.readouterr().out == "1\tOnly\tself_service\n"


# --- gen-intents -----------------------------------------------------------------------

# The error of a call that chat_server answers with a 400, a final status.
REFUSED = 'HTTP 400: {"error": "unavailable"}'


def about_subject(prompt):
    """One complaint about what a generation prompt names: a path's
    breadcrumb, or the text to paraphrase."""
    return numbered([f"about {subject_of(prompt)}"])


def gen_args(menu, url, out, per_node=1, variants=0, *flags):
    return ["gen-intents", str(menu), "--per-node", str(per_node), "--variants", str(variants), *flags,
            "--provider", "http", "--endpoint", url, "--dataset-out", str(out)]


def test_gen_intents_writes_a_valid_dataset(tmp_path, fixture_menu_path, chat_server, capsys):
    server = chat_server(reply=about_subject)  # 23 base prompts, then 23 paraphrase prompts
    assert run(gen_args(fixture_menu_path, server.url, tmp_path / "generated.jsonl", 1, 1)) == 0
    assert "wrote 46 records" in capsys.readouterr().out
    assert server.answered == 46
    ds = load_dataset(tmp_path / "generated.jsonl")
    assert len(ds.records) == 46
    assert validate_dataset(ds, flatten(load_menu(fixture_menu_path))) == []


def test_gen_intents_sends_a_jobs_next_call_in_the_next_round(tmp_path, fixture_menu_path, chat_server, capsys):
    # The first path's first answer holds one of the two complaints asked
    # for, so it needs a second call: that goes out once every path's first
    # call has been answered. Each of its two calls gets a 503 first, and
    # with --max-retries 1 each call still gets its answer: the retry
    # budget is per call, not per path.
    paths = flatten(load_menu(fixture_menu_path))
    first = paths[0].breadcrumb_text()
    answered = Counter()

    def reply(prompt):
        subject = subject_of(prompt)
        answered[subject] += 1
        if subject == first:
            return numbered([f"complaint {answered[subject]} about {subject}"])
        return numbered([f"about {subject}", f"more about {subject}"])

    server = chat_server(reply=reply, statuses=[503] + [200] * 23 + [503], retry_after="0")
    out_file = tmp_path / "generated.jsonl"
    assert run(gen_args(fixture_menu_path, server.url, out_file, 2, 0, "--max-in-flight", "1",
                        "--max-retries", "1")) == 0
    assert "wrote 46 records" in capsys.readouterr().out
    sent = [subject_of(prompt_of(request)) for request in server.requests]
    others = [tp.breadcrumb_text() for tp in paths[1:]]
    assert sent == [first, others[0], first, *others[1:], first, first]  # each 503 retried after the next call
    ds = load_dataset(out_file)
    assert [r.text for r in ds.records[:2]] == [f"complaint 1 about {first}", f"complaint 2 about {first}"]
    assert validate_dataset(ds, paths) == []


def test_gen_intents_failed_call_exit_1(tmp_path, fixture_menu_path, chat_server, capsys):
    server = chat_server(reply=about_subject, statuses=[200], status=400)  # one answer for 23 paths
    assert run(gen_args(fixture_menu_path, server.url, tmp_path / "intents.jsonl", 1, 1)) == 1
    assert capsys.readouterr().err == f"error: {REFUSED}\n"
    assert not (tmp_path / "intents.jsonl").exists()


@pytest.mark.skipif(not (os.path.exists("/dev/full") and stat.S_ISCHR(os.stat("/dev/full").st_mode)),
                    reason="needs /dev/full, a device every write to fails")
def test_gen_intents_dataset_that_cannot_be_written_exit_1(fixture_menu_path, chat_server, capsys):
    server = chat_server(reply=about_subject)
    assert run(gen_args(fixture_menu_path, server.url, "/dev/full")) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot write /dev/full: [Errno 28] ") and captured.err.count("\n") == 1
    assert captured.out == "" and server.answered == 23  # every call was made, then the write failed


def test_gen_intents_dataset_that_cannot_be_renamed_into_place_exit_1_and_keeps_the_old_one(
        tmp_path, fixture_menu_path, chat_server, monkeypatch, capsys):
    out_file = tmp_path / "intents.jsonl"
    out_file.write_text("old dataset\n", encoding="utf-8")

    def fail_renaming(source, target):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "replace", fail_renaming)
    assert run(gen_args(fixture_menu_path, chat_server(reply=about_subject).url, out_file)) == 1
    assert capsys.readouterr().err == f"error: cannot write {out_file}: [Errno 28] No space left on device\n"
    assert list(tmp_path.iterdir()) == [out_file]  # no temporary file left beside it
    assert out_file.read_text(encoding="utf-8") == "old dataset\n"


def test_gen_intents_one_text_for_every_path_exit_1(fixture_menu_path, chat_server, tmp_path, capsys):
    server = chat_server()  # every reply is "1-1", whichever path it is for
    assert run(gen_args(fixture_menu_path, server.url, tmp_path / "intents.jsonl", 1, 1, "--max-in-flight", "1")) == 1
    err = capsys.readouterr().err
    assert "violation: record 1-2:b00: same text as record 1-1:b00, which is labelled 1-1" in err
    assert err.endswith("error: generated dataset failed validation\n")
    assert not (tmp_path / "intents.jsonl").exists()
    assert server.wait(open=0)


def test_gen_intents_stages_share_one_connection(fixture_menu_path, chat_server, tmp_path, capsys):
    # One complaint per path, its breadcrumb; a paraphrase repeats its
    # original, which is asked again once and then kept.
    server = chat_server(reply=subject_of)
    assert run(gen_args(fixture_menu_path, server.url, tmp_path / "intents.jsonl", 1, 1, "--max-in-flight", "1")) == 0
    assert "wrote 46 records" in capsys.readouterr().out
    assert server.answered == 3 * 23  # base, paraphrase, and its retry for each path
    assert server.accepted == 1  # the paraphrase stage reused the base stage's connection
    assert server.wait(open=0)  # closed once, when the command ended


GEN_INTENTS = ("gen-intents", "{menu}", "--provider", "http", "--endpoint", "{url}")

GEN_INTENTS_REFUSALS = {
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
table_tests(globals(), refused, GEN_INTENTS_REFUSALS)


# --- route -----------------------------------------------------------------------------

def test_route_oracle_base_only(tmp_path, fixture_menu_path, fixture_dataset_path, capsys):
    assert run(route_args(fixture_menu_path, fixture_dataset_path, tmp_path, condition="flattened",
                          filter="base_only")) == 0
    assert "routed 230 intents, accuracy 100.00%" in capsys.readouterr().out
    run_dirs = list(tmp_path.glob("run-*"))
    assert len(run_dirs) == 1
    assert len(load_results(run_dirs[0] / "results.jsonl")) == 230
    manifest = json.loads((run_dirs[0] / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["dataset_filter"] == "base_only"
    assert run_dirs[0].name == f"run-{manifest['run_id']}"
    assert list(manifest) == ["menu_name", "menu_hash", "dataset_hash", "condition", "dataset_filter",
                              "model_name", "parse_mode", "run_id", "failures", "timestamp", "template_sha256",
                              "ivroute_version", "results_sha256"]
    assert manifest["results_sha256"] == sha256_of(run_dirs[0] / "results.jsonl")
    # What made the run, outside its run id: the bytes of the template it filled, and the version.
    template = Path(ivroute.__file__).parent / "data" / "template_flattened.txt"
    assert manifest["template_sha256"] == sha256_of(template)
    assert manifest["ivroute_version"] == ivroute.__version__
    assert manifest["run_id"] == "c3ca07a72a4f"
    assert run(["eval", str(run_dirs[0] / "results.jsonl"), "--menu", str(fixture_menu_path)]) == 0


def test_route_descriptive_all_920(tmp_path, fixture_menu_path, fixture_dataset_path, capsys):
    argv = route_args(fixture_menu_path, fixture_dataset_path, tmp_path, condition="descriptive", filter="all")
    assert run(argv) == 0
    assert "routed 920 intents, accuracy 100.00%" in capsys.readouterr().out
    # The keyword double reads the query and the offered paths out of the outline's prompt too.
    assert run(argv + ["--provider", "keyword"]) == 0
    assert "routed 920 intents, accuracy 28.26%" in capsys.readouterr().out


def test_route_refuses_overwrite_without_force(tmp_path, fixture_menu_path,
                                               fixture_dataset_path, capsys):
    argv = route_args(fixture_menu_path, fixture_dataset_path, tmp_path,
                      condition="flattened", filter="base_only")
    assert run(argv) == 0
    assert run(argv) == 1
    assert "already exists" in capsys.readouterr().err
    assert run(argv + ["--force"]) == 0


def test_route_force_replaces_the_report_only_once_new_results_are_written(
        tmp_path, fixture_menu_path, fixture_dataset_path, oracle_run, chat_server, capsys):
    run_dir = copy_run(oracle_run, tmp_path)
    evaluate = ["eval", str(run_dir / "results.jsonl"), "--menu", str(fixture_menu_path)]
    assert run(evaluate) == 0
    report = run_dir / f"eval-{run_dir.name.removeprefix('run-')}" / "report.json"
    oracle_results = (run_dir / "results.jsonl").read_bytes()
    # The same run id under another provider: the model name is in it, the provider kind is not.
    rerun = route_args(fixture_menu_path, fixture_dataset_path, tmp_path, condition="flattened",
                       filter="base_only", model="oracle-mock") + ["--force", "--provider"]
    # A rerun that aborts keeps the old results and their report together.
    assert run(rerun + ["http", "--endpoint", chat_server(status=400).url]) == 1
    assert (run_dir / "results.jsonl").read_bytes() == oracle_results
    assert json.loads(report.read_text(encoding="utf-8"))["accuracy"] == 1.0
    assert run(rerun + ["keyword"]) == 0
    assert list(tmp_path.glob("run-*")) == [run_dir]
    assert not report.parent.exists()  # it scored the results just replaced
    capsys.readouterr()
    assert run(evaluate) == 0
    assert "accuracy 30.87% over 230 results" in capsys.readouterr().out


def test_route_a_set_temperature_names_its_own_run(tmp_path, fixture_menu_path, fixture_dataset_path):
    argv = route_args(fixture_menu_path, fixture_dataset_path, tmp_path, condition="flattened",
                      filter="base_only")
    assert run(argv + ["--temperature", "0"]) == 0
    assert run(argv + ["--temperature", "1.5"]) == 0  # not refused as the same run
    names = {run_dir.name for run_dir in tmp_path.glob("run-*")}
    assert len(names) == 2 and "run-c3ca07a72a4f" not in names  # the unset temperature's run


# argparse words its list of choices differently across Python releases, so
# the refusal of a choice it does not offer pins no whole message.
def test_route_unknown_condition_usage_error(fixture_menu_path, fixture_dataset_path):
    with pytest.raises(SystemExit) as excinfo:
        run(route_args(fixture_menu_path, fixture_dataset_path, "out", condition="nonsense"))
    assert excinfo.value.code == 2


def test_a_provider_kind_that_is_gone_is_refused(tmp_path, fixture_menu_path, fixture_dataset_path, capsys):
    argv = route_args(fixture_menu_path, fixture_dataset_path, tmp_path / "runs")
    with pytest.raises(SystemExit) as excinfo:
        run(argv + ["--provider", "scripted"])
    assert excinfo.value.code == 2
    assert "argument --provider: invalid choice: 'scripted'" in capsys.readouterr().err
    file = tmp_path / "config.json"
    file.write_text(json.dumps({"providers": {"routing": {"kind": "scripted"}}}), encoding="utf-8")
    assert run(argv + ["--config", str(file)]) == 2
    assert capsys.readouterr().err == ("error: bad provider settings: kind must be one of http, oracle, keyword, "
                                       "not 'scripted'\n")
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("kind", [kind for kind in _PROVIDER_KINDS if kind != "http"])
def test_a_run_id_names_one_set_of_rows_at_any_concurrency(tmp_path, fixture_menu_path, fixture_dataset_path,
                                                            capsys, kind):
    # Each double's reply depends only on its prompt, so two runs of one run
    # id hold the same rows, however their eight workers interleave.
    runs = []
    for out in (tmp_path / "first", tmp_path / "second"):
        argv = route_args(fixture_menu_path, fixture_dataset_path, out, filter="base_only", max_in_flight=8)
        assert run(argv + ["--provider", kind]) == 0
        (run_dir,) = out.glob("run-*")
        rows = [{**json.loads(line), "latency": None}
                for line in (run_dir / "results.jsonl").read_text(encoding="utf-8").splitlines()]
        runs.append((run_dir.name, rows))
    assert runs[0] == runs[1] and len(runs[0][1]) == 230


@pytest.mark.parametrize("budget", ["0", "1"])
def test_route_error_budget_bounds_are_allowed(tmp_path, fixture_menu_path,
                                               fixture_dataset_path, budget):
    argv = route_args(fixture_menu_path, fixture_dataset_path, tmp_path, filter="base_only")
    assert run(argv + ["--error-budget", budget]) == 0


def test_route_hashes_its_inputs_once(tmp_path, fixture_menu_path, fixture_dataset_path,
                                      monkeypatch):
    hashed = []
    dataset_to_jsonl = router.dataset_to_jsonl
    monkeypatch.setattr(router, "dataset_to_jsonl", lambda ds: hashed.append(1) or dataset_to_jsonl(ds))
    argv = route_args(fixture_menu_path, fixture_dataset_path, tmp_path, filter="base_only")
    assert run(argv) == 0
    assert len(hashed) == 1  # for the run id, before routing; the manifest reuses it
    (run_dir,) = tmp_path.glob("run-*")
    manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    tree = load_menu(fixture_menu_path)
    ds = load_dataset(fixture_dataset_path, menu_name=tree.name)
    identity = run_identity(ds, tree, RoutingCondition.FLATTENED_PATHS, "base_only", "oracle-mock", False)
    assert list(manifest)[: len(identity)] == list(identity)
    assert {key: manifest[key] for key in identity} == identity
    assert run_dir.name == f"run-{identity['run_id']}"


def test_route_judges_and_names_its_run_once(tmp_path, fixture_menu_path, fixture_dataset_path, monkeypatch):
    calls = Counter()

    def counting(module, name):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: calls.update([name]) or fn(*args))

    counting(cli, "validate_dataset")
    counting(router, "validate_dataset")
    counting(router, "dataset_to_jsonl")
    assert run(route_args(fixture_menu_path, fixture_dataset_path, tmp_path)) == 0
    assert calls == {"validate_dataset": 1, "dataset_to_jsonl": 1}


def test_route_model_flag_that_is_no_utf8_exit_2_before_any_call(tmp_path, fixture_menu_path,
                                                                 fixture_dataset_path):
    # argv bytes that are no UTF-8 reach Python as lone surrogates: b"\xff" as "\udcff"
    argv = route_args(fixture_menu_path, fixture_dataset_path, tmp_path / "runs", filter="base_only")
    with cli_child(*argv, os.fsdecode(b"--model=m\xff"), stdout=subprocess.PIPE) as child:
        out, err = child.communicate(timeout=30)
    assert child.returncode == 2 and out == ""
    assert err == "error: bad provider settings: model_name holds a lone surrogate: 'm\\udcff'\n"
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("command", ["route", "gen-intents", "eval"])
def test_an_output_path_from_argv_bytes_that_are_no_utf8_is_printed_escaped(tmp_path, fixture_menu_path,
                                                                           fixture_dataset_path, oracle_run,
                                                                           chat_server, capsys,
                                                                           command):
    # The artifact is written under the path the bytes name; the line that
    # names it escapes the byte instead of ending in a UnicodeEncodeError.
    out = tmp_path / os.fsdecode(b"out\xff")
    if command == "route":
        argv = route_args(fixture_menu_path, fixture_dataset_path, out, filter="base_only")
    elif command == "gen-intents":
            argv = gen_args(fixture_menu_path, chat_server(reply=about_subject).url, out / "intents.jsonl")
    else:
        run_dir = copy_run(oracle_run, tmp_path)
        argv = ["eval", str(run_dir / "results.jsonl"), "--menu", str(fixture_menu_path), "--out", str(out)]
    assert run(argv) == 0
    printed = capsys.readouterr().out
    assert f"{tmp_path}/out\\udcff/" in printed
    assert len(list(out.iterdir())) == 1


@pytest.mark.parametrize("condition", ["flattened", "descriptive"])
def test_route_oracle_scores_texts_that_end_in_a_newline_as_they_are(tmp_path, condition, capsys):
    # The prompt's query is the intent's text, the oracle's key for its answer.
    menu, dataset = tmp_path / "menu.json", tmp_path / "intents.jsonl"
    menu.write_text(json.dumps({"name": "Three", "root": {"label": "Root", "kind": "menu", "children": [
        {"label": label, "digit": digit, "kind": "action", "action_type": "self_service"}
        for digit, label in (("1", "Pay"), ("2", "Repair"), ("3", "Cancel"))]}}), encoding="utf-8")
    records = [make_record("1", "my bill is wrong\n"), make_record("2", "the internet is down\r\n"),
               make_record("3", "cancel my plan\n\n")]
    dataset.write_text("".join(json.dumps(r._asdict()) + "\n" for r in records), encoding="utf-8")
    assert run(route_args(menu, dataset, tmp_path / "runs", condition=condition)) == 0
    assert "routed 3 intents, accuracy 100.00%" in capsys.readouterr().out.splitlines()


def test_route_names_each_failure_once(tmp_path, fixture_menu_path, fixture_dataset_path, chat_server, capsys):
    server = chat_server(statuses=[200, 200], status=400)  # one worker: the first two intents are answered
    assert run(route_args(fixture_menu_path, fixture_dataset_path, tmp_path, filter="base_only", provider="http",
                          endpoint=server.url, max_in_flight=1)) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "error: run aborted: 3 provider failure(s) exceeded the budget of 2"
    assert err[1:] == [f"  failed 1-1:b0{i}: {REFUSED}" for i in (2, 3, 4)]


def test_route_names_five_failures_and_counts_the_rest(tmp_path, fixture_menu_path, fixture_dataset_path,
                                                       chat_server, capsys):
    argv = route_args(fixture_menu_path, fixture_dataset_path, tmp_path, filter="base_only", max_in_flight=1,
                      error_budget=0.03) + ["--provider", "http", "--endpoint", chat_server(status=400).url]
    assert run(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "error: run aborted: 7 provider failure(s) exceeded the budget of 6"
    assert err[1:] == [f"  failed 1-1:b0{i}: {REFUSED}" for i in range(5)] + ["  ... and 2 more"]
    assert not list(tmp_path.glob("run-*"))


def test_route_force_over_results_that_cannot_be_written_exit_1(tmp_path, fixture_menu_path,
                                                                fixture_dataset_path, oracle_run, monkeypatch,
                                                                capsys):
    run_dir = copy_run(oracle_run, tmp_path)
    evaluate = ["eval", str(run_dir / "results.jsonl"), "--menu", str(fixture_menu_path)]
    assert run(evaluate) == 0
    old_run = contents(run_dir)
    capsys.readouterr()
    fail_at_step(monkeypatch, 0)  # the first file write
    argv = route_args(fixture_menu_path, fixture_dataset_path, tmp_path, filter="base_only")
    assert run(argv + ["--force"]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot write {run_dir}: ")
    monkeypatch.undo()
    assert contents(run_dir) == old_run and len(old_run) == 7  # the old run and its report
    assert list(tmp_path.iterdir()) == [run_dir]  # no temporary entry left beside it
    assert run(evaluate) == 0
    assert contents(run_dir) == old_run


def test_route_force_over_a_linked_run_directory_replaces_the_link_and_keeps_its_target(
        tmp_path, fixture_menu_path, fixture_dataset_path, oracle_run):
    target = copy_run(oracle_run, tmp_path / "elsewhere")
    old_run = contents(target)
    runs = tmp_path / "runs"
    runs.mkdir()
    (runs / target.name).symlink_to(target, target_is_directory=True)
    assert run(route_args(fixture_menu_path, fixture_dataset_path, runs, filter="base_only") + ["--force"]) == 0
    run_dir = runs / target.name
    assert run_dir.is_dir() and not run_dir.is_symlink()
    assert contents(run_dir).keys() == {"results.jsonl", "manifest.json"}
    assert contents(target) == old_run
    assert list(runs.iterdir()) == [run_dir]  # no moved-aside link or temporary entry left


def test_route_skips_blank_dataset_lines_and_keeps_the_run_id(tmp_path, fixture_menu_path,
                                                              fixture_dataset_path):
    lines = fixture_dataset_path.read_text(encoding="utf-8").splitlines(keepends=True)
    spaced = tmp_path / "spaced.jsonl"
    spaced.write_text("\n" + "".join(lines[:100]) + " \t\n\n" + "".join(lines[100:]) + "\n", encoding="utf-8")
    for name, dataset in [("plain", fixture_dataset_path), ("spaced", spaced)]:
        assert run(route_args(fixture_menu_path, dataset, tmp_path / name, filter="base_only")) == 0
    assert [run_dir.name for run_dir in (tmp_path / "spaced").iterdir()] == ["run-c3ca07a72a4f"]
    assert [run_dir.name for run_dir in (tmp_path / "plain").iterdir()] == ["run-c3ca07a72a4f"]


def test_route_summary_counts_the_failures_it_does_not_score(tmp_path, fixture_menu_path,
                                                             fixture_dataset_path, chat_server,
                                                             capsys):
    server = chat_server(statuses=[200] * 228, status=400)  # two of the 230 base intents get no reply
    argv = route_args(fixture_menu_path, fixture_dataset_path, tmp_path, filter="base_only",
                      max_in_flight=1) + ["--provider", "http", "--endpoint", server.url]
    assert run(argv) == 0
    assert capsys.readouterr().out.splitlines()[0] == "routed 228 intents, accuracy 4.39%, 2 failed and not scored"


def test_route_every_intent_failing_within_budget_exit_1(tmp_path, fixture_menu_path,
                                                         fixture_dataset_path, chat_server, capsys):
    assert run(route_args(fixture_menu_path, fixture_dataset_path, tmp_path, filter="base_only", provider="http",
                          endpoint=chat_server(status=400).url, error_budget=1)) == 1  # returned: nothing to score
    err = capsys.readouterr().err
    assert err.startswith("error: no intent was routed (230 provider failure(s))")
    (run_dir,) = tmp_path.glob("run-*")
    assert (run_dir / "results.jsonl").read_text(encoding="utf-8") == ""
    manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    assert len(manifest["failures"]) == 230


def test_route_reply_content_that_is_no_text_exit_1(tmp_path, fixture_menu_path, fixture_dataset_path,
                                                    chat_server, capsys):
    server = chat_server(reply=219)  # "content": 219
    assert run(route_args(fixture_menu_path, fixture_dataset_path, tmp_path, filter="base_only", provider="http",
                          endpoint=server.url, max_in_flight=1)) == 1  # returned: an exception would leave main
    err = capsys.readouterr().err
    assert err.startswith("error: run aborted: 3 provider failure(s) exceeded the budget of 2")
    assert "content that is no text" in err and "Traceback" not in err
    assert server.answered == 3
    assert server.wait(open=0)


def test_a_reply_holding_a_lone_surrogate_is_saved_with_a_replacement_character(
        tmp_path, fixture_menu_path, fixture_dataset_path, loopback, capsys):
    body = '{"choices": [{"message": {"content": "1-1\\ud83d"}}]}'  # half a surrogate pair, escaped
    server = loopback(lambda request, index: chat_response(body=body))
    argv = route_args(fixture_menu_path, fixture_dataset_path, tmp_path, filter="base_only")
    assert run(argv + ["--provider", "http", "--endpoint", server.url]) == 0
    (run_dir,) = tmp_path.glob("run-*")
    rows = load_results(run_dir / "results.jsonl")
    assert len(rows) == 230 and {(r.raw_response, r.predicted) for r in rows} == {("1-1\ufffd", "INVALID")}
    capsys.readouterr()
    assert run(["eval", str(run_dir / "results.jsonl"), "--menu", str(fixture_menu_path)]) == 0
    assert "accuracy 0.00% over 230 results" in capsys.readouterr().out  # each row regraded as saved


def test_route_rows_hold_the_answer_alone(oracle_run):
    rows = [json.loads(line) for line in (oracle_run / "results.jsonl").read_text(encoding="utf-8").splitlines()]
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
    "test_route_missing_dataset_exit_2": Row(
        ("route", "--menu", "{menu}", "--dataset", "{tmp}/absent.jsonl", "--provider", "oracle", "--out", "{out}"), 2,
        "error: no such dataset file: {tmp}/absent.jsonl\n"),
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
table_tests(globals(), refused, ROUTE_REFUSALS)


# --- eval ------------------------------------------------------------------------------

def test_eval_oracle_run(tmp_path, fixture_menu_path, oracle_run, capsys):
    run_dir = copy_run(oracle_run, tmp_path)
    assert run(["eval", str(run_dir / "results.jsonl"), "--menu", str(fixture_menu_path)]) == 0
    assert "accuracy 100.00% over 230 results" in capsys.readouterr().out
    report_dir = run_dir / f"eval-{run_dir.name.removeprefix('run-')}"
    assert report_dir.is_dir()
    report = json.loads((report_dir / "report.json").read_text(encoding="utf-8"))
    assert report["accuracy"] == 1.0
    assert report["dataset_filter"] == "base_only"
    summary = (report_dir / "summary.md").read_text(encoding="utf-8")
    assert "| Flattened Paths | Base Only | 100.00 | 230 |" in summary


# The sha256 of each file eval writes for the fixture's four oracle runs, named by run id.
ORACLE_REPORTS = {
    "c3ca07a72a4f": ("flattened", "base_only", {
        "report.json": "c6cb6da9168619d042124020a24afc190a0f5df5121c19840d5040079aef6475",
        "matrix.csv": "5ee26d428aea9533c9142f4076aff482ec2abae3a1dcf8cecb4ccb4d3cb9fdcf",
        "matrix_long.csv": "2cb852598550cf3c5e92fac20620b5f71d9090db1d2a23d203d6cc7e48d168e0",
        "summary.md": "d9c8c78cfb7f988c2760dd754aea630fe61e7bdbbd9d20710857be57f0d05f52"}),
    "dfc44e400268": ("flattened", "all", {
        "report.json": "6d87560bf6f7da6f0297cbdf147837cc2742fdd948417fc7ab86c08b184664a0",
        "matrix.csv": "e90258698e3c7f8e5abec26baf568eb514375af76306e3cf7e474f86a58f8a46",
        "matrix_long.csv": "635962ef06c06aca68fae631030a75fff9c00bff71cb3b43228a22ade573cbd8",
        "summary.md": "99c96df1e715658ee9d0c362f3194f3b4a13e91a8a524fb1b708369af1b0d81c"}),
    "8a900ae47168": ("descriptive", "base_only", {
        "report.json": "30f84890c937b22a19a83c1fd8fd4effe4a3e431c19bed9091a566876ba5b101",
        "matrix.csv": "5ee26d428aea9533c9142f4076aff482ec2abae3a1dcf8cecb4ccb4d3cb9fdcf",
        "matrix_long.csv": "2cb852598550cf3c5e92fac20620b5f71d9090db1d2a23d203d6cc7e48d168e0",
        "summary.md": "169fc01470d844464e78ebb4861f1ec1b771506c3d65d53cf384f0ec2efde037"}),
    "f01ca3e681f7": ("descriptive", "all", {
        "report.json": "cde2948ac86d6f8adb3cb215eb3f37f29bd7f150c976265ee4c0b0817ac24c6a",
        "matrix.csv": "e90258698e3c7f8e5abec26baf568eb514375af76306e3cf7e474f86a58f8a46",
        "matrix_long.csv": "635962ef06c06aca68fae631030a75fff9c00bff71cb3b43228a22ade573cbd8",
        "summary.md": "77c7a40834743f72e684b23a3d3a85aefbf186cb079a35d56ddbc835a41fda6f"}),
}


@pytest.mark.parametrize("run_id", ORACLE_REPORTS)
def test_eval_writes_the_pinned_report_of_each_fixture_oracle_run(tmp_path, fixture_menu_path,
                                                                  fixture_dataset_path, run_id):
    condition, record_filter, digests = ORACLE_REPORTS[run_id]
    assert run(route_args(fixture_menu_path, fixture_dataset_path, tmp_path,
                          condition=condition, filter=record_filter)) == 0
    results_file = tmp_path / f"run-{run_id}" / "results.jsonl"
    assert run(["eval", str(results_file), "--menu", str(fixture_menu_path)]) == 0
    report_dir = results_file.parent / f"eval-{run_id}"
    assert {file.name: sha256_of(file) for file in report_dir.iterdir()} == digests


def test_eval_scores_an_earlier_format_row_over_the_menus_classes(tmp_path, fixture_menu_path, oracle_run, capsys):
    run_dir = copy_run(oracle_run, tmp_path)
    results_file = run_dir / "results.jsonl"
    # Rows of an earlier format: a row claiming that 9-9-9 is a terminal path
    # does not make it a class, and rules listed beside a clean reply are ignored.
    rows = [{**json.loads(line), "known_path": True, "normalization_applied": []}
            for line in results_file.read_text(encoding="utf-8").splitlines()]
    rows[3].update(raw_response="9-9-9", predicted="9-9-9", normalization_applied=["bogus", "trim"])
    results_file.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    vouch(run_dir)
    assert run(["eval", str(results_file), "--menu", str(fixture_menu_path)]) == 0
    assert "accuracy 99.57% over 230 results" in capsys.readouterr().out
    report = json.loads((next(run_dir.glob("eval-*")) / "report.json").read_text(encoding="utf-8"))
    matrix = report["matrix"]
    assert matrix["true_labels"] == [tp.path for tp in flatten(load_menu(fixture_menu_path))]
    assert len(matrix["true_labels"]) == 23 and matrix["predicted_labels"][-2:] == ["INVALID", "UNKNOWN_PATH"]
    unknown = {label: row[-1] for label, row in zip(matrix["true_labels"], matrix["counts"]) if row[-1]}
    assert unknown == {rows[3]["ground_truth"]: 1}


def test_eval_refuses_rows_of_two_runs(tmp_path, fixture_menu_path, fixture_dataset_path, capsys):
    runs = {}
    for condition, provider in [("flattened", "keyword"), ("descriptive", "oracle")]:
        out = tmp_path / provider
        assert run(route_args(fixture_menu_path, fixture_dataset_path, out, condition=condition,
                              filter="base_only") + ["--provider", provider]) == 0
        runs[provider] = next(out.glob("run-*"))
    lines = {provider: (run_dir / "results.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
             for provider, run_dir in runs.items()}
    mixed = tmp_path / "mixed"
    mixed.mkdir()
    (mixed / "results.jsonl").write_text("".join(lines["keyword"][:5] + lines["oracle"][:5]),
                                         encoding="utf-8")
    (mixed / "manifest.json").write_bytes((runs["keyword"] / "manifest.json").read_bytes())
    assert_unvouched(mixed / "results.jsonl", fixture_menu_path, capsys)
    # One run's rows beside another run's manifest, which names another model.
    keyword_results = runs["keyword"] / "results.jsonl"
    edit_manifest(runs["keyword"], model_name="oracle-mock")
    assert run(["eval", str(keyword_results), "--menu", str(fixture_menu_path)]) == 1
    assert capsys.readouterr().err.endswith("is not the hash of the fields that name its run\n")
    assert not list(tmp_path.rglob("eval-*"))


def test_eval_grades_only_the_rows_it_hashed(tmp_path, fixture_menu_path, fixture_dataset_path,
                                             monkeypatch, capsys):
    run_dirs = {}
    for provider in ("oracle", "keyword"):  # one run id: the model names a run, not the provider's kind
        assert run(route_args(fixture_menu_path, fixture_dataset_path, tmp_path / provider, filter="base_only",
                              provider=provider, model="m")) == 0
        run_dirs[provider] = next((tmp_path / provider).glob("run-*"))
    assert run_dirs["oracle"].name == run_dirs["keyword"].name
    vouched = {provider: json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))["results_sha256"]
               for provider, run_dir in run_dirs.items()}
    # The keyword run replaces the oracle run's files, as a route --force would,
    # once eval has begun to parse the oracle run's rows.
    parse, swapped = router.result_from_record, []

    def swapping(record):
        if not swapped:
            for name in ("results.jsonl", "manifest.json"):
                os.replace(run_dirs["keyword"] / name, run_dirs["oracle"] / name)
            swapped.append(name)
        return parse(record)

    monkeypatch.setattr(router, "result_from_record", swapping)
    results_file = run_dirs["oracle"] / "results.jsonl"
    capsys.readouterr()
    assert run(["eval", str(results_file), "--menu", str(fixture_menu_path)]) == 1
    assert swapped
    assert capsys.readouterr().err == (f"error: {results_file} has sha256 {vouched['oracle']}, "
                                       f"but the run's results_sha256 is {vouched['keyword']}\n")
    assert not list(tmp_path.rglob("eval-*"))


def assert_unvouched(results_file, menu, capsys):
    """``eval`` refuses ``results_file`` for bytes its manifest does not vouch for, and writes no report."""
    vouched = json.loads((results_file.parent / "manifest.json").read_text(encoding="utf-8"))["results_sha256"]
    capsys.readouterr()
    assert run(["eval", str(results_file), "--menu", str(menu)]) == 1
    assert capsys.readouterr().err == (f"error: {results_file} has sha256 {sha256_of(results_file)}, "
                                       f"but the run's results_sha256 is {vouched}\n")
    assert not list(results_file.parent.glob("eval-*"))


def test_eval_refuses_the_rows_of_another_slice_than_the_manifest(tmp_path, fixture_menu_path,
                                                                   fixture_dataset_path, oracle_run, capsys):
    assert run(route_args(fixture_menu_path, fixture_dataset_path, tmp_path, filter="all")) == 0
    (all_run,) = tmp_path.glob("run-*")
    # The 920 rows of the augmented run beside the base-only run's manifest.
    (all_run / "manifest.json").write_bytes((oracle_run / "manifest.json").read_bytes())
    assert_unvouched(all_run / "results.jsonl", fixture_menu_path, capsys)
    assert not list(tmp_path.rglob("eval-*"))


def test_eval_refuses_a_row_of_another_run_in_place_of_one_of_its_own(tmp_path, fixture_menu_path,
                                                                      fixture_dataset_path, oracle_run, capsys):
    run_dir = copy_run(oracle_run, tmp_path / "base")
    assert run(route_args(fixture_menu_path, fixture_dataset_path, tmp_path / "all", filter="all")) == 0
    all_results = next((tmp_path / "all").glob("run-*/results.jsonl"))
    augmented = next(line for line in all_results.read_text(encoding="utf-8").splitlines(keepends=True)
                     if ":v" in json.loads(line)["intent_id"])
    results_file = run_dir / "results.jsonl"
    lines = results_file.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[5] = augmented  # 230 rows, each intent once, each reply parsing to its prediction
    results_file.write_text("".join(lines), encoding="utf-8")
    assert_unvouched(results_file, fixture_menu_path, capsys)


def test_eval_refuses_labels_edited_to_the_predictions(tmp_path, fixture_menu_path, fixture_dataset_path, capsys):
    assert run(route_args(fixture_menu_path, fixture_dataset_path, tmp_path, filter="base_only")
               + ["--provider", "keyword"]) == 0
    results_file = next(tmp_path.glob("run-*/results.jsonl"))
    rows = [json.loads(line) for line in results_file.read_text(encoding="utf-8").splitlines()]
    wrong = [row for row in rows if row["predicted"] not in (row["ground_truth"], "INVALID")]
    assert len(wrong) > 40
    for row in wrong[:40]:
        row["ground_truth"] = row["predicted"]
    results_file.write_text("".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows), encoding="utf-8")
    assert_unvouched(results_file, fixture_menu_path, capsys)


def test_eval_scores_a_run_routed_before_manifests_held_a_digest_once_vouched(tmp_path, fixture_menu_path,
                                                                             oracle_run, capsys):
    run_dir = copy_run(oracle_run, tmp_path)
    manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    del manifest["results_sha256"]
    (run_dir / "manifest.json").write_text(json.dumps({**manifest, "n_results": 230}), encoding="utf-8")
    evaluate = ["eval", str(run_dir / "results.jsonl"), "--menu", str(fixture_menu_path)]
    assert run(evaluate) == 1
    assert capsys.readouterr().err.endswith("not a route run's manifest (bad results_sha256)\n")
    assert not list(run_dir.glob("eval-*"))
    vouch(run_dir)  # the migration README gives
    assert run(evaluate) == 0
    assert "accuracy 100.00% over 230 results" in capsys.readouterr().out


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
    assert run(evaluate + [str(run_dir / "ok")]) == 0
    if other != row.predicted:
        edited = row._replace(predicted=other)
        router.save_results([edited], run_dir / "results.jsonl")
        vouch(run_dir)
        assert run(evaluate + [str(run_dir / "edited")]) == 1
        assert not (run_dir / "edited").exists()


def test_eval_scores_a_previous_format_results_file_from_the_evidence(tmp_path, fixture_menu_path, oracle_run,
                                                                      capsys):
    run_dir = copy_run(oracle_run, tmp_path)
    results_file = run_dir / "results.jsonl"
    truth = json.loads(results_file.read_text(encoding="utf-8").splitlines()[3])["ground_truth"]
    wrong = "1-2" if truth == "1-1" else "1-1"
    edit_rows(results_file, lambda rows: rows[:3] + [{**rows[3], "raw_response": wrong, "predicted": wrong}]
              + rows[4:])
    vouch(run_dir)
    assert run(["eval", str(results_file), "--menu", str(fixture_menu_path), "--out", str(tmp_path / "now")]) == 0
    # The same answers as rows were written before they held the answer alone:
    # each names the run's condition and model and stores a flag, true even on the wrong answer.
    rows = [json.loads(line) for line in results_file.read_text(encoding="utf-8").splitlines()]
    results_file.write_text("".join(json.dumps({
        "intent_id": row["intent_id"], "condition": "flattened_paths", **row, "correct": True,
        "model_name": "oracle-mock"}) + "\n" for row in rows), encoding="utf-8")
    vouch(run_dir)
    capsys.readouterr()
    assert run(["eval", str(results_file), "--menu", str(fixture_menu_path),
                "--out", str(tmp_path / "previous")]) == 0
    assert "accuracy 99.57% over 230 results" in capsys.readouterr().out
    for name in ("report.json", "matrix.csv", "matrix_long.csv", "summary.md"):
        report = f"eval-{run_dir.name.removeprefix('run-')}/{name}"
        assert (tmp_path / "previous" / report).read_bytes() == (tmp_path / "now" / report).read_bytes()


def test_eval_empty_results_exit_1(tmp_path, fixture_menu_path, fixture_dataset_path, chat_server, capsys):
    assert run(route_args(fixture_menu_path, fixture_dataset_path, tmp_path / "runs", filter="base_only",
                          provider="http", endpoint=chat_server(status=503).url, error_budget=1, max_retries=0)) == 1
    assert capsys.readouterr().err.startswith("error: no intent was routed (230 provider failure(s))")
    (run_dir,) = (tmp_path / "runs").glob("run-*")
    assert run(["eval", str(run_dir / "results.jsonl"), "--menu", str(fixture_menu_path)]) == 1
    assert capsys.readouterr().err == "error: no results to score\n"
    assert not list(run_dir.glob("eval-*"))
    # An empty results file with no manifest beside it is no run at all.
    alone = tmp_path / "alone" / "results.jsonl"
    alone.parent.mkdir()
    alone.write_text("", encoding="utf-8")
    assert run(["eval", str(alone), "--menu", str(fixture_menu_path)]) == 2
    assert capsys.readouterr().err == f"error: no such manifest file: {alone.parent / 'manifest.json'}\n"


def test_eval_report_file_that_cannot_be_written_exit_1(tmp_path, fixture_menu_path, oracle_run, monkeypatch,
                                                        capsys):
    run_dir = copy_run(oracle_run, tmp_path)
    evaluate = ["eval", str(run_dir / "results.jsonl"), "--menu", str(fixture_menu_path)]
    assert run(evaluate) == 0
    report_dir = run_dir / run_dir.name.replace("run-", "eval-")
    written = contents(report_dir)
    capsys.readouterr()
    fail_at_step(monkeypatch, 0)  # the first file write
    assert run(evaluate) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {report_dir}: ") and captured.err.count("\n") == 1
    assert captured.out == ""
    monkeypatch.undo()
    assert contents(report_dir) == written and len(written) == 4  # the old report, byte for byte
    assert sorted(run_dir.iterdir()) == [report_dir, run_dir / "manifest.json", run_dir / "results.jsonl"]
    assert run(evaluate) == 0
    assert contents(report_dir) == written


def test_eval_whose_first_write_fails_exit_1_and_leaves_no_report(tmp_path, fixture_menu_path, oracle_run,
                                                                  monkeypatch, capsys):
    run_dir = copy_run(oracle_run, tmp_path)
    report_dir = run_dir / run_dir.name.replace("run-", "eval-")
    fail_at_step(monkeypatch, 0)
    assert run(["eval", str(run_dir / "results.jsonl"), "--menu", str(fixture_menu_path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot write {report_dir}: ")
    assert sorted(run_dir.iterdir()) == [run_dir / "manifest.json", run_dir / "results.jsonl"]


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
table_tests(globals(), refused, EVAL_REFUSALS)


# --- demo ------------------------------------------------------------------------------

def demo(monkeypatch, menu, lines, *provider):
    """The exit code of ``ivroute demo`` on ``menu`` with ``provider``'s flags and ``lines`` on stdin."""
    monkeypatch.setattr("sys.stdin", io.StringIO(lines))
    return run(["demo", "--menu", str(menu), *provider])


def http_at(server):
    return "--provider", "http", "--endpoint", server.url


def test_demo_keyword_prints_path_and_breadcrumb(fixture_menu_path, monkeypatch, capsys):
    assert demo(monkeypatch, fixture_menu_path, "i want to check my balance\n", "--provider", "keyword",
                "--condition", "flattened") == 0
    assert capsys.readouterr().out == "1-1  Billing and Account Management -> Check Balance\n"


def test_demo_zero_overlap_falls_back_to_first_path(fixture_menu_path, monkeypatch, capsys):
    # No word of the query matches any breadcrumb, so the keyword mock ties
    # every path at zero and document order picks 1-1.
    demo(monkeypatch, fixture_menu_path, "my bill looks wrong\n", "--provider", "keyword")
    assert capsys.readouterr().out == "1-1  Billing and Account Management -> Check Balance\n"


def test_demo_empty_line_costs_no_provider_call(fixture_menu_path, chat_server, monkeypatch, capsys):
    server = chat_server(reply="2-1-9")
    assert demo(monkeypatch, fixture_menu_path, "\n\nrouter is broken\n", *http_at(server)) == 0
    out = capsys.readouterr().out
    # One call, for the only non-empty line; empty lines made none.
    assert out.count("\n") == 1
    assert out.startswith("2-1-9  ")
    assert server.answered == 1


def test_demo_eof_exits_zero(fixture_menu_path, monkeypatch, capsys):
    assert demo(monkeypatch, fixture_menu_path, "", "--provider", "keyword") == 0
    assert capsys.readouterr().out == ""


def test_demo_provider_error_continues(fixture_menu_path, chat_server, monkeypatch, capsys):
    server = chat_server(reply="1-4", statuses=[200], status=400)  # the lines go one by one
    assert demo(monkeypatch, fixture_menu_path, "first query\nsecond query\nthird query\n", *http_at(server)) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("1-4  ")
    assert captured.err == f"error: {REFUSED}\n" * 2  # two refused lines, and the loop kept going


def test_demo_retries_a_503_and_prints_the_path(fixture_menu_path, chat_server, monkeypatch, capsys):
    server = chat_server(reply="2-1-9", statuses=[503], retry_after="0")
    assert demo(monkeypatch, fixture_menu_path, "router is broken\n", *http_at(server)) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("2-1-9  ") and captured.out.count("\n") == 1
    assert captured.err == ""
    assert server.answered == 2  # the 503, then its retry
    assert server.wait(open=0)  # demo closed the connection when stdin ended


def test_demo_lines_share_one_connection(fixture_menu_path, chat_server, monkeypatch, capsys):
    server = chat_server(reply="2-1-9")
    assert demo(monkeypatch, fixture_menu_path, "router is broken\nstill broken\n", *http_at(server)) == 0
    assert capsys.readouterr().out.count("2-1-9  ") == 2
    assert server.answered == 2
    assert server.accepted == 1  # the second line reused the first line's connection
    assert server.wait(open=0)


def test_demo_lines_share_one_pace(fixture_menu_path, monkeypatch, capsys):
    paced = []
    run_calls = router.run_calls
    monkeypatch.setattr("ivroute.cli.run_calls", lambda *args, pacing, **kwargs: (
        paced.append(pacing) or run_calls(*args, pacing=pacing, **kwargs)))
    assert demo(monkeypatch, fixture_menu_path, "check my balance\npay my bill\n", "--provider", "keyword") == 0
    assert capsys.readouterr().out.count("\n") == 2
    assert len(paced) == 2 and paced[0] is paced[1]  # the second line keeps the first line's pace


def test_demo_invalid_reply_reported(fixture_menu_path, chat_server, monkeypatch, capsys):
    server = chat_server(reply=lambda prompt: "press one please" if prompt.endswith("\nfirst") else "5-5-5")
    demo(monkeypatch, fixture_menu_path, "first\nsecond\n", *http_at(server))
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("INVALID  ")
    assert out[1] == "5-5-5  (not a terminal path of this menu)"


DEMO_REFUSALS = {
    "test_demo_oracle_without_dataset_exit_2": Row(
        ("demo", "--menu", "{menu}", "--provider", "oracle"), 2,
        "error: oracle provider needs a dataset to take its answers from\n"),
    "test_demo_malformed_dataset_line_exit_1": malformed_dataset_rows(DEMO_ORACLE),
    "test_demo_dataset_is_validated": invalid_dataset(
        at("1-2:b00", text="How much do I currently owe on my account?"),
        "record 1-2:b00: same text as record 1-1:b00, which is labelled 1-1", DEMO_ORACLE),
}
table_tests(globals(), refused, DEMO_REFUSALS)


# --- check-roles -------------------------------------------------------------------------

def test_check_roles_distinct_models(capsys):
    assert run(["check-roles", "--menugen-model", "gpt-3.5-turbo", "--datagen-model", "gpt-4o-mini",
                "--routing-model", "gpt-4.1-mini"]) == 0
    assert "no shared models" in capsys.readouterr().out


def test_check_roles_warns_without_strict(capsys):
    assert run(["check-roles", "--menugen-model", "m", "--datagen-model", "m", "--routing-model", "m"]) == 0
    assert capsys.readouterr().out.count("warning:") == 2


def test_config_flag_overrides_file(tmp_path, capsys):
    file = tmp_path / "config.json"
    file.write_text(json.dumps({"providers": {"menugen": {"model_name": "shared"},
                                              "datagen": {"model_name": "shared"}}}), encoding="utf-8")
    # The CLI flag renames datagen's model, clearing the conflict.
    assert run(["check-roles", "--config", str(file), "--datagen-model", "unique", "--strict-roles"]) == 0


CHECK_ROLES_REFUSALS = {
    "test_check_roles_strict_exit_1": Row(
        ("check-roles", "--menugen-model", "m", "--datagen-model", "m", "--strict-roles"), 1, "",
        out="warning: stage 'datagen' reuses model 'm' already assigned to stage 'menugen'\n"),
    "test_check_roles_reads_config_file": Row(
        ("check-roles", "--config", "{tmp}/config.json", "--strict-roles"), 1, "",
        out="warning: stage 'datagen' reuses model 'shared' already assigned to stage 'menugen'\n",
        prepare=with_config({"providers": {"menugen": {"model_name": "shared"}, "datagen": {"model_name": "shared"},
                                           "routing": {"model_name": "distinct"}}})),
}
table_tests(globals(), refused, CHECK_ROLES_REFUSALS)


# --- pipeline composition -----------------------------------------------------------------

def test_pipeline_composes_end_to_end(tmp_path, fixture_menu_path, chat_server, capsys):
    """validate-menu -> flatten -> gen-intents -> route -> eval, exit 0 each."""
    assert run(["validate-menu", str(fixture_menu_path)]) == 0
    assert run(["flatten", str(fixture_menu_path)]) == 0

    dataset_file = tmp_path / "mini.jsonl"
    assert run(gen_args(fixture_menu_path, chat_server(reply=about_subject).url, dataset_file)) == 0

    assert run(route_args(fixture_menu_path, dataset_file, tmp_path, condition="descriptive", filter="all")) == 0
    run_dir = next(tmp_path.glob("run-*"))
    assert run(["eval", str(run_dir / "results.jsonl"), "--menu", str(fixture_menu_path)]) == 0
    capsys.readouterr()  # drain


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
table_tests(globals(), refused, CONFIG_REFUSALS)


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
}
table_tests(globals(), refused, INPUT_FILE_REFUSALS)


def test_input_file_that_cannot_be_read_exit_2(fixture_menu_path, monkeypatch, capsys):
    # Permissions cannot make a file unreadable to root, so the loader is made to refuse it.
    def refuse(path):
        raise PermissionError(13, "Permission denied", str(path))

    monkeypatch.setattr("ivroute.cli.load_menu", refuse)
    assert run(["validate-menu", str(fixture_menu_path)]) == 2
    assert capsys.readouterr().err == (f"error: cannot read menu file {fixture_menu_path}: "
                                       f"[Errno 13] Permission denied: '{fixture_menu_path}'\n")


@settings(max_examples=100, deadline=None)
@given(content=st.binary())
def test_any_bytes_as_menu_or_config_end_with_an_exit_code(tmp_path_factory, fixture_menu_path,
                                                           fixture_dataset_path, content):
    file = tmp_path_factory.getbasetemp() / "any-bytes"  # rewritten by every example
    file.write_bytes(content)
    assert run(["validate-menu", str(file)]) in (0, 1, 2)
    argv = route_args(fixture_menu_path, fixture_dataset_path, file.parent / "any-bytes-runs",
                      filter="base_only")
    assert run(argv + ["--config", str(file)]) in (0, 1, 2)


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
    assert run(argv) == expected


# --- interrupts and closed pipes ------------------------------------------------------------

def cli_child(*argv, **popen) -> subprocess.Popen:
    """``python -m ivroute.cli *argv`` in a child process whose stdout is
    buffered, as in a shell pipe."""
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(ivroute.__file__).resolve().parents[1])
    return subprocess.Popen([sys.executable, "-m", "ivroute.cli", *argv], env=env, text=True,
                            stderr=subprocess.PIPE, **popen)


def interrupted(child: subprocess.Popen) -> str:
    """Ctrl-C ``child``; once it has ended, its stderr."""
    child.send_signal(signal.SIGINT)
    try:
        child.wait(timeout=30)
    finally:
        child.kill()  # a no-op once it has ended
    return child.stderr.read()


def test_ctrl_c_ends_demo_waiting_on_stdin_with_exit_130(fixture_menu_path):
    with cli_child("demo", "--menu", str(fixture_menu_path), "--provider", "keyword",
                   stdin=subprocess.PIPE, stdout=subprocess.PIPE) as child:
        child.stdin.write("i want to check my balance\n")
        child.stdin.flush()
        # Its answer is out, so it is waiting on stdin for the next line; stdin stays open.
        assert child.stdout.readline() == "1-1  Billing and Account Management -> Check Balance\n"
        assert interrupted(child) == "error: interrupted\n"
    assert child.returncode == 130


@pytest.mark.parametrize("reply, answer", [
    (None, "1-1  Billing and Account Management -> Check Balance\n"),
    ("press one please", "INVALID  (reply did not parse: 'press one please')\n"),
], ids=["path", "invalid"])
def test_demo_answers_a_line_while_stdin_is_still_open(fixture_menu_path, chat_server, reply, answer):
    # A program that drives demo line by line through pipes waits for each
    # answer before it writes the next line.
    provider = ["--provider", "keyword"] if reply is None else [
        "--provider", "http", "--endpoint", chat_server(reply=reply).url]
    with cli_child("demo", "--menu", str(fixture_menu_path), *provider,
                   stdin=subprocess.PIPE, stdout=subprocess.PIPE) as child:
        child.stdin.write("i want to check my balance\n")
        child.stdin.flush()
        assert select.select([child.stdout], [], [], 20)[0], "no answer while stdin was open"
        assert child.stdout.readline() == answer
        child.stdin.close()
        assert child.wait(timeout=30) == 0
        assert child.stdout.read() == "" and child.stderr.read() == ""


def test_ctrl_c_ends_route_waiting_to_retry_with_exit_130(chat_server, tmp_path, fixture_menu_path,
                                                          fixture_dataset_path):
    server = chat_server(status=503, retry_after="60")  # every attempt waits a minute to go again
    with cli_child("route", "--menu", str(fixture_menu_path), "--dataset", str(fixture_dataset_path),
                   "--filter", "base_only", "--provider", "http", "--endpoint", server.url,
                   "--out", str(tmp_path), stdout=subprocess.PIPE) as child:
        deadline = time.monotonic() + 30
        while not server.answered and time.monotonic() < deadline:
            time.sleep(0.01)
        assert server.answered, "route sent no request"
        assert interrupted(child) == "error: interrupted\n"
        assert child.stdout.read() == ""
    assert child.returncode == 130
    assert not list(tmp_path.glob("run-*"))


@pytest.mark.parametrize("command", ["flatten", "route"])
def test_output_into_a_closed_pipe_ends_quietly_with_exit_141(tmp_path, fixture_menu_path,
                                                              fixture_dataset_path, command):
    argv = {"flatten": ["flatten", str(fixture_menu_path)],
            "route": route_args(fixture_menu_path, fixture_dataset_path, tmp_path, filter="base_only")}[command]
    read_end, write_end = os.pipe()
    os.close(read_end)  # as `ivroute ... | head -0` once head has exited
    try:
        with cli_child(*argv, stdout=write_end) as child:
            assert child.wait(timeout=60) == 141
            assert child.stderr.read() == ""
    finally:
        os.close(write_end)
    assert command == "flatten" or len(list(tmp_path.glob("run-*/*"))) == 2  # the run was saved first
