"""Dataset synthesis: base generation, augmentation, validation, and JSONL
round-trips.

Each reply parse and each run of a generation stage on the provider double
is a row of a table; the bespoke tests pace a stage against the loopback
endpoint and check the one pace of build_dataset."""

import itertools
import json
import logging
import random
from collections import Counter
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

from ivroute.datagen import (
    IntentRecord,
    dataset_to_jsonl,
    load_dataset,
    save_dataset,
    validate_dataset,
)
from ivroute.menu import DtmfPath, MenuTree, flatten
from ivroute.provider import ProviderError
from ivroute import synthesis
from ivroute.router import Pacing
from ivroute.synthesis import (
    augment_intents,
    build_dataset,
    generate_base_intents,
    parse_listed_lines,
)

from conftest import (AnsweringProvider, Raises, action, fail_at_step, fail_with, make_record, numbered, outcome_of,
                      prompt_of, subject_of, submenu, table_tests, tiny_dataset)


# --- reply parsing ---------------------------------------------------------------

def check_parse(row):
    reply, items = row
    assert parse_listed_lines(reply) == items


table_tests(globals(), check_parse, {
    "test_parse_numbered_lines": ("1. First complaint\n2. Second complaint\n10. Tenth complaint",
                                  ["First complaint", "Second complaint", "Tenth complaint"]),
    "test_parse_paren_and_bullet_lists": [("1) one\n2) two", ["one", "two"]), ("- one\n* two", ["one", "two"])],
    "test_parse_falls_back_to_plain_lines": ("just a line\nanother line\n", ["just a line", "another line"]),
    "test_parse_skips_blank_lines": ("1. a\n\n\n2. b\n  \n", ["a", "b"]),
    "test_parse_empty_reply": [("", []), ("   \n  ", [])],
})


# --- generation stages ------------------------------------------------------------

def record(rid: str, text: str) -> IntentRecord:
    """The record that ``rid``, as ``1-1:b00`` or ``1-1:b00:v1``, names, holding ``text``."""
    path, base_suffix, *variant = rid.split(":")
    if not variant:
        return make_record(path, text, suffix=base_suffix)
    return make_record(path, text, origin="augmented", base_suffix=base_suffix, variant_index=int(variant[0][1:]))


class Stage(NamedTuple):
    """A generation stage, ``run(tiny_tree, provider, pacing)``, on one
    worker whose every prompt is answered by ``replies``: the next reply
    queued for the prompt's subject, or a function of the prompt. It makes
    the records ``made``, {id: text}, each whole as record() makes it, or
    raises as a Raises says, or raises the very exception given; it makes
    ``calls`` calls, whose prompts hold the texts of ``sent`` in turn and
    none of ``unsent``, and logs the warnings ``warned``, with the
    synthesis settings of ``patch``. A second run sends the same prompts."""

    run: Callable
    replies: dict | Callable
    made: dict | Raises | Exception
    calls: int
    sent: tuple = ()
    unsent: tuple = ()
    warned: tuple = ()
    patch: dict = {}


def check_stage(row, tiny_tree, monkeypatch, caplog):
    for name, value in row.patch.items():
        monkeypatch.setattr(synthesis, name, value)
    sent = []
    for _ in range(2):
        queued = {} if callable(row.replies) else {subject: list(replies) for subject, replies in row.replies.items()}
        provider = AnsweringProvider(row.replies if callable(row.replies) else
                                     lambda prompt: queued[subject_of(prompt)].pop(0), max_in_flight=1)
        made = partial(row.run, tiny_tree, provider, Pacing(provider.config))
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="ivroute.synthesis"):
            if isinstance(row.made, Exception):
                with pytest.raises(type(row.made)) as raised:
                    made()
                assert raised.value is row.made
            else:
                outcome_of(made, row.made if isinstance(row.made, Raises) else
                           [record(rid, text) for rid, text in row.made.items()])
        assert [entry.getMessage() for entry in caplog.records] == list(row.warned)
        sent.append(provider.calls)
    assert sent[0] == sent[1] and len(sent[0]) == row.calls >= len(row.sent)
    assert [text in prompt for text, prompt in zip(row.sent, sent[0])] == [True] * len(row.sent)
    assert [text for text in row.unsent for prompt in sent[0] if text in prompt] == []


def base(per_node=2, paths=None):
    """The base stage on the first ``paths`` terminal paths of the tree, or on all of them."""
    return lambda tree, provider, pacing: generate_base_intents(flatten(tree)[:paths], provider, pacing, per_node)


PAY, AGENT = "I want to pay my bill.", "get me a billing person"


def augment(variants=2, seed=0, records=2):
    """The augmentation stage on the first ``records`` of two base records."""
    pair = [make_record("1-1", PAY), make_record("1-9", AGENT)][:records]
    return lambda tree, provider, pacing: augment_intents(pair, provider, pacing, variants, seed)


def both_stages(tree=None, per_node=2):
    """build_dataset, with one paraphrase per base record, of ``tree`` or the tiny tree."""
    return lambda tiny, provider, pacing: build_dataset(tree or tiny, provider, per_node, 1).records


NO_REPLY = ProviderError("no reply")
LABELLED = "Support {{SERVICE_TYPE}} {{COUNT}}"  # a label holding placeholders
NOISE_PROBS = ("INTERJECTION_PROB", "FILLER_PROB", "GRAMMAR_ERROR_PROB")
INTERJECTION = "Start paraphrase {} with a natural interjection (for example \"ugh\", \"hey\", \"honestly\")."
FILLER = "Work a casual filler phrase (for example \"you know\", \"I mean\", \"like\") into paraphrase {}."
SLIP = "Let paraphrase {} carry one minor grammatical slip, the kind a hurried caller makes."


def directives(*asked):
    """The noise directive lines of a paraphrase prompt: (paraphrase, directive) of each, in order."""
    return "\n".join("- " + directive.format(k) for k, directive in asked)

TINY_BASES = {"Billing -> Pay Bill": ["pay my bill", "how to pay"],
              "Billing -> Billing Agent": ["billing agent now", "human for bills"],
              "Support": ["service broken", "nothing works"]}
TINY_IDS = ["1-1:b00", "1-1:b01", "1-9:b00", "1-9:b01", "2:b00", "2:b01"]
TINY_TEXTS = [text for texts in TINY_BASES.values() for text in texts]

STAGES = {
    "test_base_generation_shape": Stage(base(), {
        "Billing -> Pay Bill": [numbered(["pay my bill now", "how do I pay"])],
        "Billing -> Billing Agent": [numbered(["need a person for billing", "agent please"])],
        "Support": [numbered(["my line is dead", "no service at home"])]}, dict(zip(TINY_IDS, [
            "pay my bill now", "how do I pay", "need a person for billing", "agent please", "my line is dead",
            "no service at home"])), 3),
    "test_base_generation_prompts_name_the_breadcrumb": Stage(
        base(), lambda prompt: numbered([f"{subject_of(prompt)} {i}" for i in "ab"]),
        dict(zip(TINY_IDS, [f"{crumb} {i}" for crumb in TINY_BASES for i in "ab"])), 3, sent=(
            "Endpoint: Billing -> Pay Bill\nEndpoint kind: self-service\n",
            "Endpoint: Billing -> Billing Agent\nEndpoint kind: agent handoff\n",
            "Endpoint: Support\nEndpoint kind: self-service\n")),
    # Each template is filled in one pass: a breadcrumb or a text holding a placeholder is not filled again.
    "test_generation_prompts_keep_placeholders_of_labels_and_texts_as_text": Stage(
        both_stages(MenuTree("Labelled", submenu("Root", None, [action(LABELLED, "2")])), 1),
        {LABELLED: [numbered(["a {{NOISE_DIRECTIVES}}"])], "a {{NOISE_DIRECTIVES}}": [numbered(["b"])]},
        {"2:b00": "a {{NOISE_DIRECTIVES}}", "2:b00:v1": "b"}, 2, sent=(
            f"Endpoint: {LABELLED}\nEndpoint kind: self-service\n",
            "Original message: a {{NOISE_DIRECTIVES}}\n")),
    "test_base_generation_drops_duplicates_and_reasks": Stage(base(paths=1), {"Billing -> Pay Bill": [
        numbered(["same text", "Same   TEXT"]), numbered(["different text"])]},  # one survivor after dedup
        {"1-1:b00": "same text", "1-1:b01": "different text"}, 2),
    "test_base_generation_budget_exhaustion": Stage(  # the first call and 3 more, all stuck
        base(3, paths=1), lambda prompt: numbered(["only one"]),
        Raises(ValueError, "path 1-1: only 1 distinct text(s) after 4 call(s), needed 3"), 4),
    "test_base_generation_provider_failure_is_raised_as_it_is": Stage(
        base(), fail_with(NO_REPLY), NO_REPLY, 0),
    "test_base_generation_rejects_bad_args": [
        Stage(base(0), lambda prompt: "", Raises(ValueError, "per_node must be at least 1"), 0),
        Stage(base(paths=0), lambda prompt: "", Raises(ValueError, "no terminal paths to generate for"), 0)],
    "test_augment_shape_and_linkage": Stage(augment(), {
        PAY: [numbered(["ugh, I want to pay my bill", "paying my bill, how"])],
        AGENT: [numbered(["person for billing pls", "need billing human"])]}, {
        "1-1:b00:v1": "ugh, I want to pay my bill", "1-1:b00:v2": "paying my bill, how",
        "1-9:b00:v1": "person for billing pls", "1-9:b00:v2": "need billing human"}, 2),
    "test_augment_zero_variants_is_empty": Stage(augment(0), lambda prompt: "", {}, 0),
    # The CLI refuses --variants -1 itself, so only a library call reaches this check.
    "test_augment_negative_variants_refused_before_any_call": Stage(
        augment(-1), lambda prompt: "", Raises(ValueError, "variants must not be negative"), 0),
    "test_augment_short_reply_gets_second_call": Stage(augment(), {
        PAY: [numbered(["only one paraphrase"]), numbered(["first", "second"])],
        AGENT: [numbered(["for the second base", "and another"])]}, {
        "1-1:b00:v1": "first", "1-1:b00:v2": "second", "1-9:b00:v1": "for the second base",
        "1-9:b00:v2": "and another"}, 3),
    "test_augment_still_short_raises": Stage(augment(records=1), lambda prompt: numbered(["one"]),
                                             Raises(ValueError, "record 1-1:b00: got 1 paraphrase(s), needed 2"), 2),
    "test_augment_identical_variant_retried_once": Stage(augment(records=1), {PAY: [
        numbered([PAY, "a real paraphrase"]), numbered(["fixed paraphrase"])]},  # v1 echoes its base: one retry
        {"1-1:b00:v1": "fixed paraphrase", "1-1:b00:v2": "a real paraphrase"}, 2),
    "test_augment_identical_after_retry_kept_with_warning": Stage(augment(records=1), {PAY: [
        numbered([PAY, "a real paraphrase"]), numbered(["i want to pay my bill."])]},  # the same under the dedup key
        {"1-1:b00:v1": PAY, "1-1:b00:v2": "a real paraphrase"}, 2,
        warned=("record 1-1:b00: paraphrase 1 still identical to its base text, keeping it",)),
    # The directives that seed 7 draws for each record's paraphrases.
    "test_augment_prompts_reproducible_by_seed": Stage(
        augment(3, seed=7), lambda prompt: numbered(["x1", "x2", "x3"]),
        {f"{base_id}:v{k}": f"x{k}" for base_id in ("1-1:b00", "1-9:b00") for k in (1, 2, 3)}, 2, sent=(
            "numbered 1. through 3.\n" + directives((1, FILLER), (2, INTERJECTION), (3, INTERJECTION), (3, SLIP)),
            "numbered 1. through 3.\n" + directives((1, FILLER), (1, SLIP), (2, SLIP), (3, INTERJECTION)))),
    "test_augment_noise_directives_follow_profile": [
        Stage(augment(1, records=1), lambda prompt: numbered(["x1"]), {"1-1:b00:v1": "x1"}, 1,
              sent=("numbered 1. through 1.\n" + directives((1, INTERJECTION), (1, FILLER), (1, SLIP)),),
              patch=dict.fromkeys(NOISE_PROBS, 1.0)),
        Stage(augment(1, records=1), lambda prompt: numbered(["x1"]), {"1-1:b00:v1": "x1"}, 1,
              unsent=("interjection", "filler", "grammatical slip"), patch=dict.fromkeys(NOISE_PROBS, 0.0))],
    # One paraphrase call per base record; the base block comes first.
    "test_build_dataset_small": Stage(both_stages(), {
        **{crumb: [numbered(texts)] for crumb, texts in TINY_BASES.items()},
        **{text: [numbered([f"variant of {text}"])] for text in TINY_TEXTS}},
        {**dict(zip(TINY_IDS, TINY_TEXTS)), **{f"{rid}:v1": f"variant of {text}"
                                               for rid, text in zip(TINY_IDS, TINY_TEXTS)}}, 9),
}
table_tests(globals(), check_stage, STAGES)


def test_base_generation_call_backing_off_lets_the_next_path_go_first(tiny_tree, chat_server, live_provider):
    # One worker: the first path's call gets a 503, and the second path's
    # call goes out while it waits. A worker that slept through the backoff
    # would send the first path's prompt twice in a row.
    breadcrumbs = [tp.breadcrumb_text() for tp in flatten(tiny_tree)]
    numbers = itertools.count(2)  # the 200s answer requests 2, 3 and 4, in order

    def reply(prompt):
        count = next(numbers)
        return numbered([f"complaint {count}a", f"complaint {count}b"])

    server = chat_server(reply=reply, statuses=[503], retry_after="0")
    provider = live_provider(server.url, max_in_flight=1)
    records = generate_base_intents(flatten(tiny_tree), provider, Pacing(provider.config), per_node=2)
    sent = [next(b for b in breadcrumbs if b in prompt_of(request)) for request in server.requests]
    assert sent == [breadcrumbs[0], breadcrumbs[1], breadcrumbs[0], breadcrumbs[2]]
    assert [r.id for r in records] == TINY_IDS
    assert records[0].text == "complaint 3a"  # the first path's answer is its retry's


def test_a_stage_called_without_a_pace_keeps_one_pace_over_its_rounds(tiny_tree, monkeypatch):
    # A stage has no pace of its own to fall back on: called without one it
    # is refused, and the one it is handed serves every round.
    paced = []
    run_calls = synthesis.run_calls
    monkeypatch.setattr(synthesis, "run_calls", lambda *args, pacing, **kwargs: (
        paced.append(pacing) or run_calls(*args, pacing=pacing, **kwargs)))
    replies = iter([numbered(["same text", "Same   TEXT"]), numbered(["different text"])])
    provider = AnsweringProvider(lambda prompt: next(replies))
    paths = flatten(tiny_tree)[:1]
    with pytest.raises(TypeError, match="pacing"):
        generate_base_intents(paths, provider, per_node=2)
    pacing = Pacing(provider.config)
    records = generate_base_intents(paths, provider, pacing, per_node=2)
    assert [r.text for r in records] == ["same text", "different text"]
    assert len(paced) == 2 and paced[0] is paced[1] is pacing  # two rounds, one pace


def test_build_dataset_runs_both_stages_at_one_pace_seeded_by_its_seed(tiny_tree, monkeypatch):
    paced = []
    run_calls = synthesis.run_calls
    monkeypatch.setattr(synthesis, "run_calls", lambda *args, pacing, **kwargs: (
        paced.append(pacing) or run_calls(*args, pacing=pacing, **kwargs)))
    asked = Counter()

    def answer(prompt):  # the first path's first reply lists nothing: it is asked again, in a second round
        subject = subject_of(prompt)
        asked[subject] += 1
        return "" if (subject, asked[subject]) == ("Billing -> Pay Bill", 1) else numbered([f"about {subject}"])

    build_dataset(tiny_tree, AnsweringProvider(answer), per_node=1, variants=1, seed=7)
    assert len(paced) == 3 and paced[0] is paced[1] is paced[2]  # two base rounds, then the paraphrase stage
    assert paced[0].rng.getstate() == random.Random(7).getstate()  # no retry drew from it


# --- dataset validation --------------------------------------------------------------

def test_fixture_dataset_validates(dataset, paths):
    assert validate_dataset(dataset, paths) == []
    assert len(dataset.records) == 920
    assert sum(1 for r in dataset.records if r.origin == "base") == 230


def check_problems(row, tiny_tree):
    """``row``: an edit of tiny_dataset()'s records, and every problem
    validate_dataset finds, in order, in the dataset that it makes."""
    edit, problems = row
    ds = tiny_dataset()
    assert validate_dataset(ds._replace(records=edit(ds.records)), flatten(tiny_tree)) == problems


def paraphrase(base_id, variant_index, text, truth="1-1"):
    return IntentRecord(f"{base_id}:v{variant_index}", text, DtmfPath(truth), "augmented", base_id, variant_index)


def with_record(index, **fields):
    """The edit that sets ``fields`` of the record at ``index``."""
    return lambda records: [r._replace(**fields) if i == index else r for i, r in enumerate(records)]


COUNTS = "base record count per terminal path must be one number, but "
PARAPHRASES = "paraphrase count per base record must be one number, but 1-1:b01 has 0 and 1-1:b00 has 1"
PROBLEMS = {
    "test_validate_flags_duplicate_ids": (lambda rs: rs + rs[:1],
                                          ["record 1-1:b00: duplicate id", COUNTS + "1-9 has 2 and 1-1 has 3"]),
    "test_validate_flags_unknown_truth": (lambda rs: rs[1:] + [make_record("9", "registered nowhere")], [
        "record 9:b00: ground truth 9 is not a terminal path", COUNTS + "1-1 has 1 and 1-9 has 2"]),
    "test_validate_flags_orphan_augmented": (lambda rs: rs + [paraphrase("1-1:b77", 1, "orphan")],
                                             ["record 1-1:b77:v1: base_id 1-1:b77 not in dataset"]),
    "test_validate_flags_truth_drift": (lambda rs: rs + [paraphrase("1-1:b00", 1, "label went wrong", "1-9")], [
        "record 1-1:b00:v1: ground truth differs from base record 1-1:b00", PARAPHRASES]),
    "test_validate_flags_variant_index_range": (lambda rs: rs + [paraphrase("1-1:b00", 9, "ninth variant of one")], [
        "record 1-1:b00: paraphrase variant_index values [9] out of range or repeated; want 1..1, each once",
        PARAPHRASES]),
    "test_validate_flags_a_blank_text": {  # no prompt can be built from it
        blank: (with_record(3, text=blank), ["record 1-9:b01: text is blank"]) for blank in ["", "   ", "\n", " \t\r\n"]},
    "test_validate_flags_one_text_under_two_labels": (  # a 1-9 record takes a 1-1 text
        with_record(2, text="I want to pay my bill."),
        ["record 1-9:b00: same text as record 1-1:b00, which is labelled 1-1"]),
    # augment_intents keeps a paraphrase that came back equal to its base text
    "test_validate_allows_one_text_repeated_under_one_label": (
        lambda rs: rs + [paraphrase(r.id, 1, r.text, r.ground_truth) for r in rs], []),
    "test_validate_flags_count_mismatch": (lambda rs: rs[:-1], [COUNTS + "2 has 1 and 1-1 has 2"]),
    "test_validate_flags_a_terminal_path_without_base_records": (
        lambda rs: [r for r in rs if r.ground_truth != "2"],
        ["terminal path 2 has no base record", COUNTS + "2 has 0 and 1-1 has 2"]),
}
table_tests(globals(), check_problems, PROBLEMS)


def check_shuffled(row, dataset, paths):
    """``row``: an edit of each record of the fixture dataset, in an order
    where paraphrases may come before their base record, and every problem
    validate_dataset finds in what it makes."""
    edit, problems = row
    shuffled = list(dataset.records)
    random.Random(7).shuffle(shuffled)
    assert validate_dataset(dataset._replace(records=[edit(r) for r in shuffled]), paths) == problems


table_tests(globals(), check_shuffled, {"test_validate_count_rules_hold_in_any_record_order": [
    (lambda r: r, []),
    (lambda r: r._replace(ground_truth=DtmfPath("1-2")) if r.base_id == "1-1:b00" else r,
     [COUNTS + "1-1 has 9 and 1-2 has 11"]),
    (lambda r: r._replace(base_id="1-1:b01", variant_index=4) if r.id == "1-1:b00:v3" else r,
     ["paraphrase count per base record must be one number, but 1-1:b00 has 2 and 1-1:b01 has 4"]),
    (lambda r: r._replace(variant_index=2) if r.id == "1-1:b00:v3" else r,
     ["record 1-1:b00: paraphrase variant_index values [1, 2, 2] out of range or repeated; want 1..3, each once"])]})


# --- JSONL files --------------------------------------------------------------------

def check_dataset_file(row, tmp_path, monkeypatch):
    """``row``: a Dataset, saved, or text, written, to a file; the text the
    file holds; and what load_dataset makes of it."""
    content, text, loaded = row
    monkeypatch.chdir(tmp_path)  # an error names the file as it was given
    if isinstance(content, str):
        Path("intents.jsonl").write_text(content, encoding="utf-8")
    else:
        save_dataset(content, "intents.jsonl")
    assert Path("intents.jsonl").read_text(encoding="utf-8") == text
    outcome_of(partial(load_dataset, "intents.jsonl", "Tiny"), loaded)


def line(ground_truth="1-1", rid="a"):
    return json.dumps({"id": rid, "text": "t", "ground_truth": ground_truth, "origin": "base", "base_id": rid,
                       "variant_index": 0}) + "\n"


table_tests(globals(), check_dataset_file, {
    "test_dataset_round_trip": (tiny_dataset(), dataset_to_jsonl(tiny_dataset()), tiny_dataset()),
    "test_dataset_line_keys_in_file_order": (
        tiny_dataset()._replace(records=[make_record("1-9", "agent, bitte")]),
        '{"id": "1-9:b00", "text": "agent, bitte", "ground_truth": "1-9", "origin": "base", "base_id": "1-9:b00", '
        '"variant_index": 0}\n',
        tiny_dataset()._replace(records=[make_record("1-9", "agent, bitte")])),
    "test_load_dataset_rejects_bad_lines": ('{"id": "x"}\n', '{"id": "x"}\n',
                                            Raises(ValueError, "intents.jsonl:1: bad record: 'text'")),
    "test_load_dataset_bad_path_names_its_line": {
        name: (line() * 2 + line(truth, "b"), line() * 2 + line(truth, "b"),
               Raises(ValueError, f"intents.jsonl:3: bad record: not a canonical DTMF path: {truth!r}"))
        for name, truth in [("1--1", "1--1"), ("truth1", ["1-1"]), ("None", None)]},
})


# The step of save_dataset that fails, from fail_at_step: its file write or its rename into place.
@pytest.mark.parametrize("old", [b"old dataset\n", None], ids=["over-a-dataset", "no-dataset"])
@pytest.mark.parametrize("failing", [0, 1], ids=["at-the-write", "at-the-rename"])
def test_a_failed_save_leaves_the_old_dataset_or_none(tmp_path, monkeypatch, old, failing):
    file = tmp_path / "intents.jsonl"
    if old is not None:
        file.write_bytes(old)
    fail_at_step(monkeypatch, failing)
    with pytest.raises(OSError):
        save_dataset(tiny_dataset(), file)
    assert list(tmp_path.iterdir()) == ([file] if old is not None else [])
    if old is not None:
        assert file.read_bytes() == old


def test_a_saved_dataset_has_the_mode_of_a_plain_write(tmp_path):
    (tmp_path / "plain").write_text("", encoding="utf-8")
    save_dataset(tiny_dataset(), tmp_path / "intents.jsonl")
    assert (tmp_path / "intents.jsonl").stat().st_mode == (tmp_path / "plain").stat().st_mode
