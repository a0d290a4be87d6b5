"""Dataset synthesis: base generation, augmentation, validation, and JSONL
round-trips."""

import errno
import itertools
import json
import logging
import os
import random
from pathlib import Path

import pytest

from ivroute.datagen import (
    IntentRecord,
    dataset_to_jsonl,
    load_dataset,
    save_dataset,
    validate_dataset,
)
from ivroute.menu import DtmfPath, flatten
from ivroute.provider import ProviderError
from ivroute import router, synthesis
from ivroute.synthesis import (
    augment_intents,
    build_dataset,
    generate_base_intents,
    parse_listed_lines,
)

from conftest import (AnsweringProvider, action, fail_with, make_record, numbered, prompt_of, subject_of,
                      table_tests, tiny_dataset)


def by_subject(replies: dict[str, list[str]]) -> AnsweringProvider:
    """Answers each generation prompt with the next reply queued for its
    subject, a path's breadcrumb or a base text: a subject's prompts come
    one after another, so its replies do not depend on the order of calls."""
    return AnsweringProvider(lambda prompt: replies[subject_of(prompt)].pop(0))


def breadcrumbs(tree) -> list[str]:
    return [tp.breadcrumb_text() for tp in flatten(tree)]


# --- reply parsing ---------------------------------------------------------------

def test_parse_numbered_lines():
    text = "1. First complaint\n2. Second complaint\n10. Tenth complaint"
    assert parse_listed_lines(text) == ["First complaint", "Second complaint", "Tenth complaint"]


def test_parse_paren_and_bullet_lists():
    assert parse_listed_lines("1) one\n2) two") == ["one", "two"]
    assert parse_listed_lines("- one\n* two") == ["one", "two"]


def test_parse_falls_back_to_plain_lines():
    assert parse_listed_lines("just a line\nanother line\n") == ["just a line", "another line"]


def test_parse_skips_blank_lines():
    assert parse_listed_lines("1. a\n\n\n2. b\n  \n") == ["a", "b"]


def test_parse_empty_reply():
    assert parse_listed_lines("") == []
    assert parse_listed_lines("   \n  ") == []


# --- base generation --------------------------------------------------------------

def test_base_generation_shape(tiny_tree):
    paths = flatten(tiny_tree)
    replies = dict(zip(breadcrumbs(tiny_tree), ([numbered(lines)] for lines in [
        ["pay my bill now", "how do I pay"],
        ["need a person for billing", "agent please"],
        ["my line is dead", "no service at home"],
    ])))
    records = generate_base_intents(paths, by_subject(replies), per_node=2)
    assert [r.id for r in records] == [
        "1-1:b00", "1-1:b01", "1-9:b00", "1-9:b01", "2:b00", "2:b01",
    ]
    assert all(r.origin == "base" and r.base_id == r.id and r.variant_index == 0 for r in records)
    assert records[0].ground_truth == DtmfPath("1-1")
    assert records[4].text == "my line is dead"


def test_base_generation_prompts_name_the_breadcrumb(tiny_tree):
    provider = AnsweringProvider(lambda prompt: numbered([f"{subject_of(prompt)} {i}" for i in "ab"]))
    generate_base_intents(flatten(tiny_tree), provider, per_node=2)
    prompt_for = {subject_of(prompt): prompt for prompt in provider.calls}
    assert len(provider.calls) == len(prompt_for) == 3
    assert "Endpoint kind: self-service" in prompt_for["Billing -> Pay Bill"]
    assert "Endpoint kind: agent handoff" in prompt_for["Billing -> Billing Agent"]
    assert "Endpoint kind: self-service" in prompt_for["Support"]


def test_generation_prompts_keep_placeholders_of_labels_and_texts_as_text(tiny_tree):
    # Each template is filled in one pass: a breadcrumb or a text holding a placeholder is not filled again.
    tree = tiny_tree._replace(root=tiny_tree.root._replace(children=(
        action("Support {{SERVICE_TYPE}} {{COUNT}}", "2"),)))
    provider = by_subject({"Support {{SERVICE_TYPE}} {{COUNT}}": [numbered(["a {{NOISE_DIRECTIVES}}"])],
                           "a {{NOISE_DIRECTIVES}}": [numbered(["b"])]})
    (base,) = generate_base_intents(flatten(tree), provider, per_node=1)
    assert "Endpoint: Support {{SERVICE_TYPE}} {{COUNT}}\nEndpoint kind: self-service" in provider.calls[0]
    augment_intents([base], provider, variants=1)
    assert "Original message: a {{NOISE_DIRECTIVES}}\n" in provider.calls[1]
    assert provider.calls[1].endswith("numbered 1. through 1.")


def test_base_generation_drops_duplicates_and_reasks(tiny_tree):
    paths = flatten(tiny_tree)[:1]
    replies = [
        numbered(["same text", "Same   TEXT"]),  # one survivor after dedup
        numbered(["different text"]),
    ]
    records = generate_base_intents(paths, by_subject({paths[0].breadcrumb_text(): replies}), per_node=2)
    assert [r.text for r in records] == ["same text", "different text"]


def test_a_stage_called_without_a_pace_keeps_one_pace_over_its_rounds(tiny_tree, monkeypatch):
    paces = []
    init = router.Schedule.__init__
    monkeypatch.setattr(router.Schedule, "__init__", lambda self, *args: paces.append(args[-1]) or init(self, *args))
    paths = flatten(tiny_tree)[:1]
    replies = [numbered(["same text", "Same   TEXT"]), numbered(["different text"])]
    generate_base_intents(paths, by_subject({paths[0].breadcrumb_text(): replies}), per_node=2)
    assert len(paces) == 2 and paces[0] is paces[1]  # two rounds, one pace


def test_base_generation_budget_exhaustion(tiny_tree):
    paths = flatten(tiny_tree)[:1]
    provider = AnsweringProvider(lambda prompt: numbered(["only one"]))  # initial call + 3 extra, all stuck
    with pytest.raises(ValueError, match="only 1 distinct"):
        generate_base_intents(paths, provider, per_node=3)
    assert len(provider.calls) == 4


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
    records = generate_base_intents(flatten(tiny_tree), live_provider(server.url, max_in_flight=1), per_node=2)
    sent = [next(b for b in breadcrumbs if b in prompt_of(request)) for request in server.requests]
    assert sent == [breadcrumbs[0], breadcrumbs[1], breadcrumbs[0], breadcrumbs[2]]
    assert [r.id for r in records] == ["1-1:b00", "1-1:b01", "1-9:b00", "1-9:b01", "2:b00", "2:b01"]
    assert records[0].text == "complaint 3a"  # the first path's answer is its retry's


def test_base_generation_provider_failure_is_raised_as_it_is(tiny_tree):
    error = ProviderError("no reply")
    with pytest.raises(ProviderError) as excinfo:
        generate_base_intents(flatten(tiny_tree), AnsweringProvider(fail_with(error)), per_node=2)
    assert excinfo.value is error


def test_base_generation_rejects_bad_args(tiny_tree):
    paths = flatten(tiny_tree)
    provider = AnsweringProvider(lambda prompt: "")
    with pytest.raises(ValueError, match="^per_node must be at least 1$"):
        generate_base_intents(paths, provider, per_node=0)
    assert provider.calls == []
    with pytest.raises(ValueError):
        generate_base_intents([], AnsweringProvider(lambda prompt: ""))


# --- augmentation ------------------------------------------------------------------

def base_pair():
    return [
        make_record("1-1", "I want to pay my bill."),
        make_record("1-9", "get me a billing person"),
    ]


def test_augment_shape_and_linkage():
    replies = {
        "I want to pay my bill.": [numbered(["ugh, I want to pay my bill", "paying my bill, how"])],
        "get me a billing person": [numbered(["person for billing pls", "need billing human"])],
    }
    augmented = augment_intents(base_pair(), by_subject(replies), variants=2)
    assert [r.id for r in augmented] == [
        "1-1:b00:v1", "1-1:b00:v2", "1-9:b00:v1", "1-9:b00:v2",
    ]
    assert all(r.origin == "augmented" for r in augmented)
    assert augmented[0].base_id == "1-1:b00"
    assert augmented[0].ground_truth == DtmfPath("1-1")
    assert augmented[2].ground_truth == DtmfPath("1-9")
    assert [r.variant_index for r in augmented] == [1, 2, 1, 2]


def test_augment_zero_variants_is_empty():
    assert augment_intents(base_pair(), AnsweringProvider(lambda prompt: ""), variants=0) == []


def test_augment_negative_variants_refused_before_any_call():
    # The CLI refuses --variants -1 itself, so only a library call reaches this check.
    provider = AnsweringProvider(lambda prompt: "")
    with pytest.raises(ValueError, match="^variants must not be negative$"):
        augment_intents(base_pair(), provider, variants=-1)
    assert provider.calls == []


def test_augment_short_reply_gets_second_call():
    replies = {
        "I want to pay my bill.": [numbered(["only one paraphrase"]), numbered(["first", "second"])],
        "get me a billing person": [numbered(["for the second base", "and another"])],
    }
    provider = by_subject(replies)
    augmented = augment_intents(base_pair(), provider, variants=2)
    assert [r.text for r in augmented] == [
        "first", "second", "for the second base", "and another",
    ]
    assert len(provider.calls) == 3


def test_augment_still_short_raises():
    provider = AnsweringProvider(lambda prompt: numbered(["one"]))
    with pytest.raises(ValueError, match="needed 2"):
        augment_intents(base_pair()[:1], provider, variants=2)
    assert len(provider.calls) == 2


def test_augment_identical_variant_retried_once():
    base = base_pair()[:1]
    replies = [
        numbered(["I want to pay my bill.", "a real paraphrase"]),  # v1 echoes base
        numbered(["fixed paraphrase"]),  # single-item retry
    ]
    provider = by_subject({"I want to pay my bill.": replies})
    augmented = augment_intents(base, provider, variants=2)
    assert [r.text for r in augmented] == ["fixed paraphrase", "a real paraphrase"]
    assert len(provider.calls) == 2


def test_augment_identical_after_retry_kept_with_warning(caplog):
    base = base_pair()[:1]
    replies = [
        numbered(["I want to pay my bill.", "a real paraphrase"]),
        numbered(["i want to pay my bill."]),  # retry still identical under dedup key
    ]
    with caplog.at_level(logging.WARNING):
        augmented = augment_intents(base, by_subject({"I want to pay my bill.": replies}), variants=2)
    assert augmented[0].text == "I want to pay my bill."
    assert any("still identical" in r.message for r in caplog.records)


def test_augment_prompts_reproducible_by_seed():
    def prompts_for(seed):
        provider = AnsweringProvider(lambda prompt: numbered(["x1", "x2", "x3"]))
        augment_intents(base_pair(), provider, variants=3, seed=seed)
        return sorted(provider.calls)

    assert prompts_for(7) == prompts_for(7)


def test_augment_noise_directives_follow_profile(monkeypatch):
    for name in ("INTERJECTION_PROB", "FILLER_PROB", "GRAMMAR_ERROR_PROB"):
        monkeypatch.setattr(synthesis, name, 1.0)
    provider = AnsweringProvider(lambda prompt: numbered(["x1"]))
    augment_intents(base_pair(), provider, variants=1, seed=0)
    assert "interjection" in provider.calls[0]
    assert "filler" in provider.calls[0]
    assert "grammatical slip" in provider.calls[0]

    for name in ("INTERJECTION_PROB", "FILLER_PROB", "GRAMMAR_ERROR_PROB"):
        monkeypatch.setattr(synthesis, name, 0.0)
    provider = AnsweringProvider(lambda prompt: numbered(["x1"]))
    augment_intents(base_pair(), provider, variants=1, seed=0)
    assert "interjection" not in provider.calls[0]


# --- build_dataset ------------------------------------------------------------------

def test_build_dataset_small(tiny_tree):
    paths = flatten(tiny_tree)
    bases = dict(zip(breadcrumbs(tiny_tree), [
        ["pay my bill", "how to pay"],
        ["billing agent now", "human for bills"],
        ["service broken", "nothing works"],
    ]))
    # One paraphrase call per base record.
    provider = AnsweringProvider(lambda prompt: numbered(bases.get(subject_of(prompt))
                                                         or [f"variant of {subject_of(prompt)}"]))
    ds = build_dataset(tiny_tree, provider, per_node=2, variants=1)
    assert len(ds.records) == 2 * 3 * 2
    assert validate_dataset(ds, paths) == []
    base = [r for r in ds.records if r.origin == "base"]
    assert len(base) == 6
    assert ds.records[:6] == base  # base block first, then the variants


def test_build_dataset_runs_both_stages_at_one_pace_seeded_by_its_seed(tiny_tree, monkeypatch):
    paced = []
    run_calls = synthesis.run_calls
    monkeypatch.setattr(synthesis, "run_calls", lambda *args, pacing, **kwargs: (
        paced.append(pacing) or run_calls(*args, pacing=pacing, **kwargs)))
    provider = AnsweringProvider(lambda prompt: numbered([f"about {subject_of(prompt)}"]))
    build_dataset(tiny_tree, provider, per_node=1, variants=1, seed=7)
    assert len(paced) == 2 and paced[0] is paced[1]  # the paraphrase stage keeps the base stage's pace
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


def test_validate_count_rules_hold_in_any_record_order(dataset, paths):
    shuffled = list(dataset.records)
    random.Random(7).shuffle(shuffled)  # paraphrases may now come before their base record
    assert validate_dataset(dataset._replace(records=shuffled), paths) == []

    def edited(edit):
        return dataset._replace(records=[edit(r) for r in shuffled])

    relabelled = edited(lambda r: r._replace(ground_truth=DtmfPath("1-2")) if r.base_id == "1-1:b00" else r)
    assert validate_dataset(relabelled, paths) == [
        "base record count per terminal path must be one number, but 1-1 has 9 and 1-2 has 11"
    ]
    moved = edited(lambda r: r._replace(base_id="1-1:b01", variant_index=4) if r.id == "1-1:b00:v3" else r)
    assert validate_dataset(moved, paths) == [
        "paraphrase count per base record must be one number, but 1-1:b00 has 2 and 1-1:b01 has 4"
    ]
    repeated = edited(lambda r: r._replace(variant_index=2) if r.id == "1-1:b00:v3" else r)
    assert validate_dataset(repeated, paths) == [
        "record 1-1:b00: paraphrase variant_index values [1, 2, 2] out of range or repeated; "
        "want 1..3, each once"
    ]


# --- JSONL files --------------------------------------------------------------------

def test_dataset_round_trip(tmp_path, tiny_tree):
    ds = tiny_dataset()
    file = tmp_path / "tiny.jsonl"
    save_dataset(ds, file)
    loaded = load_dataset(file, menu_name="Tiny")
    assert loaded == ds
    assert validate_dataset(loaded, flatten(tiny_tree)) == []


def fail_writing_half(self, data):
    with open(self, "wb") as handle:
        handle.write(data[:len(data) // 2])
    raise OSError(errno.ENOSPC, "No space left on device")


def fail_renaming(source, target):
    raise OSError(errno.EXDEV, "Invalid cross-device link")


# The step of save_dataset that fails: the object, its attribute and the failing stand-in.
SAVE_FAILURES = {"at-the-write": (Path, "write_bytes", fail_writing_half),
                 "at-the-rename": (os, "replace", fail_renaming)}


@pytest.mark.parametrize("old", [b"old dataset\n", None], ids=["over-a-dataset", "no-dataset"])
@pytest.mark.parametrize("failure", SAVE_FAILURES.values(), ids=SAVE_FAILURES.keys())
def test_a_failed_save_leaves_the_old_dataset_or_none(tmp_path, monkeypatch, old, failure):
    file = tmp_path / "intents.jsonl"
    if old is not None:
        file.write_bytes(old)
    monkeypatch.setattr(*failure)
    with pytest.raises(OSError):
        save_dataset(tiny_dataset(), file)
    assert list(tmp_path.iterdir()) == ([file] if old is not None else [])
    if old is not None:
        assert file.read_bytes() == old


def test_a_saved_dataset_has_the_mode_of_a_plain_write(tmp_path):
    (tmp_path / "plain").write_text("", encoding="utf-8")
    save_dataset(tiny_dataset(), tmp_path / "intents.jsonl")
    assert (tmp_path / "intents.jsonl").stat().st_mode == (tmp_path / "plain").stat().st_mode


def test_dataset_line_keys_in_file_order():
    line = dataset_to_jsonl(tiny_dataset()._replace(records=[make_record("1-9", "agent, bitte")]))
    assert line == ('{"id": "1-9:b00", "text": "agent, bitte", "ground_truth": "1-9", '
                    '"origin": "base", "base_id": "1-9:b00", "variant_index": 0}\n')


def test_load_dataset_rejects_bad_lines(tmp_path):
    file = tmp_path / "bad.jsonl"
    file.write_text('{"id": "x"}\n', encoding="utf-8")
    with pytest.raises(ValueError, match="bad record"):
        load_dataset(file)


@pytest.mark.parametrize("truth", ["1--1", ["1-1"], None])
def test_load_dataset_bad_path_names_its_line(tmp_path, truth):
    good = json.dumps({"id": "a", "text": "t", "ground_truth": "1-1", "origin": "base",
                       "base_id": "a", "variant_index": 0})
    bad = json.dumps({"id": "b", "text": "u", "ground_truth": truth, "origin": "base",
                      "base_id": "b", "variant_index": 0})
    file = tmp_path / "bad.jsonl"
    file.write_text(f"{good}\n{good}\n{bad}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"bad\.jsonl:3: bad record: not a canonical DTMF path"):
        load_dataset(file)

