"""Dataset synthesis: base generation, augmentation, validation, and JSONL
round-trips."""

import json
import logging
import random
import threading

import pytest

from ivroute.datagen import (
    DatagenError,
    Dataset,
    IntentRecord,
    dataset_to_jsonl,
    load_dataset,
    save_dataset,
    validate_dataset,
)
from ivroute.menu import DtmfPath, flatten
from ivroute.provider import HttpProvider, ProviderConfig, ProviderError, ScriptedProvider
from ivroute import synthesis
from ivroute.synthesis import (
    NoiseProfile,
    augment_intents,
    build_dataset,
    generate_base_intents,
    parse_listed_lines,
)

from conftest import action, make_record, tiny_dataset


def serial_scripted(replies):
    return ScriptedProvider(replies, config=ProviderConfig(max_in_flight=1))


def numbered(lines):
    return "\n".join(f"{i}. {line}" for i, line in enumerate(lines, start=1))


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
    replies = [
        numbered(["pay my bill now", "how do I pay"]),
        numbered(["need a person for billing", "agent please"]),
        numbered(["my line is dead", "no service at home"]),
    ]
    records = generate_base_intents(paths, serial_scripted(replies), per_node=2)
    assert [r.id for r in records] == [
        "1-1:b00", "1-1:b01", "1-9:b00", "1-9:b01", "2:b00", "2:b01",
    ]
    assert all(r.origin == "base" and r.base_id == r.id and r.variant_index == 0 for r in records)
    assert records[0].ground_truth == DtmfPath("1-1")
    assert records[4].text == "my line is dead"


def test_base_generation_prompts_name_the_breadcrumb(tiny_tree):
    paths = flatten(tiny_tree)
    provider = serial_scripted([numbered(["a", "b"]), numbered(["c", "d"]), numbered(["e", "f"])])
    generate_base_intents(paths, provider, per_node=2)
    assert "Billing -> Pay Bill" in provider.calls[0]
    assert "agent handoff" in provider.calls[1]
    assert "self-service" in provider.calls[2]


def test_generation_prompts_keep_placeholders_of_labels_and_texts_as_text(tiny_tree):
    # Each template is filled in one pass: a breadcrumb or a text holding a placeholder is not filled again.
    tree = tiny_tree._replace(root=tiny_tree.root._replace(children=(
        action("Support {{SERVICE_TYPE}} {{COUNT}}", 2),)))
    provider = serial_scripted([numbered(["a {{NOISE_DIRECTIVES}}"]), numbered(["b"])])
    (base,) = generate_base_intents(flatten(tree), provider, per_node=1)
    assert "Endpoint: Support {{SERVICE_TYPE}} {{COUNT}}\nEndpoint kind: self-service" in provider.calls[0]
    augment_intents([base], provider, variants=1, noise=NoiseProfile(0, 0, 0))
    assert "Original message: a {{NOISE_DIRECTIVES}}\n" in provider.calls[1]
    assert provider.calls[1].endswith("numbered 1. through 1.")


def test_base_generation_drops_duplicates_and_reasks(tiny_tree):
    paths = flatten(tiny_tree)[:1]
    replies = [
        numbered(["same text", "Same   TEXT"]),  # one survivor after dedup
        numbered(["different text"]),
    ]
    records = generate_base_intents(paths, serial_scripted(replies), per_node=2)
    assert [r.text for r in records] == ["same text", "different text"]


def test_base_generation_budget_exhaustion(tiny_tree):
    paths = flatten(tiny_tree)[:1]
    replies = [numbered(["only one"])] * 4  # initial call + 3 extra, all stuck
    with pytest.raises(DatagenError, match="only 1 distinct"):
        generate_base_intents(paths, serial_scripted(replies), per_node=3)


def test_base_generation_call_backing_off_lets_the_next_path_go_first(tiny_tree):
    # One worker: the first path's call gets a 503, and the second path's
    # call goes out while it waits. A worker that slept through the backoff
    # would send the first path's prompt twice in a row.
    breadcrumbs = [tp.breadcrumb_text() for tp in flatten(tiny_tree)]
    sent = []
    lock = threading.Lock()

    def transport(payload):
        prompt = payload["messages"][0]["content"]
        with lock:
            sent.append(next(b for b in breadcrumbs if b in prompt))
            if len(sent) == 1:
                return 503, "busy", "0"
            count = len(sent)
        reply = numbered([f"complaint {count}a", f"complaint {count}b"])
        return 200, json.dumps({"choices": [{"message": {"content": reply}}]}), None

    config = ProviderConfig(endpoint_url="http://endpoint.test/v1", max_in_flight=1)
    records = generate_base_intents(flatten(tiny_tree), HttpProvider(config, transport=transport),
                                    per_node=2)
    assert sent == [breadcrumbs[0], breadcrumbs[1], breadcrumbs[0], breadcrumbs[2]]
    assert [r.id for r in records] == ["1-1:b00", "1-1:b01", "1-9:b00", "1-9:b01", "2:b00", "2:b01"]
    assert records[0].text == "complaint 3a"  # the first path's answer is its retry's


def test_base_generation_provider_failure_is_raised_as_it_is(tiny_tree):
    paths = flatten(tiny_tree)
    with pytest.raises(ProviderError, match="scripted mock ran out of replies"):
        generate_base_intents(paths, serial_scripted([numbered(["a", "b"])]), per_node=2)


def test_base_generation_rejects_bad_args(tiny_tree):
    paths = flatten(tiny_tree)
    with pytest.raises(ValueError):
        generate_base_intents(paths, serial_scripted([]), per_node=0)
    with pytest.raises(ValueError):
        generate_base_intents([], serial_scripted([]))


# --- augmentation ------------------------------------------------------------------

def base_pair():
    return [
        make_record("1-1", "I want to pay my bill."),
        make_record("1-9", "get me a billing person"),
    ]


def test_augment_shape_and_linkage():
    replies = [
        numbered(["ugh, I want to pay my bill", "paying my bill, how"]),
        numbered(["person for billing pls", "need billing human"]),
    ]
    augmented = augment_intents(base_pair(), serial_scripted(replies), variants=2)
    assert [r.id for r in augmented] == [
        "1-1:b00:v1", "1-1:b00:v2", "1-9:b00:v1", "1-9:b00:v2",
    ]
    assert all(r.origin == "augmented" for r in augmented)
    assert augmented[0].base_id == "1-1:b00"
    assert augmented[0].ground_truth == DtmfPath("1-1")
    assert augmented[2].ground_truth == DtmfPath("1-9")
    assert [r.variant_index for r in augmented] == [1, 2, 1, 2]


def test_augment_zero_variants_is_empty():
    assert augment_intents(base_pair(), serial_scripted([]), variants=0) == []


def test_augment_rejects_non_base_records():
    bad = make_record("1-1", "v", origin="augmented", base_suffix="b00", variant_index=1)
    with pytest.raises(ValueError, match="not a base record"):
        augment_intents([bad], serial_scripted([]), variants=1)


def test_augment_short_reply_gets_second_call():
    replies = [
        numbered(["only one paraphrase"]),
        numbered(["first", "second"]),
        numbered(["for the second base", "and another"]),
    ]
    provider = serial_scripted(replies)
    augmented = augment_intents(base_pair(), provider, variants=2)
    assert [r.text for r in augmented] == [
        "first", "second", "for the second base", "and another",
    ]
    assert len(provider.calls) == 3


def test_augment_still_short_raises():
    replies = [numbered(["one"]), numbered(["one"])]
    with pytest.raises(DatagenError, match="needed 2"):
        augment_intents(base_pair()[:1], serial_scripted(replies), variants=2)


def test_augment_identical_variant_retried_once():
    base = base_pair()[:1]
    replies = [
        numbered(["I want to pay my bill.", "a real paraphrase"]),  # v1 echoes base
        numbered(["fixed paraphrase"]),  # single-item retry
    ]
    provider = serial_scripted(replies)
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
        augmented = augment_intents(base, serial_scripted(replies), variants=2)
    assert augmented[0].text == "I want to pay my bill."
    assert any("still identical" in r.message for r in caplog.records)


def test_augment_prompts_reproducible_by_seed():
    noise = NoiseProfile(0.5, 0.5, 0.5)
    replies = [numbered(["x1", "x2", "x3"]), numbered(["y1", "y2", "y3"])]

    def prompts_for(seed):
        provider = serial_scripted(list(replies))
        augment_intents(base_pair(), provider, variants=3, noise=noise, seed=seed)
        return provider.calls

    assert prompts_for(7) == prompts_for(7)


def test_augment_noise_directives_follow_profile():
    replies = [numbered(["x1"]), numbered(["y1"])]
    always = NoiseProfile(1.0, 1.0, 1.0)
    provider = serial_scripted(list(replies))
    augment_intents(base_pair(), provider, variants=1, noise=always, seed=0)
    assert "interjection" in provider.calls[0]
    assert "filler" in provider.calls[0]
    assert "grammatical slip" in provider.calls[0]

    never = NoiseProfile(0.0, 0.0, 0.0)
    provider = serial_scripted(list(replies))
    augment_intents(base_pair(), provider, variants=1, noise=never, seed=0)
    assert "interjection" not in provider.calls[0]


@pytest.mark.parametrize("probs", [(5, 0.3, 0.2), (0.3, -1, 0.2), (0.3, 0.3, float("nan")),
                                   (0.3, 0.3, 1.01)])
def test_noise_probabilities_outside_0_1_are_refused(probs):
    with pytest.raises(ValueError, match="must be within \\[0, 1\\]"):
        NoiseProfile(*probs)


# --- build_dataset ------------------------------------------------------------------

def test_build_dataset_small(tiny_tree):
    paths = flatten(tiny_tree)
    replies = [
        numbered(["pay my bill", "how to pay"]),
        numbered(["billing agent now", "human for bills"]),
        numbered(["service broken", "nothing works"]),
    ]
    for i in range(6):  # one paraphrase call per base record
        replies.append(numbered([f"variant of base {i}"]))
    ds = build_dataset(tiny_tree, paths, serial_scripted(replies), per_node=2, variants=1)
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
    paths = flatten(tiny_tree)
    replies = [numbered([f"{kind} {i}"]) for kind in ("complaint", "variant") for i in range(3)]
    build_dataset(tiny_tree, paths, serial_scripted(replies), per_node=1, variants=1, seed=7)
    assert len(paced) == 2 and paced[0] is paced[1]  # the paraphrase stage keeps the base stage's pace
    assert paced[0].rng.getstate() == random.Random(7).getstate()  # no retry drew from it


# --- dataset validation --------------------------------------------------------------

def test_fixture_dataset_validates(dataset, paths):
    assert validate_dataset(dataset, paths) == []
    assert len(dataset.records) == 920
    assert sum(1 for r in dataset.records if r.origin == "base") == 230


def test_validate_flags_duplicate_ids(tiny_tree):
    paths = flatten(tiny_tree)
    ds = tiny_dataset()
    broken = Dataset(ds.menu_name, ds.records + [ds.records[0]])
    assert any("duplicate id" in p for p in validate_dataset(broken, paths))


def test_validate_flags_unknown_truth(tiny_tree):
    paths = flatten(tiny_tree)
    ds = tiny_dataset()
    stray = make_record("9", "registered nowhere")
    broken = Dataset(ds.menu_name, ds.records[1:] + [stray])
    assert any("not a terminal path" in p for p in validate_dataset(broken, paths))


def test_validate_flags_orphan_augmented(tiny_tree):
    paths = flatten(tiny_tree)
    ds = tiny_dataset()
    orphan = IntentRecord(
        id="1-1:b77:v1",
        text="orphan",
        ground_truth=DtmfPath("1-1"),
        origin="augmented",
        base_id="1-1:b77",
        variant_index=1,
    )
    broken = Dataset(ds.menu_name, ds.records + [orphan])
    assert any("not in dataset" in p for p in validate_dataset(broken, paths))


def test_validate_flags_truth_drift(tiny_tree):
    paths = flatten(tiny_tree)
    ds = tiny_dataset()
    drifted = IntentRecord(
        id="1-1:b00:v1",
        text="label went wrong",
        ground_truth=DtmfPath("1-9"),
        origin="augmented",
        base_id="1-1:b00",
        variant_index=1,
    )
    broken = Dataset(ds.menu_name, ds.records + [drifted])
    assert any("differs from base" in p for p in validate_dataset(broken, paths))


def test_validate_flags_variant_index_range(tiny_tree):
    paths = flatten(tiny_tree)
    ds = tiny_dataset()
    outlier = IntentRecord(
        id="1-1:b00:v9",
        text="ninth variant of one",
        ground_truth=DtmfPath("1-1"),
        origin="augmented",
        base_id="1-1:b00",
        variant_index=9,
    )
    broken = Dataset(ds.menu_name, ds.records + [outlier])
    assert any("out of range" in p for p in validate_dataset(broken, paths))


@pytest.mark.parametrize("blank", ["", "   ", "\n", " \t\r\n"])
def test_validate_flags_a_blank_text(tiny_tree, blank):
    records = tiny_dataset().records
    records[3] = records[3]._replace(text=blank)  # no prompt can be built from it
    broken = tiny_dataset()._replace(records=records)
    assert validate_dataset(broken, flatten(tiny_tree)) == ["record 1-9:b01: text is blank"]


def test_validate_flags_one_text_under_two_labels(tiny_tree):
    paths = flatten(tiny_tree)
    records = tiny_dataset().records
    records[2] = records[2]._replace(text=records[0].text)  # a 1-9 record takes a 1-1 text
    broken = tiny_dataset()._replace(records=records)
    assert validate_dataset(broken, paths) == [
        "record 1-9:b00: same text as record 1-1:b00, which is labelled 1-1"
    ]


def test_validate_allows_one_text_repeated_under_one_label(tiny_tree):
    # augment_intents keeps a paraphrase that came back equal to its base text
    ds = tiny_dataset()
    same = [make_record(r.ground_truth.canonical(), r.text, origin="augmented",
                        base_suffix=r.id.split(":")[1], variant_index=1) for r in ds.records]
    repeated = ds._replace(records=ds.records + same)
    assert validate_dataset(repeated, flatten(tiny_tree)) == []


def test_validate_flags_count_mismatch(tiny_tree):
    paths = flatten(tiny_tree)
    ds = tiny_dataset()
    short = Dataset(ds.menu_name, ds.records[:-1])
    assert any("base record count" in p for p in validate_dataset(short, paths))


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


def test_validate_flags_a_terminal_path_without_base_records(tiny_tree):
    ds = tiny_dataset()
    without_2 = ds._replace(records=[r for r in ds.records if r.ground_truth != "2"])
    assert validate_dataset(without_2, flatten(tiny_tree)) == [
        "terminal path 2 has no base record",
        "base record count per terminal path must be one number, but 2 has 0 and 1-1 has 2",
    ]


# --- JSONL files --------------------------------------------------------------------

def test_dataset_round_trip(tmp_path, tiny_tree):
    ds = tiny_dataset()
    file = tmp_path / "tiny.jsonl"
    save_dataset(ds, file)
    loaded = load_dataset(file, menu_name="Tiny")
    assert loaded == ds
    assert validate_dataset(loaded, flatten(tiny_tree)) == []


def test_dataset_line_keys_in_file_order():
    line = dataset_to_jsonl(tiny_dataset()._replace(records=[make_record("1-9", "agent, bitte")]))
    assert line == ('{"id": "1-9:b00", "text": "agent, bitte", "ground_truth": "1-9", '
                    '"origin": "base", "base_id": "1-9:b00", "variant_index": 0}\n')


def test_load_dataset_rejects_bad_lines(tmp_path):
    file = tmp_path / "bad.jsonl"
    file.write_text('{"id": "x"}\n', encoding="utf-8")
    with pytest.raises(DatagenError, match="bad record"):
        load_dataset(file)


@pytest.mark.parametrize("truth", ["1--1", ["1-1"], None])
def test_load_dataset_bad_path_names_its_line(tmp_path, truth):
    good = json.dumps({"id": "a", "text": "t", "ground_truth": "1-1", "origin": "base",
                       "base_id": "a", "variant_index": 0})
    bad = json.dumps({"id": "b", "text": "u", "ground_truth": truth, "origin": "base",
                      "base_id": "b", "variant_index": 0})
    file = tmp_path / "bad.jsonl"
    file.write_text(f"{good}\n{good}\n{bad}\n", encoding="utf-8")
    with pytest.raises(DatagenError, match=r"bad\.jsonl:3: bad record: not a canonical DTMF path"):
        load_dataset(file)

