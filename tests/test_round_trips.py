"""Property tests of the file round trips (menu documents, dataset JSONL and
results rows) and of the one path grammar that every reader of a path
applies."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ivroute.datagen import (
    DatagenError,
    Dataset,
    IntentRecord,
    dataset_to_jsonl,
    load_dataset,
    save_dataset,
)
from ivroute.menu import (
    ActionType,
    DtmfPath,
    MenuFormatError,
    MenuNode,
    MenuTree,
    NodeKind,
    parse_menu,
    tree_to_document,
)
from ivroute.prompts import RoutingCondition
from ivroute.router import INVALID, RoutingResult, load_results, parse_dtmf_response, result_from_record

labels = st.text(min_size=1, max_size=12)
action_types = st.sampled_from((ActionType.SELF_SERVICE, ActionType.AGENT_HANDOFF))


@st.composite
def menu_nodes(draw, digit=None, depth=0):
    """A valid menu node: distinct child digits, navigation options only on
    0 and never alone, sub-menus at most three levels deep."""
    digits = draw(st.lists(st.integers(0, 9), min_size=1, max_size=4, unique=True))
    children = []
    for child_digit in digits:
        kinds = ["action"] + (["menu"] if depth < 3 else [])
        if child_digit == 0 and len(digits) > 1:
            kinds.append("navigation")
        kind = draw(st.sampled_from(kinds))
        if kind == "menu":
            children.append(draw(menu_nodes(child_digit, depth + 1)))
        elif kind == "navigation":
            children.append(MenuNode(label=draw(labels), digit=0, kind=NodeKind.NAVIGATION))
        else:
            children.append(MenuNode(label=draw(labels), digit=child_digit, kind=NodeKind.ACTION,
                                     action_type=draw(action_types)))
    return MenuNode(label=draw(labels), digit=digit, kind=NodeKind.MENU, children=tuple(children),
                    prompt_text=draw(st.text(max_size=30)))


menu_trees = st.builds(MenuTree, name=labels, root=menu_nodes())


@settings(max_examples=200, deadline=None)
@given(menu_trees)
def test_menu_survives_its_document(tree):
    document = tree_to_document(tree)
    assert parse_menu(json.dumps(document, ensure_ascii=False)) == tree
    assert tree_to_document(parse_menu(json.dumps(document))) == document


dtmf_paths = st.lists(st.sampled_from("0123456789"), min_size=1, max_size=5).map(
    lambda digits: DtmfPath("-".join(digits))
)

records = st.builds(
    IntentRecord,
    id=st.text(min_size=1),
    text=st.text(),
    ground_truth=dtmf_paths,
    origin=st.sampled_from(("base", "augmented")),
    base_id=st.text(min_size=1),
    variant_index=st.integers(-(2**40), 2**40),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(records, max_size=12), st.text())
def test_dataset_survives_save_and_load(tmp_path_factory, dataset_records, menu_name):
    file = tmp_path_factory.getbasetemp() / "round-trip.jsonl"  # rewritten by every example
    ds = Dataset(menu_name=menu_name, records=dataset_records)
    save_dataset(ds, file)
    loaded = load_dataset(file, menu_name=menu_name)
    assert loaded.menu_name == menu_name
    assert loaded.records == dataset_records
    assert all(type(r.ground_truth) is DtmfPath for r in loaded.records)
    assert dataset_to_jsonl(loaded) == dataset_to_jsonl(ds)


@st.composite
def results(draw):
    truth = draw(dtmf_paths)
    predicted = draw(st.one_of(st.just(truth), st.just(INVALID), dtmf_paths))
    return RoutingResult(
        intent_id=draw(st.text(min_size=1)),
        raw_response=draw(st.text()),
        predicted=predicted,
        ground_truth=truth,
        latency=draw(st.floats(min_value=0, allow_nan=False, allow_infinity=False)),
    )


# The keys rows of earlier formats held beside the answer, with any values.
previous_row_keys = st.fixed_dictionaries({}, optional={
    "condition": st.sampled_from([c.value for c in RoutingCondition]),
    "model_name": st.text(),
    "correct": st.booleans(),
    "known_path": st.booleans(),
    "normalization_applied": st.lists(st.text()),
})


@settings(max_examples=300, deadline=None)
@given(results(), previous_row_keys)
def test_result_survives_a_results_file_row(result, previous):
    # One row as save_results writes it and load_results reads it back.
    row = json.loads(json.dumps(result._asdict(), ensure_ascii=False))
    assert list(row) == ["intent_id", "raw_response", "predicted", "ground_truth", "latency"]
    assert result_from_record(row) == result
    # A previous-format row is the same result, graded from its evidence.
    assert result_from_record({**row, **previous}) == result


# --- the path grammar -------------------------------------------------------------

def is_path(text) -> bool:
    """The grammar, stated apart from its regular expression: one or more
    ASCII digits 0-9 joined by single hyphens."""
    return isinstance(text, str) and all(
        len(part) == 1 and part in "0123456789" for part in text.split("-")
    )


# Near misses: unicode digits (superscript two, fullwidth one, Arabic-Indic
# three), unicode dashes and whitespace beside the ASCII digits and hyphen.
path_like = st.text(alphabet="0123456789-\u00b2\uff11\u0663\u2013 \n.", max_size=8)
any_text = st.one_of(path_like, st.text(max_size=8))


@settings(max_examples=300, deadline=None)
@given(any_text)
def test_a_path_is_exactly_what_the_grammar_accepts(text):
    if is_path(text):
        assert DtmfPath(text) == text
    else:
        with pytest.raises(ValueError, match="not a canonical DTMF path"):
            DtmfPath(text)


def dataset_line(ground_truth) -> str:
    return json.dumps({"id": "a", "text": "t", "ground_truth": ground_truth, "origin": "base",
                       "base_id": "a", "variant_index": 0}, ensure_ascii=False) + "\n"


@settings(max_examples=200, deadline=None)
@given(any_text)
def test_a_dataset_line_takes_exactly_the_grammars_paths(tmp_path_factory, text):
    file = tmp_path_factory.getbasetemp() / "grammar.jsonl"  # rewritten by every example
    file.write_text(dataset_line(text), encoding="utf-8")
    if is_path(text):
        assert load_dataset(file).records[0].ground_truth == text
    else:
        with pytest.raises(DatagenError, match="not a canonical DTMF path"):
            load_dataset(file)


def results_row(predicted, ground_truth) -> str:
    return json.dumps({
        "intent_id": "a", "raw_response": "r", "predicted": predicted, "ground_truth": ground_truth,
        "latency": 0.0,
    }, ensure_ascii=False) + "\n"


@settings(max_examples=200, deadline=None)
@given(any_text)
@example(INVALID)
def test_a_results_row_takes_exactly_the_grammars_paths(tmp_path_factory, text):
    file = tmp_path_factory.getbasetemp() / "grammar-results.jsonl"  # rewritten by every example
    for predicted, ground_truth in [(text, "1"), ("1", text), (INVALID, text)]:
        file.write_text(results_row(predicted, ground_truth), encoding="utf-8")
        # A row loads iff it predicts a path or INVALID, for a path.
        if (is_path(predicted) or predicted == INVALID) and is_path(ground_truth):
            (result,) = load_results(file)
            assert (result.predicted, result.ground_truth) == (predicted, ground_truth)
        else:
            with pytest.raises(ValueError, match="not a canonical DTMF path"):
                load_results(file)


@settings(max_examples=300, deadline=None)
@given(any_text)
def test_a_strict_reply_is_a_path_exactly_when_the_grammar_says(text):
    parsed = parse_dtmf_response(text)
    if not parsed.normalization_applied:  # the reply is parsed as it came
        assert (parsed.path is not None) == is_path(text)
        assert parsed.path is None or parsed.path == text


def one_option_menu(digit) -> str:
    return json.dumps({"name": "One", "root": {"label": "Root", "kind": "menu", "children": [
        {"label": "Pay", "digit": digit, "kind": "action", "action_type": "self_service"},
    ]}})


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.text(max_size=2), path_like))
def test_a_menu_digit_is_exactly_one_of_0_to_9(digit):
    if len(digit) == 1 and digit in "0123456789":
        assert parse_menu(one_option_menu(digit)).root.children[0].digit == int(digit)
    else:
        with pytest.raises(MenuFormatError, match="digit must be"):
            parse_menu(one_option_menu(digit))
