"""Property tests of the file round trips: menu documents, dataset JSONL and
results rows."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from ivroute.datagen import Dataset, IntentRecord, dataset_to_jsonl, load_dataset, save_dataset
from ivroute.menu import (
    ActionType,
    DtmfPath,
    MenuNode,
    MenuTree,
    NodeKind,
    parse_menu,
    tree_to_document,
)
from ivroute.prompts import RoutingCondition
from ivroute.router import INVALID, RoutingResult, result_from_record

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
    assert parse_menu(document) == tree
    assert parse_menu(json.dumps(document, ensure_ascii=False)) == tree
    assert tree_to_document(parse_menu(document)) == document


dtmf_paths = st.lists(st.integers(0, 9), min_size=1, max_size=5).map(lambda d: DtmfPath(tuple(d)))

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
    ds = Dataset(menu_name=menu_name, records=dataset_records, per_node_base=0, variants_per_base=0)
    save_dataset(ds, file)
    loaded = load_dataset(file, menu_name=menu_name)
    assert loaded.menu_name == menu_name
    assert loaded.records == dataset_records
    assert dataset_to_jsonl(loaded) == dataset_to_jsonl(ds)
    # Records with one label share one parsed path.
    truths = [r.ground_truth for r in loaded.records]
    assert len({id(t) for t in truths}) == len(set(truths))


@st.composite
def results(draw):
    truth = draw(dtmf_paths).canonical()
    predicted = draw(st.one_of(st.just(truth), st.just(INVALID), dtmf_paths.map(DtmfPath.canonical)))
    rules = ("trim", "unquote", "strip_trailing_period", "map_unicode_dashes", "lenient_extract")
    return RoutingResult(
        intent_id=draw(st.text(min_size=1)),
        condition=draw(st.sampled_from(RoutingCondition)),
        raw_response=draw(st.text()),
        normalization_applied=tuple(draw(st.lists(st.sampled_from(rules), unique=True))),
        predicted=predicted,
        ground_truth=truth,
        correct=predicted == truth,
        known_path=draw(st.booleans()),
        latency=draw(st.floats(min_value=0, allow_nan=False, allow_infinity=False)),
        model_name=draw(st.text()),
    )


@settings(max_examples=300, deadline=None)
@given(results())
def test_result_survives_a_results_file_row(result):
    # One row as save_results writes it and load_results reads it back.
    row = json.dumps(result._asdict(), ensure_ascii=False)
    assert result_from_record(json.loads(row)) == result
