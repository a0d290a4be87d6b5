"""Property tests of the file round trips (menu documents, dataset JSONL,
results rows and run directories), of writing each artifact whole or not at
all, and of the one path grammar that every reader of a path applies."""

import json
import string
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ivroute.datagen import (
    Dataset,
    IntentRecord,
    dataset_to_jsonl,
    load_dataset,
    save_dataset,
)
from ivroute.evaluation import EvalReport, build_report, emit_report
from ivroute.menu import (
    DtmfPath,
    MenuNode,
    MenuTree,
    flatten,
    offered_paths,
    parse_menu,
    render_descriptive,
    render_flattened,
    tree_to_document,
    validate_menu,
)
from ivroute.prompts import RoutingCondition
from ivroute.router import (
    IDENTITY_KEYS,
    INVALID,
    RoutingResult,
    RoutingRun,
    build_manifest,
    check_vouched,
    load_results,
    menu_hash,
    parse_dtmf_response,
    read_manifest,
    read_results,
    result_from_record,
    run_id,
    save_run,
)

from conftest import fail_at_step

# Labels that validate_menu passes, but for a rare "press <digit>". It refuses six in ten texts of any
# character, most for a control character (Cc): too many for the filter of test_menu_survives_its_document.
# loose_trees below draws such texts.
labels = st.text(st.characters(exclude_categories=("Cc", "Cs", "Zl", "Zp")), min_size=1, max_size=12)
action_types = st.sampled_from(("self_service", "agent_handoff"))


@st.composite
def menu_nodes(draw, digit=None, depth=0, labels=labels, prompt_texts=st.text(max_size=30)):
    """A menu node of a valid shape: distinct child digits, navigation
    options only on 0 and never alone, sub-menus at most three levels deep.
    Its texts are what ``labels`` and ``prompt_texts`` draw."""
    digits = draw(st.lists(st.sampled_from("0123456789"), min_size=1, max_size=4, unique=True))
    children = []
    for child_digit in digits:
        kinds = ["action"] + (["menu"] if depth < 3 else [])
        if child_digit == "0" and len(digits) > 1:
            kinds.append("navigation")
        kind = draw(st.sampled_from(kinds))
        if kind == "menu":
            children.append(draw(menu_nodes(child_digit, depth + 1, labels, prompt_texts)))
        elif kind == "navigation":
            children.append(MenuNode(label=draw(labels), digit="0", kind="navigation"))
        else:
            children.append(MenuNode(label=draw(labels), digit=child_digit, kind="action",
                                     action_type=draw(action_types)))
    return MenuNode(label=draw(labels), digit=digit, kind="menu", children=tuple(children),
                    prompt_text=draw(prompt_texts))


menu_trees = st.builds(MenuTree, name=labels, root=menu_nodes())


@settings(max_examples=200, deadline=None)
@given(menu_trees.filter(lambda tree: not validate_menu(tree)))
def test_menu_survives_its_document(tree):
    document = tree_to_document(tree)
    assert parse_menu(json.dumps(document, ensure_ascii=False)) == tree
    assert tree_to_document(parse_menu(json.dumps(document))) == document


# Names, labels and messages that may be empty, may hold any character, lone surrogates (Cs) included, which
# st.characters() alone never draws, and may hold a line that an outline reads as a section header, or a
# "press <digit>" that it reads as a choice. validate_menu refuses almost every tree of them, so
# loose_trees draws the trees of menu_trees, which it passes, as often.
any_characters = st.characters() | st.characters(categories=["Cs"])
loose_texts = st.text(any_characters, max_size=12) | st.builds(
    "{}\n--- Fake (DTMF: 9) ---\n{} press 9".format, st.text(any_characters, max_size=4), st.text(max_size=4))
loose_trees = menu_trees | st.builds(MenuTree, name=loose_texts,
                                     root=menu_nodes(labels=loose_texts, prompt_texts=loose_texts))


@settings(max_examples=200, deadline=None)
@given(loose_trees)
def test_a_tree_is_judged_alike_parsed_or_built(tree):
    # Written without escapes, a drawn high and low surrogate stay two characters, as in the built tree;
    # a file's escaped pair would read back as one character.
    document = json.dumps(tree_to_document(tree), ensure_ascii=False)
    problems = validate_menu(tree)
    if problems:
        with pytest.raises(ValueError) as refused:
            parse_menu(document)
        assert str(refused.value) == "; ".join(problems)
    else:
        assert parse_menu(document) == tree
        assert len(menu_hash(tree)) == 64  # a tree validate_menu passes can be hashed, as route_all does


# Labels of letters and spaces, and menus that speak no message of their
# own, so the outline announces each child in its "For <label>, press <d>." line.
plain_labels = st.text(alphabet=string.ascii_letters + " ", min_size=1, max_size=12)
plain_trees = st.builds(MenuTree, name=plain_labels, root=menu_nodes(labels=plain_labels, prompt_texts=st.just("")))
# Plain labels that may say "press <digit>", which a "For <label>, press <d>." line would offer as a choice
# the menu does not have, unless validate_menu refuses it; after a letter, "press" is no word and offers nothing.
pressing_labels = plain_labels | st.builds("{}press {}".format, plain_labels, st.sampled_from(string.digits))
pressing_trees = st.builds(MenuTree, name=pressing_labels,
                           root=menu_nodes(labels=pressing_labels, prompt_texts=st.just("")))


def navigation_paths(node, prefix=""):
    for child in node.children:
        path = prefix + child.digit
        if child.kind == "navigation":
            yield path
        yield from navigation_paths(child, path + "-")


def assert_outline_offers_the_paths_of(tree):
    """The outline offers each terminal path and each navigation option's path, and nothing else."""
    outline_paths = [path for path, _ in offered_paths(render_descriptive(tree))]
    assert sorted(outline_paths) == sorted([tp.path for tp in flatten(tree)] + list(navigation_paths(tree.root)))


@settings(max_examples=200, deadline=None)
@given(pressing_trees.filter(lambda tree: not validate_menu(tree)))
def test_each_rendering_offers_the_paths_of_its_tree(tree):
    terminals = flatten(tree)
    assert offered_paths(render_flattened(terminals)) == [(tp.path, tp.breadcrumb_text()) for tp in terminals]
    assert_outline_offers_the_paths_of(tree)


@st.composite
def announcing_trees(draw):
    """A plain tree whose every menu speaks a message that announces each
    child as "To <label>, press <d>.", one or more to a line."""
    def announce(node):
        if node.kind != "menu":
            return node
        children = tuple(announce(child) for child in node.children)
        sentences = [f"To {child.label}, press {child.digit}." for child in children]
        breaks = draw(st.lists(st.sampled_from(" \n"), min_size=len(sentences) - 1, max_size=len(sentences) - 1))
        message = sentences[0] + "".join(gap + sentence for gap, sentence in zip(breaks, sentences[1:]))
        return node._replace(children=children, prompt_text=message)

    tree = draw(plain_trees)
    return tree._replace(root=announce(tree.root))


@settings(max_examples=200, deadline=None)
@given(announcing_trees())
def test_an_outline_whose_messages_announce_each_child_offers_the_paths_of_its_tree(tree):
    assert_outline_offers_the_paths_of(tree)


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


@st.composite
def routed_rows(draw, lenient):
    """A row as route_one writes it: any reply, the prediction parsing it makes."""
    reply = draw(st.one_of(st.text(), st.text(alphabet="0123456789-\u2013 .'`\"", max_size=8)))
    return RoutingResult(
        intent_id=draw(st.text(min_size=1)),
        raw_response=reply,
        predicted=parse_dtmf_response(reply, lenient).path or INVALID,  # a path of no menu too
        ground_truth=draw(dtmf_paths),
        latency=draw(st.floats(min_value=0, allow_nan=False, allow_infinity=False)),
    )


@st.composite
def routing_runs(draw):
    identity = {
        "menu_name": draw(st.text()),
        "menu_hash": draw(st.text(alphabet="0123456789abcdef", min_size=64, max_size=64)),
        "dataset_hash": draw(st.text(alphabet="0123456789abcdef", min_size=64, max_size=64)),
        "condition": draw(st.sampled_from([c.value for c in RoutingCondition])),
        "dataset_filter": draw(st.sampled_from(["base_only", "all"])),
        "model_name": draw(st.text()),
        "parse_mode": draw(st.sampled_from(["strict", "lenient"])),
    }
    temperature = draw(st.none() | st.floats(0, 2))
    if temperature is not None:
        identity["temperature"] = temperature
    identity["run_id"] = run_id(identity)
    rows = draw(st.lists(routed_rows(identity["parse_mode"] == "lenient"), min_size=1, max_size=8))
    failures = draw(st.lists(st.tuples(st.text(min_size=1), st.text()), max_size=3))
    return RoutingRun(rows, build_manifest(identity, failures))


@settings(max_examples=150, deadline=None)
@given(routing_runs(), st.data())
def test_a_run_directory_reads_back_and_refuses_any_edit(tmp_path_factory, run, data):
    run_dir = tmp_path_factory.getbasetemp() / "run-round-trip"  # rewritten by every example
    save_run(run, run_dir)
    results_file, manifest_file = run_dir / "results.jsonl", run_dir / "manifest.json"
    results, digest = read_results(results_file)
    manifest = read_manifest(manifest_file)
    check_vouched(results_file, results, digest, manifest)
    assert results == run.results
    assert manifest == {**run.manifest, "results_sha256": digest}

    # One byte of the results file changed: the rows no longer load, or the manifest does not vouch for them.
    rows = results_file.read_bytes()
    index = data.draw(st.integers(0, len(rows) - 1), label="byte")
    byte = data.draw(st.integers(0, 255).filter(lambda b: b != rows[index]), label="new byte")
    results_file.write_bytes(rows[:index] + bytes([byte]) + rows[index + 1:])
    with pytest.raises(ValueError):
        check_vouched(results_file, *read_results(results_file), manifest)

    # One identity field of the manifest changed: its run id no longer holds.
    key = data.draw(st.sampled_from([k for k in (*IDENTITY_KEYS, "run_id") if k in manifest]), label="field")
    value = data.draw(st.one_of(st.none(), st.booleans(), st.text(), st.floats(allow_nan=False))
                      .filter(lambda v: v != manifest[key]), label="new value")
    manifest_file.write_text(json.dumps({**manifest, key: value}, ensure_ascii=False), encoding="utf-8")
    with pytest.raises(ValueError):
        read_manifest(manifest_file)


# --- every artifact appears whole or not at all ----------------------------------

def report_of(run: RoutingRun) -> EvalReport:
    manifest = run.manifest
    return build_report(run.results, sorted({r.ground_truth for r in run.results}), manifest["condition"],
                        manifest["dataset_filter"], manifest["model_name"])


# Each artifact: what draws one, what writes it, and how many files it holds.
ARTIFACTS = {
    "dataset-file": (st.lists(records, max_size=4).map(lambda rs: Dataset("", rs)), save_dataset, 1),
    "run-directory": (routing_runs(), save_run, 2),
    "report-directory": (routing_runs().map(report_of), emit_report, 4),
}


def contents(path: Path):
    """The bytes of the file at ``path``, of each file in the directory at ``path`` by name, or None."""
    if path.is_dir():
        return {entry.name: entry.read_bytes() for entry in path.iterdir()}
    return path.read_bytes() if path.exists() else None


@pytest.mark.parametrize("kind", ARTIFACTS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_an_artifact_appears_whole_or_not_at_all(tmp_path_factory, kind, data):
    artifacts, save, files = ARTIFACTS[kind]
    target = tmp_path_factory.mktemp(kind) / "artifact"
    earlier = data.draw(st.none() | artifacts, label="earlier")
    if earlier is not None:
        save(earlier, target)
    before = contents(target)
    artifact = data.draw(artifacts, label="artifact")
    # Each file's write, the move aside of a directory in place, and the rename into place.
    steps = files + isinstance(before, dict) + 1
    with pytest.MonkeyPatch.context() as monkeypatch, pytest.raises(OSError):
        fail_at_step(monkeypatch, data.draw(st.integers(0, steps - 1), label="failing step"))
        save(artifact, target)
    assert contents(target) == before
    assert list(target.parent.iterdir()) == ([target] if earlier is not None else [])  # no temporary entry
    save(artifact, target)
    save(artifact, target.with_name("fresh"))
    assert contents(target) == contents(target.with_name("fresh"))
    assert contents(target) is not None


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


def decided_by_the_grammar(accepted: bool, read, expected) -> None:
    """``read()`` gives ``expected`` when the grammar ``accepted`` its paths, and else refuses them."""
    if accepted:
        assert read() == expected
    else:
        with pytest.raises(ValueError, match="not a canonical DTMF path"):
            read()


@settings(max_examples=300, deadline=None)
@given(any_text)
def test_a_path_is_exactly_what_the_grammar_accepts(text):
    decided_by_the_grammar(is_path(text), lambda: DtmfPath(text), text)


def dataset_line(ground_truth) -> str:
    return json.dumps({"id": "a", "text": "t", "ground_truth": ground_truth, "origin": "base",
                       "base_id": "a", "variant_index": 0}, ensure_ascii=False) + "\n"


@settings(max_examples=200, deadline=None)
@given(any_text)
def test_a_dataset_line_takes_exactly_the_grammars_paths(tmp_path_factory, text):
    file = tmp_path_factory.getbasetemp() / "grammar.jsonl"  # rewritten by every example
    file.write_text(dataset_line(text), encoding="utf-8")
    decided_by_the_grammar(is_path(text), lambda: load_dataset(file).records[0].ground_truth, text)


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
        decided_by_the_grammar((is_path(predicted) or predicted == INVALID) and is_path(ground_truth),
                               lambda: [(r.predicted, r.ground_truth) for r in load_results(file)],
                               [(predicted, ground_truth)])


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
        assert parse_menu(one_option_menu(digit)).root.children[0].digit == digit
    else:
        with pytest.raises(ValueError) as refused:
            parse_menu(one_option_menu(digit))
        assert str(refused.value) == f"root: child 'Pay' has digit {digit!r}, not a one-character string '0'-'9'"
