"""Menu model: parsing, validation, flattening, rendering, goldens."""

import json

import pytest

from ivroute.menu import (
    MAX_DEPTH,
    ActionType,
    DtmfPath,
    MenuFormatError,
    MenuNode,
    MenuTree,
    NodeKind,
    flatten,
    parse_menu,
    render_descriptive,
    render_flattened,
    render_paths_tsv,
    tree_to_document,
    validate_menu,
)

from conftest import action, data_text, navigation, submenu


# --- DtmfPath -------------------------------------------------------------------

def test_path_parse_and_canonical():
    path = DtmfPath("2-1-9")
    assert path == "2-1-9" and isinstance(path, str)
    assert path.canonical() == "2-1-9" and type(path.canonical()) is str
    assert json.dumps({"path": path}) == '{"path": "2-1-9"}'


def test_path_single_digit():
    assert DtmfPath("7") == "7"


@pytest.mark.parametrize("bad", ["", "1-", "-1", "1--2", "12", "1-23", "a", "1 2", "1.2"])
def test_path_parse_rejects_non_canonical(bad):
    with pytest.raises(ValueError, match="not a canonical DTMF path"):
        DtmfPath(bad)


def test_path_rejects_bad_digits():
    for bad in ["1-\uff11", "\u00b2", "1\n", 7, None, ("1",)]:
        with pytest.raises(ValueError, match="not a canonical DTMF path"):
            DtmfPath(bad)


# --- parsing --------------------------------------------------------------------

def test_parse_fixture_menu(tree):
    assert tree.name == "AgentNet IVR"
    assert tree.root.kind is NodeKind.MENU
    assert tree.root.digit is None
    assert validate_menu(tree) == []


def test_parse_round_trip(tree):
    again = parse_menu(json.dumps(tree_to_document(tree)))
    assert again == tree


def test_parse_rejects_bad_json():
    with pytest.raises(MenuFormatError, match="not valid JSON"):
        parse_menu("{nope")


def test_parse_rejects_missing_fields():
    with pytest.raises(MenuFormatError):
        parse_menu(json.dumps({"root": {"label": "x", "kind": "menu", "children": []}}))
    with pytest.raises(MenuFormatError):
        parse_menu(json.dumps({"name": "x"}))


def test_parse_reports_offending_node_path():
    doc = {
        "name": "Broken",
        "root": {
            "label": "Root",
            "kind": "menu",
            "prompt_text": "",
            "children": [
                {
                    "label": "Billing",
                    "digit": "1",
                    "kind": "menu",
                    "prompt_text": "",
                    "children": [
                        {"label": "Pay", "digit": "1", "kind": "action"},  # no action_type
                    ],
                }
            ],
        },
    }
    with pytest.raises(MenuFormatError, match="1-1"):
        parse_menu(json.dumps(doc))


def test_parse_rejects_duplicate_digits():
    doc = {
        "name": "Dupes",
        "root": {
            "label": "Root",
            "kind": "menu",
            "prompt_text": "",
            "children": [
                {"label": "A", "digit": "1", "kind": "action", "action_type": "self_service"},
                {"label": "B", "digit": "1", "kind": "action", "action_type": "self_service"},
            ],
        },
    }
    with pytest.raises(MenuFormatError, match="duplicate digit"):
        parse_menu(json.dumps(doc))


# --- validation -----------------------------------------------------------------

def test_validate_flags_navigation_digit():
    bad_nav = MenuNode(label="Repeat", digit=5, kind=NodeKind.NAVIGATION)
    root = submenu("Root", None, [action("A", 1), bad_nav])
    problems = validate_menu(MenuTree(name="t", root=root))
    assert any("navigation nodes use digit 0" in p for p in problems)


def test_validate_flags_childless_menu():
    root = submenu("Root", None, [submenu("Empty", 1, [])])
    problems = validate_menu(MenuTree(name="t", root=root))
    assert any("menu node has no children" in p for p in problems)


def test_validate_flags_action_with_children():
    broken = MenuNode(
        label="Act",
        digit=1,
        kind=NodeKind.ACTION,
        action_type=ActionType.SELF_SERVICE,
        children=(action("X", 1),),
    )
    problems = validate_menu(MenuTree(name="t", root=submenu("Root", None, [broken])))
    assert any("may not have children" in p for p in problems)


def test_validate_flags_depth_overflow():
    node = action("Deep", 1)
    for _ in range(MAX_DEPTH):  # wraps to depth MAX_DEPTH + 1
        node = submenu("Level", 1, [node])
    tree = MenuTree(name="t", root=submenu("Root", None, [node]))
    problems = validate_menu(tree)
    assert any(f"exceeds maximum depth {MAX_DEPTH}" in p for p in problems)


def test_validate_accepts_depth_at_limit():
    node = action("Leaf", 1)
    for _ in range(MAX_DEPTH - 1):
        node = submenu("Level", 1, [node])
    tree = MenuTree(name="t", root=submenu("Root", None, [node]))
    assert validate_menu(tree) == []
    deepest = flatten(tree)[-1]
    assert len(deepest.path.split("-")) == MAX_DEPTH


def test_validate_flags_duplicate_sibling_digits_once():
    # Trees built in code skip parse_menu, so validate_menu is their check.
    root = submenu("Root", None, [action("A", 1), action("B", 1)])
    problems = validate_menu(MenuTree(name="t", root=root))
    assert problems == ["root: duplicate digit 1 among children"]


def test_validate_flags_menu_of_only_navigation():
    root = submenu("Root", None, [submenu("Dead End", 1, [navigation()])])
    problems = validate_menu(MenuTree(name="t", root=root))
    assert any("at least one non-navigation child" in p for p in problems)


# --- flattening -----------------------------------------------------------------

def test_flatten_fixture_count_and_endpoints(paths):
    assert len(paths) == 23
    first, last = paths[0], paths[-1]
    assert first.path.canonical() == "1-1"
    assert first.breadcrumb == ("Billing and Account Management", "Check Balance")
    assert first.service_type is ActionType.SELF_SERVICE
    assert last.path.canonical() == "3-9"
    assert last.breadcrumb == ("New Services and Upgrades", "Sales Representative")
    assert last.service_type is ActionType.AGENT_HANDOFF


def test_flatten_is_document_order(paths):
    canon = [tp.path.canonical() for tp in paths]
    assert canon == sorted(canon, key=lambda s: tuple(int(d) for d in s.split("-")))


def test_flatten_skips_navigation(tiny_tree):
    terminals = flatten(tiny_tree)
    assert [tp.path.canonical() for tp in terminals] == ["1-1", "1-9", "2"]
    assert all("Return" not in tp.breadcrumb_text() for tp in terminals)


def test_flatten_golden_tsv(paths):
    assert render_paths_tsv(paths) == data_text("agentnet.paths.tsv")


# --- rendering ------------------------------------------------------------------

def test_render_descriptive_golden(tree):
    assert render_descriptive(tree) == data_text("agentnet.descriptive.txt")


def test_render_descriptive_mechanical_fallback(tiny_tree):
    text = render_descriptive(tiny_tree)
    # No prompt_text anywhere, so every option gets a mechanical line.
    assert "For Pay Bill, press 1." in text
    assert "For Support, press 2." in text
    assert text.endswith("\n")


def test_render_flattened_shape(paths):
    text = render_flattened(paths)
    lines = text.split("\n")
    assert len(lines) == 23
    assert lines[0] == "1-1: Billing and Account Management -> Check Balance"
    assert lines[-1] == "3-9: New Services and Upgrades -> Sales Representative"
    assert not text.endswith("\n")


def test_render_flattened_rejects_empty():
    with pytest.raises(ValueError):
        render_flattened([])


def test_tsv_one_line_per_path(tiny_tree):
    terminals = flatten(tiny_tree)
    tsv = render_paths_tsv(terminals)
    assert tsv == (
        "1-1\tBilling -> Pay Bill\tself_service\n"
        "1-9\tBilling -> Billing Agent\tagent_handoff\n"
        "2\tSupport\tself_service\n"
    )
