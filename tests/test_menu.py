"""Menu model: parsing, validation, flattening, rendering."""

import json

import pytest

from ivroute.menu import (
    MAX_DEPTH,
    DtmfPath,
    MenuNode,
    MenuTree,
    flatten,
    offered_paths,
    parse_menu,
    render_descriptive,
    render_flattened,
    render_paths_tsv,
    tree_to_document,
    validate_menu,
)

from conftest import action, golden_text, navigation, submenu, table_tests


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
    assert tree.root.kind == "menu"
    assert tree.root.digit is None
    assert validate_menu(tree) == []


def test_parse_round_trip(tree):
    again = parse_menu(json.dumps(tree_to_document(tree)))
    assert again == tree


def test_parse_rejects_bad_json():
    with pytest.raises(ValueError, match="^menu document is not valid JSON: "):
        parse_menu("{nope")


def test_parse_rejects_missing_fields():
    with pytest.raises(ValueError, match=r"^menu document missing required field\(s\): name$"):
        parse_menu(json.dumps({"root": {"label": "x", "kind": "menu", "children": []}}))
    with pytest.raises(ValueError, match=r"^menu document missing required field\(s\): root$"):
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
    with pytest.raises(ValueError, match="1-1"):
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
    with pytest.raises(ValueError, match="duplicate digit"):
        parse_menu(json.dumps(doc))


# --- validation -----------------------------------------------------------------

def check_menu_problems(row):
    """``row``: a menu's root, or a whole MenuTree, and every problem
    validate_menu finds in it, in order."""
    tree, problems = row
    assert validate_menu(tree if isinstance(tree, MenuTree) else MenuTree(name="t", root=tree)) == problems


def root_of(*children):
    return submenu("Root", None, children)


def nested(node, depth):
    """``node`` under ``depth`` menus of digit 1, under the root."""
    for _ in range(depth):
        node = submenu("Level", "1", [node])
    return root_of(node)


MENU_PROBLEMS = {
    "test_validate_flags_navigation_digit": (
        root_of(action("A", "1"), MenuNode(label="Repeat", digit="5", kind="navigation")),
        ["5: navigation nodes use digit 0"]),
    # Trees built in code skip parse_menu, which refuses the field off action nodes.
    "test_validate_flags_action_type_on_a_menu_node": (
        root_of(submenu("Billing", "1", [action("Pay", "1")])._replace(action_type="agent_handoff")),
        ["1: action_type set on a non-action node"]),
    "test_validate_flags_childless_menu": (root_of(submenu("Empty", "1", [])), ["1: menu node has no children"]),
    "test_validate_flags_action_with_children": (root_of(action("Act", "1")._replace(children=(action("X", "1"),))),
                                                 ["1: action nodes may not have children"]),
    "test_validate_flags_depth_overflow": (nested(action("Deep", "1"), MAX_DEPTH),  # a leaf at depth MAX_DEPTH + 1
                                           ["-".join("1" * (MAX_DEPTH + 1)) + f": exceeds maximum depth {MAX_DEPTH}"]),
    # Trees built in code skip parse_menu, so validate_menu is their check.
    "test_validate_flags_duplicate_sibling_digits_once": (root_of(action("A", "1"), action("B", "1")),
                                                          ["root: duplicate digit 1 among children"]),
    # Trees built in code use the document's strings; a typo among them is
    # reported, not carried into a flattening or a prompt.
    "test_validate_flags_a_misspelt_kind_action_type_or_digit": (root_of(
        action("Hyphen", "1", service="self-service"),
        MenuNode(label="Typo", digit="2", kind="acton", action_type="self_service"),
        action("Number", 3), action("Two Keys", "45"), action("Fine", "6")), [
        "1: action_type must be 'self_service' or 'agent_handoff'",
        "2: unknown kind 'acton'",
        "root: child 'Number' has digit 3, not a one-character string '0'-'9'",
        "root: child 'Two Keys' has digit '45', not a one-character string '0'-'9'"]),
    # What a menu file's text must meet, a tree built in code meets too: no
    # empty name or label, and no lone surrogate, which no UTF-8 file holds.
    "test_validate_judges_the_text_of_a_tree_built_in_code": (MenuTree(name="", root=submenu(
        "", None, [action("Bal\udcffance", "1"), action("Bill", "2")], prompt_text="\ude00 press 1")), [
        "menu name must be a non-empty string",
        "root: label must be a non-empty string",
        "root: prompt_text holds a lone surrogate",
        "1: label holds a lone surrogate"]),
    "test_validate_flags_menu_of_only_navigation": (root_of(submenu("Dead End", "1", [navigation()])),
                                                    ["1: menu node needs at least one non-navigation child"]),
}
table_tests(globals(), check_menu_problems, MENU_PROBLEMS)


def test_validate_accepts_depth_at_limit():
    tree = MenuTree(name="t", root=nested(action("Leaf", "1"), MAX_DEPTH - 1))
    assert validate_menu(tree) == []
    deepest = flatten(tree)[-1]
    assert len(deepest.path.split("-")) == MAX_DEPTH


def test_validate_flags_menu_text_that_would_make_the_outline_offer_a_path_the_menu_lacks():
    # A message line that reads as a section header re-prefixes the "press"
    # lines after it; a label that says "press 9" is offered by the fallback
    # line "For <label>, press <d>." of a menu that speaks no message.
    header = submenu("Root", None, [action("Balance", "1"), action("Bill", "2")],
                     prompt_text="For balance, press 1.\n--- Fake (DTMF: 9) ---\nFor bill, press 2.")
    press = submenu("Root", None, [action("to cancel press 9", "1"), action("Bill", "2")])
    for root, forged, problem in [
        (header, "9-2", "root: prompt_text line '--- Fake (DTMF: 9) ---' reads as an outline's section header"),
        (press, "9", "1: label says 'press 9', which an outline offers as a choice: 'to cancel press 9'"),
    ]:
        tree = MenuTree(name="t", root=root)
        assert forged in [path for path, _ in offered_paths(render_descriptive(tree))]
        assert validate_menu(tree) == [problem]


# --- flattening -----------------------------------------------------------------

def test_flatten_fixture_count_and_endpoints(paths):
    assert len(paths) == 23
    first, last = paths[0], paths[-1]
    assert first.path.canonical() == "1-1"
    assert first.breadcrumb == ("Billing and Account Management", "Check Balance")
    assert first.service_type == "self_service"
    assert last.path.canonical() == "3-9"
    assert last.breadcrumb == ("New Services and Upgrades", "Sales Representative")
    assert last.service_type == "agent_handoff"


def test_flatten_is_document_order(paths):
    canon = [tp.path.canonical() for tp in paths]
    assert canon == sorted(canon, key=lambda s: tuple(int(d) for d in s.split("-")))


def test_flatten_skips_navigation(tiny_tree):
    terminals = flatten(tiny_tree)
    assert [tp.path.canonical() for tp in terminals] == ["1-1", "1-9", "2"]
    assert all("Return" not in tp.breadcrumb_text() for tp in terminals)


# --- rendering ------------------------------------------------------------------

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


# --- reading a rendering back -----------------------------------------------------

def test_offered_paths_of_the_fixture_outline(paths):
    offers = offered_paths(golden_text("agentnet.descriptive.txt"))
    # The root's branches head sections of their own; its "press 0" is an offer, as each menu's is.
    assert offers[0] == ("0", "To hear these options again, press 0.")
    assert offers[1] == ("1-1", "To check your balance, press 1.")
    navigation_paths = ["0", "1-0", "2-0", "2-1-0", "2-2-0", "2-3-0", "3-0"]
    assert sorted(path for path, _ in offers) == sorted([tp.path for tp in paths] + navigation_paths)


def test_offered_paths_reads_each_press_under_its_section():
    outline = "\n".join([
        "--- Root Menu ---",
        "  For help press 2, or press 0 to hear this again.",
        "--- Branch 2: Help (DTMF: 2) ---",
        "    To express 5 wishes, press 4.",
        "  --- Sub-Menu for More (DTMF: 2-1) ---",
        "      press 7",
    ])
    line = "For help press 2, or press 0 to hear this again."
    assert offered_paths(outline) == [("0", line), ("2-4", "To express 5 wishes, press 4."), ("2-1-7", "press 7")]
    assert offered_paths("Pick a path.\n\nnothing to press here") == []
