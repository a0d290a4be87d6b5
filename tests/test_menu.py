"""Menu model: parsing, validation, flattening, rendering. Each path and
document parsed, each tree validated and each rendering is a row of a
table."""

import json
from functools import partial


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

from conftest import Raises, action, data_text, golden_text, navigation, outcome_of, submenu, table_tests


# --- DtmfPath and parsing ------------------------------------------------------------

def check_outcome(row):
    """``row``: a call and what it returns, or a Raises."""
    call, expected = row
    outcome_of(call, expected)


def not_a_path(value):
    return partial(DtmfPath, value), Raises(ValueError, f"not a canonical DTMF path: {value!r}")


def parsed(document):
    return partial(parse_menu, document if isinstance(document, str) else json.dumps(document))


def menu_of(*children):
    """The document of a menu whose root holds ``children``."""
    return {"name": "Menu", "root": {"label": "Root", "kind": "menu", "prompt_text": "", "children": list(children)}}


def fixture_menu() -> MenuTree:
    return parse_menu(data_text("agentnet.menu.json"))


table_tests(globals(), check_outcome, {
    "test_path_parse_and_canonical": (
        lambda: ((path := DtmfPath("2-1-9")), isinstance(path, str), path.canonical(), type(path.canonical()),
                 json.dumps({"path": path})), ("2-1-9", True, "2-1-9", str, '{"path": "2-1-9"}')),
    "test_path_single_digit": (partial(DtmfPath, "7"), "7"),
    "test_path_parse_rejects_non_canonical": {
        bad: not_a_path(bad) for bad in ["", "1-", "-1", "1--2", "12", "1-23", "a", "1 2", "1.2"]},
    "test_path_rejects_bad_digits": [not_a_path(bad) for bad in ["1-\uff11", "\u00b2", "1\n", 7, None, ("1",)]],
    "test_parse_rejects_bad_json": (parsed("{nope"), Raises(
        ValueError, "menu document is not valid JSON: Expecting property name enclosed in double quotes: line 1 "
                    "column 2 (char 1)")),
    "test_parse_rejects_missing_fields": [
        (parsed({"root": {"label": "x", "kind": "menu", "children": []}}),
         Raises(ValueError, "menu document missing required field(s): name")),
        (parsed({"name": "x"}), Raises(ValueError, "menu document missing required field(s): root"))],
    "test_parse_reports_offending_node_path": (parsed(menu_of({"label": "Billing", "digit": "1", "kind": "menu",
                                                              "children": [{"label": "Pay", "digit": "1",
                                                                            "kind": "action"}]})),
                                               Raises(ValueError, "1-1: action node without an action_type")),
    "test_parse_rejects_duplicate_digits": (parsed(menu_of(*({"label": label, "digit": "1", "kind": "action",
                                                             "action_type": "self_service"} for label in "AB"))),
                                            Raises(ValueError, "root: duplicate digit 1 among children")),
    "test_parse_fixture_menu": (lambda: ((tree := fixture_menu()).name, tree.root.kind, tree.root.digit,
                                         validate_menu(tree)), ("AgentNet IVR", "menu", None, [])),
    "test_parse_round_trip": (lambda: (tree := fixture_menu()) == parse_menu(json.dumps(tree_to_document(tree))), True),
})



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


def offers_forged_path(root, forged, problem):
    """A check_outcome row: the outline of ``root`` offers ``forged``, a path
    the menu lacks, and validate_menu finds ``problem`` alone."""
    tree = MenuTree(name="t", root=root)
    return (lambda: (forged in [path for path, _ in offered_paths(render_descriptive(tree))], validate_menu(tree)),
            (True, [problem]))


table_tests(globals(), check_outcome, {
    "test_validate_accepts_depth_at_limit": (
        lambda: (validate_menu(tree := MenuTree(name="t", root=nested(action("Leaf", "1"), MAX_DEPTH - 1))),
                 flatten(tree)[-1].path), ([], "-".join("1" * MAX_DEPTH))),
    # A message line that reads as a section header re-prefixes the "press"
    # lines after it; a label that says "press 9" is offered by the fallback
    # line "For <label>, press <d>." of a menu that speaks no message.
    "test_validate_flags_menu_text_that_would_make_the_outline_offer_a_path_the_menu_lacks": [
        offers_forged_path(submenu("Root", None, [action("Balance", "1"), action("Bill", "2")],
                                   prompt_text="For balance, press 1.\n--- Fake (DTMF: 9) ---\nFor bill, press 2."),
                           "9-2",
                           "root: prompt_text line '--- Fake (DTMF: 9) ---' reads as an outline's section header"),
        offers_forged_path(submenu("Root", None, [action("to cancel press 9", "1"), action("Bill", "2")]), "9",
                           "1: label says 'press 9', which an outline offers as a choice: 'to cancel press 9'")],
})


# --- flattening and rendering ------------------------------------------------------------------

TINY_OUTLINE = """IVR Menu Name: "Tiny"

--- Root Menu ---

  For Billing, press 1.

  For Support, press 2.

--- Branch 1: Billing (DTMF: 1) ---

    For Pay Bill, press 1.

    For Billing Agent, press 9.

    For Return to Main Menu, press 0.
"""
GOLDEN_TSV = golden_text("agentnet.paths.tsv")


def check_rendering(row, tiny_tree, paths):
    """``row``: a rendering of the tiny tree and the fixture's paths, and the whole text it makes, or a Raises."""
    render, expected = row
    outcome_of(partial(render, tiny_tree, paths), expected)


table_tests(globals(), check_rendering, {
    "test_flatten_fixture_count_and_endpoints": (lambda tiny, paths: render_paths_tsv(paths), GOLDEN_TSV),
    "test_flatten_is_document_order": (lambda tiny, paths: [tp.path for tp in paths], sorted(
        (line.split("\t")[0] for line in GOLDEN_TSV.splitlines()), key=lambda path: path.split("-"))),
    "test_flatten_skips_navigation": (lambda tiny, paths: [tp.path for tp in flatten(tiny)], ["1-1", "1-9", "2"]),
    # No prompt_text anywhere, so every option gets a mechanical line.
    "test_render_descriptive_mechanical_fallback": (lambda tiny, paths: render_descriptive(tiny), TINY_OUTLINE),
    "test_render_flattened_shape": (lambda tiny, paths: render_flattened(paths), "\n".join(
        ": ".join(line.split("\t")[:2]) for line in GOLDEN_TSV.splitlines())),
    "test_render_flattened_rejects_empty": (lambda tiny, paths: render_flattened([]),
                                            Raises(ValueError, "no terminal paths to render")),
    "test_tsv_one_line_per_path": (lambda tiny, paths: render_paths_tsv(flatten(tiny)), (
        "1-1\tBilling -> Pay Bill\tself_service\n1-9\tBilling -> Billing Agent\tagent_handoff\n"
        "2\tSupport\tself_service\n")),
})


# --- reading a rendering back -----------------------------------------------------

# Each section's "press" lines; "press" inside a word ("express") offers nothing.
SECTIONS = "\n".join([
    "--- Root Menu ---",
    "  For help press 2, or press 0 to hear this again.",
    "--- Branch 2: Help (DTMF: 2) ---",
    "    To express 5 wishes, press 4.",
    "  --- Sub-Menu for More (DTMF: 2-1) ---",
    "      press 7",
])
NAVIGATION_PATHS = ["0", "1-0", "2-0", "2-1-0", "2-2-0", "2-3-0", "3-0"]

table_tests(globals(), check_outcome, {
    # The root's branches head sections of their own; its "press 0" is an offer, as each menu's is.
    "test_offered_paths_of_the_fixture_outline": (
        lambda: ((offers := offered_paths(golden_text("agentnet.descriptive.txt")))[:2], sorted(p for p, _ in offers)),
        ([("0", "To hear these options again, press 0."), ("1-1", "To check your balance, press 1.")],
         sorted([line.split("\t")[0] for line in GOLDEN_TSV.splitlines()] + NAVIGATION_PATHS))),
    "test_offered_paths_reads_each_press_under_its_section": [
        (partial(offered_paths, SECTIONS), [("0", "For help press 2, or press 0 to hear this again."),
                                            ("2-4", "To express 5 wishes, press 4."), ("2-1-7", "press 7")]),
        (partial(offered_paths, "Pick a path.\n\nnothing to press here"), [])],
})
