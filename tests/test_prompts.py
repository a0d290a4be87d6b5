"""Prompt templates and substitution."""

import pytest

from ivroute.menu import MenuTree, render_descriptive, render_flattened, validate_menu
from ivroute.prompts import (
    CONDITIONS,
    PromptText,
    RoutingCondition,
    build_prompt,
    load_template,
)
from ivroute.router import render_context

from conftest import action, submenu

EXPECTED_DESCRIPTIVE = (
    "Given the following IVR menu structure, identify the exact DTMF path "
    "(e.g., '1-2-3') that best addresses the user's query. Output only the path.\n"
    "\n"
    "IVR Menu:\n"
    "{{MENU}}\n"
    "\n"
    "User Query:\n"
    "{{QUERY}}"
)

EXPECTED_FLATTENED = (
    "Select the most appropriate DTMF path from the list below that "
    "corresponds to the user's query. Output only the path.\n"
    "\n"
    "Available Paths:\n"
    "{{PATHS}}\n"
    "\n"
    "User Query:\n"
    "{{QUERY}}"
)


def test_templates_are_byte_exact():
    assert load_template("template_descriptive.txt") == EXPECTED_DESCRIPTIVE
    assert load_template("template_flattened.txt") == EXPECTED_FLATTENED


def test_descriptive_substitution(tree):
    menu_text = render_descriptive(tree)
    prompt = build_prompt(RoutingCondition.DESCRIPTIVE_MENU, menu_text, "my bill is too high")
    assert isinstance(prompt, PromptText)
    assert prompt.query == "my bill is too high"
    assert menu_text in prompt.content
    assert "{{MENU}}" not in prompt.content
    assert "{{QUERY}}" not in prompt.content
    assert prompt.content.endswith("my bill is too high")


def test_flattened_substitution(paths):
    paths_text = render_flattened(paths)
    prompt = build_prompt(RoutingCondition.FLATTENED_PATHS, paths_text, "internet is down")
    assert paths_text in prompt.content
    assert "{{PATHS}}" not in prompt.content
    assert prompt.content.endswith("internet is down")


def test_build_prompt_dispatch():
    desc = build_prompt(RoutingCondition.DESCRIPTIVE_MENU, "CONTEXT", "q")
    flat = build_prompt(RoutingCondition.FLATTENED_PATHS, "CONTEXT", "q")
    assert desc == (load_template("template_descriptive.txt").replace("{{MENU}}", "CONTEXT")
                    .replace("{{QUERY}}", "q"), "q")
    assert flat == (load_template("template_flattened.txt").replace("{{PATHS}}", "CONTEXT")
                    .replace("{{QUERY}}", "q"), "q")


def test_equal_inputs_equal_bytes(paths):
    text = render_flattened(paths)
    a = build_prompt(RoutingCondition.FLATTENED_PATHS, text, "same query")
    b = build_prompt(RoutingCondition.FLATTENED_PATHS, text, "same query")
    assert a.content == b.content


def test_query_trailing_newline_stripped(paths):
    text = render_flattened(paths)
    prompt = build_prompt(RoutingCondition.FLATTENED_PATHS, text, "trailing\n")
    assert prompt.query == "trailing"
    assert prompt.content.endswith("trailing")


def test_query_internal_noise_kept(paths):
    text = render_flattened(paths)
    noisy = "ugh   my bill,, like, is SO wrong"
    prompt = build_prompt(RoutingCondition.FLATTENED_PATHS, text, noisy)
    assert prompt.query == noisy


def test_empty_query_rejected(paths):
    text = render_flattened(paths)
    with pytest.raises(ValueError):
        build_prompt(RoutingCondition.FLATTENED_PATHS, text, "")
    with pytest.raises(ValueError):
        build_prompt(RoutingCondition.FLATTENED_PATHS, text, "   \n")


def test_empty_context_rejected():
    with pytest.raises(ValueError):
        build_prompt(RoutingCondition.FLATTENED_PATHS, "", "query")
    with pytest.raises(ValueError):
        build_prompt(RoutingCondition.DESCRIPTIVE_MENU, "", "query")


def test_substitution_is_literal_not_regex(paths):
    # A query containing replacement-like tokens must land verbatim.
    text = render_flattened(paths)
    tricky = r"pay \1 {{QUERY}} \g<0> bill"
    prompt = build_prompt(RoutingCondition.FLATTENED_PATHS, text, tricky)
    assert tricky in prompt.content


@pytest.mark.parametrize("condition", list(RoutingCondition))
def test_a_placeholder_in_the_menu_is_text_in_the_prompt(condition):
    # A menu may call an option "{{QUERY}}": the query still goes where the template puts it.
    root = submenu("Root", None, [submenu("Billing {{QUERY}}", 1, [action("Pay {{QUERY}}", 1),
                                                                   action("{{MENU}} {{PATHS}}", 2)],
                                          prompt_text="For {{QUERY}}, press 1.")])
    tree = MenuTree(name="Braces", root=root)
    assert validate_menu(tree) == []
    context = render_context(tree, condition)
    assert "{{QUERY}}" in context
    head, tail = load_template(CONDITIONS[condition].template).split(CONDITIONS[condition].placeholder)
    prompt = build_prompt(condition, context, "my bill")
    assert prompt.content == head + context + tail.replace("{{QUERY}}", "my bill")
