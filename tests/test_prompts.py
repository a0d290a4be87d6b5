"""Prompt templates and substitution."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ivroute.menu import MenuTree, render_descriptive, render_flattened, validate_menu
from ivroute.prompts import (
    CONDITIONS,
    QUERY_MARKER,
    RoutingCondition,
    build_prompt,
    load_template,
    query_of,
)
from ivroute.provider import OracleProvider
from ivroute.router import accuracy, render_context, route_all

from conftest import action, submenu, tiny_dataset

def test_descriptive_substitution(tree):
    menu_text = render_descriptive(tree)
    prompt = build_prompt(RoutingCondition.DESCRIPTIVE_MENU, menu_text, "my bill is too high")
    assert isinstance(prompt, str)
    assert query_of(prompt) == "my bill is too high"
    assert menu_text in prompt
    assert "{{MENU}}" not in prompt
    assert "{{QUERY}}" not in prompt
    assert prompt.endswith("my bill is too high")


def test_flattened_substitution(paths):
    paths_text = render_flattened(paths)
    prompt = build_prompt(RoutingCondition.FLATTENED_PATHS, paths_text, "internet is down")
    assert paths_text in prompt
    assert "{{PATHS}}" not in prompt
    assert prompt.endswith("internet is down")


def test_build_prompt_dispatch():
    desc = build_prompt(RoutingCondition.DESCRIPTIVE_MENU, "CONTEXT", "q")
    flat = build_prompt(RoutingCondition.FLATTENED_PATHS, "CONTEXT", "q")
    assert desc == load_template("template_descriptive.txt").replace("{{MENU}}", "CONTEXT").replace("{{QUERY}}", "q")
    assert flat == load_template("template_flattened.txt").replace("{{PATHS}}", "CONTEXT").replace("{{QUERY}}", "q")


def test_equal_inputs_equal_bytes(paths):
    text = render_flattened(paths)
    a = build_prompt(RoutingCondition.FLATTENED_PATHS, text, "same query")
    b = build_prompt(RoutingCondition.FLATTENED_PATHS, text, "same query")
    assert a == b


def test_query_trailing_newline_kept(paths):
    # The query is the intent's text, the key the oracle and the dataset's checks read.
    text = render_flattened(paths)
    prompt = build_prompt(RoutingCondition.FLATTENED_PATHS, text, "trailing\n")
    assert query_of(prompt) == "trailing\n"
    assert prompt.endswith("trailing\n")


def test_query_internal_noise_kept(paths):
    text = render_flattened(paths)
    noisy = "ugh   my bill,, like, is SO wrong"
    prompt = build_prompt(RoutingCondition.FLATTENED_PATHS, text, noisy)
    assert query_of(prompt) == noisy


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
    assert tricky in prompt


@pytest.mark.parametrize("condition", list(RoutingCondition))
def test_a_placeholder_in_the_menu_is_text_in_the_prompt(condition):
    # A menu may call an option "{{QUERY}}": the query still goes where the template puts it.
    root = submenu("Root", None, [submenu("Billing {{QUERY}}", "1", [action("Pay {{QUERY}}", "1"),
                                                                     action("{{MENU}} {{PATHS}}", "2")],
                                          prompt_text="For {{QUERY}}, press 1.")])
    tree = MenuTree(name="Braces", root=root)
    assert validate_menu(tree) == []
    context = render_context(tree, condition)
    assert "{{QUERY}}" in context
    head, tail = load_template(CONDITIONS[condition].template).split(CONDITIONS[condition].placeholder)
    prompt = build_prompt(condition, context, "my bill")
    assert prompt == head + context + tail.replace("{{QUERY}}", "my bill")


# The reader of a routing prompt's query: exact for any query, the marker
# and a trailing newline included, as long as no context line reads "User Query:".
queries = (st.text(min_size=1) | st.builds("".join, st.lists(st.text() | st.just(QUERY_MARKER), min_size=1))
           ).filter(str.strip)
contexts = st.text(min_size=1).filter(lambda context: "User Query:" not in context.split("\n"))


@settings(max_examples=200, deadline=None)
@given(condition=st.sampled_from(RoutingCondition), context=contexts, query=queries)
@example(condition=RoutingCondition.FLATTENED_PATHS, context="1-1", query=f"my bill{QUERY_MARKER}is wrong\n")
@example(condition=RoutingCondition.DESCRIPTIVE_MENU, context="User Query: ", query=QUERY_MARKER.join(["a", "", "b\n"]))
def test_query_of_reads_back_the_query_a_prompt_was_built_for(condition, context, query):
    assert query_of(build_prompt(condition, context, query)) == query


@pytest.mark.parametrize("condition", list(RoutingCondition))
def test_the_oracle_routes_texts_that_hold_the_marker(tiny_tree, condition):
    # Each text quotes a line after a marker line: reading after the first
    # marker gives the text, and after the last one a text that no record holds.
    ds = tiny_dataset()
    ds = ds._replace(records=[r._replace(text=f"Re: {r.text}{QUERY_MARKER}{r.text}") for r in ds.records])
    run = route_all(ds, condition, tiny_tree, OracleProvider(ds.records))
    assert accuracy(run.results) == 1.0 and len(run.results) == len(ds.records)
    context = render_context(tiny_tree, condition)
    texts = {r.text for r in ds.records}
    assert not any(build_prompt(condition, context, text).rpartition(QUERY_MARKER)[2] in texts for text in texts)
