"""Prompt templates and substitution: each prompt built, or refused, is a
row of a table; properties check the query's reading back."""

from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ivroute.menu import MenuTree, validate_menu
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

from conftest import Raises, action, golden_text, outcome_of, submenu, table_tests, tiny_dataset


def whole(condition, context, query):
    """The condition's template with ``context`` and ``query`` put, as they are, where its placeholders stand."""
    head, rest = load_template(CONDITIONS[condition].template).split(CONDITIONS[condition].placeholder)
    middle, tail = rest.split("{{QUERY}}")
    return head + context + middle + query + tail


def check_prompt(row):
    """``row``: a condition, a context, or a menu that validate_menu passes
    whose context it is, and a query, and the refusal to build a prompt of
    them; by default, the whole prompt, equal each time it is built, whose
    query reads back."""
    condition, context, query, *refusal = row
    if isinstance(context, MenuTree):
        assert validate_menu(context) == []
        context = render_context(context, condition)
    built = partial(build_prompt, condition, context, query)
    if outcome_of(built, refusal[0] if refusal else whole(condition, context, query)) is None:
        assert built() == built() and query_of(built()) == query


DESCRIPTIVE, FLATTENED = RoutingCondition.DESCRIPTIVE_MENU, RoutingCondition.FLATTENED_PATHS
OUTLINE = golden_text("agentnet.descriptive.txt")
PATH_LINES = "\n".join(": ".join(line.split("\t")[:2]) for line in golden_text("agentnet.paths.tsv").splitlines())
NO_QUERY = Raises(ValueError, "query is empty")
BRACES = MenuTree(name="Braces", root=submenu("Root", None, [submenu(
    "Billing {{QUERY}}", "1", [action("Pay {{QUERY}}", "1"), action("{{MENU}} {{PATHS}}", "2")],
    prompt_text="For {{QUERY}}, press 1.")]))
table_tests(globals(), check_prompt, {
    "test_descriptive_substitution": (DESCRIPTIVE, OUTLINE, "my bill is too high"),
    "test_flattened_substitution": (FLATTENED, PATH_LINES, "internet is down"),
    "test_build_prompt_dispatch": [(DESCRIPTIVE, "CONTEXT", "q"), (FLATTENED, "CONTEXT", "q")],
    "test_equal_inputs_equal_bytes": (FLATTENED, PATH_LINES, "same query"),
    # The query is the intent's text, the key the oracle and the dataset's checks read.
    "test_query_trailing_newline_kept": (FLATTENED, PATH_LINES, "trailing\n"),
    "test_query_internal_noise_kept": (FLATTENED, PATH_LINES, "ugh   my bill,, like, is SO wrong"),
    "test_empty_query_rejected": [(FLATTENED, PATH_LINES, "", NO_QUERY), (FLATTENED, PATH_LINES, "   \n", NO_QUERY)],
    "test_empty_context_rejected": [(condition, "", "query", Raises(ValueError, f"the {name} context is empty"))
                                    for condition, name in [(FLATTENED, "flattened"), (DESCRIPTIVE, "descriptive")]],
    # A query holding replacement-like tokens lands verbatim.
    "test_substitution_is_literal_not_regex": (FLATTENED, PATH_LINES, r"pay \1 {{QUERY}} \g<0> bill"),
    # A menu may call an option "{{QUERY}}": the query still goes where the template puts it.
    "test_a_placeholder_in_the_menu_is_text_in_the_prompt": {
        condition.value: (condition, BRACES, "my bill") for condition in RoutingCondition},
})


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
