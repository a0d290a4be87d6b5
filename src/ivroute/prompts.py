"""Routing prompt construction.

The two prompt templates live as text files under data/ with {{MENU}},
{{PATHS}} and {{QUERY}} placeholders, so the exact wording is reviewable
and pinned by golden tests. Building a prompt is pure string substitution:
equal inputs give equal bytes, and the query goes in verbatim as its
intent's text, the key that the oracle double and the dataset checks read.
A provider receives only the built text; ``query_of`` reads the query back.
"""

from __future__ import annotations

import re
from enum import Enum
from functools import cache
from importlib import resources
from typing import NamedTuple


class RoutingCondition(str, Enum):
    """Which context representation the routing model sees."""

    DESCRIPTIVE_MENU = "descriptive_menu"
    FLATTENED_PATHS = "flattened_paths"


class ConditionSpec(NamedTuple):
    name: str  # what --condition takes
    label: str  # what the report calls it
    template: str  # the bundled template file
    placeholder: str  # where the template takes the context text


# The one declaration of each condition's names and template.
CONDITIONS = {
    RoutingCondition.DESCRIPTIVE_MENU: ConditionSpec("descriptive", "Descriptive Menu",
                                                     "template_descriptive.txt", "{{MENU}}"),
    RoutingCondition.FLATTENED_PATHS: ConditionSpec("flattened", "Flattened Paths",
                                                    "template_flattened.txt", "{{PATHS}}"),
}

# What both templates put between the context and {{QUERY}}.
QUERY_MARKER = "\nUser Query:\n"


@cache
def load_template(name: str) -> str:
    """A bundled template's text without its trailing newlines, read once."""
    text = resources.files("ivroute.data").joinpath(name).read_text(encoding="utf-8")
    return text.rstrip("\n")


def template_bytes(condition: RoutingCondition) -> bytes:
    """The bytes of the condition's bundled template file."""
    return resources.files("ivroute.data").joinpath(CONDITIONS[condition].template).read_bytes()


def fill(template: str, values: dict[str, str]) -> str:
    """``template`` with each placeholder that ``values`` names, as ``"{{QUERY}}"``,
    replaced by its value in one pass, so no text put in is searched again."""
    return re.sub(r"\{\{[A-Z_]+\}\}", lambda match: values.get(match[0], match[0]), template)


def build_prompt(condition: RoutingCondition, context_text: str, query: str) -> str:
    """Fill the condition's template with its context text and the query,
    as it is: a trailing newline stays, and only a blank query is refused."""
    spec = CONDITIONS[condition]
    if not context_text:
        raise ValueError(f"the {spec.name} context is empty")
    if not query.strip():
        raise ValueError("query is empty")
    return fill(load_template(spec.template), {spec.placeholder: context_text, "{{QUERY}}": query})


def query_of(text: str) -> str:
    """The query of a routing prompt: the text after its first
    QUERY_MARKER, or "" when it holds none. Both templates end with that
    line and then ``{{QUERY}}``, so the reading is exact whenever no line
    of the context reads ``User Query:``; a query may hold the marker."""
    return text.partition(QUERY_MARKER)[2]
