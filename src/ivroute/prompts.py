"""Routing prompt construction.

The two prompt templates live as text files under data/ with {{MENU}},
{{PATHS}} and {{QUERY}} placeholders, so the exact wording is reviewable
and pinned by golden tests. Building a prompt is pure string substitution:
equal inputs give equal bytes.
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


class PromptText(NamedTuple):
    content: str
    query: str


@cache
def load_template(name: str) -> str:
    """A bundled template's text without its trailing newlines, read once."""
    text = resources.files("ivroute.data").joinpath(name).read_text(encoding="utf-8")
    return text.rstrip("\n")


def fill(template: str, values: dict[str, str]) -> str:
    """``template`` with each placeholder that ``values`` names, as ``"{{QUERY}}"``,
    replaced by its value in one pass, so no text put in is searched again."""
    return re.sub(r"\{\{[A-Z_]+\}\}", lambda match: values.get(match[0], match[0]), template)


def _clean_query(query: str) -> str:
    # Only the trailing newline goes; queries keep their noise on purpose.
    cleaned = query.rstrip("\n")
    if not cleaned.strip():
        raise ValueError("query is empty")
    return cleaned


def build_prompt(condition: RoutingCondition, context_text: str, query: str) -> PromptText:
    """Fill the condition's template with its context text and the query."""
    spec = CONDITIONS[condition]
    if not context_text:
        raise ValueError(f"the {spec.name} context is empty")
    cleaned = _clean_query(query)
    content = fill(load_template(spec.template), {spec.placeholder: context_text, "{{QUERY}}": cleaned})
    return PromptText(content=content, query=cleaned)
