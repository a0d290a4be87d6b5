"""Touch-tone menu trees: parsing, validation, flattening, and rendering.

A menu is a tree of nodes selected by single DTMF digits. Terminal options
("action" nodes) either resolve a request directly (self-service) or hand
the caller to a human (agent handoff). Digit-0 "navigation" options (repeat,
return to previous menu) are modelled explicitly but never appear in
flattened terminal paths.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple

MAX_DEPTH = 10  # DTMF gives ten digits; one level per keypress


# The grammar of a DTMF path, for every file, prompt and reply: ASCII digits
# only (\d would admit unicode digits like fullwidth 3), joined by hyphens.
PATH_PATTERN = "[0-9](?:-[0-9])*"
_PATH = re.compile(PATH_PATTERN)

# A lone surrogate, as a JSON escape such as \ud83d or an argv byte that is
# no UTF-8 makes: no UTF-8 file can hold one.
LONE_SURROGATE = re.compile("[\ud800-\udfff]")


def has_lone_surrogate(text: str) -> bool:
    return LONE_SURROGATE.search(text) is not None


# A control character (Cc), U+2028 or U+2029: it would break a label's or a
# menu name's one line in a rendered context or a TSV row.
_LINE_BREAKER = re.compile("[\x00-\x1f\x7f-\x9f\u2028\u2029]")


class DtmfPath(str):
    """A non-empty keypress sequence as its canonical text, e.g. "2-1-9"."""

    __slots__ = ()

    def __new__(cls, text: str) -> DtmfPath:
        if not isinstance(text, str) or not _PATH.fullmatch(text):
            raise ValueError(f"not a canonical DTMF path: {text!r}")
        return super().__new__(cls, text)

    def canonical(self) -> str:
        """The path's text as a plain ``str``."""
        return str(self)


class MenuNode(NamedTuple):
    """A node as its document holds it: ``kind`` is "menu", "action" or
    "navigation"; ``digit`` is its one-character keypress, None only on the
    root; ``action_type`` is "self_service" or "agent_handoff" on an action
    node and "" elsewhere."""

    label: str
    digit: str | None
    kind: str
    action_type: str = ""
    children: tuple["MenuNode", ...] = ()
    prompt_text: str = ""


class MenuTree(NamedTuple):
    name: str
    root: MenuNode


class TerminalPath(NamedTuple):
    """A flattened endpoint: keypress sequence plus its human-readable trail."""

    path: DtmfPath
    breadcrumb: tuple[str, ...]
    service_type: str  # the action node's action_type

    def breadcrumb_text(self) -> str:
        return " -> ".join(self.breadcrumb)


# --- parsing ---------------------------------------------------------------

# The fields every node may carry, and those a node of each kind may add.
_NODE_FIELDS = {"label", "digit", "kind"}
_KIND_FIELDS = {"menu": {"prompt_text", "children"}, "action": {"action_type"}, "navigation": set()}
_ACTION_TYPES = ("self_service", "agent_handoff")
_DIGITS = tuple("0123456789")  # a one-keypress path is exactly one ASCII digit


def parse_menu(document: str) -> MenuTree:
    """Parse a menu document's JSON text.

    Raises ValueError with the offending node's digit path on a missing
    field or one of the wrong type. Every value (kinds, digits, action
    types, children, depth, names, labels, messages) is validate_menu's
    alone, so it judges a parsed tree as one built in code, all at once.
    """
    try:
        data = json.loads(document)
    except json.JSONDecodeError as exc:
        raise ValueError(f"menu document is not valid JSON: {exc}") from exc
    if not isinstance(data, Mapping):
        raise ValueError("menu document must be a JSON object")

    missing = [key for key in ("name", "root") if key not in data]
    if missing:
        raise ValueError("menu document missing required field(s): " + ", ".join(missing))
    if not isinstance(data["name"], str):
        raise ValueError("menu name must be a string")

    tree = MenuTree(name=data["name"], root=_parse_node(data["root"], where="root"))
    violations = validate_menu(tree)
    if violations:
        raise ValueError("; ".join(violations))
    return tree


def load_menu(path: str | Path) -> MenuTree:
    return parse_menu(Path(path).read_text(encoding="utf-8"))


def _parse_node(data, where: str) -> MenuNode:
    """The node a document object describes. A field missing, of the wrong
    type, or not allowed on a known kind is refused; validate_menu judges values."""
    if not isinstance(data, Mapping):
        raise ValueError(f"{where}: must be a JSON object")
    label, kind, prompt_text = data.get("label"), data.get("kind"), data.get("prompt_text", "")
    if not isinstance(label, str):
        raise ValueError(f"{where}: missing label")
    if not isinstance(kind, str):
        raise ValueError(f"{where}: unknown kind {kind!r}")
    misplaced = set(data) - _NODE_FIELDS - _KIND_FIELDS.get(kind, set(data))  # none on an unknown kind
    if misplaced:
        raise ValueError(f"{where}: field(s) {sorted(misplaced)} not allowed on {kind} nodes")
    if not isinstance(prompt_text, str):
        raise ValueError(f"{where}: prompt_text must be a string")
    raw_children = data.get("children", [])
    if not isinstance(raw_children, list):
        raise ValueError(f"{where}: children must be a list")

    children = []
    for child_data in raw_children:
        child_digit = "?"
        if isinstance(child_data, Mapping) and isinstance(child_data.get("digit"), str):
            child_digit = child_data["digit"]
        child_where = child_digit if where == "root" else f"{where}-{child_digit}"
        children.append(_parse_node(child_data, where=child_where))

    return MenuNode(
        label=label,
        digit=data.get("digit"),
        kind=kind,
        action_type=data.get("action_type", ""),
        children=tuple(children),
        prompt_text=prompt_text,
    )


def tree_to_document(tree: MenuTree) -> dict:
    """Inverse of parse_menu: a plain dict in the menu file schema."""
    return {"name": tree.name, "root": _node_to_document(tree.root)}


def _node_to_document(node: MenuNode) -> dict:
    doc: dict = {"label": node.label}
    if node.digit is not None:  # every node but the root
        doc["digit"] = node.digit
    doc["kind"] = node.kind
    if node.kind == "action":
        doc["action_type"] = node.action_type
    if node.kind == "menu":
        doc["prompt_text"] = node.prompt_text
        doc["children"] = [_node_to_document(c) for c in node.children]
    return doc


# --- validation ------------------------------------------------------------

def _one_line_problems(what: str, text: str) -> list[str]:
    """What unfits ``text``, a menu name or a label, for its one line in each rendering."""
    problems = [] if text else [f"{what} must be a non-empty string"]
    if has_lone_surrogate(text):
        problems.append(f"{what} holds a lone surrogate")
    if _LINE_BREAKER.search(text):
        problems.append(f"{what} holds a control character or line separator: {text!r}")
    if press := _PRESS.search(text):
        problems.append(f"{what} says {press[0]!r}, which an outline offers as a choice: {text!r}")
    return problems


def validate_menu(tree: MenuTree) -> list[str]:
    """Check every tree invariant and value; each violation names the offending
    node by its digit path. An empty list means the tree is well-formed."""
    violations = _one_line_problems("menu name", tree.name)
    if tree.root.kind != "menu":
        violations.append("root: must have kind 'menu'")
    if tree.root.digit is not None:
        violations.append("root: carries a digit but is not selected by a keypress")

    def walk(node: MenuNode, digits: tuple[str, ...]) -> None:
        where = "-".join(digits) or "root"
        if len(digits) > MAX_DEPTH:
            violations.append(f"{where}: exceeds maximum depth {MAX_DEPTH}")
            return
        violations.extend(_one_line_problems(f"{where}: label", node.label))
        if has_lone_surrogate(node.prompt_text):
            violations.append(f"{where}: prompt_text holds a lone surrogate")
        for line in node.prompt_text.split("\n"):
            if _SECTION.fullmatch(line):
                violations.append(f"{where}: prompt_text line {line!r} reads as an outline's section header")
        if node.kind not in _KIND_FIELDS:
            violations.append(f"{where}: unknown kind {node.kind!r}")
            return
        if node.kind == "action" and not node.action_type:
            violations.append(f"{where}: action node without an action_type")
        elif node.kind == "action" and node.action_type not in _ACTION_TYPES:
            violations.append(f"{where}: action_type must be 'self_service' or 'agent_handoff'")
        if node.kind != "action" and node.action_type:
            violations.append(f"{where}: action_type set on a non-action node")
        if node.kind == "navigation" and node.digit != "0":
            violations.append(f"{where}: navigation nodes use digit 0")
        if node.kind != "menu":
            if node.children:
                violations.append(f"{where}: {node.kind} nodes may not have children")
            return
        if not node.children:
            violations.append(f"{where}: menu node has no children")
            return
        if all(c.kind == "navigation" for c in node.children):
            violations.append(f"{where}: menu node needs at least one non-navigation child")
        digits_seen: set[str] = set()
        for child in node.children:
            if child.digit is None:
                violations.append(f"{where}: child {child.label!r} has no digit")
                continue
            if child.digit not in _DIGITS:
                violations.append(f"{where}: child {child.label!r} has digit {child.digit!r}, "
                                  "not a one-character string '0'-'9'")
                continue
            if child.digit in digits_seen:
                violations.append(f"{where}: duplicate digit {child.digit} among children")
            digits_seen.add(child.digit)
            # unique sibling digits make every digit sequence unique
            walk(child, digits + (child.digit,))

    walk(tree.root, ())
    return violations


# --- flattening and rendering ----------------------------------------------

def flatten(tree: MenuTree) -> list[TerminalPath]:
    """One TerminalPath per action node, in depth-first document order.

    Navigation options contribute nothing; the tree must already be valid.
    """
    paths: list[TerminalPath] = []

    def walk(node: MenuNode, prefix: str, trail: tuple[str, ...]) -> None:
        for child in node.children:
            path = f"{prefix}{child.digit}"
            child_trail = trail + (child.label,)
            if child.kind == "action":
                paths.append(TerminalPath(DtmfPath(path), child_trail, child.action_type))
            elif child.kind == "menu":
                walk(child, path + "-", child_trail)

    walk(tree.root, "", ())
    return paths


def render_descriptive(tree: MenuTree) -> str:
    """The full hierarchical outline: menu name, one section per menu node
    with its spoken message, sub-menus indented beneath their parents.

    Menus whose prompt_text is empty fall back to a mechanical option line
    per child, so minimal trees still render something usable. Output is
    deterministic byte-for-byte.
    """
    lines: list[str] = [f'IVR Menu Name: "{tree.name}"', ""]

    def emit_menu(node: MenuNode, path: str, depth: int) -> None:
        if depth == 0:
            header = "--- Root Menu ---"
        elif depth == 1:
            header = f"--- Branch {path}: {node.label} (DTMF: {path}) ---"
        else:
            header = f"--- Sub-Menu for {node.label} (DTMF: {path}) ---"
        header_indent = "  " * max(depth - 1, 0)
        message_indent = "  " * depth
        body_indent = message_indent + "  "

        lines.append(header_indent + header)
        lines.append("")
        if node.prompt_text:
            lines.append(message_indent + "IVR Message:")
            lines.append("")
            for sentence in node.prompt_text.split("\n"):
                lines.append(body_indent + sentence if sentence else "")
                lines.append("")
        else:
            for child in node.children:
                lines.append(body_indent + f"For {child.label}, press {child.digit}.")
                lines.append("")
        for child in node.children:
            if child.kind == "menu":
                emit_menu(child, f"{path}-{child.digit}" if path else child.digit, depth + 1)

    emit_menu(tree.root, "", 0)
    return "\n".join(lines).rstrip("\n") + "\n"


def render_flattened(paths: Iterable[TerminalPath]) -> str:
    """One "<path>: <breadcrumb>" line per terminal path, order preserved."""
    lines = [f"{tp.path}: {tp.breadcrumb_text()}" for tp in paths]
    if not lines:
        raise ValueError("no terminal paths to render")
    return "\n".join(lines)


# How a rendered context offers a path: a flattened "<path>: <breadcrumb>"
# line, or a "press <digit>" line under an outline's "(DTMF: <path>)" header.
_FLAT_LINE = re.compile(f"({PATH_PATTERN}): (.*)")
_SECTION = re.compile(rf" *--- .*\(DTMF: ({PATH_PATTERN})\) ---")
_PRESS = re.compile(r"\bpress ([0-9])\b")


def offered_paths(context: str) -> list[tuple[str, str]]:
    """The (path, line) pairs a rendered context offers, in order: a flattened
    line's path and breadcrumb; each outline "press <d>", digit 0 too, as <d>
    at the root or "<path>-<d>" under "(DTMF: <path>)", with its stripped
    line. A sub-menu's own path is dropped: its section offers its choices."""
    offers, sections, prefix = [], set(), ""
    for line in context.split("\n"):
        if flat := _FLAT_LINE.fullmatch(line):
            offers.append((flat[1], flat[2]))
        elif header := _SECTION.fullmatch(line):
            sections.add(header[1])
            prefix = header[1] + "-"
        else:
            offers += [(prefix + press[1], line.strip()) for press in _PRESS.finditer(line)]
    return [offer for offer in offers if offer[0] not in sections]


def render_paths_tsv(paths: Iterable[TerminalPath]) -> str:
    """Tab-separated path table: path, breadcrumb, service type."""
    lines = [f"{tp.path}\t{tp.breadcrumb_text()}\t{tp.service_type}" for tp in paths]
    return "\n".join(lines) + "\n"
