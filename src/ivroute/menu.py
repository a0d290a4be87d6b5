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
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple

MAX_DEPTH = 10  # DTMF gives ten digits; one level per keypress


class NodeKind(str, Enum):
    MENU = "menu"
    ACTION = "action"
    NAVIGATION = "navigation"


class ActionType(str, Enum):
    SELF_SERVICE = "self_service"
    AGENT_HANDOFF = "agent_handoff"
    NONE = "none"


class MenuFormatError(ValueError):
    """Raised when a menu document does not conform to the file schema."""


# The grammar of a DTMF path, for every file, prompt and reply: ASCII digits
# only (\d would admit unicode digits like fullwidth 3), joined by hyphens.
PATH_PATTERN = "[0-9](?:-[0-9])*"
_PATH = re.compile(PATH_PATTERN)


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
    label: str
    digit: int | None  # None only on the root
    kind: NodeKind
    action_type: ActionType = ActionType.NONE
    children: tuple["MenuNode", ...] = ()
    prompt_text: str = ""


class MenuTree(NamedTuple):
    name: str
    root: MenuNode


class TerminalPath(NamedTuple):
    """A flattened endpoint: keypress sequence plus its human-readable trail."""

    path: DtmfPath
    breadcrumb: tuple[str, ...]
    service_type: ActionType

    def breadcrumb_text(self) -> str:
        return " -> ".join(self.breadcrumb)


# --- parsing ---------------------------------------------------------------

# The fields every node may carry, and those a node of each kind may add.
_NODE_FIELDS = {"label", "digit", "kind"}
_KIND_FIELDS = {
    NodeKind.MENU: {"prompt_text", "children"},
    NodeKind.ACTION: {"action_type"},
    NodeKind.NAVIGATION: set(),
}


def parse_menu(document: str) -> MenuTree:
    """Parse a menu document's JSON text.

    Raises MenuFormatError with the offending node's digit path on any
    schema violation. The tree invariants (root kind and digit, action
    types, children, sibling digits, depth) are validate_menu's alone, so a
    document's violations of them are reported together.
    """
    try:
        data = json.loads(document)
    except json.JSONDecodeError as exc:
        raise MenuFormatError(f"menu document is not valid JSON: {exc}") from exc
    if not isinstance(data, Mapping):
        raise MenuFormatError("menu document must be a JSON object")

    missing = [key for key in ("name", "root") if key not in data]
    if missing:
        raise MenuFormatError(
            "menu document missing required field(s): " + ", ".join(missing)
        )
    name = data["name"]
    if not isinstance(name, str) or not name:
        raise MenuFormatError("menu name must be a non-empty string")

    tree = MenuTree(name=name, root=_parse_node(data["root"], where="root"))
    violations = validate_menu(tree)
    if violations:
        raise MenuFormatError("; ".join(violations))
    return tree


def load_menu(path: str | Path) -> MenuTree:
    return parse_menu(Path(path).read_text(encoding="utf-8"))


def _parse_node(data, where: str) -> MenuNode:
    """The node a document object describes, each field converted to its
    type; a field that the node's kind may not carry is refused."""
    if not isinstance(data, Mapping):
        raise MenuFormatError(f"node at {where}: must be a JSON object")

    label = data.get("label")
    if not isinstance(label, str) or not label:
        raise MenuFormatError(f"node at {where}: missing label")

    kind_text = data.get("kind")
    try:
        kind = NodeKind(kind_text)
    except ValueError:
        raise MenuFormatError(f"node at {where}: unknown kind {kind_text!r}") from None
    misplaced = set(data) - _NODE_FIELDS - _KIND_FIELDS[kind]
    if misplaced:
        raise MenuFormatError(
            f"node at {where}: field(s) {sorted(misplaced)} not allowed on {kind.value} nodes"
        )

    digit = None
    if "digit" in data:
        digit_text = data["digit"]
        # a one-keypress path is exactly one ASCII digit
        if not isinstance(digit_text, str) or len(digit_text) != 1 or not _PATH.fullmatch(digit_text):
            raise MenuFormatError(
                f"node at {where}: digit must be a one-character string '0'-'9'"
            )
        digit = int(digit_text)

    action_type = ActionType.NONE
    if "action_type" in data:
        if data["action_type"] not in ("self_service", "agent_handoff"):
            raise MenuFormatError(
                f"node at {where}: action_type must be 'self_service' or 'agent_handoff'"
            )
        action_type = ActionType(data["action_type"])

    prompt_text = data.get("prompt_text", "")
    if not isinstance(prompt_text, str):
        raise MenuFormatError(f"node at {where}: prompt_text must be a string")
    raw_children = data.get("children", [])
    if not isinstance(raw_children, list):
        raise MenuFormatError(f"node at {where}: children must be a list")

    children = []
    for child_data in raw_children:
        child_digit = "?"
        if isinstance(child_data, Mapping) and isinstance(child_data.get("digit"), str):
            child_digit = child_data["digit"]
        child_where = child_digit if where == "root" else f"{where}-{child_digit}"
        children.append(_parse_node(child_data, where=child_where))

    return MenuNode(
        label=label,
        digit=digit,
        kind=kind,
        action_type=action_type,
        children=tuple(children),
        prompt_text=prompt_text,
    )


def tree_to_document(tree: MenuTree) -> dict:
    """Inverse of parse_menu: a plain dict in the menu file schema."""
    return {"name": tree.name, "root": _node_to_document(tree.root)}


def _node_to_document(node: MenuNode) -> dict:
    doc: dict = {"label": node.label}
    if node.digit is not None:  # every node but the root
        doc["digit"] = str(node.digit)
    doc["kind"] = node.kind.value
    if node.kind is NodeKind.ACTION:
        doc["action_type"] = node.action_type.value
    if node.kind is NodeKind.MENU:
        doc["prompt_text"] = node.prompt_text
        doc["children"] = [_node_to_document(c) for c in node.children]
    return doc


# --- validation ------------------------------------------------------------

def validate_menu(tree: MenuTree) -> list[str]:
    """Check every tree invariant; each violation names the offending node
    by its digit path. An empty list means the tree is well-formed."""
    violations: list[str] = []
    if tree.root.kind is not NodeKind.MENU:
        violations.append("root: must have kind 'menu'")
    if tree.root.digit is not None:
        violations.append("root: carries a digit but is not selected by a keypress")

    def walk(node: MenuNode, digits: tuple[int, ...]) -> None:
        where = "-".join(str(d) for d in digits) or "root"
        if len(digits) > MAX_DEPTH:
            violations.append(f"{where}: exceeds maximum depth {MAX_DEPTH}")
            return
        if node.kind is NodeKind.ACTION and node.action_type is ActionType.NONE:
            violations.append(f"{where}: action node without an action_type")
        if node.kind is not NodeKind.ACTION and node.action_type is not ActionType.NONE:
            violations.append(f"{where}: action_type set on a non-action node")
        if node.kind is NodeKind.NAVIGATION and node.digit != 0:
            violations.append(f"{where}: navigation nodes use digit 0")
        if node.kind is not NodeKind.MENU:
            if node.children:
                violations.append(f"{where}: {node.kind.value} nodes may not have children")
            return
        if not node.children:
            violations.append(f"{where}: menu node has no children")
            return
        if all(c.kind is NodeKind.NAVIGATION for c in node.children):
            violations.append(f"{where}: menu node needs at least one non-navigation child")
        digits_seen: set[int] = set()
        for child in node.children:
            if child.digit is None:
                violations.append(f"{where}: child {child.label!r} has no digit")
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
            if child.kind is NodeKind.ACTION:
                paths.append(TerminalPath(DtmfPath(path), child_trail, child.action_type))
            elif child.kind is NodeKind.MENU:
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
            if child.kind is NodeKind.MENU:
                emit_menu(child, f"{path}-{child.digit}" if path else str(child.digit), depth + 1)

    emit_menu(tree.root, "", 0)
    return "\n".join(lines).rstrip("\n") + "\n"


def render_flattened(paths: Iterable[TerminalPath]) -> str:
    """One "<path>: <breadcrumb>" line per terminal path, order preserved."""
    lines = [f"{tp.path}: {tp.breadcrumb_text()}" for tp in paths]
    if not lines:
        raise ValueError("no terminal paths to render")
    return "\n".join(lines)


def render_paths_tsv(paths: Iterable[TerminalPath]) -> str:
    """Tab-separated path table: path, breadcrumb, service type."""
    lines = [
        f"{tp.path}\t{tp.breadcrumb_text()}\t{tp.service_type.value}"
        for tp in paths
    ]
    return "\n".join(lines) + "\n"
