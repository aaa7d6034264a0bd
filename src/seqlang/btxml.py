"""Byte-deterministic BehaviorTree XML emission, and the inverse reader.

A mission serializes to the classic BehaviorTree.CPP v3 skeleton: a
``<root>`` naming the main tree, one ``<BehaviorTree>``, one ``<Sequence>``,
and one self-closing leaf element per action::

    <?xml version="1.0" encoding="UTF-8"?>
    <root main_tree_to_execute="MainTree">
      <BehaviorTree ID="MainTree">
        <Sequence>
          <Flatten num="2"/>
          <Goal/>
        </Sequence>
      </BehaviorTree>
    </root>

Element names are the action names with the first letter uppercased, which
is bijective because action names are lowercase identifiers.  Parameters
become attributes in :meth:`ActionRegistry.param_order` (schema order, then
unknown ones alphabetically), the order the frontend also uses, so the same
tree always serializes to the same bytes: two-space indents, LF line
endings, double-quoted attributes.

Variable numbering is not stored in the XML; the reader re-assigns
0, 1, 2, ... in document order.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from xml.sax.saxutils import escape

from seqlang.logical_form import (
    IDENT_RE,
    ActionNode,
    ParamNode,
    RESERVED_HEAD,
    SequenceNode,
)
from seqlang.registry import ActionRegistry, builtin_registry

XML_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.\-]*\Z")

_XML_HEADER = '<?xml version="1.0" encoding="UTF-8"?>'


@dataclass(eq=False)
class EmitError(Exception):
    """A tree that cannot be represented as attribute-style XML."""

    message: str

    def __str__(self) -> str:
        return self.message


@dataclass(eq=False)
class XmlShapeError(Exception):
    """Input XML that is not a well-formed mission document.

    ``line`` is set when the underlying XML parser reports one;
    ``path`` locates shape problems by element position instead.
    """

    message: str
    line: int | None = None
    path: str | None = None

    def __str__(self) -> str:
        parts = [self.message]
        if self.line is not None:
            parts.append(f"(line {self.line})")
        if self.path is not None:
            parts.append(f"(at {self.path})")
        return " ".join(parts)


def _attr(value: str) -> str:
    return '"' + escape(value, {'"': "&quot;"}) + '"'


def _element_name(action_name: str) -> str:
    name = action_name[0].upper() + action_name[1:]
    if not XML_NAME_RE.match(name):
        raise EmitError(f"action name {action_name!r} does not map to a legal XML element name")
    return name


def _ordered_params(action: ActionNode, registry: ActionRegistry) -> list[ParamNode]:
    seen: set[str] = set()
    for param in action.params:
        if param.name in seen:
            raise EmitError(f"duplicate parameter '{param.name}' in action '{action.name}'")
        seen.add(param.name)
        if not XML_NAME_RE.match(param.name):
            raise EmitError(f"parameter name {param.name!r} is not a legal XML attribute name")
    key = registry.param_order(action.name)
    return sorted(action.params, key=lambda p: key(p.name))


def emit(tree: SequenceNode, registry: ActionRegistry | None = None, tree_id: str = "MainTree") -> str:
    """Serialize a mission to XML text.  Same tree, same registry, same

    bytes: all ordering and escaping here is deterministic.
    """
    registry = builtin_registry() if registry is None else registry
    lines = [
        _XML_HEADER,
        f"<root main_tree_to_execute={_attr(tree_id)}>",
        f"  <BehaviorTree ID={_attr(tree_id)}>",
    ]
    if not tree.actions:
        lines.append("    <Sequence/>")
    else:
        lines.append("    <Sequence>")
        for action in tree.actions:
            params = _ordered_params(action, registry)
            attrs = "".join(f" {p.name}={_attr(p.value)}" for p in params)
            lines.append(f"      <{_element_name(action.name)}{attrs}/>")
        lines.append("    </Sequence>")
    lines.append("  </BehaviorTree>")
    lines.append("</root>")
    return "\n".join(lines) + "\n"


def parse_bt_xml(xml_text: str) -> SequenceNode:
    """Read a mission document back into a sequence.

    Accepts anything :func:`emit` produces, or structurally identical
    documents.  Attribute order becomes parameter order; variables are
    re-numbered 0, 1, 2, ... in document order.  Everything else raises
    :class:`XmlShapeError`.
    """
    try:
        root = ET.fromstring(xml_text)
    except ET.ParseError as exc:
        line = exc.position[0] if getattr(exc, "position", None) else None
        raise XmlShapeError(f"not well-formed XML: {exc}", line=line) from None
    if root.tag != "root":
        raise XmlShapeError(f"document element must be <root>, found <{root.tag}>", path="/")
    trees = [child for child in root if child.tag == "BehaviorTree"]
    if not trees:
        raise XmlShapeError("no <BehaviorTree> element under <root>", path="root")
    target = root.get("main_tree_to_execute")
    if target is None:
        if len(trees) > 1:
            raise XmlShapeError(
                "multiple <BehaviorTree> elements but no main_tree_to_execute", path="root"
            )
        bt = trees[0]
    else:
        bt = next((t for t in trees if t.get("ID") == target), None)
        if bt is None:
            raise XmlShapeError(f"no <BehaviorTree> with ID {target!r}", path="root")
    children = list(bt)
    if len(children) != 1 or children[0].tag != "Sequence":
        raise XmlShapeError("<BehaviorTree> must hold exactly one <Sequence>", path="BehaviorTree")
    actions: list[ActionNode] = []
    counter = 0
    for index, leaf in enumerate(children[0]):
        path = f"Sequence child {index} <{leaf.tag}>"
        if len(leaf):
            raise XmlShapeError("action leaves may not have children", path=path)
        name = leaf.tag.lower()
        if name == RESERVED_HEAD or not IDENT_RE.match(name):
            raise XmlShapeError(f"element <{leaf.tag}> does not name an action", path=path)
        params: list[ParamNode] = []
        for attr_name, attr_value in leaf.attrib.items():
            if not IDENT_RE.match(attr_name):
                raise XmlShapeError(f"attribute {attr_name!r} is not a parameter name", path=path)
            try:
                params.append(ParamNode(attr_name, counter, attr_value))
            except ValueError:
                raise XmlShapeError(
                    f"attribute {attr_name!r} is not single-spaced paren-free tokens", path=path
                ) from None
            counter += 1
        actions.append(ActionNode(name, tuple(params)))
    return SequenceNode(tuple(actions))
