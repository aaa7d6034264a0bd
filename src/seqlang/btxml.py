"""BehaviorTree XML emission, and the inverse reader.

README "Mission XML and the mock plant" owns the document's skeleton,
the attribute order, the escapes and what raises :class:`EmitError`.

:func:`emit` writes a leaf with no parameter, or one, directly.  Only a
leaf with two or more has a duplicate to check and an order to sort, so
those are written from a template made once per (action, parameter
names) shape in the call, which repeated shapes share.  A tag is
``name.capitalize()``: for an ``IDENT_RE`` name, as every node holds,
that is the name with its first letter uppercased.

Variable numbering is not stored in the XML; the reader re-assigns
0, 1, 2, ... in document order.  All of the reader's checks run in one
pass that returns the action leaves: :func:`parse_bt_xml` builds a tree
from them, and :func:`seqlang.interpreter.run` ticks them as they are,
so it refuses exactly what :func:`parse_bt_xml` refuses without
building a tree.  The pass checks each distinct tag, parameter name and
value once per document; a repeat costs one lookup.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass

from seqlang.logical_form import IDENT_RE, RESERVED_HEAD, SequenceNode, _action, _param, _sequence, is_param_value
from seqlang.registry import ActionRegistry, builtin_registry

_XML_HEADER = '<?xml version="1.0" encoding="UTF-8"?>'


class EmitError(Exception):
    """A tree that cannot be represented as attribute-style XML."""


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


# Attribute values are double-quoted; blanks become character references
# because XML normalizes literal ones in attributes to spaces.  Other ASCII
# maps to itself, as str.translate's fast path raises and clears a
# LookupError for each distinct character missing from the table.
_ESCAPES = {code: code for code in range(128)} | str.maketrans(
    {"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;", "\t": "&#9;", "\n": "&#10;", "\r": "&#13;"}
)
# The longest run of characters in XML 1.0's Char production.
_XML_CHARS = re.compile("[\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]*")


def _leaf_template(name: str, param_names: tuple[str, ...], registry: ActionRegistry) -> tuple[str, list[int]]:
    """The ``str.format`` template of one action's line, and the order in

    which its parameters fill the template's slots.
    """
    seen: set[str] = set()
    for param in param_names:
        if param in seen:
            raise EmitError(f"duplicate parameter '{param}' in action '{name}'")
        seen.add(param)
    key = registry.param_order(name)
    order = sorted(range(len(param_names)), key=lambda k: key(param_names[k]))
    attrs = "".join(f' {param_names[k]}="{{}}"' for k in order)
    return f"      <{name.capitalize()}{attrs}/>", order


def emit(tree: SequenceNode, registry: ActionRegistry | None = None, tree_id: str = "MainTree") -> str:
    """Serialize a mission to XML text.  Same tree, same registry, same

    bytes: all ordering and escaping here is deterministic.  Raises
    :class:`EmitError` for a duplicate parameter, or for a character that
    XML 1.0 does not allow in a document.
    """
    registry = builtin_registry() if registry is None else registry
    tree_id = tree_id.translate(_ESCAPES)
    lines = [
        _XML_HEADER,
        f'<root main_tree_to_execute="{tree_id}">',
        f'  <BehaviorTree ID="{tree_id}">',
    ]
    if not tree.actions:
        lines.append("    <Sequence/>")
    else:
        lines.append("    <Sequence>")
        # one template per multi-parameter shape in this tree
        templates: dict[tuple[str, tuple[str, ...]], tuple[str, list[int]]] = {}
        for action in tree.actions:
            params = action.params
            if len(params) > 1:
                shape = (action.name, tuple([p.name for p in params]))
                template = templates.get(shape)
                if template is None:
                    template = templates[shape] = _leaf_template(*shape, registry)
                text, order = template
                lines.append(text.format(*[params[k].value.translate(_ESCAPES) for k in order]))
            elif params:
                (param,) = params
                lines.append(f'      <{action.name.capitalize()} {param.name}="{param.value.translate(_ESCAPES)}"/>')
            else:
                lines.append(f"      <{action.name.capitalize()}/>")
        lines.append("    </Sequence>")
    lines.append("  </BehaviorTree>")
    lines.append("</root>")
    document = "\n".join(lines) + "\n"
    end = _XML_CHARS.match(document).end()
    if end < len(document):
        raise EmitError(f"character U+{ord(document[end]):04X} is not allowed in XML 1.0")
    return document


def _leaf_path(index: int, leaf: ET.Element) -> str:
    return f"Sequence child {index} <{leaf.tag}>"


# XML's white space; anything else between tags is stray text.
_BLANKS = " \t\n\r"


def _reject_stray_text(root: ET.Element) -> None:
    """Raise :class:`XmlShapeError` at the first element, in document

    order, with non-blank text inside it or right after it.
    """
    if not "".join(root.itertext()).strip(_BLANKS):
        return
    # Walk in document order, keeping the path down to the element at
    # hand; the check above means the walk raises before it runs out.
    element, steps, pending = root, ["root"], [enumerate(root)]
    while True:
        for where, text in (("inside", element.text), ("after", element.tail)):
            if text and text.strip(_BLANKS):
                raise XmlShapeError(f"text {where} <{element.tag}> is not allowed", path="".join(steps))
        while (step := next(pending[-1], None)) is None:
            pending.pop()
            steps.pop()
        index, element = step
        pending.append(enumerate(element))
        steps.append(f" child {index} <{element.tag}>")


def parse_bt_xml(xml_text: str) -> SequenceNode:
    """Read a mission document back into a sequence.

    Accepts anything :func:`emit` produces, or structurally identical
    documents: ``<root>`` holds only ``<BehaviorTree>`` elements, the
    ``<Sequence>`` has no attributes, and there is no text outside
    attribute values other than white space.  Attribute order becomes
    parameter order; variables are re-numbered 0, 1, 2, ... in document
    order.  Everything else raises :class:`XmlShapeError`.
    """
    actions = []
    counter = 0
    for name, params in _read_leaves(xml_text):
        actions.append(_action(name, tuple([_param(k, counter + j, v) for j, (k, v) in enumerate(params)])))
        counter += len(params)
    return _sequence(tuple(actions))


def _read_leaves(xml_text: str) -> list[tuple[str, tuple[tuple[str, str], ...]]]:
    """Check a document as :func:`parse_bt_xml` describes, and return its

    leaves in order as ``(action name, ((param, value), ...))``.
    """
    try:
        root = ET.fromstring(xml_text)
    except ET.ParseError as exc:
        line = exc.position[0] if getattr(exc, "position", None) else None
        raise XmlShapeError(f"not well-formed XML: {exc}", line=line) from None
    if root.tag != "root":
        raise XmlShapeError(f"document element must be <root>, found <{root.tag}>", path="/")
    trees = list(root)
    for index, child in enumerate(trees):
        if child.tag != "BehaviorTree":
            raise XmlShapeError(
                f"<root> may hold only <BehaviorTree> elements, found <{child.tag}>",
                path=f"root child {index} <{child.tag}>",
            )
    _reject_stray_text(root)
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
    sequence = children[0]
    if sequence.attrib:
        raise XmlShapeError("<Sequence> may not have attributes", path="Sequence")
    # What has passed, so that each distinct fact is checked once: tags,
    # with their action names; parameter names; values.
    actions: dict[str, str] = {}
    named: set[str] = set()
    values: set[str] = set()
    leaves = []
    for index, leaf in enumerate(sequence):
        if len(leaf):
            raise XmlShapeError("action leaves may not have children", path=_leaf_path(index, leaf))
        name = actions.get(leaf.tag)
        if name is None:
            name = leaf.tag.lower()
            if name == RESERVED_HEAD or not IDENT_RE.match(name):
                raise XmlShapeError(f"element <{leaf.tag}> does not name an action", path=_leaf_path(index, leaf))
            actions[leaf.tag] = name
        params = tuple(leaf.items())
        for attr_name, attr_value in params:
            if attr_name not in named:
                if not IDENT_RE.match(attr_name):
                    raise XmlShapeError(
                        f"attribute {attr_name!r} is not a parameter name", path=_leaf_path(index, leaf)
                    )
                named.add(attr_name)
            if attr_value not in values:
                if not is_param_value(attr_value):
                    raise XmlShapeError(
                        f"attribute {attr_name!r} is not single-spaced paren-free tokens", path=_leaf_path(index, leaf)
                    )
                values.add(attr_value)
        leaves.append((name, params))
    return leaves
