"""BehaviorTree XML emission, and the inverse reader.

README "Mission XML and the mock plant" owns the document's skeleton,
the attribute order, the escapes and what raises :class:`EmitError`.

:func:`emit` writes a leaf with no parameter, or one, as one f-string;
only a leaf with two or more has a duplicate to check and an order to
sort.  A tag is ``name.capitalize()``: for an ``IDENT_RE`` name, as every
node holds, that is the name with its first letter uppercased.

Variable numbering is not stored in the XML; the reader re-assigns
0, 1, 2, ... in document order.  All of the reader's checks run in one
pass that returns the action leaves: :func:`parse_bt_xml` builds a tree
from them, and :func:`seqlang.interpreter.run` ticks them as they are,
so it refuses exactly what :func:`parse_bt_xml` refuses without
building a tree.  An ASCII document in emit's exact layout, its one
head with tree ID ``MainTree`` included, whose values hold no character
reference takes :func:`_recognize`, which matches it against emit's own
layout constants, reads each distinct line once and never raises; every
other document, and so every other tree ID, every reference and every
error, takes :func:`_read_any`, the ElementTree reader.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING

from seqlang.logical_form import IDENT_RE, RESERVED_HEAD, SequenceNode, _action, _param, _sequence, is_param_value
from seqlang.logical_form import _Fault
from seqlang.registry import ActionRegistry, _refuse_xmlns, builtin_registry

if TYPE_CHECKING:
    import xml.etree.ElementTree as ET

# emit's layout, which _recognize reads back.
_HEAD = '<?xml version="1.0" encoding="UTF-8"?>\n<root main_tree_to_execute="MainTree">\n  <BehaviorTree ID="MainTree">\n'
_OPEN, _EMPTY, _CLOSE = "    <Sequence>\n", "    <Sequence/>\n", "    </Sequence>\n"
_BOTTOM = "  </BehaviorTree>\n</root>\n"
_INDENT = "      "


class EmitError(Exception):
    """A tree that cannot be represented as attribute-style XML."""


class XmlShapeError(_Fault):
    """Input XML that is not a well-formed mission document.

    ``line`` is set when the underlying XML parser reports one;
    ``path`` locates shape problems by element position instead.
    """

    fields = ("message", "line", "path")
    line = path = None

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
_REFERENCES = {"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;", "\t": "&#9;", "\n": "&#10;", "\r": "&#13;"}
_ESCAPES = {code: code for code in range(128)} | str.maketrans(_REFERENCES)
# The ASCII that XML 1.0 allows, and what it forbids but lone surrogates,
# which UTF-8 cannot encode.  A class holding U+FFFE or U+FFFF would cost a
# BMP-wide table at import, so text beyond ASCII is searched with str.find.
_ASCII_CHARS = re.compile("[\t\n\r -\x7f]*")
_FORBIDDEN = "".join(map(chr, [*range(0x09), 0x0B, 0x0C, *range(0x0E, 0x20), 0xFFFE, 0xFFFF]))


def emit(tree: SequenceNode, registry: ActionRegistry | None = None) -> str:
    """Serialize a mission to XML text.  Same tree, same registry, same

    bytes: all ordering and escaping here is deterministic.  Raises
    :class:`EmitError` for a duplicate parameter, a parameter named
    ``xmlns``, or a character that XML 1.0 does not allow in a document.
    """
    registry = builtin_registry() if registry is None else registry
    leaves = []
    for action in tree.actions:
        params = action.params
        if len(params) > 1:
            seen: set[str] = set()
            for param in params:
                if param.name in seen:
                    raise EmitError(f"duplicate parameter '{param.name}' in action '{action.name}'")
                seen.add(param.name)
            key = registry.param_order(action.name)
            attrs = [f' {p.name}="{p.value.translate(_ESCAPES)}"' for p in sorted(params, key=lambda p: key(p.name))]
            leaves.append(f"<{action.name.capitalize()}{''.join(attrs)}/>")
        elif params:
            (param,) = params
            leaves.append(f'<{action.name.capitalize()} {param.name}="{param.value.translate(_ESCAPES)}"/>')
        else:
            leaves.append(f"<{action.name.capitalize()}/>")
    if leaves:
        document = "".join([_HEAD, _OPEN, _INDENT, ("\n" + _INDENT).join(leaves), "\n", _CLOSE, _BOTTOM])
    else:
        document = _HEAD + _EMPTY + _BOTTOM
    # Only a parameter can write this, as values escape '"'.
    if ' xmlns="' in document:
        _refuse_xmlns(next(a.name for a in tree.actions if "xmlns" in [p.name for p in a.params]), "xmlns", EmitError)
    if document.isascii():
        end = _ASCII_CHARS.match(document).end()
    else:
        try:
            document.encode()
            end = len(document)
        except UnicodeEncodeError as exc:  # at the first lone surrogate
            end = exc.start
        end = min([end] + [k for k in map(document.find, _FORBIDDEN) if k >= 0])
    if end < len(document):
        raise EmitError(f"character U+{ord(document[end]):04X} is not allowed in XML 1.0")
    return document


# XML's white space; anything else between tags is stray text.
_BLANKS = " \t\n\r"


def _reject_stray_text(root: ET.Element) -> None:
    """Raise :class:`XmlShapeError` at the first element, in document

    order, with non-blank text inside it or right after it.
    """
    for element in root.iter():
        for where, text in (("inside", element.text), ("after", element.tail)):
            if text and text.strip(_BLANKS):
                message = f"text {where} <{element.tag}> is not allowed"
                # the parent map is built only here: few documents have stray text
                parents = {child: (parent, index) for parent in root.iter() for index, child in enumerate(parent)}
                steps = []
                while element in parents:
                    parent, index = parents[element]
                    steps.append(f" child {index} <{element.tag}>")
                    element = parent
                raise XmlShapeError(message, path="".join(["root", *reversed(steps)]))


def parse_bt_xml(xml_text: str) -> SequenceNode:
    """Read a mission document back into a sequence.

    README "Mission XML and the mock plant" says which documents it takes;
    any other raises :class:`XmlShapeError`.  Attribute order becomes
    parameter order.
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
    leaves = _recognize(xml_text)
    return _read_any(xml_text) if leaves is None else leaves


# _recognize's patterns, which see only ASCII.  A value is printable ASCII
# but the four characters emit escapes, so it holds no reference; a tag is
# a name with its first letter uppercased.
_PLAIN = '[^"&<>\\x00-\\x1f\\x7f]*'
_NAME = IDENT_RE.pattern.removesuffix(r"\Z")
_SKELETON = re.compile(
    f"{re.escape(_HEAD)}(?:{re.escape(_EMPTY)}|{re.escape(_OPEN)}(.*\\n){re.escape(_CLOSE)}){re.escape(_BOTTOM)}\\Z",
    re.S,
)
_LEAF = re.compile(f'{re.escape(_INDENT)}<({_NAME.replace("a-z", "A-Z", 1)})((?: {_NAME}="{_PLAIN}")*)/>')
_ATTRIBUTE = re.compile(f' ({_NAME})="({_PLAIN})"')


def _recognize(xml_text: str) -> list[tuple[str, tuple[tuple[str, str], ...]]] | None:
    """The leaves of a document in :func:`emit`'s exact layout, or None.

    It takes only emit's own head, tree ID ``MainTree`` included, and
    values that hold no character reference, so :func:`_read_any` is the
    one reader that decodes references or picks among tree IDs.
    It never raises: :func:`_read_any` gives the same leaves for every
    document this takes, and all that this does not take goes there.
    """
    if not xml_text.isascii() or (skeleton := _SKELETON.match(xml_text)) is None:
        return None
    # The body ends in LF, so any text before </Sequence> is in some line.
    read: dict[str, tuple[str, tuple[tuple[str, str], ...]]] = {}
    leaves = []
    for line in (skeleton[1] or "").split("\n")[:-1]:
        leaf = read.get(line)
        if leaf is None:
            if (match := _LEAF.fullmatch(line)) is None:
                return None
            tag, attributes = match.groups()
            params = tuple(_ATTRIBUTE.findall(attributes))
            if (name := tag.lower()) == RESERVED_HEAD or len(params) > 1 and len({k for k, _ in params}) < len(params):
                return None
            for k, v in params:
                # ElementTree reads xmlns as a namespace, not an attribute
                if k == "xmlns" or not is_param_value(v):
                    return None
            leaf = read[line] = (name, params)
        leaves.append(leaf)
    return leaves


class _Builder:
    """A parser target that feeds ``builder``, but keeps prefixed namespace declarations as leading attributes."""

    def __init__(self, builder: ET.TreeBuilder) -> None:
        self.builder, self.declared = builder, ()

    def __getattr__(self, event: str) -> object:
        return getattr(self.builder, event)

    def start_ns(self, prefix: str, uri: str) -> None:
        if prefix:
            self.declared += ((f"xmlns:{prefix}", uri),)

    def start(self, tag: str, attrs: dict[str, str]) -> ET.Element:
        attrs, self.declared = dict(self.declared) | attrs, ()
        return self.builder.start(tag, attrs)


def _read_any(xml_text: str) -> list[tuple[str, tuple[tuple[str, str], ...]]]:
    """:func:`_read_leaves` for any document, with ElementTree, which only this imports."""
    import xml.etree.ElementTree as ET
    parser = ET.XMLParser(target=_Builder(ET.TreeBuilder()))
    try:
        parser.feed(xml_text)
        root = parser.close()
    except ET.ParseError as exc:
        raise XmlShapeError(f"not well-formed XML: {exc}", line=exc.position[0]) from None
    except UnicodeEncodeError as exc:  # a lone surrogate: no UTF-8 parser can be given one
        before = xml_text[: exc.start].replace("\r\n", "\n")
        message = f"not well-formed XML: character U+{ord(xml_text[exc.start]):04X} is not allowed in XML 1.0"
        raise XmlShapeError(message, line=before.count("\n") + before.count("\r") + 1) from None
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
            raise XmlShapeError("multiple <BehaviorTree> elements but no main_tree_to_execute", path="root")
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
    leaves = []
    for index, leaf in enumerate(sequence):
        path = f"Sequence child {index} <{leaf.tag}>"
        if len(leaf):
            raise XmlShapeError("action leaves may not have children", path=path)
        name = leaf.tag.lower()
        if name == RESERVED_HEAD or not IDENT_RE.match(name):
            raise XmlShapeError(f"element <{leaf.tag}> does not name an action", path=path)
        params = tuple(leaf.items())
        for attr_name, attr_value in params:
            if not IDENT_RE.match(attr_name):
                raise XmlShapeError(f"attribute {attr_name!r} is not a parameter name", path=path)
            if not is_param_value(attr_value):
                raise XmlShapeError(f"attribute {attr_name!r} is not single-spaced paren-free tokens", path=path)
        leaves.append((name, params))
    return leaves
