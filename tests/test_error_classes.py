"""How every typed error is built, copied and pickled.

Each case gives one error class and its fields, in constructor order;
the texts themselves are pinned in ``test_error_messages.py``.
"""

import copy
import pickle

import pytest

from seqlang.btxml import XmlShapeError
from seqlang.dataset import FormatError, InsufficientSpace
from seqlang.frontend import LexiconError, NoVerbMatch, _BadEntry
from seqlang.logical_form import (
    BadVariableError,
    EmptyValueError,
    FormSyntaxError,
    InvalidNameError,
    TrailingTokensError,
)
from seqlang.registry import ConfigParseError

CASES = [
    (FormSyntaxError, {"position": 3, "expected": "'('", "found": None}),
    (TrailingTokensError, {"position": 5, "found": "x"}),
    (InvalidNameError, {"position": 3, "found": "Say"}),
    (BadVariableError, {"position": 6, "found": "$01"}),
    (EmptyValueError, {"position": 8}),
    (NoVerbMatch, {"clause_index": 2, "clause": "perform a barrel roll"}),
    (LexiconError, {"message": "unknown cue '{x}'", "line": 1}),
    (_BadEntry, {"section": "params.say", "index": 2, "message": "no trigger names action 'say'"}),
    (ConfigParseError, {"line": 3, "message": "'seq' is reserved"}),
    (FormatError, {"line": 2, "message": "expected utterance<TAB>logicalform"}),
    (InsufficientSpace, {"requested": 10, "generated": 7}),
    (XmlShapeError, {"message": "m", "line": 4, "path": "p"}),
]
IDS = [cls.__name__ for cls, _ in CASES]


def _fields(error, names):
    return {name: getattr(error, name) for name in names}


@pytest.mark.parametrize("cls, fields", CASES, ids=IDS)
def test_an_error_is_built_alike_by_position_and_by_keyword(cls, fields):
    by_position, by_keyword = cls(*fields.values()), cls(**fields)
    assert _fields(by_position, fields) == _fields(by_keyword, fields) == fields
    assert str(by_position) == str(by_keyword)
    shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(by_position) == repr(by_keyword) == f"{cls.__qualname__}({shown})"


@pytest.mark.parametrize("cls, fields", CASES, ids=IDS)
def test_an_error_survives_pickle_and_copy(cls, fields):
    error = cls(*fields.values())
    for twin in (pickle.loads(pickle.dumps(error)), copy.copy(error)):
        assert type(twin) is cls
        assert str(twin) == str(error) and _fields(twin, fields) == fields


@pytest.mark.parametrize("cls, fields", CASES, ids=IDS)
def test_an_error_built_by_keyword_survives_pickle_and_copy(cls, fields):
    error = cls(**fields)
    assert error.args == tuple(fields.values())
    for twin in (pickle.loads(pickle.dumps(error)), copy.copy(error)):
        assert str(twin) == str(error) and _fields(twin, fields) == fields


@pytest.mark.parametrize("cls, fields", CASES, ids=IDS)
def test_an_error_refuses_a_surplus_or_missing_argument(cls, fields):
    with pytest.raises(TypeError):
        cls(*fields.values(), "surplus")
    with pytest.raises(TypeError):
        cls(**fields, surplus=1)
    first, *_ = fields
    with pytest.raises(TypeError):
        cls(*fields.values(), **{first: fields[first]})
    with pytest.raises(TypeError):
        cls()


def test_an_xml_shape_error_has_no_line_or_path_unless_given():
    error = XmlShapeError("m")
    assert (error.message, error.line, error.path) == ("m", None, None)
    assert str(pickle.loads(pickle.dumps(XmlShapeError("m", path="p")))) == "m (at p)"
    assert XmlShapeError("m", path="p").line is None and XmlShapeError("m", 4).path is None
