"""The text of every typed error, built from its fields.

The CLI prints ``error: `` plus this text, so these strings are part of
its contract; each case builds one error directly from its fields.
"""

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
    (FormSyntaxError(3, "'('", "x"), "syntax error at token 3: expected '(', found 'x'"),
    (FormSyntaxError(9, "')'", None), "syntax error at token 9: expected ')', found end of input"),
    (TrailingTokensError(5, "x"), "trailing tokens at token 5: 'x'"),
    (InvalidNameError(3, "Say"), "invalid name at token 3: 'Say' (want [a-z][a-z0-9_]*)"),
    (BadVariableError(6, "$01"), "bad variable at token 6: '$01' (want $ followed by a decimal index)"),
    (EmptyValueError(8), "empty parameter value at token 8"),
    (NoVerbMatch(2, "perform a barrel roll"), "clause 3: no verb trigger matches 'perform a barrel roll'"),
    (LexiconError("expected 'left = right'", 4), "lexicon line 4: expected 'left = right'"),
    (LexiconError("unknown cue '{x}'", 1), "lexicon line 1: unknown cue '{x}'"),
    (_BadEntry("params.say", 2, "no trigger names action 'say'"), "params.say[2]: no trigger names action 'say'"),
    (ConfigParseError(3, "'seq' is reserved"), "registry config line 3: 'seq' is reserved"),
    (FormatError(2, "expected utterance<TAB>logicalform"), "corpus line 2: expected utterance<TAB>logicalform"),
    (InsufficientSpace(10, 7), "ran out of distinct pairs: requested 10, managed 7"),
    (XmlShapeError("not a mission"), "not a mission"),
    (XmlShapeError("not a mission", 4), "not a mission (line 4)"),
    (XmlShapeError("unexpected <Foo>", path="root/BehaviorTree/Sequence/Foo[1]"),
     "unexpected <Foo> (at root/BehaviorTree/Sequence/Foo[1])"),
    (XmlShapeError("m", 4, "p"), "m (line 4) (at p)"),
]


@pytest.mark.parametrize("error, text", CASES, ids=[type(error).__name__ for error, _ in CASES])
def test_each_error_spells_its_fields(error, text):
    assert str(error) == text

