"""The package's compatibility surface: its exported names."""

import inspect

import seqlang
from seqlang import default_lexicon

PUBLIC_NAMES = {
    "ActionNode",
    "ActionRegistry",
    "Corpus",
    "CorpusPair",
    "Diagnostic",
    "EvalReport",
    "Lexicon",
    "LogicalFormError",
    "MockPlant",
    "ParamNode",
    "SequenceNode",
    "TraceEntry",
    "builtin_registry",
    "default_lexicon",
    "emit",
    "evaluate",
    "generate",
    "load_lexicon",
    "load_registry",
    "normalize",
    "parse_bt_xml",
    "parse_logical_form",
    "read_tsv",
    "render",
    "run",
    "translate",
    "validate",
    "vocab_stats",
    "write_tsv",
}


def test_package_exports_exactly_the_public_names():
    exported = {
        name
        for name, value in vars(seqlang).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert exported == PUBLIC_NAMES


def test_split_clauses_takes_text_and_lexicon():
    from seqlang.frontend import split_clauses

    assert split_clauses("say hi then score a goal", default_lexicon()) == [
        ["say", "hi"],
        ["score", "a", "goal"],
    ]
