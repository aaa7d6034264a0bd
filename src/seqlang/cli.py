"""Command-line interface.

Subcommands mirror the library pipeline: ``compile`` goes from an
utterance all the way to mission XML, ``parse`` starts from a logical
form, ``generate`` writes seeded corpora, ``eval`` scores the frontend
against a corpus file, ``run`` executes mission XML on the mock plant,
and ``repl`` compiles stdin lines interactively.

stdout carries only data (logical forms, XML, corpus summaries, traces,
reports); everything else goes to stderr.  README.md's exit-code table
is the one list of exit codes; :func:`main` returns them.  :func:`main`
also loads ``--registry`` and then ``--lexicon`` for each command whose
parser declares them, and passes the command what it loaded.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from seqlang.btxml import EmitError, XmlShapeError, emit
from seqlang.dataset import (
    Corpus,
    FormatError,
    InsufficientSpace,
    TemplateError,
    generate,
    read_tsv,
    vocab_stats,
    write_tsv,
)
from seqlang.evaluation import evaluate, format_report, report_lines
from seqlang.frontend import Lexicon, LexiconError, NoVerbMatch, default_lexicon, load_lexicon, translate
from seqlang.interpreter import MockPlant, format_trace, run
from seqlang.logical_form import LogicalFormError, SequenceNode, parse_logical_form, render
from seqlang.registry import ERROR, ActionRegistry, ConfigParseError, builtin_registry, load_registry, validate


def _say(message: str) -> None:
    print(message, file=sys.stderr)


def _read(path: str) -> str:
    """An input file's text: UTF-8, with any byte-order mark skipped."""
    with open(path, encoding="utf-8-sig") as file:
        return file.read()


def _write(path: str | Path, text: str) -> None:
    with open(path, "w", encoding="utf-8") as file:
        file.write(text)


def _count(text: str) -> int:
    """argparse type for a pair count: a whole number, 0 or more."""
    try:
        count = int(text)
    except ValueError:
        count = -1
    if count < 0:
        raise argparse.ArgumentTypeError(f"expected a count of 0 or more, found {text!r}")
    return count


def _text_or_stdin(value: str | None) -> str:
    return sys.stdin.read() if value is None else value


def _mission(tree: SequenceNode, registry: ActionRegistry, mode: str) -> str | None:
    """Validate, printing every finding to stderr; the XML, or None if any is an error."""
    failed = False
    for diag in validate(tree, registry, mode):
        _say(str(diag))
        failed = failed or diag.severity == ERROR
    return None if failed else emit(tree, registry)


def _compile(text: str, lexicon: Lexicon, registry: ActionRegistry, out: str) -> bool:
    """Translate, strict-validate, write XML, print the form; False if invalid."""
    tree = translate(text, lexicon, registry)
    xml = _mission(tree, registry, "strict")
    if xml is not None:
        _write(out, xml)
        print(render(tree))
    return xml is not None


def cmd_compile(args: argparse.Namespace, registry: ActionRegistry, lexicon: Lexicon) -> int:
    return 0 if _compile(_text_or_stdin(args.utterance), lexicon, registry, args.out) else 3


def cmd_parse(args: argparse.Namespace, registry: ActionRegistry) -> int:
    xml = _mission(parse_logical_form(_text_or_stdin(args.form)), registry, "strict" if args.strict else "lenient")
    if xml is None:
        return 3
    if args.out is None:
        print(xml, end="")
    else:
        _write(args.out, xml)
    return 0


def cmd_generate(args: argparse.Namespace, registry: ActionRegistry) -> int:
    train, test = generate(args.train, args.test, args.seed, registry)
    out_dir = Path(args.out)
    os.makedirs(args.out, exist_ok=True)
    for corpus, name in ((train, "train.tsv"), (test, "test.tsv")):
        _write(out_dir / name, write_tsv(corpus))
        print(f"{corpus.split} pairs: {len(corpus)} -> {out_dir / name}")
    input_size, output_size = vocab_stats(Corpus(train.pairs + test.pairs, "all"))
    print(f"input vocabulary: {input_size}")
    print(f"output vocabulary: {output_size}")
    return 0


def cmd_eval(args: argparse.Namespace, registry: ActionRegistry, lexicon: Lexicon) -> int:
    corpus = read_tsv(_read(args.corpus), split="eval")
    report = evaluate(lambda text: translate(text, lexicon, registry), corpus)
    if args.lines:
        for line in report_lines(report):
            print(line)
    else:
        print(format_report(report))
    return 0 if report.accuracy >= args.threshold else 1


def cmd_run(args: argparse.Namespace) -> int:
    plant = MockPlant()
    if args.fail_at is not None:
        plant.fail_injections.add(args.fail_at)
    trace, status = run(_read(args.xml), plant)
    for entry, line in zip(trace, format_trace(trace)):
        print(line)
        if entry.warning:
            _say(f"warning: unknown action '{entry.action}' at step {entry.step} (no-op)")
    _say(f"overall: {status}")
    return 0


def cmd_repl(args: argparse.Namespace, registry: ActionRegistry, lexicon: Lexicon) -> int:
    for line in sys.stdin:
        text = line.strip()
        if not text:
            continue
        try:
            if _compile(text, lexicon, registry, args.out):
                print(args.out)
        except NoVerbMatch as exc:
            _say(f"error: {exc}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqlang",
        description="Compile natural-language commands into mission XML, and run them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # parents: the commands that read a registry file, and those that also read a lexicon
    registry_p = argparse.ArgumentParser(add_help=False)
    registry_p.add_argument("--registry", metavar="FILE", help="extra action definitions")
    lexicon_p = argparse.ArgumentParser(add_help=False, parents=[registry_p])
    lexicon_p.add_argument("--lexicon", metavar="FILE", help="lexicon file (default: built-in)")

    compile_p = sub.add_parser(
        "compile", parents=[lexicon_p], help="utterance -> logical form on stdout + mission XML file"
    )
    compile_p.add_argument("utterance", nargs="?", help="command text; reads stdin when omitted")
    compile_p.add_argument("--out", default="mission.xml", help="XML output path (default: mission.xml)")
    compile_p.set_defaults(func=cmd_compile)

    parse_p = sub.add_parser("parse", parents=[registry_p], help="logical form -> validated mission XML")
    parse_p.add_argument("form", nargs="?", help="logical form text; reads stdin when omitted")
    parse_p.add_argument("--strict", action="store_true", help="treat unknown names as errors")
    parse_p.add_argument("--out", metavar="FILE", help="write XML here instead of stdout")
    parse_p.set_defaults(func=cmd_parse)

    gen_p = sub.add_parser("generate", parents=[registry_p], help="write seeded train/test corpora")
    gen_p.add_argument("--train", type=_count, default=1000, metavar="N")
    gen_p.add_argument("--test", type=_count, default=250, metavar="N")
    gen_p.add_argument("--seed", type=int, default=7)
    gen_p.add_argument("--out", default=".", metavar="DIR", help="directory for train.tsv/test.tsv")
    gen_p.set_defaults(func=cmd_generate)

    eval_p = sub.add_parser("eval", parents=[lexicon_p], help="score the frontend on a corpus file")
    eval_p.add_argument("corpus", help="TSV corpus path")
    eval_p.add_argument("--threshold", type=float, default=1.0, help="exit 0 iff accuracy >= this")
    eval_p.add_argument("--lines", action="store_true", help="machine-readable per-pair lines")
    eval_p.set_defaults(func=cmd_eval)

    run_p = sub.add_parser("run", help="execute mission XML on the mock plant")
    run_p.add_argument("xml", help="mission XML path")
    run_p.add_argument("--fail-at", type=int, metavar="K", help="force FAILURE at action index K")
    run_p.set_defaults(func=cmd_run)

    repl_p = sub.add_parser("repl", parents=[lexicon_p], help="compile stdin lines until EOF")
    repl_p.add_argument("--out", default="mission.xml")
    repl_p.set_defaults(func=cmd_repl)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # the registry, then the lexicon, for the commands whose parser declares them
        loaded = []
        if "registry" in args:
            registry = builtin_registry() if args.registry is None else load_registry(_read(args.registry))
            for warning in registry.warnings:
                _say(str(warning))
            loaded.append(registry)
        if "lexicon" in args:
            # A registry file may redefine a built-in: its name stays, but it can
            # lose parameters the shipped lexicon binds, which _compile's strict
            # validation reports.
            loaded.append(default_lexicon() if args.lexicon is None else load_lexicon(_read(args.lexicon), registry))
        return args.func(args, *loaded)
    except NoVerbMatch as exc:
        _say(f"error: {exc}")
        return 2
    except (LogicalFormError, XmlShapeError, EmitError) as exc:
        _say(f"error: {exc}")
        return 4
    except (
        LexiconError, ConfigParseError, FormatError, InsufficientSpace, TemplateError, OSError, UnicodeError
    ) as exc:
        _say(f"error: {exc}")
        return 5


if __name__ == "__main__":
    sys.exit(main())
