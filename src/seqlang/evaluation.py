"""Exact-match evaluation of a frontend against a gold corpus.

A frontend is any callable taking utterance text and returning a
sequence tree.  Both sides are canonicalized (parse plus re-render), so
whitespace and variable numbering differences never cost a match; any
exception out of the frontend counts as a miss and is recorded verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from seqlang.dataset import LINE_BREAKS, Corpus, FormatError
from seqlang.logical_form import LogicalFormError, SequenceNode, parse_logical_form, render


@dataclass(frozen=True)
class EvalRow:
    """One pair's outcome; ``produced`` holds an ``error: ...`` string

    when the frontend raised instead of returning a tree.
    """

    index: int
    matched: bool
    expected: str
    produced: str


@dataclass(frozen=True)
class EvalReport:
    """A corpus's score: one :class:`EvalRow` per pair, in corpus order."""

    total: int
    exact_matches: int
    accuracy: float
    rows: tuple[EvalRow, ...]

    @property
    def failures(self) -> tuple[EvalRow, ...]:
        return tuple(row for row in self.rows if not row.matched)


def evaluate(frontend: Callable[[str], SequenceNode], corpus: Corpus) -> EvalReport:
    """Score a frontend; accuracy is 1.0 on an empty corpus.

    Rows come back in corpus order.  A gold form that does not parse
    makes the corpus malformed: :class:`FormatError` names the pair by its
    1-based number, which is its line in a file :func:`read_tsv` read.
    """
    rows = []
    for index, pair in enumerate(corpus.pairs):
        try:
            expected = render(parse_logical_form(pair.logical_form))
        except LogicalFormError as exc:
            raise FormatError(index + 1, f"gold logical form does not parse: {exc}") from None
        try:
            produced = render(frontend(pair.utterance))
        except Exception as exc:
            produced = f"error: {exc}"
            matched = False
        else:
            matched = produced == expected
        rows.append(EvalRow(index, matched, expected, produced))
    matches = sum(row.matched for row in rows)
    accuracy = matches / len(rows) if rows else 1.0
    return EvalReport(len(rows), matches, accuracy, tuple(rows))


# What a TSV field may not hold becomes a space.
_TSV_BLANKS = str.maketrans(dict.fromkeys("\t" + LINE_BREAKS, " "))


def report_lines(report: EvalReport) -> list[str]:
    """Machine format: index<TAB>match|miss<TAB>expected<TAB>produced."""
    return [
        f"{row.index}\t{'match' if row.matched else 'miss'}\t{row.expected}\t{row.produced.translate(_TSV_BLANKS)}"
        for row in report.rows
    ]


def format_report(report: EvalReport) -> str:
    """Human-readable summary with one block per failure."""
    failures = report.failures
    lines = [
        f"pairs:         {report.total}",
        f"exact matches: {report.exact_matches}",
        f"accuracy:      {report.accuracy:.4f}",
        f"failures:      {len(failures) or 'none'}",
    ]
    for row in failures:
        lines.append(f"  pair {row.index}")
        lines.append(f"    expected: {row.expected}")
        lines.append(f"    produced: {row.produced}")
    return "\n".join(lines)
