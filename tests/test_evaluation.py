"""Exact-match scoring of a frontend against a gold corpus."""

import pytest

from seqlang.dataset import Corpus, CorpusPair, FormatError, generate
from seqlang.evaluation import EvalReport, EvalRow, evaluate, format_report, report_lines
from seqlang.frontend import translate
from seqlang.logical_form import ActionNode, ParamNode, SequenceNode, parse_logical_form


def tiny_corpus():
    return Corpus(
        (
            CorpusPair("score a goal", "( seq ( goal ) )"),
            CorpusPair("say hi", "( seq ( say ( words ( $0 ( hi ) ) ) ) )"),
        ),
        "test",
    )


def test_perfect_frontend_scores_one():
    report = evaluate(translate, tiny_corpus())
    assert report.total == 2
    assert report.exact_matches == 2
    assert report.accuracy == 1.0
    assert report.failures == ()


def test_default_frontend_is_perfect_on_generated_data():
    _, test = generate(40, 40, seed=7)
    report = evaluate(translate, test)
    assert report.accuracy == 1.0


def test_wrong_frontend_scores_zero():
    def stubborn(utterance):
        return parse_logical_form("( seq ( gate ) )")

    report = evaluate(stubborn, tiny_corpus())
    assert report.exact_matches == 0
    assert report.accuracy == 0.0
    assert len(report.failures) == 2


def test_raising_frontend_counts_as_miss():
    def broken(utterance):
        raise RuntimeError("no lexicon loaded")

    report = evaluate(broken, tiny_corpus())
    assert report.accuracy == 0.0
    assert all(row.produced == "error: no lexicon loaded" for row in report.rows)


def test_partial_score():
    def goal_only(utterance):
        return parse_logical_form("( seq ( goal ) )")

    report = evaluate(goal_only, tiny_corpus())
    assert report.exact_matches == 1
    assert report.accuracy == 0.5
    assert [row.index for row in report.failures] == [1]


def test_gold_forms_are_canonicalized_before_comparison():
    # same mission, written with stale numbering and ragged spacing
    messy = Corpus(
        (CorpusPair("say hi", "(  seq ( say ( words ( $7 ( hi ) ) ) ) )"),),
        "test",
    )
    report = evaluate(translate, messy)
    assert report.accuracy == 1.0
    assert report.rows[0].expected == "( seq ( say ( words ( $0 ( hi ) ) ) ) )"


def test_unparseable_gold_raises():
    # gold-side garbage is a corpus bug, not a frontend miss
    corpus = Corpus((CorpusPair("score a goal", "not a form"),), "test")
    with pytest.raises(FormatError) as info:
        evaluate(translate, corpus)
    assert info.value.line == 1


def test_empty_corpus_scores_one():
    report = evaluate(translate, Corpus((), "test"))
    assert report.total == 0
    assert report.accuracy == 1.0
    assert report.rows == ()


def test_rows_keep_corpus_order_and_indices():
    report = evaluate(translate, tiny_corpus())
    assert [row.index for row in report.rows] == [0, 1]
    assert report.rows[0].expected == "( seq ( goal ) )"
    assert report.rows[0].produced == "( seq ( goal ) )"
    assert report.rows[0].matched is True


def test_report_lines_format():
    def goal_only(utterance):
        return parse_logical_form("( seq ( goal ) )")

    lines = report_lines(evaluate(goal_only, tiny_corpus()))
    assert lines[0] == "0\tmatch\t( seq ( goal ) )\t( seq ( goal ) )"
    assert lines[1].startswith("1\tmiss\t( seq ( say ( words ( $0 ( hi ) ) ) ) )\t")


def test_report_lines_flatten_control_characters():
    def tabby(utterance):
        raise RuntimeError("bad\tnews\nhere\rand\x85there\u2028too")

    lines = report_lines(evaluate(tabby, tiny_corpus()))
    for line in lines:
        assert line.count("\t") == 3
        assert "\n" not in line
        assert line.splitlines() == [line]
    assert "bad news here and there too" in lines[0]


def test_report_lines_flatten_line_breaks_in_produced_values():
    def breaky(utterance):
        return SequenceNode((ActionNode("say", (ParamNode("words", 0, "a\rb\x85c\u2028d"),)),))

    lines = report_lines(evaluate(breaky, tiny_corpus()))
    for line in lines:
        assert line.count("\t") == 3
        assert line.splitlines() == [line]
    assert lines[1] == "1\tmiss\t( seq ( say ( words ( $0 ( hi ) ) ) ) )\t( seq ( say ( words ( $0 ( a b c d ) ) ) ) )"


def test_format_report_summary():
    def goal_only(utterance):
        return parse_logical_form("( seq ( goal ) )")

    text = format_report(evaluate(goal_only, tiny_corpus()))
    lines = text.splitlines()
    assert lines[0].split() == ["pairs:", "2"]
    assert lines[1].split() == ["exact", "matches:", "1"]
    assert lines[2].split() == ["accuracy:", "0.5000"]
    assert "pair 1" in text  # the failing row is itemized
    assert "( seq ( say ( words ( $0 ( hi ) ) ) ) )" in text


def test_format_report_perfect_run_lists_no_failures():
    text = format_report(evaluate(translate, tiny_corpus()))
    assert "1.0000" in text
    assert "none" in text
    assert "\n  pair" not in text


def test_eval_row_is_plain_data():
    row = EvalRow(0, True, "( seq ( goal ) )", "( seq ( goal ) )")
    assert row == EvalRow(0, True, "( seq ( goal ) )", "( seq ( goal ) )")


def test_eval_report_failures_property():
    rows = (
        EvalRow(0, True, "a", "a"),
        EvalRow(1, False, "a", "b"),
        EvalRow(2, False, "a", "c"),
    )
    report = EvalReport(3, 1, 1 / 3, rows)
    assert report.failures == rows[1:]
