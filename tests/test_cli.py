"""End-to-end command-line behavior: output streams and exit codes."""

import argparse
import io
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from seqlang.btxml import emit, parse_bt_xml
from seqlang.cli import _build_parser, main
from seqlang.dataset import generate, write_tsv
from seqlang.frontend import translate
from seqlang.logical_form import ActionNode, ParamNode, SequenceNode, render


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------ compile


def test_compile_prints_the_form_and_writes_xml(tmp_path, capsys):
    out = tmp_path / "m.xml"
    code, stdout, stderr = invoke(
        capsys, "compile", "say hello then score a goal", "--out", str(out)
    )
    assert code == 0
    assert stdout == "( seq ( say ( words ( $0 ( hello ) ) ) ) ( goal ) )\n"
    assert stderr == ""
    tree = parse_bt_xml(out.read_text(encoding="utf-8"))
    assert [a.name for a in tree.actions] == ["say", "goal"]


def test_compile_reads_stdin_when_no_argument(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("go through the gate"))
    code, stdout, _ = invoke(capsys, "compile", "--out", str(tmp_path / "m.xml"))
    assert code == 0
    assert stdout == "( seq ( gate ) )\n"


def test_compile_unmatched_verb_exits_2(tmp_path, capsys):
    code, stdout, stderr = invoke(
        capsys, "compile", "perform a barrel roll", "--out", str(tmp_path / "m.xml")
    )
    assert code == 2
    assert stdout == ""
    assert "no verb trigger" in stderr
    assert not (tmp_path / "m.xml").exists()


def test_compile_deletes_characters_xml_forbids(tmp_path, capsys):
    out = tmp_path / "m.xml"
    code, stdout, stderr = invoke(capsys, "compile", "say a\x01b\x1b\ud800", "--out", str(out))
    assert (code, stdout, stderr) == (0, "( seq ( say ( words ( $0 ( ab ) ) ) ) )\n", "")
    assert 'words="ab"' in out.read_text(encoding="utf-8")


def test_compile_empty_stdin_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    code, _, stderr = invoke(capsys, "compile", "--out", str(tmp_path / "m.xml"))
    assert code == 2
    assert "clause 1" in stderr


def test_compile_with_custom_lexicon_and_registry(tmp_path, capsys):
    (tmp_path / "actions.txt").write_text("ping\n", encoding="utf-8")
    (tmp_path / "lex.txt").write_text("[verbs]\nping = ping\n", encoding="utf-8")
    code, stdout, _ = invoke(
        capsys,
        "compile",
        "ping",
        "--registry",
        str(tmp_path / "actions.txt"),
        "--lexicon",
        str(tmp_path / "lex.txt"),
        "--out",
        str(tmp_path / "m.xml"),
    )
    assert code == 0
    assert stdout == "( seq ( ping ) )\n"
    assert "<Ping/>" in (tmp_path / "m.xml").read_text(encoding="utf-8")


def test_compile_missing_lexicon_file_exits_5(tmp_path, capsys):
    code, _, stderr = invoke(
        capsys, "compile", "goal", "--lexicon", str(tmp_path / "nope.txt")
    )
    assert code == 5
    assert "error:" in stderr


def test_compile_malformed_lexicon_exits_5(tmp_path, capsys):
    bad = tmp_path / "lex.txt"
    bad.write_text("goal = goal\n", encoding="utf-8")
    code, _, stderr = invoke(capsys, "compile", "goal", "--lexicon", str(bad))
    assert code == 5
    assert "line 1" in stderr


def test_compile_lexicon_with_a_cue_list_no_trigger_names_exits_5(tmp_path, capsys):
    bad = tmp_path / "lex.txt"
    bad.write_text("[verbs]\ngoal = goal\n[params.move]\nafter x = x\n", encoding="utf-8")
    code, _, stderr = invoke(capsys, "compile", "goal", "--lexicon", str(bad))
    assert code == 5
    assert "lexicon line 4: no trigger names action 'move'" in stderr


# -------------------------------------------------------------------- parse


def test_parse_emits_xml_to_stdout(capsys):
    code, stdout, stderr = invoke(capsys, "parse", "( seq ( goal ) )")
    assert code == 0
    assert stdout == (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<root main_tree_to_execute="MainTree">\n'
        '  <BehaviorTree ID="MainTree">\n'
        "    <Sequence>\n"
        "      <Goal/>\n"
        "    </Sequence>\n"
        "  </BehaviorTree>\n"
        "</root>\n"
    )
    assert stderr == ""


def test_parse_writes_out_file(tmp_path, capsys):
    out = tmp_path / "m.xml"
    code, stdout, _ = invoke(capsys, "parse", "( seq ( gate ) )", "--out", str(out))
    assert code == 0
    assert stdout == ""
    assert "<Gate/>" in out.read_text(encoding="utf-8")


def test_parse_syntax_error_exits_4(capsys):
    code, stdout, stderr = invoke(capsys, "parse", "( seq ( goal )")
    assert code == 4
    assert stdout == ""
    assert "error:" in stderr


def test_parse_trailing_tokens_prints_the_error_and_exits_4(capsys):
    code, stdout, stderr = invoke(capsys, "parse", "( seq ( goal ) ) x )")
    assert code == 4
    assert stdout == ""
    assert stderr == "error: trailing tokens at token 6: 'x'\n"


def test_parse_unrepresentable_value_exits_4(capsys):
    code, stdout, stderr = invoke(capsys, "parse", "( seq ( say ( words ( $0 ( a\x0bb ) ) ) ) )")
    assert code == 4
    assert stdout == ""
    assert "error:" in stderr


def test_parse_a_parameter_named_xmlns_exits_4(capsys):
    code, stdout, stderr = invoke(capsys, "parse", "( seq ( say ( xmlns ( $0 ( u ) ) ) ) )")
    assert code == 4
    assert stdout == ""
    # after the lenient warning that say has no such parameter
    assert stderr.endswith("\nerror: parameter 'xmlns' in action 'say' would declare an XML namespace\n")


def test_parse_strict_rejects_unknown_actions(capsys):
    code, stdout, stderr = invoke(capsys, "parse", "( seq ( warp ) )", "--strict")
    assert code == 3
    assert stdout == ""
    assert stderr == "error: unknown action 'warp' [action 0]\n"


def test_parse_lenient_emits_unknown_actions_with_warning(capsys):
    code, stdout, stderr = invoke(capsys, "parse", "( seq ( warp ) )")
    assert code == 0
    assert "<Warp/>" in stdout
    assert stderr == "warning: unknown action 'warp' [action 0]\n"


def test_parse_duplicate_param_fails_even_lenient(capsys):
    form = "( seq ( say ( words ( $0 ( a ) ) ) ( words ( $1 ( b ) ) ) ) )"
    code, _, stderr = invoke(capsys, "parse", form)
    assert code == 3
    assert "error: duplicate parameter 'words'" in stderr


def test_parse_strict_refuses_an_alias_beside_its_target(capsys):
    form = "( seq ( move ( raw ( $0 ( 2 ) ) ) ( yaw ( $1 ( 1 ) ) ) ) )"
    code, stdout, stderr = invoke(capsys, "parse", "--strict", form)
    assert code == 3
    assert stdout == ""
    assert stderr == "error: duplicate parameter 'yaw' in action 'move' [action 0, param 1]\n"


def test_an_alias_cue_binds_its_target(tmp_path, capsys):
    lexicon = tmp_path / "lex.txt"
    lexicon.write_text("[verbs]\nmove = move\n[params.move]\nafter yaw = yaw\nafter raw = raw\n", encoding="utf-8")
    out = tmp_path / "m.xml"
    code, stdout, _ = invoke(capsys, "compile", "move raw 2 yaw 1", "--lexicon", str(lexicon), "--out", str(out))
    assert code == 0
    assert stdout == "( seq ( move ( raw ( $0 ( 1 ) ) ) ) )\n"
    assert parse_bt_xml(out.read_text(encoding="utf-8")) == translate("move to yaw 1")
    code, stdout, _ = invoke(capsys, "run", str(out))
    assert (code, stdout) == (0, "0\tmove\traw=1\tSUCCESS\n")


# ----------------------------------------------------------------- generate


def test_generate_writes_corpora_and_reports_vocab(tmp_path, capsys):
    code, stdout, stderr = invoke(
        capsys,
        "generate",
        "--train",
        "30",
        "--test",
        "10",
        "--seed",
        "7",
        "--out",
        str(tmp_path),
    )
    assert code == 0
    assert stderr == ""
    lines = stdout.splitlines()
    assert lines[0] == f"train pairs: 30 -> {tmp_path / 'train.tsv'}"
    assert lines[1] == f"test pairs: 10 -> {tmp_path / 'test.tsv'}"
    assert lines[2].startswith("input vocabulary: ")
    assert lines[3].startswith("output vocabulary: ")
    assert len((tmp_path / "train.tsv").read_text(encoding="utf-8").splitlines()) == 30
    assert len((tmp_path / "test.tsv").read_text(encoding="utf-8").splitlines()) == 10


def test_generate_is_reproducible_on_disk(tmp_path, capsys):
    invoke(capsys, "generate", "--train", "20", "--test", "5", "--out", str(tmp_path / "a"))
    invoke(capsys, "generate", "--train", "20", "--test", "5", "--out", str(tmp_path / "b"))
    a = (tmp_path / "a" / "train.tsv").read_bytes()
    b = (tmp_path / "b" / "train.tsv").read_bytes()
    assert a == b


def test_generate_impossible_request_exits_5(tmp_path, capsys):
    (tmp_path / "one.txt").write_text("solo\n", encoding="utf-8")
    # a registry without lexicon templates cannot be generated from
    code, _, stderr = invoke(
        capsys,
        "generate",
        "--train",
        "5",
        "--test",
        "0",
        "--registry",
        str(tmp_path / "missing.txt"),
        "--out",
        str(tmp_path),
    )
    assert code == 5
    assert "error:" in stderr


def test_generate_to_an_empty_out_exits_5_and_writes_nothing(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, stdout, stderr = invoke(capsys, "generate", "--train", "3", "--test", "1", "--out", "")
    assert (code, stdout) == (5, "")
    assert stderr.startswith("error: ") and stderr.endswith(": ''\n")
    assert not (tmp_path / "train.tsv").exists()


# --------------------------------------------------------------------- eval


def test_eval_passes_at_threshold(tmp_path, capsys):
    invoke(capsys, "generate", "--train", "10", "--test", "10", "--out", str(tmp_path))
    code, stdout, stderr = invoke(capsys, "eval", str(tmp_path / "test.tsv"))
    assert code == 0
    assert "accuracy:" in stdout
    assert "1.0000" in stdout
    assert stderr == ""


def test_eval_lines_output(tmp_path, capsys):
    corpus = tmp_path / "c.tsv"
    corpus.write_text("score a goal\t( seq ( goal ) )\n", encoding="utf-8")
    code, stdout, _ = invoke(capsys, "eval", str(corpus), "--lines")
    assert code == 0
    assert stdout == "0\tmatch\t( seq ( goal ) )\t( seq ( goal ) )\n"


def test_eval_below_threshold_exits_1(tmp_path, capsys):
    corpus = tmp_path / "c.tsv"
    corpus.write_text(
        "score a goal\t( seq ( goal ) )\n"
        "transmogrify\t( seq ( gate ) )\n",
        encoding="utf-8",
    )
    code, stdout, _ = invoke(capsys, "eval", str(corpus))
    assert code == 1
    assert "0.5000" in stdout

    code, _, _ = invoke(capsys, "eval", str(corpus), "--threshold", "0.5")
    assert code == 0


def test_eval_malformed_corpus_exits_5(tmp_path, capsys):
    corpus = tmp_path / "c.tsv"
    corpus.write_text("no tab\n", encoding="utf-8")
    code, _, stderr = invoke(capsys, "eval", str(corpus))
    assert code == 5
    assert "line 1" in stderr


def test_eval_gold_form_that_does_not_parse_exits_5(tmp_path, capsys):
    corpus = tmp_path / "c.tsv"
    corpus.write_text("goal\t( seq ( goal ) )\nsay hi\t( seq ( say\n", encoding="utf-8")
    code, stdout, stderr = invoke(capsys, "eval", str(corpus))
    assert code == 5
    assert stdout == ""
    assert stderr.startswith("error: corpus line 2: gold logical form does not parse: syntax error at token 4")


def test_eval_missing_corpus_exits_5(tmp_path, capsys):
    code, _, _ = invoke(capsys, "eval", str(tmp_path / "nope.tsv"))
    assert code == 5


# ---------------------------------------------------------------------- run


def test_run_prints_trace_and_overall_status(tmp_path, capsys):
    invoke(capsys, "compile", "move to x 1 then say hi", "--out", str(tmp_path / "m.xml"))
    code, stdout, stderr = invoke(capsys, "run", str(tmp_path / "m.xml"))
    assert code == 0
    assert stdout == "0\tmove\tx=1\tSUCCESS\n1\tsay\twords=hi\tSUCCESS\n"
    assert stderr == "overall: SUCCESS\n"


def test_a_number_the_plant_reads_as_infinite_is_not_compiled(tmp_path, capsys):
    # float() reads this run of digits as inf, so the number cue binds nothing
    out = tmp_path / "m.xml"
    code, stdout, _ = invoke(capsys, "compile", "flatten out at 1" + "0" * 309, "--out", str(out))
    assert (code, stdout) == (0, "( seq ( flatten ) )\n")
    assert "<Flatten/>" in out.read_text(encoding="utf-8")
    code, stdout, stderr = invoke(capsys, "run", str(out))
    assert code == 0
    assert stdout == "0\tflatten\t\tSUCCESS\n"
    assert stderr.endswith("overall: SUCCESS\n")


def test_run_fail_at_truncates_the_trace(tmp_path, capsys):
    invoke(capsys, "compile", "goal then gate then say hi", "--out", str(tmp_path / "m.xml"))
    code, stdout, stderr = invoke(capsys, "run", str(tmp_path / "m.xml"), "--fail-at", "1")
    assert code == 0  # the run itself completed; the mission failed
    assert stdout.splitlines() == ["0\tgoal\t\tSUCCESS", "1\tgate\t\tFAILURE"]
    assert stderr == "overall: FAILURE\n"


# Leaves that succeed on the plant by themselves: record-only built-ins,
# an unknown action, and move and flatten with finite numbers.
_SUCCEEDING_STEPS = st.sampled_from(
    (
        ActionNode("say", (ParamNode("words", 0, "hi there"),)),
        ActionNode("goal"),
        ActionNode("gate"),
        ActionNode("warp"),
        ActionNode("move", (ParamNode("x", 0, "1.5"), ParamNode("raw", 1, "-2"))),
        ActionNode("flatten", (ParamNode("num", 0, "2"),)),
    )
)


@given(steps=st.lists(_SUCCEEDING_STEPS, max_size=6), data=st.data())
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_run_fail_at_k_fails_step_k_if_there_is_one_and_else_no_step(tmp_path, capsys, steps, data):
    n = len(steps)
    k = data.draw(st.integers(-3, n + 3) | st.integers(), label="K")
    path = tmp_path / "m.xml"
    path.write_text(emit(SequenceNode(tuple(steps))), encoding="utf-8")
    _, full, _ = invoke(capsys, "run", str(path))
    full = full.splitlines()
    assert len(full) == n and all(line.endswith("\tSUCCESS") for line in full)
    code, stdout, stderr = invoke(capsys, "run", str(path), "--fail-at", str(k))
    assert code == 0
    if 0 <= k < n:
        assert stdout.splitlines() == full[:k] + [full[k].removesuffix("SUCCESS") + "FAILURE"]
        assert stderr.endswith("overall: FAILURE\n")
    else:
        assert stdout.splitlines() == full
        assert stderr.endswith("overall: SUCCESS\n")


def test_run_warns_about_unknown_actions(tmp_path, capsys):
    xml = tmp_path / "m.xml"
    invoke(capsys, "parse", "( seq ( warp ) )", "--out", str(xml))
    code, stdout, stderr = invoke(capsys, "run", str(xml))
    assert code == 0
    assert stdout == "0\twarp\t\tSUCCESS\n"
    assert "warning: unknown action 'warp'" in stderr
    assert stderr.endswith("overall: SUCCESS\n")


def test_run_rejects_malformed_xml_exits_4(tmp_path, capsys):
    bad = tmp_path / "m.xml"
    bad.write_text("<root><oops></root>", encoding="utf-8")
    code, _, stderr = invoke(capsys, "run", str(bad))
    assert code == 4
    assert "error:" in stderr


def test_run_missing_file_exits_5(tmp_path, capsys):
    code, _, _ = invoke(capsys, "run", str(tmp_path / "ghost.xml"))
    assert code == 5


# ------------------------------------------------------------ file decoding


@pytest.mark.parametrize(
    "argv",
    [
        ("run", "{bad}"),
        ("compile", "goal", "--lexicon", "{bad}", "--out", "{out}"),
        ("parse", "( seq ( goal ) )", "--registry", "{bad}"),
        ("eval", "{bad}"),
    ],
    ids=["run", "compile-lexicon", "parse-registry", "eval"],
)
def test_non_utf8_file_exits_5(tmp_path, capsys, argv):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe( seq )\n")
    out = tmp_path / "m.xml"
    code, stdout, stderr = invoke(capsys, *(arg.format(bad=bad, out=out) for arg in argv))
    assert code == 5
    assert stdout == ""
    assert stderr.startswith("error: ") and "utf-8" in stderr
    assert not out.exists()


# The registry line "warp" would read as "\ufeffwarp", the lexicon's first
# line as an entry before any section, the corpus's first utterance as a
# miss, and the mission would miss the reader for emit's own layout.
@pytest.mark.parametrize(
    "text, argv",
    [
        ("warp speed\n", ("parse", "( seq ( warp ( speed ( $0 ( 2 ) ) ) ) )", "--strict", "--registry", "{file}")),
        ("[verbs]\nfetch = bring\n", ("compile", "fetch the buoy", "--lexicon", "{file}", "--out", "{out}")),
        ("fetch the buoy\t( seq ( bring ( val ( $0 ( buoy ) ) ) ) )\n", ("eval", "{file}")),
        (emit(SequenceNode((ActionNode("say", (ParamNode("words", 0, "hi"),)), ActionNode("goal")))), ("run", "{file}")),
    ],
    ids=["registry", "lexicon", "eval-corpus", "run-mission"],
)
def test_a_byte_order_mark_changes_nothing(tmp_path, capsys, text, argv):
    outcomes = []
    for bom in ("", "\ufeff"):
        file, out = tmp_path / f"in{len(bom)}.txt", tmp_path / f"out{len(bom)}.xml"
        file.write_text(bom + text, encoding="utf-8")
        outcome = invoke(capsys, *(arg.format(file=file, out=out) for arg in argv))
        outcomes.append((outcome, out.read_text(encoding="utf-8") if out.exists() else None))
    assert outcomes[0][0][0] == 0
    assert outcomes[1] == outcomes[0]


@pytest.mark.parametrize(
    "argv",
    [("run", "\ud800"), ("compile", "goal", "--lexicon", "\ud800", "--out", "{out}")],
    ids=["run", "compile-lexicon"],
)
def test_a_path_no_file_system_can_name_exits_5(tmp_path, capsys, argv):
    # a lone surrogate outside U+DC80-U+DCFF has no file-system bytes; only
    # an in-process caller can pass one
    out = tmp_path / "m.xml"
    code, stdout, stderr = invoke(capsys, *(arg.format(out=out) for arg in argv))
    assert code == 5
    assert stdout == ""
    assert stderr.startswith("error: ") and "surrogates not allowed" in stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("run", ""),
        ("eval", ""),
        ("compile", "goal", "--registry", "", "--out", "m.xml"),
        ("compile", "goal", "--out", ""),
        ("parse", "( seq ( goal ) )", "--out", ""),
    ],
    ids=["run", "eval", "compile-registry", "compile-out", "parse-out"],
)
def test_an_empty_path_exits_5_and_is_named_as_given(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, stdout, stderr = invoke(capsys, *argv)
    assert (code, stdout) == (5, "")
    assert stderr.startswith("error: ") and stderr.endswith(": ''\n")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv",
    [
        ("run", "{path}"),
        ("eval", "{path}"),
        ("compile", "goal", "--lexicon", "{path}", "--out", "m.xml"),
        ("parse", "( seq ( goal ) )", "--registry", "{path}"),
        ("compile", "goal", "--out", "{path}"),
        ("parse", "( seq ( goal ) )", "--out", "{path}"),
    ],
    ids=["run", "eval", "compile-lexicon", "parse-registry", "compile-out", "parse-out"],
)
def test_a_missing_path_is_named_as_written(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    path = "./nope//x.txt"
    code, stdout, stderr = invoke(capsys, *(arg.format(path=path) for arg in argv))
    assert (code, stdout) == (5, "")
    assert stderr.startswith("error: ") and stderr.endswith(f": '{path}'\n")
    assert not list(tmp_path.iterdir())


# --------------------------------------------------------------------- repl


def test_repl_compiles_each_line(tmp_path, capsys, monkeypatch):
    out = tmp_path / "m.xml"
    monkeypatch.setattr(
        "sys.stdin",
        io.StringIO("say hi\n\nwiggle wildly\nscore a goal\n"),
    )
    code = main(["repl", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    stdout_lines = captured.out.splitlines()
    assert stdout_lines == [
        "( seq ( say ( words ( $0 ( hi ) ) ) ) )",
        str(out),
        "( seq ( goal ) )",
        str(out),
    ]
    assert "no verb trigger" in captured.err
    # the file holds the most recent successful compile
    assert "<Goal/>" in out.read_text(encoding="utf-8")


def test_repl_deletes_characters_xml_forbids(tmp_path, capsys, monkeypatch):
    out = tmp_path / "m.xml"
    monkeypatch.setattr("sys.stdin", io.StringIO("say a\x01b\nsay hi\n"))
    code = main(["repl", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.splitlines() == [
        "( seq ( say ( words ( $0 ( ab ) ) ) ) )",
        str(out),
        "( seq ( say ( words ( $0 ( hi ) ) ) ) )",
        str(out),
    ]
    assert captured.err == ""
    assert 'words="hi"' in out.read_text(encoding="utf-8")


def test_repl_validates_each_line_like_compile(tmp_path, capsys, monkeypatch):
    # this move has no parameters, but the shipped lexicon still binds x
    registry = tmp_path / "reg.txt"
    registry.write_text("move\n", encoding="utf-8")
    out = tmp_path / "m.xml"
    monkeypatch.setattr("sys.stdin", io.StringIO("move to x 1\nsay hi\n"))
    code = main(["repl", "--registry", str(registry), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "error: action 'move' has no parameter 'x' [action 0, param 0]" in captured.err.splitlines()
    assert captured.out.splitlines() == ["( seq ( say ( words ( $0 ( hi ) ) ) ) )", str(out)]
    xml = out.read_text(encoding="utf-8")
    assert 'words="hi"' in xml and "<Move" not in xml
    code, stdout, stderr = invoke(
        capsys, "compile", "move to x 1", "--registry", str(registry), "--out", str(tmp_path / "c.xml")
    )
    assert (code, stdout) == (3, "")
    assert "error: action 'move' has no parameter 'x' [action 0, param 0]" in stderr.splitlines()
    assert not (tmp_path / "c.xml").exists()


def test_a_passed_registry_orders_the_shipped_lexicons_parameters(tmp_path, capsys):
    # the shipped lexicon is built over the built-ins, but compile orders
    # what it binds by --registry, here one that reverses move's first axes
    registry = tmp_path / "reg.txt"
    registry.write_text("move z y x roll pitch raw\n", encoding="utf-8")
    out = tmp_path / "m.xml"
    argv = ["compile", "move to x 1 y 2 z 3", "--registry", str(registry), "--out", str(out)]
    code, stdout, stderr = invoke(capsys, *argv)
    assert (code, stdout) == (0, "( seq ( move ( z ( $0 ( 3 ) ) ) ( y ( $1 ( 2 ) ) ) ( x ( $2 ( 1 ) ) ) ) )\n")
    assert stderr == "warning: line 1 redefines action 'move'\n"
    assert '<Move z="3" y="2" x="1"/>' in out.read_text(encoding="utf-8")


# ------------------------------------------------------------------ parsing


def test_reserved_head_in_a_registry_file_exits_5(tmp_path, capsys):
    (tmp_path / "actions.txt").write_text("seq a\n", encoding="utf-8")
    (tmp_path / "lex.txt").write_text("[verbs]\ngo = seq\n", encoding="utf-8")
    code, stdout, stderr = invoke(
        capsys,
        "compile",
        "go",
        "--registry",
        str(tmp_path / "actions.txt"),
        "--lexicon",
        str(tmp_path / "lex.txt"),
        "--out",
        str(tmp_path / "m.xml"),
    )
    assert code == 5
    assert stdout == ""
    assert stderr.startswith("error: registry config line 1")


@pytest.mark.parametrize("command", ["compile", "repl"])
def test_a_parameter_named_xmlns_in_a_registry_file_exits_5(tmp_path, capsys, monkeypatch, command):
    # emit would refuse every mission that binds it, so the registry refuses it first
    (tmp_path / "actions.txt").write_text("ping xmlns\n", encoding="utf-8")
    (tmp_path / "lex.txt").write_text("[verbs]\nping = ping\n[params.ping]\nrest = xmlns\n", encoding="utf-8")
    monkeypatch.setattr("sys.stdin", io.StringIO("ping hello\nping\n"))
    files = ["--registry", str(tmp_path / "actions.txt"), "--lexicon", str(tmp_path / "lex.txt")]
    argv = [command, *(["ping hello"] if command == "compile" else []), *files, "--out", str(tmp_path / "m.xml")]
    code, stdout, stderr = invoke(capsys, *argv)
    assert (code, stdout) == (5, "")
    assert stderr == "error: registry config line 1: parameter 'xmlns' in action 'ping' would declare an XML namespace\n"
    assert not (tmp_path / "m.xml").exists()


@pytest.mark.parametrize("flag", ["--train", "--test"])
def test_generate_refuses_negative_counts_as_a_usage_error(tmp_path, capsys, flag):
    with pytest.raises(SystemExit) as info:
        main(["generate", flag, "-1", "--out", str(tmp_path)])
    assert info.value.code == 2
    assert "-1" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_generate_with_a_registry_the_templates_break_exits_5(tmp_path, capsys):
    # the say template fills a words parameter this registry's say lacks
    registry = tmp_path / "reg.txt"
    registry.write_text("say\n", encoding="utf-8")
    code, stdout, stderr = invoke(capsys, "generate", "--registry", str(registry), "--out", str(tmp_path / "out"))
    assert (code, stdout) == (5, "")
    assert "error: template produced invalid form" in stderr
    assert "action 'say' has no parameter 'words'" in stderr
    assert not (tmp_path / "out").exists()


def test_unknown_subcommand_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["transmogrify"])
    assert info.value.code == 2
    capsys.readouterr()


def test_render_and_compile_agree(tmp_path, capsys):
    # stdout of compile is the canonical render of what lands in the XML
    out = tmp_path / "m.xml"
    code, stdout, _ = invoke(capsys, "compile", "flatten out at 2", "--out", str(out))
    assert code == 0
    tree = parse_bt_xml(out.read_text(encoding="utf-8"))
    assert stdout.strip() == render(tree)


# ------------------------------------------------------------------ fuzzing

README_EXIT_CODES = {
    int(code) for code in re.findall(r"^\| (\d+) \|", Path(__file__).parents[1].joinpath("README.md").read_text(), re.M)
}

FILES = ("a", "b.xml", "c.tsv")
# Contents that get past the readers, so that drawn argv reaches each command.
_MISSION = "say all clear then flatten out at 2 then move to x 1"
SAMPLES = (
    emit(translate(_MISSION)).encode(),
    write_tsv(generate(3, 0, seed=5)[0]).encode(),
    b"sample depth rate\nping\n",
    b"say\n",
    Path(__file__).parents[1].joinpath("src/seqlang/data/lexicon.txt").read_bytes(),
)
# A token is what an OS argv can hold (no NUL; of the surrogates, only the
# ones Python decodes undecodable bytes to) but '/', so that every path it
# names stays in the example's directory; three characters at most, so
# that a count it spells stays small.
TOKENS = st.text(
    st.characters(blacklist_characters="\x00/", blacklist_categories=("Cs",))
    | st.characters(min_codepoint=0xDC80, max_codepoint=0xDCFF),
    max_size=3,
)
WORDS = st.one_of(
    st.sampled_from(("compile", "parse", "generate", "eval", "run", "repl")),
    st.sampled_from(("--lexicon", "--registry", "--out", "--strict", "--train", "--test", "--seed")),
    st.sampled_from(("--threshold", "--lines", "--fail-at", "-h", "--", "-")),
    st.sampled_from(FILES + (".", "missing")),
    st.integers(-3, 40).map(str),
    st.floats().map(str),
    TOKENS,
    st.sampled_from((_MISSION, render(translate(_MISSION)))),
)
# Operands of the right kind for where they stand.
FILE = st.sampled_from(FILES + (".", "missing"))
NUMBER = st.integers(-3, 40).map(str) | st.floats().map(str)
TEXT = st.sampled_from((_MISSION, render(translate(_MISSION)))) | TOKENS
# Each command's positional operand, and its flags with theirs, as
# _build_parser declares them.
COMMANDS = {
    "compile": (TEXT, {"--lexicon": FILE, "--registry": FILE, "--out": FILE}),
    "parse": (TEXT, {"--registry": FILE, "--strict": None, "--out": FILE}),
    "generate": (None, {"--train": NUMBER, "--test": NUMBER, "--seed": NUMBER, "--registry": FILE, "--out": FILE}),
    "eval": (FILE, {"--lexicon": FILE, "--registry": FILE, "--threshold": NUMBER, "--lines": None}),
    "run": (FILE, {"--fail-at": NUMBER}),
    "repl": (None, {"--lexicon": FILE, "--registry": FILE, "--out": FILE}),
}


def test_each_command_takes_exactly_the_flags_its_row_lists():
    (commands,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(commands.choices) == set(COMMANDS)
    for command, parser in commands.choices.items():
        flags = {flag for action in parser._actions for flag in action.option_strings}
        assert flags - {"-h", "--help"} == set(COMMANDS[command][1]), command


@st.composite
def argvs(draw):
    """Half the time a command with an operand and some of its flags, each

    operand of its kind, so that these draws get past argparse and read
    the files; else any list of words.
    """
    if draw(st.booleans()):
        return draw(st.lists(WORDS, max_size=8))
    command = draw(st.sampled_from(sorted(COMMANDS)))
    operand, options = COMMANDS[command]
    argv = [command]
    if operand is not None and draw(st.booleans()):
        argv.append(draw(operand))
    for flag in draw(st.lists(st.sampled_from(sorted(options)), max_size=3, unique=True)):
        argv.append(flag)
        if options[flag] is not None:
            argv.append(draw(options[flag]))
    return argv


@given(
    argv=argvs(),
    contents=st.tuples(*[st.sampled_from(SAMPLES) | st.binary(max_size=64) for _ in FILES]),
    stdin=st.text(max_size=40) | st.just(_MISSION + "\n" + _MISSION),
)
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_main_returns_a_documented_exit_code_for_any_argv(tmp_path, monkeypatch, argv, contents, stdin):
    with tempfile.TemporaryDirectory(dir=tmp_path) as where:
        monkeypatch.chdir(where)
        for name, content in zip(FILES, contents):
            Path(name).write_bytes(content)
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err), mock.patch("sys.stdin", io.StringIO(stdin)):
            try:
                code = main(argv)
            except SystemExit as exc:
                assert exc.code in (0, 2), err.getvalue()
                return
        assert code in README_EXIT_CODES
