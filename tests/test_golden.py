"""Golden locks: SHA-256 digests over the bytes the pipeline produces.

The first digest covers the rendered form and XML of every translated
pair in a seeded corpus, the XML and trace of seeded random trees, and
the per-pair lines of one evaluation that has misses.  The second covers
the mission path at benchmark sizes: seeded missions of 200-500 actions
written with irregular blanks, then parsed, emitted, read back and run.
A refactor that is meant to keep every output byte-identical must leave
both unchanged.
"""

import hashlib
import random
from importlib import resources

from seqlang import (
    default_lexicon,
    emit,
    evaluate,
    generate,
    load_lexicon,
    parse_bt_xml,
    parse_logical_form,
    render,
    run,
    translate,
)
from seqlang.evaluation import report_lines
from seqlang.interpreter import MockPlant, format_trace
from seqlang.registry import builtin_registry
from support import random_messy_tree, random_tree

GOLDEN_SHA256 = "4688553e1eb0f6d5ff353bc4bf04a8681d9bf327a3911093cba1c23e0ecf4039"
LARGE_MISSIONS_SHA256 = "5e05909a639b665e49731fdc15d75b46dede95da77c2fa173c6fcb139f8e2f87"

# Removing these lines from the shipped lexicon makes some pairs miss:
# "locate" finds no verb, and "yaw" values go unbound.
_DROPPED_LINES = ("locate = find", "after yaw = raw")


def _translated_corpus() -> list[str]:
    lexicon = default_lexicon()
    train, _ = generate(300, 0, seed=7)
    out = []
    for pair in train.pairs:
        tree = translate(pair.utterance, lexicon)
        out.append(render(tree))
        out.append(emit(tree))
    return out


def _executed_trees() -> list[str]:
    out = []
    for build, seed in ((random_tree, 41), (random_messy_tree, 42)):
        rng = random.Random(seed)
        for i in range(150):
            xml = emit(build(rng))
            plant = MockPlant(fail_injections={i % 5} if i % 3 == 0 else set())
            trace, status = run(xml, plant)
            out.append(xml)
            out.extend(format_trace(trace))
            out.append(status)
            out.append(repr(plant.pose))
    return out


def _eval_lines() -> list[str]:
    text = resources.files("seqlang").joinpath("data/lexicon.txt").read_text("utf-8")
    kept = [line for line in text.splitlines() if line.strip() not in _DROPPED_LINES]
    lexicon = load_lexicon("\n".join(kept), builtin_registry())
    _, test = generate(0, 80, seed=3)
    report = evaluate(lambda utterance: translate(utterance, lexicon), test)
    assert 0 < report.exact_matches < report.total
    return report_lines(report)


def test_pipeline_outputs_match_the_golden_digest():
    digest = hashlib.sha256()
    for section in (_translated_corpus(), _executed_trees(), _eval_lines()):
        for piece in section:
            digest.update(piece.encode("utf-8") + b"\x00")
        digest.update(b"\x01")
    assert digest.hexdigest() == GOLDEN_SHA256


def _spaced(text: str, rng: random.Random) -> str:
    """``text`` with each single space replaced by a random blank run."""
    return "".join(rng.choice((" ", "  ", "\t", "\n", " \n\t")) if c == " " else c for c in text)


def _large_missions() -> list[str]:
    out = []
    rng = random.Random(43)
    for _ in range(12):
        form = _spaced(render(random_messy_tree(rng, 200, 500)), rng)
        tree = parse_logical_form(form)
        xml = emit(tree)
        trace, status = run(xml)
        out.append(render(tree))
        out.append(xml)
        out.append(render(parse_bt_xml(xml)))
        out.extend(format_trace(trace))
        out.append(status)
    return out


def test_large_missions_match_the_golden_digest():
    digest = hashlib.sha256()
    for piece in _large_missions():
        digest.update(piece.encode("utf-8") + b"\x00")
    assert digest.hexdigest() == LARGE_MISSIONS_SHA256
