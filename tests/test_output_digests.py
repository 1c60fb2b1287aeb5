"""Every output of the pipeline commands, pinned by its SHA-256.

The six commands of a benchmark round (``_commands`` in
``bench/pipeline.py``: import-gold, extract under both published profiles,
llm-extract on scripted responses, evaluate and compare) run in-process
through ``polminer.cli.main`` on the seed-1 inputs of each benchmark
workload (``bench/generate.py``) and on the fixture corpus; evaluate of each
candidate set and compare of all three run on the repro fixture; and evaluate
of two LLM candidates, and compare of them with the annotators' set, run on
the ``thresholds`` group, one judgment built here: the second threshold pair
moves the verdict of each LLM candidate, one of them settled by the
paragraph index.
evaluate and compare run at the default thresholds and again at ``--overlap
0.7 --hallucination-threshold 0.5 --format md``. Each output file, and each
command's stdout, stderr and exit code, is keyed by its path; the work
directory reads ``WORK`` wherever it appears. A failure lists every key
that moved. A change that moves an output on purpose rewrites the pins,
and names the keys that moved, with:

    PYTHONPATH=src python tests/test_output_digests.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from fixture_corpus import FIXTURE_PARAGRAPHS, build_fixture_corpus
from polminer import cli
from polminer.extractor import PoLCandidate, PoLType, Source, save_candidates_jsonl
from polminer.goldstore import GoldAnnotation, save_gold
from repro import ReproFixture

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import generate  # noqa: E402
import pipeline  # noqa: E402

DIGESTS = Path(__file__).parent / "data" / "output_digests.json"
GROUPS = (*generate.WORKLOADS, "fixture", "repro", "thresholds")
# the second threshold pair, written in the one report format md
SECOND_THRESHOLDS = ("--overlap", "0.7", "--hallucination-threshold", "0.5", "--format", "md")
# an LLM passage of the fixture corpus that no judgment holds
FABRICATED = "drago viola galassia remota cristallo errante"


def _digest(data: bytes, work: Path) -> str:
    return hashlib.sha256(data.replace(str(work).encode(), b"WORK")).hexdigest()


def _both_thresholds(commands):
    """The commands, each evaluate and compare followed by its run at the
    second thresholds, into its own report directory."""
    for label, argv in commands:
        yield label, argv
        if argv[0] in ("evaluate", "compare"):
            out = argv.index("--out") + 1
            yield f"{label}_md", [*argv[:out], argv[out] + "_md", *argv[out + 1:], *SECOND_THRESHOLDS]


def _run(work: Path, commands) -> dict[str, str | int]:
    """Run each command, then key the digest of its stdout and stderr, its
    exit code and every file under ``work/out``."""
    digests: dict[str, str | int] = {}
    out = work / "out"
    for label, argv in _both_thresholds(commands):
        if argv[0] == "compare" and (out / "v1_broad").is_dir():
            # as a benchmark round does: compare names each set after its
            # file stem, and both extract runs write candidates.jsonl
            for profile in ("v1_broad", "v2_refined"):
                shutil.copyfile(out / profile / "candidates.jsonl", out / f"{profile}.jsonl")
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        digests[f"cmd/{label}/exit"] = code
        digests[f"cmd/{label}/stdout"] = _digest(stdout.getvalue().encode(), work)
        digests[f"cmd/{label}/stderr"] = _digest(stderr.getvalue().encode(), work)
    for path in sorted(out.rglob("*")):
        if path.is_file():
            digests[path.relative_to(work).as_posix()] = _digest(path.read_bytes(), work)
    return digests


def _repro_commands(work: Path) -> list[tuple[str, list[str]]]:
    fixture = ReproFixture()
    corpus = str(fixture.write_corpus(work / "corpus"))
    gold = str(save_gold(fixture.gold_set(), work / "gold.json"))
    sets = [
        str(save_candidates_jsonl(candidates, work / f"{name}.jsonl"))
        for name, candidates in (
            ("chat", fixture.chat_candidates()),
            ("regex", fixture.regex_candidates()),
            ("annotators", fixture.annotator_candidates()),
        )
    ]
    out = work / "out"
    commands = [
        (f"evaluate_{Path(path).stem}",
         ["evaluate", gold, path, "--input", corpus, "--out", str(out / f"evaluate_{Path(path).stem}")])
        for path in sets
    ]
    commands.append(("compare", ["compare", gold, *sets, "--input", corpus, "--out", str(out / "compare")]))
    return commands


def _thresholds_commands(work: Path) -> list[tuple[str, list[str]]]:
    """One judgment whose two LLM candidates each change verdict between
    the two threshold pairs. ``alfa beta gamma omega`` scores 0.75 against
    the gold span: a match at 0.7, a Not-PoL under its own paragraph at 0.8.
    ``uno due zeta eta`` names no paragraph and overlaps paragraph 1 by 0.5,
    found only through the paragraph index: a Not-PoL at 0.5 and a
    Hallucination at 0.6. The annotators' set holds the gold span."""
    corpus = work / "corpus"
    corpus.mkdir(parents=True)
    (corpus / "t.txt").write_text("alfa beta gamma delta\n\nuno due tre quattro cinque sei\n", encoding="utf-8")
    gold = str(save_gold([GoldAnnotation("t.txt", 0, "alfa beta gamma delta", PoLType.IMPLICIT)], work / "gold.json"))
    sets = [
        str(save_candidates_jsonl([
            PoLCandidate("t.txt", own, text, "", None, PoLType.IMPLICIT, source=source)
            for own, text in texts
        ], work / f"{name}.jsonl"))
        for name, source, texts in (
            ("llm", Source.LLM, ((0, "alfa beta gamma omega"), (-1, "uno due zeta eta"))),
            ("annotators", Source.HUMAN, ((0, "alfa beta gamma delta"),)),
        )
    ]
    out = work / "out"
    return [
        ("evaluate_llm", ["evaluate", gold, sets[0], "--input", str(corpus), "--out", str(out / "evaluate_llm")]),
        ("compare", ["compare", gold, *sets, "--input", str(corpus), "--out", str(out / "compare")]),
    ]


def group_digests(group: str, work: Path) -> dict[str, str | int]:
    """The digests of one group's outputs, made under ``work``, each key
    prefixed with the group."""
    if group == "repro":
        commands = _repro_commands(work)
    elif group == "thresholds":
        commands = _thresholds_commands(work)
    else:
        if group == "fixture":
            build_fixture_corpus(work / "corpus")
            responses = {name: f"{paragraphs[0]}\n\n{FABRICATED}" for name, paragraphs in FIXTURE_PARAGRAPHS.items()}
            (work / "llm.json").write_text(json.dumps(responses, ensure_ascii=False), encoding="utf-8")
        else:
            generate.generate(group, 1, work)
        commands = pipeline._commands(work)
    return {f"{group}/{key}": value for key, value in _run(work, commands).items()}


@pytest.mark.parametrize("group", GROUPS)
def test_outputs_are_the_pinned_bytes(group, tmp_path):
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))
    pinned = {key: value for key, value in pinned.items() if key.startswith(f"{group}/")}
    got = group_digests(group, tmp_path / group)
    moved = sorted(key for key in pinned.keys() | got.keys() if pinned.get(key) != got.get(key))
    assert not moved, f"{len(moved)} outputs moved: {', '.join(moved)}"


def test_the_second_thresholds_move_the_thresholds_group():
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))
    for label in ("evaluate_llm", "compare"):
        assert pinned[f"thresholds/cmd/{label}/stdout"] != pinned[f"thresholds/cmd/{label}_md/stdout"], label


if __name__ == "__main__":
    old = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.is_file() else {}
    new = {}
    with tempfile.TemporaryDirectory() as tmp:
        for group in GROUPS:
            new |= group_digests(group, Path(tmp) / group)
    DIGESTS.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for key in sorted(old.keys() | new.keys()):
        if old.get(key) != new.get(key):
            print("moved:", key)
