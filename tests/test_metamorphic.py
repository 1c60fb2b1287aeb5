"""Metamorphic relations over the whole pipeline, run through ``polminer.cli.main``.

Each relation compares runs whose outputs must agree in a known way, so no
reference implementation is needed (Chen et al., ACM Computing Surveys
2018):

- split: ``evaluate`` over the judgments A ∪ B, with disjoint doc_ids,
  prints the sums of the tp/fp/fn it prints over A and over B, and its
  tracking rows, TOTAL aside, are the union of theirs;
- order: ``compare`` given its candidate files in another order gives the
  same comparison and error-share rows, in that order.

Judgments come from ``synth.generate_paragraphs`` and are written as
``.txt`` files, one paragraph per block. Gold spans and candidates are drawn
from their paragraphs: copies at their own index, copies and truncations
the LLM adapter could not place, and passages of words drawn from a small
vocabulary that the judgments partly share.
"""

from __future__ import annotations

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from synth import QUIRK_PARAGRAPHS, generate_paragraphs
from polminer.cli import main
from polminer.extractor import PoLCandidate, PoLType, Source, save_candidates_jsonl, typed_candidate
from polminer.goldstore import GoldAnnotation, save_gold

VOCABULARY = [
    "il", "la", "giudice", "corte", "diritto", "tutela", "domanda", "fondata",
    "modello", "inventa", "sentenza", "assente", "principio", "mai", "scritto",
]


@st.composite
def _judgments(draw, min_size: int = 1) -> list[tuple[str, list[str]]]:
    """Judgments ``d0.txt``, ``d1.txt``, ... of paragraphs that a ``.txt``
    file gives back as written: one line each, no blank one."""
    judgments = []
    for k in range(draw(st.integers(min_size, 4))):
        pool = generate_paragraphs(len(QUIRK_PARAGRAPHS) + 8, seed=draw(st.integers(0, 2**16)))
        picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=5, unique=True))
        judgments.append((f"d{k}.txt", [" ".join(pool[i].split()) for i in picks]))
    return judgments


def _gold(draw, judgments) -> list[GoldAnnotation]:
    """At most one span per paragraph: the paragraph or a run of its words."""
    gold = []
    for doc_id, paragraphs in judgments:
        for index, text in enumerate(paragraphs):
            words = text.split()
            start = draw(st.integers(0, len(words)))
            if start < len(words):
                stop = draw(st.integers(start + 1, len(words)))
                gold.append(GoldAnnotation(doc_id, index, " ".join(words[start:stop]), draw(st.sampled_from(PoLType))))
    return gold


def _candidates(draw, judgments) -> list[PoLCandidate]:
    candidates = []
    for doc_id, paragraphs in judgments:
        for index, text in enumerate(paragraphs):
            kind = draw(st.sampled_from(["none", "copy", "unplaced", "truncated", "drawn"]))
            if kind == "copy":
                candidates.append(typed_candidate(doc_id, index, text, "", None, Source.LLM))
            elif kind == "unplaced":
                candidates.append(typed_candidate(doc_id, -1, text, "", None, Source.LLM))
            elif kind == "truncated":
                words = text.split()
                candidates.append(typed_candidate(
                    doc_id, -1, " ".join(words[: max(1, len(words) // 2)]) + "...", "", None, Source.LLM))
            elif kind == "drawn":
                words = draw(st.lists(st.sampled_from(VOCABULARY), min_size=1, max_size=8))
                candidates.append(typed_candidate(doc_id, -1, " ".join(words), "", None, Source.LLM))
    return candidates


def _write_corpus(directory: Path, judgments) -> str:
    directory.mkdir()
    for doc_id, paragraphs in judgments:
        (directory / doc_id).write_text("\n\n".join(paragraphs) + "\n", encoding="utf-8")
    return str(directory)


def _run(argv: list[str]) -> str:
    """Standard output of one successful command."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        assert main(argv) == 0
    return out.getvalue()


def _rows(path: Path) -> list[dict]:
    return json.loads(path.read_text(encoding="utf-8"))["rows"]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_evaluate_over_a_union_sums_the_runs_over_its_parts(data):
    judgments = data.draw(_judgments(min_size=2))
    gold, candidates = _gold(data.draw, judgments), _candidates(data.draw, judgments)
    doc_ids = {doc_id for doc_id, _ in judgments}
    in_a = {doc_id for doc_id, _ in judgments if data.draw(st.booleans())}
    parts = {"a": in_a, "b": doc_ids - in_a, "ab": doc_ids}
    counts, rows = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, part in parts.items():
            corpus = _write_corpus(work / name, [j for j in judgments if j[0] in part])
            save_gold([a for a in gold if a.doc_id in part], work / f"{name}_gold.json")
            save_candidates_jsonl([c for c in candidates if c.doc_id in part], work / f"{name}.jsonl")
            printed = _run(["evaluate", str(work / f"{name}_gold.json"), str(work / f"{name}.jsonl"),
                            "--input", corpus, "--out", str(work / f"{name}_out"), "--format", "json"])
            counts[name] = [int(field.split("=")[1]) for field in printed.splitlines()[0].split()]
            rows[name] = _rows(work / f"{name}_out" / "tracking.json")
    assert counts["ab"] == [a + b for a, b in zip(counts["a"], counts["b"])]
    assert rows["ab"][-1]["Judgment"] == "TOTAL"
    by_judgment = sorted(rows["a"][:-1] + rows["b"][:-1], key=lambda row: row["Judgment"])
    assert rows["ab"][:-1] == by_judgment


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_compare_permutes_its_rows_with_its_candidate_files(data):
    judgments = data.draw(_judgments())
    gold = _gold(data.draw, judgments)
    sets = [_candidates(data.draw, judgments) for _ in range(3)]
    order = data.draw(st.permutations(range(3)).filter(lambda p: p != [0, 1, 2]))
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        corpus = _write_corpus(work / "corpus", judgments)
        save_gold(gold, work / "gold.json")
        files = [str(save_candidates_jsonl(s, work / f"method{k}.jsonl")) for k, s in enumerate(sets)]
        reports = []
        for out, paths in (("given", files), ("permuted", [files[k] for k in order])):
            _run(["compare", str(work / "gold.json"), *paths,
                  "--input", corpus, "--out", str(work / out), "--format", "json"])
            reports.append((_rows(work / out / "comparison.json"), _rows(work / out / "error_share.json")))
    (comparison, error_share), (permuted_comparison, permuted_error_share) = reports
    assert permuted_comparison == [comparison[0]] + [comparison[1 + k] for k in order]
    assert permuted_error_share == [error_share[k] for k in order]
