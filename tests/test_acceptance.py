"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines on stdout.
"""

from __future__ import annotations

import contextlib
import csv
import random
import time
from pathlib import Path

import pytest

import oracles
import synth
from docxbuild import make_docx
from fixture_corpus import FIXTURE_PARAGRAPHS, build_fixture_corpus
from repro import ReproFixture
from polminer.corpus import Document, load_document
from polminer.errors import BudgetExceeded
from polminer.evaluation import (
    ConfusionCounts,
    FpKind,
    MetricsMode,
    align,
    comparison_table,
    confusion,
    metrics,
)
from polminer.extractor import PoLType, emit_csv, extract_candidates
from polminer.goldstore import GoldAnnotation, import_docx_highlights
from polminer.llm import LlmSession, ScriptedTransport, run_extraction
from polminer.patterns import PROFILES, parse_citation


@contextlib.contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} ({name}): FAIL")
        raise
    print(f"criterion {number:02d} ({name}): PASS")


def test_criterion_01_metric_reproduction():
    with criterion(1, "metric reproduction"):
        start = time.perf_counter()
        expected = {
            (161, 45, 525): (0.235, 0.781, 0.220, 0.361),
            (365, 87, 321): (0.532, 0.807, 0.472, 0.641),
            (682, 0, 4): (0.994, 1.000, 0.994, 0.997),
        }
        for counts, values in expected.items():
            report = metrics(ConfusionCounts(*counts), MetricsMode.PAPER).presentation()
            got = (report["precision"], report["recall"], report["accuracy"], report["f1"])
            assert got == pytest.approx(values, abs=1e-12), counts
        assert time.perf_counter() - start < 1.0


@pytest.fixture(scope="module")
def repro(tmp_path_factory):
    fixture = ReproFixture()
    corpus = fixture.write_corpus(tmp_path_factory.mktemp("acc_corpus"))
    documents = {doc_id: load_document(corpus / doc_id) for doc_id in fixture.paragraphs}
    gold = fixture.gold_set()
    gold_by_doc = {doc_id: tuple(a for a in gold if a.doc_id == doc_id) for doc_id in documents}

    def _align(candidates):
        by_doc: dict[str, list] = {}
        for cand in candidates:
            by_doc.setdefault(cand.doc_id, []).append(cand)
        return [
            align(by_doc.get(doc_id, []), gold_by_doc.get(doc_id, ()), documents[doc_id])
            for doc_id in sorted(documents)
        ]

    methods = {
        "annotators": _align(fixture.annotator_candidates()),
        "chat": _align(fixture.chat_candidates()),
        "regex": _align(fixture.regex_candidates()),
    }
    return gold, methods


def test_criterion_02_percentage_reproduction(repro):
    with criterion(2, "comparison-table percentages"):
        start = time.perf_counter()
        gold, methods = repro
        report = comparison_table(gold, methods)
        rows = {row["Method"]: row for row in report.comparison.to_records()}
        columns = ("PoLs %", "Implicit %", "Ex. Direct %", "Ex. Indirect %")

        computed = {
            "chat": (23.5, 6.6, 31.1, 21.2),
            "regex": (53.2, 24.2, 79.2, 36.8),
            "annotators": (99.4, 95.6, 100.0, 100.0),
        }
        published = {
            "chat": (23.5, 6.6, 31, 21.2),
            "regex": (53.2, 24.2, 79.2, 36.7),
            "annotators": (99.4, 95.6, 100, 100),
        }
        for method, values in computed.items():
            got = tuple(rows[method][c] for c in columns)
            assert got == values, method
        # two published cells (91/293 printed as 31, 111/302 as 36.7) carry a
        # different rounding of the same ratios; every cell agrees with the
        # published figure within one unit of its printed precision
        for method, values in published.items():
            for column, value in zip(columns, values):
                assert abs(rows[method][column] - value) <= 0.1 + 1e-9, (method, column)
        assert time.perf_counter() - start < 1.0


def test_criterion_03_error_share_reproduction(repro):
    with criterion(3, "error-share table"):
        gold, methods = repro
        report = comparison_table(gold, methods)
        rows = {row["Method"]: row for row in report.error_share.to_records()}
        assert rows["chat"]["Errors"] == 45 and rows["chat"]["Total found"] == 206
        assert rows["chat"]["Errors %"] == 21.8
        assert rows["regex"]["Errors"] == 87 and rows["regex"]["Total found"] == 452
        # 87/452 is 19.2% at one decimal; the published table prints 19 (integer)
        assert rows["regex"]["Errors %"] == 19.2
        assert round(87 / 452 * 100) == 19
        assert report.error_share.footnotes, "error-split discrepancy must be noted in the footer"


def test_criterion_04_oracle_equivalence_of_rule_engine():
    with criterion(4, "rule-engine oracle equivalence"):
        start = time.perf_counter()
        texts = synth.generate_paragraphs(1200, seed=20240917)
        doc = Document("synthetic.txt", tuple(texts), None)

        refined_rows = [[c.text, c.quote] for c in extract_candidates(doc, PROFILES["v2_refined"])]
        assert refined_rows == oracles.replay_refined(texts)

        broad_rows = [c.text for c in extract_candidates(doc, PROFILES["v1_broad"])]
        assert broad_rows == oracles.replay_broad(texts)

        from polminer.patterns import citation_at_end, find_quotes, match_keywords

        for text in texts:
            for profile in (PROFILES["v1_broad"], PROFILES["v2_refined"]):
                assert [s.text for s in find_quotes(text, profile)] == oracles.oracle_quotes(text)
                assert match_keywords(text, profile) == oracles.oracle_keywords(text)
                assert citation_at_end(text, profile) == oracles.oracle_citation_end(
                    text, profile.conjunctive
                )
        assert time.perf_counter() - start < 10.0


def test_criterion_05_csv_bit_exactness(tmp_path):
    with criterion(5, "CSV bit-exactness"):
        corpus_dir = build_fixture_corpus(tmp_path / "Sentenze")
        golden_dir = Path(__file__).parent / "data" / "golden"
        for name in FIXTURE_PARAGRAPHS:
            doc = load_document(corpus_dir / name)
            candidates = extract_candidates(doc, PROFILES["v2_refined"])
            out = emit_csv(candidates, name, tmp_path / "Principi")
            assert out.read_bytes() == (golden_dir / out.name).read_bytes(), name
            with open(out, encoding="utf-8", newline="") as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == ["Paragraph", "Quote"]
            assert rows[1:] == [[c.text, c.quote] for c in candidates]


def test_criterion_06_citation_parser_coverage():
    with criterion(6, "citation parser coverage"):
        import datetime as dt

        cases = [
            ("Cass. n. 26972/2008", dict(number=26972, year=2008)),
            ("Civ. Cass., UU. SS., n. 26972/2008", dict(number=26972, year=2008)),
            ("Corte di Cassazione, Sezioni Unite, n. 26972 dell'11 novembre 2008",
             dict(number=26972, year=2008, date=dt.date(2008, 11, 11))),
            ("Cass., sez. I, 22/06/2016 n. 12962",
             dict(number=12962, year=2016, date=dt.date(2016, 6, 22), section="sez. I")),
            ("sent. 22.06.2016 n. 12962",
             dict(number=12962, year=2016, date=dt.date(2016, 6, 22))),
            ("Corte Cost. 217/2019", dict(number=217, year=2019)),
        ]
        for raw, fields in cases:
            ref = parse_citation(raw)
            for name, value in fields.items():
                assert getattr(ref, name) == value, (raw, name)
        assert parse_citation("Cass. n. 26972/2008").court.value == "Cassazione"
        assert parse_citation("Corte Cost. 217/2019").court.value == "CorteCostituzionale"


def test_criterion_07_gold_import(tmp_path):
    with criterion(7, "gold highlight import"):
        path = make_docx(
            tmp_path / "annotato.docx",
            [
                [("span diretto “q” (Cass. 1/2019)", "yellow")],
                [("span indiretto parafrasato", "blue")],
                [("span implicito radicato", "lightGray")],
            ],
        )
        annotations = import_docx_highlights(path)
        assert [a.pol_type for a in annotations] == [
            PoLType.EXPLICIT_DIRECT,
            PoLType.EXPLICIT_INDIRECT,
            PoLType.IMPLICIT,
        ]
        split = make_docx(
            tmp_path / "split.docx",
            [[("prima metà ", "yellow"), ("seconda metà", "yellow")]],
        )
        merged = import_docx_highlights(split)
        assert len(merged) == 1
        assert merged[0].span_text == "prima metà seconda metà"


def test_criterion_08_monoid_law():
    with criterion(8, "confusion-count monoid law"):
        rng = random.Random(20240917)
        per_doc = [
            ConfusionCounts(rng.randint(0, 30), rng.randint(0, 10), rng.randint(0, 30))
            for _ in range(60)
        ]
        corpus_total = sum(per_doc, ConfusionCounts())
        for mode in (MetricsMode.PAPER, MetricsMode.STANDARD):
            corpus_metrics = metrics(corpus_total, mode)
            for _ in range(120):
                shuffled = list(per_doc)
                rng.shuffle(shuffled)
                groups: list[list[ConfusionCounts]] = [[]]
                for item in shuffled:
                    if groups[-1] and rng.random() < 0.3:
                        groups.append([])
                    groups[-1].append(item)
                merged = sum((sum(g, ConfusionCounts()) for g in groups), ConfusionCounts())
                assert merged == corpus_total
                assert metrics(merged, mode) == corpus_metrics


def test_criterion_09_mode_duality():
    with criterion(9, "paper/standard mode duality"):
        rng = random.Random(73)
        for _ in range(1000):
            counts = ConfusionCounts(rng.randint(0, 5000), rng.randint(0, 5000), rng.randint(0, 5000))
            paper = metrics(counts, MetricsMode.PAPER)
            standard = metrics(counts, MetricsMode.STANDARD)
            assert paper.precision == standard.recall
            assert paper.recall == standard.precision
            assert paper.f1 == standard.f1


def test_criterion_10_llm_adapter_offline():
    with criterion(10, "offline LLM adapter"):
        texts = [
            "Premessa in fatto del tutto ordinaria.",
            "Il giudice deve garantire la tutela effettiva dei diritti fondamentali.",
            "La liquidazione segue la soccombenza secondo le regole ordinarie.",
        ]
        doc = Document("j.txt", tuple(texts), None)
        gold = [
            GoldAnnotation(doc_id="j.txt", paragraph_index=1, span_text=texts[1],
                           pol_type=PoLType.IMPLICIT),
            GoldAnnotation(doc_id="j.txt", paragraph_index=2, span_text=texts[2],
                           pol_type=PoLType.IMPLICIT),
        ]

        echo = ScriptedTransport(responses={"j.txt": f"{texts[1]}\n\n{texts[2]}"})
        candidates = run_extraction(doc, LlmSession(), echo)
        counts = confusion(align(candidates, gold, doc))
        assert (counts.tp, counts.fp) == (2, 0)

        fabrication = ScriptedTransport(
            responses={"j.txt": f"{texts[1]}\n\ndrago viola su galassia remota qzv"}
        )
        candidates = run_extraction(doc, LlmSession(), fabrication)
        result = align(candidates, gold, doc)
        kinds = [kind for _, kind in result.false_positives]
        assert kinds == [FpKind.HALLUCINATION]

        session = LlmSession(max_queries_per_session=5)
        for _ in range(5):
            run_extraction(doc, session, echo)
        with pytest.raises(BudgetExceeded):
            run_extraction(doc, session, echo)
