from __future__ import annotations

import csv
from pathlib import Path

import pytest

import oracles
import synth
from fixture_corpus import FIXTURE_PARAGRAPHS, build_fixture_corpus
from polminer import extractor
from polminer.corpus import Document, Paragraph, load_document
from polminer.extractor import (
    PoLCandidate,
    PoLType,
    Source,
    Trigger,
    classify_candidate,
    emit_csv,
    extract_candidates,
    load_candidates_jsonl,
    save_candidates_jsonl,
)
from polminer.patterns import PROFILES, find_citations

V1 = PROFILES["v1_broad"]
V2 = PROFILES["v2_refined"]


def _doc(texts: list[str], doc_id: str = "t.docx") -> Document:
    paragraphs = []
    offset = 0
    for i, text in enumerate(texts):
        paragraphs.append(Paragraph(index=i, text=text, char_offset=offset))
        offset += len(text) + 1
    return Document(doc_id=doc_id, paragraphs=tuple(paragraphs), page_count=None, source_path=doc_id)


def test_conjunction_captures_first_quote():
    doc = _doc(['La Corte ha affermato “x” (Cass. 217/2019)'])
    cands = extract_candidates(doc, V2)
    assert len(cands) == 1
    assert cands[0].trigger == Trigger.QUOTE_AND_KEYWORD
    assert cands[0].quote == "“x”"
    assert cands[0].pol_type == PoLType.EXPLICIT_DIRECT


def test_citation_only_row_has_empty_quote():
    doc = _doc(["…carico dell'Erario (Corte Cost. 217/2019)"])
    cands = extract_candidates(doc, V2)
    assert len(cands) == 1
    assert cands[0].trigger == Trigger.CITATION_AT_END
    assert cands[0].quote == ""
    assert cands[0].pol_type == PoLType.EXPLICIT_INDIRECT


def test_quote_without_keyword_or_citation_not_emitted_by_v2():
    doc = _doc(['Si legge “senza parole chiave” qui.'])
    assert extract_candidates(doc, V2) == []
    v1 = extract_candidates(doc, V1)
    assert len(v1) == 1 and v1[0].trigger == Trigger.QUOTE_ONLY


def test_v1_branch_order():
    doc = _doc([
        'con “virgolette” e (Cass. 1/2019) e Corte',  # quote wins
        "solo (Cass. 1/2019) nel mezzo del testo",  # citation anywhere
        "soltanto il Tribunale",  # keyword
    ])
    triggers = [c.trigger for c in extract_candidates(doc, V1)]
    assert triggers == [Trigger.QUOTE_ONLY, Trigger.CITATION_ANYWHERE, Trigger.KEYWORD_ONLY]


def test_keyword_hit_without_citation_is_implicit():
    doc = _doc(["la giurisprudenza ha sostenuto che nulla rileva"])
    cands = extract_candidates(doc, V1)
    assert cands[0].pol_type == PoLType.IMPLICIT
    assert classify_candidate(cands[0]) == PoLType.IMPLICIT


def test_classification_is_stable_under_citation_reordering():
    doc = _doc(['Il Collegio nota “x” (Cass. 1/2019) e (Corte Cost. 2/2020)'])
    cand = extract_candidates(doc, V2)[0]
    reordered = PoLCandidate(
        doc_id=cand.doc_id,
        paragraph_index=cand.paragraph_index,
        text=cand.text,
        quote=cand.quote,
        trigger=cand.trigger,
        pol_type=cand.pol_type,
        citations=tuple(reversed(cand.citations)),
        source=cand.source,
    )
    assert classify_candidate(reordered) == classify_candidate(cand)


def test_extraction_is_deterministic():
    doc = _doc([p for p in synth.generate_paragraphs(60, seed=3)])
    assert extract_candidates(doc, V2) == extract_candidates(doc, V2)
    assert extract_candidates(doc, V1) == extract_candidates(doc, V1)


def test_v2_emits_at_most_one_candidate_per_paragraph():
    doc = _doc(synth.generate_paragraphs(120, seed=11))
    cands = extract_candidates(doc, V2)
    indices = [c.paragraph_index for c in cands]
    assert len(indices) == len(set(indices))
    assert indices == sorted(indices)


def test_script_equivalence_on_synthetic_corpus():
    texts = synth.generate_paragraphs(300, seed=5)
    doc = _doc(texts)
    engine_rows = [[c.text, c.quote] for c in extract_candidates(doc, V2)]
    assert engine_rows == oracles.replay_refined(texts)
    engine_selected = [c.text for c in extract_candidates(doc, V1)]
    assert engine_selected == oracles.replay_broad(texts)


def test_emit_csv_contract(tmp_path):
    doc = _doc(
        [
            'La Corte afferma “x” (Cass. 1/2019)',
            "rinvio finale (Corte Cost. 217/2019)",
        ],
        doc_id="s01.docx",
    )
    out = emit_csv(extract_candidates(doc, V2), "s01.docx", tmp_path / "Principi")
    assert out == tmp_path / "Principi" / "s01.csv"
    data = out.read_bytes()
    assert b"\r" not in data
    lines = data.decode("utf-8").splitlines()
    assert lines[0] == "Paragraph,Quote"
    assert len(lines) == 3
    assert lines[2].endswith(",")  # empty quote column on the citation row


def test_emit_csv_empty_candidates(tmp_path):
    out = emit_csv([], "vuoto.docx", tmp_path)
    assert out.read_text(encoding="utf-8") == "Paragraph,Quote\n"


def test_csv_escaping_roundtrip(tmp_path):
    tricky = 'Testo con virgola, "apici" e unicode «».'
    doc = _doc([f'{tricky} dice la Corte “q”'], doc_id="x.docx")
    out = emit_csv(extract_candidates(doc, V2), "x.docx", tmp_path)
    with open(out, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["Paragraph", "Quote"]
    assert rows[1][0] == f'{tricky} dice la Corte “q”'


def test_golden_csv_bit_exactness(tmp_path):
    corpus_dir = build_fixture_corpus(tmp_path / "Sentenze")
    golden_dir = Path(__file__).parent / "data" / "golden"
    for name in FIXTURE_PARAGRAPHS:
        doc = load_document(corpus_dir / name)
        out = emit_csv(extract_candidates(doc, V2), name, tmp_path / "Principi")
        golden = golden_dir / out.name
        assert out.read_bytes() == golden.read_bytes(), name


def test_candidates_jsonl_roundtrip(tmp_path):
    doc = _doc(
        ['Il Collegio nota “x” (Cass. n. 26972/2008)', "fine (Trib. Milano 15/2020)"],
        doc_id="r.docx",
    )
    cands = extract_candidates(doc, V2)
    path = save_candidates_jsonl(cands, tmp_path / "c.jsonl")
    assert load_candidates_jsonl(path) == cands


def test_jsonl_schema_error(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"doc_id": "a", "text": "x"}\n', encoding="utf-8")
    from polminer.errors import SchemaError

    with pytest.raises(SchemaError):
        load_candidates_jsonl(path)


def test_candidate_source_enum():
    doc = _doc(["il Tribunale decide"], doc_id="s.docx")
    assert extract_candidates(doc, V1)[0].source == Source.RULES


def test_find_citations_runs_once_per_kept_paragraph(monkeypatch):
    calls = []

    def counting_find_citations(text):
        calls.append(text)
        return find_citations(text)

    monkeypatch.setattr(extractor, "find_citations", counting_find_citations)
    text = "La Corte richiama “a”, “b” e “c” (Cass. n. 26972/2008)."
    doc = Document("d.txt", (Paragraph(0, text, 0),), 1, "d.txt")
    candidates = extract_candidates(doc, V2)
    assert [c.quote for c in candidates] == ["“a”"]
    assert len(candidates[0].citations) == 1
    assert calls == [text]
