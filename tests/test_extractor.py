from __future__ import annotations

import csv
import json
from pathlib import Path

import pytest

import oracles
import synth
from fixture_corpus import FIXTURE_PARAGRAPHS, build_fixture_corpus
from polminer import extractor
from polminer.corpus import Document, load_document
from polminer.errors import SchemaError
from polminer.extractor import (
    PoLCandidate,
    PoLType,
    Source,
    Trigger,
    classify,
    emit_csv,
    extract_candidates,
    load_candidates_jsonl,
    save_candidates_jsonl,
)
from polminer.patterns import PROFILES, find_citations, match_keywords

V1 = PROFILES["v1_broad"]
V2 = PROFILES["v2_refined"]


def _doc(texts: list[str], doc_id: str = "t.docx") -> Document:
    return Document(doc_id, tuple(texts), None)


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
    assert classify(cands[0].quote, cands[0].citations) == PoLType.IMPLICIT


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
    assert classify(reordered.quote, reordered.citations) == classify(cand.quote, cand.citations)


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


@pytest.mark.parametrize(
    "field, value",
    [
        ("paragraph_index", True),
        ("paragraph_index", 2.9),
        ("paragraph_index", "3"),
        ("paragraph_index", None),
        ("doc_id", 7),
        ("doc_id", None),
        ("text", None),
        ("text", ["x"]),
        ("quote", None),
        ("quote", ["x"]),
        ("trigger", ""),
        ("trigger", 0),
        ("trigger", "Sometimes"),
        ("pol_type", None),
        ("source", None),
        ("source", ["LLM"]),
    ],
    ids=["index_bool", "index_float", "index_str", "index_null", "doc_id_int", "doc_id_null", "text_null",
         "text_list", "quote_null", "quote_list", "trigger_empty", "trigger_zero", "trigger_unknown",
         "pol_type_null", "source_null", "source_list"],
)
def test_jsonl_rejects_a_field_of_the_wrong_type(tmp_path, field, value):
    doc = _doc(["fine (Trib. Milano 15/2020)"], doc_id="r.docx")
    good = extract_candidates(doc, V2)[0].to_dict()
    path = tmp_path / "bad.jsonl"
    path.write_text(
        json.dumps(good) + "\n" + json.dumps({**good, field: value}) + "\n", encoding="utf-8"
    )
    with pytest.raises(SchemaError) as exc:
        load_candidates_jsonl(path)
    assert exc.value.pointer == f"/1/{field}"



@pytest.mark.parametrize(
    "field, value",
    [("paragraph_index", -7), ("paragraph_index", -2), ("text", "")],
    ids=["index_minus_7", "index_minus_2", "text_empty"],
)
def test_jsonl_rejects_a_value_no_extractor_writes(tmp_path, field, value):
    # rules write a position, the LLM adapter a position or -1, and both a
    # non-empty text
    line = {"doc_id": "a.txt", "paragraph_index": -1, "text": "x", "pol_type": "Implicit", "source": "LLM"}
    assert PoLCandidate.from_dict(line).paragraph_index == -1
    with pytest.raises(SchemaError) as exc:
        PoLCandidate.from_dict({**line, field: value}, "/1")
    assert exc.value.pointer == f"/1/{field}"
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(line) + "\n" + json.dumps({**line, field: value}) + "\n", encoding="utf-8")
    with pytest.raises(SchemaError) as exc:
        load_candidates_jsonl(path)
    assert exc.value.pointer == f"/1/{field}"


@pytest.mark.parametrize(
    "field, value, pointer",
    [
        ("raw", 7, "/raw"),
        ("raw", None, "/raw"),
        ("year", "2019", "/year"),
        ("year", 2019.0, "/year"),
        ("number", True, "/number"),
        ("court", None, "/court"),
        ("court", "Bogus", "/court"),
        ("court_label", 3, "/court_label"),
        ("section", ["I"], "/section"),
        ("date", 20190101, "/date"),
        ("date", "22/06/2016", "/date"),
        ("marker", False, "/marker"),
        # values of the right type that the citation grammar never writes
        ("date", "", "/date"),
        ("date", "1850-06-01", "/date"),
        ("number", 0, "/number"),
        ("number", -4, "/number"),
        ("year", 5, "/year"),
        # no number, year or date left: a citation with nothing to cite
        ("year", None, ""),
        # a date in another year than the citation's 2020
        ("date", "2018-01-01", ""),
    ],
    ids=["raw_int", "raw_null", "year_str", "year_float", "number_bool", "court_null", "court_unknown",
         "court_label_int", "section_list", "date_int", "date_not_iso", "marker_bool", "date_empty",
         "date_year_out_of_range", "number_zero", "number_negative", "year_out_of_range", "nothing_cited",
         "year_conflicts_with_date"],
)
def test_jsonl_rejects_a_citation_field_of_the_wrong_type(tmp_path, field, value, pointer):
    doc = _doc(["fine (Trib. Milano 15/2020)"], doc_id="r.docx")
    good = extract_candidates(doc, V2)[0].to_dict()
    citation = {**good["citations"][0], field: value}
    if pointer == "":
        citation["number"] = None
    path = tmp_path / "bad.jsonl"
    path.write_text(
        json.dumps(good) + "\n" + json.dumps({**good, "citations": [citation]}) + "\n", encoding="utf-8"
    )
    with pytest.raises(SchemaError) as exc:
        load_candidates_jsonl(path)
    assert exc.value.pointer == f"/1/citations/0{pointer}"


@pytest.mark.parametrize(
    "citations, pointer",
    [("Trib. Milano 15/2020", "/1/citations"), (["Trib. Milano 15/2020"], "/1/citations/0"),
     ([{"court": "Tribunale", "year": 2020}], "/1/citations/0/raw")],
    ids=["not_a_list", "entry_not_an_object", "raw_missing"],
)
def test_jsonl_rejects_malformed_citations(tmp_path, citations, pointer):
    doc = _doc(["fine (Trib. Milano 15/2020)"], doc_id="r.docx")
    good = extract_candidates(doc, V2)[0].to_dict()
    path = tmp_path / "bad.jsonl"
    path.write_text(
        json.dumps(good) + "\n" + json.dumps({**good, "citations": citations}) + "\n", encoding="utf-8"
    )
    with pytest.raises(SchemaError) as exc:
        load_candidates_jsonl(path)
    assert exc.value.pointer == pointer


@pytest.mark.parametrize("line", [5, "r.docx", None, [1]], ids=repr)
def test_jsonl_rejects_a_line_that_is_not_an_object(tmp_path, line):
    doc = _doc(["fine (Trib. Milano 15/2020)"], doc_id="r.docx")
    good = extract_candidates(doc, V2)[0].to_dict()
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(good) + "\n" + json.dumps(line) + "\n", encoding="utf-8")
    with pytest.raises(SchemaError) as exc:
        load_candidates_jsonl(path)
    assert exc.value.pointer == "/1"
    assert str(exc.value) == "/1: must be an object"


def test_jsonl_names_bytes_that_are_not_utf8(tmp_path):
    doc = _doc(["fine (Trib. Milano 15/2020)"], doc_id="r.docx")
    path = save_candidates_jsonl(extract_candidates(doc, V2), tmp_path / "c.jsonl")
    path.write_bytes(b"\xff" + path.read_bytes())
    with pytest.raises(SchemaError) as exc:
        load_candidates_jsonl(path)
    assert exc.value.pointer == "/" and "utf-8" in str(exc.value)


def test_jsonl_keeps_the_unresolved_paragraph_index(tmp_path):
    doc = _doc(["fine (Trib. Milano 15/2020)"], doc_id="r.docx")
    cand = extract_candidates(doc, V2)[0]._replace(paragraph_index=-1)
    path = save_candidates_jsonl([cand], tmp_path / "c.jsonl")
    assert load_candidates_jsonl(path) == [cand]


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
    doc = Document("d.txt", (text,), 1)
    candidates = extract_candidates(doc, V2)
    assert [c.quote for c in candidates] == ["“a”"]
    assert len(candidates[0].citations) == 1
    assert calls == [text]


def test_match_keywords_runs_only_where_the_logic_reads_it(monkeypatch):
    calls = []

    def counting_match_keywords(text, profile):
        calls.append((profile.name, text))
        return match_keywords(text, profile)

    monkeypatch.setattr(extractor, "match_keywords", counting_match_keywords)
    quoted = "La Corte afferma “un principio”."
    unquoted = "La Corte afferma un principio."
    cited = "Le spese seguono la soccombenza (Cass. n. 26972/2008)"
    doc = _doc([quoted, unquoted, cited])
    v2 = extract_candidates(doc, V2)
    v1 = extract_candidates(doc, V1)
    # v2_refined reads keyword hits only beside a quote; v1_broad only when
    # a paragraph has neither a quote nor an end citation
    assert calls == [("v2_refined", quoted), ("v1_broad", unquoted)]
    assert [c.trigger for c in v2] == [Trigger.QUOTE_AND_KEYWORD, Trigger.CITATION_AT_END]
    assert [c.trigger for c in v1] == [Trigger.QUOTE_ONLY, Trigger.KEYWORD_ONLY, Trigger.CITATION_ANYWHERE]


def test_jsonl_integer_longer_than_python_converts_is_invalid_json(tmp_path):
    # json.loads raises a plain ValueError, not a JSONDecodeError, for an
    # integer past the 4,300-digit string conversion limit
    doc = _doc(["fine (Trib. Milano 15/2020)"], doc_id="r.docx")
    good = json.dumps(extract_candidates(doc, V2)[0].to_dict())
    huge = good.replace('"number": 15', '"number": ' + "1" * 5000)
    assert huge != good
    path = tmp_path / "huge.jsonl"
    path.write_text(good + "\n" + huge + "\n", encoding="utf-8")
    with pytest.raises(SchemaError, match="invalid JSON") as exc:
        load_candidates_jsonl(path)
    assert exc.value.pointer == "/1"
