"""The record decoders, pinned message by message.

Every way that ``load_candidates_jsonl``, ``PoLCandidate.from_dict``,
``CitationRef.from_dict``, ``load_gold`` and ``GoldAnnotation.from_dict``
reject their input is asserted here with the full ``SchemaError`` text, so
that a faster decoder must name the same field, in the same words, as the
one it replaces. Where two fields are bad, the one reported is pinned too.
A round-trip property checks that what the extractors write reads back as
the same records, with enum members, dates and citation tuples, not the
plain strings and lists that compare equal to them.
"""

from __future__ import annotations

import datetime as dt
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import synth
from polminer.corpus import Document
from polminer.errors import SchemaError
from polminer.extractor import (
    PoLCandidate,
    PoLType,
    Source,
    Trigger,
    extract_candidates,
    load_candidates_jsonl,
    save_candidates_jsonl,
)
from polminer.goldstore import GoldAnnotation, load_gold
from polminer.llm import LlmSession, ScriptedTransport, run_extraction
from polminer.patterns import PROFILES, CitationRef, Court

CITATION = {
    "raw": "Trib. Milano 15/2020", "court": "Tribunale", "court_label": None, "section": None,
    "number": 15, "year": 2020, "date": None, "marker": None,
}
CANDIDATE = {
    "doc_id": "r.docx", "paragraph_index": 0, "text": "fine (Trib. Milano 15/2020)", "quote": "",
    "trigger": "CitationAtEnd", "pol_type": "ExplicitIndirect", "citations": [CITATION], "source": "Rules",
}
ANNOTATION = {
    "doc_id": "d.txt", "paragraph_index": 0, "span_text": "x", "pol_type": "Implicit",
    "annotator_id": None, "origin": "Human",
}
# the message of Python's own integer conversion limit, as json reports it
_DIGITS = "1" * 4301
try:
    int(_DIGITS)
    _INT_LIMIT = None
except ValueError as exc:
    _INT_LIMIT = str(exc)


def _line(drop: tuple[str, ...] = (), **changes) -> str:
    return json.dumps({k: v for k, v in {**CANDIDATE, **changes}.items() if k not in drop})


def _cited(drop: tuple[str, ...] = (), **changes) -> str:
    citation = {k: v for k, v in {**CITATION, **changes}.items() if k not in drop}
    return _line(citations=[citation])


def _load_second_line(tmp_path, line: str) -> list[PoLCandidate]:
    path = tmp_path / "c.jsonl"
    path.write_text(_line() + "\n" + line + "\n", encoding="utf-8")
    return load_candidates_jsonl(path)


def _rejection(tmp_path, line: str) -> str:
    with pytest.raises(SchemaError) as exc:
        _load_second_line(tmp_path, line)
    return str(exc.value)


CANDIDATE_REJECTIONS = [
    # the line as a whole
    ("not_an_object", "5", "/1: must be an object"),
    ("null", "null", "/1: must be an object"),
    # the message counts the line's own newline
    ("truncated", "{", "/1: invalid JSON: Expecting property name enclosed in double quotes: line 2 column 1 (char 2)"),
    ("bom_led", "\ufeff" + _line(),
     "/1: invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
    ("trailing_vertical_tab", _line() + "\x0b",
     f"/1: invalid JSON: Extra data: line 1 column {len(_line()) + 1} (char {len(_line())})"),
    ("trailing_object", _line() + " {}",
     f"/1: invalid JSON: Extra data: line 1 column {len(_line()) + 2} (char {len(_line()) + 1})"),
    ("leading_vertical_tab", "\x0b" + _line(), "/1: invalid JSON: Expecting value: line 1 column 1 (char 0)"),
    # the candidate's own fields
    ("doc_id_missing", _line(drop=("doc_id",)), "/1/doc_id: missing field"),
    ("paragraph_index_missing", _line(drop=("paragraph_index",)), "/1/paragraph_index: missing field"),
    ("text_missing", _line(drop=("text",)), "/1/text: missing field"),
    ("pol_type_missing", _line(drop=("pol_type",)), "/1/pol_type: missing field"),
    ("doc_id_int", _line(doc_id=7), "/1/doc_id: must be a string"),
    ("paragraph_index_true", _line(paragraph_index=True), "/1/paragraph_index: must be an integer"),
    ("paragraph_index_float", _line(paragraph_index=2.0), "/1/paragraph_index: must be an integer"),
    ("paragraph_index_nan", _line(paragraph_index=float("nan")), "/1/paragraph_index: must be an integer"),
    ("paragraph_index_minus_2", _line(paragraph_index=-2), "/1/paragraph_index: must be -1 or more"),
    ("text_int", _line(text=3), "/1/text: must be a string"),
    ("text_empty", _line(text=""), "/1/text: must not be empty"),
    ("quote_null", _line(quote=None), "/1/quote: must be a string"),
    ("citations_object", _line(citations={}), "/1/citations: must be a list"),
    ("trigger_unknown", _line(trigger="Sometimes"), "/1/trigger: 'Sometimes' is not a valid Trigger"),
    ("trigger_list", _line(trigger=[]), "/1/trigger: [] is not a valid Trigger"),
    ("trigger_false", _line(trigger=False), "/1/trigger: False is not a valid Trigger"),
    ("pol_type_object", _line(pol_type={}), "/1/pol_type: {} is not a valid PoLType"),
    ("pol_type_null", _line(pol_type=None), "/1/pol_type: None is not a valid PoLType"),
    ("source_unknown", _line(source="Robot"), "/1/source: 'Robot' is not a valid Source"),
    ("source_null", _line(source=None), "/1/source: None is not a valid Source"),
    # a citation's fields
    ("citation_not_an_object", _line(citations=[CITATION, 5]), "/1/citations/1: must be an object"),
    ("raw_missing", _cited(drop=("raw",)), "/1/citations/0/raw: missing field"),
    ("raw_int", _cited(raw=7), "/1/citations/0/raw: must be a string"),
    ("court_label_int", _cited(court_label=3), "/1/citations/0/court_label: must be a string or null"),
    ("section_list", _cited(section=["I"]), "/1/citations/0/section: must be a string or null"),
    ("date_int", _cited(date=20190101), "/1/citations/0/date: must be a string or null"),
    ("marker_false", _cited(marker=False), "/1/citations/0/marker: must be a string or null"),
    ("number_true", _cited(number=True), "/1/citations/0/number: must be an integer or null"),
    ("year_string", _cited(year="2020"), "/1/citations/0/year: must be an integer or null"),
    ("number_zero", _cited(number=0), "/1/citations/0/number: must be positive"),
    ("year_5", _cited(year=5), "/1/citations/0/year: must be in 1900-2099"),
    ("court_object", _cited(court={}), "/1/citations/0/court: {} is not a valid Court"),
    ("court_null", _cited(court=None), "/1/citations/0/court: None is not a valid Court"),
    ("court_unknown", _cited(court="Bogus"), "/1/citations/0/court: 'Bogus' is not a valid Court"),
    ("date_empty", _cited(date=""), "/1/citations/0/date: Invalid isoformat string: ''"),
    ("date_slashed", _cited(date="22/06/2016"), "/1/citations/0/date: Invalid isoformat string: '22/06/2016'"),
    ("date_february_30", _cited(date="2020-02-30"), "/1/citations/0/date: day is out of range for month"),
    ("date_year_1850", _cited(date="1850-06-01", year=None), "/1/citations/0/date: year must be in 1900-2099"),
    ("year_conflicts_with_date", _cited(date="2018-01-01"),
     "/1/citations/0: cannot parse citation 'Trib. Milano 15/2020': year conflicts with date"),
    ("nothing_cited", _cited(number=None, year=None),
     "/1/citations/0: cannot parse citation 'Trib. Milano 15/2020': no number, year, or date"),
    # two bad fields: the first one checked is the one named
    ("doc_id_and_text", _line(doc_id=7, text=""), "/1/doc_id: must be a string"),
    ("text_and_missing_index", _line(drop=("paragraph_index",), text=""), "/1/paragraph_index: missing field"),
    ("trigger_and_missing_pol_type", _line(drop=("pol_type",), trigger="X"),
     "/1/trigger: 'X' is not a valid Trigger"),
    ("missing_pol_type_and_citation", _line(drop=("pol_type",), citations=[5]), "/1/pol_type: missing field"),
    ("citation_and_source", _line(citations=[5], source="X"), "/1/citations/0: must be an object"),
    ("quote_and_trigger", _line(quote=1, trigger="X"), "/1/quote: must be a string"),
    ("marker_and_section", _cited(marker=1, section=2), "/1/citations/0/section: must be a string or null"),
    ("court_and_number", _cited(court="X", number=0), "/1/citations/0/number: must be positive"),
    ("date_and_court", _cited(date="x", court="X"), "/1/citations/0/court: 'X' is not a valid Court"),
]


@pytest.mark.parametrize(
    "line, message", [case[1:] for case in CANDIDATE_REJECTIONS], ids=[case[0] for case in CANDIDATE_REJECTIONS]
)
def test_a_rejected_candidate_line_names_its_first_bad_field(tmp_path, line, message):
    assert _rejection(tmp_path, line) == message


@pytest.mark.skipif(_INT_LIMIT is None, reason="no integer string conversion limit")
def test_an_integer_of_4301_digits_is_invalid_json(tmp_path):
    line = _line().replace('"number": 15', '"number": ' + _DIGITS)
    assert _rejection(tmp_path, line) == f"/1: invalid JSON: {_INT_LIMIT}"


@pytest.mark.parametrize(
    "line",
    ["  \t" + _line(), _line() + " \t", "\r" + _line(), _line() + "\r"],
    ids=["leading_blanks", "trailing_blanks", "leading_return", "trailing_return"],
)
def test_json_blanks_around_a_line_are_read_past(tmp_path, line):
    expected = PoLCandidate.from_dict(CANDIDATE)
    assert _load_second_line(tmp_path, line) == [expected, expected]


def test_a_line_of_whitespace_alone_is_skipped(tmp_path):
    # str.isspace decides a blank line: a vertical tab or a form feed alone
    # is not a record, though JSON would not read past either
    path = tmp_path / "c.jsonl"
    path.write_text("\n".join(["", _line(), " ", "\x0b", "\x0c\t", _line(paragraph_index=1), ""]), encoding="utf-8")
    assert [c.paragraph_index for c in load_candidates_jsonl(path)] == [0, 1]
    with pytest.raises(SchemaError) as exc:
        path.write_text("\n\n\n" + _line(text="") + "\n", encoding="utf-8")
        load_candidates_jsonl(path)
    assert str(exc.value) == "/3/text: must not be empty"


def test_a_bom_at_the_start_of_a_candidates_file_is_invalid_json(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text("\ufeff" + _line() + "\n", encoding="utf-8")
    with pytest.raises(SchemaError) as exc:
        load_candidates_jsonl(path)
    assert str(exc.value) == "/0: invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"


def test_a_candidates_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_bytes(b"\xff" + _line().encode() + b"\n")
    with pytest.raises(SchemaError) as exc:
        load_candidates_jsonl(path)
    assert str(exc.value) == "/: not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: PoLCandidate.from_dict(5), "/: must be an object"),
        (lambda: PoLCandidate.from_dict({}), "/doc_id: missing field"),
        (lambda: PoLCandidate.from_dict({**CANDIDATE, "trigger": "X"}), "/trigger: 'X' is not a valid Trigger"),
        (lambda: PoLCandidate.from_dict({**CANDIDATE, "citations": [{}]}, "/7"), "/7/citations/0/raw: missing field"),
        (lambda: CitationRef.from_dict([]), "/: must be an object"),
        (lambda: CitationRef.from_dict({"raw": "x"}), "/: cannot parse citation 'x': no number, year, or date"),
        (lambda: CitationRef.from_dict({**CITATION, "court": []}, "/c"), "/c/court: [] is not a valid Court"),
        (lambda: GoldAnnotation.from_dict(5, "/g"), "/g: must be an object"),
        (lambda: GoldAnnotation.from_dict({}, "/g"), "/g/doc_id: missing field"),
    ],
    ids=["candidate_not_an_object", "candidate_empty", "candidate_trigger", "candidate_citation",
         "citation_not_an_object", "citation_nothing_cited", "citation_court", "gold_not_an_object", "gold_empty"],
)
def test_from_dict_names_the_pointer_it_is_given(call, message):
    with pytest.raises(SchemaError) as exc:
        call()
    assert str(exc.value) == message


def test_from_dict_takes_enum_members_and_defaults():
    data = {**CANDIDATE, "trigger": Trigger.CITATION_AT_END, "pol_type": PoLType.EXPLICIT_INDIRECT,
            "citations": [{**CITATION, "court": Court.TRIBUNALE}], "source": Source.RULES}
    candidate = PoLCandidate.from_dict(data)
    assert candidate == PoLCandidate.from_dict(CANDIDATE)
    assert type(candidate.trigger) is Trigger and type(candidate.citations[0].court) is Court
    bare = PoLCandidate.from_dict({"doc_id": "a", "paragraph_index": -1, "text": "t", "pol_type": "Implicit"})
    assert bare == PoLCandidate("a", -1, "t", "", None, PoLType.IMPLICIT, (), Source.RULES)
    assert CitationRef.from_dict({"raw": "r", "year": 2001}) == CitationRef("r", Court.OTHER, year=2001)


@pytest.mark.parametrize("date", ["20160622", "2016-W25-3", "2016W253", "2016-W25"])
def test_a_citation_date_must_be_written_as_to_dict_writes_it(tmp_path, date):
    # Python 3.11 reads these ISO 8601 forms as 2016-06-22 (or the week's
    # Monday), where 3.10 rejects them; either way none is what to_dict writes
    message = _rejection(tmp_path, _cited(date=date, year=2016))
    assert message in (
        f"/1/citations/0/date: must be YYYY-MM-DD, got {date!r}",
        f"/1/citations/0/date: Invalid isoformat string: {date!r}",
    )
    if sys.version_info >= (3, 11):
        assert message == f"/1/citations/0/date: must be YYYY-MM-DD, got {date!r}"


def _write_gold(tmp_path, annotations) -> object:
    path = tmp_path / "gold.json"
    path.write_text(json.dumps({"annotations": annotations}), encoding="utf-8")
    return path


def _annotation(drop: tuple[str, ...] = (), **changes) -> dict:
    return {k: v for k, v in {**ANNOTATION, **changes}.items() if k not in drop}


GOLD_REJECTIONS = [
    ("not_an_object", 5, "/annotations/1: must be an object"),
    ("doc_id_missing", _annotation(drop=("doc_id",)), "/annotations/1/doc_id: missing field"),
    ("paragraph_index_missing", _annotation(drop=("paragraph_index",)), "/annotations/1/paragraph_index: missing field"),
    ("span_text_missing", _annotation(drop=("span_text",)), "/annotations/1/span_text: missing field"),
    ("pol_type_missing", _annotation(drop=("pol_type",)), "/annotations/1/pol_type: missing field"),
    ("doc_id_list", _annotation(doc_id=["d"]), "/annotations/1/doc_id: must be a string"),
    ("span_text_blank", _annotation(span_text=" \n"), "/annotations/1/span_text: must be a non-empty string"),
    ("span_text_int", _annotation(span_text=1), "/annotations/1/span_text: must be a non-empty string"),
    ("paragraph_index_true", _annotation(paragraph_index=True),
     "/annotations/1/paragraph_index: must be a non-negative integer"),
    ("paragraph_index_minus_1", _annotation(paragraph_index=-1),
     "/annotations/1/paragraph_index: must be a non-negative integer"),
    ("pol_type_unknown", _annotation(pol_type="Nope"),
     "/annotations/1/pol_type: expected one of ['Implicit', 'ExplicitDirect', 'ExplicitIndirect'], got 'Nope'"),
    ("pol_type_list", _annotation(pol_type=[]),
     "/annotations/1/pol_type: expected one of ['Implicit', 'ExplicitDirect', 'ExplicitIndirect'], got []"),
    ("origin_unknown", _annotation(origin="Robot"), "/annotations/1/origin: unknown origin 'Robot'"),
    ("origin_object", _annotation(origin={}), "/annotations/1/origin: unknown origin {}"),
    ("annotator_id_int", _annotation(annotator_id=7), "/annotations/1/annotator_id: must be a string or null"),
    ("duplicate", _annotation(paragraph_index=0, span_text=" X "),
     "/annotations/1: duplicate annotation d.txt#0: ' X '"),
    # two bad fields: the first one checked is the one named
    ("missing_pol_type_and_doc_id", _annotation(drop=("pol_type",), doc_id=7), "/annotations/1/pol_type: missing field"),
    ("span_text_and_index", _annotation(span_text="", paragraph_index=-1),
     "/annotations/1/span_text: must be a non-empty string"),
    ("pol_type_and_origin", _annotation(pol_type="X", origin="Y"),
     "/annotations/1/pol_type: expected one of ['Implicit', 'ExplicitDirect', 'ExplicitIndirect'], got 'X'"),
    ("origin_and_annotator_id", _annotation(origin="Y", annotator_id=1), "/annotations/1/origin: unknown origin 'Y'"),
]


@pytest.mark.parametrize(
    "entry, message", [case[1:] for case in GOLD_REJECTIONS], ids=[case[0] for case in GOLD_REJECTIONS]
)
def test_a_rejected_gold_annotation_names_its_first_bad_field(tmp_path, entry, message):
    with pytest.raises(SchemaError) as exc:
        load_gold(_write_gold(tmp_path, [ANNOTATION, entry]))
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "/: invalid JSON: Expecting value: line 1 column 1 (char 0)"),
        ("\ufeff{}", "/: invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
        ('{"annotations": []}\x0b', "/: invalid JSON: Extra data: line 1 column 20 (char 19)"),
        ("[]", "/annotations: missing annotations list"),
        ('{"annotation": []}', "/annotations: missing annotations list"),
        ('{"annotations": {}}', "/annotations: must be a list"),
        ('{"annotations": [{"doc_id": "d", "paragraph_index": true, "span_text": "x", "pol_type": "Implicit"}]}',
         "/annotations/0/paragraph_index: must be a non-negative integer"),
    ],
    ids=["empty", "bom_led", "trailing_vertical_tab", "a_list", "annotations_missing", "annotations_object",
         "index_true"],
)
def test_a_rejected_gold_file(tmp_path, text, message):
    path = tmp_path / "gold.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(SchemaError) as exc:
        load_gold(path)
    assert str(exc.value) == message


@pytest.mark.skipif(_INT_LIMIT is None, reason="no integer string conversion limit")
def test_a_gold_integer_of_4301_digits_is_invalid_json(tmp_path):
    path = tmp_path / "gold.json"
    path.write_text('{"annotations": [{"paragraph_index": ' + _DIGITS + "}]}", encoding="utf-8")
    with pytest.raises(SchemaError) as exc:
        load_gold(path)
    assert str(exc.value) == f"/: invalid JSON: {_INT_LIMIT}"


def test_a_gold_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "gold.json"
    path.write_bytes(b'{"annotations": ["\xff"]}')
    with pytest.raises(SchemaError) as exc:
        load_gold(path)
    assert str(exc.value) == (
        "/: invalid JSON: 'utf-8' codec can't decode byte 0xff in position 18: invalid start byte"
    )


def test_a_gold_annotation_reads_back_with_its_types(tmp_path):
    loaded = load_gold(_write_gold(tmp_path, [ANNOTATION, _annotation(paragraph_index=3, origin="ToolConfirmed",
                                                                      annotator_id="a", pol_type="ExplicitDirect")]))
    assert loaded == (
        GoldAnnotation("d.txt", 0, "x", PoLType.IMPLICIT, None, "Human"),
        GoldAnnotation("d.txt", 3, "x", PoLType.EXPLICIT_DIRECT, "a", "ToolConfirmed"),
    )
    assert all(type(a.pol_type) is PoLType for a in loaded)


def _llm_response(paragraphs: list[str], draw: st.DataObject) -> str:
    """A numbered list of passages: some paragraphs verbatim, one cut short,
    one invented, so that the adapter places some and leaves others at -1."""
    chosen = draw.draw(st.lists(st.sampled_from(paragraphs), min_size=1, max_size=6))
    passages = [" ".join(p.split()) for p in chosen]
    passages.append(passages[0][: max(1, len(passages[0]) // 2)])
    passages.append("un drago viola (Cass. sent. 22.06.2016 n. 12962) attraversa la galassia")
    return "\n".join(f"{i}. {p}" for i, p in enumerate(passages, 1))


def _assert_typed(candidate: PoLCandidate) -> None:
    assert type(candidate.pol_type) is PoLType and type(candidate.source) is Source
    assert candidate.trigger is None or type(candidate.trigger) is Trigger
    assert type(candidate.citations) is tuple
    for ref in candidate.citations:
        assert type(ref) is CitationRef and type(ref.court) is Court
        assert ref.date is None or type(ref.date) is dt.date


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(10, 60), data=st.data())
def test_extracted_candidates_read_back_as_the_same_typed_records(tmp_path_factory, seed, count, data):
    paragraphs = synth.generate_paragraphs(count, seed)
    document = Document("s.docx", tuple(paragraphs), 1)
    candidates = [c for profile in PROFILES.values() for c in extract_candidates(document, profile)]
    response = _llm_response(paragraphs, data)
    candidates += run_extraction(document, LlmSession(), ScriptedTransport({"s.docx": response}))
    assert any(c.source is Source.LLM for c in candidates) and any(c.citations for c in candidates)
    path = save_candidates_jsonl(candidates, tmp_path_factory.mktemp("roundtrip") / "c.jsonl")
    loaded = load_candidates_jsonl(path)
    assert loaded == candidates
    for candidate in loaded:
        _assert_typed(candidate)
