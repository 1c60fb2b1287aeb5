from __future__ import annotations

import datetime as dt
import sys

import pytest

import reference_scanners as ref
from polminer.errors import UnparseableCitation
from polminer.patterns import CitationRef, Court, find_citations, parse_citation
from polminer.patterns.citations import _HEAD_START_RE, _INLINE_HEAD_WORDS

# the citation formats the parser must cover, with their structured fields
CANONICAL = [
    ("Cass. n. 26972/2008", Court.CASSAZIONE, None, 26972, 2008, None),
    ("Civ. Cass., UU. SS., n. 26972/2008", Court.CASSAZIONE, "Civ. UU. SS.", 26972, 2008, None),
    (
        "Corte di Cassazione, Sezioni Unite, n. 26972 dell'11 novembre 2008",
        Court.CASSAZIONE, "Sezioni Unite", 26972, 2008, dt.date(2008, 11, 11),
    ),
    (
        "Cass., sez. I, 22/06/2016 n. 12962",
        Court.CASSAZIONE, "sez. I", 12962, 2016, dt.date(2016, 6, 22),
    ),
    ("sent. 22.06.2016 n. 12962", Court.OTHER, None, 12962, 2016, dt.date(2016, 6, 22)),
    ("Corte Cost. 217/2019", Court.CORTE_COSTITUZIONALE, None, 217, 2019, None),
]


@pytest.mark.parametrize("raw,court,section,number,year,date", CANONICAL)
def test_canonical_formats(raw, court, section, number, year, date):
    ref = parse_citation(raw)
    assert ref.raw == raw
    assert ref.court == court
    assert ref.section == section
    assert ref.number == number
    assert ref.year == year
    assert ref.date == date


def test_leading_markers_stripped_and_recorded():
    ref = parse_citation("cfr. Cass. S.U. Civili n. 12193/19")
    assert ref.marker == "cfr."
    assert ref.court == Court.CASSAZIONE
    assert (ref.number, ref.year) == (12193, 2019)
    ref = parse_citation("v. Corte Cost. 120/2001")
    assert ref.marker == "v."


def test_two_digit_year_pivot():
    assert parse_citation("Cass. 12193/19").year == 2019
    assert parse_citation("Cass. 100/30").year == 2030
    assert parse_citation("Cass. 100/31").year == 1931
    assert parse_citation("Cass. 100/99").year == 1999


def test_parse_is_pure_and_keeps_raw():
    raw = "Cass. n. 26972/2008"
    first = parse_citation(raw)
    second = parse_citation(raw)
    assert first == second
    assert first.raw == raw


def test_unparseable_names_first_bad_token():
    with pytest.raises(UnparseableCitation) as exc:
        parse_citation("La Corte ha affermato che")
    assert exc.value.token == "che"
    with pytest.raises(UnparseableCitation):
        parse_citation("")
    with pytest.raises(UnparseableCitation):
        parse_citation("art. 130 tusg")


@pytest.mark.parametrize("raw", ["(Cass. 1/2019 foo)", "  Cass. 1/2019 foo"])
def test_unparseable_position_is_an_offset_within_raw(raw):
    with pytest.raises(UnparseableCitation) as exc:
        parse_citation(raw)
    assert exc.value.token == "foo"
    assert exc.value.position == raw.index("foo")
    assert raw[exc.value.position:].startswith(exc.value.token)


def test_outer_parentheses_tolerated():
    ref = parse_citation("(Corte Cost. 217/2019)")
    assert ref.court == Court.CORTE_COSTITUZIONALE
    assert (ref.number, ref.year) == (217, 2019)


def test_invalid_date_rejected():
    with pytest.raises(UnparseableCitation):
        parse_citation("Cass. 31/02/2016 n. 5")


def test_oversized_date_field_rejected_not_crashing():
    # a day or month past the C long range once escaped as OverflowError
    with pytest.raises(UnparseableCitation):
        parse_citation("Cass. 1/99999999999999999999/2019")
    assert find_citations("la Corte (Cass. 99999999999999999999/06/2019) osserva") == []


def test_digit_run_longer_than_int_reads_fails_the_parse():
    # int() refuses a run of more than 4,300 digits with ValueError
    run = "3" * 5000
    with pytest.raises(UnparseableCitation) as exc:
        parse_citation(f"Cass. {run}/2019")
    assert exc.value.token == run
    assert find_citations("La Corte afferma “il principio” (Cass. " + "1" * 5000 + ").") == []
    # a day or a month of that length names its own token
    for raw in (f"Cass. {run}/5/2019", f"Cass. 4.{run}.2019", f"Cass. maggio {run}, 2019"):
        with pytest.raises(UnparseableCitation) as exc:
            parse_citation(raw)
        assert exc.value.token == run
    # the rest of the paragraph still parses
    assert [c.number for c in find_citations(f"Il Tribunale (Cass. {run}) e poi (Cass. n. 7/2019).")] == [7]


def test_year_range_enforced():
    with pytest.raises(UnparseableCitation):
        parse_citation("Cass. n. 1/3019")


def test_other_court_label():
    ref = parse_citation("sent. 22.06.2016 n. 12962")
    assert ref.court == Court.OTHER
    assert ref.court_label == "sent."


def test_tribunale_and_appello():
    assert parse_citation("Trib. Milano 15/2020").court == Court.TRIBUNALE
    assert parse_citation("Corte d'Appello di Torino n. 44/2021").court == Court.CORTE_APPELLO


def test_serialization_roundtrip():
    for raw, *_ in CANONICAL:
        ref = parse_citation(raw)
        assert CitationRef.from_dict(ref.to_dict()) == ref


def test_find_citations_in_paragraph():
    text = (
        "La Corte ha affermato “x” (Cass. 217/2019) e, come chiarito da "
        "Cass., sez. I, 22/06/2016 n. 12962, il diritto sussiste (art. 2 Cost.)."
    )
    refs = find_citations(text)
    assert [r.number for r in refs] == [217, 12962]
    assert all(r.court == Court.CASSAZIONE for r in refs)


def test_find_citations_ignores_prose_and_statutes():
    assert find_citations("Nessuna citazione, solo prosa della Corte.") == []
    assert find_citations("ai sensi dell'art. 130 tusg e dell'art. 2 Cost.") == []


def test_find_citations_orders_by_position():
    text = "prima (Corte Cost. 217/2019) poi (Cass. n. 26972/2008)"
    refs = find_citations(text)
    assert [r.number for r in refs] == [217, 26972]


def test_head_lead_class_is_exactly_the_head_word_starts():
    # a word is looked up as an inline head only when _HEAD_START_RE finds
    # it, so its lead must take every character whose casefold starts a
    # head word, on every code point, and nothing else
    prefixes = {word[:k] for word in _INLINE_HEAD_WORDS for k in range(1, len(word) + 1)}
    every_char = [chr(cp) for cp in range(sys.maxunicode + 1)]
    starts = {ch for ch in every_char if ch.casefold() in prefixes}
    found = {m.group()[0] for m in _HEAD_START_RE.finditer(" ".join(every_char))}
    assert found == starts
    assert "ſ" in found  # casefolds to "s"


@pytest.mark.parametrize(
    "text, numbers",
    [
        # a head spelled with a long s, which casefolds to "sent"
        ("come deciso con ſent. n. 12/2019, il ricorso va respinto", [12]),
        ("lo afferma la Caſſazione n. 7/2020 e lo conferma ſentenza 8/2021", [7, 8]),
        # Arabic-Indic digits are decimal digits: the last one ends the scan
        ("come chiarito da Cass. n. ١٢٣/٢٠١٩ il diritto sussiste", [123]),
        ("(Corte Cost. ٢١٧/٢٠١٩) e Trib. Milano ١٥/٢٠٢٠", [217, 15]),
        # "²" is a word character but not a decimal digit
        ("come chiarito da Cass. n. ²", []),
        ("Cass. n. 12/2019 e poi Cass. ²/²", [12]),
        ("(Cass. ²/²) e Trib. ²", []),
    ],
    ids=["long_s_kind", "long_s_court", "arabic_indic", "arabic_indic_group",
         "superscript_only", "superscript_after_a_digit", "superscript_group"],
)
def test_find_citations_on_unusual_characters_matches_reference(text, numbers):
    refs = find_citations(text)
    assert refs == ref.find_citations(text)
    assert [r.number for r in refs] == numbers


def test_find_citations_memoizes_failures_per_unknown_word_budget():
    # the attempt at the first "Cass." spends both unknown words before
    # "zz" and fails there; the attempt at the second reaches "yy" and "zz"
    # with budget to spare, so their failed states are not its own
    text = "Cass. xx Cass. yy zz 12/2019"
    refs = find_citations(text)
    assert refs == ref.find_citations(text)
    assert [r.raw for r in refs] == ["Cass. yy zz 12/2019"]
