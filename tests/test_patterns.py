from __future__ import annotations

import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import synth
from polminer.patterns import (
    PROFILES,
    citation_at_end,
    find_quotes,
    get_profile,
    match_keywords,
)
from polminer.patterns.rules import (
    PUBLISHED_KEYWORDS,
    PUBLISHED_QUOTE_CLOSE,
    PUBLISHED_QUOTE_OPEN,
    QUOTE_PAIRS,
    _KEYWORD_LEAD,
    _keyword_pattern,
)

V1 = PROFILES["v1_broad"]
V2 = PROFILES["v2_refined"]
EXT = PROFILES["extended"]


def test_single_well_formed_pair():
    spans = find_quotes("La Corte ha affermato “ab c”.", V2)
    assert [s.text for s in spans] == ["“ab c”"]


def test_mixed_styles_published_vs_extended():
    text = "testo con «ab” misto"
    assert [s.text for s in find_quotes(text, V2)] == ["«ab”"]
    assert find_quotes(text, EXT) == []


def test_no_quote_chars():
    assert find_quotes("niente virgolette", V2) == []


def test_quote_spans_lie_in_paragraph():
    text = 'a "b" c “d”'
    for span in find_quotes(text, V2):
        assert 0 <= span.start < span.end <= len(text)
        assert span.end - span.start >= 2
        assert span.text[0] == span.open_char and span.text[-1] == span.close_char


def test_keyword_case_insensitive():
    assert match_keywords("il tribunale osserva", V2) == [("TRIBUNALE", 3)]


def test_keyword_abbreviation_boundary_quirk():
    text = "Cass. n. 12962"
    assert match_keywords(text, V2) == []
    assert match_keywords(text, EXT) == [("CASS.", 0)]


def test_keyword_exact_token():
    assert match_keywords("CASSAZIONE", V2) == [("CASSAZIONE", 0)]


@pytest.mark.parametrize(
    "text, expected",
    [
        ("GİURISPRUDENZA", [("GIURISPRUDENZA", 0)]),
        ("gıurisprudenza", [("GIURISPRUDENZA", 0)]),
        ("la CORTE e il TRİBUNALE", [("CORTE", 3), ("TRIBUNALE", 14)]),
    ],
)
def test_keywords_with_dotted_and_dotless_i_match_the_published_pattern(text, expected):
    # the oracle reports the matched text upper-cased, which keeps the İ, so
    # compare offsets with it and lexicon tokens with the expected hits
    assert match_keywords(text, V2) == expected
    assert [offset for _, offset in expected] == [offset for _, offset in oracles.oracle_keywords(text)]


def test_keyword_lead_class_is_exactly_the_lexicon_first_letters():
    # the lead stands in for the published "(?=\w)": it must match every
    # character a lexicon token's first letter matches under IGNORECASE, on
    # every code point, and nothing else
    every_char = "".join(map(chr, range(sys.maxunicode + 1)))
    lead = {m.group() for m in re.finditer(_KEYWORD_LEAD, every_char, re.IGNORECASE)}
    first_letters = {
        m.group()
        for token in PUBLISHED_KEYWORDS
        for m in re.finditer(re.escape(token[0]), every_char, re.IGNORECASE)
    }
    assert lead == first_letters
    for extended in (False, True):
        pattern = _keyword_pattern(extended)
        assert pattern.pattern.startswith("(?=" + _KEYWORD_LEAD + r")(?<!\w)")
        assert pattern.flags & re.IGNORECASE


def test_citation_at_end_basic():
    text = "...va posta a carico dell'Erario (Corte Cost. 217/2019)"
    assert citation_at_end(text, V2) == "(Corte Cost. 217/2019)"


def test_citation_trailing_period_published_vs_extended():
    text = "...(Cass. Civ. 3877/2020)."
    assert citation_at_end(text, V2) is None
    assert citation_at_end(text, EXT) == "(Cass. Civ. 3877/2020)"


def test_citation_requires_four_digits():
    assert citation_at_end("(see note 3)", V2) is None


def test_citation_unanchored_profile():
    text = "prima (Cass. 217/2019) poi altro testo"
    assert citation_at_end(text, V2) is None
    assert citation_at_end(text, V1) == "(Cass. 217/2019)"


# lines that end a citation search early or late: a ")" only before the
# line's first "(", a ")" after no four digits, two "(" on one line, a
# citation on the line after an unclosed one, and nested groups
_CITATION_EDGES = [
    "vedi) sopra (Cass. n. 12",
    "la nota (vedi sopra) e oltre",
    "(vedi sopra) e (Cass. n. 217/2019) poi",
    "(aperta 2019\nchiusa) e (Trib. 2020) fine",
    "(a (b 2019) c)",
]


@pytest.mark.parametrize("profile", [V1, V2])
def test_detectors_agree_with_published_patterns(profile):
    for text in [*synth.generate_paragraphs(400, seed=7), *_CITATION_EDGES]:
        assert [s.text for s in find_quotes(text, profile)] == oracles.oracle_quotes(text), text
        assert match_keywords(text, profile) == oracles.oracle_keywords(text), text
        anchored = profile.conjunctive
        assert citation_at_end(text, profile) == oracles.oracle_citation_end(text, anchored), text


_FUZZ_ALPHABET = (
    "“”«»‘’\"'()0123456789 \n\t.,;"
    "CORTEcorteTRIBUNALEtribCassGIURISPRUDENZAcollegioConsessoazione"
    "abcdefghilmnopqrstuvzàèì"
)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=_FUZZ_ALPHABET, max_size=120))
def test_fuzzed_agreement_with_published_patterns(text):
    for profile in (V1, V2):
        assert [s.text for s in find_quotes(text, profile)] == oracles.oracle_quotes(text)
        assert match_keywords(text, profile) == oracles.oracle_keywords(text)
        assert citation_at_end(text, profile) == oracles.oracle_citation_end(
            text, profile.conjunctive
        )


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet=_FUZZ_ALPHABET, max_size=120))
def test_extended_is_superset_for_keywords_and_citations(text):
    published_kw = {offset for _, offset in match_keywords(text, V2)}
    extended_kw = {offset for _, offset in match_keywords(text, EXT)}
    assert published_kw <= extended_kw
    if citation_at_end(text, V2) is not None:
        assert citation_at_end(text, EXT) is not None


def test_v1_and_v2_share_published_character_classes():
    # the published profiles differ only in combination logic and anchoring
    text = "La Corte: «ab” e “cd” (Cass. 217/2019) poi Cass. n. 1 e TRIB.x"
    assert find_quotes(text, V1) == find_quotes(text, V2)
    assert match_keywords(text, V1) == match_keywords(text, V2)
    assert not V1.extended and not V2.extended and EXT.extended
    assert not V1.conjunctive and V2.conjunctive and EXT.conjunctive


def test_profile_classes_equal_the_original_pattern_strings():
    # derive the character classes and alternation from the oracle pattern
    # strings so a typo in either side cannot go unnoticed
    open_class = oracles.QUOTE_PATTERN.split("]")[0].split("[")[1]
    close_class = oracles.QUOTE_PATTERN.split("[")[2].split("]")[0]
    assert PUBLISHED_QUOTE_OPEN == frozenset(open_class)
    assert PUBLISHED_QUOTE_CLOSE == frozenset(close_class)
    # the extended profile pairs the same characters, style by style
    assert set(QUOTE_PAIRS) == PUBLISHED_QUOTE_OPEN
    assert set(QUOTE_PAIRS.values()) == PUBLISHED_QUOTE_CLOSE
    alternation = oracles.KEYWORD_PATTERN.split("(")[1].split(")")[0]
    assert PUBLISHED_KEYWORDS == tuple(t.replace("\\.", ".") for t in alternation.split("|"))


def test_unknown_profile_name():
    with pytest.raises(KeyError):
        get_profile("v3_missing")
