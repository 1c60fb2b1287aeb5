"""The flat citation parser agrees with the descent parser it replaced,
kept verbatim in ``reference_scanners``: ``parse_citation`` returns the same
ref or raises the same error, and the locator finds the same citations, on
strings built from the grammar's own words and shapes."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_scanners as ref
from polminer.errors import UnparseableCitation
from polminer.patterns import find_citations, parse_citation
from test_scanner_equivalence import _PIECES

# A citation-shaped string: head words from every table, then one to three
# references of every shape, among them values each check rejects (a
# second number or date, a year out of range or of three digits, a zero
# number, an impossible date, a day too large for a C long, a year that
# conflicts with the date), then what may follow a citation.
_HEAD_WORDS = st.sampled_from(
    (
        "Cass.", "Cassazione", "Corte", "Cost.", "Costituzionale", "C.", "App.",
        "Corte d'Appello di", "Trib.", "Tribunale", "Milano", "sent.", "ord.",
        "ordinanza", "cfr.", "v.", "si veda", "Civ.", "civ.", "lav.", "sez.",
        "Sez. IV", "sez. I,", "S.U.", "UU. SS.,", "Sezioni Unite,", "la", "osserva",
    )
)
_REFERENCES = st.sampled_from(
    (
        "n. 12962", "nn. 7", "12962", "26972/2008", "217/19", "5/201", "1/3019",
        "0", "n. 0", "n.", "numero x", "22/06/2016", "22.06.2016", "22.06/2016",
        "22/06.2016", "12.2019", "31/02/2016", "1/13/2016", "11 novembre 2008",
        "dell'11 novembre 2008", "novembre 11, 2008",
        "maggio 3 2019", "November 3", "7 maggio", "2019", "2008", "3019",
        "del 2019", "in data 22/06/2016", "99999999999999999999/06/2019",
    )
)
_TAILS = st.sampled_from(("", ".", ";", ",", " e", " osserva", " Cass.", " (x)", " 2019", " /"))
_CITATIONS = st.tuples(
    st.lists(_HEAD_WORDS, max_size=4),
    st.lists(_REFERENCES, min_size=1, max_size=3),
    st.sampled_from((" ", ", ")),
    _TAILS,
).map(lambda t: " ".join(t[0]) + " " + t[2].join(t[1]) + t[3])
_RAW = st.one_of(
    st.lists(_PIECES, min_size=1, max_size=12).map("".join),
    _CITATIONS,
    _CITATIONS.map(lambda s: f"({s})"),
)
# prose around inline citations and parenthesized groups
_PARAGRAPHS = st.lists(
    st.one_of(_CITATIONS, _CITATIONS.map(lambda s: f"({s})"), st.sampled_from(("la Corte", "osserva", "che", "("))),
    min_size=1,
    max_size=8,
).map(" ".join)


@settings(max_examples=500, deadline=None)
@given(_RAW)
def test_parse_citation_matches_frozen_grammar(raw):
    try:
        expected = ref.parse_citation(raw)
    except UnparseableCitation as exc:
        with pytest.raises(UnparseableCitation) as got:
            parse_citation(raw)
        error = got.value
        # the frozen parser counts a token's offset from where the citation
        # starts inside raw's outer blanks and parentheses; the position is
        # an offset within raw
        shift = raw.find(ref._strip_outer_parens(raw)) if exc.token else 0
        assert (error.raw, error.token, error.position, error.reason, str(error)) == (
            exc.raw, exc.token, exc.position + shift, exc.reason, str(exc)
        )
        assert raw[error.position:].startswith(error.token)
    else:
        assert parse_citation(raw) == expected


@settings(max_examples=300, deadline=None)
@given(_PARAGRAPHS)
def test_find_citations_matches_frozen_locator_on_citation_shapes(text):
    # inline attempts that stop on a failed check keep what they read
    # before it, so every rejected value must end them where it did
    assert find_citations(text) == ref.find_citations(text)
