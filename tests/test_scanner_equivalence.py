"""The linear-time detectors and citation locator agree with the reference
character scanners on long adversarial paragraphs."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_scanners as ref
from polminer.patterns import PROFILES, citation_at_end, find_citations, find_quotes, match_keywords
from polminer.patterns.citations import _END, _read_tokens

# Pieces that drive the reference scanners into their quadratic paths:
# unclosed openers, parentheses far from their closer, citation heads that
# never reach a number, digit runs and "dddd)" tails. No dotted or dotless
# I: there the keyword regex deliberately differs from the reference (see
# test_patterns).
_PIECES = st.sampled_from(
    (
        "“", "”", "«", "»", "‘", "’", '"', "(", ")", "<", ">",
        "Cass. sez. ", "Cass. ", "Cass.", "sez. I, ", "Corte di ", "Trib.",
        "tribunale ", "sent. ", "n. ", "nota ", "cfr. ", "dell'11 novembre ",
        "1234", "2019", "12", "7", "/", ".", ",", ";", " ", "  ", "\n",
        "la ", "osserva ", "xyz",
        # a whole inline citation, so that a line often holds a number
        # past the first one an inline head must read on to
        "Cass. n. 12/2019 ",
    )
)
# Long lines come from runs of one repeated unit, as in a paragraph that
# repeats an unclosed quote or a citation head; cut at 2,000 characters.
_RUNS = st.tuples(st.lists(_PIECES, min_size=1, max_size=8).map("".join), st.integers(1, 80))
_PARAGRAPHS = st.lists(_RUNS, max_size=6).map(lambda runs: "".join(u * n for u, n in runs)[:2000])


@settings(max_examples=100, deadline=None)
@given(_PARAGRAPHS)
def test_detectors_match_reference_scanners(text):
    for profile in PROFILES.values():
        assert find_quotes(text, profile) == ref.find_quotes(text, profile), profile.name
        assert match_keywords(text, profile) == ref.match_keywords(text, profile), profile.name
        assert citation_at_end(text, profile) == ref.citation_at_end(text, profile), profile.name


@settings(max_examples=100, deadline=None)
@given(_PARAGRAPHS)
def test_find_citations_matches_reference_locator(text):
    assert find_citations(text) == ref.find_citations(text)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="ab Cz19²½_ß’'.,;()/-\n\tİı«", max_size=60))
def test_tokenizer_matches_reference_tokenizer(text):
    # one token at a time, as the parser reads them, up to the end padding
    tokens: list = []
    read = 0
    while not tokens or tokens[-1] is not _END:
        read = _read_tokens(text, read, tokens, len(tokens) + 1)
    assert tokens[:-1] == ref._tokenize(text)
