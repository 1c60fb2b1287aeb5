"""Token-indexed alignment and passage resolution agree with the brute-force
reference on small-vocabulary judgments.

A vocabulary of a few words makes shared tokens, repeated tokens and exact
threshold hits (4 of 5 tokens at 0.8, 3 of 5 at 0.6) common, and citation
tails and quotation marks make the normalized and the as-written token
counts differ.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_alignment as ref
from polminer.corpus import Document, Paragraph
from polminer.evaluation import FpKind, align
from polminer.extractor import PoLCandidate, PoLType, Source
from polminer.goldstore import GoldAnnotation
from polminer.llm import resolve_paragraph
from polminer.textnorm import TokenIndex, raw_token_counts

DOC_ID = "d.txt"
_WORDS = st.sampled_from(("corte", "legge", "corte", "diritto", "Corte", "“corte”", "(2019)", "…"))
_TEXTS = st.lists(_WORDS, max_size=7).map(" ".join)
_THRESHOLDS = st.sampled_from((0.5, 0.6, 0.75, 0.8, 1.0))


def _document(texts: list[str]) -> Document:
    paragraphs = tuple(Paragraph(index=i, text=t, char_offset=0) for i, t in enumerate(texts))
    return Document(doc_id=DOC_ID, paragraphs=paragraphs, page_count=None, source_path=DOC_ID)


@st.composite
def _cases(draw):
    paragraphs = draw(st.lists(_TEXTS, max_size=6))
    # -1 and one past the end are indices no paragraph has
    index = st.integers(-1, len(paragraphs))
    gold = [
        GoldAnnotation(doc_id=DOC_ID, paragraph_index=draw(index), span_text=text,
                       pol_type=PoLType.EXPLICIT_DIRECT)
        for text in draw(st.lists(_TEXTS, max_size=5))
    ]
    candidates = [
        PoLCandidate(doc_id=DOC_ID, paragraph_index=draw(index), text=text, quote="",
                     trigger=None, pol_type=PoLType.IMPLICIT, source=Source.LLM)
        for text in draw(st.lists(_TEXTS, max_size=6))
    ]
    return paragraphs, gold, candidates, draw(_THRESHOLDS), draw(_THRESHOLDS)


@settings(max_examples=500, deadline=None)
@given(_cases())
def test_indexed_align_equals_reference(case):
    paragraphs, gold, candidates, overlap, hallucination = case
    document = _document(paragraphs)
    assert align(candidates, gold, document, overlap, hallucination) == ref.align(
        candidates, gold, document, overlap, hallucination
    )


@settings(max_examples=500, deadline=None)
@given(st.lists(_TEXTS, max_size=6), _TEXTS, _THRESHOLDS)
def test_indexed_resolve_paragraph_equals_reference(paragraphs, passage, threshold):
    counters = [raw_token_counts(text) for text in paragraphs]
    assert resolve_paragraph(passage, TokenIndex(counters), threshold) == ref.resolve_paragraph(
        passage, list(enumerate(counters)), threshold
    )


def test_exact_threshold_hits_match():
    # 4 of 5 tokens shared is exactly 0.8; 3 of 5 exactly 0.6
    document = _document(["a b c d e", "a b c x y"])
    gold = [GoldAnnotation(doc_id=DOC_ID, paragraph_index=0, span_text="a b c d z",
                           pol_type=PoLType.IMPLICIT)]
    candidates = [
        PoLCandidate(doc_id=DOC_ID, paragraph_index=i, text=text, quote="", trigger=None,
                     pol_type=PoLType.IMPLICIT, source=Source.LLM)
        for i, text in enumerate(["a b c d e", "a b c q r"])
    ]
    result = align(candidates, gold, document, 0.8, 0.6)
    assert result == ref.align(candidates, gold, document, 0.8, 0.6)
    assert len(result.matches) == 1 and result.matches[0].score == 0.8
    assert [kind for _, kind in result.false_positives] == [FpKind.NOT_POL]


def test_resolve_paragraph_tie_keeps_the_first_paragraph():
    # the passage's first token is only in paragraph 1, yet both contain half
    counters = [raw_token_counts(text) for text in ("legge", "corte")]
    assert resolve_paragraph("corte legge", TokenIndex(counters), 0.5) == 0
    assert ref.resolve_paragraph("corte legge", list(enumerate(counters)), 0.5) == 0
