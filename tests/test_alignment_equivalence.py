"""Token-indexed alignment and passage resolution agree with the brute-force
reference on small-vocabulary judgments.

A vocabulary of a few words makes shared tokens, repeated tokens and exact
threshold hits (4 of 5 tokens at 0.8, 3 of 5 at 0.6) common, and citation
tails and quotation marks make the normalized and the as-written token
counts differ. Some candidates copy a paragraph word for word, as every
rules candidate does, and name that paragraph, another one or none, so FP
triage is settled by the own paragraph, by the index, or by neither.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_alignment as ref
from polminer import evaluation
from polminer.corpus import Document, Paragraph
from polminer.evaluation import FpKind, align
from polminer.extractor import PoLCandidate, PoLType, Source
from polminer.goldstore import GoldAnnotation
from polminer.llm import resolve_paragraph
from polminer.textnorm import TokenIndex, overlap_coefficient, raw_token_counts

DOC_ID = "d.txt"
_WORDS = st.sampled_from(("corte", "legge", "corte", "diritto", "Corte", "“corte”", "(2019)", "…"))
_TEXTS = st.lists(_WORDS, max_size=7).map(" ".join)
# a paragraph may hold no token at all
_PARAGRAPHS = st.one_of(_TEXTS, st.sampled_from(("", "…", "“…” (…)")))
_THRESHOLDS = st.sampled_from((0.5, 0.6, 0.75, 0.8, 1.0))


def _document(texts: list[str]) -> Document:
    paragraphs = tuple(Paragraph(index=i, text=t, char_offset=0) for i, t in enumerate(texts))
    return Document(doc_id=DOC_ID, paragraphs=paragraphs, page_count=None, source_path=DOC_ID)


def _candidate(index: int, text: str) -> PoLCandidate:
    return PoLCandidate(doc_id=DOC_ID, paragraph_index=index, text=text, quote="",
                        trigger=None, pol_type=PoLType.IMPLICIT, source=Source.LLM)


@st.composite
def _copies(draw, paragraphs: list[str]) -> list[PoLCandidate]:
    """Candidates copying a paragraph, each naming that paragraph, another
    one, -1 or one past the end."""
    if not paragraphs:
        return []
    copies = []
    for source in draw(st.lists(st.integers(0, len(paragraphs) - 1), max_size=4)):
        named = draw(st.sampled_from(
            [source, -1, len(paragraphs)] + [i for i in range(len(paragraphs)) if i != source]
        ))
        copies.append(_candidate(named, paragraphs[source]))
    return copies


@st.composite
def _cases(draw):
    paragraphs = draw(st.lists(_PARAGRAPHS, max_size=6))
    # -1 and one past the end are indices no paragraph has
    index = st.integers(-1, len(paragraphs))
    gold = [
        GoldAnnotation(doc_id=DOC_ID, paragraph_index=draw(index), span_text=text,
                       pol_type=PoLType.EXPLICIT_DIRECT)
        for text in draw(st.lists(_TEXTS, max_size=5))
    ]
    candidates = [_candidate(draw(index), text) for text in draw(st.lists(_TEXTS, max_size=6))]
    candidates += draw(_copies(paragraphs))
    return paragraphs, gold, draw(st.permutations(candidates)), draw(_THRESHOLDS), draw(_THRESHOLDS)


def _own_paragraph_settles(candidate: PoLCandidate, paragraphs: list[str], threshold: float) -> bool:
    """A candidate's triage needs no index: its own paragraph reaches the
    threshold, or it has no token, so that no paragraph can."""
    probe = raw_token_counts(candidate.text)
    own = candidate.paragraph_index
    return not probe or (
        0 <= own < len(paragraphs)
        and overlap_coefficient(probe, raw_token_counts(paragraphs[own])) >= threshold
    )


class _CountingIndex(TokenIndex):
    """A ``TokenIndex`` that records which instance each probe went to."""

    probed: list[TokenIndex] = []

    def overlapping(self, probe, threshold):
        self.probed.append(self)
        return super().overlapping(probe, threshold)


@settings(max_examples=500, deadline=None)
@given(_cases())
def test_indexed_align_equals_reference(case):
    paragraphs, gold, candidates, overlap, hallucination = case
    document = _document(paragraphs)
    evaluation._source_paragraphs.cache_clear()
    _CountingIndex.probed = []
    real, evaluation.TokenIndex = evaluation.TokenIndex, _CountingIndex
    try:
        result = align(candidates, gold, document, overlap, hallucination)
    finally:
        evaluation.TokenIndex = real
    assert result == ref.align(candidates, gold, document, overlap, hallucination)
    # the paragraph index is probed once for each unmatched candidate whose
    # own paragraph leaves its triage open, and for no other
    paragraph_index = evaluation._source_paragraphs(document)._index
    assert sum(index is paragraph_index for index in _CountingIndex.probed) == sum(
        not _own_paragraph_settles(cand, paragraphs, hallucination)
        for cand, _ in result.false_positives
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
    evaluation._source_paragraphs.cache_clear()
    result = align(candidates, gold, document, 0.8, 0.6)
    assert result == ref.align(candidates, gold, document, 0.8, 0.6)
    assert len(result.matches) == 1 and result.matches[0].score == 0.8
    assert [kind for _, kind in result.false_positives] == [FpKind.NOT_POL]
    # the FP's own paragraph reaches 0.6 exactly, which settles its triage
    assert evaluation._source_paragraphs(document)._index is None


def test_resolve_paragraph_tie_keeps_the_first_paragraph():
    # the passage's first token is only in paragraph 1, yet both contain half
    counters = [raw_token_counts(text) for text in ("legge", "corte")]
    assert resolve_paragraph("corte legge", TokenIndex(counters), 0.5) == 0
    assert ref.resolve_paragraph("corte legge", list(enumerate(counters)), 0.5) == 0
