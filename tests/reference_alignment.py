"""Reference alignment: the brute-force ``align`` and ``resolve_paragraph``.

These are the earlier implementations, kept verbatim as the reference that
the token-indexed versions in ``polminer.evaluation`` and ``polminer.llm``
are checked against. They score every gold span against every candidate and
every unmatched candidate or passage against every source paragraph, so
they take quadratic time; tests only feed them small documents. The match
classification is the earlier one too, which normalized and tokenized both
texts again for every match, and so is its ``token_edit_ratio``, the
dynamic program over the whole edit table that the bit-parallel one in
``polminer.textnorm`` is checked against. ``overlap_coefficient`` and
``containment`` are the earlier ones too, which intersect two counters with
``Counter.__and__``; the result types and the class thresholds are shared
with the package.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

from polminer.corpus import Document
from polminer.errors import DocMismatch
from polminer.evaluation import (
    FULL_COVERAGE,
    SUMMARY_MAX_LENGTH_RATIO,
    WORD_EXCHANGE_MAX_EDIT_RATIO,
    WORD_EXCHANGE_MAX_LENGTH_DELTA,
    AlignmentResult,
    Completeness,
    FpKind,
    MatchRecord,
    SimilarityClass,
    _ends_with_ellipsis,
)
from polminer.extractor import PoLCandidate
from polminer.goldstore import GoldAnnotation
from polminer.textnorm import _TOKEN_RE, normalize_text, raw_token_counts


def tokens(text: str) -> list[str]:
    """Word tokens (alphanumeric runs) of the normalized text."""
    return _TOKEN_RE.findall(normalize_text(text))


def token_counts(text: str) -> Counter[str]:
    return Counter(tokens(text))


def overlap_coefficient(a: Counter[str], b: Counter[str]) -> float:
    """Multiset overlap |a & b| / min(|a|, |b|); 0.0 when either side is empty."""
    ta, tb = sum(a.values()), sum(b.values())
    if ta == 0 or tb == 0:
        return 0.0
    shared = sum((a & b).values())
    return shared / min(ta, tb)


def containment(a: Counter[str], b: Counter[str]) -> float:
    """Fraction of a's tokens present in b; 0.0 when a is empty."""
    ta = sum(a.values())
    if ta == 0:
        return 0.0
    return sum((a & b).values()) / ta


def token_edit_ratio(a: list[str], b: list[str]) -> float:
    """Levenshtein distance over token sequences, scaled by the longer length."""
    if not a and not b:
        return 0.0
    if not a or not b:
        return 1.0
    prev = list(range(len(b) + 1))
    for i, ta in enumerate(a, start=1):
        cur = [i]
        for j, tb in enumerate(b, start=1):
            cost = 0 if ta == tb else 1
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost))
        prev = cur
    return prev[-1] / max(len(a), len(b))


def _classify_match(
    gold: GoldAnnotation,
    candidate: PoLCandidate,
    gold_counter: Counter,
    cand_counter: Counter,
    overlap_threshold: float,
    score: float,
) -> MatchRecord:
    coverage = containment(gold_counter, cand_counter)
    if coverage >= FULL_COVERAGE:
        completeness = Completeness.FULL
    elif _ends_with_ellipsis(candidate.text):
        completeness = Completeness.PARTIAL_ELLIPSIS
    else:
        completeness = Completeness.PARTIAL

    if normalize_text(candidate.text) == normalize_text(gold.span_text):
        similarity = SimilarityClass.SAME_TEXT
    else:
        gold_tokens = tokens(gold.span_text)
        cand_tokens = tokens(candidate.text)
        edit = token_edit_ratio(cand_tokens, gold_tokens)
        length_delta = abs(len(cand_tokens) - len(gold_tokens))
        if (
            edit <= WORD_EXCHANGE_MAX_EDIT_RATIO
            and length_delta <= WORD_EXCHANGE_MAX_LENGTH_DELTA * max(len(gold_tokens), 1)
        ):
            similarity = SimilarityClass.WORD_EXCHANGE
        elif (
            len(cand_tokens) <= SUMMARY_MAX_LENGTH_RATIO * len(gold_tokens)
            and containment(cand_counter, gold_counter) >= overlap_threshold
        ):
            similarity = SimilarityClass.SUMMARY
        else:
            similarity = SimilarityClass.DIVERGENT
    return MatchRecord(
        gold=gold, candidate=candidate, completeness=completeness,
        similarity=similarity, score=score,
    )


def align(
    candidates: Sequence[PoLCandidate],
    gold: Sequence[GoldAnnotation],
    document: Document,
    overlap_threshold: float = 0.8,
    hallucination_threshold: float = 0.6,
) -> AlignmentResult:
    """Greedy best-first 1:1 matching of candidates against gold spans.

    Pairs scoring at least ``overlap_threshold`` (multiset token overlap)
    match, highest score first; ties break on lowest gold paragraph index,
    then lowest candidate paragraph index. Every unmatched candidate is
    scored against every source paragraph: below
    ``hallucination_threshold`` it is a Hallucination, otherwise a Not-PoL.
    """
    for value, name in ((overlap_threshold, "overlap_threshold"),
                        (hallucination_threshold, "hallucination_threshold")):
        if not 0 < value <= 1:
            raise ValueError(f"{name} must be in (0, 1], got {value}")
    doc_ids = {document.doc_id} | {c.doc_id for c in candidates} | {a.doc_id for a in gold}
    if len(doc_ids) > 1:
        raise DocMismatch(f"mixed doc_ids in one alignment: {sorted(doc_ids)}")

    gold_counters = [token_counts(a.span_text) for a in gold]
    cand_counters = [token_counts(c.text) for c in candidates]

    scored = []
    for gi, ann in enumerate(gold):
        for ci, cand in enumerate(candidates):
            score = overlap_coefficient(gold_counters[gi], cand_counters[ci])
            if score >= overlap_threshold:
                scored.append((score, ann.paragraph_index, cand.paragraph_index, gi, ci))
    scored.sort(key=lambda item: (-item[0], item[1], item[2], item[3], item[4]))

    matched_gold: set[int] = set()
    matched_cand: set[int] = set()
    matches: list[tuple[int, MatchRecord]] = []
    for score, _, _, gi, ci in scored:
        if gi in matched_gold or ci in matched_cand:
            continue
        matched_gold.add(gi)
        matched_cand.add(ci)
        matches.append(
            (gi, _classify_match(gold[gi], candidates[ci], gold_counters[gi],
                                 cand_counters[ci], overlap_threshold, score))
        )
    matches.sort(key=lambda item: item[0])

    # triage compares text as written: a candidate that is nothing but a
    # citation tail still exists in the source and must not read as fabricated
    para_counters = [raw_token_counts(text) for text in document.paragraphs]
    false_positives: list[tuple[PoLCandidate, FpKind]] = []
    for ci, cand in enumerate(candidates):
        if ci in matched_cand:
            continue
        raw_counter = raw_token_counts(cand.text)
        best = max(
            (overlap_coefficient(raw_counter, pc) for pc in para_counters),
            default=0.0,
        )
        kind = FpKind.HALLUCINATION if best < hallucination_threshold else FpKind.NOT_POL
        false_positives.append((cand, kind))

    false_negatives = tuple(ann for gi, ann in enumerate(gold) if gi not in matched_gold)
    return AlignmentResult(
        doc_id=document.doc_id,
        matches=tuple(m for _, m in matches),
        false_positives=tuple(false_positives),
        false_negatives=false_negatives,
        page_count=document.page_count,
    )


def resolve_paragraph(
    passage: str, paragraphs: list[tuple[int, Counter[str]]], threshold: float = 0.6
) -> int:
    """Index of the paragraph best containing the passage, or -1.

    ``paragraphs`` holds each paragraph's index and ``raw_token_counts``,
    built once per document. Containment is the fraction of passage tokens
    (as written) present in the paragraph; the first paragraph with the top
    score wins. Below the threshold the passage is unresolved and flagged
    for hallucination triage downstream.
    """
    passage_counts = raw_token_counts(passage)
    best_index, best_score = -1, 0.0
    for index, counts in paragraphs:
        score = containment(passage_counts, counts)
        if score > best_score:
            best_index, best_score = index, score
    return best_index if best_score >= threshold else -1
