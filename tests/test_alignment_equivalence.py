"""Token-indexed alignment, passage resolution and the bit-parallel edit
distance agree with the brute-force reference on small-vocabulary inputs.

A vocabulary of a few words makes shared tokens, repeated tokens and exact
threshold hits (4 of 5 tokens at 0.8, 3 of 5 at 0.6) common, and citation
tails and quotation marks make the normalized and the as-written token
counts differ. Some candidates copy a paragraph word for word, as every
rules candidate does, and name that paragraph, another one or none, so FP
triage is settled by the own paragraph, by the index, or by neither.
Candidate sets aligned in turn against one judgment share each text's
scored and classified pairs with the gold spans it reaches, at any
hallucination threshold, and must each still equal the reference; each
unmatched candidate is triaged anew.

Words that differ as written but fold alike (``straße`` and ``STRASSE``,
``ŉ`` and ``ʼn``, the ligature ``ﬁne`` and ``fine``), words that start or
end with another word (``violazione`` and ``sviola``, ``cortese``), an
underscore between two tokens, and code points whose casefold changes token
class (``İ`` folds to ``i`` and a combining dot; the combining U+0345 in
``aͅb`` folds to the letter ``ι``) test the screen that settles a candidate
sharing no token with its judgment before the paragraph index is built.
Some paragraphs hold ``viola`` inside longer words several times before
it occurs whole, if it does, so that the screen's hits pass over each
occurrence that is not whole, and some candidates are ``viola`` or ``İstanbul`` alone, which share a token
with such a judgment only where it holds the word whole.

Passages are resolved in turn against one judgment whose paragraphs repeat
and extend each other: copies, cut and reordered copies of a paragraph, and
texts with no token. A passage is often contained in several paragraphs,
and in about one judgment in ten the passages outrun the search's budget,
so the index takes over mid-way.

The index's size-bounded prefix filter is checked on its own against every
position: probes and texts built from a few words, each text keeping part of
the probe's occurrences and filled up to a size below, at or above the
probe's, so that scores land exactly on the threshold and the first shared
token often leaves exactly as many occurrences as a pass needs. 0.56 of 25
is one such threshold: 14 / 25 reaches it, though ``0.56 * 25`` is
``14.000000000000002``.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_alignment as ref
from polminer import evaluation
from polminer.corpus import Document
from polminer.evaluation import FpKind, align
from polminer.extractor import PoLCandidate, PoLType, Source
from polminer.goldstore import GoldAnnotation
from polminer.llm import SourceParagraphs, resolve_paragraph
from polminer.textnorm import (
    _FOLD_CLASS_CHANGERS,
    TokenIndex,
    raw_token_counts,
    token_edit_ratio,
)

DOC_ID = "d.txt"
_WORDS = st.sampled_from((
    "corte", "legge", "corte", "diritto", "Corte", "“corte”", "(2019)", "…",
    "viola", "violazione", "\u0130stanbul", "i\u0307stanbul", "straße", "STRASSE", "\u0149", "\u02bcn",
    "a\u0345b", "a\u03b9b", "x_y", "\ufb01ne", "fine", "sviola", "cortese",
))
_TEXTS = st.lists(_WORDS, max_size=7).map(" ".join)
# "viola" inside longer words four times, then more often or whole: the
# screen's hits pass over every occurrence inside a longer word
_CROWDED = st.lists(st.sampled_from(("violazione", "sviola", "viola")), min_size=1, max_size=4).map(
    lambda tail: " ".join(["violazione", "sviola"] * 2 + tail)
)
# a paragraph may hold no token at all
_PARAGRAPHS = st.one_of(_TEXTS, st.sampled_from(("", "…", "“…” (…)")), _CROWDED)
# candidates that share a token with a judgment only where it holds
# "viola" whole, or "İstanbul" itself rather than "i̇stanbul"
_PROBES = st.sampled_from(("viola", "viola mai", "\u0130stanbul", "\u0130stanbul mai"))
_THRESHOLDS = st.sampled_from((0.5, 0.6, 0.75, 0.8, 1.0))


def _document(texts: list[str]) -> Document:
    return Document(DOC_ID, tuple(texts), None)


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
    texts = draw(st.lists(st.one_of(_TEXTS, _PROBES), max_size=6))
    candidates = [_candidate(draw(index), text) for text in texts]
    candidates += draw(_copies(paragraphs))
    return paragraphs, gold, draw(st.permutations(candidates)), draw(_THRESHOLDS), draw(_THRESHOLDS)


def _own_paragraph_settles(candidate: PoLCandidate, paragraphs: list[str], threshold: float) -> bool:
    """A candidate's triage needs no index: its own paragraph reaches the
    threshold, or it has no token, so that no paragraph can."""
    probe = raw_token_counts(candidate.text)
    own = candidate.paragraph_index
    return not probe or (
        0 <= own < len(paragraphs)
        and ref.overlap_coefficient(probe, raw_token_counts(paragraphs[own])) >= threshold
    )


def _passes_screen(candidate: PoLCandidate, paragraphs: list[str]) -> bool:
    """Some paragraph shares a token with the candidate, or, in a judgment
    holding a code point whose casefold changes token class, some token of
    the candidate occurs anywhere in the judgment's case-folded text."""
    probe = raw_token_counts(candidate.text)
    if any(probe & raw_token_counts(text) for text in paragraphs):
        return True
    joined = "\n".join(paragraphs)
    changes_class = any(c in _FOLD_CLASS_CHANGERS for c in joined)
    return changes_class and any(token in joined.casefold() for token in probe)


def _align_counting(candidates, gold, document, overlap, hallucination):
    """``align``'s result, the gold-candidate scores it computed and the
    probes it made of the judgment's paragraph index, whether that was
    built during the call or before it."""
    scores, probed = [], []
    real_overlap, real_overlapping = evaluation.overlap_coefficient, TokenIndex.overlapping

    def counting_overlap(a, b):
        scores.append((a, b))
        return real_overlap(a, b)

    def counting_overlapping(index, probe, threshold):
        probed.append(index)
        return real_overlapping(index, probe, threshold)

    # the gold index and the paragraph index are both TokenIndex instances
    evaluation.overlap_coefficient, TokenIndex.overlapping = counting_overlap, counting_overlapping
    try:
        result = align(candidates, gold, document, overlap, hallucination)
    finally:
        evaluation.overlap_coefficient, TokenIndex.overlapping = real_overlap, real_overlapping
    paragraph_index = evaluation._judgment(document, tuple(gold), overlap).source._index
    probes = sum(index is paragraph_index for index in probed)
    return result, len(scores), probes


def _unsettled(false_positives, paragraphs: list[str], threshold: float) -> list[PoLCandidate]:
    """The FPs whose own paragraph leaves triage open and that pass the screen."""
    return [
        cand
        for cand, _ in false_positives
        if not _own_paragraph_settles(cand, paragraphs, threshold) and _passes_screen(cand, paragraphs)
    ]


@settings(max_examples=500, deadline=None)
@given(_cases())
def test_indexed_align_equals_reference(case):
    paragraphs, gold, candidates, overlap, hallucination = case
    document = _document(paragraphs)
    evaluation._judgment.cache_clear()
    result, _, probes = _align_counting(candidates, gold, document, overlap, hallucination)
    assert result == ref.align(candidates, gold, document, overlap, hallucination)
    # the paragraph index is probed once for each unmatched candidate that
    # its own paragraph leaves open and the screen passes, and for no other
    assert probes == len(_unsettled(result.false_positives, paragraphs, hallucination))


@st.composite
def _set_sequences(draw):
    """A judgment, its gold, and candidate sets drawn from one pool: subsets
    of it, reorderings of it, and its texts under other own paragraphs; and
    before each set, whether another alignment comes first: of another
    judgment, or of this one with other gold or at another threshold."""
    paragraphs, gold, pool, overlap, hallucination = draw(_cases())
    index = st.integers(-1, len(paragraphs))
    sets = []
    for kind in draw(st.lists(st.sampled_from(("subset", "reordered", "moved")), min_size=2, max_size=4)):
        if kind == "subset":
            kept = draw(st.lists(st.booleans(), min_size=len(pool), max_size=len(pool)))
            sets.append([cand for cand, keep in zip(pool, kept) if keep])
        elif kind == "reordered":
            sets.append(draw(st.permutations(pool)))
        else:
            sets.append([_candidate(draw(index), cand.text) for cand in pool])
    evictions = draw(st.lists(st.sampled_from((None, "document", "gold", "overlap", "hallucination")),
                              min_size=len(sets), max_size=len(sets)))
    return paragraphs, gold, sets, evictions, overlap, hallucination


@settings(max_examples=300, deadline=None)
@given(_set_sequences())
def test_candidate_sets_aligned_in_turn_equal_reference(case):
    paragraphs, gold, sets, evictions, overlap, hallucination = case
    document = _document(paragraphs)
    other = Document("e.txt", ("corte",), None)
    other_candidates = [PoLCandidate(doc_id="e.txt", paragraph_index=0, text="legge", quote="",
                                     trigger=None, pol_type=PoLType.IMPLICIT, source=Source.LLM)]
    other_gold = gold + [GoldAnnotation(doc_id=DOC_ID, paragraph_index=0, span_text="corte legge",
                                        pol_type=PoLType.IMPLICIT)]
    other_overlap = 0.5 if overlap != 0.5 else 1.0
    other_hallucination = 0.5 if hallucination != 0.5 else 1.0
    evaluation._judgment.cache_clear()
    gold_counts = [ref.token_counts(a.span_text) for a in gold]
    scored_texts: set[str] = set()
    for candidates, evict in zip(sets, evictions):
        if evict == "document":
            align(other_candidates, [], other, overlap, hallucination)
        elif evict == "gold":
            align(candidates, other_gold, document, overlap, hallucination)
        elif evict == "overlap":
            align(candidates, gold, document, other_overlap, hallucination)
        elif evict == "hallucination":
            align(candidates, gold, document, overlap, other_hallucination)
        if evict == "hallucination":
            # the pairs do not depend on the hallucination threshold: that
            # alignment scored this set's texts for the judgment
            scored_texts |= {cand.text for cand in candidates}
        elif evict:
            scored_texts = set()
        result, scores, probes = _align_counting(candidates, gold, document, overlap, hallucination)
        assert result == ref.align(candidates, gold, document, overlap, hallucination)
        # a gold span and a text are scored once per judgment, by the first
        # set holding the text, and only when the pair reaches the threshold
        new_texts = {cand.text for cand in candidates} - scored_texts
        assert scores == sum(
            ref.overlap_coefficient(g, ref.token_counts(text)) >= overlap
            for text in new_texts
            for g in gold_counts
        )
        scored_texts |= new_texts
        # each unmatched candidate is triaged anew
        assert probes == len(_unsettled(result.false_positives, paragraphs, hallucination))


@st.composite
def _passage(draw, paragraphs: list[str]) -> str:
    """A copy of a paragraph holding a token, cut short or reordered, a text
    of any words or of "viola" beside words inside which it hides, or a text
    with no token."""
    sources = [text for text in paragraphs if raw_token_counts(text)]
    kinds = ["text", "viola", "none"] + ["copy", "cut", "reordered"] * 2 * bool(sources)
    kind = draw(st.sampled_from(kinds))
    if kind == "text":
        return draw(_TEXTS)
    if kind == "viola":
        return draw(st.sampled_from(("viola", "viola la", "la viola corte")))
    if kind == "none":
        return draw(st.sampled_from(("", "…", "“…” (…)")))
    words = draw(st.sampled_from(sources)).split()
    if kind == "cut":
        return " ".join(words[: draw(st.integers(1, len(words)))]) + "…"
    if kind == "reordered":
        return " ".join(draw(st.permutations(words)))
    return " ".join(words)


@st.composite
def _resolutions(draw):
    """Paragraphs, some of them copies or extensions of others, as written
    or in upper case, and up to 12 passages resolved in turn against them,
    at one threshold."""
    paragraphs = draw(st.lists(_PARAGRAPHS, max_size=6))
    for _ in range(draw(st.integers(0, 3)) if paragraphs else 0):
        copied = draw(st.sampled_from((str, str.upper)))(draw(st.sampled_from(paragraphs)))
        copied += draw(st.sampled_from(("", " corte", " mai legge")))
        paragraphs.insert(draw(st.integers(0, len(paragraphs))), copied)
    passages = [draw(_passage(paragraphs)) for _ in range(draw(st.integers(1, 12)))]
    return paragraphs, passages, draw(_THRESHOLDS)


@settings(max_examples=500, deadline=None)
@given(_resolutions())
def test_indexed_resolve_paragraph_equals_reference(case):
    paragraphs, passages, threshold = case
    source = SourceParagraphs(paragraphs)
    counters = list(enumerate(raw_token_counts(text) for text in paragraphs))
    for passage in passages:
        assert resolve_paragraph(passage, source, threshold) == ref.resolve_paragraph(
            passage, counters, threshold
        ), passage


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
    evaluation._judgment.cache_clear()
    result = align(candidates, gold, document, 0.8, 0.6)
    assert result == ref.align(candidates, gold, document, 0.8, 0.6)
    assert len(result.matches) == 1 and result.matches[0].score == 0.8
    assert [kind for _, kind in result.false_positives] == [FpKind.NOT_POL]
    # the FP's own paragraph reaches 0.6 exactly, which settles its triage
    assert evaluation._judgment(document, tuple(gold), 0.8).source._index is None


def test_a_second_hallucination_threshold_reuses_the_pairs():
    # the unmatched candidate shares 2 of its 4 tokens with paragraph 1 and
    # 1 with paragraph 0: a Hallucination at 0.6, a Not-PoL at 0.5
    document = _document(["corte legge diritto", "violazione della legge oggi"])
    gold = [GoldAnnotation(doc_id=DOC_ID, paragraph_index=0, span_text="corte legge diritto",
                           pol_type=PoLType.IMPLICIT)]
    candidates = [_candidate(0, "corte legge diritto"), _candidate(-1, "violazione legge mai fine")]
    normalized = []
    real = evaluation.normalize_text

    def counting_normalize(text):
        normalized.append(text)
        return real(text)

    evaluation._judgment.cache_clear()
    evaluation.normalize_text = counting_normalize
    try:
        first = align(candidates, gold, document, 0.8, 0.6)
        made = len(normalized)
        second = align(candidates, gold, document, 0.8, 0.5)
    finally:
        evaluation.normalize_text = real
    assert first == ref.align(candidates, gold, document, 0.8, 0.6)
    assert second == ref.align(candidates, gold, document, 0.8, 0.5)
    assert [kind for _, kind in first.false_positives] == [FpKind.HALLUCINATION]
    assert [kind for _, kind in second.false_positives] == [FpKind.NOT_POL]
    # the second threshold reuses the judgment's pairs: no text is normalized again
    assert made == 3 and len(normalized) == made


def test_resolve_paragraph_tie_keeps_the_first_paragraph():
    # the passage's first token is only in paragraph 1, yet both contain half
    texts = ("legge", "corte")
    assert resolve_paragraph("corte legge", SourceParagraphs(list(texts)), 0.5) == 0
    assert ref.resolve_paragraph("corte legge", list(enumerate(map(raw_token_counts, texts))), 0.5) == 0


_INDEXED = ("a", "b", "c", "d")
# probe tokens that no indexed text holds
_ABSENT = ("x", "y")


def _need(size: int, threshold: float) -> int:
    """The least shared count that reaches ``threshold`` against ``size``,
    by the score's own division, or ``size + 1`` when none does."""
    return next((x for x in range(1, size + 1) if x / size >= threshold), size + 1)


@st.composite
def _overlap_cases(draw):
    """A probe, texts of sizes below, at and above its size that keep part
    or all of its occurrences, and a threshold. Often the probe's words
    that no text holds leave just enough occurrences for a pass, so a text
    keeping all the others passes exactly at the threshold."""
    threshold = draw(st.sampled_from((0.56, 0.6, 0.7, 0.8, 1.0)))
    size = draw(st.sampled_from((0, 1, 2, 3, 5, 10, 20, 25, 25)))
    absent = draw(st.one_of(st.just(max(0, size - _need(size, threshold))), st.integers(0, size)))
    indexed = draw(st.lists(st.sampled_from(_INDEXED), min_size=size - absent, max_size=size - absent))
    probe = draw(st.lists(st.sampled_from(_ABSENT), min_size=absent, max_size=absent)) + indexed
    texts = []
    for _ in range(draw(st.integers(0, 6))):
        text_size = max(0, size + draw(st.integers(-4, 4)))
        if draw(st.booleans()):
            kept = indexed[:text_size]
        else:
            kept = [token for token in indexed if draw(st.booleans())][:text_size]
        fill = draw(st.lists(st.sampled_from(_INDEXED + ("e",)),
                             min_size=text_size - len(kept), max_size=text_size - len(kept)))
        texts.append(kept + fill)
    return Counter(probe), [Counter(text) for text in texts], threshold


@settings(max_examples=500, deadline=None)
@given(_overlap_cases())
def test_overlapping_equals_brute_force(case):
    probe, counters, threshold = case
    index = TokenIndex(counters)
    assert index.overlapping(probe, threshold) == {
        i: sum((probe & counter).values())
        for i, counter in enumerate(counters) if ref.overlap_coefficient(probe, counter) >= threshold
    }


def test_overlapping_keeps_passes_at_exactly_the_threshold():
    # "a" is in no text, so "b" is walked with exactly 14 of the probe's 25
    # occurrences left; 14 / 25 reaches 0.56, though 0.56 * 25 rounds up
    # to more than 14
    probe = Counter({"a": 11, "b": 14})
    counters = [Counter({"b": 14, "c": 11}), Counter({"b": 14, "c": 30})]
    assert sorted(TokenIndex(counters).overlapping(probe, 0.56)) == [0, 1]
    # "b" is walked with 5 of the probe's 10 occurrences left, so only
    # texts of up to 7 tokens can pass: 5 / 7 does, 5 / 8 does not
    probe = Counter({"a": 5, "b": 5})
    counters = [Counter({"b": 5, "c": 2}), Counter({"b": 5, "c": 3}), Counter({"b": 4})]
    assert sorted(TokenIndex(counters).overlapping(probe, 0.7)) == [0, 2]


_TOKENS = st.sampled_from(("a", "b", "c"))


@st.composite
def _edited(draw, tokens: list[str]) -> list[str]:
    """``tokens`` after a few insertions, deletions and substitutions."""
    edited = list(tokens)
    for _ in range(draw(st.integers(0, 6))):
        position = draw(st.integers(0, len(edited)))
        op = draw(st.sampled_from(("insert", "delete", "substitute")))
        if op == "insert":
            edited.insert(position, draw(_TOKENS))
        elif position < len(edited):
            if op == "delete":
                del edited[position]
            else:
                edited[position] = draw(_TOKENS)
    return edited


@settings(max_examples=500, deadline=None)
@given(st.lists(_TOKENS, max_size=12), st.lists(_TOKENS, max_size=12))
def test_bit_parallel_edit_ratio_equals_reference_on_small_alphabets(a, b):
    assert token_edit_ratio(a, b) == ref.token_edit_ratio(a, b)


@settings(max_examples=100, deadline=None)
@given(st.data(), st.sampled_from((65, 129)))
def test_bit_parallel_edit_ratio_equals_reference_past_word_sizes(data, minimum):
    # past 64 and 128 tokens the pattern spans several machine words, and
    # a near copy keeps carries running across them
    a = data.draw(st.lists(_TOKENS, min_size=minimum, max_size=minimum + 40))
    b = data.draw(st.one_of(_edited(a), st.lists(_TOKENS, max_size=minimum + 40)))
    assert token_edit_ratio(a, b) == ref.token_edit_ratio(a, b)
    assert token_edit_ratio(b, a) == ref.token_edit_ratio(b, a)
