"""Each detector and the citation locator take linear time on adversarial
lines, alignment takes linear time on a judgment of disjoint paragraphs
and in the number of gold spans one candidate text reaches, FP triage
and LLM passage resolution take linear time in the paragraph count for a
fixed number of unresolved candidates or passages, the token edit
distance takes linear time on paragraph-length texts, and gold import takes
linear time in the same-colour runs of one highlight span.

Every detector test times one line at n and at 4n characters, n about 2,000
(the length of a long plaintext paragraph) unless the test says otherwise. A
timed run calls the function enough times for the run at n to take at least
5 ms, and the best of five runs counts. The line length is fixed rather
than grown until one call takes 5 ms, because a linear check such as the
anchored end-citation test costs almost nothing at any length. Linear code
gives a ratio near 4, or less where a call's fixed cost dominates, and
quadratic code near 16; the bound of 8 sits between.
"""

from __future__ import annotations

import gc
import time

import pytest

from docxbuild import make_docx
from polminer import evaluation
from polminer.corpus import Document
from polminer.evaluation import align
from polminer.extractor import PoLCandidate, PoLType, Source
from polminer.goldstore import GoldAnnotation, import_docx_highlights
from polminer.llm import SourceParagraphs, resolve_paragraph
from polminer.patterns import PROFILES, citation_at_end, find_citations, find_quotes, match_keywords
from polminer.textnorm import token_edit_ratio

V1 = PROFILES["v1_broad"]
V2 = PROFILES["v2_refined"]
EXT = PROFILES["extended"]

LINE_CHARS = 2_000
MIN_SECONDS = 0.005
MAX_RATIO = 8.0


def _best_of_5(fn, arg, calls: int) -> float:
    """Best time of five runs, with the collector off: a collection's cost
    grows with everything alive in the process, not with this call."""
    best = float("inf")
    gc.disable()
    try:
        for _ in range(5):
            start = time.perf_counter()
            for _ in range(calls):
                fn(arg)
            best = min(best, time.perf_counter() - start)
    finally:
        gc.enable()
    return best


def _ratio(fn, small, large) -> float:
    """Time of ``fn(large)`` over ``fn(small)``, each repeated until the
    small run takes ``MIN_SECONDS``."""
    calls = 1
    while _best_of_5(fn, small, calls) < MIN_SECONDS and calls < 1 << 16:
        calls *= 2
    return _best_of_5(fn, large, calls) / _best_of_5(fn, small, calls)


def _growth(fn, unit: str, tail: str = "", chars: int = LINE_CHARS) -> float:
    """Time ratio of the line at 4n characters over the line at n = chars."""
    repeats = chars // len(unit)
    return _ratio(fn, unit * repeats + tail, unit * 4 * repeats + tail)


@pytest.mark.parametrize("profile", [V2, EXT], ids=lambda p: p.name)
def test_find_quotes_linear_on_unclosed_openers(profile):
    # every opener waits for a closer that never comes on this line
    assert _growth(lambda t: find_quotes(t, profile), "“ab «cd ") < MAX_RATIO


def test_unanchored_citation_linear_on_open_parentheses():
    # the only "dddd)" is on the next line, out of every "(" line's reach
    assert _growth(lambda t: citation_at_end(t, V1), "(ab ", "\n(x 2019)") < MAX_RATIO


def test_unanchored_citation_linear_on_open_parentheses_before_four_digits():
    # every "(" of the line has a four-digit run after it but no ")"
    assert _growth(lambda t: citation_at_end(t, V1), "(1234 ", "\n(x 2019)") < MAX_RATIO


def test_anchored_citation_linear_when_every_parenthesis_precedes_a_newline():
    # a quadratic scan here copies the rest of the line once per "(", and
    # that copy outweighs the per-character work only past about 10^4
    # characters
    assert _growth(lambda t: citation_at_end(t, V2), "(\n", "x 2019)", chars=32_000) < MAX_RATIO


def test_match_keywords_linear():
    assert _growth(lambda t: match_keywords(t, V2), "Cass. sez. la Corte TRIB. ") < MAX_RATIO


@pytest.mark.parametrize(
    "unit, tail",
    [
        # groups that all reach one far ")" and inline heads without a number
        ("(nota Cass. sez. ", "(Cass. 1234/2019)"),
        # inline heads whose parses would each run to the end of the line;
        # with no digit on the line none is parsed
        ("Cass. ", ""),
        # inline heads before the line's one number: every head is parsed,
        # and each would read on to the number
        ("Cass. sez. la ", " 7"),
        # the long_paragraphs line: heads that spend the unknown-word
        # budget, each attempt reading a dozen tokens of the line's one
        # token list, which is read once for all of them
        ("Cass. sez. la Cass. sez. resistente ", "(Cass. Civ. 3102/2019)"),
        # digit-bearing groups that never close: each attempt at a "(" reads
        # on to the next one
        ("(n. 12 ", ""),
        # closed digit groups back to back, each of them parsed
        ("(1) ", ""),
    ],
    ids=[
        "groups_and_heads", "repeated_heads", "heads_before_a_number", "heads_spending_the_budget",
        "unclosed_digit_groups", "closed_digit_groups",
    ],
)
def test_find_citations_linear(unit, tail):
    assert _growth(find_citations, unit, tail) < MAX_RATIO


def _judgment(n: int) -> tuple[list[PoLCandidate], list[GoldAnnotation], Document]:
    """2n paragraphs of 8 words each, no word shared between paragraphs; a
    gold span on every other paragraph and a candidate copying each one."""
    texts = [" ".join(f"w{p}x{k}" for k in range(8)) for p in range(2 * n)]
    document = Document("d.txt", tuple(texts), None)
    gold = [
        GoldAnnotation(doc_id="d.txt", paragraph_index=p, span_text=texts[p], pol_type=PoLType.IMPLICIT)
        for p in range(0, 2 * n, 2)
    ]
    candidates = [
        PoLCandidate(doc_id="d.txt", paragraph_index=p, text=t, quote="", trigger=None,
                     pol_type=PoLType.IMPLICIT, source=Source.RULES)
        for p, t in enumerate(texts)
    ]
    return candidates, gold, document


def _align_afresh(args) -> None:
    # a fresh judgment each time: align keeps the last one's scored and classified pairs
    evaluation._judgment.cache_clear()
    align(*args)


def test_align_linear_on_disjoint_paragraphs():
    # every gold span matches its copy and every other candidate is a
    # Not-PoL; scoring all pairs would make n = 200 take 16 times n = 50
    assert _ratio(_align_afresh, _judgment(50), _judgment(200)) < MAX_RATIO


def _common_words(n: int) -> tuple[list[PoLCandidate], list[GoldAnnotation], Document]:
    """n paragraphs of ten words, six of them in every paragraph and two
    its own; a candidate copying each paragraph and a gold span of its six
    common and two own words on each."""
    texts = [f"la corte di cassazione ritiene che il principio sia parola{p} termine{p}" for p in range(n)]
    document = Document("d.txt", tuple(texts), None)
    gold = [
        GoldAnnotation(doc_id="d.txt", paragraph_index=p, pol_type=PoLType.IMPLICIT,
                       span_text=f"la corte di cassazione ritiene che parola{p} termine{p}")
        for p in range(n)
    ]
    candidates = [
        PoLCandidate(doc_id="d.txt", paragraph_index=p, text=t, quote="", trigger=None,
                     pol_type=PoLType.IMPLICIT, source=Source.RULES)
        for p, t in enumerate(texts)
    ]
    return candidates, gold, document


def test_align_linear_when_every_text_shares_common_words():
    # each gold span shares its six common words, 6 of 8 and short of 0.8,
    # with every candidate, and its own two with one; walking every
    # candidate holding a common word would make n = 400 take 16 times
    # n = 100
    assert _ratio(_align_afresh, _common_words(100), _common_words(400)) < MAX_RATIO


def _one_text_reaching(k: int) -> tuple[list[PoLCandidate], list[GoldAnnotation], Document]:
    """k paragraphs of nine common words and one their own, each a gold
    span; one candidate of the common words and a word of no paragraph,
    which reaches every span at 9 of 10."""
    common = "la corte di cassazione ritiene che il principio sia"
    texts = [f"{common} parola{p}" for p in range(k)]
    document = Document("d.txt", tuple(texts), None)
    gold = [
        GoldAnnotation(doc_id="d.txt", paragraph_index=p, span_text=t, pol_type=PoLType.IMPLICIT)
        for p, t in enumerate(texts)
    ]
    candidates = [PoLCandidate(doc_id="d.txt", paragraph_index=0, text=f"{common} assente", quote="",
                               trigger=None, pol_type=PoLType.IMPLICIT, source=Source.LLM)]
    return candidates, gold, document


def test_align_linear_in_the_gold_spans_one_text_reaches():
    # the text is scored and classified against each of the k spans it
    # reaches, not only against the one it matches: k short edit
    # distances, so k = 200 takes about 4 times k = 50
    assert _ratio(_align_afresh, _one_text_reaching(50), _one_text_reaching(200)) < MAX_RATIO


def _unresolved(n: int) -> tuple[list[PoLCandidate], list[GoldAnnotation], Document]:
    """n paragraphs sharing common words, each also holding words that
    start with "viola" but are not "viola"; 8 candidates resolved to no
    paragraph, each made of "viola", common words and words of no
    paragraph."""
    texts = [f"la violazione n. {p} della corte viola{p} di legge" for p in range(n)]
    document = Document("d.txt", tuple(texts), None)
    candidates = [
        PoLCandidate(doc_id="d.txt", paragraph_index=-1, text=f"viola la corte assente{k} mai{k}",
                     quote="", trigger=None, pol_type=PoLType.IMPLICIT, source=Source.LLM)
        for k in range(8)
    ]
    return candidates, [], document


def test_triage_linear_in_paragraphs_for_unresolved_candidates():
    # every candidate passes the screen, which reads past each paragraph's
    # "violazione" and "viola<p>" before a common word settles it, and the
    # index over every paragraph answers; each is a Hallucination
    assert _ratio(_align_afresh, _unresolved(50), _unresolved(200)) < MAX_RATIO


def _passages_against(n: int) -> tuple[list[str], list[str]]:
    """n paragraphs that all hold the passages' two longest words, and
    "viola" only inside a longer word; 8 passages of those words and "viola"
    or a word of no paragraph, so that no paragraph contains one fully."""
    paragraphs = [f"giurisprudenza costituzionale violazione{p} della corte" for p in range(n)]
    passages = [f"giurisprudenza costituzionale della {f'assente{k}' if k % 2 else 'viola'}" for k in range(8)]
    return paragraphs, passages


def _resolve_all(args) -> None:
    # a fresh judgment each time: the source keeps what its passages found
    paragraphs, passages = args
    source = SourceParagraphs(paragraphs)
    for passage in passages:
        resolve_paragraph(passage, source)


def test_passage_resolution_linear_in_paragraphs_without_a_full_container():
    # every paragraph is a candidate for the first passage, and its counter
    # is compared, which spends the search's budget; the index, built from
    # those counters, answers that passage and the rest
    assert _ratio(_resolve_all, _passages_against(50), _passages_against(200)) < MAX_RATIO


def _near_copies(n: int) -> tuple[list[str], list[str]]:
    """Two texts of n tokens over 50 words, the second with every tenth token replaced."""
    a = [f"w{i % 50}" for i in range(n)]
    return a, [t if i % 10 else "x" for i, t in enumerate(a)]


def test_token_edit_ratio_linear_up_to_paragraph_length():
    # 75 and 300 tokens, up to a long paragraph: the bit-parallel distance
    # spends a few operations on words of 64 pattern tokens per token of the
    # other text, so its column fits a handful of words at both lengths;
    # the dynamic program over the whole table takes 16 times as long at 4n
    assert _ratio(lambda pair: token_edit_ratio(*pair), _near_copies(75), _near_copies(300)) < MAX_RATIO


def test_import_linear_in_same_colour_runs(tmp_path):
    # one paragraph of yellow runs of 200 characters each, merged into one
    # span: appending each run to the span's text copies the text so far,
    # which takes 16 times as long at 4n
    run = ("a" * 199 + " ", "yellow")
    small = make_docx(tmp_path / "small.docx", [[run] * 1_500])
    large = make_docx(tmp_path / "large.docx", [[run] * 6_000])
    assert _ratio(import_docx_highlights, small, large) < MAX_RATIO
