"""FP triage settles what it can without tokenizing paragraphs, and the
casefold facts its screen rests on hold on every code point.

The screen (``textnorm.SourceParagraphs.may_share``) reads a judgment's
paragraphs case-folded instead of tokenized. That is exact only because
``str.casefold`` maps each code point on its own, ``[^\\W_]`` is the same
test as ``str.isalnum``, and the code points whose casefold changes token
class are the 28 listed here. The pins loop over every code point, use
nothing beyond the standard library and ``polminer``, and also run as a
script on an interpreter without pytest:
``PYTHONPATH=src python tests/test_token_screen.py``.
"""

from __future__ import annotations

import sys

from polminer import evaluation, llm, textnorm
from polminer.corpus import Document
from polminer.evaluation import FpKind, align
from polminer.extractor import PoLCandidate, PoLType, Source
from polminer.goldstore import GoldAnnotation
from polminer.textnorm import _FOLD_CLASS_CHANGERS, _TOKEN_RE, SourceParagraphs, raw_token_counts

# The code points whose casefold holds a character of the other token class.
FOLD_CLASS_CHANGERS = {
    0x0130, 0x01F0, 0x0345, 0x0390, 0x03B0, 0x1E96, 0x1E97, 0x1E98, 0x1E99, 0x1F50, 0x1F52, 0x1F54,
    0x1F56, 0x1FB6, 0x1FB7, 0x1FC6, 0x1FC7, 0x1FD2, 0x1FD3, 0x1FD6, 0x1FD7, 0x1FE2, 0x1FE3, 0x1FE4,
    0x1FE6, 0x1FE7, 0x1FF6, 0x1FF7,
}


def _code_points():
    return map(chr, range(sys.maxunicode + 1))


def test_casefold_maps_each_code_point_on_its_own():
    assert [hex(ord(c)) for c in _code_points() if ("a" + c + "a").casefold() != "a" + c.casefold() + "a"] == []


def test_token_class_is_isalnum():
    assert [hex(ord(c)) for c in _code_points() if (_TOKEN_RE.fullmatch(c) is not None) != c.isalnum()] == []


def test_fold_class_changers_are_the_pinned_28():
    changers = {
        ord(c) for c in _code_points()
        if any(folded.isalnum() != c.isalnum() for folded in c.casefold())
    }
    assert changers == FOLD_CLASS_CHANGERS
    assert set(map(ord, _FOLD_CLASS_CHANGERS)) == FOLD_CLASS_CHANGERS


def _shares(text: str, probe: str) -> bool:
    return bool(raw_token_counts(text) & raw_token_counts(probe))


def test_screen_is_exact_without_fold_class_changers():
    cases = [
        ("violazione di legge", "viola", False),
        ("la viola", "viola", True),
        ("x_y", "y", True),
        ("straße", "STRASSE", True),
        ("\u0149", "\u02bcn", True),
        ("\ufb01ne", "fine", True),
        # the probe's token, U+0130's fold, holds a combining dot, which no
        # token of a text without U+0130 does
        ("i\u0307stanbul", "\u0130stanbul", False),
        ("a\u03b9b", "a", False),
        # many times inside longer tokens on either side, and then whole or
        # never
        ("xviola violaz " * 3 + "viola", "viola", True),
        ("xviola violaz " * 3 + "violetta", "viola", False),
    ]
    for text, probe, shares in cases:
        assert _shares(text, probe) is shares, (text, probe)
        assert SourceParagraphs([text]).may_share(raw_token_counts(probe)) is shares, (text, probe)


def test_screen_passes_any_occurrence_beside_a_fold_class_changer():
    # U+0345 is no token character but folds to the letter U+03B9: a, U+0345,
    # b holds the tokens "a" and "b", and folds to one run of three letters
    assert _shares("a\u0345b", "a") and SourceParagraphs(["a\u0345b"]).may_share(raw_token_counts("a"))
    assert not _shares("a\u0345b", "\u03b9") and SourceParagraphs(["a\u0345b"]).may_share(raw_token_counts("\u03b9"))
    # U+0130 folds to i and a combining dot, so the fold of U+0130 "stanbul"
    # holds the tokens "i" and "stanbul" of i, U+0307, "stanbul" as written
    assert not _shares("\u0130stanbul", "i\u0307stanbul")
    assert SourceParagraphs(["\u0130stanbul"]).may_share(raw_token_counts("i\u0307stanbul"))
    assert not SourceParagraphs(["a\u0345b"]).may_share(raw_token_counts("c"))


def test_screen_finds_a_fold_class_changer_in_any_paragraph():
    # only the paragraphs that are not ASCII are searched for one
    assert not any(c.isascii() for c in _FOLD_CLASS_CHANGERS)
    assert SourceParagraphs(["la corte", "\u0130stanbul", "legge"]).may_share(raw_token_counts("i\u0307stanbul"))
    assert not SourceParagraphs(["la corte", "i\u0307stanbul", "legge"]).may_share(raw_token_counts("\u0130stanbul"))
    # "\n" joins the paragraphs, so a token ending one and one starting the next stay apart
    assert not SourceParagraphs(["la corte", "legge"]).may_share(raw_token_counts("cortelegge"))


DOC_ID = "d.txt"
TEXTS = ["La corte decide.", "Violazione di legge.", "…"]


def _document() -> Document:
    return Document(DOC_ID, tuple(TEXTS), None)


def _candidate(index: int, text: str) -> PoLCandidate:
    return PoLCandidate(doc_id=DOC_ID, paragraph_index=index, text=text, quote="",
                        trigger=None, pol_type=PoLType.IMPLICIT, source=Source.LLM)


def _align_counting(candidates, gold):
    """``align``'s result and the texts it handed to ``raw_token_counts``,
    looked up through ``textnorm``, and to ``normalize_text``."""
    tokenized, normalized = [], []
    real = textnorm.raw_token_counts, evaluation.normalize_text

    def counting_raw(text):
        tokenized.append(text)
        return real[0](text)

    def counting_normalize(text):
        normalized.append(text)
        return real[1](text)

    evaluation._judgment.cache_clear()
    textnorm.raw_token_counts, evaluation.normalize_text = counting_raw, counting_normalize
    try:
        result = align(candidates, gold, _document())
    finally:
        textnorm.raw_token_counts, evaluation.normalize_text = real
    return result, tokenized, normalized


def test_copies_are_triaged_without_tokenizing():
    result, tokenized, _ = _align_counting([_candidate(i, t) for i, t in enumerate(TEXTS)], [])
    assert [kind for _, kind in result.false_positives] == [
        FpKind.NOT_POL, FpKind.NOT_POL, FpKind.HALLUCINATION,
    ]
    assert tokenized == []


def test_the_judgment_is_folded_on_demand():
    # copies of their own paragraphs settle triage: nothing is folded or tokenized
    _align_counting([_candidate(i, t) for i, t in enumerate(TEXTS)], [])
    source = evaluation._judgment(_document(), (), 0.8).source
    assert source._folded is None and source._counters == [None] * len(TEXTS)
    # the search reads the fold
    assert llm.resolve_paragraph("la corte", source) == 0
    assert source._folded == [t.casefold() for t in TEXTS]


def test_a_text_sharing_no_token_is_a_hallucination_before_any_paragraph_is_tokenized():
    # "viola" is inside "Violazione" but is not one of its tokens
    result, tokenized, _ = _align_counting([_candidate(-1, "viola statuto")], [])
    assert [kind for _, kind in result.false_positives] == [FpKind.HALLUCINATION]
    assert tokenized == ["viola statuto"]
    assert evaluation._judgment(_document(), (), 0.8).source._index is None


def test_a_text_passing_the_screen_probes_the_index():
    result, tokenized, _ = _align_counting([_candidate(-1, "violazione della legge")], [])
    assert [kind for _, kind in result.false_positives] == [FpKind.NOT_POL]
    assert tokenized == ["violazione della legge", *TEXTS]


def test_without_gold_no_text_is_normalized():
    candidates = [_candidate(0, "La corte decide."), _candidate(-1, "altro")]
    _, _, normalized = _align_counting(candidates, [])
    assert normalized == []
    gold = [GoldAnnotation(doc_id=DOC_ID, paragraph_index=0, span_text=TEXTS[0], pol_type=PoLType.IMPLICIT)]
    result, _, normalized = _align_counting(candidates, gold)
    assert len(result.matches) == 1 and len(normalized) == 3


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print("ok", name)
