"""Reference scanners: the character-at-a-time detectors and citation locator.

These are the earlier implementations of ``find_quotes``, ``match_keywords``,
``citation_at_end``, ``find_citations`` and the citation tokenizer, kept
verbatim as the reference that the linear-time engine in
``polminer.patterns`` is fuzzed against. They are quadratic on adversarial
paragraphs, so tests only feed them bounded input. The citation grammar
itself (``_Parser``, ``parse_citation``) is shared with the package; only
the way ``_parse_prefix`` hands it tokens is adapted here, and the
profile fields the scanners read: the published quote characters and
keyword lexicon are now module constants, and the three sharp-edge fixes
and the end-citation anchor read the profile's ``extended`` and
``conjunctive`` switches.
"""

from __future__ import annotations

from polminer.errors import UnparseableCitation
from polminer.patterns.citations import (
    _INLINE_HEAD_WORDS,
    CitationRef,
    _Parser,
    _Token,
    _Tokens,
    parse_citation,
)
from polminer.patterns.rules import (
    PUBLISHED_KEYWORDS,
    PUBLISHED_QUOTE_CLOSE,
    PUBLISHED_QUOTE_OPEN,
    QUOTE_PAIRS,
    QuoteSpan,
    RuleProfile,
)


def find_quotes(paragraph_text: str, profile: RuleProfile) -> list[QuoteSpan]:
    """Leftmost, shortest, non-overlapping quote spans within one paragraph.

    Published profiles pair any opener with any closer; the extended profile
    requires the style-matched closer. A span never crosses a newline.
    """
    spans: list[QuoteSpan] = []
    text = paragraph_text
    n = len(text)
    i = 0
    while i < n:
        ch = text[i]
        if ch in PUBLISHED_QUOTE_OPEN:
            if profile.extended:
                closers: frozenset[str] = frozenset((QUOTE_PAIRS[ch],))
            else:
                closers = PUBLISHED_QUOTE_CLOSE
            close_at = None
            j = i + 1
            while j < n and text[j] != "\n":
                if text[j] in closers:
                    close_at = j
                    break
                j += 1
            if close_at is not None:
                spans.append(
                    QuoteSpan(
                        start=i,
                        end=close_at + 1,
                        text=text[i : close_at + 1],
                        open_char=ch,
                        close_char=text[close_at],
                    )
                )
                i = close_at + 1
                continue
            # no closer before the newline: no match can start here
        i += 1
    return spans


def _is_word_char(ch: str) -> bool:
    # single-character equivalent of regex \w in Unicode mode
    return ch == "_" or ch.isalnum()


def match_keywords(paragraph_text: str, profile: RuleProfile) -> list[tuple[str, int]]:
    """Case-insensitive, non-overlapping keyword hits as (lexicon token, offset).

    Lexicon tokens ending in a period keep the original boundary behavior
    (next character must be a word character) unless the profile sets
    ``fix_abbrev_boundaries``, in which case the trailing period alone ends
    the hit.
    """
    text = paragraph_text
    n = len(text)
    hits: list[tuple[str, int]] = []
    i = 0
    while i < n:
        if _is_word_char(text[i]) and (i == 0 or not _is_word_char(text[i - 1])):
            matched_end = None
            for token in PUBLISHED_KEYWORDS:
                end = i + len(token)
                if end > n or text[i:end].casefold() != token.casefold():
                    continue
                nxt = text[end] if end < n else None
                if token.endswith("."):
                    ok = profile.extended or (
                        nxt is not None and _is_word_char(nxt)
                    )
                else:
                    ok = nxt is None or not _is_word_char(nxt)
                if ok:
                    hits.append((token, i))
                    matched_end = end
                    break
            if matched_end is not None:
                i = matched_end
                continue
        i += 1
    return hits


def _is_digit(ch: str) -> bool:
    # single-character equivalent of regex \d
    return ch.isdecimal()


def citation_at_end(paragraph_text: str, profile: RuleProfile) -> str | None:
    """Matched citation substring, or None.

    ``citation_anchored`` profiles require the closing parenthesis at the end
    of the paragraph (a single trailing newline is tolerated, mirroring the
    original anchor); unanchored profiles accept it anywhere. The extended
    profile additionally ignores trailing periods, semicolons, and
    whitespace after the closing parenthesis.
    """
    text = paragraph_text
    if not profile.conjunctive:
        return _search_citation(text)
    if profile.extended:
        end = len(text)
        while end > 0 and (text[end - 1] in ".;" or text[end - 1].isspace()):
            end -= 1
        return _anchored_citation(text[:end])
    return _anchored_citation(text)


def _anchored_citation(text: str) -> str | None:
    n = len(text)
    end = n - 1 if n and text[n - 1] == "\n" else n
    # need "(" + filler + "dddd)" with ")" at end-1
    if end < 6 or text[end - 1] != ")":
        return None
    if not all(_is_digit(text[k]) for k in range(end - 5, end - 1)):
        return None
    filler_stop = end - 5
    for i in range(0, filler_stop):
        if text[i] == "(" and "\n" not in text[i + 1 : filler_stop]:
            return text[i:end]
    return None


def _search_citation(text: str) -> str | None:
    n = len(text)
    for i in range(n):
        if text[i] != "(":
            continue
        nl = text.find("\n", i + 1)
        # filler may not contain a newline, so the digit run must start at
        # or before the newline position
        max_end = n if nl < 0 else min(n, nl + 5)
        for end in range(i + 6, max_end + 1):
            if (
                text[end - 1] == ")"
                and all(_is_digit(text[k]) for k in range(end - 5, end - 1))
                and (nl < 0 or end - 5 <= nl)
            ):
                return text[i:end]
    return None


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isalpha():
            j = i + 1
            while j < n and text[j].isalpha():
                j += 1
            if j < n and text[j] in ".'’":
                j += 1
            raw = text[i:j]
            tokens.append(_Token("WORD", raw, raw.rstrip(".'’").casefold(), i))
            i = j
        elif ch.isdecimal():
            j = i + 1
            while j < n and text[j].isdecimal():
                j += 1
            raw = text[i:j]
            tokens.append(_Token("NUM", raw, raw, i))
            i = j
        elif ch in ",/.;()-":
            tokens.append(_Token("PUNCT", ch, ch, i))
            i += 1
        else:
            tokens.append(_Token("OTHER", ch, ch, i))
            i += 1
    return tokens


def _parse_prefix(text: str) -> tuple[CitationRef, int] | None:
    """Parse the longest citation prefix of ``text``.

    Returns (ref, consumed_char_count) or None. Used by the inline locator;
    requires number plus year-or-date so that stray prose numbers are not
    mistaken for citations.
    """
    tokens = _Tokens(text, len(text))  # holds the reference tokenizer's list
    tokens.items = _tokenize(text)
    parser = _Parser(text, tokens)
    try:
        ref = parser.parse(require_full=False)
    except UnparseableCitation:
        if not parser._has_ref():
            return None
        try:
            ref = parser._build()
        except UnparseableCitation:
            return None
    if ref.number is None or (ref.year is None and ref.date is None):
        return None
    return ref, parser.consumed_end


def find_citations(paragraph_text: str) -> list[CitationRef]:
    """All parseable citations in a paragraph, in order of appearance.

    Parenthesized digit-bearing groups are tried first; the remaining text is
    scanned for inline citations anchored on court keywords.
    """
    text = paragraph_text
    found: list[tuple[int, int, CitationRef]] = []

    i = 0
    while (i := text.find("(", i)) >= 0:
        j = text.find(")", i + 1)
        if j < 0:
            break
        inner = text[i + 1 : j].strip()
        parsed_ok = False
        if inner and any(ch.isdecimal() for ch in inner):
            try:
                found.append((i, j + 1, parse_citation(inner)))
                parsed_ok = True
            except UnparseableCitation:
                pass
        i = j + 1 if parsed_ok else i + 1

    def _inside(pos: int) -> bool:
        return any(start <= pos < end for start, end, _ in found)

    n = len(text)
    i = 0
    while i < n:
        ch = text[i]
        if ch.isalpha() and (i == 0 or not (text[i - 1].isalnum() or text[i - 1] == "_")):
            j = i + 1
            while j < n and text[j].isalpha():
                j += 1
            word = text[i:j].casefold()
            if word in _INLINE_HEAD_WORDS and not _inside(i):
                parsed = _parse_prefix(text[i:])
                if parsed is not None:
                    ref, consumed = parsed
                    end = i + consumed
                    if not any(s < end and i < e for s, e, _ in found):
                        ref = CitationRef(
                            raw=text[i:end].rstrip(" ,;."),
                            court=ref.court,
                            court_label=ref.court_label,
                            section=ref.section,
                            number=ref.number,
                            year=ref.year,
                            date=ref.date,
                            marker=ref.marker,
                        )
                        found.append((i, end, ref))
                        i = end
                        continue
            i = j
        else:
            i += 1

    found.sort(key=lambda item: item[0])
    return [ref for _, _, ref in found]
