"""Reference scanners: the character-at-a-time detectors, citation locator
and citation grammar.

These are the earlier implementations of ``find_quotes``, ``match_keywords``,
``citation_at_end``, ``find_citations``, the citation tokenizer and the
citation parser, kept verbatim as the reference that the linear-time engine
in ``polminer.patterns`` is fuzzed against. The scanners are quadratic on
adversarial paragraphs, so tests only feed them bounded input. The grammar
(its word tables, ``_Tokens``, ``_Parser`` and ``parse_citation``) is the
descent parser with one method per step that the flat parse loop in
``polminer.patterns.citations`` replaced; only the way ``_parse_prefix``
hands it tokens is adapted here, and the profile fields the scanners read:
the published quote characters and keyword lexicon are now module
constants, and the three sharp-edge fixes and the end-citation anchor read
the profile's ``extended`` and ``conjunctive`` switches.
"""

from __future__ import annotations

import datetime as dt
import re
from typing import NamedTuple

from polminer.errors import UnparseableCitation
from polminer.patterns.citations import CitationRef, Court
from polminer.patterns.rules import (
    PUBLISHED_KEYWORDS,
    PUBLISHED_QUOTE_CLOSE,
    PUBLISHED_QUOTE_OPEN,
    QUOTE_PAIRS,
    QuoteSpan,
    RuleProfile,
)

# Two-digit years at or below this resolve to 2000+yy, others to 1900+yy
# ("12193/19" must mean 2019; nothing in scope predates 1930).
TWO_DIGIT_YEAR_PIVOT = 30
# the years a citation may name, its date's year included
_YEARS = range(1900, 2100)

_MARKERS = {"cfr", "v", "vedi", "conf", "si"}  # "si veda" comes in two tokens
_NUM_MARKERS = {"n", "nn", "no", "nr", "num", "numero"}
_CONNECTORS = {
    "di", "del", "della", "delle", "dei", "dell", "d", "nella", "nel", "in",
    "data", "la", "il", "lo", "le", "a", "al", "veda", "anche", "e",
}
# connectors that may still appear between a number and its year/date
# ("n. 26972 dell'11 novembre 2008"); anything else ends the citation
_POST_REF_CONNECTORS = {"di", "del", "dell", "della", "in", "data"}
_COURT_WORDS = {
    "cass": "cass", "cassazione": "cass",
    "cost": "cost", "costituzionale": "cost",
    "corte": "corte", "c": "corte",
    "appello": "appello", "app": "appello",
    "trib": "trib", "tribunale": "trib",
}
_SECTION_WORDS = {
    "civ", "civile", "civili", "pen", "penale", "penali", "lav", "lavoro",
    "u", "uu", "s", "ss", "un", "unite", "sez", "sezione", "sezioni", "sect",
}
_SEZ_WORDS = {"sez", "sezione", "sezioni", "sect"}
_KIND_WORDS = {
    "sent", "sentenza", "sentenze", "ord", "ordinanza", "decreto", "dec",
    "decisione", "pronuncia", "provvedimento",
}
_ROMAN = {"i", "ii", "iii", "iv", "v", "vi", "vii", "viii", "ix", "x", "xi", "xii"}
_MONTHS = {
    "gennaio": 1, "febbraio": 2, "marzo": 3, "aprile": 4, "maggio": 5,
    "giugno": 6, "luglio": 7, "agosto": 8, "settembre": 9, "ottobre": 10,
    "novembre": 11, "dicembre": 12,
    "january": 1, "february": 2, "march": 3, "april": 4, "may": 5, "june": 6,
    "july": 7, "august": 8, "september": 9, "october": 10, "november": 11,
    "december": 12,
}

_INLINE_HEAD_WORDS = {
    "cass", "cassazione", "corte", "trib", "tribunale", "sent", "sentenza",
    "ord", "ordinanza",
}


class _Token(NamedTuple):
    kind: str  # WORD | NUM | PUNCT | OTHER
    raw: str
    norm: str
    pos: int


# One token after optional whitespace (regex \s is str.isspace, \d is
# str.isdecimal): a run of letters, with at most one trailing period or
# apostrophe; a run of decimal digits; or any other single character.
# [^\W\d_] is alphanumeric but not a decimal digit, which also admits
# non-letters such as "²"; such runs go through _tokenize_chars.
_TOKEN_RE = re.compile(r"\s*(?:([^\W\d_]+)([.'’]?)|(\d+)|(\S))")


class _Tokens:
    """The tokens of ``text`` from offset ``start`` on, read on demand.

    A parse reads only the tokens it consumes, plus a few of look-ahead, so
    an attempt on a long paragraph costs what it reads, not the paragraph.
    """

    __slots__ = ("text", "read", "items")

    def __init__(self, text: str, start: int = 0):
        self.text = text
        self.read = start  # offset after the last token read
        self.items: list[_Token] = []

    def get(self, j: int) -> _Token | None:
        """Token ``j``, or None past the end of the text."""
        items = self.items
        while j >= len(items):
            m = _TOKEN_RE.match(self.text, self.read)
            if m is None:
                return None
            self.read = m.end()
            letters, trail, digits, other = m.groups()
            if letters is not None:
                if letters.isalpha():
                    items.append(_Token("WORD", letters + trail, letters.casefold(), m.start(1)))
                else:
                    items.extend(_tokenize_chars(self.text, m.start(1), m.end(2)))
            elif digits is not None:
                items.append(_Token("NUM", digits, digits, m.start(3)))
            else:
                kind = "PUNCT" if other in ",/.;()-" else "OTHER"
                items.append(_Token(kind, other, other, m.start(4)))
        return items[j]


def _tokenize_chars(text: str, start: int, stop: int) -> list[_Token]:
    """Tokens of ``text[start:stop]`` read a character at a time.

    The slice is one ``[^\\W\\d_]+[.'’]?`` match that is not all letters:
    letters, word characters that are neither letters nor decimal digits
    (such as ``²``), and an optional ``.``, ``'`` or ``’`` at the end. It
    holds no whitespace and no decimal digit.
    """
    tokens: list[_Token] = []
    i = start
    while i < stop:
        ch = text[i]
        if ch.isalpha():
            j = i + 1
            while j < stop and text[j].isalpha():
                j += 1
            if j < stop and text[j] in ".'’":
                j += 1
            raw = text[i:j]
            tokens.append(_Token("WORD", raw, raw.rstrip(".'’").casefold(), i))
            i = j
        else:
            kind = "PUNCT" if ch in ",/.;()-" else "OTHER"
            tokens.append(_Token(kind, ch, ch, i))
            i += 1
    return tokens


def _normalize_year(raw: str, at: _Token, full_raw: str) -> int:
    if len(raw) == 4:
        year = int(raw)
        if year not in _YEARS:
            raise UnparseableCitation(full_raw, raw, at.pos, "year out of range")
        return year
    if len(raw) == 2:
        yy = int(raw)
        return 2000 + yy if yy <= TWO_DIGIT_YEAR_PIVOT else 1900 + yy
    raise UnparseableCitation(full_raw, raw, at.pos, "year must have 2 or 4 digits")


class _Parser:
    """One pass over the token stream, accumulating citation fields.

    ``dead`` memoizes failures for the locator, whose parses all read one
    paragraph. Until a number, year or date is read, the parse's course
    depends only on the current token's offset, whether a court word was
    seen and the unknown-word budget; from the token that starts the
    reference on, only on the tokens. So a parse that reaches a state
    (offset, court seen, budget) that a failed parse passed through fails
    too, and stops there. ``visited`` lists this parse's states, for the
    caller to add to ``dead`` when the parse fails.
    """

    def __init__(
        self,
        raw: str,
        tokens: _Tokens,
        dead: set[tuple[int, bool, int]] | None = None,
    ):
        self.raw = raw
        self.toks = tokens
        self.dead = dead
        self.visited: list[tuple[int, bool, int]] = []
        self.i = 0
        self.marker: str | None = None
        self.court_keys: set[str] = set()
        self.section_parts: list[str] = []
        self.head_words: list[str] = []
        self.kind_words: list[str] = []
        self.unknown_budget = 2
        self.number: int | None = None
        self.year: int | None = None
        self.date: dt.date | None = None
        self.consumed_end = 0

    def _peek(self, ahead: int = 0) -> _Token | None:
        j = self.i + ahead
        return self.toks.get(j)

    def _advance(self) -> _Token:
        t = self.toks.get(self.i)
        self.i += 1
        self.consumed_end = t.pos + len(t.raw)
        return t

    def _fail(self, token: _Token | None, reason: str):
        if token is None:
            raise UnparseableCitation(self.raw, "", len(self.raw), reason)
        raise UnparseableCitation(self.raw, token.raw, token.pos, reason)

    def _has_ref(self) -> bool:
        return self.number is not None or self.year is not None or self.date is not None

    def parse(self, require_full: bool) -> CitationRef:
        while (t := self._peek()) is not None:
            if self.dead is not None and not self._has_ref():
                state = (t.pos, bool(self.court_keys), self.unknown_budget)
                if state in self.dead:
                    self._fail(t, "known dead end")
                self.visited.append(state)
            if t.kind == "PUNCT" and t.norm == ",":
                self._advance()
                continue
            if t.kind == "PUNCT" and t.norm in ".;" and self._has_ref():
                # tolerated sentence punctuation after a complete reference
                self._advance()
                continue
            if t.kind == "WORD":
                if not self._word(t):
                    break
                continue
            if t.kind == "NUM":
                self._ref()
                continue
            break
        if require_full and self._peek() is not None:
            self._fail(self._peek(), "unexpected trailing token")
        if not self._has_ref():
            self._fail(self._peek(), "no number, year, or date")
        return self._build()

    def _word(self, t: _Token) -> bool:
        w = t.norm
        has_ref = self._has_ref()
        if w in _MARKERS and not has_ref and not self.court_keys and self.i == 0:
            self._advance()
            self.marker = t.raw
            return True
        if w in _NUM_MARKERS and self.number is None:
            self._advance()
            nxt = self._peek()
            if nxt is None or nxt.kind != "NUM":
                self._fail(nxt, "expected a number after %r" % t.raw)
            self._ref(number_expected=True)
            return True
        if w in _MONTHS and (nxt := self._peek(1)) is not None and nxt.kind == "NUM":
            self._month_led_date()
            return True
        if w in _CONNECTORS and (not has_ref or w in _POST_REF_CONNECTORS):
            self._advance()
            return True
        if has_ref:
            # head words after a complete reference belong to the next
            # sentence, not to this citation
            return False
        if w in _COURT_WORDS:
            self._advance()
            self.court_keys.add(_COURT_WORDS[w])
            self.head_words.append(t.raw)
            return True
        if w in _SECTION_WORDS:
            self._advance()
            self.section_parts.append(t.raw)
            if w in _SEZ_WORDS:
                nxt = self._peek()
                if nxt is not None and nxt.kind == "WORD" and nxt.norm in _ROMAN:
                    self._advance()
                    self.section_parts.append(nxt.raw)
            return True
        if w in _KIND_WORDS:
            self._advance()
            self.kind_words.append(t.raw)
            return True
        if self.court_keys and self.unknown_budget > 0:
            # tolerate a couple of head words we have no table for
            # ("Corte d'Appello di Milano")
            self._advance()
            self.unknown_budget -= 1
            self.head_words.append(t.raw)
            return True
        return False

    def _ref(self, number_expected: bool = False):
        t = self._advance()
        nxt, nxt2, nxt3 = self._peek(), self._peek(1), self._peek(2)
        if nxt is not None and nxt.norm == "/" and nxt2 is not None and nxt2.kind == "NUM":
            if nxt3 is not None and nxt3.norm == "/" and (p4 := self._peek(3)) and p4.kind == "NUM":
                for _ in range(3):
                    self._advance()
                last = self._advance()
                self._set_date(t, nxt2, last)
                return
            self._advance()
            year_tok = self._advance()
            self._set_number(t)
            self._set_year(_normalize_year(year_tok.raw, year_tok, self.raw), year_tok)
            return
        if (
            nxt is not None and nxt.norm == "." and nxt2 is not None and nxt2.kind == "NUM"
            and nxt3 is not None and nxt3.norm == "." and (p4 := self._peek(3)) and p4.kind == "NUM"
        ):
            for _ in range(3):
                self._advance()
            last = self._advance()
            self._set_date(t, nxt2, last)
            return
        if nxt is not None and nxt.kind == "WORD" and nxt.norm in _MONTHS:
            month_tok = self._advance()
            ytok = self._peek()
            if ytok is None or ytok.kind != "NUM":
                self._fail(ytok, "expected a year after the month name")
            self._advance()
            self._make_date(int(t.raw), _MONTHS[month_tok.norm], ytok, t)
            return
        # bare number: a 4-digit value slots into the year when a number is
        # already present, otherwise it is the judgment number
        if (
            not number_expected
            and len(t.raw) == 4
            and int(t.raw) in _YEARS
            and self.number is not None
            and self.year is None
            and self.date is None
        ):
            self._set_year(int(t.raw), t)
            return
        self._set_number(t)

    def _month_led_date(self):
        month_tok = self._advance()
        day_tok = self._advance()
        nxt = self._peek()
        if nxt is not None and nxt.norm == ",":
            self._advance()
            nxt = self._peek()
        if nxt is None or nxt.kind != "NUM":
            self._fail(nxt, "expected a year to finish the date")
        self._advance()
        self._make_date(int(day_tok.raw), _MONTHS[month_tok.norm], nxt, day_tok)

    def _set_number(self, t: _Token):
        if self.number is not None:
            self._fail(t, "second judgment number")
        value = int(t.raw)
        if value <= 0:
            self._fail(t, "judgment number must be positive")
        self.number = value

    def _set_year(self, year: int, t: _Token):
        if self.year is not None and self.year != year:
            self._fail(t, "conflicting years")
        if self.date is not None and self.date.year != year:
            self._fail(t, "year conflicts with date")
        self.year = year

    def _set_date(self, d: _Token, m: _Token, y: _Token):
        self._make_date(int(d.raw), int(m.raw), y, d)

    def _make_date(self, day: int, month: int, ytok: _Token, at: _Token):
        if self.date is not None:
            self._fail(at, "second date")
        year = _normalize_year(ytok.raw, ytok, self.raw)
        try:
            date = dt.date(year, month, day)
        except (ValueError, OverflowError):  # Overflow: beyond a C long
            self._fail(at, "invalid calendar date")
        self.date = date
        self._set_year(year, ytok)

    def _build(self) -> CitationRef:
        keys = self.court_keys
        label = None
        if "cass" in keys:
            court = Court.CASSAZIONE
        elif "cost" in keys:
            court = Court.CORTE_COSTITUZIONALE
        elif "appello" in keys:
            court = Court.CORTE_APPELLO
        elif "trib" in keys:
            court = Court.TRIBUNALE
        else:
            court = Court.OTHER
            head = self.head_words or self.kind_words
            label = " ".join(head) if head else None
        return CitationRef(
            raw=self.raw,
            court=court,
            court_label=label,
            section=" ".join(self.section_parts) or None,
            number=self.number,
            year=self.year,
            date=self.date,
            marker=self.marker,
        )


def _strip_outer_parens(raw: str) -> str:
    t = raw.strip()
    if t.startswith("(") and t.endswith(")") and "(" not in t[1:-1] and ")" not in t[1:-1]:
        return t[1:-1].strip()
    return t


def parse_citation(raw: str) -> CitationRef:
    """Parse a citation string; the whole input must be consumed.

    Raises UnparseableCitation naming the first token that does not fit.
    """
    if not raw or not raw.strip():
        raise UnparseableCitation(raw, "", 0, "empty citation")
    inner = _strip_outer_parens(raw)
    parser = _Parser(raw, _Tokens(inner))
    ref = parser.parse(require_full=True)
    return ref


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
