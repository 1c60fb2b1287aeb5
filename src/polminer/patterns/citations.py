"""Structured parsing of Italian court citations.

Handles the formats that actually occur in judgment prose, e.g.::

    Cass. n. 26972/2008
    Civ. Cass., UU. SS., n. 26972/2008
    Corte di Cassazione, Sezioni Unite, n. 26972 dell'11 novembre 2008
    Cass., sez. I, 22/06/2016 n. 12962
    sent. 22.06.2016 n. 12962
    Corte Cost. 217/2019

A tokenizer, read on demand, feeds a small descent parser; on failure the
error names the first token that could not be consumed. ``find_citations``
scans a whole paragraph in linear time, trying parenthesized groups first
and then inline spans anchored on court keywords.
"""

from __future__ import annotations

import datetime as dt
import re
from enum import Enum
from typing import NamedTuple

from ..errors import SchemaError, UnparseableCitation

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


class Court(str, Enum):
    CASSAZIONE = "Cassazione"
    CORTE_COSTITUZIONALE = "CorteCostituzionale"
    CORTE_APPELLO = "CorteAppello"
    TRIBUNALE = "Tribunale"
    OTHER = "Other"


class _CitationFields(NamedTuple):
    raw: str
    court: Court = Court.OTHER
    court_label: str | None = None  # head text when court is OTHER
    section: str | None = None
    number: int | None = None
    year: int | None = None
    date: dt.date | None = None
    marker: str | None = None  # stripped leading introducer such as "cfr."


class CitationRef(_CitationFields):
    """One parsed citation. Every construction, ``_replace`` included, checks
    that it cites a number, year or date, and that its year is its date's."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "CitationRef":
        ref = super().__new__(cls, *args, **kwargs)
        if ref.number is None and ref.year is None and ref.date is None:
            raise UnparseableCitation(ref.raw, "", len(ref.raw), "no number, year, or date")
        if ref.year is not None and ref.date is not None and ref.year != ref.date.year:
            raise UnparseableCitation(ref.raw, str(ref.year), 0, "year conflicts with date")
        return ref

    @classmethod
    def _make(cls, iterable) -> "CitationRef":
        # the NamedTuple _make, which _replace calls, would skip __new__
        return cls(*iterable)

    def to_dict(self) -> dict:
        return {
            "raw": self.raw,
            "court": self.court.value,
            "court_label": self.court_label,
            "section": self.section,
            "number": self.number,
            "year": self.year,
            "date": self.date.isoformat() if self.date else None,
            "marker": self.marker,
        }

    @classmethod
    def from_dict(cls, data: dict, pointer: str = "") -> "CitationRef":
        """The citation ``to_dict`` wrote; a ``SchemaError`` at the pointer of
        the first field that is missing or of the wrong type otherwise."""
        if not isinstance(data, dict):
            raise SchemaError(pointer or "/", "must be an object")
        if "raw" not in data:
            raise SchemaError(f"{pointer}/raw", "missing field")
        if not isinstance(data["raw"], str):
            raise SchemaError(f"{pointer}/raw", "must be a string")
        for name in ("court_label", "section", "date", "marker"):
            if not isinstance(data.get(name), (str, type(None))):
                raise SchemaError(f"{pointer}/{name}", "must be a string or null")
        for name in ("number", "year"):
            value = data.get(name)
            if value is not None and (isinstance(value, bool) or not isinstance(value, int)):
                raise SchemaError(f"{pointer}/{name}", "must be an integer or null")
        # the grammar writes only positive numbers and years it can read
        if data.get("number") is not None and data["number"] <= 0:
            raise SchemaError(f"{pointer}/number", "must be positive")
        if data.get("year") is not None and data["year"] not in _YEARS:
            raise SchemaError(f"{pointer}/year", f"must be in {_YEARS[0]}-{_YEARS[-1]}")
        try:
            court = Court(data.get("court", "Other"))
        except (ValueError, TypeError) as exc:
            raise SchemaError(f"{pointer}/court", str(exc)) from None
        try:
            date = None if data.get("date") is None else dt.date.fromisoformat(data["date"])
        except ValueError as exc:
            raise SchemaError(f"{pointer}/date", str(exc)) from None
        if date is not None and date.year not in _YEARS:
            raise SchemaError(f"{pointer}/date", f"year must be in {_YEARS[0]}-{_YEARS[-1]}")
        try:
            return cls(
                raw=data["raw"],
                court=court,
                court_label=data.get("court_label"),
                section=data.get("section"),
                number=data.get("number"),
                year=data.get("year"),
                date=date,
                marker=data.get("marker"),
            )
        except UnparseableCitation as exc:
            raise SchemaError(pointer or "/", str(exc)) from None


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


def _parse_inline(
    text: str, start: int, dead: set[tuple[int, bool, int]]
) -> tuple[CitationRef, int] | None:
    """Parse the longest citation prefix of ``text[start:]``.

    Returns (ref, end offset) or None, and adds a failed parse's states to
    ``dead``. The ref needs a number plus a year or date, so that stray
    prose numbers are not mistaken for citations. Its ``raw`` is left empty
    for the caller to fill in from the text.
    """
    parser = _Parser("", _Tokens(text, start), dead)
    try:
        ref = parser.parse(require_full=False)
    except UnparseableCitation:
        ref = None
        if parser._has_ref():
            try:
                ref = parser._build()
            except UnparseableCitation:
                pass
    if ref is None or ref.number is None or (ref.year is None and ref.date is None):
        dead.update(parser.visited)
        return None
    return ref, parser.consumed_end


_PAREN_RE = re.compile(r"[()]")
_DIGIT_RE = re.compile(r"\d")
# everything up to and including the last decimal digit
_UP_TO_LAST_DIGIT_RE = re.compile(r".*\d", re.DOTALL)
# a run of letters (and other non-digit alphanumerics) at a word start whose
# first character casefolds to the start of an inline head word: under
# IGNORECASE [cost] matches c, o, s, t, their capitals and "ſ", exactly the
# characters whose casefold is a prefix of one
_HEAD_START_RE = re.compile(r"(?<!\w)(?=[cost])[^\W\d_]+", re.IGNORECASE)


def find_citations(paragraph_text: str) -> list[CitationRef]:
    """All parseable citations in a paragraph, in order of appearance.

    Parenthesized digit-bearing groups are tried first; the remaining text is
    scanned for inline citations anchored on court keywords.

    The scan is linear in the paragraph length. A group reaching past
    another "(" cannot parse, since no rule consumes a "(", so only
    innermost groups, which never share a character, go to
    ``parse_citation``. An inline attempt reads tokens from its head on
    only as far as it parses, and failed attempts are memoized (see
    ``_Parser``).

    Every citation needs a number, and numbers are read only from runs of
    decimal digits (regex ``\\d``), so a paragraph without one has no
    citation, and no inline head after its last one is tried: from there
    no parse can reach a number. Heads are tried in order, so the failed
    states such a parse would memoize could only serve other heads past
    the last digit. Only words whose first character matches
    ``_HEAD_START_RE``'s lead class are looked up as heads; that class
    holds exactly the characters whose casefold is a prefix of a head
    word, so no head is missed.
    """
    text = paragraph_text
    up_to_last_digit = _UP_TO_LAST_DIGIT_RE.match(text)
    if up_to_last_digit is None:
        return []
    last_digit = up_to_last_digit.end() - 1
    opens: list[int] = []
    closes: list[int] = []
    for m in _PAREN_RE.finditer(text):
        (opens if m.group() == "(" else closes).append(m.start())
    groups: list[tuple[int, int, CitationRef]] = []

    # each "(" up to the first ")" after it; a parsed group resumes after
    # its ")", a failed one at the next "("
    c = 0
    resume = 0
    for o, i in enumerate(opens):
        if i < resume:
            continue
        while c < len(closes) and closes[c] < i:
            c += 1
        if c == len(closes):
            break
        j = closes[c]
        if (o + 1 < len(opens) and opens[o + 1] < j) or _DIGIT_RE.search(text, i, j) is None:
            continue
        try:
            groups.append((i, j + 1, parse_citation(text[i + 1 : j].strip())))
            resume = j + 1
        except UnparseableCitation:
            pass

    found = list(groups)
    dead: set[tuple[int, bool, int]] = set()
    g = 0  # first group ending after the current head
    resume = 0
    # a run of head letters ends before any digit, so a head starting before
    # the last digit lies whole within text[:last_digit]
    for m in _HEAD_START_RE.finditer(text, 0, last_digit):
        i = m.start()
        if i < resume:
            continue
        word = m.group()
        if not word.isalpha():
            # a head is a run of letters; the run ends at the first non-letter
            word = word[: next(k for k, ch in enumerate(word) if not ch.isalpha())]
        if word.casefold() not in _INLINE_HEAD_WORDS:
            continue
        while g < len(groups) and groups[g][1] <= i:
            g += 1
        if g < len(groups) and groups[g][0] <= i:
            continue  # inside a parenthesized group
        parsed = _parse_inline(text, i, dead)
        if parsed is None:
            continue
        # no rule consumes a "(", so the citation ends before the next group
        ref, end = parsed
        found.append((i, end, ref._replace(raw=text[i:end].rstrip(" ,;."))))
        resume = end

    found.sort(key=lambda item: item[0])
    return [ref for _, _, ref in found]
