"""Structured parsing of Italian court citations.

Handles the formats that actually occur in judgment prose, e.g.::

    Cass. n. 26972/2008
    Civ. Cass., UU. SS., n. 26972/2008
    Corte di Cassazione, Sezioni Unite, n. 26972 dell'11 novembre 2008
    Cass., sez. I, 22/06/2016 n. 12962
    sent. 22.06.2016 n. 12962
    Corte Cost. 217/2019

A token list, read on demand, feeds a parser that runs as one flat loop;
on failure the error names the first token that could not be consumed.
``find_citations`` scans a whole paragraph in linear time, trying
parenthesized groups first and then inline spans anchored on court
keywords, all of which index one token list.
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
# court words, one bit per court they name; "corte" alone names none
_COURT_WORDS = {
    "cass": 1, "cassazione": 1,
    "cost": 2, "costituzionale": 2,
    "appello": 4, "app": 4,
    "trib": 8, "tribunale": 8,
    "corte": 16, "c": 16,
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


# what CitationRef.from_dict reads without Enum.__call__ or isinstance
_COURT_OF_VALUE = {court.value: court for court in Court}
_STR_OR_NONE, _INT_OR_NONE = {str, type(None)}, {int, type(None)}

# the court of each set of court-word bits: the first court of this enum
# whose bit is set, else Other
_COURT_OF = tuple(
    next((court for bit, court in zip((1, 2, 4, 8), Court) if mask & bit), Court.OTHER) for mask in range(32)
)


class _CitationFields(NamedTuple):
    raw: str
    court: Court
    court_label: str | None  # head text when court is OTHER
    section: str | None
    number: int | None
    year: int | None
    date: dt.date | None
    marker: str | None  # stripped leading introducer such as "cfr."


class CitationRef(_CitationFields):
    """One parsed citation. Every construction, ``_replace`` included, checks
    that it cites a number, year or date, and that its year is its date's."""

    __slots__ = ()

    def __new__(cls, raw, court=Court.OTHER, court_label=None, section=None, number=None, year=None, date=None,
                marker=None) -> "CitationRef":
        if number is None and year is None and date is None:
            raise UnparseableCitation(raw, "", len(raw), "no number, year, or date")
        if year is not None and date is not None and year != date.year:
            raise UnparseableCitation(raw, str(year), 0, "year conflicts with date")
        return tuple.__new__(cls, (raw, court, court_label, section, number, year, date, marker))

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
        """The citation ``to_dict`` wrote; a ``SchemaError`` at the first bad field's pointer otherwise."""
        if not isinstance(data, dict):
            raise SchemaError(pointer or "/", "must be an object")
        if "raw" not in data:
            raise SchemaError(f"{pointer}/raw", "missing field")
        get = data.get
        raw, court, label, section = data["raw"], get("court", "Other"), get("court_label"), get("section")
        number, year, date, marker = get("number"), get("year"), get("date"), get("marker")
        if not isinstance(raw, str):
            raise SchemaError(f"{pointer}/raw", "must be a string")
        # the exact types pass at once; any other value goes through the checks, in field order
        if not {type(label), type(section), type(date), type(marker)} <= _STR_OR_NONE:
            for name, value in (("court_label", label), ("section", section), ("date", date), ("marker", marker)):
                if value is not None and not isinstance(value, str):
                    raise SchemaError(f"{pointer}/{name}", "must be a string or null")
        if not {type(number), type(year)} <= _INT_OR_NONE:
            for name, value in (("number", number), ("year", year)):
                if value is not None and (isinstance(value, bool) or not isinstance(value, int)):
                    raise SchemaError(f"{pointer}/{name}", "must be an integer or null")
        # the grammar writes only positive numbers and years it can read
        if number is not None and number <= 0:
            raise SchemaError(f"{pointer}/number", "must be positive")
        if year is not None and year not in _YEARS:
            raise SchemaError(f"{pointer}/year", f"must be in {_YEARS[0]}-{_YEARS[-1]}")
        try:
            court = type(court) is str and _COURT_OF_VALUE.get(court) or Court(court)
        except (ValueError, TypeError) as exc:
            raise SchemaError(f"{pointer}/court", str(exc)) from None
        try:
            day = None if date is None else dt.date.fromisoformat(date)
        except ValueError as exc:
            raise SchemaError(f"{pointer}/date", str(exc)) from None
        if day is not None and day.isoformat() != date:  # Python 3.11 also reads 20160622 and 2016-W25-3
            raise SchemaError(f"{pointer}/date", f"must be YYYY-MM-DD, got {date!r}")
        if day is not None and day.year not in _YEARS:
            raise SchemaError(f"{pointer}/date", f"year must be in {_YEARS[0]}-{_YEARS[-1]}")
        try:
            return cls(raw, court, label, section, number, year, day, marker)
        except UnparseableCitation as exc:
            raise SchemaError(pointer or "/", str(exc)) from None


# One token after optional whitespace (regex \s is str.isspace, \d is
# str.isdecimal): a run of letters, with at most one trailing period or
# apostrophe; a run of decimal digits; or any other single character.
# [^\W\d_] is alphanumeric but not a decimal digit, which also admits
# non-letters such as "²"; such runs go through _tokenize_chars.
_TOKEN_RE = re.compile(r"\s*(?:([^\W\d_]+)([.'’]?)|(\d+)|(\S))")

# A token is a (kind, raw, norm, pos) tuple: kind is WORD, NUM, PUNCT or
# OTHER; norm is a word's casefold without its trailing period or
# apostrophe, and the raw text of any other token; pos is its offset.
# _END pads a token list past the end of its text, so that the parser looks
# ahead without a bounds check: it matches no kind and no norm.
_END = ("END", "", "", -1)


def _read_tokens(text: str, read: int, tokens: list, want: int) -> int:
    """Append the tokens of ``text`` from offset ``read`` on to ``tokens``
    until it holds ``want``, padding with ``_END`` past the end of the
    text; return the offset after the last token read."""
    match = _TOKEN_RE.match
    while len(tokens) < want:
        m = match(text, read)
        if m is None:
            tokens += [_END] * (want - len(tokens))
            break
        read = m.end()
        letters, trail, digits, other = m.groups()
        if letters is not None:
            if letters.isalpha():
                tokens.append(("WORD", letters + trail, letters.casefold(), m.start(1)))
            else:
                tokens += _tokenize_chars(text, m.start(1), read)
        elif digits is not None:
            tokens.append(("NUM", digits, digits, m.start(3)))
        else:
            tokens.append(("PUNCT" if other in ",/.;()-" else "OTHER", other, other, m.start(4)))
    return read


def _tokenize_chars(text: str, start: int, stop: int) -> list[tuple[str, str, str, int]]:
    """Tokens of ``text[start:stop]`` read a character at a time.

    The slice is one ``[^\\W\\d_]+[.'’]?`` match that is not all letters:
    letters, word characters that are neither letters nor decimal digits
    (such as ``²``), and an optional ``.``, ``'`` or ``’`` at the end. It
    holds no whitespace and no decimal digit.
    """
    tokens = []
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
            tokens.append(("WORD", raw, raw.rstrip(".'’").casefold(), i))
            i = j
        else:
            tokens.append(("PUNCT" if ch in ",/.;()-" else "OTHER", ch, ch, i))
            i += 1
    return tokens


def _value(digits: str) -> int | None:
    """A digit run's value; None past ``int()``'s digit limit (4,300 by default)."""
    try:
        return int(digits)
    except ValueError:
        return None


def _parse(
    text: str, tokens: list, read: int, i: int, dead: set[int] | None = None, raw: str = ""
) -> tuple[int, CitationRef | None, int]:
    """Parse a citation from token ``i`` of ``tokens`` in one pass.

    ``tokens`` holds the tokens of ``text`` read so far, ``read`` the
    offset after the last of them; the parse reads more as it needs them.
    It returns the new ``read``, the ref, and for an inline attempt the end
    offset of its last token. The parse is one loop over local fields:
    each pass consumes one token, or a number, date or year shape of up to
    five, and a failure ends the loop with its reason.

    Without ``dead`` the text must be the whole citation ``raw``: a failure
    raises UnparseableCitation naming the first token that does not fit.
    With it, this is an inline attempt of the locator, which keeps the
    longest prefix read, and only when it has a number plus a year or date,
    so that stray prose numbers are not mistaken for citations; its raw is
    the text it spans less trailing " ,;.". A failed attempt returns None.

    ``dead`` memoizes the failed attempts, which all index one paragraph's
    token list. Until a number, year or date is read, an attempt's course
    depends only on the current token, whether a court word was seen and
    the unknown-word budget; from the token that starts the reference on,
    only on the tokens. So an attempt that reaches a state (token index,
    court seen, budget) that a failed attempt passed through fails too, and
    stops there; a failed attempt adds the states it passed to ``dead``.
    """
    start = i
    visited: list[int] = []
    marker = number = year = date = None
    courts = 0
    budget = 2  # unknown words tolerated after a court word
    has_ref = False
    sections: list[str] = []
    heads: list[str] = []
    kinds: list[str] = []
    reason = None
    while True:
        if len(tokens) < i + 2:  # the token and one of look-ahead
            read = _read_tokens(text, read, tokens, i + 2)
        token = tokens[i]
        if token is _END:
            break
        kind, tok, w, _ = token
        if dead is not None and not has_ref:
            state = i << 3 | (4 if courts else 0) | budget
            if state in dead:
                reason, at = "known dead end", i
                break
            visited.append(state)
        if kind == "PUNCT":
            # a comma anywhere; sentence punctuation after a complete reference
            if w == "," or has_ref and w in ".;":
                i += 1
                continue
            break
        num_at = date_at = year_at = -1
        if kind == "WORD":
            if w in _MARKERS and i == start and not courts and not has_ref:
                marker = tok
                i += 1
                continue
            if w in _NUM_MARKERS and number is None:
                i += 1
                if tokens[i][0] != "NUM":
                    reason, at = "expected a number after %r" % tok, i
                    break
            elif w in _MONTHS and tokens[i + 1][0] == "NUM":
                # a date led by its month: "novembre 11, 2008"
                if len(tokens) < i + 4:
                    read = _read_tokens(text, read, tokens, i + 4)
                month, date_at = _MONTHS[w], i + 1
                i += 3 if tokens[i + 2][2] == "," else 2
                if tokens[i][0] != "NUM":
                    reason, at = "expected a year to finish the date", i
                    break
                year_at = i
                i += 1
            elif w in _CONNECTORS and (not has_ref or w in _POST_REF_CONNECTORS):
                i += 1
                continue
            elif has_ref:
                # head words after a complete reference belong to the next
                # sentence, not to this citation
                break
            elif w in _COURT_WORDS:
                courts |= _COURT_WORDS[w]
                heads.append(tok)
                i += 1
                continue
            elif w in _SECTION_WORDS:
                sections.append(tok)
                i += 1
                if w in _SEZ_WORDS and tokens[i][0] == "WORD" and tokens[i][2] in _ROMAN:
                    sections.append(tokens[i][1])
                    i += 1
                continue
            elif w in _KIND_WORDS:
                kinds.append(tok)
                i += 1
                continue
            elif courts and budget:
                # tolerate a couple of head words we have no table for
                # ("Corte d'Appello di Milano")
                budget -= 1
                heads.append(tok)
                i += 1
                continue
            else:
                break
        elif kind != "NUM":
            break
        if date_at < 0:
            # a number: "n/yy", "d/m/y", "d.m.y", "d month y", a bare year
            # after the judgment number, or the judgment number
            if len(tokens) < i + 5:
                read = _read_tokens(text, read, tokens, i + 5)
            digits = tokens[i][1]
            next_kind, _, after, _ = tokens[i + 1]
            if after == "/" and tokens[i + 2][0] == "NUM":
                if tokens[i + 3][2] == "/" and tokens[i + 4][0] == "NUM":
                    month, date_at, year_at = _value(tokens[i + 2][1]), i, i + 4
                    i += 5
                else:
                    num_at, year_at = i, i + 2
                    i += 3
            elif (
                after == "." and tokens[i + 2][0] == "NUM"
                and tokens[i + 3][2] == "." and tokens[i + 4][0] == "NUM"
            ):
                month, date_at, year_at = _value(tokens[i + 2][1]), i, i + 4
                i += 5
            elif next_kind == "WORD" and after in _MONTHS:
                month, date_at = _MONTHS[after], i
                i += 2
                if tokens[i][0] != "NUM":
                    reason, at = "expected a year after the month name", i
                    break
                year_at = i
                i += 1
            elif len(digits) == 4 and number is not None and year is None and int(digits) in _YEARS:
                year_at = i
                i += 1
            else:
                num_at = i
                i += 1
        if num_at >= 0:
            if number is not None:
                reason, at = "second judgment number", num_at
                break
            value = _value(tokens[num_at][1])
            if value is None:
                reason, at = "number has too many digits", num_at
                break
            if value <= 0:
                reason, at = "judgment number must be positive", num_at
                break
            number = value
            has_ref = True
            if year_at < 0:
                continue
        if date_at >= 0:
            day = _value(tokens[date_at][1])
            if date is not None:
                reason, at = "second date", date_at
                break
            if day is None or month is None:  # a month in digits follows the day's separator
                reason, at = "number has too many digits", date_at if day is None else date_at + 2
                break
        # two-digit years at or below the pivot are 2000+yy, others 1900+yy
        digits = tokens[year_at][1]
        if len(digits) == 4:
            new_year = int(digits)
            if new_year not in _YEARS:
                reason, at = "year out of range", year_at
                break
        elif len(digits) == 2:
            new_year = int(digits)
            new_year += 2000 if new_year <= TWO_DIGIT_YEAR_PIVOT else 1900
        else:
            reason, at = "year must have 2 or 4 digits", year_at
            break
        if date_at >= 0:
            try:
                date = dt.date(new_year, month, day)
            except (ValueError, OverflowError):  # Overflow: beyond a C long
                reason, at = "invalid calendar date", date_at
                break
            has_ref = True
        # a date sets its year, so a year that conflicts with the date
        # conflicts with the year
        if year is not None and year != new_year:
            reason, at = "conflicting years", year_at
            break
        year = new_year
        has_ref = True

    end = 0
    if dead is not None:
        if number is None or (year is None and date is None) or (date is not None and year != date.year):
            dead.update(visited)
            return read, None, 0
        _, tok, _, pos = tokens[i - 1]
        end = pos + len(tok)
        raw = text[tokens[start][3] : end].rstrip(" ,;.")
    else:
        if reason is None and tokens[i] is not _END:
            reason, at = "unexpected trailing token", i
        elif reason is None and not has_ref:
            reason, at = "no number, year, or date", i
        if reason is not None:
            if tokens[at] is _END:
                raise UnparseableCitation(raw, "", len(raw), reason)
            # text is raw less its outer blanks and parentheses, none of which
            # can start it, so it starts in raw where it first occurs there
            raise UnparseableCitation(raw, tokens[at][1], raw.find(text) + tokens[at][3], reason)
    court = _COURT_OF[courts]
    label = None
    if court is Court.OTHER:
        label = " ".join(heads or kinds) or None
    return read, CitationRef(raw, court, label, " ".join(sections) or None, number, year, date, marker), end


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
    return _parse(_strip_outer_parens(raw), [], 0, 0, raw=raw)[1]


# an innermost parenthesized group holding a decimal digit, its inside in
# group 1
_GROUP_RE = re.compile(r"\(([^()\d]*\d[^()]*)\)")
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

    The scan is linear in the paragraph length. The groups come from one
    pattern, ``_GROUP_RE``: the innermost parenthesized groups that hold a
    decimal digit, leftmost first, each of which goes to
    ``parse_citation``. No other group can parse: one reaching past
    another "(" fails, since no rule consumes a "(", and one without a
    digit has no number. The pattern's attempt at a "(" reads no further
    than the next parenthesis. Inline attempts share one token list,
    read on demand: a head starts where no word character precedes it, so
    it starts a token, and an attempt indexes into the list from its head
    on. Each token is read at most once, whichever attempts look at it,
    and an attempt reads only as far as it parses plus at most four tokens
    of look-ahead; the list skips text between heads that no attempt
    reached. Failed attempts are memoized (see ``_parse``).

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
    groups: list[tuple[int, int, CitationRef]] = []
    for m in _GROUP_RE.finditer(text):
        try:
            groups.append((m.start(), m.end(), parse_citation(m.group(1).strip())))
        except UnparseableCitation:
            pass

    found = list(groups)
    tokens: list = []
    read = at_head = 0  # at_head: the first token not before the head
    dead: set[int] = set()
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
        while at_head < len(tokens) and tokens[at_head][3] < i:
            at_head += 1
        if at_head == len(tokens):
            read = i  # no token read reaches the head: read on from it
        read, ref, end = _parse(text, tokens, read, at_head, dead)
        if ref is None:
            continue
        # no rule consumes a "(", so the citation ends before the next group
        found.append((i, end, ref))
        resume = end

    found.sort(key=lambda item: item[0])
    return [ref for _, _, ref in found]
