"""Quote, keyword, and end-citation detectors under three fixed rule profiles.

The ``v1_broad`` and ``v2_refined`` profiles replicate the original generated
patterns bit for bit, quirks included:

* any opening quote mark may pair with any closing mark (the character class
  cannot tell styles apart), and a match never crosses a newline;
* ``CASS.`` / ``TRIB.`` only count as keywords when the trailing period is
  directly followed by a word character, because a word boundary after a
  period needs one (so ``"Cass. n. 123"`` is NOT a keyword hit);
* the end-citation test accepts a final newline after the closing
  parenthesis but nothing else.

The ``extended`` profile fixes exactly those three sharp edges and nothing
else, so the effect of each fix is measurable against the baseline. The
quote characters and the keyword lexicon are the published ones for every
profile; a profile is only its name and two switches.

Every detector takes time linear in the paragraph length. The keyword
matcher is a compiled alternation (one for the published profiles, one for
``extended``), with the original pattern's ``\\b`` boundaries written as
lookarounds, so for the published profiles it matches exactly what the
original pattern matches. The quote scan is a single pass that jumps
between compiled character-class hits, and the unanchored end-citation
search is the published pattern, tried once per line from its first "(";
searched from every opener, the original quote and citation patterns are
quadratic on long lines of unclosed quotes or open parentheses. The test
suite replays the original regex patterns as an independent oracle and
checks 100% agreement, and fuzzes the detectors against the earlier
character scanners.
"""

from __future__ import annotations

import functools
import re
from typing import NamedTuple

# Opening and closing character classes of the original quote pattern.
PUBLISHED_QUOTE_OPEN = frozenset("“\"«‘")  # “ " « ‘
PUBLISHED_QUOTE_CLOSE = frozenset("”\"»’")  # ” " » ’

# Style-matched pairs used by the extended profile.
QUOTE_PAIRS = {
    "“": "”",
    '"': '"',
    "«": "»",
    "‘": "’",
}

# Keyword lexicon in original alternation order; order matters for
# same-position matches ("CASS." is tried before "CASSAZIONE").
PUBLISHED_KEYWORDS = (
    "CORTE",
    "TRIBUNALE",
    "TRIB.",
    "GIURISPRUDENZA",
    "COLLEGIO",
    "CONSESSO",
    "CASS.",
    "CASSAZIONE",
)


class RuleProfile(NamedTuple):
    """One of the three fixed rule sets of the detectors.

    ``conjunctive`` selects the extraction combination logic and the
    end-citation anchor, which the original scripts tie together: quote AND
    keyword, else a citation at the paragraph's end (refined script) versus
    quote OR a citation anywhere OR keyword (first script). ``extended``
    turns on the three fixes: style-matched quote pairs, abbreviations
    ended by their period alone, and trailing ``.``/``;``/whitespace after
    an end citation.
    """

    name: str
    conjunctive: bool
    extended: bool


V1_BROAD = RuleProfile(name="v1_broad", conjunctive=False, extended=False)
V2_REFINED = RuleProfile(name="v2_refined", conjunctive=True, extended=False)
EXTENDED = RuleProfile(name="extended", conjunctive=True, extended=True)

PROFILES = {p.name: p for p in (V1_BROAD, V2_REFINED, EXTENDED)}


def get_profile(name: str) -> RuleProfile:
    try:
        return PROFILES[name]
    except KeyError:
        raise KeyError(f"unknown profile {name!r}; expected one of {sorted(PROFILES)}") from None


class QuoteSpan(NamedTuple):
    start: int
    end: int  # exclusive
    text: str
    open_char: str
    close_char: str


def _char_class(chars: set[str] | frozenset[str]) -> re.Pattern[str]:
    return re.compile("[" + "".join(re.escape(c) for c in sorted(chars)) + "]")


_OPENERS = _char_class(PUBLISHED_QUOTE_OPEN)
# where the search for a closer stops: at a closer, or at the newline
_PUBLISHED_STOP = _char_class(PUBLISHED_QUOTE_CLOSE | {"\n"})
_STYLE_STOPS = {opener: _char_class({closer, "\n"}) for opener, closer in QUOTE_PAIRS.items()}


def find_quotes(paragraph_text: str, profile: RuleProfile) -> list[QuoteSpan]:
    """Leftmost, shortest, non-overlapping quote spans within one paragraph.

    Published profiles pair any opener with any closer; the extended profile
    requires the style-matched closer. A span never crosses a newline.

    One pass: when an opener finds no closer before its newline, every later
    opener waiting for the same closers on that line fails too, so openers
    with that stop pattern are skipped up to the newline.
    """
    text = paragraph_text
    spans: list[QuoteSpan] = []
    # stop pattern -> offset of the newline before which it finds no closer
    dead_until: dict[re.Pattern[str], int] = {}
    i = 0
    while (opened := _OPENERS.search(text, i)) is not None:
        i = opened.start()
        ch = text[i]
        stop_pattern = _STYLE_STOPS[ch] if profile.extended else _PUBLISHED_STOP
        if dead_until.get(stop_pattern, -1) > i:
            i += 1
            continue
        stop = stop_pattern.search(text, i + 1)
        if stop is None or text[stop.start()] == "\n":
            dead_until[stop_pattern] = len(text) if stop is None else stop.start()
            i += 1
            continue
        close_at = stop.start()
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
    return spans


# The first letters of the lexicon tokens, matched under IGNORECASE.
_KEYWORD_LEAD = "[cgt]"


@functools.cache
def _keyword_pattern(extended: bool) -> re.Pattern[str]:
    """One case-insensitive alternation over the lexicon, in lexicon order.

    Group k + 1 captures lexicon token k. A hit starts at a word start; it
    ends at a word end, except that a token ending in a period needs a word
    character next (the published ``\\b`` after ``.``) unless ``extended``
    lets the period alone end it. Compiled on first use, so a run that never
    reads the extended profile never compiles its pattern.

    The lead ``(?=[cgt])`` (``_KEYWORD_LEAD``) stands where the published
    ``\\b`` asks for a word character. Every lexicon token starts with C, G
    or T, and under ``IGNORECASE`` the class matches exactly the characters
    those three letters match, so the pattern matches what it matched with
    ``(?=\\w)``. Tested before the word-start lookbehind, it rejects most
    positions with one class test.
    """
    alternatives = []
    for token in PUBLISHED_KEYWORDS:
        if not token.endswith("."):
            end = r"(?!\w)"
        elif extended:
            end = ""
        else:
            end = r"(?=\w)"
        alternatives.append(f"({re.escape(token)}){end}")
    lead = "(?=" + _KEYWORD_LEAD + r")(?<!\w)"
    return re.compile(lead + "(?:" + "|".join(alternatives) + ")", re.IGNORECASE)


def match_keywords(paragraph_text: str, profile: RuleProfile) -> list[tuple[str, int]]:
    """Case-insensitive, non-overlapping keyword hits as (lexicon token, offset).

    Lexicon tokens ending in a period keep the original boundary behavior
    (next character must be a word character) unless the profile is
    ``extended``, in which case the trailing period alone ends the hit.
    """
    pattern = _keyword_pattern(profile.extended)
    return [(PUBLISHED_KEYWORDS[m.lastindex - 1], m.start()) for m in pattern.finditer(paragraph_text)]


def citation_at_end(paragraph_text: str, profile: RuleProfile) -> str | None:
    """Matched citation substring, or None.

    ``conjunctive`` profiles require the closing parenthesis at the end of
    the paragraph (a single trailing newline is tolerated, mirroring the
    original anchor); the disjunctive ``v1_broad`` accepts it anywhere. The
    extended profile additionally ignores trailing periods, semicolons, and
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
    if end < 6 or text[end - 1] != ")" or not text[end - 5 : end - 1].isdecimal():
        return None
    # the filler may not hold a newline: the first "(" after the last one
    filler_stop = end - 5
    start = text.find("(", text.rfind("\n", 0, filler_stop) + 1, filler_stop)
    return text[start:end] if start >= 0 else None


_CITATION_RE = re.compile(r"\(.*?\d{4}\)")


def _search_citation(text: str) -> str | None:
    """The published ``\\(.*?\\d{4}\\)``, matched from each line's first "(":
    a match never crosses a newline, and when one starts at a later "(" of
    a line, one starts at the first too (``.`` matches "("). So each line is
    read once; searched from every "(", the pattern is quadratic. A match
    ends at a ")", so it is read only up to the line's last one, and a line
    with none after its first "(" is not read."""
    i = text.find("(")
    while i >= 0:
        line_end = text.find("\n", i)
        if line_end < 0:
            line_end = len(text)
        m = _CITATION_RE.match(text, i, text.rfind(")", i, line_end) + 1)
        if m is not None:
            return m.group()
        i = text.find("(", line_end)
    return None
