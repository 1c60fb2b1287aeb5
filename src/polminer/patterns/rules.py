"""Quote, keyword, and end-citation detectors under pinned rule profiles.

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
else, so the effect of each fix is measurable against the baseline.

Every detector takes time linear in the paragraph length. The keyword
matcher is one compiled alternation per lexicon, with the original
pattern's ``\b`` boundaries written as lookarounds, so for the published
profiles it matches exactly what the original pattern matches. The quote
scan and the end-citation search are single passes that jump between
compiled character-class hits; the original quote and citation patterns
are quadratic on long lines of unclosed quotes or open parentheses. The
test suite replays the original regex patterns as an independent oracle
and checks 100% agreement, and fuzzes the detectors against the earlier
character scanners.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, replace

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


@dataclass(frozen=True)
class RuleProfile:
    """A pinned set of matching semantics for the three detectors.

    ``conjunctive`` selects the extraction combination logic: quote AND
    keyword, else end-citation (refined script) versus quote OR citation OR
    keyword (first script).
    """

    name: str
    quote_open_set: frozenset[str] = PUBLISHED_QUOTE_OPEN
    quote_close_set: frozenset[str] = PUBLISHED_QUOTE_CLOSE
    keyword_lexicon: tuple[str, ...] = PUBLISHED_KEYWORDS
    citation_anchored: bool = True
    fix_abbrev_boundaries: bool = False
    allow_trailing_punct_after_citation: bool = False
    match_quote_styles: bool = False
    conjunctive: bool = True


V1_BROAD = RuleProfile(name="v1_broad", citation_anchored=False, conjunctive=False)
V2_REFINED = RuleProfile(name="v2_refined")
EXTENDED = replace(
    V2_REFINED,
    name="extended",
    fix_abbrev_boundaries=True,
    allow_trailing_punct_after_citation=True,
    match_quote_styles=True,
)

PROFILES = {p.name: p for p in (V1_BROAD, V2_REFINED, EXTENDED)}


def get_profile(name: str) -> RuleProfile:
    try:
        return PROFILES[name]
    except KeyError:
        raise KeyError(f"unknown profile {name!r}; expected one of {sorted(PROFILES)}") from None


@dataclass(frozen=True)
class QuoteSpan:
    start: int
    end: int  # exclusive
    text: str
    open_char: str
    close_char: str


@functools.lru_cache(maxsize=64)
def _char_class(chars: frozenset[str]) -> re.Pattern[str]:
    """A pattern matching any one of ``chars``; never matches when empty."""
    if not chars:
        return re.compile("(?!)")
    return re.compile("[" + "".join(re.escape(c) for c in sorted(chars)) + "]")


def find_quotes(paragraph_text: str, profile: RuleProfile) -> list[QuoteSpan]:
    """Leftmost, shortest, non-overlapping quote spans within one paragraph.

    Published profiles pair any opener with any closer; the extended profile
    requires the style-matched closer. A span never crosses a newline.

    One pass: when an opener finds no closer before its newline, every later
    opener waiting for the same closers on that line fails too, so openers
    of that closer set are skipped up to the newline.
    """
    text = paragraph_text
    openers = _char_class(profile.quote_open_set)
    spans: list[QuoteSpan] = []
    # closer set -> offset of the newline before which it cannot close
    dead_until: dict[frozenset[str], int] = {}
    i = 0
    while (opened := openers.search(text, i)) is not None:
        i = opened.start()
        ch = text[i]
        if profile.match_quote_styles:
            closers = frozenset(QUOTE_PAIRS[ch])
        else:
            closers = profile.quote_close_set
        if dead_until.get(closers, -1) > i:
            i += 1
            continue
        stop = _char_class(closers | {"\n"}).search(text, i + 1)
        if stop is None or text[stop.start()] == "\n":
            dead_until[closers] = len(text) if stop is None else stop.start()
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


@functools.lru_cache(maxsize=64)
def _keyword_pattern(lexicon: tuple[str, ...], fix_abbrev_boundaries: bool) -> re.Pattern[str]:
    """One case-insensitive alternation over the lexicon, in lexicon order.

    Group k + 1 captures lexicon token k. A hit starts at a word start; it
    ends at a word end, except that a token ending in a period needs a word
    character next (the published ``\\b`` after ``.``) unless
    ``fix_abbrev_boundaries`` lets the period alone end it.
    """
    if not lexicon:
        return re.compile("(?!)")
    alternatives = []
    for token in lexicon:
        if not token.endswith("."):
            end = r"(?!\w)"
        elif fix_abbrev_boundaries:
            end = ""
        else:
            end = r"(?=\w)"
        alternatives.append(f"({re.escape(token)}){end}")
    return re.compile(r"(?<!\w)(?=\w)(?:" + "|".join(alternatives) + ")", re.IGNORECASE)


def match_keywords(paragraph_text: str, profile: RuleProfile) -> list[tuple[str, int]]:
    """Case-insensitive, non-overlapping keyword hits as (lexicon token, offset).

    Lexicon tokens ending in a period keep the original boundary behavior
    (next character must be a word character) unless the profile sets
    ``fix_abbrev_boundaries``, in which case the trailing period alone ends
    the hit.
    """
    lexicon = profile.keyword_lexicon
    pattern = _keyword_pattern(lexicon, profile.fix_abbrev_boundaries)
    return [(lexicon[m.lastindex - 1], m.start()) for m in pattern.finditer(paragraph_text)]


def citation_at_end(paragraph_text: str, profile: RuleProfile) -> str | None:
    """Matched citation substring, or None.

    ``citation_anchored`` profiles require the closing parenthesis at the end
    of the paragraph (a single trailing newline is tolerated, mirroring the
    original anchor); unanchored profiles accept it anywhere. The extended
    profile additionally ignores trailing periods, semicolons, and
    whitespace after the closing parenthesis.
    """
    text = paragraph_text
    if not profile.citation_anchored:
        return _search_citation(text)
    if profile.allow_trailing_punct_after_citation:
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


def _search_citation(text: str) -> str | None:
    """First "(" followed, on its own line, by filler and "dddd)"; the
    shortest such match. The "dddd)" ends are collected once and walked
    with one pointer as the "(" positions increase."""
    i = text.find("(")
    if i < 0:
        return None
    # the end of every "dddd)": four decimal digits (regex \d) and ")"
    ends = []
    close = text.find(")", 4)
    while close >= 0:
        if text[close - 4 : close].isdecimal():
            ends.append(close + 1)
        close = text.find(")", close + 1)
    k = 0
    line_end = -1
    while i >= 0:
        # the digits start after the "(": the end lies at i + 6 or later
        while k < len(ends) and ends[k] < i + 6:
            k += 1
        if k == len(ends):
            return None
        if line_end <= i:
            line_end = text.find("\n", i + 1)
            if line_end < 0:
                line_end = len(text)
        if ends[k] <= line_end:
            return text[i : ends[k]]
        # every later "(" on this line needs an end at least as far
        i = text.find("(", line_end)
    return None
