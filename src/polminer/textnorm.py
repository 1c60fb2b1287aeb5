"""Text normalization and token-overlap scoring used to align spans of unequal granularity.

Gold annotations are sub-paragraph highlight runs while rule candidates are
whole paragraphs; comparisons therefore run on normalized token multisets
rather than raw strings.
"""

from __future__ import annotations

import re
from collections import Counter
from itertools import chain

# Curly/angle/straight quotation marks plus apostrophes, stripped from span edges.
_EDGE_QUOTE_CHARS = "“”‘’«»\"'`"

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def strip_trailing_citations(text: str) -> str:
    """Drop trailing parenthesized groups that contain a digit (citation tails)."""
    t = text.rstrip()
    while t.endswith(")"):
        i = t.rfind("(")
        if i < 0:
            break
        inner = t[i + 1 : -1]
        if not any(ch.isdecimal() for ch in inner):
            break
        t = t[:i].rstrip()
    return t


def normalize_text(text: str) -> str:
    """Case-fold, strip outer quotation marks and trailing citations, collapse whitespace."""
    t = strip_trailing_citations(text)
    t = t.strip().strip(_EDGE_QUOTE_CHARS).strip()
    t = " ".join(t.split())
    return t.casefold()


def word_tokens(normalized: str) -> list[str]:
    """Word tokens (alphanumeric runs) of a text ``normalize_text`` returned."""
    return _TOKEN_RE.findall(normalized)


def token_counts(words: list[str]) -> Counter[str]:
    """Token multiset of ``word_tokens``' list, the one alignment scores."""
    return Counter(words)


def raw_token_counts(text: str) -> Counter[str]:
    """Token multiset of the text as written (case-folded, nothing stripped).

    Used when the question is "does this text exist in the source", where
    quotation marks and citation tails are evidence rather than noise.
    """
    return Counter(token.casefold() for token in _TOKEN_RE.findall(text))


def overlap_coefficient(a: Counter[str], b: Counter[str]) -> float:
    """Multiset overlap |a & b| / min(|a|, |b|); 0.0 when either side is empty."""
    ta, tb = sum(a.values()), sum(b.values())
    if ta == 0 or tb == 0:
        return 0.0
    shared = sum((a & b).values())
    return shared / min(ta, tb)


class TokenIndex:
    """Token postings over a list of counters, for exact similarity joins.

    Overlap coefficient and containment are 0 for two texts that share no
    token, and every threshold is above 0, so only the positions a probe
    co-occurs with in some posting list can pass one (Chaudhuri, Ganti &
    Kaushik, ICDE 2006).
    """

    def __init__(self, counters: list[Counter[str]]):
        self._sizes = [sum(c.values()) for c in counters]
        # token -> positions holding it; token -> (position, count) where it repeats
        self._postings: dict[str, list[int]] = {}
        self._repeats: dict[str, list[tuple[int, int]]] = {}
        for position, counter in enumerate(counters):
            for token, count in counter.items():
                self._postings.setdefault(token, []).append(position)
                if count > 1:
                    self._repeats.setdefault(token, []).append((position, count))

    def shared(self, probe: Counter[str]) -> Counter[int]:
        """``|probe & counters[i]|`` for every position ``i`` sharing a token with the probe.

        Each common token counts once, in one count over the concatenated
        posting lists; a token both sides repeat adds the rest of its
        ``min`` count.
        """
        postings = self._postings
        shared = Counter(chain.from_iterable(postings.get(token, ()) for token in probe))
        for token, count in probe.items():
            if count > 1:
                for position, indexed in self._repeats.get(token, ()):
                    shared[position] += min(count, indexed) - 1
        return shared

    def overlapping(self, probe: Counter[str], threshold: float) -> list[int]:
        """Positions whose ``overlap_coefficient`` with the probe is at least ``threshold``.

        ``threshold`` must be above 0: positions sharing no token are not
        listed. Each score is ``overlap_coefficient``'s own expression, so a
        pair at exactly the threshold passes here as it does there.
        """
        total, sizes = sum(probe.values()), self._sizes
        return [i for i, shared in self.shared(probe).items() if shared / min(total, sizes[i]) >= threshold]


def containment(a: Counter[str], b: Counter[str]) -> float:
    """Fraction of a's tokens present in b; 0.0 when a is empty."""
    ta = sum(a.values())
    if ta == 0:
        return 0.0
    return sum((a & b).values()) / ta


def token_edit_ratio(a: list[str], b: list[str]) -> float:
    """Levenshtein distance over token sequences, scaled by the longer length.

    The distance is computed bit-parallel (Myers, JACM 1999, in Hyyrö's form
    for the distance between two whole sequences): one column of the edit
    table is held as bit vectors of its +1 and -1 vertical deltas, with the
    longer sequence of m tokens as the pattern and an m-bit Python int as
    the vector, so each token of the shorter sequence costs a few integer
    operations instead of m ``min`` calls. The distance is exact.
    """
    if not a and not b:
        return 0.0
    if not a or not b:
        return 1.0
    pattern, text = (a, b) if len(a) >= len(b) else (b, a)
    m = len(pattern)
    # peq[token]: the bits of the pattern positions holding the token
    peq: dict[str, int] = {}
    for position, token in enumerate(pattern):
        peq[token] = peq.get(token, 0) | 1 << position
    mask = (1 << m) - 1
    last = 1 << (m - 1)
    pv, mv, distance = mask, 0, m
    for token in text:
        eq = peq.get(token, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & last:
            distance += 1
        elif mh & last:
            distance -= 1
        # the top row of the table counts up: each text token is one insertion
        ph = ph << 1 | 1
        mh <<= 1
        pv = (mh | ~(xv | ph)) & mask
        mv = ph & xv
    return distance / m
