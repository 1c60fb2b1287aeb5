"""Text normalization and token-overlap scoring used to align spans of unequal granularity.

Gold annotations are sub-paragraph highlight runs while rule candidates are
whole paragraphs; comparisons therefore run on normalized token multisets
rather than raw strings.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import accumulate
from typing import Iterable, Iterator, Sequence

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


# The code points whose casefold holds a character of the other token class
# (``[^\W_]``, the same test as ``str.isalnum``): U+0130 and the Greek and
# Latin letters that fold to a letter plus a combining mark, and U+0345,
# a combining mark that folds to a letter. The set is the same on Python
# 3.10 to 3.13; the tests pin it over every code point.
_FOLD_CLASS_CHANGERS = (
    "\u0130\u01F0\u0345\u0390\u03B0\u1E96\u1E97\u1E98\u1E99\u1F50\u1F52\u1F54\u1F56\u1FB6"
    "\u1FB7\u1FC6\u1FC7\u1FD2\u1FD3\u1FD6\u1FD7\u1FE2\u1FE3\u1FE4\u1FE6\u1FE7\u1FF6\u1FF7"
)
# compiled on first use, through the re module's cache, and not at import
_FOLD_CLASS_CHANGER_CLASS = f"[{_FOLD_CLASS_CHANGERS}]"


class SourceParagraphs:
    """A judgment's paragraphs as FP triage and passage resolution read
    them: case-folded on first use, and tokenized only where a question
    reaches them.

    A paragraph's ``raw_token_counts`` (``counter``) is built the first
    time it is needed. The paragraphs are case-folded one by one and joined
    by ``"\\n"``, which is no token character, so no token spans two
    paragraphs; the fold is made when the search or the screen first needs
    it, never on construction. The ``TokenIndex`` over every paragraph's
    counter, which ``reaching`` asks for FP triage and passage resolution,
    is built once, when a probe first passes the screen.

    The search (``first_containing``) and the screen (``may_share``) read
    one scan of the fold per token (``_hits_of``). It rests on
    ``str.casefold`` mapping each code point on its own, so every token of
    a paragraph occurs in the folded text. Where the judgment holds no code
    point whose casefold changes token class, each character of the folded
    text has the class of the one it came from, so the folded text's
    maximal token runs are exactly the paragraphs' tokens: a token is one
    of them when it is all token characters and occurs with no token
    character on either side, and the hits are exact. Otherwise any
    occurrence counts, and only a miss is exact. Either way a token's hits
    hold every paragraph that has it as a token. The class-changing code
    points are all non-ASCII, so they are looked for only in the paragraphs
    that are not ASCII, when the judgment is folded.
    """

    def __init__(self, texts: Sequence[str]):
        self.texts = texts
        self._counters: list[Counter[str] | None] = [None] * len(texts)
        # each paragraph case-folded, their join, and where each starts in it
        self._folded: list[str] | None = None
        self._joined = ""
        self._starts: list[int] = []
        # whether no paragraph holds a class-changing code point, set by the fold
        self._bounded = True
        # token -> bit mask of the paragraphs it hits
        self._hits: dict[str, int] = {}
        self._index: TokenIndex | None = None

    def counter(self, position: int) -> Counter[str]:
        """The paragraph's ``raw_token_counts``, built once."""
        counter = self._counters[position]
        if counter is None:
            counter = self._counters[position] = raw_token_counts(self.texts[position])
        return counter

    def _fold(self) -> None:
        self._folded = [text.casefold() for text in self.texts]
        self._joined = "\n".join(self._folded)
        self._starts = list(accumulate((len(text) + 1 for text in self._folded), initial=0))[:-1]
        search = re.compile(_FOLD_CLASS_CHANGER_CLASS).search
        self._bounded = not any(search(text) for text in self.texts if not text.isascii())

    def _hits_of(self, token: str) -> int:
        """The paragraphs whose folded text holds ``token`` with no token
        character on either side, or at all in a judgment holding a
        class-changing code point, found once per judgment."""
        mask = self._hits.get(token)
        if mask is None:
            mask = 0
            joined, starts, bounded = self._joined, self._starts, self._bounded
            # every token of a bounded judgment is all token characters
            at = joined.find(token) if token.isalnum() or not bounded else -1
            while at >= 0:
                stop = at + len(token)
                if bounded and (at and joined[at - 1].isalnum() or stop < len(joined) and joined[stop].isalnum()):
                    # inside a longer token: a later occurrence may be whole
                    at = joined.find(token, at + 1)
                    continue
                position = bisect_right(starts, at) - 1
                mask |= 1 << position
                if position + 1 == len(starts):
                    break
                # one hit marks a paragraph: go on from the next one's start
                at = joined.find(token, starts[position + 1])
            self._hits[token] = mask
        return mask

    def first_containing(self, counts: Counter[str]) -> int:
        """The first paragraph whose ``raw_token_counts`` holds every token of
        ``counts`` at least as often, when the search finds it, or ``-1``.

        Candidates are the longest token's hits, narrowed by the other
        tokens, longest first, until at most one is left. A token's hits
        are read, and found over the whole judgment if no earlier question
        found them, while more than half the paragraphs are still
        candidates; after that only the candidates' folded texts are
        searched for it as a substring, which drops only paragraphs that
        lack the token. Only the first candidate left is compared with its
        counter: one comparison per search. Every paragraph holding the
        tokens is a candidate, so a position returned is the first such
        paragraph, while ``-1`` leaves the question open for the index.
        Once the index is built it answers every question, and the search
        returns ``-1`` at once.
        """
        if self._index is not None:
            return -1
        if self._folded is None:
            self._fold()
        tokens = sorted(counts, key=len, reverse=True)
        candidates = self._hits_of(tokens[0])
        folded, paragraphs = self._folded, len(self.texts)
        for token in tokens[1:]:
            if not candidates & (candidates - 1):
                break
            if token in self._hits or 2 * candidates.bit_count() > paragraphs:
                candidates &= self._hits_of(token)
            else:
                for position in _positions(candidates):
                    if token not in folded[position]:
                        candidates ^= 1 << position
        position = next(_positions(candidates), -1)
        if position >= 0:
            counter = self.counter(position)
            if all(counter[token] >= count for token, count in counts.items()):
                return position
        return -1

    def may_share(self, tokens: Iterable[str]) -> bool:
        """``False`` only when none of ``tokens`` is a token of a paragraph."""
        if self._folded is None:
            self._fold()
        return any(self._hits_of(token) for token in tokens)

    def reaching(self, probe: Counter[str], threshold: float) -> dict[int, int]:
        """``{position: |probe & counter(position)|}`` of the paragraphs
        whose ``overlap_coefficient`` with ``probe`` reaches ``threshold``
        (above 0), or ``{}`` when the screen finds that no paragraph shares
        a token with ``probe``. The index answering the others is built the
        first time a probe passes the screen, from the counters already
        made, and kept for every later probe."""
        if not self.may_share(probe):
            return {}
        if self._index is None:
            self._index = TokenIndex([self.counter(i) for i in range(len(self.texts))])
        return self._index.overlapping(probe, threshold)

    def in_source(self, text: str, own: int, threshold: float) -> bool:
        """Whether some paragraph's ``overlap_coefficient`` with ``text``, as
        written, reaches ``threshold``, which is above 0.

        Any paragraph reaching it gives the same answer, so the paragraph at
        ``own`` is tried first. A copy of it needs no counter: it overlaps
        that paragraph fully when the text holds a token, and nothing
        otherwise. Any other text is scored against the own paragraph's
        counter. A miss is settled when the text holds no token, and by
        ``reaching`` otherwise.
        """
        if 0 <= own < len(self.texts) and text == self.texts[own]:
            return _TOKEN_RE.search(text) is not None
        probe = raw_token_counts(text)
        if 0 <= own < len(self.texts) and overlap_coefficient(probe, self.counter(own)) >= threshold:
            return True
        return bool(probe) and bool(self.reaching(probe, threshold))


def _positions(mask: int) -> Iterator[int]:
    """The positions of a bit mask's set bits, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _shared(a: Counter[str], b: Counter[str]) -> int:
    """|a & b|, the occurrences two token multisets share, counted over the
    side with fewer distinct tokens and with no counter built."""
    if len(a) > len(b):
        a, b = b, a
    get = b.get
    shared = 0
    for token, count in a.items():
        other = get(token)
        if other:
            shared += count if count < other else other
    return shared


def overlap_coefficient(a: Counter[str], b: Counter[str]) -> float:
    """Multiset overlap |a & b| / min(|a|, |b|); 0.0 when either side is empty."""
    ta, tb = sum(a.values()), sum(b.values())
    if ta == 0 or tb == 0:
        return 0.0
    return _shared(a, b) / min(ta, tb)


class TokenIndex:
    """Token postings over a list of counters, for exact similarity joins.

    Overlap coefficient is 0 for two texts that share no token, and every
    threshold is above 0, so only the positions a probe co-occurs with in
    some posting list can pass one (Chaudhuri, Ganti & Kaushik, ICDE 2006).
    A text's containment of the probe, ``shared / |probe|``, never exceeds
    their overlap coefficient, so every position reaching a containment
    threshold is among those ``overlapping`` returns for the same threshold,
    with its shared count. Positions are ranked by size, ties by position,
    and each posting list holds the ranks of the positions holding its
    token in ascending order, so the positions up to a size are one prefix
    of it. The counters are kept, not copied.
    """

    def __init__(self, counters: list[Counter[str]]):
        self._counters = counters
        sizes = [sum(c.values()) for c in counters]
        # rank -> position, and the size at each rank, ascending
        self._order = sorted(range(len(counters)), key=sizes.__getitem__)
        self._ranked_sizes = [sizes[position] for position in self._order]
        # token -> ranks of the positions holding it, ascending
        self._postings: dict[str, list[int]] = {}
        for rank, position in enumerate(self._order):
            for token in counters[position]:
                self._postings.setdefault(token, []).append(rank)

    def overlapping(self, probe: Counter[str], threshold: float) -> dict[int, int]:
        """``{position: |probe & counters[position]|}`` for the positions
        whose ``overlap_coefficient`` with the probe is at least
        ``threshold``, in no particular order.

        ``threshold`` must be above 0: positions sharing no token are not
        listed. Each listed position is verified with the exact shared
        count and ``overlap_coefficient``'s own expression, so a pair at
        exactly the threshold passes here as it does there, and the count
        it is verified with is the one returned. Only the
        positions that could still pass are visited (prefix filtering:
        Bayardo, Ma & Srikant, WWW 2007; Xiao et al., WWW 2008), bounded
        per size because of the ``min`` denominator:

        - Let ``p`` be the probe's size and ``s`` a text's, both with
          multiplicity, and ``m = min(p, s)``. Let ``need(m)`` be the
          least integer ``x`` with ``x / m >= threshold`` in floating point,
          as the score divides; not ``ceil(threshold * m)``, since
          ``0.56 * 25`` is ``14.000000000000002`` while ``14 / 25`` is
          ``0.56``. A correctly rounded
          quotient never falls as its numerator rises, so a pair passes
          exactly when ``shared >= need(m)``, and ``need(m) <= r`` exactly
          when ``r / m >= threshold``: the walk tests the latter.
        - The probe's tokens are walked rarest first (shortest posting
          list; any fixed order is exact). Let ``before(t)`` be the probe
          occurrences ahead of token ``t``. A text's shared tokens all come
          at or after the first probe token it holds, ``t``, so
          ``shared <= p - before(t)``: a text whose first held token has
          ``p - before(t) < need(m)`` fails, and only those with
          ``need(m) <= p - before(t)`` are taken from ``t``'s list.
        - ``need`` never falls as ``m`` rises, since ``x / m`` never rises.
          So every text is taken while ``need(p) <= p - before(t)``, and
          after that only texts with ``s < p`` and
          ``need(s) <= p - before(t)``: the ranks up to the largest such
          size, one ``bisect`` into each list.
        """
        total = sum(probe.values())
        postings = self._postings
        sizes = self._ranked_sizes
        # ranks below bound may still pass; remaining is p - before(t)
        bound, remaining = len(sizes), total
        candidates: set[int] = set()
        for token in sorted(probe, key=lambda token: len(postings.get(token, ()))):
            ranks = postings.get(token)
            if ranks:
                if remaining / total < threshold:
                    bound = bisect_right(sizes, _largest_size(remaining, threshold), 0, bound)
                    if not bound:
                        break
                    candidates.update(ranks[: bisect_left(ranks, bound)])
                else:
                    candidates.update(ranks)
            remaining -= probe[token]
        order, counters = self._order, self._counters
        overlapping = {}
        for rank in candidates:
            position = order[rank]
            shared = _shared(probe, counters[position])
            if shared / min(total, sizes[rank]) >= threshold:
                overlapping[position] = shared
        return overlapping


def _largest_size(shared: int, threshold: float) -> int:
    """The largest size ``s`` with ``shared / s >= threshold`` as
    ``overlap_coefficient`` divides, or 0, stepped to from
    ``shared / threshold`` rounded down."""
    size = int(shared / threshold)
    while size and shared / size < threshold:
        size -= 1
    while shared / (size + 1) >= threshold:
        size += 1
    return size


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
