"""The shared-token count and the overlap coefficient built on it agree with
the earlier ``Counter.__and__`` formula of the reference.

Counters are drawn over a few tokens with repeated occurrences, so that two
sides often share a token with different counts. A pair is two such
counters, one counter twice, or one counter split into two disjoint sides;
any side may be empty.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_alignment as ref
from polminer.textnorm import _shared, overlap_coefficient

_WORDS = ("a", "b", "c", "d", "e", "f")
_COUNTERS = st.dictionaries(st.sampled_from(_WORDS), st.integers(1, 4), max_size=len(_WORDS)).map(Counter)


def _split(counter: Counter[str]) -> tuple[Counter[str], Counter[str]]:
    """The counter's occurrences of the first three words, and of the rest."""
    return (
        Counter({token: n for token, n in counter.items() if token < "d"}),
        Counter({token: n for token, n in counter.items() if token >= "d"}),
    )


_PAIRS = st.one_of(
    st.tuples(_COUNTERS, _COUNTERS),
    _COUNTERS.map(lambda counter: (counter, counter)),
    _COUNTERS.map(_split),
)


@settings(max_examples=500, deadline=None)
@given(_PAIRS)
def test_shared_count_and_scores_equal_the_counter_intersection(pair):
    a, b = pair
    before = Counter(a), Counter(b)
    assert _shared(a, b) == _shared(b, a) == sum((a & b).values())
    assert overlap_coefficient(a, b) == ref.overlap_coefficient(a, b)
    # counting builds nothing into either side
    assert (a, b) == before and all(a.values()) and all(b.values())
