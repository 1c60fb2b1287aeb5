"""``save_gold`` writes exactly the bytes of the ``json.dumps`` call it stands in for.

Annotations are of the types ``load_gold`` returns: text fields draw on
quotes, backslashes, control characters, U+2028 and U+2029, non-ASCII and
non-BMP text (no lone surrogate, which no UTF-8 file can hold);
``annotator_id`` is ``None`` or a string; both origins and every ``PoLType``
occur; ``paragraph_index`` runs from 0 to past 2**31. The list may be empty.
"""

from __future__ import annotations

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from polminer.extractor import PoLType
from polminer.goldstore import GoldAnnotation, save_gold

_TEXT = st.text(
    st.one_of(
        st.sampled_from('"\\/\x00\x01\x08\t\n\x0c\r\x1f\x7f\x85\u00e8\u00a0\u2028\u2029\ufeff\U0001d11e\U0001f600'),
        st.characters(blacklist_categories=("Cs",)),
    ),
    max_size=12,
)
_ANNOTATIONS = st.builds(
    GoldAnnotation,
    doc_id=_TEXT,
    paragraph_index=st.one_of(st.integers(0, 3), st.integers(0, 2**40)),
    span_text=_TEXT.filter(str.strip),
    pol_type=st.sampled_from(PoLType),
    annotator_id=st.none() | _TEXT,
    origin=st.sampled_from(("Human", "ToolConfirmed")),
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(_ANNOTATIONS, max_size=4))
def test_save_gold_writes_the_bytes_of_json_dumps(tmp_path, gold):
    expected = json.dumps({"annotations": [a.to_dict() for a in gold]}, ensure_ascii=False, indent=2, sort_keys=True)
    path = save_gold(gold, tmp_path / "gold.json")
    assert path.read_bytes() == (expected + "\n").encode("utf-8")
