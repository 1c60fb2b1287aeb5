"""The record types: immutable values, checked on every construction."""

from __future__ import annotations

import datetime as dt

import pytest

from polminer.corpus import Document
from polminer.errors import UnparseableCitation
from polminer.evaluation import ConfusionCounts
from polminer.extractor import PoLCandidate, PoLType
from polminer.goldstore import GoldAnnotation
from polminer.patterns import CitationRef

_RECORDS = [
    (Document("a.txt", ("testo",), None), "doc_id"),
    (GoldAnnotation("a.txt", 0, "testo", PoLType.IMPLICIT), "span_text"),
    (PoLCandidate("a.txt", 0, "testo", "", None, PoLType.IMPLICIT), "paragraph_index"),
    (CitationRef("Cass. 1/2019", number=1, year=2019), "year"),
]


@pytest.mark.parametrize("record, field", _RECORDS, ids=[type(r).__name__ for r, _ in _RECORDS])
def test_a_record_field_cannot_be_assigned(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))


def test_confusion_counts_reject_a_negative_count():
    with pytest.raises(ValueError, match="non-negative"):
        ConfusionCounts(-1, 0, 0)


def test_a_citation_cites_a_number_year_or_date():
    with pytest.raises(UnparseableCitation, match="no number, year, or date"):
        CitationRef(raw="x")


def test_replace_runs_the_construction_checks():
    with pytest.raises(ValueError, match="non-negative"):
        ConfusionCounts(1, 2, 3)._replace(fn=-1)
    ref = CitationRef("Cass. 1/2019", number=1, year=2019)
    with pytest.raises(UnparseableCitation, match="year conflicts with date"):
        ref._replace(date=dt.date(2018, 1, 1))
    with pytest.raises(UnparseableCitation, match="no number, year, or date"):
        ref._replace(number=None, year=None)
    assert ref._replace(raw="Cass. n. 1/2019") == CitationRef("Cass. n. 1/2019", number=1, year=2019)
