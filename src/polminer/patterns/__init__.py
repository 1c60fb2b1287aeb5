"""Pattern rules for quote, keyword, and citation detection, plus the citation grammar."""

from .citations import CitationRef, Court, find_citations, parse_citation
from .rules import (
    PROFILES,
    QuoteSpan,
    RuleProfile,
    citation_at_end,
    find_quotes,
    get_profile,
    match_keywords,
)

__all__ = [
    "CitationRef",
    "Court",
    "PROFILES",
    "QuoteSpan",
    "RuleProfile",
    "citation_at_end",
    "find_citations",
    "find_quotes",
    "get_profile",
    "match_keywords",
    "parse_citation",
]
