"""Toolkit for extracting principle-of-law passages from Italian court
judgments and evaluating any extractor's output against gold annotations."""

from .corpus import Document, load_document
from .evaluation import ConfusionCounts, MetricsMode, align, confusion, metrics
from .extractor import PoLCandidate, PoLType, extract_candidates
from .goldstore import GoldAnnotation
from .patterns import CitationRef, RuleProfile, get_profile, parse_citation

__version__ = "0.1.0"

__all__ = [
    "CitationRef",
    "ConfusionCounts",
    "Document",
    "GoldAnnotation",
    "MetricsMode",
    "PoLCandidate",
    "PoLType",
    "RuleProfile",
    "align",
    "confusion",
    "extract_candidates",
    "get_profile",
    "load_document",
    "metrics",
    "parse_citation",
    "__version__",
]
