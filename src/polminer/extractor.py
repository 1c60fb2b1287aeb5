"""Apply a rule profile to a document, type the hits, and emit the CSV contract.

The refined (conjunctive) logic keeps a paragraph when it has both a quote
span and a keyword hit, capturing the first quote; failing that, a paragraph
whose text ends in a parenthesized citation is kept with an empty quote. The
broad (disjunctive) logic keeps a paragraph on quote OR citation OR keyword,
in that branch order.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from .corpus import Document
from .errors import SchemaError
from .patterns import CitationRef, RuleProfile, citation_at_end, find_citations, find_quotes, match_keywords


class PoLType(str, Enum):
    IMPLICIT = "Implicit"
    EXPLICIT_DIRECT = "ExplicitDirect"
    EXPLICIT_INDIRECT = "ExplicitIndirect"


class Trigger(str, Enum):
    QUOTE_AND_KEYWORD = "QuoteAndKeyword"
    CITATION_AT_END = "CitationAtEnd"
    QUOTE_ONLY = "QuoteOnly"
    KEYWORD_ONLY = "KeywordOnly"
    CITATION_ANYWHERE = "CitationAnywhere"


class Source(str, Enum):
    RULES = "Rules"
    LLM = "LLM"
    HUMAN = "Human"


@dataclass(frozen=True)
class PoLCandidate:
    doc_id: str
    paragraph_index: int
    text: str
    quote: str  # captured quote; empty for citation-only matches
    trigger: Trigger | None  # None for LLM/Human sources
    pol_type: PoLType
    citations: tuple[CitationRef, ...] = field(default_factory=tuple)
    source: Source = Source.RULES

    def to_dict(self) -> dict:
        return {
            "doc_id": self.doc_id,
            "paragraph_index": self.paragraph_index,
            "text": self.text,
            "quote": self.quote,
            "trigger": self.trigger.value if self.trigger else None,
            "pol_type": self.pol_type.value,
            "citations": [c.to_dict() for c in self.citations],
            "source": self.source.value,
        }

    @classmethod
    def from_dict(cls, data: dict, pointer: str = "") -> "PoLCandidate":
        try:
            return cls(
                doc_id=str(data["doc_id"]),
                paragraph_index=int(data["paragraph_index"]),
                text=str(data["text"]),
                quote=str(data.get("quote", "")),
                trigger=Trigger(data["trigger"]) if data.get("trigger") else None,
                pol_type=PoLType(data["pol_type"]),
                citations=tuple(CitationRef.from_dict(c) for c in data.get("citations", [])),
                source=Source(data.get("source", "Rules")),
            )
        except KeyError as exc:
            raise SchemaError(f"{pointer}/{exc.args[0]}", "missing field") from exc
        except (ValueError, TypeError) as exc:
            raise SchemaError(pointer or "/", str(exc)) from exc


def classify(quote: str, citations: tuple[CitationRef, ...] | list[CitationRef]) -> PoLType:
    """Type a hit from its evidence: quote plus citation is explicit-direct,
    citation without quote is explicit-indirect, anything else implicit."""
    if citations:
        return PoLType.EXPLICIT_DIRECT if quote else PoLType.EXPLICIT_INDIRECT
    return PoLType.IMPLICIT


def classify_candidate(candidate: PoLCandidate) -> PoLType:
    return classify(candidate.quote, candidate.citations)


def extract_candidates(document: Document, profile: RuleProfile) -> list[PoLCandidate]:
    """Run the profile over every paragraph and return typed candidates,
    at most one per paragraph."""
    candidates: list[PoLCandidate] = []
    for para in document.paragraphs:
        text = para.text
        quotes = find_quotes(text, profile)
        keywords = match_keywords(text, profile)
        if profile.conjunctive:
            if quotes and keywords:
                quote, trigger = quotes[0].text, Trigger.QUOTE_AND_KEYWORD
            elif citation_at_end(text, profile):
                quote, trigger = "", Trigger.CITATION_AT_END
            else:
                continue
        elif quotes:
            quote, trigger = quotes[0].text, Trigger.QUOTE_ONLY
        elif citation_at_end(text, profile):
            quote, trigger = "", Trigger.CITATION_ANYWHERE
        elif keywords:
            quote, trigger = "", Trigger.KEYWORD_ONLY
        else:
            continue
        citations = tuple(find_citations(text))
        candidates.append(
            PoLCandidate(
                doc_id=document.doc_id,
                paragraph_index=para.index,
                text=text,
                quote=quote,
                trigger=trigger,
                pol_type=classify(quote, citations),
                citations=citations,
                source=Source.RULES,
            )
        )
    return candidates


CSV_HEADER = ("Paragraph", "Quote")


def emit_csv(
    candidates: list[PoLCandidate],
    input_filename: str | Path,
    output_directory: str | Path,
) -> Path:
    """Write ``<output_directory>/<basename>.csv`` and return its path.

    UTF-8, LF line endings, header ``Paragraph,Quote``, one row per candidate
    in paragraph order, minimal CSV quoting.
    """
    out_dir = Path(output_directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / (Path(input_filename).stem + ".csv")
    rows = sorted(candidates, key=lambda c: c.paragraph_index)
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for cand in rows:
            writer.writerow([cand.text, cand.quote])
    return out_path


def save_candidates_jsonl(candidates: list[PoLCandidate], path: str | Path) -> Path:
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with open(p, "w", encoding="utf-8", newline="\n") as fh:
        for cand in candidates:
            fh.write(json.dumps(cand.to_dict(), ensure_ascii=False) + "\n")
    return p


def load_candidates_jsonl(path: str | Path) -> list[PoLCandidate]:
    candidates = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh):
            if not line.strip():
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"/{lineno}", f"invalid JSON: {exc}") from exc
            candidates.append(PoLCandidate.from_dict(data, pointer=f"/{lineno}"))
    return candidates

