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
from enum import Enum
from pathlib import Path
from typing import NamedTuple

from .corpus import Document
from .errors import SchemaError
from .outfile import atomic_write
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


class PoLCandidate(NamedTuple):
    doc_id: str
    paragraph_index: int
    text: str
    quote: str  # captured quote; empty for citation-only matches
    trigger: Trigger | None  # None for LLM/Human sources
    pol_type: PoLType
    citations: tuple[CitationRef, ...] = ()
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
        if not isinstance(data, dict):
            raise SchemaError(pointer or "/", "must be an object")
        try:
            doc_id, paragraph_index, text = data["doc_id"], data["paragraph_index"], data["text"]
        except KeyError as exc:
            raise SchemaError(f"{pointer}/{exc.args[0]}", "missing field") from exc
        quote, trigger, citations = data.get("quote", ""), data.get("trigger"), data.get("citations", [])
        if not isinstance(doc_id, str):
            raise SchemaError(f"{pointer}/doc_id", "must be a string")
        if isinstance(paragraph_index, bool) or not isinstance(paragraph_index, int):
            raise SchemaError(f"{pointer}/paragraph_index", "must be an integer")
        # rules write a paragraph's position, the LLM adapter a position
        # or -1 for a passage it could not place, and neither an empty text
        if paragraph_index < -1:
            raise SchemaError(f"{pointer}/paragraph_index", "must be -1 or more")
        if not isinstance(text, str):
            raise SchemaError(f"{pointer}/text", "must be a string")
        if not text:
            raise SchemaError(f"{pointer}/text", "must not be empty")
        if not isinstance(quote, str):
            raise SchemaError(f"{pointer}/quote", "must be a string")
        if not isinstance(citations, list):
            raise SchemaError(f"{pointer}/citations", "must be a list")
        if trigger is not None:
            trigger = type(trigger) is str and _TRIGGERS.get(trigger) or _member(Trigger, trigger, pointer, "trigger")
        if "pol_type" not in data:
            raise SchemaError(f"{pointer}/pol_type", "missing field")
        pol_type = data["pol_type"]
        pol_type = type(pol_type) is str and _POL_TYPES.get(pol_type) or _member(PoLType, pol_type, pointer, "pol_type")
        try:
            citations = tuple(map(CitationRef.from_dict, citations))
        except SchemaError:  # decoded again with pointers, which are built only to name the failure
            for i, citation in enumerate(citations):
                CitationRef.from_dict(citation, f"{pointer}/citations/{i}")
            raise
        source = data.get("source", "Rules")
        source = type(source) is str and _SOURCES.get(source) or _member(Source, source, pointer, "source")
        return cls(doc_id, paragraph_index, text, quote, trigger, pol_type, citations, source)


# each enum's members by value, so that a decoder skips Enum.__call__
_TRIGGERS, _POL_TYPES, _SOURCES = ({member.value: member for member in kind} for kind in (Trigger, PoLType, Source))


def _member(kind: type[Enum], value: object, pointer: str, field: str) -> Enum:
    """The member of ``kind`` whose value is ``value``; a SchemaError at ``pointer/field`` otherwise."""
    try:
        return kind(value)
    except (ValueError, TypeError) as exc:
        raise SchemaError(f"{pointer}/{field}", str(exc)) from None


def classify(quote: str, citations: tuple[CitationRef, ...] | list[CitationRef]) -> PoLType:
    """Type a hit from its evidence: quote plus citation is explicit-direct,
    citation without quote is explicit-indirect, anything else implicit."""
    if citations:
        return PoLType.EXPLICIT_DIRECT if quote else PoLType.EXPLICIT_INDIRECT
    return PoLType.IMPLICIT


def typed_candidate(
    doc_id: str, paragraph_index: int, text: str, quote: str, trigger: Trigger | None, source: Source
) -> PoLCandidate:
    """The candidate for ``text``, with the citations found in it and the
    type ``classify`` gives its quote and those citations: rules and LLM
    candidates are typed by this one rule."""
    citations = tuple(find_citations(text))
    return PoLCandidate(doc_id, paragraph_index, text, quote, trigger, classify(quote, citations), citations, source)


def extract_candidates(document: Document, profile: RuleProfile) -> list[PoLCandidate]:
    """Run the profile over every paragraph and return typed candidates,
    at most one per paragraph."""
    candidates: list[PoLCandidate] = []
    for index, text in enumerate(document.paragraphs):
        quotes = find_quotes(text, profile)
        # keyword hits are looked for only where the profile's logic reads them
        if profile.conjunctive:
            if quotes and match_keywords(text, profile):
                quote, trigger = quotes[0].text, Trigger.QUOTE_AND_KEYWORD
            elif citation_at_end(text, profile):
                quote, trigger = "", Trigger.CITATION_AT_END
            else:
                continue
        elif quotes:
            quote, trigger = quotes[0].text, Trigger.QUOTE_ONLY
        elif citation_at_end(text, profile):
            quote, trigger = "", Trigger.CITATION_ANYWHERE
        elif match_keywords(text, profile):
            quote, trigger = "", Trigger.KEYWORD_ONLY
        else:
            continue
        candidates.append(typed_candidate(document.doc_id, index, text, quote, trigger, Source.RULES))
    return candidates


CSV_HEADER = ("Paragraph", "Quote")


def emit_csv(
    candidates: list[PoLCandidate],
    input_filename: str | Path,
    output_directory: str | Path,
) -> Path:
    """Write ``<output_directory>/<basename>.csv`` and return its path.

    UTF-8, LF line endings, header ``Paragraph,Quote``, one row per candidate
    in paragraph order, minimal CSV quoting. The file is replaced whole.
    """
    out_path = Path(output_directory) / (Path(input_filename).stem + ".csv")
    with atomic_write(out_path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for cand in sorted(candidates, key=lambda c: c.paragraph_index):
            writer.writerow([cand.text, cand.quote])
    return out_path


def save_candidates_jsonl(candidates: list[PoLCandidate], path: str | Path) -> Path:
    p = Path(path)
    # the encoder json.dumps(..., ensure_ascii=False) builds per call, built once
    encode = json.JSONEncoder(ensure_ascii=False).encode
    with atomic_write(p) as fh:
        fh.writelines(encode(cand.to_dict()) + "\n" for cand in candidates)
    return p


def load_candidates_jsonl(path: str | Path) -> list[PoLCandidate]:
    candidates, raw_decode = [], json.JSONDecoder().raw_decode
    with open(path, encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh):
                try:  # json.loads' value, where a line holds one value and a newline
                    data, end = raw_decode(line)
                    if line[end:] not in ("\n", ""):
                        data = json.loads(line)
                except ValueError:  # JSONDecodeError, or an integer past int()'s 4,300 digits
                    if not line.strip():
                        continue
                    try:
                        data = json.loads(line)
                    except ValueError as exc:
                        raise SchemaError(f"/{lineno}", f"invalid JSON: {exc}") from exc
                try:
                    candidates.append(PoLCandidate.from_dict(data))
                except SchemaError:  # decoded again with the line's pointer
                    PoLCandidate.from_dict(data, f"/{lineno}")
                    raise
        # the file is decoded a block at a time, ahead of the line being read
        except UnicodeDecodeError as exc:
            raise SchemaError("/", f"not UTF-8 text: {exc}") from exc
    return candidates
