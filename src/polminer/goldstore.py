"""Ingest, validate, persist, and augment gold principle-of-law annotations.

Gold spans come from highlight runs inside .docx files: yellow marks
explicit-direct, blue or cyan explicit-indirect, gray implicit. Adjacent runs
sharing a color merge into a single annotation.
"""

from __future__ import annotations

import json
import warnings
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from xml.etree import ElementTree as ET

from .corpus import W, docx_paragraph_elements, run_text
from .errors import (
    DuplicateAnnotation,
    OverlappingHighlights,
    SchemaError,
    UnknownColorWarning,
)
from .extractor import PoLCandidate, PoLType
from .textnorm import normalize_text

HIGHLIGHT_TYPE_MAP = {
    "yellow": PoLType.EXPLICIT_DIRECT,
    "blue": PoLType.EXPLICIT_INDIRECT,
    "cyan": PoLType.EXPLICIT_INDIRECT,
    "darkBlue": PoLType.EXPLICIT_INDIRECT,
    "darkCyan": PoLType.EXPLICIT_INDIRECT,
    "lightGray": PoLType.IMPLICIT,
    "darkGray": PoLType.IMPLICIT,
}


@dataclass(frozen=True)
class GoldAnnotation:
    doc_id: str
    paragraph_index: int
    span_text: str
    pol_type: PoLType
    annotator_id: str | None = None
    origin: str = "Human"  # Human | ToolConfirmed

    def key(self) -> tuple[str, int, str]:
        return (self.doc_id, self.paragraph_index, normalize_text(self.span_text))

    def to_dict(self) -> dict:
        return {
            "doc_id": self.doc_id,
            "paragraph_index": self.paragraph_index,
            "span_text": self.span_text,
            "pol_type": self.pol_type.value,
            "annotator_id": self.annotator_id,
            "origin": self.origin,
        }

    @classmethod
    def from_dict(cls, data: dict, pointer: str) -> "GoldAnnotation":
        for fieldname in ("doc_id", "paragraph_index", "span_text", "pol_type"):
            if fieldname not in data:
                raise SchemaError(f"{pointer}/{fieldname}", "missing field")
        if not isinstance(data["span_text"], str) or not data["span_text"].strip():
            raise SchemaError(f"{pointer}/span_text", "must be a non-empty string")
        if not isinstance(data["paragraph_index"], int) or data["paragraph_index"] < 0:
            raise SchemaError(f"{pointer}/paragraph_index", "must be a non-negative integer")
        try:
            pol_type = PoLType(data["pol_type"])
        except ValueError:
            raise SchemaError(
                f"{pointer}/pol_type",
                f"expected one of {[t.value for t in PoLType]}, got {data['pol_type']!r}",
            ) from None
        origin = data.get("origin", "Human")
        if origin not in ("Human", "ToolConfirmed"):
            raise SchemaError(f"{pointer}/origin", f"unknown origin {origin!r}")
        return cls(
            doc_id=str(data["doc_id"]),
            paragraph_index=data["paragraph_index"],
            span_text=data["span_text"],
            pol_type=pol_type,
            annotator_id=data.get("annotator_id"),
            origin=origin,
        )


@dataclass(frozen=True)
class GoldSet:
    annotations: tuple[GoldAnnotation, ...]

    @property
    def counts_by_type(self) -> dict[PoLType, int]:
        counts = Counter(a.pol_type for a in self.annotations)
        return {t: counts.get(t, 0) for t in PoLType}

    def __len__(self) -> int:
        return len(self.annotations)

    def for_doc(self, doc_id: str) -> list[GoldAnnotation]:
        return [a for a in self.annotations if a.doc_id == doc_id]

    def doc_ids(self) -> list[str]:
        seen: dict[str, None] = {}
        for a in self.annotations:
            seen.setdefault(a.doc_id, None)
        return list(seen)


def _check_duplicates(annotations: list[GoldAnnotation], schema: bool = False) -> None:
    seen: set[tuple[str, int, str]] = set()
    for i, ann in enumerate(annotations):
        key = ann.key()
        if key in seen:
            msg = f"duplicate annotation {ann.doc_id}#{ann.paragraph_index}: {ann.span_text[:60]!r}"
            if schema:
                raise SchemaError(f"/annotations/{i}", msg)
            raise DuplicateAnnotation(msg)
        seen.add(key)


def _run_highlight(run: ET.Element) -> str | None:
    rpr = run.find(W + "rPr")
    if rpr is None:
        return None
    hl = rpr.find(W + "highlight")
    if hl is None:
        return None
    return hl.get(W + "val")


def import_docx_highlights(path: str | Path, annotator_id: str | None = None) -> list[GoldAnnotation]:
    """Extract highlight-run annotations from a .docx file.

    Adjacent runs with the same highlight color merge into one annotation;
    colors outside the scheme raise an UnknownColorWarning and are skipped.
    Paragraph indices match ``corpus.load_document`` (whitespace-only
    paragraphs dropped before indexing).
    """
    p = Path(path)
    annotations: list[GoldAnnotation] = []
    index = -1
    for p_elem in docx_paragraph_elements(p):
        runs = list(p_elem.iter(W + "r"))
        texts = [run_text(r) for r in runs]
        if not "".join(texts).strip():
            continue
        index += 1
        spans: list[tuple[str, str, int]] = []  # (color, text, start_offset)
        offset = 0
        current_color: str | None = None
        for run, text in zip(runs, texts):
            color = _run_highlight(run)
            if color in (None, "none"):
                current_color = None
            elif color == current_color and spans:
                spans[-1] = (color, spans[-1][1] + text, spans[-1][2])
            else:
                spans.append((color, text, offset))
                current_color = color
            offset += len(text)
        occupied: list[tuple[int, int]] = []
        for color, text, start in spans:
            if color not in HIGHLIGHT_TYPE_MAP:
                warnings.warn(
                    f"{p.name}#{index}: ignoring highlight color {color!r}",
                    UnknownColorWarning,
                    stacklevel=2,
                )
                continue
            if not text.strip():
                continue
            end = start + len(text)
            for s, e in occupied:
                if s < end and start < e:
                    raise OverlappingHighlights(
                        f"{p.name}#{index}: highlight spans overlap at offsets {start}..{end}"
                    )
            occupied.append((start, end))
            annotations.append(
                GoldAnnotation(
                    doc_id=p.name,
                    paragraph_index=index,
                    span_text=text,
                    pol_type=HIGHLIGHT_TYPE_MAP[color],
                    annotator_id=annotator_id,
                    origin="Human",
                )
            )
    _check_duplicates(annotations)
    return annotations


def save_gold(gold: GoldSet, path: str | Path) -> Path:
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    payload = {"annotations": [a.to_dict() for a in gold.annotations]}
    p.write_text(
        json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return p


def load_gold(path: str | Path) -> GoldSet:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError("/", f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict) or "annotations" not in data:
        raise SchemaError("/annotations", "missing annotations list")
    if not isinstance(data["annotations"], list):
        raise SchemaError("/annotations", "must be a list")
    annotations = [
        GoldAnnotation.from_dict(entry, pointer=f"/annotations/{i}")
        for i, entry in enumerate(data["annotations"])
    ]
    _check_duplicates(annotations, schema=True)
    return GoldSet(annotations=tuple(annotations))


def augment_gold(gold: GoldSet, confirmed: list[PoLCandidate]) -> GoldSet:
    """New GoldSet with human-confirmed tool candidates appended.

    The confirmed span is the captured quote when present, the full paragraph
    text otherwise. The input set is never modified.
    """
    existing = {a.key() for a in gold.annotations}
    added: list[GoldAnnotation] = []
    for cand in confirmed:
        ann = GoldAnnotation(
            doc_id=cand.doc_id,
            paragraph_index=cand.paragraph_index,
            span_text=cand.quote or cand.text,
            pol_type=cand.pol_type,
            annotator_id=None,
            origin="ToolConfirmed",
        )
        if ann.key() in existing:
            raise DuplicateAnnotation(
                f"already in gold: {ann.doc_id}#{ann.paragraph_index}: {ann.span_text[:60]!r}"
            )
        existing.add(ann.key())
        added.append(ann)
    return GoldSet(annotations=gold.annotations + tuple(added))

