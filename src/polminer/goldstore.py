"""Ingest, validate and persist gold principle-of-law annotations.

Gold spans come from highlight runs inside .docx files: yellow marks
explicit-direct, blue or cyan explicit-indirect, gray implicit. Adjacent runs
sharing a color merge into a single annotation.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path
from typing import NamedTuple, Sequence
from xml.etree import ElementTree as ET

from .corpus import W, docx_paragraphs, open_docx
from .errors import DuplicateHighlightWarning, SchemaError, UnknownColorWarning
from .extractor import _POL_TYPES, PoLType
from .outfile import atomic_write
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
# WordprocessingML tags, built once rather than for every run
_W_RPR = W + "rPr"
_W_HIGHLIGHT = W + "highlight"
_W_VAL = W + "val"


class GoldAnnotation(NamedTuple):
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
        if not isinstance(data, dict):
            raise SchemaError(pointer, "must be an object")
        try:
            doc_id, index = data["doc_id"], data["paragraph_index"]
            span_text, pol_type = data["span_text"], data["pol_type"]
        except KeyError as exc:
            raise SchemaError(f"{pointer}/{exc.args[0]}", "missing field") from None
        origin, annotator_id = data.get("origin", "Human"), data.get("annotator_id")
        if not isinstance(doc_id, str):
            raise SchemaError(f"{pointer}/doc_id", "must be a string")
        if not isinstance(span_text, str) or not span_text.strip():
            raise SchemaError(f"{pointer}/span_text", "must be a non-empty string")
        if isinstance(index, bool) or not isinstance(index, int) or index < 0:
            raise SchemaError(f"{pointer}/paragraph_index", "must be a non-negative integer")
        try:
            pol_type = type(pol_type) is str and _POL_TYPES.get(pol_type) or PoLType(pol_type)
        except ValueError:
            raise SchemaError(f"{pointer}/pol_type", f"expected one of {list(_POL_TYPES)}, got {pol_type!r}") from None
        if origin not in ("Human", "ToolConfirmed"):
            raise SchemaError(f"{pointer}/origin", f"unknown origin {origin!r}")
        if annotator_id is not None and not isinstance(annotator_id, str):
            raise SchemaError(f"{pointer}/annotator_id", "must be a string or null")
        return cls(doc_id, index, span_text, pol_type, annotator_id, origin)


def _run_highlight(run: ET.Element) -> str | None:
    rpr = run.find(_W_RPR)
    if rpr is None:
        return None
    hl = rpr.find(_W_HIGHLIGHT)
    if hl is None:
        return None
    return hl.get(_W_VAL)


def import_docx_highlights(path: str | Path, annotator_id: str | None = None) -> list[GoldAnnotation]:
    """Extract highlight-run annotations from a .docx file.

    Adjacent runs with the same highlight color merge into one annotation;
    colors outside the scheme raise an UnknownColorWarning and are skipped.
    A span with the normalized text of an earlier span in its paragraph is
    imported once, with a DuplicateHighlightWarning. The paragraphs, their
    indices and their text are those ``corpus.load_document`` reads.
    """
    p = Path(path)
    annotations: list[GoldAnnotation] = []
    seen: set[tuple[str, int, str]] = set()
    with open_docx(p) as archive:
        paragraphs = docx_paragraphs(archive)
    for index, runs in enumerate(paragraphs):
        spans: list[tuple[str, str]] = []  # (color, text)
        current_color: str | None = None
        for run, text in runs:
            color = _run_highlight(run)
            if color in (None, "none"):
                current_color = None
            elif color == current_color:
                spans[-1] = (color, spans[-1][1] + text)
            else:
                spans.append((color, text))
                current_color = color
        for color, text in spans:
            if color not in HIGHLIGHT_TYPE_MAP:
                warnings.warn(
                    f"paragraph {index}: ignoring highlight color {color!r}",
                    UnknownColorWarning,
                    stacklevel=2,
                )
                continue
            if not text.strip():
                continue
            ann = GoldAnnotation(
                doc_id=p.name,
                paragraph_index=index,
                span_text=text,
                pol_type=HIGHLIGHT_TYPE_MAP[color],
                annotator_id=annotator_id,
                origin="Human",
            )
            key = ann.key()
            if key in seen:
                warnings.warn(
                    f"paragraph {index}: duplicate highlight {text[:60]!r} imported once",
                    DuplicateHighlightWarning,
                    stacklevel=2,
                )
                continue
            seen.add(key)
            annotations.append(ann)
    return annotations


def save_gold(gold: Sequence[GoldAnnotation], path: str | Path) -> Path:
    p = Path(path)
    payload = {"annotations": [a.to_dict() for a in gold]}
    with atomic_write(p) as fh:
        fh.write(json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=True) + "\n")
    return p


def load_gold(path: str | Path) -> tuple[GoldAnnotation, ...]:
    """The file's annotations in file order; a duplicate key is a ``SchemaError``."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # bytes that are not UTF-8 too
        raise SchemaError("/", f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict) or "annotations" not in data:
        raise SchemaError("/annotations", "missing annotations list")
    if not isinstance(data["annotations"], list):
        raise SchemaError("/annotations", "must be a list")
    annotations = [GoldAnnotation.from_dict(entry, f"/annotations/{i}") for i, entry in enumerate(data["annotations"])]
    seen: set[tuple[str, int, str]] = set()
    for i, ann in enumerate(annotations):
        key = ann.key()
        if key in seen:
            raise SchemaError(
                f"/annotations/{i}",
                f"duplicate annotation {ann.doc_id}#{ann.paragraph_index}: {ann.span_text[:60]!r}",
            )
        seen.add(key)
    return tuple(annotations)
