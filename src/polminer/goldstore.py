"""Ingest, validate and persist gold principle-of-law annotations.

Gold spans come from highlight runs inside .docx files: yellow marks
explicit-direct, blue or cyan explicit-indirect, gray implicit. Adjacent runs
sharing a color merge into a single annotation.
"""

from __future__ import annotations

import json
import warnings
from json.encoder import encode_basestring
from pathlib import Path
from typing import NamedTuple, Sequence

from .corpus import W, docx_paragraph_elements, open_docx, run_text
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
_W_R = W + "r"
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
        """The annotation as gold.json holds it; ``save_gold`` writes these fields by template."""
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


def import_docx_highlights(path: str | Path, annotator_id: str | None = None) -> list[GoldAnnotation]:
    """Extract highlight-run annotations from a .docx file.

    Adjacent runs with the same highlight color merge into one annotation;
    colors outside the scheme raise an UnknownColorWarning and are skipped.
    A span with the normalized text of an earlier span in its paragraph is
    imported once, with a DuplicateHighlightWarning. Each run of
    ``corpus.docx_paragraph_elements`` is read once, for its ``run_text``
    and its highlight, and a paragraph counts by ``load_document``'s rule
    (some run text is more than whitespace), so the paragraphs, their
    indices and their text are those ``load_document`` reads.
    """
    p = Path(path)
    annotations: list[GoldAnnotation] = []
    seen: set[tuple[str, int, str]] = set()
    with open_docx(p) as archive:
        elements = docx_paragraph_elements(archive)
    index = 0
    for p_elem in elements:
        spans: list[tuple[str, list[str]]] = []  # (color, run texts), joined once
        current_color: str | None = None
        kept = False
        for run in p_elem.iter(_W_R):
            text = run_text(run)
            kept = kept or text.strip() != ""
            rpr = run.find(_W_RPR)
            highlight = None if rpr is None else rpr.find(_W_HIGHLIGHT)
            color = None if highlight is None else highlight.get(_W_VAL)
            if color is None or color == "none":
                current_color = None
            elif color == current_color:
                spans[-1][1].append(text)
            else:
                spans.append((color, [text]))
                current_color = color
        if not kept:
            continue
        for color, texts in spans:
            if color not in HIGHLIGHT_TYPE_MAP:
                warnings.warn(
                    f"paragraph {index}: ignoring highlight color {color!r}",
                    UnknownColorWarning,
                    stacklevel=2,
                )
                continue
            text = "".join(texts)
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
        index += 1
    return annotations


# One annotation of gold.json as json.dumps(..., ensure_ascii=False,
# indent=2, sort_keys=True) writes it inside the annotations list: keys in
# sorted order, each string through the same C encoder json.dumps uses.
_GOLD_ENTRY = """    {
      "annotator_id": %s,
      "doc_id": %s,
      "origin": %s,
      "paragraph_index": %d,
      "pol_type": %s,
      "span_text": %s
    }"""


def save_gold(gold: Sequence[GoldAnnotation], path: str | Path) -> Path:
    """Write ``gold`` as ``json.dumps({"annotations": [a.to_dict() ...]},
    ensure_ascii=False, indent=2, sort_keys=True)`` plus a newline would.

    CPython runs its pure-Python encoder whenever ``indent`` is set, so the
    fixed layout of an annotation is filled in here instead, several times
    faster; ``tests/test_gold_format_equivalence.py`` pins every byte to
    ``json.dumps``.
    """
    p = Path(path)
    entries = ",\n".join([
        _GOLD_ENTRY % (
            "null" if a.annotator_id is None else encode_basestring(a.annotator_id),
            encode_basestring(a.doc_id),
            encode_basestring(a.origin),
            a.paragraph_index,
            encode_basestring(a.pol_type.value),
            encode_basestring(a.span_text),
        )
        for a in gold
    ])
    with atomic_write(p) as fh:
        fh.write(f'{{\n  "annotations": [\n{entries}\n  ]\n}}\n' if entries else '{\n  "annotations": []\n}\n')
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
