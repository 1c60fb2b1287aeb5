"""Ingest judgment documents (.docx or plaintext) into an ordered-paragraph model.

Only body-level paragraphs of a .docx are read; footnotes, headers, and
tables are out of scope. Quotation-mark codepoints are preserved exactly as
stored, since downstream pattern matching depends on them.
"""

from __future__ import annotations

import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from xml.etree import ElementTree as ET

from .errors import DirectoryNotFound, EncodingError, MalformedArchive

W_NS = "http://schemas.openxmlformats.org/wordprocessingml/2006/main"
W = "{%s}" % W_NS
_EXT_PROPS_NS = "{http://schemas.openxmlformats.org/officeDocument/2006/extended-properties}"

DOCX_SUFFIXES = {".docx"}
PLAINTEXT_SUFFIXES = {".txt"}


@dataclass(frozen=True)
class Paragraph:
    index: int
    text: str
    char_offset: int


@dataclass(frozen=True)
class Document:
    doc_id: str
    paragraphs: tuple[Paragraph, ...]
    page_count: int | None
    source_path: str

    @property
    def text(self) -> str:
        """Full document text; paragraph ``char_offset`` values index into it."""
        return "\n".join(p.text for p in self.paragraphs)


@dataclass(frozen=True)
class LoadWarning:
    path: str
    reason: str


@dataclass
class CorpusLoadResult:
    documents: list[Document]
    warnings: list[LoadWarning] = field(default_factory=list)


def _open_docx_part(path: Path, part: str) -> bytes | None:
    try:
        with zipfile.ZipFile(path) as zf:
            try:
                return zf.read(part)
            except KeyError:
                return None
    except (zipfile.BadZipFile, OSError) as exc:
        raise MalformedArchive(f"{path}: not a readable .docx archive ({exc})") from exc


def docx_paragraph_elements(path: Path) -> list[ET.Element]:
    """Body-level w:p elements of the main document part, in document order."""
    data = _open_docx_part(path, "word/document.xml")
    if data is None:
        raise MalformedArchive(f"{path}: missing word/document.xml")
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        raise MalformedArchive(f"{path}: unparseable document XML ({exc})") from exc
    body = root.find(W + "body")
    if body is None:
        raise MalformedArchive(f"{path}: document XML has no body")
    return [child for child in body if child.tag == W + "p"]


def run_text(run: ET.Element) -> str:
    """Text of one w:r from its direct w:t, w:tab, w:br and w:cr children.

    Only direct children count: a text box inside the run holds runs of its
    own, which the paragraph reads in turn.
    """
    parts: list[str] = []
    for node in run:
        tag = node.tag
        if tag == W + "t":
            parts.append(node.text or "")
        elif tag == W + "tab":
            parts.append("\t")
        elif tag in (W + "br", W + "cr"):
            parts.append("\n")
    return "".join(parts)


def paragraph_element_text(p_elem: ET.Element) -> str:
    """Concatenated text of every run in a paragraph, nested runs included.

    The tab stops a w:pPr defines are not text; gold import reads the same
    runs, so highlight spans line up with this text.
    """
    return "".join(run_text(r) for r in p_elem.iter(W + "r"))


def _docx_page_count(path: Path) -> int | None:
    data = _open_docx_part(path, "docProps/app.xml")
    if data is None:
        return None
    try:
        root = ET.fromstring(data)
    except ET.ParseError:
        return None
    pages = root.find(_EXT_PROPS_NS + "Pages")
    if pages is None or pages.text is None:
        return None
    try:
        n = int(pages.text.strip())
    except ValueError:
        return None
    return n if n > 0 else None


def docx_paragraph_texts(path: Path) -> list[str]:
    """Raw body paragraph texts, whitespace-only ones dropped.

    Gold import drops the same paragraphs, with the same run text, so
    paragraph indices agree between loaded documents and imported highlights.
    """
    texts = [paragraph_element_text(p) for p in docx_paragraph_elements(path)]
    return [t for t in texts if t.strip()]


def _plaintext_paragraphs(path: Path) -> list[str]:
    try:
        raw = path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise EncodingError(f"{path}: not valid UTF-8 ({exc})") from exc
    blocks: list[str] = []
    current: list[str] = []
    for line in raw.splitlines():
        if line.strip():
            current.append(line.strip())
        elif current:
            blocks.append(" ".join(current))
            current = []
    if current:
        blocks.append(" ".join(current))
    return blocks


def _assemble(doc_id: str, texts: list[str], page_count: int | None, source: Path) -> Document:
    paragraphs = []
    offset = 0
    for i, text in enumerate(texts):
        paragraphs.append(Paragraph(index=i, text=text, char_offset=offset))
        offset += len(text) + 1  # separator in Document.text
    return Document(
        doc_id=doc_id,
        paragraphs=tuple(paragraphs),
        page_count=page_count,
        source_path=str(source),
    )


def load_document(path: str | Path, format: str | None = None) -> Document:
    """Load one judgment from ``path``.

    ``format`` is ``"docx"`` or ``"plaintext"``; by default it is inferred
    from the file suffix. Whitespace-only paragraphs are dropped before
    indexing so paragraph indices are stable for alignment.
    """
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"no such file: {p}")
    if format is None:
        format = "docx" if p.suffix.lower() in DOCX_SUFFIXES else "plaintext"
    if format == "docx":
        texts = docx_paragraph_texts(p)
        pages = _docx_page_count(p)
    elif format == "plaintext":
        texts = _plaintext_paragraphs(p)
        pages = None
    else:
        raise ValueError(f"unknown format {format!r}")
    return _assemble(p.name, texts, pages, p)


def load_corpus(directory: str | Path) -> CorpusLoadResult:
    """Load every recognized file in ``directory``.

    Files are processed .docx first, then .txt, each group sorted by name.
    Unrecognized files and per-file load failures become warning records;
    they never abort the batch.
    """
    d = Path(directory)
    if not d.is_dir():
        raise DirectoryNotFound(f"no such directory: {d}")
    result = CorpusLoadResult(documents=[])
    entries = sorted(
        (p for p in d.iterdir() if p.is_file()),
        key=lambda p: (p.suffix.lower(), p.name.lower()),
    )
    for entry in entries:
        if entry.suffix.lower() not in DOCX_SUFFIXES | PLAINTEXT_SUFFIXES:
            result.warnings.append(LoadWarning(str(entry), "unrecognized extension"))
            continue
        try:
            result.documents.append(load_document(entry))
        except (MalformedArchive, EncodingError, OSError) as exc:
            result.warnings.append(LoadWarning(str(entry), str(exc)))
    return result
