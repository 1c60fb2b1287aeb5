"""Ingest judgment documents (.docx or plaintext) into an ordered-paragraph model.

Only body-level paragraphs of a .docx are read; footnotes, headers, and
tables are out of scope. Quotation-mark codepoints are preserved exactly as
stored, since downstream pattern matching depends on them.
"""

from __future__ import annotations

import re
import zipfile
import zlib
from pathlib import Path
from typing import NamedTuple
from xml.etree import ElementTree as ET

from .errors import DirectoryNotFound, EncodingError, MalformedArchive

# a bad header or CRC, a corrupt deflate stream, encryption, a method other
# than stored or deflated, a member inflating past MAX_DOCX_PART_BYTES
_UNREADABLE = (zipfile.BadZipFile, OSError, zlib.error, RuntimeError, NotImplementedError)
# The most a .docx member may inflate to, about 10,000 pages of
# WordprocessingML. A member is read a chunk at a time, whatever size its
# header declares, so a small archive inflates at most this and one chunk.
# Only stored and deflated members are read (Word writes no other), since
# zipfile inflates a read of LZMA or bzip2 data with no bound.
MAX_DOCX_PART_BYTES = 64 << 20
_DOCX_CHUNK_BYTES = 1 << 20

W_NS = "http://schemas.openxmlformats.org/wordprocessingml/2006/main"
W = "{%s}" % W_NS
_MC = "{http://schemas.openxmlformats.org/markup-compatibility/2006}"
_EXT_PROPS_NS = "{http://schemas.openxmlformats.org/officeDocument/2006/extended-properties}"
# WordprocessingML tags, built once rather than at every node the walk tests
_W_BODY = W + "body"
_W_P = W + "p"
_W_R = W + "r"
_W_T = W + "t"
_W_TAB = W + "tab"
_W_BREAKS = (W + "br", W + "cr")

# judgment suffixes, matched in any case; a corpus lists .docx before .txt
DOCX_SUFFIX = ".docx"
JUDGMENT_SUFFIXES = (DOCX_SUFFIX, ".txt")
NOT_UTF8_NAME = "file name is not UTF-8"

# The first lone surrogate of a str, or None. No UTF-8 text holds one, so
# no output file can: yet a file name's bytes that are not UTF-8 decode to
# lone surrogates (PEP 383), and so does a JSON escape such as "\udcff",
# since json.loads pairs the escapes of one character.
find_lone_surrogate = re.compile(r"[\ud800-\udfff]").search


class Document(NamedTuple):
    """A judgment as its paragraph texts; a paragraph's index is its position."""

    doc_id: str
    paragraphs: tuple[str, ...]
    page_count: int | None

    @property
    def text(self) -> str:
        """Full document text: the paragraphs joined by newlines."""
        return "\n".join(self.paragraphs)


class LoadWarning(NamedTuple):
    path: str
    reason: str


def is_docx(path: str | Path) -> bool:
    return Path(path).suffix.lower() == DOCX_SUFFIX


def list_judgments(directory: str | Path) -> tuple[list[Path], list[LoadWarning]]:
    """The judgment files in ``directory``, and a warning for every other file.

    Judgments are the .docx and .txt files, whatever the case of their
    suffix: .docx first, then .txt, each group sorted by name ignoring case.
    A judgment whose name is not UTF-8 is skipped with a warning: its name
    is its doc_id, which no output file could hold.
    """
    d = Path(directory)
    if not d.is_dir():
        raise DirectoryNotFound(f"no such directory: {d}")
    entries = sorted(
        (p for p in d.iterdir() if p.is_file()),
        key=lambda p: (p.suffix.lower(), p.name.lower(), p.name),
    )
    judgments, skipped = [], []
    for p in entries:
        if p.suffix.lower() not in JUDGMENT_SUFFIXES:
            skipped.append(LoadWarning(str(p), "unrecognized extension"))
        elif find_lone_surrogate(p.name):
            skipped.append(LoadWarning(str(p), NOT_UTF8_NAME))
        else:
            judgments.append(p)
    return judgments, skipped


def open_docx(path: Path) -> zipfile.ZipFile:
    """The .docx archive at ``path``, open for reading; the caller closes it."""
    try:
        return zipfile.ZipFile(path)
    except _UNREADABLE as exc:
        raise MalformedArchive(path, f"not a readable .docx archive ({exc})") from exc


def _docx_part(archive: zipfile.ZipFile, part: str) -> bytes | None:
    chunks, size = [], 0
    try:
        with archive.open(part) as member:
            method = archive.getinfo(part).compress_type
            if method not in (zipfile.ZIP_STORED, zipfile.ZIP_DEFLATED):
                raise NotImplementedError(f"{part} uses compression method {method}, not stored or deflated")
            while chunk := member.read(_DOCX_CHUNK_BYTES):
                size += len(chunk)
                if size > MAX_DOCX_PART_BYTES:
                    raise zipfile.BadZipFile(f"{part} inflates past {MAX_DOCX_PART_BYTES:,} bytes")
                chunks.append(chunk)
    except KeyError:
        return None
    except _UNREADABLE as exc:
        raise MalformedArchive(archive.filename, f"not a readable .docx archive ({exc})") from exc
    return b"".join(chunks)


def docx_paragraph_elements(archive: zipfile.ZipFile) -> list[ET.Element]:
    """Body-level w:p elements of the main document part, in document order.

    Word stores a text box twice, as a DrawingML mc:Choice and a VML
    mc:Fallback; every mc:Fallback is removed, so its text is read once.
    """
    path = archive.filename
    data = _docx_part(archive, "word/document.xml")
    if data is None:
        raise MalformedArchive(path, "missing word/document.xml")
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        raise MalformedArchive(path, f"unparseable document XML ({exc})") from exc
    body = root.find(_W_BODY)
    if body is None:
        raise MalformedArchive(path, "document XML has no body")
    for alternate in list(body.iter(_MC + "AlternateContent")):
        for fallback in alternate.findall(_MC + "Fallback"):
            alternate.remove(fallback)
    return body.findall(_W_P)


def run_text(run: ET.Element) -> str:
    """Text of one w:r from its direct w:t, w:tab, w:br and w:cr children.

    Only direct children count: a text box inside the run holds runs of its
    own, which the paragraph reads in turn.
    """
    parts: list[str] = []
    for node in run:
        tag = node.tag
        if tag == _W_T:
            parts.append(node.text or "")
        elif tag == _W_TAB:
            parts.append("\t")
        elif tag in _W_BREAKS:
            parts.append("\n")
    return "".join(parts)


def _docx_page_count(archive: zipfile.ZipFile) -> int | None:
    data = _docx_part(archive, "docProps/app.xml")
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


def _plaintext_paragraphs(path: Path) -> list[str]:
    try:
        raw = path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise EncodingError(path, f"not valid UTF-8 ({exc})") from exc
    # a byte order mark is not text; decoding as utf-8-sig would drop it
    # too, but then a decode error's offset would not count its 3 bytes
    raw = raw.removeprefix("\ufeff")
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


def load_document(path: str | Path) -> Document:
    """Load one judgment from ``path``: a .docx when its suffix says so, in
    any case, UTF-8 plaintext otherwise.

    Whitespace-only paragraphs are dropped before indexing so paragraph
    indices are stable for alignment.
    """
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"no such file: {p}")
    if is_docx(p):
        # both parts come from one open of the archive
        with open_docx(p) as archive:
            # each paragraph's runs joined; import_docx_highlights keeps the same paragraphs
            joined = ("".join(map(run_text, p_elem.iter(_W_R))) for p_elem in docx_paragraph_elements(archive))
            texts = [text for text in joined if text.strip()]
            pages = _docx_page_count(archive)
    else:
        texts, pages = _plaintext_paragraphs(p), None
    return Document(p.name, tuple(texts), pages)
