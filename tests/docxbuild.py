"""Minimal .docx factory for test fixtures, stdlib only."""

from __future__ import annotations

import zipfile
from pathlib import Path
from xml.sax.saxutils import escape

W_XMLNS = "http://schemas.openxmlformats.org/wordprocessingml/2006/main"

_CONTENT_TYPES = """<?xml version="1.0" encoding="UTF-8" standalone="yes"?>
<Types xmlns="http://schemas.openxmlformats.org/package/2006/content-types">
<Default Extension="rels" ContentType="application/vnd.openxmlformats-package.relationships+xml"/>
<Default Extension="xml" ContentType="application/xml"/>
<Override PartName="/word/document.xml" ContentType="application/vnd.openxmlformats-officedocument.wordprocessingml.document.main+xml"/>
<Override PartName="/docProps/app.xml" ContentType="application/vnd.openxmlformats-officedocument.extended-properties+xml"/>
</Types>
"""

_RELS = """<?xml version="1.0" encoding="UTF-8" standalone="yes"?>
<Relationships xmlns="http://schemas.openxmlformats.org/package/2006/relationships">
<Relationship Id="rId1" Type="http://schemas.openxmlformats.org/officeDocument/2006/relationships/officeDocument" Target="word/document.xml"/>
<Relationship Id="rId2" Type="http://schemas.openxmlformats.org/package/2006/relationships/metadata/extended-properties" Target="docProps/app.xml"/>
</Relationships>
"""

Run = tuple[str, str | None]  # (text, highlight color or None)


def _run_xml(text: str, highlight: str | None) -> str:
    rpr = f'<w:rPr><w:highlight w:val="{highlight}"/></w:rPr>' if highlight else ""
    return f'<w:r>{rpr}<w:t xml:space="preserve">{escape(text)}</w:t></w:r>'


def make_docx(
    path: str | Path,
    paragraphs: list[str | list[Run]],
    pages: int | None = None,
    body_extra_xml: str = "",
) -> Path:
    """Write a .docx whose body holds the given paragraphs.

    Each paragraph is either a plain string (one unhighlighted run) or a
    list of (text, highlight) runs. ``body_extra_xml`` is injected after the
    paragraphs (e.g. a w:tbl element that loaders must ignore).
    """
    parts = []
    for para in paragraphs:
        runs: list[Run] = [(para, None)] if isinstance(para, str) else para
        parts.append("<w:p>" + "".join(_run_xml(t, h) for t, h in runs) + "</w:p>")
    document = (
        '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
        f'<w:document xmlns:w="{W_XMLNS}"><w:body>'
        + "".join(parts)
        + body_extra_xml
        + "</w:body></w:document>"
    )
    app = (
        '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
        '<Properties xmlns="http://schemas.openxmlformats.org/officeDocument/2006/extended-properties">'
        f"<Pages>{pages}</Pages></Properties>"
        if pages is not None
        else None
    )
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with zipfile.ZipFile(p, "w", zipfile.ZIP_DEFLATED) as zf:
        zf.writestr("[Content_Types].xml", _CONTENT_TYPES)
        zf.writestr("_rels/.rels", _RELS)
        zf.writestr("word/document.xml", document)
        if app is not None:
            zf.writestr("docProps/app.xml", app)
    return p


def truncate_file(path: str | Path, keep_bytes: int = 120) -> Path:
    """Corrupt a file by keeping only its first bytes."""
    p = Path(path)
    data = p.read_bytes()
    p.write_bytes(data[:keep_bytes])
    return p


# the compression a member must be written with for each kind of damage
DAMAGE_COMPRESSION = {
    "crc": zipfile.ZIP_STORED,
    "deflate": zipfile.ZIP_DEFLATED,
    "lzma": zipfile.ZIP_LZMA,
    "encrypted": zipfile.ZIP_STORED,
    "method": zipfile.ZIP_STORED,
    "size": zipfile.ZIP_DEFLATED,
}


def damage_member(path: str | Path, part: str, kind: str) -> Path:
    """Damage the member ``part`` of the zip at ``path`` in place, written
    with ``DAMAGE_COMPRESSION[kind]``, so that reading it raises:

    - ``crc``: its first stored byte becomes ``X``: a CRC mismatch
      (``zipfile.BadZipFile``);
    - ``deflate``: its deflate stream opens with a reserved block type
      (``zlib.error``);
    - ``lzma``: its LZMA stream's first byte, always 0, becomes 0xFF
      (``lzma.LZMAError``; ``corpus`` refuses an LZMA member before
      reading it);
    - ``encrypted``: its encryption flag is set (``RuntimeError``);
    - ``method``: its compression method becomes 99, which no ``zipfile``
      reads (``NotImplementedError``);
    - ``size``: its declared size becomes 1 byte in both headers, so
      ``zipfile`` stops after one byte and fails the CRC
      (``zipfile.BadZipFile``), however far the stream inflates.
    """
    p = Path(path)
    with zipfile.ZipFile(p) as zf:
        info = zf.getinfo(part)
    assert info.compress_type == DAMAGE_COMPRESSION[kind], (part, kind)
    data = bytearray(p.read_bytes())
    local = info.header_offset
    # the local header is 30 bytes, then the name and the extra field
    start = local + 30 + int.from_bytes(data[local + 26:local + 28], "little") \
        + int.from_bytes(data[local + 28:local + 30], "little")
    # the central directory record, whose name starts 46 bytes in
    central = data.index(part.encode(), data.index(b"PK\x01\x02")) - 46
    if kind == "crc":
        data[start] = ord("X")
    elif kind == "deflate":
        data[start] = 0xFF
    elif kind == "lzma":
        # zipfile's LZMA header: 2 bytes of version, 2 of size, 5 of properties
        data[start + 9] = 0xFF
    elif kind == "encrypted":
        data[local + 6] |= 1
        data[central + 8] |= 1
    elif kind == "method":
        data[local + 8] = data[central + 10] = 99
    else:
        size = (1).to_bytes(4, "little")
        data[local + 22:local + 26] = data[central + 24:central + 28] = size
    p.write_bytes(bytes(data))
    return p
