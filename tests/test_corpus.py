from __future__ import annotations

import tracemalloc
import zipfile

import pytest

from docxbuild import DAMAGE_COMPRESSION, damage_member, make_docx, truncate_file
from polminer import corpus
from polminer.corpus import W_NS, list_judgments, load_document
from polminer.errors import DirectoryNotFound, EncodingError, MalformedArchive
from polminer.goldstore import import_docx_highlights


def test_docx_drops_empty_paragraphs(tmp_path):
    path = make_docx(tmp_path / "d.docx", ["A", "", "B"])
    doc = load_document(path)
    assert doc.paragraphs == ("A", "B")
    assert len(doc.paragraphs) == 2


def test_docx_paragraph_count_matches_manual_unzip(tmp_path):
    # 17 paragraph elements, 3 whitespace-only
    texts = [f"Paragrafo {i}" for i in range(14)] + ["", "  ", "\t"]
    path = make_docx(tmp_path / "many.docx", texts)
    with zipfile.ZipFile(path) as zf:
        xml = zf.read("word/document.xml").decode("utf-8")
    assert xml.count("<w:p>") == 17
    doc = load_document(path)
    assert len(doc.paragraphs) == 14


def test_docx_page_count_and_metadata(tmp_path, sample_docx):
    doc = load_document(sample_docx)
    assert doc.page_count == 5
    assert doc.doc_id == "s01.docx"
    no_pages = make_docx(tmp_path / "n.docx", ["Testo."])
    assert load_document(no_pages).page_count is None


def test_docx_preserves_quote_codepoints(tmp_path):
    text = "Misti “curly” «angle» ‘single’ \"straight\"."
    doc = load_document(make_docx(tmp_path / "q.docx", [text]))
    assert doc.paragraphs[0] == text


def test_docx_ignores_tables(tmp_path):
    table = (
        "<w:tbl><w:tr><w:tc><w:p><w:r><w:t>cella tabella</w:t></w:r></w:p>"
        "</w:tc></w:tr></w:tbl>"
    )
    doc = load_document(make_docx(tmp_path / "t.docx", ["Corpo."], body_extra_xml=table))
    assert doc.paragraphs == ("Corpo.",)


def test_docx_includes_hyperlink_wrapped_runs(tmp_path):
    # writers often wrap citation runs in w:hyperlink; the text must survive
    para = (
        "<w:p><w:r><w:t xml:space=\"preserve\">vedi </w:t></w:r>"
        "<w:hyperlink><w:r><w:t>Cass. n. 26972/2008</w:t></w:r></w:hyperlink>"
        "</w:p>"
    )
    doc = load_document(make_docx(tmp_path / "h.docx", ["Prima."], body_extra_xml=para))
    assert doc.paragraphs == ("Prima.", "vedi Cass. n. 26972/2008")


def test_docx_tab_stops_are_not_text(tmp_path):
    # w:pPr/w:tabs defines tab stops; only a w:tab inside a run is a tab
    para = (
        '<w:p><w:pPr><w:tabs><w:tab w:val="left" w:pos="720"/>'
        '<w:tab w:val="right" w:pos="9000"/></w:tabs></w:pPr>'
        "<w:r><w:t>Rubrica</w:t><w:tab/><w:t>pagina</w:t></w:r></w:p>"
    )
    doc = load_document(make_docx(tmp_path / "t.docx", [], body_extra_xml=para))
    assert doc.paragraphs == ("Rubrica\tpagina",)


def test_loaded_paragraphs_are_the_joined_runs_that_gold_import_reads(tmp_path):
    # load_document joins the runs itself, while import_docx_highlights
    # walks them for their highlights: a highlight lines up only where the
    # two agree. Every run is highlighted in one colour, so each paragraph
    # the import keeps is one span of its whole text.
    hl = '<w:rPr><w:highlight w:val="yellow"/></w:rPr>'
    box = f"<w:txbxContent><w:p><w:r>{hl}<w:t>riquadro</w:t></w:r></w:p></w:txbxContent>"
    text_box = (
        f'<w:r>{hl}<mc:AlternateContent xmlns:mc="http://schemas.openxmlformats.org/markup-compatibility/2006">'
        f'<mc:Choice Requires="wps"><w:drawing>{box}</w:drawing></mc:Choice>'
        f'<mc:Fallback><w:pict><v:shape xmlns:v="urn:schemas-microsoft-com:vml"><v:textbox>{box}'
        "</v:textbox></v:shape></w:pict></mc:Fallback></mc:AlternateContent></w:r>"
    )
    tab_stops = '<w:pPr><w:tabs><w:tab w:val="left" w:pos="720"/></w:tabs></w:pPr>'
    body = (
        # tabs and breaks inside runs, then two empty runs
        f"<w:p><w:r>{hl}<w:t>uno</w:t><w:tab/><w:t>due</w:t><w:br/><w:t>tre</w:t><w:cr/></w:r>"
        f"<w:r>{hl}</w:r><w:r>{hl}<w:t/></w:r></w:p>"
        # blank: a run of spaces and a tab, a run holding only a break, and an empty paragraph
        f'<w:p><w:r>{hl}<w:t xml:space="preserve">  </w:t><w:tab/></w:r><w:r>{hl}<w:br/></w:r></w:p><w:p/>'
        f"<w:p>{tab_stops}<w:r>{hl}<w:t>Rubrica</w:t><w:tab/><w:t>pagina</w:t></w:r></w:p>"
        # tab stops alone are no text
        f"<w:p>{tab_stops}</w:p>"
        f'<w:p><w:r>{hl}<w:t xml:space="preserve">Prima </w:t></w:r>{text_box}'
        f'<w:r>{hl}<w:t xml:space="preserve"> dopo</w:t></w:r></w:p>'
        f"<w:p>{text_box}</w:p>"
    )
    paragraphs = [[(text, "yellow")] for text in ("Primo.", "", "  ")]
    path = make_docx(tmp_path / "r.docx", paragraphs, body_extra_xml=body)
    expected = ("Primo.", "uno\tdue\ntre\n", "Rubrica\tpagina", "Prima riquadro dopo", "riquadro")
    assert load_document(path).paragraphs == expected
    assert {a.paragraph_index: a.span_text for a in import_docx_highlights(path)} == dict(enumerate(expected))


def test_plaintext_blank_line_blocks(tmp_path):
    path = tmp_path / "p.txt"
    path.write_text("riga uno\nriga due\n\nriga tre\n\n\n", encoding="utf-8")
    doc = load_document(path)
    assert doc.paragraphs == ("riga uno riga due", "riga tre")


def test_plaintext_empty_file(tmp_path):
    path = tmp_path / "vuoto.txt"
    path.write_text("", encoding="utf-8")
    assert load_document(path).paragraphs == ()


def test_plaintext_drops_one_leading_byte_order_mark(tmp_path):
    path = tmp_path / "bom.txt"
    path.write_text("\ufeffprimo\n\nsecondo \ufeff terzo\n", encoding="utf-8")
    assert load_document(path).paragraphs == ("primo", "secondo \ufeff terzo")
    # a line that holds only the mark is blank, and a second mark is text
    path.write_text("\ufeff\n\nprimo\n", encoding="utf-8")
    assert load_document(path).paragraphs == ("primo",)
    path.write_text("\ufeff\ufeffprimo\n", encoding="utf-8")
    assert load_document(path).paragraphs == ("\ufeffprimo",)


def test_plaintext_decode_error_counts_the_byte_order_mark(tmp_path):
    path = tmp_path / "latin.txt"
    path.write_bytes(b"\xef\xbb\xbf" + "città\n".encode("latin-1"))
    with pytest.raises(EncodingError, match="position 7"):
        load_document(path)


def test_plaintext_rejects_bad_encoding(tmp_path):
    path = tmp_path / "latin.txt"
    path.write_bytes("città\n".encode("latin-1"))
    with pytest.raises(EncodingError):
        load_document(path)


def test_missing_file_raises():
    with pytest.raises(FileNotFoundError):
        load_document("/nonexistent/file.docx")


def test_malformed_archive(tmp_path):
    path = make_docx(tmp_path / "bad.docx", ["Testo valido."])
    truncate_file(path)
    with pytest.raises(MalformedArchive):
        load_document(path)


def test_docx_archive_opened_once_per_load(sample_docx, monkeypatch):
    opened = []

    class CountingZipFile(zipfile.ZipFile):
        def __init__(self, file, *args, **kwargs):
            opened.append(file)
            super().__init__(file, *args, **kwargs)

    monkeypatch.setattr(zipfile, "ZipFile", CountingZipFile)
    doc = load_document(sample_docx)
    # the paragraphs and the page count both come from the one open
    assert doc.page_count == 5 and doc.paragraphs
    assert opened == [sample_docx]


_BODY = f'<w:document xmlns:w="{W_NS}"><w:body><w:p><w:r><w:t>Testo.</w:t></w:r></w:p></w:body></w:document>'
_APP = "<Properties><Pages>3</Pages></Properties>"


def _zip(path, parts: dict[str, str], damaged: tuple[str, str] | None = None):
    """A zip of ``parts``; the part a ``damaged`` pair names is written
    with the compression its kind of damage needs and damaged after
    writing (``docxbuild.damage_member``), every other part stored."""
    part, kind = damaged or (None, None)
    with zipfile.ZipFile(path, "w") as zf:
        for name, text in parts.items():
            zf.writestr(name, text, DAMAGE_COMPRESSION[kind] if name == part else zipfile.ZIP_STORED)
    return path if part is None else damage_member(path, part, kind)


_NOT_READABLE = "not a readable .docx archive ("


@pytest.mark.parametrize(
    "parts, damaged, reason",
    [
        ({"docProps/app.xml": _APP}, None, "missing word/document.xml"),
        ({"word/document.xml": "<w:document"}, None, "unparseable document XML"),
        ({"word/document.xml": f'<w:document xmlns:w="{W_NS}"/>'}, None, "document XML has no body"),
        ({"word/document.xml": _BODY}, ("word/document.xml", "crc"), _NOT_READABLE + "Bad CRC-32"),
        ({"word/document.xml": _BODY, "docProps/app.xml": _APP}, ("docProps/app.xml", "crc"),
         _NOT_READABLE + "Bad CRC-32"),
        # the main part is checked before the page count is read
        ({"docProps/app.xml": _APP}, ("docProps/app.xml", "crc"), "missing word/document.xml"),
        # a corrupt stream, encryption or an unknown method, in either part
        ({"word/document.xml": _BODY}, ("word/document.xml", "deflate"), _NOT_READABLE + "Error -3"),
        # an LZMA member is refused before its stream is read
        ({"word/document.xml": _BODY}, ("word/document.xml", "lzma"),
         _NOT_READABLE + "word/document.xml uses compression method 14, not stored or deflated)"),
        ({"word/document.xml": _BODY}, ("word/document.xml", "encrypted"),
         _NOT_READABLE + "File 'word/document.xml' is encrypted"),
        ({"word/document.xml": _BODY, "docProps/app.xml": _APP}, ("docProps/app.xml", "method"),
         _NOT_READABLE + "That compression method is not supported"),
        # a member declaring less than it holds fails the CRC
        ({"word/document.xml": _BODY}, ("word/document.xml", "size"), _NOT_READABLE + "Bad CRC-32"),
    ],
    ids=["no_document", "bad_xml", "no_body", "bad_document_crc", "bad_app_crc", "no_document_bad_app",
         "bad_deflate", "bad_lzma", "encrypted", "unknown_method", "understated_size"],
)
def test_malformed_docx_reasons_in_order(tmp_path, parts, damaged, reason):
    path = _zip(tmp_path / "m.docx", parts, damaged)
    with pytest.raises(MalformedArchive) as exc:
        load_document(path)
    assert exc.value.path == str(path)
    assert str(exc.value).startswith(f"{path}: {reason}")


def _blank_docx(path, mib: int):
    """A .docx whose deflated word/document.xml holds ``mib`` MiB of
    blanks in its body, a few KiB on disk; written 1 MiB at a time."""
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as zf, zf.open("word/document.xml", "w") as part:
        part.write(f'<w:document xmlns:w="{W_NS}"><w:body>'.encode())
        for _ in range(mib):
            part.write(b" " * (1 << 20))
        part.write(b"</w:body></w:document>")
    return path


def _peak_and_reason(read, path) -> tuple[int, str]:
    """The peak traced memory of ``read(path)``, which must raise
    MalformedArchive, and its message."""
    tracemalloc.start()
    try:
        with pytest.raises(MalformedArchive) as exc:
            read(path)
        return tracemalloc.get_traced_memory()[1], str(exc.value)
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("read", [load_document, import_docx_highlights])
def test_docx_member_inflating_past_the_bound_is_refused(tmp_path, monkeypatch, read):
    path = _blank_docx(tmp_path / "b.docx", 16)
    monkeypatch.setattr(corpus, "MAX_DOCX_PART_BYTES", 4 << 20)
    peak, reason = _peak_and_reason(read, path)
    assert reason == f"{path}: {_NOT_READABLE}word/document.xml inflates past 4,194,304 bytes)"
    # the bound and one chunk of 1 MiB, not the 16 MiB the member holds
    assert peak < 8 << 20


def test_docx_member_declaring_less_than_it_inflates_to_inflates_one_chunk(tmp_path):
    path = damage_member(_blank_docx(tmp_path / "b.docx", 16), "word/document.xml", "size")
    peak, reason = _peak_and_reason(load_document, path)
    assert reason.startswith(f"{path}: {_NOT_READABLE}Bad CRC-32")
    # zipfile stops at the declared size only after inflating the chunk
    # it reads, 1 MiB here, not the whole 16 MiB stream
    assert peak < 4 << 20


def test_document_text_joins_paragraphs(tmp_path):
    doc = load_document(make_docx(tmp_path / "o.docx", ["uno", "due tre", "quattro"]))
    assert doc.paragraphs == ("uno", "due tre", "quattro")
    assert doc.text == "uno\ndue tre\nquattro"


def test_load_is_idempotent(sample_docx):
    assert load_document(sample_docx) == load_document(sample_docx)


def test_list_judgments_order_and_warnings(tmp_path):
    make_docx(tmp_path / "s02.docx", ["B"])
    make_docx(tmp_path / "s01.docx", ["A"])
    (tmp_path / "notes.txt").write_text("appunti\n", encoding="utf-8")
    (tmp_path / "ignora.pdf").write_bytes(b"%PDF-")
    paths, warnings = list_judgments(tmp_path)
    assert [p.name for p in paths] == ["s01.docx", "s02.docx", "notes.txt"]
    assert len(warnings) == 1
    assert "ignora.pdf" in warnings[0].path
    assert warnings[0].reason == "unrecognized extension"


def test_list_judgments_empty_dir(tmp_path):
    assert list_judgments(tmp_path) == ([], [])


def test_list_judgments_missing_dir(tmp_path):
    with pytest.raises(DirectoryNotFound):
        list_judgments(tmp_path / "assente")
