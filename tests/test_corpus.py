from __future__ import annotations

import zipfile

import pytest

from docxbuild import make_docx, truncate_file
from polminer.corpus import load_corpus, load_document
from polminer.errors import DirectoryNotFound, EncodingError, MalformedArchive


def test_docx_drops_empty_paragraphs(tmp_path):
    path = make_docx(tmp_path / "d.docx", ["A", "", "B"])
    doc = load_document(path)
    assert [p.text for p in doc.paragraphs] == ["A", "B"]
    assert [p.index for p in doc.paragraphs] == [0, 1]


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
    assert doc.paragraphs[0].text == text


def test_docx_ignores_tables(tmp_path):
    table = (
        "<w:tbl><w:tr><w:tc><w:p><w:r><w:t>cella tabella</w:t></w:r></w:p>"
        "</w:tc></w:tr></w:tbl>"
    )
    doc = load_document(make_docx(tmp_path / "t.docx", ["Corpo."], body_extra_xml=table))
    assert [p.text for p in doc.paragraphs] == ["Corpo."]


def test_docx_includes_hyperlink_wrapped_runs(tmp_path):
    # writers often wrap citation runs in w:hyperlink; the text must survive
    para = (
        "<w:p><w:r><w:t xml:space=\"preserve\">vedi </w:t></w:r>"
        "<w:hyperlink><w:r><w:t>Cass. n. 26972/2008</w:t></w:r></w:hyperlink>"
        "</w:p>"
    )
    doc = load_document(make_docx(tmp_path / "h.docx", ["Prima."], body_extra_xml=para))
    assert [p.text for p in doc.paragraphs] == ["Prima.", "vedi Cass. n. 26972/2008"]


def test_docx_tab_stops_are_not_text(tmp_path):
    # w:pPr/w:tabs defines tab stops; only a w:tab inside a run is a tab
    para = (
        '<w:p><w:pPr><w:tabs><w:tab w:val="left" w:pos="720"/>'
        '<w:tab w:val="right" w:pos="9000"/></w:tabs></w:pPr>'
        "<w:r><w:t>Rubrica</w:t><w:tab/><w:t>pagina</w:t></w:r></w:p>"
    )
    doc = load_document(make_docx(tmp_path / "t.docx", [], body_extra_xml=para))
    assert [p.text for p in doc.paragraphs] == ["Rubrica\tpagina"]


def test_explicit_format_override(tmp_path):
    path = tmp_path / "misleading.docx"
    path.write_text("testo semplice\n", encoding="utf-8")
    doc = load_document(path, format="plaintext")
    assert [p.text for p in doc.paragraphs] == ["testo semplice"]
    with pytest.raises(ValueError):
        load_document(path, format="pdf")


def test_plaintext_blank_line_blocks(tmp_path):
    path = tmp_path / "p.txt"
    path.write_text("riga uno\nriga due\n\nriga tre\n\n\n", encoding="utf-8")
    doc = load_document(path)
    assert [p.text for p in doc.paragraphs] == ["riga uno riga due", "riga tre"]


def test_plaintext_empty_file(tmp_path):
    path = tmp_path / "vuoto.txt"
    path.write_text("", encoding="utf-8")
    assert load_document(path).paragraphs == ()


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


def test_char_offsets_reconstruct_document_text(tmp_path):
    doc = load_document(make_docx(tmp_path / "o.docx", ["uno", "due tre", "quattro"]))
    full = doc.text
    for para in doc.paragraphs:
        assert full[para.char_offset : para.char_offset + len(para.text)] == para.text


def test_load_is_idempotent(sample_docx):
    assert load_document(sample_docx) == load_document(sample_docx)


def test_load_corpus_order_and_warnings(tmp_path):
    make_docx(tmp_path / "s02.docx", ["B"])
    make_docx(tmp_path / "s01.docx", ["A"])
    (tmp_path / "notes.txt").write_text("appunti\n", encoding="utf-8")
    (tmp_path / "ignora.pdf").write_bytes(b"%PDF-")
    result = load_corpus(tmp_path)
    assert [d.doc_id for d in result.documents] == ["s01.docx", "s02.docx", "notes.txt"]
    assert len(result.warnings) == 1
    assert "ignora.pdf" in result.warnings[0].path


def test_load_corpus_collects_per_file_errors(tmp_path):
    make_docx(tmp_path / "a.docx", ["A"])
    make_docx(tmp_path / "b.docx", ["B"])
    corrupt = make_docx(tmp_path / "c.docx", ["C"])
    truncate_file(corrupt)
    result = load_corpus(tmp_path)
    assert [d.doc_id for d in result.documents] == ["a.docx", "b.docx"]
    assert len(result.warnings) == 1
    assert "c.docx" in result.warnings[0].path


def test_load_corpus_empty_dir(tmp_path):
    result = load_corpus(tmp_path)
    assert result.documents == [] and result.warnings == []


def test_load_corpus_missing_dir(tmp_path):
    with pytest.raises(DirectoryNotFound):
        load_corpus(tmp_path / "assente")
