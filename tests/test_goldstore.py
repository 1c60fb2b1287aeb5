from __future__ import annotations

import json
from collections import Counter

import pytest

from docxbuild import make_docx
from polminer.corpus import load_document
from polminer.errors import DuplicateHighlightWarning, SchemaError, UnknownColorWarning
from polminer.extractor import PoLType
from polminer.goldstore import (
    GoldAnnotation,
    import_docx_highlights,
    load_gold,
    save_gold,
)


def _ann(i: int, pol_type: PoLType = PoLType.IMPLICIT, doc: str = "d.docx") -> GoldAnnotation:
    return GoldAnnotation(doc_id=doc, paragraph_index=i, span_text=f"principio {i}", pol_type=pol_type)


def test_import_yellow_run_is_explicit_direct(tmp_path):
    path = make_docx(
        tmp_path / "g.docx",
        [[("premessa ", None), ("“ab” (Cass. 1/2019)", "yellow")]],
    )
    anns = import_docx_highlights(path)
    assert len(anns) == 1
    assert anns[0].pol_type == PoLType.EXPLICIT_DIRECT
    assert anns[0].span_text == "“ab” (Cass. 1/2019)"
    assert anns[0].paragraph_index == 0
    assert anns[0].origin == "Human"


def test_import_color_scheme(tmp_path):
    path = make_docx(
        tmp_path / "g.docx",
        [
            [("diretto", "yellow")],
            [("indiretto", "cyan")],
            [("implicito", "lightGray")],
        ],
    )
    types = [a.pol_type for a in import_docx_highlights(path)]
    assert types == [PoLType.EXPLICIT_DIRECT, PoLType.EXPLICIT_INDIRECT, PoLType.IMPLICIT]


def test_import_no_highlights(tmp_path):
    path = make_docx(tmp_path / "g.docx", ["solo testo", "altro testo"])
    assert import_docx_highlights(path) == []


def test_import_merges_adjacent_same_color_runs(tmp_path):
    path = make_docx(
        tmp_path / "g.docx",
        [[("prima parte ", "yellow"), ("seconda parte", "yellow"), (" coda", None)]],
    )
    anns = import_docx_highlights(path)
    assert len(anns) == 1
    assert anns[0].span_text == "prima parte seconda parte"


def test_import_does_not_merge_across_unhighlighted_runs(tmp_path):
    path = make_docx(
        tmp_path / "g.docx",
        [[("uno", "yellow"), (" mezzo ", None), ("due", "yellow")]],
    )
    assert len(import_docx_highlights(path)) == 2


def test_import_warns_on_unknown_color(tmp_path):
    path = make_docx(tmp_path / "g.docx", [[("verde", "green"), (" resto", None)]])
    with pytest.warns(UnknownColorWarning):
        anns = import_docx_highlights(path)
    assert anns == []


def test_import_keeps_a_repeated_highlight_once(tmp_path):
    path = make_docx(
        tmp_path / "g.docx",
        [[("uno", "yellow"), (" mezzo ", None), ("uno", "yellow")], [("altro principio", "blue")]],
    )
    with pytest.warns(DuplicateHighlightWarning, match="paragraph 0: duplicate highlight 'uno' imported once"):
        anns = import_docx_highlights(path)
    assert [(a.paragraph_index, a.span_text, a.pol_type) for a in anns] == [
        (0, "uno", PoLType.EXPLICIT_DIRECT),
        (1, "altro principio", PoLType.EXPLICIT_INDIRECT),
    ]


def test_import_paragraph_indices_skip_empty_paragraphs(tmp_path):
    path = make_docx(
        tmp_path / "g.docx",
        ["testo iniziale", "   ", [("marcato", "yellow")]],
    )
    anns = import_docx_highlights(path)
    assert anns[0].paragraph_index == 1  # matches corpus loader indexing


def test_import_text_box_text_matches_corpus_text(tmp_path):
    # the text box's runs nest inside the outer run; their text counts once
    hl = '<w:rPr><w:highlight w:val="yellow"/></w:rPr>'
    para = (
        f'<w:p><w:r>{hl}<w:t xml:space="preserve">Prima </w:t></w:r>'
        f'<w:r>{hl}<w:pict><v:shape xmlns:v="urn:schemas-microsoft-com:vml"><v:textbox>'
        f"<w:txbxContent><w:p><w:r>{hl}<w:t>riquadro</w:t></w:r></w:p></w:txbxContent>"
        "</v:textbox></v:shape></w:pict></w:r>"
        f'<w:r>{hl}<w:t xml:space="preserve"> dopo</w:t></w:r></w:p>'
    )
    path = make_docx(tmp_path / "g.docx", [], body_extra_xml=para)
    anns = import_docx_highlights(path)
    assert [a.span_text for a in anns] == ["Prima riquadro dopo"]
    assert load_document(path).paragraphs[0] == anns[0].span_text


def test_alternate_content_text_box_is_read_once(tmp_path):
    # Word stores a text box as a DrawingML mc:Choice plus a VML mc:Fallback
    hl = '<w:rPr><w:highlight w:val="yellow"/></w:rPr>'
    box = f"<w:txbxContent><w:p><w:r>{hl}<w:t>riquadro</w:t></w:r></w:p></w:txbxContent>"
    para = (
        '<w:p><w:r><w:t xml:space="preserve">Prima </w:t></w:r><w:r>'
        '<mc:AlternateContent xmlns:mc="http://schemas.openxmlformats.org/markup-compatibility/2006">'
        f'<mc:Choice Requires="wps"><w:drawing>{box}</w:drawing></mc:Choice>'
        f'<mc:Fallback><w:pict><v:shape xmlns:v="urn:schemas-microsoft-com:vml"><v:textbox>{box}'
        "</v:textbox></v:shape></w:pict></mc:Fallback></mc:AlternateContent></w:r>"
        '<w:r><w:t xml:space="preserve"> dopo</w:t></w:r></w:p>'
    )
    path = make_docx(tmp_path / "g.docx", [], body_extra_xml=para)
    assert load_document(path).paragraphs[0] == "Prima riquadro dopo"
    assert [a.span_text for a in import_docx_highlights(path)] == ["riquadro"]


def test_gold_roundtrip_and_counts(tmp_path):
    gold = (
        _ann(0, PoLType.IMPLICIT),
        _ann(1, PoLType.EXPLICIT_DIRECT),
        _ann(2, PoLType.EXPLICIT_INDIRECT),
    )
    path = save_gold(gold, tmp_path / "gold.json")
    loaded = load_gold(path)
    assert loaded == gold
    assert Counter(a.pol_type for a in loaded) == {
        PoLType.IMPLICIT: 1,
        PoLType.EXPLICIT_DIRECT: 1,
        PoLType.EXPLICIT_INDIRECT: 1,
    }
    # byte-stable after one save/load cycle
    second = save_gold(loaded, tmp_path / "gold2.json")
    assert second.read_bytes() == path.read_bytes()


def test_load_gold_schema_error_has_pointer(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps({"annotations": [{"doc_id": "d", "paragraph_index": 0,
                                     "span_text": "x", "pol_type": "Nope"}]}),
        encoding="utf-8",
    )
    with pytest.raises(SchemaError) as exc:
        load_gold(path)
    assert "/annotations/0/pol_type" in str(exc.value)


@pytest.mark.parametrize("index", [True, False, -1, 2.9, "3", None], ids=repr)
def test_load_gold_rejects_a_paragraph_index_that_is_not_a_non_negative_integer(tmp_path, index):
    ann = {**_ann(0).to_dict(), "paragraph_index": index}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"annotations": [_ann(1).to_dict(), ann]}), encoding="utf-8")
    with pytest.raises(SchemaError) as exc:
        load_gold(path)
    assert exc.value.pointer == "/annotations/1/paragraph_index"


@pytest.mark.parametrize("doc_id", [7, None, ["d.txt"]], ids=repr)
def test_load_gold_rejects_a_doc_id_that_is_not_a_string(tmp_path, doc_id):
    ann = {**_ann(0).to_dict(), "doc_id": doc_id}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"annotations": [_ann(1).to_dict(), ann]}), encoding="utf-8")
    with pytest.raises(SchemaError) as exc:
        load_gold(path)
    assert exc.value.pointer == "/annotations/1/doc_id"


@pytest.mark.parametrize("annotator_id", [7, ["ann"], {"name": "ann"}], ids=repr)
def test_load_gold_rejects_an_annotator_id_that_is_not_a_string(tmp_path, annotator_id):
    ann = {**_ann(0).to_dict(), "annotator_id": annotator_id}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"annotations": [_ann(1).to_dict(), ann]}), encoding="utf-8")
    with pytest.raises(SchemaError) as exc:
        load_gold(path)
    assert exc.value.pointer == "/annotations/1/annotator_id"


@pytest.mark.parametrize("entry", [5, "d.txt", None, ["d.txt"]], ids=repr)
def test_load_gold_rejects_an_annotation_that_is_not_an_object(tmp_path, entry):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"annotations": [_ann(0).to_dict(), entry]}), encoding="utf-8")
    with pytest.raises(SchemaError) as exc:
        load_gold(path)
    assert exc.value.pointer == "/annotations/1"
    assert str(exc.value) == "/annotations/1: must be an object"


def test_load_gold_names_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff" + json.dumps({"annotations": []}).encode())
    with pytest.raises(SchemaError) as exc:
        load_gold(path)
    assert exc.value.pointer == "/" and "utf-8" in str(exc.value)


def test_load_gold_keeps_a_string_or_null_annotator_id(tmp_path):
    anns = [{**_ann(0).to_dict(), "annotator_id": "ann"}, {**_ann(1).to_dict(), "annotator_id": None}]
    path = tmp_path / "gold.json"
    path.write_text(json.dumps({"annotations": anns}), encoding="utf-8")
    assert [a.annotator_id for a in load_gold(path)] == ["ann", None]


def test_load_gold_rejects_duplicates(tmp_path):
    ann = _ann(0).to_dict()
    path = tmp_path / "dup.json"
    path.write_text(json.dumps({"annotations": [ann, ann]}), encoding="utf-8")
    with pytest.raises(SchemaError):
        load_gold(path)


def test_counts_match_annotation_distribution(tmp_path):
    annotations = tuple(
        [_ann(i, PoLType.IMPLICIT) for i in range(87)]
        + [_ann(100 + i, PoLType.EXPLICIT_DIRECT) for i in range(293)]
        + [_ann(500 + i, PoLType.EXPLICIT_INDIRECT) for i in range(302)]
    )
    gold = load_gold(save_gold(annotations, tmp_path / "gold.json"))
    assert len(gold) == 682
    assert Counter(a.pol_type for a in gold) == {
        PoLType.IMPLICIT: 87,
        PoLType.EXPLICIT_DIRECT: 293,
        PoLType.EXPLICIT_INDIRECT: 302,
    }


def test_type_conservation_through_import_save_load(tmp_path):
    path = make_docx(
        tmp_path / "g.docx",
        [
            [("span diretto “q”", "yellow")],
            [("span indiretto", "blue")],
            [("span implicito", "darkGray")],
        ],
    )
    anns = import_docx_highlights(path)
    saved = save_gold(anns, tmp_path / "gold.json")
    loaded = load_gold(saved)
    assert [a.span_text for a in loaded] == [a.span_text for a in anns]
    assert [a.pol_type for a in loaded] == [a.pol_type for a in anns]
