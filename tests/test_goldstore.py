from __future__ import annotations

import json

import pytest

from docxbuild import make_docx
from polminer.corpus import load_document
from polminer.errors import DuplicateAnnotation, SchemaError, UnknownColorWarning
from polminer.extractor import PoLCandidate, PoLType, Source
from polminer.goldstore import (
    GoldAnnotation,
    GoldSet,
    augment_gold,
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
    assert load_document(path).paragraphs[0].text == anns[0].span_text


def test_gold_roundtrip_and_counts(tmp_path):
    gold = GoldSet(annotations=(
        _ann(0, PoLType.IMPLICIT),
        _ann(1, PoLType.EXPLICIT_DIRECT),
        _ann(2, PoLType.EXPLICIT_INDIRECT),
    ))
    path = save_gold(gold, tmp_path / "gold.json")
    loaded = load_gold(path)
    assert loaded == gold
    assert loaded.counts_by_type == {
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


def test_load_gold_rejects_duplicates(tmp_path):
    ann = _ann(0).to_dict()
    path = tmp_path / "dup.json"
    path.write_text(json.dumps({"annotations": [ann, ann]}), encoding="utf-8")
    with pytest.raises(SchemaError):
        load_gold(path)


def test_counts_match_annotation_distribution():
    annotations = tuple(
        [_ann(i, PoLType.IMPLICIT) for i in range(87)]
        + [_ann(100 + i, PoLType.EXPLICIT_DIRECT) for i in range(293)]
        + [_ann(500 + i, PoLType.EXPLICIT_INDIRECT) for i in range(302)]
    )
    gold = GoldSet(annotations=annotations)
    assert len(gold) == 682
    assert gold.counts_by_type == {
        PoLType.IMPLICIT: 87,
        PoLType.EXPLICIT_DIRECT: 293,
        PoLType.EXPLICIT_INDIRECT: 302,
    }


def _confirmed(i: int, doc: str = "z.docx") -> PoLCandidate:
    return PoLCandidate(
        doc_id=doc,
        paragraph_index=i,
        text=f"paragrafo confermato {i}",
        quote="",
        trigger=None,
        pol_type=PoLType.IMPLICIT,
        citations=(),
        source=Source.LLM,
    )


def test_augment_appends_and_never_mutates():
    # 682 human spans, then two tool-confirmed batches of 2 each
    base = GoldSet(annotations=tuple(_ann(i) for i in range(682)))
    with_chat_finds = augment_gold(base, [_confirmed(0), _confirmed(1)])
    with_both = augment_gold(with_chat_finds, [_confirmed(2), _confirmed(3)])
    assert len(base) == 682
    assert len(with_chat_finds) == 684
    assert len(with_both) == 686
    assert all(a.origin == "ToolConfirmed" for a in with_both.annotations[682:])


def test_augment_rejects_duplicates():
    base = GoldSet(annotations=(_ann(0),))
    dup = PoLCandidate(
        doc_id="d.docx", paragraph_index=0, text="principio 0", quote="",
        trigger=None, pol_type=PoLType.IMPLICIT, citations=(), source=Source.LLM,
    )
    with pytest.raises(DuplicateAnnotation):
        augment_gold(base, [dup])


def test_augment_empty_gold():
    augmented = augment_gold(GoldSet(annotations=()), [_confirmed(5)])
    assert len(augmented) == 1
    assert augmented.annotations[0].origin == "ToolConfirmed"


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
    saved = save_gold(GoldSet(annotations=tuple(anns)), tmp_path / "gold.json")
    loaded = load_gold(saved)
    assert [a.span_text for a in loaded.annotations] == [a.span_text for a in anns]
    assert [a.pol_type for a in loaded.annotations] == [a.pol_type for a in anns]
