from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ReproFixture
from polminer import evaluation, textnorm
from polminer.corpus import Document, load_document
from polminer.errors import DocMismatch, GoldMismatch
from polminer.evaluation import (
    AlignmentResult,
    Completeness,
    ConfusionCounts,
    FpKind,
    MatchRecord,
    MetricsMode,
    SimilarityClass,
    align,
    comparison_table,
    confusion,
    metrics,
    tracking_table,
)
from polminer.extractor import PoLCandidate, PoLType, Source
from polminer.goldstore import GoldAnnotation


def _doc(texts: list[str], doc_id: str = "d.txt", pages: int | None = None) -> Document:
    return Document(doc_id, tuple(texts), pages)


def _cand(text: str, index: int = 0, doc_id: str = "d.txt") -> PoLCandidate:
    return PoLCandidate(
        doc_id=doc_id, paragraph_index=index, text=text, quote="",
        trigger=None, pol_type=PoLType.IMPLICIT, citations=(), source=Source.LLM,
    )


def _gold(span: str, index: int = 0, doc_id: str = "d.txt",
          pol_type: PoLType = PoLType.IMPLICIT) -> GoldAnnotation:
    return GoldAnnotation(doc_id=doc_id, paragraph_index=index, span_text=span, pol_type=pol_type)


SPAN = "il giudice deve garantire la tutela effettiva dei diritti fondamentali della persona"


def test_identical_candidate_is_full_same_text():
    doc = _doc([SPAN])
    result = align([_cand(SPAN)], [_gold(SPAN)], doc)
    assert len(result.matches) == 1
    match = result.matches[0]
    assert match.completeness == Completeness.FULL
    assert match.similarity == SimilarityClass.SAME_TEXT
    assert result.false_positives == () and result.false_negatives == ()


def test_half_span_with_ellipsis_is_partial_ellipsis():
    doc = _doc([SPAN])
    half = "il giudice deve garantire la tutela (...)"
    result = align([_cand(half)], [_gold(SPAN)], doc)
    assert len(result.matches) == 1
    assert result.matches[0].completeness == Completeness.PARTIAL_ELLIPSIS


def test_fabricated_candidate_is_hallucination():
    doc = _doc([SPAN, "altro paragrafo di contorno processuale"])
    fabricated = "drago viola attraversa la galassia remota con cristalli"
    result = align([_cand(fabricated)], [_gold(SPAN)], doc)
    assert result.matches == ()
    assert [kind for _, kind in result.false_positives] == [FpKind.HALLUCINATION]
    assert len(result.false_negatives) == 1


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 2: in_source scores with the overlap coefficient, whose min(|a|, |b|) "
    "denominator lets the one-word heading FATTO reach 1.0 against any text holding 'fatto'"
))
def test_a_heading_paragraph_does_not_save_a_fabricated_passage():
    fabricated = ("il giudice osserva che nel fatto contestato manca ogni prova "
                  "della condotta illecita del convenuto")
    doc = _doc(["FATTO", "La Corte rigetta il ricorso e condanna alle spese."])
    result = align([_cand(fabricated, index=-1)], [], doc)
    assert [kind for _, kind in result.false_positives] == [FpKind.HALLUCINATION]


# The two verdicts below hold today and must survive a change of the triage
# rule (ROADMAP item 2): they are what a rule of containment in one paragraph
# would lose.

def test_a_copy_of_two_adjacent_paragraphs_is_not_pol():
    first = "Il ricorrente lamenta che il giudice del merito abbia omesso ogni motivazione."
    second = "La doglianza è fondata, poiché la sentenza impugnata tace sulle prove decisive raccolte."
    copy = f"{first} {second}"
    probe = textnorm.raw_token_counts(copy)
    # neither paragraph alone holds 0.6 of the copy's tokens: only a window of both does
    shares = [sum((textnorm.raw_token_counts(p) & probe).values()) / sum(probe.values()) for p in (first, second)]
    assert shares == [0.48, 0.52]
    doc = _doc(["FATTO", first, second, "P.Q.M. rigetta il ricorso."])
    result = align([_cand(copy, index=-1)], [], doc)
    assert [kind for _, kind in result.false_positives] == [FpKind.NOT_POL]


def test_the_citation_tail_of_a_longer_paragraph_is_not_pol():
    tail = "(Cass. n. 12962/2016)"
    # normalized, the tail holds no token: triage reads it as written
    assert textnorm.word_tokens(textnorm.normalize_text(tail)) == []
    doc = _doc([SPAN, f"Il principio è consolidato nella giurisprudenza di legittimità {tail}."])
    result = align([_cand(tail, index=-1)], [_gold(SPAN)], doc)
    assert [kind for _, kind in result.false_positives] == [FpKind.NOT_POL]


def test_real_but_unannotated_candidate_is_not_pol():
    filler = "le parti hanno dedotto circostanze di puro fatto"
    doc = _doc([SPAN, filler])
    result = align([_cand(filler, index=1)], [_gold(SPAN)], doc)
    assert [kind for _, kind in result.false_positives] == [FpKind.NOT_POL]


def test_citation_only_candidate_from_source_is_not_pol():
    # normalization strips citation tails, but triage must still see that
    # this text exists in the document
    citation_para = "(nota interna 2021)"
    doc = _doc([SPAN, citation_para])
    result = align([_cand(citation_para, index=1)], [_gold(SPAN)], doc)
    assert [kind for _, kind in result.false_positives] == [FpKind.NOT_POL]


def test_whole_paragraph_candidate_matches_sub_span():
    paragraph = f"Premessa lunga del collegio. {SPAN}. Conclusione di rito."
    doc = _doc([paragraph])
    result = align([_cand(paragraph)], [_gold(SPAN)], doc)
    assert len(result.matches) == 1
    assert result.matches[0].completeness == Completeness.FULL


def test_summary_classification():
    doc = _doc([SPAN])
    summary = "il giudice deve garantire la tutela"  # 7 of 13 tokens, all from gold
    result = align([_cand(summary)], [_gold(SPAN)], doc)
    assert result.matches[0].similarity == SimilarityClass.SUMMARY


def test_word_exchange_classification():
    doc = _doc([SPAN])
    swapped = SPAN.replace("effettiva", "concreta")
    result = align([_cand(swapped)], [_gold(SPAN)], doc)
    assert result.matches[0].similarity == SimilarityClass.WORD_EXCHANGE


def test_partition_invariant():
    doc = _doc([SPAN, "paragrafo di contorno uno", "paragrafo di contorno due"])
    gold = [_gold(SPAN), _gold("paragrafo di contorno uno", index=1)]
    candidates = [_cand(SPAN), _cand("testo inventato di sana pianta qvz"), _cand("paragrafo di contorno due", index=2)]
    result = align(candidates, gold, doc)
    assert len(result.matches) + len(result.false_negatives) == len(gold)
    assert len(result.matches) + len(result.false_positives) == len(candidates)


def test_doc_mismatch_rejected():
    doc = _doc([SPAN], doc_id="a.txt")
    with pytest.raises(DocMismatch):
        align([_cand(SPAN, doc_id="b.txt")], [_gold(SPAN, doc_id="a.txt")], doc)


def test_thresholds_validated():
    doc = _doc([SPAN])
    with pytest.raises(ValueError):
        align([], [], doc, overlap_threshold=0.0)
    with pytest.raises(ValueError):
        align([], [], doc, hallucination_threshold=1.5)


def test_greedy_ties_prefer_lowest_paragraph_indices():
    span = "regola identica ripetuta"
    doc = _doc([span, span])
    gold = [_gold(span, index=0), _gold(span, index=1)]
    candidates = [_cand(span, index=1), _cand(span, index=0)]
    result = align(candidates, gold, doc)
    # gold 0 pairs with the candidate at paragraph 0, gold 1 with paragraph 1
    assert [(m.gold.paragraph_index, m.candidate.paragraph_index) for m in result.matches] == [
        (0, 0), (1, 1),
    ]


def test_raising_threshold_never_increases_tp():
    rng = random.Random(99)
    words = ["tutela", "diritto", "giudice", "norma", "regola", "persona", "famiglia", "stato"]
    texts = [" ".join(rng.choices(words, k=rng.randint(3, 8))) for _ in range(12)]
    doc = _doc(texts)
    gold = [_gold(t, index=i) for i, t in enumerate(texts[:6])]
    candidates = [_cand(" ".join(rng.choices(words, k=rng.randint(3, 8))), index=i) for i in range(8)]
    previous = None
    for threshold in (0.3, 0.5, 0.7, 0.9, 1.0):
        tp = len(align(candidates, gold, doc, overlap_threshold=threshold).matches)
        if previous is not None:
            assert tp <= previous
        previous = tp


def test_align_is_deterministic():
    rng = random.Random(7)
    words = ["tutela", "diritto", "giudice", "norma", "regola", "persona"]
    texts = [" ".join(rng.choices(words, k=rng.randint(4, 9))) for _ in range(10)]
    doc = _doc(texts)
    gold = [_gold(t, index=i) for i, t in enumerate(texts[:5])]
    candidates = [_cand(t, index=i) for i, t in enumerate(texts[2:8], start=2)]
    assert align(candidates, gold, doc) == align(candidates, gold, doc)


def test_confusion_counts_from_alignment():
    doc = _doc([SPAN, "contorno"])
    result = align([_cand(SPAN)], [_gold(SPAN), _gold("contorno", index=1)], doc)
    assert confusion(result) == ConfusionCounts(tp=1, fp=0, fn=1)
    empty = align([], [], doc)
    assert confusion(empty) == ConfusionCounts(0, 0, 0)


@pytest.mark.parametrize(
    "counts,expected",
    [
        ((161, 45, 525), (0.235, 0.781, 0.220, 0.361)),
        ((365, 87, 321), (0.532, 0.807, 0.472, 0.641)),
        ((682, 0, 4), (0.994, 1.000, 0.994, 0.997)),
        ((0, 0, 0), (0.0, 0.0, 0.0, 0.0)),
    ],
)
def test_paper_mode_reproduces_published_values(counts, expected):
    report = metrics(ConfusionCounts(*counts), MetricsMode.PAPER).presentation()
    assert (report["precision"], report["recall"], report["accuracy"], report["f1"]) == pytest.approx(expected)


def test_standard_mode_uses_conventional_definitions():
    report = metrics(ConfusionCounts(8, 2, 4), MetricsMode.STANDARD)
    assert report.precision == 8 / 10
    assert report.recall == 8 / 12
    assert report.accuracy == 8 / 14


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2000), st.integers(0, 2000), st.integers(0, 2000))
def test_mode_duality(tp, fp, fn):
    counts = ConfusionCounts(tp, fp, fn)
    paper = metrics(counts, MetricsMode.PAPER)
    standard = metrics(counts, MetricsMode.STANDARD)
    assert paper.precision == standard.recall
    assert paper.recall == standard.precision
    assert paper.f1 == standard.f1
    assert paper.accuracy == standard.accuracy


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 50), st.integers(0, 50)), max_size=30))
def test_counts_merge_is_a_commutative_monoid(triples):
    counts = [ConfusionCounts(*t) for t in triples]
    total = sum(counts, ConfusionCounts())
    shuffled = list(counts)
    random.Random(0).shuffle(shuffled)
    assert sum(shuffled, ConfusionCounts()) == total
    assert total + ConfusionCounts() == total


def _match(pol_type: PoLType, completeness: Completeness, similarity: SimilarityClass,
           k: int, doc_id: str = "x.txt") -> MatchRecord:
    gold = GoldAnnotation(doc_id=doc_id, paragraph_index=k, span_text=f"span {k}", pol_type=pol_type)
    return MatchRecord(
        gold=gold,
        candidate=_cand(f"span {k}", index=k, doc_id=doc_id),
        completeness=completeness,
        similarity=similarity,
        score=1.0,
    )


def test_tracking_table_small_rows():
    doc_id = "j45.txt"
    matches = tuple(
        _match(PoLType.EXPLICIT_DIRECT, Completeness.FULL, SimilarityClass.SAME_TEXT, k, doc_id)
        for k in range(3)
    )
    result = AlignmentResult(doc_id=doc_id, matches=matches, false_positives=(),
                             false_negatives=(), page_count=5)
    table = tracking_table([result])
    row = table.to_records()[0]
    assert row["ANN"] == 3 and row["Tool (full)"] == 3
    assert row["Same Text"] == 3 and row["Hallucination"] == 0 and row["Not-PoL"] == 0
    assert row["Pag."] == 5


def test_markdown_escapes_pipes_and_line_breaks_in_cells():
    table = evaluation.Table("T", ["Method", "x|y"], [["a|b.txt", 1], ["r1\nr2\r\n", 2.5], [None, "|"]])
    lines = table.to_markdown().splitlines()[2:]
    assert lines == [
        "| Method       | x\\|y |",
        "|--------------|------|",
        "| a\\|b.txt     | 1    |",
        "| r1<br>r2<br> | 2.5  |",
        "|              | \\|   |",
    ]
    # CSV and JSON keep the text as it is
    assert table.to_csv().splitlines()[1] == "a|b.txt,1"
    assert table.to_records()[1]["Method"] == "r1\nr2\r\n"


def test_tracking_table_zero_candidates_row():
    gold = tuple(_gold(f"span {k}", index=k, doc_id="j05.txt") for k in range(4))
    result = AlignmentResult(doc_id="j05.txt", matches=(), false_positives=(),
                             false_negatives=gold)
    row = tracking_table([result]).to_records()[0]
    assert row["ANN"] == 4
    assert row["Tool (full)"] == row["Tool (partial)"] == row["Tool (partial ...)"] == 0


def _chat_type_completeness_fixture() -> AlignmentResult:
    # 161 matches: types 6/91/64, completeness 91/61/9
    types = ([PoLType.IMPLICIT] * 6 + [PoLType.EXPLICIT_DIRECT] * 91
             + [PoLType.EXPLICIT_INDIRECT] * 64)
    completeness = ([Completeness.FULL] * 91 + [Completeness.PARTIAL] * 61
                    + [Completeness.PARTIAL_ELLIPSIS] * 9)
    matches = tuple(
        _match(t, c, SimilarityClass.SAME_TEXT, k)
        for k, (t, c) in enumerate(zip(types, completeness))
    )
    fps = tuple(
        (_cand(f"err {n}", index=200 + n, doc_id="x.txt"),
         FpKind.NOT_POL if n < 16 else FpKind.HALLUCINATION)
        for n in range(45)
    )
    fns = tuple(
        GoldAnnotation(doc_id="x.txt", paragraph_index=500 + k, span_text=f"miss {k}",
                       pol_type=PoLType.EXPLICIT_DIRECT)
        for k in range(525)
    )
    return AlignmentResult(doc_id="x.txt", matches=matches, false_positives=fps, false_negatives=fns)


def test_tracking_table_reproduces_published_type_and_completeness_totals():
    table = tracking_table([_chat_type_completeness_fixture()])
    totals = table.to_records()[-1]
    assert totals["Judgment"] == "TOTAL"
    assert (totals["Tool Implicit"], totals["Tool Ex. Direct"], totals["Tool Ex. Indirect"]) == (6, 91, 64)
    assert (totals["Tool (full)"], totals["Tool (partial)"], totals["Tool (partial ...)"]) == (91, 61, 9)
    assert (totals["Not-PoL"], totals["Hallucination"]) == (16, 29)
    assert totals["ANN"] == 161 + 525


def test_tracking_table_reproduces_published_similarity_totals():
    # the published similarity tallies sum to 163 against 161 found
    # principles, so they get their own fixture with 163 matches
    sims = ([SimilarityClass.SAME_TEXT] * 154 + [SimilarityClass.SUMMARY] * 4
            + [SimilarityClass.WORD_EXCHANGE] * 5)
    matches = tuple(
        _match(PoLType.EXPLICIT_DIRECT, Completeness.FULL, s, k) for k, s in enumerate(sims)
    )
    result = AlignmentResult(doc_id="x.txt", matches=matches, false_positives=(), false_negatives=())
    totals = tracking_table([result]).to_records()[-1]
    assert (totals["Same Text"], totals["Summary"], totals["Word Exchange"]) == (154, 4, 5)


@pytest.fixture(scope="module")
def repro_alignments(tmp_path_factory):
    fixture = ReproFixture()
    corpus_dir = fixture.write_corpus(tmp_path_factory.mktemp("corpus"))
    documents = {}
    for doc_id in fixture.paragraphs:
        documents[doc_id] = load_document(corpus_dir / doc_id)
    gold = fixture.gold_set()
    gold_by_doc = {doc_id: tuple(a for a in gold if a.doc_id == doc_id) for doc_id in documents}

    def _align_method(candidates):
        by_doc = {}
        for cand in candidates:
            by_doc.setdefault(cand.doc_id, []).append(cand)
        return [
            align(by_doc.get(doc_id, []), gold_by_doc.get(doc_id, ()), documents[doc_id])
            for doc_id in sorted(documents)
        ]

    return gold, {
        "annotators": _align_method(fixture.annotator_candidates()),
        "chat": _align_method(fixture.chat_candidates()),
        "regex": _align_method(fixture.regex_candidates()),
    }


def test_repro_corpus_confusion_counts(repro_alignments):
    _, methods = repro_alignments
    totals = {name: sum(map(confusion, alignments), ConfusionCounts())
              for name, alignments in methods.items()}
    assert totals["chat"] == ConfusionCounts(161, 45, 525)
    assert totals["regex"] == ConfusionCounts(365, 87, 321)
    assert totals["annotators"] == ConfusionCounts(682, 0, 4)


def test_repro_fp_kind_split(repro_alignments):
    _, methods = repro_alignments
    from collections import Counter

    chat_kinds = Counter(kind for a in methods["chat"] for _, kind in a.false_positives)
    assert chat_kinds[FpKind.NOT_POL] == 16
    assert chat_kinds[FpKind.HALLUCINATION] == 29
    regex_kinds = Counter(kind for a in methods["regex"] for _, kind in a.false_positives)
    assert regex_kinds[FpKind.NOT_POL] == 87
    assert regex_kinds[FpKind.HALLUCINATION] == 0


def test_comparison_table_reproduces_published_percentages(repro_alignments):
    gold, methods = repro_alignments
    report = comparison_table(gold, methods)
    rows = {row["Method"]: row for row in report.comparison.to_records()}
    assert rows["Whole PoLs"]["PoLs"] == 686
    assert rows["chat"]["PoLs"] == 161 and rows["chat"]["PoLs %"] == 23.5
    assert rows["chat"]["Implicit %"] == 6.6
    assert rows["chat"]["Ex. Indirect %"] == 21.2
    assert rows["regex"]["PoLs %"] == 53.2
    assert rows["regex"]["Implicit %"] == 24.2
    assert rows["regex"]["Ex. Direct %"] == 79.2
    assert rows["annotators"]["PoLs %"] == 99.4
    assert rows["annotators"]["Implicit %"] == 95.6
    assert rows["annotators"]["Ex. Direct %"] == 100.0
    assert rows["annotators"]["Ex. Indirect %"] == 100.0
    # two published cells were printed with a different rounding of the same
    # ratios (31 for 91/293, 36.7 for 111/302); the computed values land
    # within one unit of the printed figures
    assert rows["chat"]["Ex. Direct %"] == 31.1
    assert rows["regex"]["Ex. Indirect %"] == 36.8


def test_error_share_table(repro_alignments):
    gold, methods = repro_alignments
    report = comparison_table(gold, methods)
    rows = {row["Method"]: row for row in report.error_share.to_records()}
    assert rows["chat"]["Total found"] == 206
    assert rows["chat"]["Errors %"] == 21.8
    assert rows["regex"]["Total found"] == 452
    assert rows["regex"]["Errors %"] == 19.2  # printed as 19% at integer precision
    assert rows["chat"]["Not-PoL"] == 16 and rows["chat"]["Hallucination"] == 29
    assert report.error_share.footnotes  # error-split convention noted in the footer


def test_comparison_method_identical_to_gold_is_100_percent(repro_alignments):
    gold, methods = repro_alignments
    fixture_gold_keys = {a.key() for a in gold}
    perfect = []
    for alignment in methods["annotators"]:
        matches = alignment.matches + tuple(
            MatchRecord(gold=ann, candidate=_cand(ann.span_text, ann.paragraph_index, ann.doc_id),
                        completeness=Completeness.FULL, similarity=SimilarityClass.SAME_TEXT,
                        score=1.0)
            for ann in alignment.false_negatives
        )
        perfect.append(AlignmentResult(doc_id=alignment.doc_id, matches=matches,
                                       false_positives=(), false_negatives=()))
    report = comparison_table(gold, {"perfect": perfect, "chat": methods["chat"]})
    row = {r["Method"]: r for r in report.comparison.to_records()}["perfect"]
    assert row["PoLs %"] == 100.0
    assert {m.gold.key() for a in perfect for m in a.matches} == fixture_gold_keys


def test_comparison_rejects_mismatched_gold(repro_alignments):
    gold, methods = repro_alignments
    truncated = gold[:-1]
    with pytest.raises(GoldMismatch):
        comparison_table(truncated, methods)


def test_comparison_rejects_gold_with_the_same_keys_but_another_type(repro_alignments):
    gold, methods = repro_alignments
    first = gold[0]
    other = next(t for t in PoLType if t != first.pol_type)
    retyped = (first._replace(pol_type=other),) + gold[1:]
    assert {a.key() for a in retyped} == {a.key() for a in gold}
    # the methods aligned against ``first`` as typed in ``gold``, so none covers ``retyped``
    with pytest.raises(GoldMismatch):
        comparison_table(retyped, methods)


def test_comparison_needs_two_methods(repro_alignments):
    gold, methods = repro_alignments
    with pytest.raises(ValueError):
        comparison_table(gold, {"chat": methods["chat"]})


def test_merged_metrics_equal_corpus_metrics(repro_alignments):
    _, methods = repro_alignments
    per_doc = [confusion(a) for a in methods["chat"]]
    merged = sum(per_doc, ConfusionCounts())
    rng = random.Random(42)
    for _ in range(100):
        shuffled = list(per_doc)
        rng.shuffle(shuffled)
        cut = rng.randrange(len(shuffled) + 1)
        left = sum(shuffled[:cut], ConfusionCounts())
        right = sum(shuffled[cut:], ConfusionCounts())
        assert metrics(left + right, MetricsMode.PAPER) == metrics(merged, MetricsMode.PAPER)


TRIAGE_TEXTS = [
    "la corte di cassazione ribadisce che il contratto preliminare obbliga le parti",
    "il ricorrente lamenta la violazione dell'art. 1351 c.c. (Cass. n. 123/2019)",
    "ne consegue che il motivo va rigettato e le spese seguono la soccombenza",
    "P.Q.M. la corte rigetta il ricorso",
    "…",
]


def _rules_copies(texts: list[str], positions: list[int]) -> list[PoLCandidate]:
    return [
        PoLCandidate(doc_id="d.txt", paragraph_index=i, text=texts[i], quote="", trigger=None,
                     pol_type=PoLType.IMPLICIT, citations=(), source=Source.RULES)
        for i in positions
    ]


def test_triage_of_rules_candidates_builds_no_paragraph_index(monkeypatch):
    # every rules FP copies its own paragraph, which settles its triage
    texts = [f"{t} (rules only)" if t != "…" else t for t in TRIAGE_TEXTS]
    document = _doc(texts)
    paragraph_counters = [textnorm.raw_token_counts(t) for t in texts]
    built = []

    class SpyIndex(evaluation.TokenIndex):
        def __init__(self, counters):
            built.append(list(counters))
            super().__init__(counters)

    # the gold index is built through evaluation, a paragraph index through textnorm
    monkeypatch.setattr(evaluation, "TokenIndex", SpyIndex)
    monkeypatch.setattr(textnorm, "TokenIndex", SpyIndex)
    candidates = _rules_copies(texts, [0, 1, 2, 4])
    result = align(candidates, [_gold(texts[0])], document)
    assert [kind for _, kind in result.false_positives] == [
        FpKind.NOT_POL, FpKind.NOT_POL, FpKind.HALLUCINATION,
    ]
    assert built and paragraph_counters not in built


def test_aligning_three_candidate_sets_tokenizes_each_paragraph_once(monkeypatch):
    texts = [f"{t} (three sets)" if t != "…" else t for t in TRIAGE_TEXTS]
    document = _doc(texts)
    tokenized = []
    real = textnorm.raw_token_counts

    def spy(text):
        tokenized.append(text)
        return real(text)

    monkeypatch.setattr(textnorm, "raw_token_counts", spy)
    broad = _rules_copies(texts, range(len(texts)))
    refined = _rules_copies(texts, [0, 1])
    # an unresolved passage and a fabricated one make triage probe every paragraph
    llm = [_cand("la corte di cassazione ribadisce", -1), _cand("testo inventato di sana pianta", -1)]
    gold = [_gold(texts[0])]
    for candidates in (broad, refined, llm):
        align(candidates, gold, document)
    assert all(tokenized.count(text) <= 1 for text in texts)
    assert set(texts) <= set(tokenized)


def test_summarize_counts_every_alignment_of_a_repeated_judgment():
    doc = _doc(["una frase qualunque del testo"])
    alignment = align([_cand("una frase qualunque del testo")], [], doc)
    assert confusion(alignment) == ConfusionCounts(0, 1, 0)
    summary = evaluation.summarize([alignment, alignment])
    assert summary["confusion"] == {"tp": 0, "fp": 2, "fn": 0}
    # one row per alignment, in input order, as the tracking table has
    assert summary["per_document"] == [{"doc_id": "d.txt", "tp": 0, "fp": 1, "fn": 0}] * 2
    assert tracking_table([alignment, alignment]).to_records()[-1]["Not-PoL"] == 2
