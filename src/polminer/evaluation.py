"""Align extractor output with gold annotations and compute the report tables.

Alignment is greedy best-first on a token-overlap score, so a sub-paragraph
gold span still matches the whole-paragraph candidate that contains it and a
truncated candidate still matches the span it came from. Unmatched
candidates are triaged into text that exists in the source but is not a
principle (Not-PoL) versus text absent from the source (Hallucination).

Metrics come in two modes. Standard mode uses the conventional definitions.
Paper mode reproduces the historical result tables this harness is checked
against, whose formulas have precision and recall swapped relative to
standard usage; it is the default for reproduction runs.
"""

from __future__ import annotations

import csv
import functools
import io
import json
from collections import Counter
from decimal import ROUND_DOWN, ROUND_HALF_UP, Decimal
from enum import Enum
from typing import Mapping, NamedTuple, Sequence

from .corpus import Document
from .errors import DocMismatch, GoldMismatch
from .extractor import PoLCandidate, PoLType
from .goldstore import GoldAnnotation
from .textnorm import (
    SourceParagraphs,
    TokenIndex,
    _shared,
    normalize_text,
    overlap_coefficient,
    token_counts,
    token_edit_ratio,
    word_tokens,
)

FULL_COVERAGE = 0.95
WORD_EXCHANGE_MAX_EDIT_RATIO = 0.1
WORD_EXCHANGE_MAX_LENGTH_DELTA = 0.1
SUMMARY_MAX_LENGTH_RATIO = 0.7
ELLIPSIS_SUFFIXES = ("...", "…", "(...)", "(…)")

NOTE_ERROR_SPLIT = (
    "Error columns follow the per-tool tally convention (chat baseline: "
    "Not-PoL=16, Hallucination=29); some published cross-method summaries "
    "swap these two columns."
)


class Completeness(str, Enum):
    FULL = "Full"
    PARTIAL = "Partial"
    PARTIAL_ELLIPSIS = "PartialEllipsis"


class SimilarityClass(str, Enum):
    SAME_TEXT = "SameText"
    SUMMARY = "Summary"
    WORD_EXCHANGE = "WordExchange"
    DIVERGENT = "Divergent"


class FpKind(str, Enum):
    NOT_POL = "NotPoL"
    HALLUCINATION = "Hallucination"


class MetricsMode(str, Enum):
    PAPER = "paper"
    STANDARD = "standard"


class MatchRecord(NamedTuple):
    gold: GoldAnnotation
    candidate: PoLCandidate
    completeness: Completeness
    similarity: SimilarityClass
    score: float


class AlignmentResult(NamedTuple):
    doc_id: str
    matches: tuple[MatchRecord, ...]
    false_positives: tuple[tuple[PoLCandidate, FpKind], ...]
    false_negatives: tuple[GoldAnnotation, ...]
    page_count: int | None = None


class _Counts(NamedTuple):
    tp: int = 0
    fp: int = 0
    fn: int = 0


class ConfusionCounts(_Counts):
    """True positives, false positives and false negatives. Every
    construction, ``_replace`` included, checks that none is negative."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "ConfusionCounts":
        counts = super().__new__(cls, *args, **kwargs)
        if min(counts) < 0:
            raise ValueError("confusion counts must be non-negative")
        return counts

    @classmethod
    def _make(cls, iterable) -> "ConfusionCounts":
        # the NamedTuple _make, which _replace calls, would skip __new__
        return cls(*iterable)

    # a tuple's + concatenates
    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(self.tp + other.tp, self.fp + other.fp, self.fn + other.fn)


def _round_to(value: float, digits: int, rounding: str) -> float:
    q = Decimal(1).scaleb(-digits)
    return float(Decimal(repr(value)).quantize(q, rounding=rounding))


def round_half_up(value: float, digits: int = 3) -> float:
    return _round_to(value, digits, ROUND_HALF_UP)


def round_down(value: float, digits: int = 3) -> float:
    return _round_to(value, digits, ROUND_DOWN)


class MetricsReport(NamedTuple):
    mode: MetricsMode
    precision: float
    recall: float
    accuracy: float
    f1: float

    def presentation(self) -> dict[str, float]:
        """Values rounded to 3 decimals for display.

        In paper mode the recall column truncates instead of rounding: the
        published tables this harness reproduces were visibly truncated in
        that column (161/206 -> 0.781, 365/452 -> 0.807) while the other
        columns round half-up.
        """
        recall_round = round_down if self.mode is MetricsMode.PAPER else round_half_up
        return {
            "precision": round_half_up(self.precision),
            "recall": recall_round(self.recall),
            "accuracy": round_half_up(self.accuracy),
            "f1": round_half_up(self.f1),
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics(counts: ConfusionCounts, mode: MetricsMode = MetricsMode.PAPER) -> MetricsReport:
    tp, fp, fn = counts.tp, counts.fp, counts.fn
    if mode is MetricsMode.PAPER:
        precision = _ratio(tp, tp + fn)
        recall = _ratio(tp, tp + fp)
    else:
        precision = _ratio(tp, tp + fp)
        recall = _ratio(tp, tp + fn)
    accuracy = _ratio(tp, tp + fp + fn)
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return MetricsReport(mode=mode, precision=precision, recall=recall, accuracy=accuracy, f1=f1)


def _ends_with_ellipsis(text: str) -> bool:
    t = text.rstrip()
    return t.endswith(ELLIPSIS_SUFFIXES)


class _Normalized(NamedTuple):
    """A gold span's or a candidate's text, normalized and tokenized once per judgment."""

    text: str
    tokens: list[str]
    counts: Counter[str]


def _normalized(text: str) -> _Normalized:
    normalized = normalize_text(text)
    words = word_tokens(normalized)
    return _Normalized(normalized, words, token_counts(words))


def _classify_match(
    gold_text: _Normalized,
    candidate: str,
    cand_text: _Normalized,
    overlap_threshold: float,
) -> tuple[Completeness, SimilarityClass]:
    """Completeness and similarity of a match between a gold span and the
    candidate text ``candidate``, both normalized and tokenized.

    Coverage, the gold span's containment in the candidate, and the
    candidate's containment in the gold span both divide the one count of
    the tokens they share; a match shares a token, so neither side is empty.
    """
    gold_tokens, cand_tokens = gold_text.tokens, cand_text.tokens
    shared = _shared(gold_text.counts, cand_text.counts)
    if shared / len(gold_tokens) >= FULL_COVERAGE:
        completeness = Completeness.FULL
    elif _ends_with_ellipsis(candidate):
        completeness = Completeness.PARTIAL_ELLIPSIS
    else:
        completeness = Completeness.PARTIAL

    if cand_text.text == gold_text.text:
        similarity = SimilarityClass.SAME_TEXT
    else:
        edit = token_edit_ratio(cand_tokens, gold_tokens)
        length_delta = abs(len(cand_tokens) - len(gold_tokens))
        if (
            edit <= WORD_EXCHANGE_MAX_EDIT_RATIO
            and length_delta <= WORD_EXCHANGE_MAX_LENGTH_DELTA * max(len(gold_tokens), 1)
        ):
            similarity = SimilarityClass.WORD_EXCHANGE
        elif (
            len(cand_tokens) <= SUMMARY_MAX_LENGTH_RATIO * len(gold_tokens)
            and shared / len(cand_tokens) >= overlap_threshold
        ):
            similarity = SimilarityClass.SUMMARY
        else:
            similarity = SimilarityClass.DIVERGENT
    return completeness, similarity


# (gold position, score, completeness, similarity) of a text and a gold span it reaches
_Pair = tuple[int, float, Completeness, SimilarityClass]


class _Judgment:
    """The alignment work that the candidate sets of one judgment share.

    The gold spans are indexed once. The first time any set holds a text,
    it is scored against the gold spans it reaches and each such pair
    classified; its normalized form is then dropped. The candidate sets of
    a ``compare`` repeat most of each other's texts.
    """

    def __init__(self, document: Document, gold: tuple[GoldAnnotation, ...], overlap_threshold: float):
        self.source = SourceParagraphs(document.paragraphs)
        self.gold_texts = [_normalized(a.span_text) for a in gold]
        self.gold_index = TokenIndex([g.counts for g in self.gold_texts])
        self.overlap_threshold = overlap_threshold
        # text -> its pair with each gold span it reaches; one reaching none
        # maps to the shared empty tuple, which the collector does not track
        self.pairs: dict[str, tuple[_Pair, ...]] = {}

    def reached(self, text: str) -> tuple[_Pair, ...]:
        """The scored and classified pairs of ``text`` with each gold span
        it reaches ``overlap_threshold`` with, found through the gold index
        when a set first holds the text; without gold spans no text is even
        normalized."""
        if not self.gold_texts:
            return ()
        pairs = self.pairs.get(text)
        if pairs is None:
            normalized = _normalized(text)
            pairs = self.pairs[text] = tuple(
                # kept though overlapping returned the count: the traced evaluation.match_yield counts these calls
                (gi, overlap_coefficient(self.gold_texts[gi].counts, normalized.counts),
                 *_classify_match(self.gold_texts[gi], text, normalized, self.overlap_threshold))
                for gi in self.gold_index.overlapping(normalized.counts, self.overlap_threshold)
            )
        return pairs


@functools.lru_cache(maxsize=1)
def _judgment(document: Document, gold: tuple[GoldAnnotation, ...], overlap_threshold: float) -> _Judgment:
    """One entry: every candidate set of a judgment is aligned with the same
    gold before the next judgment, so each set reuses the pairs of the sets
    before it, at any hallucination threshold, and each paragraph is
    tokenized at most once."""
    return _Judgment(document, gold, overlap_threshold)


def align(
    candidates: Sequence[PoLCandidate],
    gold: Sequence[GoldAnnotation],
    document: Document,
    overlap_threshold: float = 0.8,
    hallucination_threshold: float = 0.6,
) -> AlignmentResult:
    """Greedy best-first 1:1 matching of candidates against gold spans.

    Pairs scoring at least ``overlap_threshold`` (multiset token overlap)
    match, highest score first; ties break on lowest gold paragraph index,
    then lowest candidate paragraph index. Each candidate text probes an
    index over the gold spans, built once per judgment, so only pairs
    sharing a token are scored, since any other pair scores 0. An unmatched
    candidate is a Not-PoL if any source paragraph reaches
    ``hallucination_threshold`` against it, otherwise a Hallucination. A
    copy of its own paragraph is a Not-PoL when it holds a token, with no
    paragraph tokenized; any other text is scored against its own
    paragraph first. If that falls short, a text sharing no token with the
    judgment's case-folded text is a Hallucination, and only one that does
    is scored against the paragraphs it shares a token with
    (``SourceParagraphs.reaching``). Each text's scored and classified
    pairs with the gold spans it reaches are kept for the next call with
    the same judgment, gold and overlap threshold, at any hallucination
    threshold, so the candidate sets of one judgment aligned in turn
    compute each pair only once; each unmatched candidate is triaged anew.
    """
    for value, name in ((overlap_threshold, "overlap_threshold"),
                        (hallucination_threshold, "hallucination_threshold")):
        if not 0 < value <= 1:
            raise ValueError(f"{name} must be in (0, 1], got {value}")
    doc_ids = {document.doc_id} | {c.doc_id for c in candidates} | {a.doc_id for a in gold}
    if len(doc_ids) > 1:
        raise DocMismatch(f"mixed doc_ids in one alignment: {sorted(doc_ids)}")

    judgment = _judgment(document, tuple(gold), overlap_threshold)
    scored = [
        (score, gold[gi].paragraph_index, cand.paragraph_index, gi, ci, completeness, similarity)
        for ci, cand in enumerate(candidates)
        for gi, score, completeness, similarity in judgment.reached(cand.text)
    ]
    scored.sort(key=lambda item: (-item[0], item[1], item[2], item[3], item[4]))

    matched_gold: set[int] = set()
    matched_cand: set[int] = set()
    matches: list[tuple[int, MatchRecord]] = []
    for score, _, _, gi, ci, completeness, similarity in scored:
        if gi in matched_gold or ci in matched_cand:
            continue
        matched_gold.add(gi)
        matched_cand.add(ci)
        matches.append((gi, MatchRecord(gold=gold[gi], candidate=candidates[ci], completeness=completeness,
                                        similarity=similarity, score=score)))
    matches.sort(key=lambda item: item[0])

    # triage compares text as written: a candidate that is nothing but a
    # citation tail still exists in the source and must not read as fabricated
    in_source = judgment.source.in_source
    false_positives = [
        (cand, FpKind.NOT_POL if in_source(cand.text, cand.paragraph_index, hallucination_threshold)
         else FpKind.HALLUCINATION)
        for ci, cand in enumerate(candidates)
        if ci not in matched_cand
    ]

    false_negatives = tuple(ann for gi, ann in enumerate(gold) if gi not in matched_gold)
    return AlignmentResult(
        doc_id=document.doc_id,
        matches=tuple(m for _, m in matches),
        false_positives=tuple(false_positives),
        false_negatives=false_negatives,
        page_count=document.page_count,
    )


def confusion(alignment: AlignmentResult) -> ConfusionCounts:
    return ConfusionCounts(
        tp=len(alignment.matches),
        fp=len(alignment.false_positives),
        fn=len(alignment.false_negatives),
    )


class Table:
    """A titled table: its column names, its rows, and the notes under it."""

    def __init__(self, title: str, columns: list[str], rows: list[list[object]], footnotes: list[str] | None = None):
        self.title = title
        self.columns = columns
        self.rows = rows
        self.footnotes = [] if footnotes is None else footnotes

    def to_records(self) -> list[dict]:
        return [dict(zip(self.columns, row)) for row in self.rows]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.columns)
        writer.writerows(self.rows)
        return buf.getvalue()

    def to_json(self) -> str:
        payload = {"rows": self.to_records(), "footnotes": self.footnotes}
        return json.dumps(payload, ensure_ascii=False, indent=2) + "\n"

    def to_markdown(self) -> str:
        cells = [[_md_cell(_fmt_cell(v)) for v in row] for row in [self.columns, *self.rows]]
        widths = [max(len(row[i]) for row in cells) for i in range(len(self.columns))]
        lines = []
        if self.title:
            lines.append(f"### {self.title}")
            lines.append("")
        lines.append("| " + " | ".join(c.ljust(w) for c, w in zip(cells[0], widths)) + " |")
        lines.append("|" + "|".join("-" * (w + 2) for w in widths) + "|")
        for row in cells[1:]:
            lines.append("| " + " | ".join(c.ljust(w) for c, w in zip(row, widths)) + " |")
        for note in self.footnotes:
            lines.append("")
            lines.append(f"_{note}_")
        return "\n".join(lines) + "\n"


def _fmt_cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:g}"
    return "" if value is None else str(value)


def _md_cell(text: str) -> str:
    """``text`` as one markdown table cell: ``|`` escaped, each line break
    written as ``<br>``."""
    # the sentinel keeps a trailing line break, which splitlines drops
    return "<br>".join((text + ".").splitlines())[:-1].replace("|", "\\|")


TRACKING_COLUMNS = [
    "Judgment",
    "ANN", "ANN Implicit", "ANN Ex. Direct", "ANN Ex. Indirect",
    "Tool (full)", "Tool (partial)", "Tool (partial ...)",
    "Tool Implicit", "Tool Ex. Direct", "Tool Ex. Indirect",
    "Same Text", "Summary", "Word Exchange", "Divergent",
    "Hallucination", "Not-PoL", "Note", "Pag.",
]


def tracking_table(alignments: Sequence[AlignmentResult]) -> Table:
    """Per-judgment tracking rows plus a TOTAL row.

    Matched principles are typed by their gold annotation; completeness and
    similarity tallies cover matches only, error columns cover the
    unmatched candidates.
    """
    rows: list[list[object]] = []
    for a in alignments:
        gold_all = [m.gold for m in a.matches] + list(a.false_negatives)
        ann_types = Counter(g.pol_type for g in gold_all)
        tool_types = Counter(m.gold.pol_type for m in a.matches)
        comp = Counter(m.completeness for m in a.matches)
        sim = Counter(m.similarity for m in a.matches)
        fp_kinds = Counter(kind for _, kind in a.false_positives)
        rows.append([
            a.doc_id,
            len(gold_all),
            ann_types[PoLType.IMPLICIT],
            ann_types[PoLType.EXPLICIT_DIRECT],
            ann_types[PoLType.EXPLICIT_INDIRECT],
            comp.get(Completeness.FULL, 0),
            comp.get(Completeness.PARTIAL, 0),
            comp.get(Completeness.PARTIAL_ELLIPSIS, 0),
            tool_types[PoLType.IMPLICIT],
            tool_types[PoLType.EXPLICIT_DIRECT],
            tool_types[PoLType.EXPLICIT_INDIRECT],
            sim.get(SimilarityClass.SAME_TEXT, 0),
            sim.get(SimilarityClass.SUMMARY, 0),
            sim.get(SimilarityClass.WORD_EXCHANGE, 0),
            sim.get(SimilarityClass.DIVERGENT, 0),
            fp_kinds.get(FpKind.HALLUCINATION, 0),
            fp_kinds.get(FpKind.NOT_POL, 0),
            "",  # Note
            a.page_count if a.page_count is not None else "",
        ])
    total = ["TOTAL"]
    for col in range(1, len(TRACKING_COLUMNS) - 2):
        total.append(sum(row[col] for row in rows))
    total.extend(["", ""])
    rows.append(total)
    return Table(title="Extraction tracking", columns=TRACKING_COLUMNS, rows=rows)


def percent(count: int, whole: int, digits: int = 1) -> float:
    return round_half_up(_ratio(count, whole) * 100, digits)


class ComparisonReport(NamedTuple):
    comparison: Table
    error_share: Table


def comparison_table(
    gold: Sequence[GoldAnnotation],
    methods: Mapping[str, Sequence[AlignmentResult]],
) -> ComparisonReport:
    """Cross-method comparison against the whole gold set, plus error shares.

    ``gold`` is the annotations ``load_gold`` returns. Each method must
    align exactly those annotations; percentages are computed against the
    whole-gold counts and rounded half-up to one decimal.
    """
    if len(methods) < 2:
        raise ValueError("need at least two methods to compare")
    annotations = set(gold)
    for name, alignments in methods.items():
        aligned = {m.gold for a in alignments for m in a.matches}
        if aligned.union(*(a.false_negatives for a in alignments)) != annotations:
            raise GoldMismatch(f"method {name!r} is not aligned against the given gold set")

    whole = len(gold)
    whole_types = Counter(a.pol_type for a in gold)
    columns = [
        "Method", "PoLs", "PoLs %",
        "Implicit", "Implicit %",
        "Ex. Direct", "Ex. Direct %",
        "Ex. Indirect", "Ex. Indirect %",
    ]
    rows: list[list[object]] = [[
        "Whole PoLs", whole, "",
        whole_types[PoLType.IMPLICIT], "",
        whole_types[PoLType.EXPLICIT_DIRECT], "",
        whole_types[PoLType.EXPLICIT_INDIRECT], "",
    ]]
    err_columns = [
        "Method", "Total found", "Errors", "Errors %",
        "Not-PoL", "Not-PoL %", "Hallucination", "Hallucination %",
    ]
    err_rows: list[list[object]] = []
    for name, alignments in methods.items():
        found = [m.gold for a in alignments for m in a.matches]
        found_types = Counter(g.pol_type for g in found)
        tp = len(found)
        fp_kinds = Counter(kind for a in alignments for _, kind in a.false_positives)
        fp = sum(fp_kinds.values())
        rows.append([
            name, tp, percent(tp, whole),
            found_types[PoLType.IMPLICIT],
            percent(found_types[PoLType.IMPLICIT], whole_types[PoLType.IMPLICIT]),
            found_types[PoLType.EXPLICIT_DIRECT],
            percent(found_types[PoLType.EXPLICIT_DIRECT], whole_types[PoLType.EXPLICIT_DIRECT]),
            found_types[PoLType.EXPLICIT_INDIRECT],
            percent(found_types[PoLType.EXPLICIT_INDIRECT], whole_types[PoLType.EXPLICIT_INDIRECT]),
        ])
        total_found = tp + fp
        err_rows.append([
            name, total_found, fp, percent(fp, total_found),
            fp_kinds.get(FpKind.NOT_POL, 0),
            percent(fp_kinds.get(FpKind.NOT_POL, 0), total_found),
            fp_kinds.get(FpKind.HALLUCINATION, 0),
            percent(fp_kinds.get(FpKind.HALLUCINATION, 0), total_found),
        ])
    return ComparisonReport(
        comparison=Table(title="Methods vs whole gold", columns=columns, rows=rows),
        error_share=Table(
            title="Error shares",
            columns=err_columns,
            rows=err_rows,
            footnotes=[NOTE_ERROR_SPLIT],
        ),
    )


def summarize(alignments: Sequence[AlignmentResult]) -> dict:
    """Corpus-level counts, both metric modes, and one per-document row per
    alignment, in input order."""
    per_doc = [confusion(a) for a in alignments]
    total = sum(per_doc, ConfusionCounts())
    paper = metrics(total, MetricsMode.PAPER)
    standard = metrics(total, MetricsMode.STANDARD)
    return {
        "confusion": {"tp": total.tp, "fp": total.fp, "fn": total.fn},
        "metrics": {
            "paper": paper.presentation(),
            "standard": standard.presentation(),
            "full_precision": {
                "paper": {"precision": paper.precision, "recall": paper.recall,
                          "accuracy": paper.accuracy, "f1": paper.f1},
                "standard": {"precision": standard.precision, "recall": standard.recall,
                             "accuracy": standard.accuracy, "f1": standard.f1},
            },
        },
        "per_document": [
            {"doc_id": a.doc_id, "tp": c.tp, "fp": c.fp, "fn": c.fn}
            for a, c in zip(alignments, per_doc)
        ],
    }
