"""Expected outputs of a round, computed apart from the program, and the checks.

``Expected.from_labels`` derives everything a round must produce from the
generator's labels: rule-extraction rows from the regex replay in
``tests/oracles.py`` (cross-checked against the generator's keep/drop and
first-quote labels where it wrote them), imported gold from the highlight
runs, LLM paragraph indices from the passages' sources, and confusion
counts from which gold paragraphs each method keeps. ``check_round``
compares one round's outputs with them and returns the failed documents
per command.
"""

from __future__ import annotations

import csv
import json
import re
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import oracles

COMMANDS = ("import_gold", "extract", "extract_broad", "llm_extract", "evaluate", "compare")
RULE_PROFILES = ("v2_refined", "v1_broad")  # in the order of the generator's labels
METHODS = ("v1_broad", "v2_refined", "llm")  # compare's methods, named after their files
TYPES = ("Implicit", "ExplicitDirect", "ExplicitIndirect")
TYPE_COLUMNS = {"Implicit": "Implicit", "ExplicitDirect": "Ex. Direct", "ExplicitIndirect": "Ex. Indirect"}


class LabelError(Exception):
    """The generator's labels disagree with the oracle: a benchmark fault."""


@dataclass(frozen=True)
class Counts:
    """One method's alignment outcome on one document."""

    tp: int
    fp: int
    fn: int
    not_pol: int
    hallucination: int
    tp_types: tuple[int, int, int]  # matched gold by TYPES
    gold_types: tuple[int, int, int]


def _rule_outcome(text: str, profile: str) -> str | None:
    """Captured quote ("" for none) when the replayed script keeps ``text``."""
    if profile == "v2_refined":
        rows = oracles.replay_refined([text])
        return rows[0][1] if rows else None
    if not oracles.replay_broad([text]):
        return None
    quotes = oracles.oracle_quotes(text)
    return quotes[0] if quotes else ""


def _counts(kept: list[int], gold: dict[int, str], hallucinated: int) -> Counts:
    tp_types = Counter(gold[i] for i in kept if i in gold)
    tp = sum(tp_types.values())
    gold_types = Counter(gold.values())
    return Counts(
        tp=tp,
        fp=len(kept) + hallucinated - tp,
        fn=len(gold) - tp,
        not_pol=len(kept) - tp,
        hallucination=hallucinated,
        tp_types=tuple(tp_types[t] for t in TYPES),
        gold_types=tuple(gold_types[t] for t in TYPES),
    )


@dataclass
class Expected:
    docs: list[str]
    docx: list[str]
    gold: dict[str, list[tuple[int, str, str]]]  # doc -> (paragraph, span, type)
    rows: dict[str, dict[str, list[tuple[int, str, str]]]]  # profile -> doc -> (paragraph, text, quote)
    llm: dict[str, list[tuple[int, str]]]  # doc -> (paragraph or -1, passage)
    counts: dict[str, dict[str, Counts]]  # method -> doc -> counts, for docs that align
    paragraphs: int
    docx_paragraphs: int
    passages: int

    @classmethod
    def from_labels(cls, labels: dict) -> "Expected":
        docs, docx, gold, llm = [], [], {}, {}
        rows: dict[str, dict] = {p: {} for p in RULE_PROFILES}
        counts: dict[str, dict] = {m: {} for m in METHODS}
        paragraphs = docx_paragraphs = passages = 0
        for doc in labels["docs"]:
            name, texts = doc["name"], doc["texts"]
            docs.append(name)
            paragraphs += len(texts)
            if name.endswith(".docx"):
                docx.append(name)
                docx_paragraphs += len(texts)
            gold[name] = [(g["paragraph_index"], g["span_text"], g["pol_type"]) for g in doc["gold"]]
            gold_index = {g["paragraph_index"]: g["pol_type"] for g in doc["gold"]}
            for slot, profile in enumerate(RULE_PROFILES):
                doc_rows = []
                for index, (text, label) in enumerate(zip(texts, doc["labels"])):
                    outcome = _rule_outcome(text, profile)
                    if label is not None and label[slot] != outcome:
                        raise LabelError(f"{name}#{index} {profile}: label {label[slot]!r}, oracle {outcome!r}")
                    if outcome is not None:
                        doc_rows.append((index, text, outcome))
                rows[profile][name] = doc_rows
                if doc_rows or gold_index:
                    counts[profile][name] = _counts([r[0] for r in doc_rows], gold_index, 0)
            llm[name] = [(p["index"], p["text"]) for p in doc["passages"]]
            passages += len(llm[name])
            if llm[name] or gold_index:
                resolved = [i for i, _ in llm[name] if i >= 0]
                counts["llm"][name] = _counts(resolved, gold_index, len(llm[name]) - len(resolved))
        return cls(docs, docx, gold, rows, llm, counts, paragraphs, docx_paragraphs, passages)

    def candidates(self, method: str) -> int:
        if method == "llm":
            return self.passages
        return sum(len(r) for r in self.rows[method].values())

    def operations(self) -> int:
        """(command, document) pairs in one round."""
        return len(self.docx) + (len(COMMANDS) - 1) * len(self.docs)


# --- rounding rules of the README ------------------------------------------


def _displayed(value: Fraction, digits: int, truncate: bool) -> set[Fraction]:
    """Values a display rounding of ``value`` may show: round half-up, or
    truncation. On an exact half-up tie either neighbour is accepted, since
    the program rounds a binary float that may sit just below the tie."""
    scale = 10**digits
    scaled = value * scale
    floor = scaled.numerator // scaled.denominator
    if truncate:
        return {Fraction(floor, scale)}
    up = floor + (1 if scaled - floor >= Fraction(1, 2) else 0)
    shown = {Fraction(up, scale)}
    if scaled - floor == Fraction(1, 2):
        shown.add(Fraction(floor, scale))
    return shown


def _ratio(num: int, den: int) -> Fraction:
    return Fraction(num, den) if den else Fraction(0)


def expected_metrics(tp: int, fp: int, fn: int) -> dict[str, dict[str, set[Fraction]]]:
    """Displayed values per mode: paper mode swaps precision and recall and
    truncates its recall column; everything else rounds half-up."""
    shown = {}
    for mode in ("paper", "standard"):
        if mode == "paper":
            precision, recall = _ratio(tp, tp + fn), _ratio(tp, tp + fp)
        else:
            precision, recall = _ratio(tp, tp + fp), _ratio(tp, tp + fn)
        accuracy = _ratio(tp, tp + fp + fn)
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else Fraction(0)
        shown[mode] = {
            "precision": _displayed(precision, 3, False),
            "recall": _displayed(recall, 3, mode == "paper"),
            "accuracy": _displayed(accuracy, 3, False),
            "f1": _displayed(f1, 3, False),
        }
    return shown


def _percent_ok(printed, count: int, whole: int) -> bool:
    return Fraction(str(printed)) in _displayed(_ratio(count, whole) * 100, 1, False)


# --- checks --------------------------------------------------------------------


def _read_jsonl(path: Path) -> dict[str, list[dict]]:
    by_doc: dict[str, list[dict]] = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                row = json.loads(line)
                by_doc[row["doc_id"]].append(row)
    return by_doc


def _check_import_gold(out: Path, exp: Expected) -> set[str]:
    data = json.loads((out / "gold.json").read_text(encoding="utf-8"))
    by_doc: dict[str, list] = defaultdict(list)
    for ann in data["annotations"]:
        by_doc[ann["doc_id"]].append((ann["paragraph_index"], ann["span_text"], ann["pol_type"], ann["origin"]))
    wrong = set(by_doc) - set(exp.docx)
    for doc in exp.docx:
        if by_doc.get(doc, []) != [(i, s, t, "Human") for i, s, t in exp.gold[doc]]:
            wrong.add(doc)
    return wrong


def _check_extract(out: Path, exp: Expected, profile: str) -> set[str]:
    directory = out / profile
    listed = _read_jsonl(directory / "candidates.jsonl")
    wrong = set(listed) - set(exp.docs)
    for doc in exp.docs:
        rows = exp.rows[profile][doc]
        try:
            with open(directory / (Path(doc).stem + ".csv"), encoding="utf-8", newline="") as fh:
                table = list(csv.reader(fh))
        except OSError:
            table = None  # this document's CSV is missing
        if table != [["Paragraph", "Quote"]] + [[text, quote] for _, text, quote in rows]:
            wrong.add(doc)
        if [(c["paragraph_index"], c["text"], c["quote"]) for c in listed.get(doc, [])] != rows:
            wrong.add(doc)
    return wrong


def _check_llm(out: Path, exp: Expected) -> set[str]:
    listed = _read_jsonl(out / "llm.jsonl")
    wrong = set(listed) - set(exp.docs)
    for doc in exp.docs:
        if [(c["paragraph_index"], c["text"]) for c in listed.get(doc, [])] != exp.llm[doc]:
            wrong.add(doc)
    return wrong


def _total(counts: dict[str, Counts]) -> Counts:
    values = list(counts.values())
    return Counts(
        *(sum(getattr(c, f) for c in values) for f in ("tp", "fp", "fn", "not_pol", "hallucination")),
        tp_types=tuple(sum(c.tp_types[i] for c in values) for i in range(3)),
        gold_types=tuple(sum(c.gold_types[i] for c in values) for i in range(3)),
    )


_METRIC_LINE = re.compile(r"^(paper|standard)\s+precision=(\S+) recall=(\S+) accuracy=(\S+) f1=(\S+)$")


def _printed_ok(stdout: str, total: Counts) -> bool:
    lines = stdout.splitlines()
    if f"tp={total.tp} fp={total.fp} fn={total.fn}" not in lines:
        return False
    shown = expected_metrics(total.tp, total.fp, total.fn)
    seen = set()
    for line in lines:
        m = _METRIC_LINE.match(line)
        if not m:
            continue
        mode = m.group(1)
        seen.add(mode)
        for name, printed in zip(("precision", "recall", "accuracy", "f1"), m.groups()[1:]):
            if Fraction(printed) not in shown[mode][name]:
                return False
    return seen == {"paper", "standard"}


def _check_evaluate(out: Path, exp: Expected, stdout: str) -> set[str]:
    counts = exp.counts["v2_refined"]
    total = _total(counts)
    summary = json.loads((out / "evaluate" / "evaluation.json").read_text(encoding="utf-8"))
    if summary["confusion"] != {"tp": total.tp, "fp": total.fp, "fn": total.fn} or not _printed_ok(stdout, total):
        return set(exp.docs)
    per_doc = {row["doc_id"]: (row["tp"], row["fp"], row["fn"]) for row in summary["per_document"]}
    tracking = json.loads((out / "evaluate" / "tracking.json").read_text(encoding="utf-8"))["rows"]
    rows = {row["Judgment"]: row for row in tracking}
    wrong = (set(per_doc) | set(rows) - {"TOTAL"}) - set(counts)
    for doc, c in counts.items():
        row = rows.get(doc, {})
        if (
            per_doc.get(doc) != (c.tp, c.fp, c.fn)
            or row.get("ANN") != c.tp + c.fn
            or row.get("Not-PoL") != c.not_pol
            or row.get("Hallucination") != c.hallucination
            or tuple(row.get(f"Tool {TYPE_COLUMNS[t]}") for t in TYPES) != c.tp_types
        ):
            wrong.add(doc)
    return wrong


def _check_compare(out: Path, exp: Expected) -> bool:
    comparison = json.loads((out / "compare" / "comparison.json").read_text(encoding="utf-8"))["rows"]
    shares = json.loads((out / "compare" / "error_share.json").read_text(encoding="utf-8"))["rows"]
    totals = {m: _total(exp.counts[m]) for m in METHODS}
    gold_types = dict(zip(TYPES, totals["llm"].gold_types))
    whole = sum(gold_types.values())
    first = {"Method": "Whole PoLs", "PoLs": whole, "PoLs %": ""}
    for t in TYPES:
        first |= {TYPE_COLUMNS[t]: gold_types[t], f"{TYPE_COLUMNS[t]} %": ""}
    if not comparison or comparison[0] != first:
        return False
    if [r["Method"] for r in comparison[1:]] != list(METHODS) or [r["Method"] for r in shares] != list(METHODS):
        return False
    for row, share, method in zip(comparison[1:], shares, METHODS):
        c = totals[method]
        if row["PoLs"] != c.tp or not _percent_ok(row["PoLs %"], c.tp, whole):
            return False
        for t, found in zip(TYPES, c.tp_types):
            column = TYPE_COLUMNS[t]
            if row[column] != found or not _percent_ok(row[f"{column} %"], found, gold_types[t]):
                return False
        found = c.tp + c.fp
        expected_share = {"Total found": found, "Errors": c.fp, "Not-PoL": c.not_pol, "Hallucination": c.hallucination}
        for column, value in expected_share.items():
            if share[column] != value:
                return False
            if column != "Total found" and not _percent_ok(share[f"{column} %"], value, found):
                return False
    return True


EXIT_PARTIAL = 2  # the CLI's exit code when its warnings name the failed documents


def _reported(command: dict, docs: list[str]) -> set[str]:
    """Documents the CLI itself reports as failed; all of them on a fatal exit."""
    if command["exit"] not in (0, EXIT_PARTIAL):
        return set(docs)
    warnings = [line for line in command["stderr"].splitlines() if line.startswith("warning:")]
    return {doc for doc in docs if any(doc in line for line in warnings)}


def check_round(out: Path, exp: Expected, result: dict) -> dict[str, set[str]]:
    """Failed documents per command for one round's outputs."""
    commands = result["commands"]
    checks = {
        "import_gold": (exp.docx, lambda: _check_import_gold(out, exp)),
        "extract": (exp.docs, lambda: _check_extract(out, exp, "v2_refined")),
        "extract_broad": (exp.docs, lambda: _check_extract(out, exp, "v1_broad")),
        "llm_extract": (exp.docs, lambda: _check_llm(out, exp)),
        "evaluate": (exp.docs, lambda: _check_evaluate(out, exp, commands["evaluate"]["stdout"])),
        "compare": (exp.docs, lambda: set() if _check_compare(out, exp) else set(exp.docs)),
    }
    failed = {}
    for label, (docs, check) in checks.items():
        try:
            wrong = check()
        except (OSError, ValueError, KeyError, TypeError, IndexError):
            wrong = set(docs)  # missing or unreadable output
        if not wrong <= set(docs):
            wrong = set(docs)  # output for a document that does not exist
        failed[label] = _reported(commands[label], docs) | wrong
    return failed
