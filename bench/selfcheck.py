"""Show that the benchmark's checks bite.

    python3 bench/selfcheck.py

Runs one untraced ``corpus_typical`` round, confirms that its outputs pass
every check, then applies one deliberate fault at a time to a copy of the
outputs and confirms that the check of that command reports the document
(or, for corpus-level outputs, every document) as failed. Then flips one
generator label of ``long_paragraphs`` (the workload whose paragraphs carry
labels) and confirms that the oracle cross-check refuses it. Exits 1 if any
fault goes unnoticed.
"""

from __future__ import annotations

import copy
import csv
import json
import shutil
import sys
from pathlib import Path

import run

ROOT = run.ROOT
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import checks  # noqa: E402
import generate  # noqa: E402


def _rewrite_json(path: Path, edit) -> None:
    data = json.loads(path.read_text(encoding="utf-8"))
    edit(data)
    path.write_text(json.dumps(data, ensure_ascii=False), encoding="utf-8")


def _rewrite_jsonl(path: Path, edit) -> None:
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]
    edit(rows)
    path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows), encoding="utf-8")


def _rewrite_csv(path: Path, edit) -> None:
    with open(path, encoding="utf-8", newline="") as fh:
        table = list(csv.reader(fh))
    edit(table)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(table)


def faults(exp: checks.Expected):
    """(description, command, expected failed documents, fault) tuples; a
    fault edits the output directory and/or the round result in place."""
    doc = next(d for d in exp.docs if exp.rows["v2_refined"][d])
    broad_doc = next(d for d in exp.docs if any(q for _, _, q in exp.rows["v1_broad"][d]))
    gold_doc = next(d for d in exp.docx if exp.gold[d])
    llm_doc = next(d for d in exp.docs if any(i >= 0 for i, _ in exp.llm[d]))
    eval_doc = sorted(exp.counts["v2_refined"])[0]
    everything = set(exp.docs)
    stem = Path(doc).stem

    def drop_csv_row(out, result):
        _rewrite_csv(out / "v2_refined" / f"{stem}.csv", lambda t: t.pop())

    def drop_jsonl_candidate(out, result):
        def edit(rows):
            rows.remove(next(r for r in rows if r["doc_id"] == doc))
        _rewrite_jsonl(out / "v2_refined" / "candidates.jsonl", edit)

    def change_broad_quote(out, result):
        def edit(table):
            row = next(r for r in table[1:] if r[1])
            row[1] = row[1][:-1]
        _rewrite_csv(out / "v1_broad" / f"{Path(broad_doc).stem}.csv", edit)

    def retype_gold(out, result):
        def edit(data):
            ann = next(a for a in data["annotations"] if a["doc_id"] == gold_doc)
            ann["pol_type"] = "Implicit" if ann["pol_type"] != "Implicit" else "ExplicitDirect"
        _rewrite_json(out / "gold.json", edit)

    def unmerge_gold(out, result):
        def edit(data):
            i, ann = next((i, a) for i, a in enumerate(data["annotations"]) if a["doc_id"] == gold_doc)
            words = ann["span_text"].split(" ")
            data["annotations"][i:i + 1] = [dict(ann, span_text=" ".join(words[:2])),
                                            dict(ann, span_text=" " + " ".join(words[2:]))]
        _rewrite_json(out / "gold.json", edit)

    def shift_llm_index(out, result):
        def edit(rows):
            row = next(r for r in rows if r["doc_id"] == llm_doc and r["paragraph_index"] >= 0)
            row["paragraph_index"] += 1
        _rewrite_jsonl(out / "llm.jsonl", edit)

    def resolve_fabricated(out, result):
        def edit(rows):
            row = next(r for r in rows if r["paragraph_index"] < 0)
            row["paragraph_index"] = 0
            result["expect"] = {row["doc_id"]}
        _rewrite_jsonl(out / "llm.jsonl", edit)

    def per_document_off_by_one(out, result):
        def edit(data):
            row = next(r for r in data["per_document"] if r["doc_id"] == eval_doc)
            row["fn"] += 1
        _rewrite_json(out / "evaluate" / "evaluation.json", edit)

    def printed_tp_off_by_one(out, result):
        stdout = result["commands"]["evaluate"]["stdout"]
        first, rest = stdout.split("\n", 1)
        tp = int(first.split()[0].split("=")[1])
        result["commands"]["evaluate"]["stdout"] = first.replace(f"tp={tp}", f"tp={tp + 1}", 1) + "\n" + rest

    def printed_recall_high(out, result):
        lines = result["commands"]["evaluate"]["stdout"].splitlines()
        for i, line in enumerate(lines):
            if line.startswith("paper"):
                value = line.split("recall=")[1].split()[0]
                bumped = f"{float(value) + 0.001:.3f}"
                lines[i] = line.replace(f"recall={value}", f"recall={bumped}")
        result["commands"]["evaluate"]["stdout"] = "\n".join(lines) + "\n"

    def swap_error_kinds(out, result):
        def edit(data):
            row = next(r for r in data["rows"] if r["Judgment"] == eval_doc)
            row["Not-PoL"], row["Hallucination"] = row["Hallucination"], row["Not-PoL"] + 1
        _rewrite_json(out / "evaluate" / "tracking.json", edit)

    def compare_hallucination_off_by_one(out, result):
        def edit(data):
            data["rows"][-1]["Hallucination"] += 1
        _rewrite_json(out / "compare" / "error_share.json", edit)

    def compare_type_count_off_by_one(out, result):
        def edit(data):
            data["rows"][1]["Implicit"] += 1
        _rewrite_json(out / "compare" / "comparison.json", edit)

    def cli_reports_failure(out, result):
        result["commands"]["extract_broad"]["stderr"] += f"warning: {doc}: not a readable .docx archive\n"

    return [
        ("v2_refined CSV row dropped", "extract", {doc}, drop_csv_row),
        ("v2_refined JSONL candidate dropped", "extract", {doc}, drop_jsonl_candidate),
        ("v1_broad captured quote cut short", "extract_broad", {broad_doc}, change_broad_quote),
        ("gold span retyped", "import_gold", {gold_doc}, retype_gold),
        ("gold span left unmerged", "import_gold", {gold_doc}, unmerge_gold),
        ("LLM candidate paragraph index shifted", "llm_extract", {llm_doc}, shift_llm_index),
        ("fabricated LLM passage resolved", "llm_extract", None, resolve_fabricated),
        ("evaluate per-document fn off by one", "evaluate", {eval_doc}, per_document_off_by_one),
        ("evaluate printed tp off by one", "evaluate", everything, printed_tp_off_by_one),
        ("evaluate paper recall printed one step high", "evaluate", everything, printed_recall_high),
        ("tracking Not-PoL/Hallucination swapped", "evaluate", {eval_doc}, swap_error_kinds),
        ("compare Hallucination count off by one", "compare", everything, compare_hallucination_off_by_one),
        ("compare implicit count off by one", "compare", everything, compare_type_count_off_by_one),
        ("CLI reports a document failed", "extract_broad", {doc}, cli_reports_failure),
    ]


def main() -> int:
    work = ROOT / ".bench_work" / "selfcheck"
    shutil.rmtree(work, ignore_errors=True)
    labels = generate.generate("corpus_typical", 1, work)
    exp = checks.Expected.from_labels(labels)
    result = run._round(work, traced=False)
    clean = checks.check_round(work / "out", exp, result)
    ok = not any(clean.values())
    print(f"{'PASS' if ok else 'FAIL'}: clean round passes every check")

    mutant = work / "mutant"
    for description, command, expected, fault in faults(exp):
        shutil.rmtree(mutant, ignore_errors=True)
        shutil.copytree(work / "out", mutant)
        faulty = copy.deepcopy(result)
        fault(mutant, faulty)
        expected = faulty.pop("expect", expected)
        failed = checks.check_round(mutant, exp, faulty)
        caught = failed[command] == expected and not any(
            docs for label, docs in failed.items() if label != command
        )
        ok &= caught
        print(f"{'PASS' if caught else 'FAIL'}: {description} -> {command} fails {sorted(failed[command])[:4]}")

    shutil.rmtree(work)
    labels = generate.generate("long_paragraphs", 1, work)
    labelled = [(doc, i) for doc in labels["docs"] for i, label in enumerate(doc["labels"]) if label is not None]
    if not labelled:
        print("FAIL: long_paragraphs carries no generator label to plant a fault in")
        return 1
    doc, i = labelled[0]
    v2, v1 = doc["labels"][i]
    doc["labels"][i] = ["" if v2 is None else None, v1]
    try:
        checks.Expected.from_labels(labels)
        caught = False
    except checks.LabelError:
        caught = True
    ok &= caught
    print(f"{'PASS' if caught else 'FAIL'}: generator label contradicting the oracle is refused")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
