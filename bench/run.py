"""Pipeline benchmark: one workload, measured end to end or traced per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed under ``.bench_work/NAME``,
then runs rounds until S seconds have passed. A round is one fresh
interpreter (``bench/pipeline.py``) that imports polminer, times one
warm-up extraction (the set-up), and runs the six pipeline commands through
``polminer.cli.main``. Every round's outputs are checked against values
computed apart from the program (``bench/checks.py``). The first round only
warms caches; its outputs are checked but its times are not used.

With ``--trace 0`` it reports the end-to-end metrics of the measured
rounds, every time scaled by its round's host-speed factor (see
``pipeline.py``): a command's time is the median of all its runs (a short
command runs several times a round), set-up time and peak RSS are medians
over rounds, and each rate divides a count fixed by the generator by a
command's time. Each round's figures also go to standard error as JSON.
With ``--trace 1`` traced and untraced rounds alternate; it reports the
per-layer metrics (medians over the traced rounds) and the tracing
overhead, the median over adjacent traced and untraced rounds of the
difference in ``pipeline_s``. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``. The exit
status is 1 when any operation failed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
ROUND_TIMEOUT_S = 150

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "pipeline_s": "s",
    "import_gold_paragraphs_per_s": "paragraphs/s",
    "extract_paragraphs_per_s": "paragraphs/s",
    "extract_broad_paragraphs_per_s": "paragraphs/s",
    "llm_extract_passages_per_s": "passages/s",
    "evaluate_candidates_per_s": "candidates/s",
    "compare_candidates_per_s": "candidates/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {  # name -> unit
    "corpus.load_document.calls": "count",
    "corpus.load_document.self_s": "s",
    "corpus.docx_paragraph_elements.self_s": "s",
    "rules.match_keywords.calls": "count",
    "rules.match_keywords.self_s": "s",
    "rules.find_quotes.calls": "count",
    "rules.find_quotes.self_s": "s",
    "rules.citation_at_end.calls": "count",
    "rules.citation_at_end.self_s": "s",
    "rules.scan_growth_4x": "ratio",
    "citations.find_citations.calls": "count",
    "citations.find_citations.self_s": "s",
    "citations.parse_citation.calls": "count",
    "citations.parse_citation.self_s": "s",
    "citations.parse_citation.ok_ratio": "ratio",
    "extractor.extract_candidates.self_s": "s",
    "extractor.emit_csv.calls": "count",
    "extractor.emit_csv.self_s": "s",
    "extractor.save_candidates_jsonl.self_s": "s",
    "extractor.load_candidates_jsonl.self_s": "s",
    "extractor.kept_ratio": "ratio",
    "goldstore.import_docx_highlights.calls": "count",
    "goldstore.import_docx_highlights.self_s": "s",
    "goldstore.save_gold.self_s": "s",
    "goldstore.load_gold.self_s": "s",
    "textnorm.token_counts.calls": "count",
    "textnorm.token_counts.self_s": "s",
    "textnorm.raw_token_counts.calls": "count",
    "textnorm.raw_token_counts.self_s": "s",
    "textnorm.overlap_coefficient.calls": "count",
    "textnorm.overlap_coefficient.self_s": "s",
    "textnorm.token_edit_ratio.calls": "count",
    "textnorm.token_edit_ratio.self_s": "s",
    "evaluation.align.calls": "count",
    "evaluation.align.self_s": "s",
    "evaluation.match_yield": "ratio",
    "evaluation.align_growth_4x": "ratio",
    "evaluation.summarize.self_s": "s",
    "evaluation.tracking_table.self_s": "s",
    "evaluation.comparison_table.self_s": "s",
    "llm.run_extraction.self_s": "s",
    "llm.split_passages.self_s": "s",
    "llm.resolve_paragraph.calls": "count",
    "llm.resolve_paragraph.self_s": "s",
    "llm.resolve_yield": "ratio",
    "llm.counters_per_passage": "calls/passage",
    "cli.import_gold.self_s": "s",
    "cli.extract.self_s": "s",
    "cli.extract_broad.self_s": "s",
    "cli.llm_extract.self_s": "s",
    "cli.evaluate.self_s": "s",
    "cli.compare.self_s": "s",
    "cli.extract.busy_over_wall": "ratio",
    "trace.overhead_s": "s",
}


def _end_to_end(rounds: list[dict], counts: dict[str, int]) -> dict[str, float]:
    """End-to-end metrics of ``rounds``, each time scaled by its round's
    ``speed``. A command's time is the median of all its runs in them;
    set-up and peak RSS are medians over rounds. ``counts`` are the
    generator's numerators of each command's rate."""
    wall = {
        label: statistics.median(t * r["speed"] for r in rounds for t in r["commands"][label]["walls_s"])
        for label in counts
    }
    return {
        "setup_s": statistics.median(r["setup_s"] * r["speed"] for r in rounds),
        "pipeline_s": sum(wall.values()),
        "import_gold_paragraphs_per_s": counts["import_gold"] / wall["import_gold"],
        "extract_paragraphs_per_s": counts["extract"] / wall["extract"],
        "extract_broad_paragraphs_per_s": counts["extract_broad"] / wall["extract_broad"],
        "llm_extract_passages_per_s": counts["llm_extract"] / wall["llm_extract"],
        "evaluate_candidates_per_s": counts["evaluate"] / wall["evaluate"],
        "compare_candidates_per_s": counts["compare"] / wall["compare"],
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }


def _round(work: Path, traced: bool) -> dict:
    shutil.rmtree(work / "out", ignore_errors=True)
    (work / "round.json").unlink(missing_ok=True)
    argv = [sys.executable, str(BENCH / "pipeline.py"), str(work)] + (["--trace"] if traced else [])
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=ROUND_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"round process exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads((work / "round.json").read_text(encoding="utf-8"))


def _median(rounds: list[dict], name: str) -> float:
    values = [r[name] for r in rounds]
    if any(v is None for v in values):
        raise RuntimeError(f"metric {name} undefined on this workload")
    return statistics.median(values)


def main() -> int:
    missing = [p for p in ("src/polminer/cli.py", "tests/synth.py", "tests/oracles.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"bench: run from a polminer checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import checks
    import generate

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=generate.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    work = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    labels = generate.generate(args.workload, args.seed, work)
    exp = checks.Expected.from_labels(labels)
    counts = {
        "import_gold": exp.docx_paragraphs,
        "extract": exp.paragraphs,
        "extract_broad": exp.paragraphs,
        "llm_extract": exp.passages,
        "evaluate": exp.candidates("v2_refined"),
        "compare": sum(exp.candidates(m) for m in checks.METHODS),
    }

    attempted = failed = 0
    timed: list[dict] = []  # measured untraced rounds
    layers: list[dict] = []  # per-layer metrics of traced rounds
    traced_pipeline: list[float] = []
    start = None
    n = 0
    while True:
        warm_up = n == 0
        traced = bool(args.trace) and not warm_up and len(layers) <= len(timed)
        result = _round(work, traced)
        failures = checks.check_round(work / "out", exp, result)
        attempted += exp.operations()
        failed += sum(len(docs) for docs in failures.values())
        bad = {label: sorted(docs) for label, docs in failures.items() if docs}
        print(f"round {n}{' traced' if traced else ''}: speed {result['speed']:.4f} "
              f"{json.dumps(_end_to_end([result], counts))}"
              + (f" failed {bad}" if bad else ""), file=sys.stderr)
        if warm_up:
            start = time.perf_counter()
        elif traced:
            layers.append(result["layers"])
            traced_pipeline.append(_end_to_end([result], counts)["pipeline_s"])
        else:
            timed.append(result)
        n += 1
        enough = timed and (layers or not args.trace)
        if enough and time.perf_counter() - start >= args.seconds:
            break

    if args.trace:
        metrics = {name: _median(layers, name) for name in PER_LAYER if name != "trace.overhead_s"}
        # traced and untraced rounds alternate, so each pair ran at nearly
        # the same host speed
        metrics["trace.overhead_s"] = statistics.median(
            traced - _end_to_end([untraced], counts)["pipeline_s"]
            for traced, untraced in zip(traced_pipeline, timed)
        )
        units = PER_LAYER
        (work / "layers.json").write_text(json.dumps(layers, indent=1), encoding="utf-8")
    else:
        metrics = _end_to_end(timed, counts)
        units = END_TO_END
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
