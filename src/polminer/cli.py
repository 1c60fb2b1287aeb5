"""Command-line surface: extract, import-gold, evaluate, compare, report, llm-extract.

Exit codes: 0 success, 1 fatal, 2 partial (some files failed). Outputs are
re-runnable: identical inputs produce identical files, with no timestamps in
data files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path

from . import evaluation, extractor, goldstore, llm
from .corpus import Document, load_corpus, load_document
from .errors import (
    DirectoryNotFound,
    DocMismatch,
    GoldMismatch,
    PolminerError,
    SchemaError,
)
from .patterns import PROFILES, get_profile

EXIT_OK = 0
EXIT_FATAL = 1
EXIT_PARTIAL = 2


@dataclass
class RunConfig:
    input_dir: str = "."
    output_dir: str = "Principi"
    profile: str = "v2_refined"
    metrics_mode: str = "paper"
    overlap_threshold: float = 0.8
    hallucination_threshold: float = 0.6
    report_formats: tuple[str, ...] = ("csv", "md", "json")
    jobs: int = 0  # 0 = auto

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "RunConfig":
        cfg = cls()
        if getattr(args, "config", None):
            try:
                data = json.loads(Path(args.config).read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError) as exc:
                raise PolminerError(f"cannot read config {args.config}: {exc}") from exc
            known = {f.name for f in fields(cls)}
            for key, value in data.items():
                if key not in known:
                    raise PolminerError(f"unknown config field {key!r}")
                if key == "report_formats":
                    value = tuple(value)
                setattr(cfg, key, value)
        # flags win over config file values
        mapping = {
            "input_dir": "input",
            "output_dir": "out",
            "profile": "profile",
            "metrics_mode": "mode",
            "overlap_threshold": "overlap",
            "hallucination_threshold": "hallucination_threshold",
            "jobs": "jobs",
        }
        for attr, flag in mapping.items():
            value = getattr(args, flag, None)
            if value is not None:
                setattr(cfg, attr, value)
        if getattr(args, "format", None):
            cfg.report_formats = tuple(part.strip() for part in args.format.split(",") if part.strip())
        if cfg.profile not in PROFILES:
            raise PolminerError(f"unknown profile {cfg.profile!r}; expected one of {sorted(PROFILES)}")
        for name in ("overlap_threshold", "hallucination_threshold"):
            value = getattr(cfg, name)
            if not 0 < value <= 1:
                raise PolminerError(f"{name} must be in (0, 1], got {value}")
        return cfg


def _err(message: str) -> None:
    print(message, file=sys.stderr)


def _workers(jobs: int) -> int:
    if jobs and jobs > 0:
        return jobs
    return min(8, os.cpu_count() or 1)


def cmd_extract(cfg: RunConfig) -> int:
    try:
        loaded = load_corpus(cfg.input_dir)
    except DirectoryNotFound as exc:
        _err(f"fatal: {exc}")
        return EXIT_FATAL
    profile = get_profile(cfg.profile)
    out_dir = Path(cfg.output_dir)
    all_candidates: list[extractor.PoLCandidate] = []
    failures = [(w.path, w.reason) for w in loaded.warnings]

    def _one(doc: Document) -> list[extractor.PoLCandidate] | Exception:
        try:
            candidates = extractor.extract_candidates(doc, profile)
            extractor.emit_csv(candidates, doc.doc_id, out_dir)
            return candidates
        except (OSError, PolminerError) as exc:
            return exc

    if _workers(cfg.jobs) == 1 or len(loaded.documents) <= 1:
        results = [_one(doc) for doc in loaded.documents]
    else:
        with ThreadPoolExecutor(max_workers=_workers(cfg.jobs)) as pool:
            results = list(pool.map(_one, loaded.documents))
    ok = 0
    for doc, result in zip(loaded.documents, results):
        if isinstance(result, Exception):
            failures.append((doc.doc_id, str(result)))
        else:
            all_candidates.extend(result)
            ok += 1
    if ok:
        extractor.save_candidates_jsonl(all_candidates, out_dir / "candidates.jsonl")

    for path, reason in failures:
        _err(f"warning: {path}: {reason}")
    _err(f"{ok} ok, {len(failures)} failed")
    if failures:
        return EXIT_PARTIAL if ok else EXIT_FATAL
    return EXIT_OK


def cmd_import_gold(args: argparse.Namespace) -> int:
    src = Path(args.input)
    if src.is_dir():
        paths = sorted(src.glob("*.docx"))
    elif src.is_file():
        paths = [src]
    else:
        _err(f"fatal: no such file or directory: {src}")
        return EXIT_FATAL
    annotations: list[goldstore.GoldAnnotation] = []
    failed = 0
    for path in paths:
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                annotations.extend(goldstore.import_docx_highlights(path, annotator_id=args.annotator))
            for w in caught:
                _err(f"warning: {w.message}")
        except PolminerError as exc:
            _err(f"warning: {path}: {exc}")
            failed += 1
    gold = goldstore.GoldSet(annotations=tuple(annotations))
    goldstore.save_gold(gold, args.out)
    counts = {t.value: n for t, n in gold.counts_by_type.items()}
    _err(f"imported {len(gold)} annotations from {len(paths) - failed} files: {counts}")
    if failed:
        return EXIT_PARTIAL if len(paths) > failed else EXIT_FATAL
    return EXIT_OK


def _load_documents_for(doc_ids: set[str], input_dir: str) -> dict[str, Document]:
    directory = Path(input_dir)
    documents: dict[str, Document] = {}
    for doc_id in sorted(doc_ids):
        path = directory / doc_id
        if not path.is_file():
            raise DocMismatch(f"document {doc_id!r} not found under {directory}")
        documents[doc_id] = load_document(path)
    return documents


def _align_all(
    gold: goldstore.GoldSet,
    candidates: list[extractor.PoLCandidate],
    cfg: RunConfig,
) -> list[evaluation.AlignmentResult]:
    by_doc: dict[str, list[extractor.PoLCandidate]] = {}
    for cand in candidates:
        by_doc.setdefault(cand.doc_id, []).append(cand)
    doc_ids = set(by_doc) | set(gold.doc_ids())
    documents = _load_documents_for(doc_ids, cfg.input_dir)
    alignments = []
    for doc_id in sorted(doc_ids):
        alignments.append(
            evaluation.align(
                by_doc.get(doc_id, []),
                gold.for_doc(doc_id),
                documents[doc_id],
                overlap_threshold=cfg.overlap_threshold,
                hallucination_threshold=cfg.hallucination_threshold,
            )
        )
    return alignments


def _write_report(out_dir: Path, basename: str, table: evaluation.Table, formats: tuple[str, ...]) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    if "csv" in formats:
        (out_dir / f"{basename}.csv").write_text(table.to_csv(), encoding="utf-8")
    if "md" in formats:
        (out_dir / f"{basename}.md").write_text(table.to_markdown(), encoding="utf-8")
    if "json" in formats:
        payload = {"rows": table.to_records(), "footnotes": table.footnotes}
        (out_dir / f"{basename}.json").write_text(
            json.dumps(payload, ensure_ascii=False, indent=2) + "\n", encoding="utf-8"
        )


def _print_metrics(summary: dict) -> None:
    conf = summary["confusion"]
    print(f"tp={conf['tp']} fp={conf['fp']} fn={conf['fn']}")
    for mode in ("paper", "standard"):
        m = summary["metrics"][mode]
        print(
            f"{mode:9s} precision={m['precision']:.3f} recall={m['recall']:.3f} "
            f"accuracy={m['accuracy']:.3f} f1={m['f1']:.3f}"
        )


def cmd_evaluate(cfg: RunConfig, gold_path: str, candidates_path: str) -> int:
    try:
        gold = goldstore.load_gold(gold_path)
        candidates = extractor.load_candidates_jsonl(candidates_path)
        alignments = _align_all(gold, candidates, cfg)
    except (SchemaError, DocMismatch, DirectoryNotFound, OSError) as exc:
        _err(f"fatal: {exc}")
        return EXIT_FATAL
    summary = evaluation.summarize(alignments)
    summary["default_mode"] = cfg.metrics_mode
    _print_metrics(summary)
    out_dir = Path(cfg.output_dir)
    if "json" in cfg.report_formats:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "evaluation.json").write_text(
            json.dumps(summary, ensure_ascii=False, indent=2) + "\n", encoding="utf-8"
        )
    _write_report(out_dir, "tracking", evaluation.tracking_table(alignments), cfg.report_formats)
    return EXIT_OK


def _method_names(candidate_paths: list[str]) -> list[str]:
    """Each candidate file's method name: its stem, or ``<parent>/<stem>``
    when another file has the same stem (two ``candidates.jsonl``)."""
    stems = [Path(path).stem for path in candidate_paths]
    return [
        f"{Path(path).parent.name}/{stem}" if stems.count(stem) > 1 else stem
        for path, stem in zip(candidate_paths, stems)
    ]


def cmd_compare(cfg: RunConfig, gold_path: str, candidate_paths: list[str]) -> int:
    if len(candidate_paths) < 2:
        _err("usage error: compare needs at least two candidate files")
        return EXIT_FATAL
    names = _method_names(candidate_paths)
    if len(set(names)) < len(names):
        _err("usage error: compare needs candidate files that name distinct methods")
        return EXIT_FATAL
    try:
        gold = goldstore.load_gold(gold_path)
        methods: dict[str, list[evaluation.AlignmentResult]] = {}
        for name, path in zip(names, candidate_paths):
            candidates = extractor.load_candidates_jsonl(path)
            methods[name] = _align_all(gold, candidates, cfg)
        report = evaluation.comparison_table(gold, methods)
    except (SchemaError, DocMismatch, GoldMismatch, DirectoryNotFound, OSError) as exc:
        _err(f"fatal: {exc}")
        return EXIT_FATAL
    print(report.comparison.to_markdown())
    print(report.error_share.to_markdown())
    out_dir = Path(cfg.output_dir)
    _write_report(out_dir, "comparison", report.comparison, cfg.report_formats)
    _write_report(out_dir, "error_share", report.error_share, cfg.report_formats)
    return EXIT_OK


def cmd_report(cfg: RunConfig, gold_path: str, candidates_path: str) -> int:
    try:
        gold = goldstore.load_gold(gold_path)
        candidates = extractor.load_candidates_jsonl(candidates_path)
        alignments = _align_all(gold, candidates, cfg)
    except (SchemaError, DocMismatch, DirectoryNotFound, OSError) as exc:
        _err(f"fatal: {exc}")
        return EXIT_FATAL
    table = evaluation.tracking_table(alignments)
    print(table.to_markdown())
    _write_report(Path(cfg.output_dir), "tracking", table, cfg.report_formats)
    return EXIT_OK


def cmd_llm_extract(cfg: RunConfig, args: argparse.Namespace) -> int:
    try:
        loaded = load_corpus(cfg.input_dir)
    except DirectoryNotFound as exc:
        _err(f"fatal: {exc}")
        return EXIT_FATAL
    if args.mock:
        try:
            responses = json.loads(Path(args.mock).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            _err(f"fatal: cannot read mock fixtures: {exc}")
            return EXIT_FATAL
        transport: llm.Transport = llm.ScriptedTransport(responses=responses)
    elif args.endpoint:
        transport = llm.HttpChatTransport(
            endpoint=args.endpoint,
            model_name=args.model,
            temperature=args.temperature,
            api_key=os.environ.get("POLMINER_API_KEY"),
        )
    else:
        _err("usage error: llm-extract needs --mock or --endpoint")
        return EXIT_FATAL
    session = llm.LlmSession(
        endpoint=args.endpoint or "mock://",
        model_name=args.model,
        temperature=args.temperature,
        max_queries_per_session=args.budget,
        audit_path=args.audit,
    )
    candidates: list[extractor.PoLCandidate] = []
    failed = 0
    for doc in loaded.documents:
        if session.queries_sent >= session.max_queries_per_session:
            session = llm.reset_session(session)
            _err(f"session reset after {session.max_queries_per_session} queries")
        try:
            candidates.extend(
                llm.run_extraction(doc, session, transport, language=args.language)
            )
        except PolminerError as exc:
            _err(f"warning: {doc.doc_id}: {exc}")
            failed += 1
    extractor.save_candidates_jsonl(candidates, args.out_file)
    _err(f"{len(loaded.documents) - failed} ok, {failed} failed; wrote {args.out_file}")
    if failed:
        return EXIT_PARTIAL if failed < len(loaded.documents) else EXIT_FATAL
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polminer",
        description="Extract principle-of-law passages from court judgments and evaluate extractors against gold annotations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def _common(p: argparse.ArgumentParser, with_profile: bool = True) -> None:
        p.add_argument("--config", help="JSON config file; flags override its fields")
        p.add_argument("--input", help="input corpus directory")
        p.add_argument("--out", help="output directory")
        if with_profile:
            p.add_argument("--profile", choices=sorted(PROFILES), help="rule profile")
        p.add_argument("--mode", choices=["paper", "standard"], help="metrics mode")
        p.add_argument("--format", help="comma-separated report formats (csv,md,json)")
        p.add_argument("--jobs", type=int, help="parallel workers; 1 forces sequential")
        p.add_argument("--overlap", type=float, help="match threshold in (0,1]")
        p.add_argument("--hallucination-threshold", dest="hallucination_threshold", type=float,
                       help="triage threshold in (0,1]")

    p_extract = sub.add_parser("extract", help="run the rule extractor over a corpus directory")
    _common(p_extract)

    p_gold = sub.add_parser("import-gold", help="import highlight annotations from .docx files")
    p_gold.add_argument("input", help=".docx file or directory of .docx files")
    p_gold.add_argument("--out", default="gold.json", help="gold JSON output path")
    p_gold.add_argument("--annotator", help="annotator id recorded on imported spans")

    p_eval = sub.add_parser("evaluate", help="align candidates with gold and print metrics")
    p_eval.add_argument("gold", help="gold JSON file")
    p_eval.add_argument("candidates", help="candidates JSONL file")
    _common(p_eval)

    p_cmp = sub.add_parser("compare", help="compare two or more candidate sets against one gold")
    p_cmp.add_argument("gold", help="gold JSON file")
    p_cmp.add_argument("candidates", nargs="+", help="two or more candidates JSONL files")
    _common(p_cmp)

    p_rep = sub.add_parser("report", help="emit the per-judgment tracking table")
    p_rep.add_argument("gold", help="gold JSON file")
    p_rep.add_argument("candidates", help="candidates JSONL file")
    _common(p_rep)

    p_llm = sub.add_parser("llm-extract", help="extract via an LLM endpoint or offline mock")
    _common(p_llm, with_profile=False)
    p_llm.add_argument("--mock", help="JSON file mapping doc_id to canned response")
    p_llm.add_argument("--endpoint", help="chat-completions endpoint URL")
    p_llm.add_argument("--model", default="gpt-4o", help="model name sent to the endpoint")
    p_llm.add_argument("--temperature", type=float, help="sampling temperature")
    p_llm.add_argument("--budget", type=int, default=5, help="queries per session before reset")
    p_llm.add_argument("--language", choices=["it", "en"], default="it", help="prompt language")
    p_llm.add_argument("--audit", help="JSONL audit log of requests and responses")
    p_llm.add_argument("--out-file", default="llm_candidates.jsonl", help="candidates JSONL output")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = RunConfig.from_args(args)
    except PolminerError as exc:
        _err(f"fatal: {exc}")
        return EXIT_FATAL
    if args.command == "extract":
        return cmd_extract(cfg)
    if args.command == "import-gold":
        return cmd_import_gold(args)
    if args.command == "evaluate":
        return cmd_evaluate(cfg, args.gold, args.candidates)
    if args.command == "compare":
        return cmd_compare(cfg, args.gold, args.candidates)
    if args.command == "report":
        return cmd_report(cfg, args.gold, args.candidates)
    if args.command == "llm-extract":
        return cmd_llm_extract(cfg, args)
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
