"""Command-line surface: extract, import-gold, evaluate, compare, llm-extract.

Each command's flags are its whole configuration, and the parser checks
every value. Exit codes: 0 success, 1 fatal, 2 partial (some files failed)
or a usage error (a bad flag or value, named by the parser); a command
whose judgments all fail writes nothing. Outputs are re-runnable: identical
inputs produce identical files, with no timestamps in data files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from collections import Counter
from collections.abc import Callable, Iterable, Sequence
from pathlib import Path

from . import evaluation, extractor, goldstore, llm
from .corpus import NOT_UTF8_NAME, LoadWarning, find_lone_surrogate, is_docx, list_judgments, load_document
from .errors import DocMismatch, PolminerError, UnreadableJudgment
from .outfile import atomic_write
from .patterns import PROFILES, get_profile

EXIT_OK = 0
EXIT_FATAL = 1
EXIT_PARTIAL = 2

REPORT_FORMATS = ("csv", "md", "json")


def _read_json(path: str, what: str) -> object:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    # ValueError covers invalid JSON and bytes that are not UTF-8
    except (OSError, ValueError) as exc:
        raise PolminerError(f"cannot read {what}: {exc}") from exc


def _err(message: str) -> None:
    print(message, file=sys.stderr)


def _each_judgment(handle: Callable[[Path], None], paths: list[Path], skipped: list[LoadWarning]) -> tuple[int, int]:
    """Run ``handle`` on every judgment; return how many succeeded and failed.

    Every skipped file, every warning a judgment raises and every judgment
    that fails with a ``PolminerError`` or ``OSError`` gets one
    ``warning: <path>: <reason>`` line.
    """
    for skip in skipped:
        _err(f"warning: {skip.path}: {skip.reason}")
    ok = 0
    for path in paths:
        reasons = []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                handle(path)
                ok += 1
            except (PolminerError, OSError) as exc:
                reasons.append(exc.reason if isinstance(exc, UnreadableJudgment) else str(exc))
        for reason in [str(w.message) for w in caught] + reasons:
            _err(f"warning: {path}: {reason}")
    return ok, len(skipped) + len(paths) - ok


def _finish(summary: str, ok: int, failed: int, save: Callable[[], object]) -> int:
    """Save the command's output and print the summary line; exit 0 when
    nothing failed, 2 when some judgments failed.

    When judgments failed and none succeeded, nothing is saved, so the
    output of an earlier run stays in place; the summary line then says
    ``nothing written``, and the exit is 1.
    """
    if failed and not ok:
        _err(f"0 ok, {failed} failed; nothing written")
        return EXIT_FATAL
    save()
    _err(summary)
    return EXIT_PARTIAL if failed else EXIT_OK


def cmd_extract(args: argparse.Namespace) -> int:
    paths, skipped = list_judgments(args.input)
    profile = get_profile(args.profile)
    out_dir = Path(args.out)
    all_candidates: list[extractor.PoLCandidate] = []
    # CSVs are named by stem: the first judgment to claim one keeps it
    claimed: dict[str, str] = {}

    def extract(path: Path) -> None:
        doc = load_document(path)
        stem = path.stem
        if stem in claimed:
            raise PolminerError(f"{stem}.csv is already written for {claimed[stem]}")
        claimed[stem] = doc.doc_id
        candidates = extractor.extract_candidates(doc, profile)
        extractor.emit_csv(candidates, doc.doc_id, out_dir)
        all_candidates.extend(candidates)

    ok, failed = _each_judgment(extract, paths, skipped)
    return _finish(
        f"{ok} ok, {failed} failed", ok, failed,
        lambda: extractor.save_candidates_jsonl(all_candidates, out_dir / "candidates.jsonl"),
    )


def cmd_import_gold(args: argparse.Namespace) -> int:
    src = Path(args.input)
    if not src.exists():
        raise FileNotFoundError(f"no such file or directory: {src}")
    if src.is_dir():
        judgments, skipped = list_judgments(src)
        paths = [p for p in judgments if is_docx(p)]
        # only a .docx is read: only one named not UTF-8 goes unread
        skipped = [skip for skip in skipped if is_docx(skip.path)]
    elif find_lone_surrogate(src.name):
        paths, skipped = [], [LoadWarning(str(src), NOT_UTF8_NAME)]
    else:
        paths, skipped = [src], []
    annotations: list[goldstore.GoldAnnotation] = []

    def import_highlights(path: Path) -> None:
        annotations.extend(goldstore.import_docx_highlights(path, annotator_id=args.annotator))

    ok, failed = _each_judgment(import_highlights, paths, skipped)
    types = Counter(a.pol_type for a in annotations)
    counts = {t.value: types[t] for t in extractor.PoLType}
    return _finish(
        f"imported {len(annotations)} annotations from {ok} files: {counts}", ok, failed,
        lambda: goldstore.save_gold(annotations, args.out),
    )


def _by_doc(records: Iterable[goldstore.GoldAnnotation | extractor.PoLCandidate]) -> dict[str, tuple]:
    """Each judgment's records in input order, grouped in one pass."""
    grouped: dict[str, list] = {}
    for record in records:
        grouped.setdefault(record.doc_id, []).append(record)
    return {doc_id: tuple(group) for doc_id, group in grouped.items()}


def _load_and_align(
    args: argparse.Namespace, candidate_paths: list[str]
) -> tuple[tuple[goldstore.GoldAnnotation, ...], list[list[evaluation.AlignmentResult]]]:
    """Gold (``args.gold``), and each candidate file's alignments with it at
    the ``--overlap`` and ``--hallucination-threshold`` of ``args``, one per
    judgment that the file or gold names.

    Every ``doc_id`` is checked to be a plain file name, and UTF-8, before
    any judgment is read. Gold and each candidate file are grouped by
    judgment in one pass each. Alignment is judgment by judgment: each
    judgment is read from ``--input`` once and aligned with every
    candidate file in turn against the same gold tuple, which lets
    ``align`` share its work across the files.
    """
    gold = goldstore.load_gold(args.gold)
    gold_by_doc = _by_doc(gold)
    by_doc_sets = [_by_doc(extractor.load_candidates_jsonl(path)) for path in candidate_paths]
    doc_ids = sorted(set(gold_by_doc).union(*by_doc_sets))
    for doc_id in doc_ids:
        if doc_id in ("", ".", "..") or "/" in doc_id or "\\" in doc_id:
            raise DocMismatch(f"doc_id {doc_id!r} is not a plain file name")
        if find_lone_surrogate(doc_id):
            raise DocMismatch(f"doc_id {doc_id!r} is not UTF-8")
    directory = Path(args.input)
    alignments: list[list[evaluation.AlignmentResult]] = [[] for _ in by_doc_sets]
    for doc_id in doc_ids:
        path = directory / doc_id
        if not path.is_file():
            raise DocMismatch(f"document {doc_id!r} not found under {directory}")
        document = load_document(path)
        doc_gold = gold_by_doc.get(doc_id, ())
        for by_doc, results in zip(by_doc_sets, alignments):
            if doc_gold or doc_id in by_doc:
                results.append(evaluation.align(
                    by_doc.get(doc_id, ()),
                    doc_gold,
                    document,
                    overlap_threshold=args.overlap,
                    hallucination_threshold=args.hallucination_threshold,
                ))
    return gold, alignments


def _write_report(out_dir: Path, basename: str, table: evaluation.Table, formats: tuple[str, ...]) -> None:
    rendered = {"csv": table.to_csv, "md": table.to_markdown, "json": table.to_json}
    for name in formats:
        with atomic_write(out_dir / f"{basename}.{name}") as fh:
            fh.write(rendered[name]())


def _print_metrics(summary: dict) -> None:
    conf = summary["confusion"]
    print(f"tp={conf['tp']} fp={conf['fp']} fn={conf['fn']}")
    for mode in ("paper", "standard"):
        m = summary["metrics"][mode]
        print(
            f"{mode:9s} precision={m['precision']:.3f} recall={m['recall']:.3f} "
            f"accuracy={m['accuracy']:.3f} f1={m['f1']:.3f}"
        )


def cmd_evaluate(args: argparse.Namespace) -> int:
    _, (alignments,) = _load_and_align(args, [args.candidates])
    summary = evaluation.summarize(alignments)
    _print_metrics(summary)
    out_dir = Path(args.out)
    if "json" in args.format:
        with atomic_write(out_dir / "evaluation.json") as fh:
            fh.write(json.dumps(summary, ensure_ascii=False, indent=2) + "\n")
    _write_report(out_dir, "tracking", evaluation.tracking_table(alignments), args.format)
    return EXIT_OK


def _method_names(candidate_paths: list[str]) -> list[str]:
    """Each candidate file's method name: its stem, or ``<parent>/<stem>``
    when another file has the same stem (two ``candidates.jsonl``)."""
    stems = [Path(path).stem for path in candidate_paths]
    return [
        f"{Path(path).parent.name}/{stem}" if stems.count(stem) > 1 else stem
        for path, stem in zip(candidate_paths, stems)
    ]


class _MethodFiles(argparse.Action):
    """``compare``'s candidate files: two or more, whose method names are
    UTF-8 and distinct, since each names its method in the reports."""

    def __call__(self, parser, namespace, values, option_string=None):
        if len(values) < 2:
            parser.error("compare needs at least two candidate files")
        names = _method_names(values)
        if any(find_lone_surrogate(name) for name in names):
            parser.error("compare needs candidate file names that are UTF-8")
        if len(set(names)) < len(names):
            parser.error("compare needs candidate files that name distinct methods")
        setattr(namespace, self.dest, values)


def cmd_compare(args: argparse.Namespace) -> int:
    names = _method_names(args.candidates)
    gold, alignments = _load_and_align(args, args.candidates)
    report = evaluation.comparison_table(gold, dict(zip(names, alignments)))
    print(report.comparison.to_markdown())
    print(report.error_share.to_markdown())
    out_dir = Path(args.out)
    _write_report(out_dir, "comparison", report.comparison, args.format)
    _write_report(out_dir, "error_share", report.error_share, args.format)
    return EXIT_OK


def cmd_llm_extract(args: argparse.Namespace) -> int:
    paths, skipped = list_judgments(args.input)
    # the parser takes exactly one of --mock and --endpoint
    if args.endpoint is None:
        responses = _read_json(args.mock, "mock fixtures")
        if not isinstance(responses, dict) or not all(isinstance(r, str) for r in responses.values()):
            raise PolminerError(f"mock fixtures {args.mock} must map each doc_id to a response string")
        transport: llm.Transport = llm.ScriptedTransport(responses=responses)
    else:
        transport = llm.HttpChatTransport(api_key=os.environ.get("POLMINER_API_KEY"))
    session = llm.LlmSession(
        endpoint="mock://" if args.endpoint is None else args.endpoint,
        model_name=args.model,
        temperature=args.temperature,
        max_queries_per_session=args.budget,
        audit_path=args.audit,
    )
    candidates: list[extractor.PoLCandidate] = []

    def extract(path: Path) -> None:
        doc = load_document(path)
        if session.queries_sent >= session.max_queries_per_session:
            session.queries_sent = 0
            _err(f"session reset after {session.max_queries_per_session} queries")
        candidates.extend(llm.run_extraction(doc, session, transport, language=args.language))

    ok, failed = _each_judgment(extract, paths, skipped)
    return _finish(
        f"{ok} ok, {failed} failed; wrote {args.out_file}", ok, failed,
        lambda: extractor.save_candidates_jsonl(candidates, args.out_file),
    )


def _positive_int(text: str) -> int:
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a whole number of at least 1, got {text!r}")
    return int(text)


def _float(text: str) -> float:
    # NaN for text that is not a number: every check below rejects it
    try:
        return float(text)
    except ValueError:
        return math.nan


def _finite_float(text: str) -> float:
    # float() reads "nan" and "inf", which the audit log would write as
    # NaN and Infinity, neither of them JSON
    value = _float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _threshold(text: str) -> float:
    value = _float(text)
    # NaN fails the comparison, and so does an infinity
    if not 0 < value <= 1:
        raise argparse.ArgumentTypeError(f"must be a number in (0, 1], got {text!r}")
    return value


def _report_formats(text: str) -> tuple[str, ...]:
    formats = tuple(part.strip() for part in text.split(",") if part.strip())
    unknown = [name for name in formats if name not in REPORT_FORMATS]
    if unknown or not formats:
        found = f"unknown report format {unknown[0]!r}" if unknown else "no report format"
        raise argparse.ArgumentTypeError(f"{found}; expected some of {', '.join(REPORT_FORMATS)}")
    return formats


def _utf8_text(text: str) -> str:
    # an argument that is not UTF-8 reaches Python with lone surrogates
    # (PEP 383), which no output file can hold
    if find_lone_surrogate(text):
        raise argparse.ArgumentTypeError(f"must be UTF-8 text, got {text!r}")
    return text


def _endpoint(text: str) -> str:
    # an empty URL would pass the parser and then fail every request
    if not text.strip():
        raise argparse.ArgumentTypeError(f"must be a URL, got {text!r}")
    return _utf8_text(text)


def _corpus_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", default=".", help="input corpus directory (default: %(default)s)")


def _report_flags(p: argparse.ArgumentParser) -> None:
    _corpus_flags(p)
    p.add_argument("--out", default="Principi", help="report directory (default: %(default)s)")
    # a string default goes through the type converter as a flag value does
    p.add_argument("--format", type=_report_formats, default=",".join(REPORT_FORMATS),
                   help="comma-separated report formats (default: %(default)s)")
    p.add_argument("--overlap", type=_threshold, default=0.8, help="match threshold in (0,1] (default: %(default)s)")
    p.add_argument("--hallucination-threshold", type=_threshold, default=0.6,
                   help="triage threshold in (0,1] (default: %(default)s)")


def _extract_flags(p: argparse.ArgumentParser) -> None:
    _corpus_flags(p)
    p.add_argument("--out", default="Principi", help="output directory (default: %(default)s)")
    p.add_argument("--profile", choices=sorted(PROFILES), default="v2_refined",
                   help="rule profile (default: %(default)s)")


def _import_gold_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", help=".docx file or directory of .docx files")
    p.add_argument("--out", default="gold.json", help="gold JSON output path")
    p.add_argument("--annotator", type=_utf8_text, help="annotator id recorded on imported spans")


def _one_set_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("gold", help="gold JSON file")
    p.add_argument("candidates", help="candidates JSONL file")
    _report_flags(p)


def _compare_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("gold", help="gold JSON file")
    p.add_argument("candidates", nargs="+", action=_MethodFiles, help="two or more candidates JSONL files")
    _report_flags(p)


def _llm_extract_flags(p: argparse.ArgumentParser) -> None:
    _corpus_flags(p)
    # the audit log records the endpoint that answered: never both
    transport = p.add_mutually_exclusive_group(required=True)
    transport.add_argument("--mock", help="JSON file mapping doc_id to canned response")
    transport.add_argument("--endpoint", type=_endpoint, help="chat-completions endpoint URL")
    p.add_argument("--model", type=_utf8_text, default="gpt-4o", help="model name sent to the endpoint")
    p.add_argument("--temperature", type=_finite_float, help="sampling temperature (a finite number)")
    p.add_argument("--budget", type=_positive_int, default=5, help="queries per session before reset (at least 1)")
    p.add_argument("--language", choices=["it", "en"], default="it", help="prompt language")
    p.add_argument("--audit", help="JSONL audit log of requests and responses")
    p.add_argument("--out-file", default="llm_candidates.jsonl", help="candidates JSONL output")


# name -> (help, flag adder, handler): the parser and main's dispatch both
# read this table, and the root help lists the commands in its order
COMMANDS: dict[str, tuple[
    str,
    Callable[[argparse.ArgumentParser], None],
    Callable[[argparse.Namespace], int],
]] = {
    "extract": ("run the rule extractor over a corpus directory", _extract_flags, cmd_extract),
    "import-gold": ("import highlight annotations from .docx files", _import_gold_flags, cmd_import_gold),
    "evaluate": ("align candidates with gold and print metrics", _one_set_flags, cmd_evaluate),
    "compare": ("compare two or more candidate sets against one gold", _compare_flags, cmd_compare),
    "llm-extract": ("extract via an LLM endpoint or offline mock", _llm_extract_flags, cmd_llm_extract),
}


def _build_parser(argv: Sequence[str] = ()) -> argparse.ArgumentParser:
    """The polminer parser for ``argv``: with only the command that
    ``argv[0]`` names, or with every command when it names none.

    Both parse an argv that starts with a command alike, help and errors
    included: a command's help and errors come from its own subparser.
    The root usage line, which an unrecognized argument prints, shows the
    command list, so the one-command parser spells that list out in full.
    The root help and the errors for an unknown or a missing command come
    from the full parser.
    """
    parser = argparse.ArgumentParser(
        prog="polminer",
        description="Extract principle-of-law passages from court judgments and evaluate extractors against gold annotations.",
        allow_abbrev=False,
    )
    if argv and argv[0] in COMMANDS:
        names, metavar = [argv[0]], "{%s}" % ",".join(COMMANDS)
    else:
        # the default metavar, so that "required: command" names the dest
        names, metavar = list(COMMANDS), None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help, add_flags, _ = COMMANDS[name]
        # full flag names only: a prefix like --out would pass for --out-file
        add_flags(sub.add_parser(name, help=help, allow_abbrev=False))
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser(argv).parse_args(argv)
    try:
        return COMMANDS[args.command][2](args)
    except (PolminerError, OSError) as exc:
        _err(f"fatal: {exc}")
        return EXIT_FATAL


if __name__ == "__main__":
    sys.exit(main())
