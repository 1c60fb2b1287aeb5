from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from docxbuild import damage_member, make_docx, truncate_file
from fixture_corpus import FIXTURE_PARAGRAPHS, build_fixture_corpus
from repro import ReproFixture
from polminer import cli, evaluation
from polminer.cli import main
from polminer.extractor import PoLCandidate, PoLType, save_candidates_jsonl
from polminer.goldstore import GoldAnnotation, load_gold, save_gold


def test_extract_fixture_corpus_matches_golden_files(tmp_path, capsys):
    corpus = build_fixture_corpus(tmp_path / "Sentenze")
    out = tmp_path / "Principi"
    assert main(["extract", "--input", str(corpus), "--out", str(out)]) == 0
    golden_dir = Path(__file__).parent / "data" / "golden"
    for name in FIXTURE_PARAGRAPHS:
        produced = out / (Path(name).stem + ".csv")
        assert produced.read_bytes() == (golden_dir / produced.name).read_bytes()
    assert (out / "candidates.jsonl").is_file()
    assert "3 ok, 0 failed" in capsys.readouterr().err


def test_evaluate_on_the_fixture_corpus_finds_two_of_its_three_highlights(tmp_path, capsys):
    corpus = build_fixture_corpus(tmp_path / "Sentenze")
    gold = tmp_path / "gold.json"
    assert main(["extract", "--input", str(corpus), "--out", str(tmp_path / "Principi")]) == 0
    assert main(["import-gold", str(corpus), "--out", str(gold)]) == 0
    assert capsys.readouterr().err.endswith(
        "imported 3 annotations from 3 files: {'Implicit': 1, 'ExplicitDirect': 1, 'ExplicitIndirect': 1}\n"
    )
    assert main([
        "evaluate", str(gold), str(tmp_path / "Principi" / "candidates.jsonl"),
        "--input", str(corpus), "--out", str(tmp_path / "evaluate"),
    ]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "tp=2 fp=5 fn=1"


def test_extract_partial_failure_exit_code(tmp_path, capsys):
    corpus = tmp_path / "Sentenze"
    build_fixture_corpus(corpus)
    truncate_file(make_docx(corpus / "rotto.docx", ["Testo."]))
    assert main(["extract", "--input", str(corpus), "--out", str(tmp_path / "P")]) == 2
    err = capsys.readouterr().err
    assert "rotto.docx" in err and "3 ok, 1 failed" in err


def test_extract_missing_dir_is_fatal(tmp_path):
    assert main(["extract", "--input", str(tmp_path / "assente")]) == 1


def test_extract_reruns_identically(tmp_path):
    corpus = build_fixture_corpus(tmp_path / "S")
    out = tmp_path / "P"
    main(["extract", "--input", str(corpus), "--out", str(out)])
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    main(["extract", "--input", str(corpus), "--out", str(out)])
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert first == second


@pytest.mark.parametrize("profile", ["v1_broad", "v2_refined"])
def test_extract_survives_a_digit_run_longer_than_int_reads(tmp_path, capsys, profile):
    corpus = tmp_path / "S"
    corpus.mkdir()
    (corpus / "lungo.txt").write_text(
        "La Corte afferma “il principio” (Cass. " + "1" * 5000 + ").\n", encoding="utf-8"
    )
    (corpus / "buono.txt").write_text("La Corte afferma “il principio” (Cass. n. 7/2019).\n", encoding="utf-8")
    out = tmp_path / "P"
    assert main(["extract", "--input", str(corpus), "--out", str(out), "--profile", profile]) == 0
    assert sorted(p.name for p in out.glob("*.csv")) == ["buono.csv", "lungo.csv"]
    assert "2 ok, 0 failed" in capsys.readouterr().err


def test_extract_same_stem_keeps_first_and_fails_the_rest(tmp_path, capsys):
    corpus = tmp_path / "S"
    make_docx(corpus / "s01.docx", ["La Corte afferma “primo principio” (Cass. 1/2019)"])
    (corpus / "s01.txt").write_text("Il Tribunale ritiene “altro principio” decisivo.\n", encoding="utf-8")
    out = tmp_path / "P"
    assert main(["extract", "--input", str(corpus), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    warning = next(line for line in err.splitlines() if line.startswith("warning:"))
    assert "s01.txt" in warning and "s01.docx" in warning
    assert "1 ok, 1 failed" in err
    assert sorted(p.name for p in out.glob("*.csv")) == ["s01.csv"]
    assert "primo principio" in (out / "s01.csv").read_text(encoding="utf-8")
    assert "altro principio" not in (out / "s01.csv").read_text(encoding="utf-8")
    rows = [json.loads(line) for line in (out / "candidates.jsonl").read_text(encoding="utf-8").splitlines()]
    assert [row["doc_id"] for row in rows] == ["s01.docx"]


def test_extract_total_failure_keeps_earlier_output(tmp_path, capsys):
    out = tmp_path / "P"
    assert main(["extract", "--input", str(build_fixture_corpus(tmp_path / "S")), "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert before["candidates.jsonl"]
    broken = tmp_path / "Rotti"
    truncate_file(make_docx(broken / "r1.docx", ["Testo."]))
    truncate_file(make_docx(broken / "r2.docx", ["Testo."]))
    capsys.readouterr()
    assert main(["extract", "--input", str(broken), "--out", str(out)]) == 1
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert capsys.readouterr().err.endswith("\n0 ok, 2 failed; nothing written\n")


def test_import_gold_total_failure_keeps_earlier_gold(tmp_path, capsys):
    out = tmp_path / "g.json"
    make_docx(tmp_path / "g1.docx", [[("span diretto", "yellow")]])
    assert main(["import-gold", str(tmp_path / "g1.docx"), "--out", str(out)]) == 0
    before = out.read_bytes()
    (tmp_path / "notes.txt").write_text("non un file di gold\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["import-gold", str(tmp_path / "notes.txt"), "--out", str(out)]) == 1
    assert out.read_bytes() == before
    assert len(json.loads(before)["annotations"]) == 1
    err = capsys.readouterr().err
    assert "notes.txt: not a readable .docx archive" in err and err.endswith("0 ok, 1 failed; nothing written\n")


def test_llm_extract_total_failure_keeps_earlier_out_file(tmp_path, capsys):
    corpus = tmp_path / "S"
    corpus.mkdir()
    text = "Il giudice deve garantire la tutela effettiva dei diritti."
    (corpus / "j01.txt").write_text(text + "\n", encoding="utf-8")
    mock = tmp_path / "mock.json"
    mock.write_text(json.dumps({"j01.txt": text}), encoding="utf-8")
    out_file = tmp_path / "llm.jsonl"
    argv = ["llm-extract", "--input", str(corpus), "--mock", str(mock), "--out-file", str(out_file)]
    assert main(argv) == 0
    before = out_file.read_bytes()
    assert before
    (corpus / "j01.txt").write_bytes("città\n".encode("latin-1"))
    capsys.readouterr()
    assert main(argv) == 1
    assert out_file.read_bytes() == before
    assert capsys.readouterr().err.endswith("0 ok, 1 failed; nothing written\n")


@pytest.mark.parametrize("command", ["extract", "import-gold", "llm-extract"])
def test_an_input_without_judgments_writes_empty_output(tmp_path, capsys, command):
    empty = tmp_path / "vuota"
    empty.mkdir()
    mock = tmp_path / "mock.json"
    mock.write_text("{}", encoding="utf-8")
    argv, written = {
        "extract": (["--input", str(empty), "--out", str(tmp_path / "P")], tmp_path / "P" / "candidates.jsonl"),
        "import-gold": ([str(empty), "--out", str(tmp_path / "g.json")], tmp_path / "g.json"),
        "llm-extract": (
            ["--input", str(empty), "--mock", str(mock), "--out-file", str(tmp_path / "llm.jsonl")],
            tmp_path / "llm.jsonl",
        ),
    }[command]
    assert main([command, *argv]) == 0
    text = written.read_text(encoding="utf-8")
    assert json.loads(text)["annotations"] == [] if command == "import-gold" else text == ""


def test_llm_extract_names_each_unreadable_judgment_once(tmp_path, capsys):
    corpus = tmp_path / "S"
    corpus.mkdir()
    text = "Il giudice deve garantire la tutela effettiva dei diritti."
    (corpus / "j01.txt").write_text(text + "\n", encoding="utf-8")
    broken = truncate_file(make_docx(corpus / "rotto.docx", ["Testo."]))
    latin = corpus / "latin.txt"
    latin.write_bytes("città\n".encode("latin-1"))
    mock = tmp_path / "mock.json"
    mock.write_text(json.dumps({"j01.txt": text}), encoding="utf-8")
    out_file = tmp_path / "llm.jsonl"
    assert main([
        "llm-extract", "--input", str(corpus), "--mock", str(mock), "--out-file", str(out_file),
    ]) == 2
    err = capsys.readouterr().err
    warnings = [line for line in err.splitlines() if line.startswith("warning:")]
    assert len(warnings) == 2
    for path, reason in ((broken, "not a readable .docx archive"), (latin, "not valid UTF-8")):
        (line,) = [w for w in warnings if str(path) in w]
        assert line.startswith(f"warning: {path}: {reason}") and line.count(str(path)) == 1
    assert "1 ok, 2 failed" in err
    assert len(out_file.read_text(encoding="utf-8").splitlines()) == 1


def test_extract_names_a_corrupt_judgment_once(tmp_path, capsys):
    corpus = build_fixture_corpus(tmp_path / "S")
    broken = truncate_file(make_docx(corpus / "rotto.docx", ["Testo."]))
    assert main(["extract", "--input", str(corpus), "--out", str(tmp_path / "P")]) == 2
    (line,) = [w for w in capsys.readouterr().err.splitlines() if w.startswith("warning:")]
    assert line.startswith(f"warning: {broken}: ") and line.count(str(broken)) == 1


@pytest.mark.parametrize("command", ["extract", "import-gold"])
def test_a_docx_with_a_corrupt_stream_is_one_warning_beside_a_good_one(tmp_path, capsys, command):
    # a deflate stream that zlib rejects, not a CRC mismatch
    corpus = tmp_path / "S"
    make_docx(corpus / "buono.docx", [[("La Corte afferma “il principio” (Cass. n. 1/2019).", "yellow")]])
    broken = damage_member(make_docx(corpus / "rotto.docx", ["Testo."]), "word/document.xml", "deflate")
    out = tmp_path / ("P" if command == "extract" else "gold.json")
    argv = ["extract", "--input", str(corpus), "--out", str(out)] if command == "extract" else [
        "import-gold", str(corpus), "--out", str(out)]
    assert main(argv) == 2
    (line,) = [w for w in capsys.readouterr().err.splitlines() if w.startswith("warning:")]
    assert line.startswith(f"warning: {broken}: not a readable .docx archive (") and line.count(str(broken)) == 1
    if command == "extract":
        assert sorted(p.name for p in out.iterdir()) == ["buono.csv", "candidates.jsonl"]
        records = [json.loads(line) for line in (out / "candidates.jsonl").read_text(encoding="utf-8").splitlines()]
        assert records and {r["doc_id"] for r in records} == {"buono.docx"}
    else:
        assert [a.doc_id for a in load_gold(out)] == ["buono.docx"]


def test_import_gold_roundtrip(tmp_path, capsys):
    src = tmp_path / "annotati"
    src.mkdir()
    make_docx(src / "g1.docx", [[("span diretto", "yellow")], [("span implicito", "lightGray")]])
    make_docx(src / "g2.docx", [[("span indiretto", "blue")]])
    out = tmp_path / "gold.json"
    assert main(["import-gold", str(src), "--out", str(out)]) == 0
    data = json.loads(out.read_text(encoding="utf-8"))
    assert len(data["annotations"]) == 3


def test_import_gold_reads_any_suffix_case_in_corpus_order(tmp_path, capsys):
    src = tmp_path / "annotati"
    make_docx(src / "S01.DOCX", [[("span maiuscolo", "yellow")]])
    make_docx(src / "a02.docx", [[("span minuscolo", "blue")]])
    (src / "note.txt").write_text("non un file di gold\n", encoding="utf-8")
    out = tmp_path / "gold.json"
    assert main(["import-gold", str(src), "--out", str(out)]) == 0
    data = json.loads(out.read_text(encoding="utf-8"))
    assert [(a["doc_id"], a["span_text"]) for a in data["annotations"]] == [
        ("a02.docx", "span minuscolo"), ("S01.DOCX", "span maiuscolo"),
    ]
    assert "from 2 files" in capsys.readouterr().err


def test_import_gold_missing_input_is_fatal(tmp_path, capsys):
    assert main(["import-gold", str(tmp_path / "assente"), "--out", str(tmp_path / "g.json")]) == 1
    assert capsys.readouterr().err.startswith("fatal: ")
    assert not (tmp_path / "g.json").exists()


def test_import_gold_names_a_missing_file(tmp_path, capsys):
    missing = tmp_path / "x" / "nonexist.docx"
    assert main(["import-gold", str(missing), "--out", str(tmp_path / "g.json")]) == 1
    assert capsys.readouterr().err == f"fatal: no such file or directory: {missing}\n"
    assert not (tmp_path / "g.json").exists()


def test_import_gold_names_an_unknown_color_with_its_path(tmp_path, capsys):
    src = tmp_path / "annotati"
    path = make_docx(src / "g1.docx", ["testo", [("verde", "green"), ("giallo", "yellow")]])
    assert main(["import-gold", str(src), "--out", str(tmp_path / "gold.json")]) == 0
    err = capsys.readouterr().err
    assert f"warning: {path}: paragraph 1: ignoring highlight color 'green'\n" in err
    # every type in enum order, a zero count included
    assert err.endswith(
        "imported 1 annotations from 1 files: {'Implicit': 0, 'ExplicitDirect': 1, 'ExplicitIndirect': 0}\n"
    )


def test_import_gold_imports_a_repeated_highlight_once(tmp_path, capsys):
    src = tmp_path / "annotati"
    path = make_docx(
        src / "g.docx",
        [[("uno", "yellow"), (" mezzo ", None), ("uno", "yellow")], [("altro principio", "blue")]],
    )
    out = tmp_path / "gold.json"
    assert main(["import-gold", str(src), "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert f"warning: {path}: paragraph 0: duplicate highlight 'uno' imported once\n" in err
    assert err.endswith(
        "imported 2 annotations from 1 files: {'Implicit': 0, 'ExplicitDirect': 1, 'ExplicitIndirect': 1}\n"
    )
    data = json.loads(out.read_text(encoding="utf-8"))
    assert [a["span_text"] for a in data["annotations"]] == ["uno", "altro principio"]


@pytest.fixture(scope="module")
def repro_files(tmp_path_factory):
    base = tmp_path_factory.mktemp("repro")
    fixture = ReproFixture()
    corpus = fixture.write_corpus(base / "corpus")
    gold_path = save_gold(fixture.gold_set(), base / "gold.json")
    paths = {}
    for name, candidates in (
        ("chat", fixture.chat_candidates()),
        ("regex", fixture.regex_candidates()),
        ("annotators", fixture.annotator_candidates()),
    ):
        paths[name] = save_candidates_jsonl(candidates, base / f"{name}.jsonl")
    return base, corpus, gold_path, paths


def test_evaluate_prints_published_chat_metrics(repro_files, capsys):
    base, corpus, gold_path, paths = repro_files
    code = main([
        "evaluate", str(gold_path), str(paths["chat"]),
        "--input", str(corpus), "--out", str(base / "rep_chat"),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "tp=161 fp=45 fn=525" in out
    assert "precision=0.235 recall=0.781 accuracy=0.220 f1=0.361" in out
    assert (base / "rep_chat" / "evaluation.json").is_file()
    assert (base / "rep_chat" / "tracking.csv").is_file()


def test_evaluate_prints_published_regex_metrics(repro_files, capsys):
    base, corpus, gold_path, paths = repro_files
    assert main([
        "evaluate", str(gold_path), str(paths["regex"]),
        "--input", str(corpus), "--out", str(base / "rep_regex"),
    ]) == 0
    out = capsys.readouterr().out
    assert "tp=365 fp=87 fn=321" in out
    assert "precision=0.532 recall=0.807 accuracy=0.472 f1=0.641" in out


def test_evaluate_empty_candidates(repro_files, tmp_path, capsys):
    base, corpus, gold_path, _ = repro_files
    empty = save_candidates_jsonl([], tmp_path / "empty.jsonl")
    assert main([
        "evaluate", str(gold_path), str(empty),
        "--input", str(corpus), "--out", str(tmp_path / "rep"),
    ]) == 0
    assert "tp=0 fp=0 fn=686" in capsys.readouterr().out


def test_evaluate_missing_document_is_fatal(repro_files, tmp_path, capsys):
    base, corpus, gold_path, paths = repro_files
    empty_corpus = tmp_path / "vuoto"
    empty_corpus.mkdir()
    assert main([
        "evaluate", str(gold_path), str(paths["chat"]), "--input", str(empty_corpus),
    ]) == 1
    assert "not found" in capsys.readouterr().err


def test_evaluate_schema_error_is_fatal(repro_files, tmp_path):
    base, corpus, gold_path, _ = repro_files
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"non": "valido"}\n', encoding="utf-8")
    assert main([
        "evaluate", str(gold_path), str(bad), "--input", str(corpus),
    ]) == 1


def test_evaluate_integer_longer_than_python_converts_is_fatal(repro_files, tmp_path, capsys):
    base, corpus, gold_path, _ = repro_files
    bad = tmp_path / "huge.jsonl"
    bad.write_text('{"doc_id": "x.txt", "number": ' + "1" * 5000 + "}\n", encoding="utf-8")
    assert main(["evaluate", str(gold_path), str(bad), "--input", str(corpus)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("fatal: ") and "/0: invalid JSON" in err


def test_compare_emits_published_totals(repro_files, capsys):
    base, corpus, gold_path, paths = repro_files
    code = main([
        "compare", str(gold_path), str(paths["chat"]), str(paths["regex"]),
        str(paths["annotators"]),
        "--input", str(corpus), "--out", str(base / "cmp"),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "53.2" in out and "23.5" in out and "99.4" in out
    assert "21.8" in out
    assert (base / "cmp" / "comparison.csv").is_file()
    assert (base / "cmp" / "error_share.md").is_file()


def test_compare_single_method_is_usage_error(repro_files, tmp_path, capsys):
    base, corpus, gold_path, paths = repro_files
    out = tmp_path / "R"
    with pytest.raises(SystemExit) as exit_info:
        main(["compare", str(gold_path), str(paths["chat"]), "--input", str(corpus), "--out", str(out)])
    assert exit_info.value.code == 2
    assert not out.exists()
    assert "compare: error: compare needs at least two candidate files" in capsys.readouterr().err


def test_compare_three_methods_in_input_order(repro_files, capsys):
    base, corpus, gold_path, paths = repro_files
    main([
        "compare", str(gold_path), str(paths["annotators"]), str(paths["chat"]),
        str(paths["regex"]), "--input", str(corpus), "--out", str(base / "cmp3"),
    ])
    out = capsys.readouterr().out
    rows = [line for line in out.splitlines() if line.startswith("| ")]
    methods = [row.split("|")[1].strip() for row in rows]
    first_seen = list(dict.fromkeys(m for m in methods if m in ("annotators", "chat", "regex")))
    assert first_seen == ["annotators", "chat", "regex"]


def test_evaluate_writes_the_tracking_table(repro_files):
    base, corpus, gold_path, paths = repro_files
    assert main([
        "evaluate", str(gold_path), str(paths["chat"]),
        "--input", str(corpus), "--out", str(base / "track"), "--format", "md",
    ]) == 0
    assert "TOTAL" in (base / "track" / "tracking.md").read_text(encoding="utf-8")


def test_llm_extract_with_mock(tmp_path, capsys):
    corpus = tmp_path / "S"
    corpus.mkdir()
    text = "Il giudice deve garantire la tutela effettiva dei diritti."
    (corpus / "j01.txt").write_text(text + "\n", encoding="utf-8")
    mock = tmp_path / "mock.json"
    mock.write_text(json.dumps({"j01.txt": text}), encoding="utf-8")
    out_file = tmp_path / "llm.jsonl"
    code = main([
        "llm-extract", "--input", str(corpus), "--mock", str(mock),
        "--out-file", str(out_file),
    ])
    assert code == 0
    lines = out_file.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["source"] == "LLM" and record["paragraph_index"] == 0


def test_llm_extract_resets_a_spent_session_in_place(tmp_path, capsys):
    corpus = tmp_path / "S"
    corpus.mkdir()
    texts = {f"j0{n}.txt": f"Il giudice {n} deve garantire la tutela effettiva dei diritti." for n in (1, 2, 3)}
    for name, text in texts.items():
        (corpus / name).write_text(text + "\n", encoding="utf-8")
    mock = tmp_path / "mock.json"
    mock.write_text(json.dumps(texts), encoding="utf-8")
    out_file, audit = tmp_path / "llm.jsonl", tmp_path / "audit.jsonl"
    assert main([
        "llm-extract", "--input", str(corpus), "--mock", str(mock), "--budget", "2",
        "--audit", str(audit), "--out-file", str(out_file),
    ]) == 0
    assert capsys.readouterr().err.count("session reset after 2 queries") == 1
    records = [json.loads(line) for line in audit.read_text(encoding="utf-8").splitlines()]
    assert [(r["doc_id"], r["query_number"]) for r in records] == [("j01.txt", 1), ("j02.txt", 2), ("j03.txt", 1)]
    rows = [json.loads(line) for line in out_file.read_text(encoding="utf-8").splitlines()]
    assert [(r["doc_id"], r["paragraph_index"]) for r in rows] == [(name, 0) for name in texts]


@pytest.mark.parametrize("audit", [False, True], ids=["no_audit", "audit"])
def test_llm_extract_reports_a_response_with_a_lone_surrogate(tmp_path, capsys, audit):
    corpus = tmp_path / "S"
    corpus.mkdir()
    (corpus / "a.txt").write_text("La Corte afferma il principio\n", encoding="utf-8")
    (corpus / "b.txt").write_text("Secondo paragrafo\n", encoding="utf-8")
    mock = tmp_path / "mock.json"
    # the JSON escape \ud83d, half of an emoji, decodes to a lone surrogate
    mock.write_text(
        '{"a.txt": "La Corte afferma \\ud83d il principio", "b.txt": "Secondo paragrafo"}', encoding="utf-8"
    )
    out_file, log = tmp_path / "llm.jsonl", tmp_path / "audit.jsonl"
    argv = ["llm-extract", "--input", str(corpus), "--mock", str(mock), "--out-file", str(out_file)]
    assert main(argv + (["--audit", str(log)] if audit else [])) == 2
    err = capsys.readouterr().err
    warnings = [line for line in err.splitlines() if line.startswith("warning:")]
    assert warnings == [f"warning: {corpus / 'a.txt'}: response for a.txt holds a lone surrogate at offset 17"]
    assert "1 ok, 1 failed" in err
    rows = [json.loads(line) for line in out_file.read_text(encoding="utf-8").splitlines()]
    assert [r["doc_id"] for r in rows] == ["b.txt"]
    if audit:
        records = [json.loads(line) for line in log.read_text(encoding="utf-8").splitlines()]
        assert [(r["doc_id"], r["query_number"]) for r in records] == [("b.txt", 1)]
    else:
        assert not log.exists()


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_llm_extract_budget_below_one_is_a_usage_error(tmp_path, capsys, monkeypatch, budget):
    corpus = tmp_path / "S"
    corpus.mkdir()
    (corpus / "j01.txt").write_text("Il giudice deve garantire la tutela.\n", encoding="utf-8")
    mock = tmp_path / "mock.json"
    mock.write_text(json.dumps({"j01.txt": "Il giudice"}), encoding="utf-8")
    opened = []
    monkeypatch.setattr(cli, "load_document", lambda path: opened.append(path))
    out_file = tmp_path / "llm.jsonl"
    with pytest.raises(SystemExit) as exit_info:
        main([
            "llm-extract", "--input", str(corpus), "--mock", str(mock),
            "--out-file", str(out_file), "--budget", budget,
        ])
    assert exit_info.value.code == 2
    assert opened == [] and not out_file.exists()
    assert f"--budget: must be a whole number of at least 1, got '{budget}'" in capsys.readouterr().err


@pytest.mark.parametrize("temperature", ["nan", "inf", "-inf"])
def test_llm_extract_non_finite_temperature_is_a_usage_error(tmp_path, capsys, monkeypatch, temperature):
    corpus = tmp_path / "S"
    corpus.mkdir()
    (corpus / "j01.txt").write_text("Il giudice deve garantire la tutela.\n", encoding="utf-8")
    mock = tmp_path / "mock.json"
    mock.write_text(json.dumps({"j01.txt": "Il giudice"}), encoding="utf-8")
    opened = []
    monkeypatch.setattr(cli, "load_document", lambda path: opened.append(path))
    out_file, audit = tmp_path / "llm.jsonl", tmp_path / "audit.jsonl"
    with pytest.raises(SystemExit) as exit_info:
        main([
            "llm-extract", "--input", str(corpus), "--mock", str(mock), "--audit", str(audit),
            "--out-file", str(out_file), f"--temperature={temperature}",
        ])
    assert exit_info.value.code == 2
    assert opened == [] and not out_file.exists() and not audit.exists()
    assert f"--temperature: must be a finite number, got '{temperature}'" in capsys.readouterr().err


def test_llm_extract_requires_transport_choice(tmp_path, capsys):
    corpus = tmp_path / "S"
    corpus.mkdir()
    with pytest.raises(SystemExit) as exit_info:
        main(["llm-extract", "--input", str(corpus)])
    assert exit_info.value.code == 2
    assert "one of the arguments --mock --endpoint is required" in capsys.readouterr().err


def test_llm_extract_given_both_mock_and_endpoint_is_a_usage_error(tmp_path, capsys):
    # the mock would answer while every audit line named the endpoint
    corpus = tmp_path / "S"
    corpus.mkdir()
    (corpus / "j01.txt").write_text("Il giudice deve garantire la tutela.\n", encoding="utf-8")
    mock = tmp_path / "mock.json"
    mock.write_text(json.dumps({"j01.txt": "Il giudice"}), encoding="utf-8")
    out_file, audit = tmp_path / "llm.jsonl", tmp_path / "audit.jsonl"
    with pytest.raises(SystemExit) as exit_info:
        main([
            "llm-extract", "--input", str(corpus), "--mock", str(mock),
            "--endpoint", "https://api.example.invalid/v1/chat", "--audit", str(audit), "--out-file", str(out_file),
        ])
    assert exit_info.value.code == 2
    assert not out_file.exists() and not audit.exists()
    assert "argument --endpoint: not allowed with argument --mock" in capsys.readouterr().err


@pytest.mark.parametrize("endpoint", ["", "  "])
def test_llm_extract_empty_endpoint_is_a_usage_error(tmp_path, capsys, endpoint):
    # an empty URL used to pass the parser and fail every judgment's request
    corpus = tmp_path / "S"
    corpus.mkdir()
    (corpus / "j01.txt").write_text("Il giudice deve garantire la tutela.\n", encoding="utf-8")
    out_file, audit = tmp_path / "llm.jsonl", tmp_path / "audit.jsonl"
    with pytest.raises(SystemExit) as exit_info:
        main([
            "llm-extract", "--input", str(corpus), "--endpoint", endpoint,
            "--audit", str(audit), "--out-file", str(out_file),
        ])
    assert exit_info.value.code == 2
    assert not out_file.exists() and not audit.exists()
    assert f"argument --endpoint: must be a URL, got {endpoint!r}" in capsys.readouterr().err


BAD_FLAG_VALUES = [
    ("--overlap", "1.5", "must be a number in (0, 1], got '1.5'"),
    ("--overlap", "0", "must be a number in (0, 1], got '0'"),
    ("--hallucination-threshold", "nan", "must be a number in (0, 1], got 'nan'"),
    ("--format", "cvs", "unknown report format 'cvs'; expected some of csv, md, json"),
    ("--format", "cvs,mdd", "unknown report format 'cvs'; expected some of csv, md, json"),
    ("--format", "", "no report format; expected some of csv, md, json"),
    ("--format", ",", "no report format; expected some of csv, md, json"),
]


@pytest.mark.parametrize("flag, value, reason", BAD_FLAG_VALUES,
                         ids=[f"{flag} {value!r}" for flag, value, _ in BAD_FLAG_VALUES])
def test_a_bad_threshold_or_report_format_is_a_usage_error_naming_the_flag(
    repro_files, tmp_path, capsys, flag, value, reason
):
    base, corpus, gold_path, paths = repro_files
    out = tmp_path / "rep"
    with pytest.raises(SystemExit) as exit_info:
        main(["evaluate", str(gold_path), str(paths["chat"]), "--input", str(corpus), "--out", str(out), flag, value])
    captured = capsys.readouterr()
    assert exit_info.value.code == 2
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert errors == [f"polminer evaluate: error: argument {flag}: {reason}"]
    assert captured.out == "" and not out.exists()


def test_flags_take_their_defaults_and_a_threshold_of_one():
    args = cli._build_parser(["evaluate"]).parse_args(["evaluate", "g.json", "c.jsonl"])
    assert (args.input, args.out, args.format, args.overlap, args.hallucination_threshold) == (
        ".", "Principi", ("csv", "md", "json"), 0.8, 0.6,
    )
    args = cli._build_parser(["extract"]).parse_args(["extract"])
    assert (args.input, args.out, args.profile) == (".", "Principi", "v2_refined")
    argv = ["compare", "g.json", "a.jsonl", "b.jsonl", "--overlap", "1", "--hallucination-threshold", "1"]
    args = cli._build_parser(argv).parse_args(argv)
    assert (args.overlap, args.hallucination_threshold) == (1.0, 1.0)


def test_compare_names_same_stem_files_by_parent(repro_files, tmp_path, capsys):
    base, corpus, gold_path, paths = repro_files
    v1, v2 = tmp_path / "v1" / "candidates.jsonl", tmp_path / "v2" / "candidates.jsonl"
    for source, target in ((paths["chat"], v1), (paths["regex"], v2)):
        target.parent.mkdir()
        target.write_bytes(source.read_bytes())
    code = main([
        "compare", str(gold_path), str(v1), str(v2),
        "--input", str(corpus), "--out", str(base / "cmp_stems"),
    ])
    assert code == 0
    out = capsys.readouterr().out
    rows = [line for line in out.splitlines() if line.startswith("| ")]
    methods = {row.split("|")[1].strip() for row in rows}
    assert {"v1/candidates", "v2/candidates"} <= methods
    assert "53.2" in out and "23.5" in out


def test_compare_escapes_a_pipe_in_a_method_name(repro_files, tmp_path, capsys):
    base, corpus, gold_path, paths = repro_files
    piped = tmp_path / "x|y.jsonl"
    piped.write_bytes(paths["regex"].read_bytes())
    out = tmp_path / "cmp"
    assert main(["compare", str(gold_path), str(paths["chat"]), str(piped), "--input", str(corpus), "--out", str(out)]) == 0
    for text in (capsys.readouterr().out, (out / "comparison.md").read_text(encoding="utf-8")):
        tables = [block.splitlines() for block in text.split("\n\n") if block.startswith("|")]
        assert any(row.startswith("| x\\|y ") for rows in tables for row in rows)
        # every row has as many column bars as its header
        for rows in tables:
            assert len({row.count("|") - row.count("\\|") for row in rows}) == 1


def test_a_byte_order_mark_does_not_reach_the_outputs(tmp_path):
    text = "La Corte afferma “il principio” (Cass. n. 1/2019).\n"
    for name, data in (("plain", text), ("bom", "\ufeff" + text)):
        (tmp_path / name).mkdir()
        (tmp_path / name / "s01.txt").write_text(data, encoding="utf-8")
        assert main(["extract", "--input", str(tmp_path / name), "--out", str(tmp_path / f"{name}_out")]) == 0
    assert "La Corte" in (tmp_path / "plain_out" / "s01.csv").read_text(encoding="utf-8")
    for produced in ("s01.csv", "candidates.jsonl"):
        assert (tmp_path / "bom_out" / produced).read_bytes() == (tmp_path / "plain_out" / produced).read_bytes()


def test_compare_same_file_twice_is_usage_error(repro_files, tmp_path, capsys):
    base, corpus, gold_path, paths = repro_files
    out = tmp_path / "R"
    with pytest.raises(SystemExit) as exit_info:
        main([
            "compare", str(gold_path), str(paths["chat"]), str(paths["chat"]),
            "--input", str(corpus), "--out", str(out),
        ])
    assert exit_info.value.code == 2
    assert not out.exists()
    assert "compare: error: compare needs candidate files that name distinct methods" in capsys.readouterr().err


def _one_doc_inputs(tmp_path, gold_doc_id: str, candidate_doc_id: str):
    gold = save_gold((GoldAnnotation(
        doc_id=gold_doc_id, paragraph_index=0, span_text="principio", pol_type=PoLType.IMPLICIT,
    ),), tmp_path / "gold.json")
    candidates = save_candidates_jsonl([PoLCandidate(
        doc_id=candidate_doc_id, paragraph_index=0, text="principio", quote="",
        trigger=None, pol_type=PoLType.IMPLICIT,
    )], tmp_path / "cand.jsonl")
    return str(gold), str(candidates)


@pytest.mark.parametrize("where", ["gold", "candidates"])
@pytest.mark.parametrize("escape", ["absolute", "../fuori.txt", "sotto/../../fuori.txt", "..\\fuori.txt"])
def test_align_rejects_doc_ids_that_are_not_plain_file_names(tmp_path, monkeypatch, capsys, where, escape):
    corpus = tmp_path / "S"
    (corpus / "sotto").mkdir(parents=True)
    (corpus / "s01.txt").write_text("principio\n", encoding="utf-8")
    (tmp_path / "fuori.txt").write_text("principio\n", encoding="utf-8")
    doc_id = str(tmp_path / "fuori.txt") if escape == "absolute" else escape
    gold, candidates = _one_doc_inputs(
        tmp_path, doc_id if where == "gold" else "s01.txt", doc_id if where == "candidates" else "s01.txt",
    )
    opened = []
    real_load_document = cli.load_document

    def spy(path, *args, **kwargs):
        opened.append(Path(path))
        return real_load_document(path, *args, **kwargs)

    monkeypatch.setattr(cli, "load_document", spy)
    assert main(["evaluate", gold, candidates, "--input", str(corpus), "--out", str(tmp_path / "R")]) == 1
    assert opened == []
    err = capsys.readouterr().err
    assert err.startswith("fatal: ") and repr(doc_id) in err


@pytest.mark.parametrize("command", ["evaluate", "compare"])
def test_corrupt_judgment_is_fatal_not_a_traceback(tmp_path, capsys, command):
    corpus = tmp_path / "S"
    broken = truncate_file(make_docx(corpus / "rotto.docx", ["principio"]))
    gold, candidates = _one_doc_inputs(tmp_path, "rotto.docx", "rotto.docx")
    sets = [candidates]
    if command == "compare":
        second = tmp_path / "cand2.jsonl"
        second.write_bytes(Path(candidates).read_bytes())
        sets.append(str(second))
    assert main([command, gold, *sets, "--input", str(corpus), "--out", str(tmp_path / "R")]) == 1
    assert capsys.readouterr().err.startswith(f"fatal: {broken}: ")


def test_compare_reads_each_judgment_once(repro_files, tmp_path, monkeypatch):
    base, corpus, gold_path, paths = repro_files
    opened = []
    real_load_document = cli.load_document

    def spy(path, *args, **kwargs):
        opened.append(Path(path).name)
        return real_load_document(path, *args, **kwargs)

    monkeypatch.setattr(cli, "load_document", spy)
    assert main([
        "compare", str(gold_path), str(paths["chat"]), str(paths["regex"]), str(paths["annotators"]),
        "--input", str(corpus), "--out", str(tmp_path / "cmp"),
    ]) == 0
    assert opened and sorted(opened) == sorted(set(opened))


def test_compare_groups_gold_once_and_gives_every_set_the_same_tuple(repro_files, tmp_path, monkeypatch):
    base, corpus, gold_path, paths = repro_files
    aligned = []
    real_align = evaluation.align

    def spy(candidates, gold, document, **kwargs):
        aligned.append((document.doc_id, gold))
        return real_align(candidates, gold, document, **kwargs)

    monkeypatch.setattr(evaluation, "align", spy)
    assert main([
        "compare", str(gold_path), str(paths["chat"]), str(paths["regex"]), str(paths["annotators"]),
        "--input", str(corpus), "--out", str(tmp_path / "cmp"),
    ]) == 0
    annotations = load_gold(gold_path)
    for doc_id in {doc_id for doc_id, _ in aligned}:
        golds = [gold for aligned_id, gold in aligned if aligned_id == doc_id]
        assert len(golds) == 3
        # one tuple per judgment, built before its first alignment, in gold order
        assert all(gold is golds[0] for gold in golds)
        assert golds[0] == tuple(a for a in annotations if a.doc_id == doc_id)


REPORT_FLAGS = {"--input", "--out", "--format", "--overlap", "--hallucination-threshold"}


def test_each_command_offers_only_the_flags_it_reads():
    (subparsers,) = [a for a in cli._build_parser()._actions if a.dest == "command"]
    offered = {
        name: {opt for action in sub._actions for opt in action.option_strings} - {"-h", "--help"}
        for name, sub in subparsers.choices.items()
    }
    assert offered == {
        "extract": {"--input", "--out", "--profile"},
        "import-gold": {"--out", "--annotator"},
        "evaluate": REPORT_FLAGS,
        "compare": REPORT_FLAGS,
        "llm-extract": {
            "--input", "--mock", "--endpoint", "--model", "--temperature",
            "--budget", "--language", "--audit", "--out-file",
        },
    }


@pytest.mark.parametrize("argv", [
    ["evaluate", "g.json", "c.jsonl", "--profile", "v1_broad"],
    ["compare", "g.json", "a.jsonl", "b.jsonl", "--mode", "standard"],
    ["extract", "--overlap", "0.5"],
    ["extract", "--jobs", "1"],
    ["llm-extract", "--mock", "m", "--profile", "v1_broad"],
])
def test_flags_a_command_does_not_read_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["llm-extract", "--mock", "m", "--out", "P"],
    ["extract", "--prof", "v1_broad"],
])
def test_flag_prefixes_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["gold", "candidates", "mock"])
def test_a_json_input_that_is_not_utf8_is_one_fatal_line(tmp_path, capsys, kind):
    corpus = tmp_path / "S"
    corpus.mkdir()
    (corpus / "d.txt").write_text("principio\n", encoding="utf-8")
    gold, candidates = _one_doc_inputs(tmp_path, "d.txt", "d.txt")
    mock = tmp_path / "mock.json"
    mock.write_text(json.dumps({"d.txt": "principio"}), encoding="utf-8")
    path = {"gold": gold, "candidates": candidates, "mock": mock}[kind]
    Path(path).write_bytes(b"\xff" + Path(path).read_bytes())
    if kind == "mock":
        argv = ["llm-extract", "--mock", str(mock), "--out-file", str(tmp_path / "llm.jsonl")]
    else:
        argv = ["evaluate", gold, candidates, "--out", str(tmp_path / "R")]
    assert main([*argv, "--input", str(corpus)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("fatal: ") and "utf-8" in err


@pytest.mark.parametrize("responses", [[1], {"j01.txt": 5}, "j01.txt"], ids=repr)
def test_llm_extract_mock_must_map_doc_ids_to_strings(tmp_path, capsys, monkeypatch, responses):
    corpus = tmp_path / "S"
    corpus.mkdir()
    (corpus / "j01.txt").write_text("Il giudice deve garantire la tutela.\n", encoding="utf-8")
    mock = tmp_path / "mock.json"
    mock.write_text(json.dumps(responses), encoding="utf-8")
    opened = []
    monkeypatch.setattr(cli, "load_document", lambda path: opened.append(path))
    out_file = tmp_path / "llm.jsonl"
    assert main(["llm-extract", "--input", str(corpus), "--mock", str(mock), "--out-file", str(out_file)]) == 1
    assert capsys.readouterr().err == (
        f"fatal: mock fixtures {mock} must map each doc_id to a response string\n"
    )
    assert opened == [] and not out_file.exists()


# argvs whose parse ends in help or an error: the parser a call builds for
# its command must answer each exactly as the full parser does
PARSE_CASES = [
    [], ["-h"], ["-h", "extract"], ["bogus"], ["--", "extract", "--bogus"],
    *[[name, "-h"] for name in cli.COMMANDS],
    ["import-gold"],
    ["extract", "--profile", "v9"],
    ["llm-extract", "--budget", "0"],
    ["llm-extract", "--temperature", "warm"],
    ["evaluate", "g.json", "c.jsonl", "--overlap", "high"],
    ["evaluate", "g.json", "c.jsonl", "--overlap", "1.5"],
    ["evaluate", "g.json", "c.jsonl", "--overlap", "0"],
    ["evaluate", "g.json", "c.jsonl", "--hallucination-threshold", "nan"],
    ["evaluate", "g.json", "c.jsonl", "--format", "cvs"],
    ["evaluate", "g.json", "c.jsonl", "--format", ""],
    ["evaluate", "g.json", "c.jsonl", "--format", ","],
    ["llm-extract", "--language", "fr"],
    ["llm-extract", "--mock", "m", "--out-f", "x.jsonl"],
    ["extract", "--input", "S", "extra"],
    ["compare", "g.json", "a.jsonl", "b.jsonl", "--out", "R", "--format", "md"],
    ["import-gold", "S", "--annotator", "a1"],
]


def _parse(parser, argv, capsys):
    try:
        outcome = parser.parse_args(argv)
    except SystemExit as exc:
        outcome = exc.code
    return outcome, capsys.readouterr()


@pytest.mark.parametrize("argv", PARSE_CASES, ids=" ".join)
def test_the_parser_a_call_builds_parses_as_the_full_parser(argv, capsys):
    assert _parse(cli._build_parser(argv), argv, capsys) == _parse(cli._build_parser(), argv, capsys)


def test_import_gold_builds_only_its_own_flags(tmp_path, monkeypatch, capsys):
    built = []
    real_build = cli._build_parser

    def spy(*args):
        built.append(real_build(*args))
        return built[-1]

    monkeypatch.setattr(cli, "_build_parser", spy)
    make_docx(tmp_path / "g1.docx", [[("span diretto", "yellow")]])
    assert main(["import-gold", str(tmp_path / "g1.docx"), "--out", str(tmp_path / "g.json")]) == 0
    (parser,) = built
    (subparsers,) = [a for a in parser._actions if a.dest == "command"]
    assert list(subparsers.choices) == ["import-gold"]
    offered = {opt for action in subparsers.choices["import-gold"]._actions for opt in action.option_strings}
    assert offered == {"-h", "--help", "--out", "--annotator"}


def test_main_reads_sys_argv_when_given_none(tmp_path, monkeypatch, capsys):
    corpus = build_fixture_corpus(tmp_path / "Sentenze")
    out = tmp_path / "Principi"
    monkeypatch.setattr(sys, "argv", ["polminer", "extract", "--input", str(corpus), "--out", str(out)])
    assert main() == 0
    golden_dir = Path(__file__).parent / "data" / "golden"
    for name in FIXTURE_PARAGRAPHS:
        produced = out / (Path(name).stem + ".csv")
        assert produced.read_bytes() == (golden_dir / produced.name).read_bytes()


def test_importing_the_cli_loads_neither_code_generation_nor_the_network_stack():
    # dataclasses brings inspect, ast and dis; HttpChatTransport.send imports
    # the network modules on first use
    src = str(Path(cli.__file__).parents[1])
    code = (
        "import sys; before = set(sys.modules); import polminer.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    loaded = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env, timeout=60
    ).stdout.split()
    assert "polminer.cli" in loaded
    unwanted = {"dataclasses", "inspect", "ast", "dis", "urllib.request", "http.client", "ssl"}
    assert unwanted.isdisjoint(loaded)


# "\udcff": the byte 0xff of a name or an argument that is not UTF-8, as
# Python decodes it (PEP 383)
NOT_UTF8 = os.fsdecode(b"\xff")


def _not_utf8_path(directory: Path, suffix: str) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{NOT_UTF8}{suffix}"
    try:
        path.touch()
    except (OSError, UnicodeError):
        pytest.skip("this file system takes only UTF-8 names")
    return path


@pytest.mark.parametrize("command", ["extract", "llm-extract"])
def test_a_judgment_named_not_utf8_is_skipped_with_one_warning(tmp_path, capfd, command):
    corpus = tmp_path / "S"
    bad = _not_utf8_path(corpus, ".txt")
    bad.write_text("La Corte afferma “il principio” (Cass. n. 1/2019).\n", encoding="utf-8")
    (corpus / "buono.txt").write_text(bad.read_text(encoding="utf-8"), encoding="utf-8")
    out = tmp_path / "P"
    if command == "extract":
        argv, jsonl = ["extract", "--input", str(corpus), "--out", str(out)], out / "candidates.jsonl"
    else:
        mock = tmp_path / "mock.json"
        mock.write_text(json.dumps({"buono.txt": "il principio"}), encoding="utf-8")
        jsonl = tmp_path / "llm.jsonl"
        argv = ["llm-extract", "--input", str(corpus), "--mock", str(mock), "--out-file", str(jsonl)]
    assert main(argv) == 2
    err = capfd.readouterr().err
    assert err.count("file name is not UTF-8") == 1 and "1 ok, 1 failed" in err
    records = [json.loads(line) for line in jsonl.read_text(encoding="utf-8").splitlines()]
    assert records and {r["doc_id"] for r in records} == {"buono.txt"}
    if command == "extract":
        assert sorted(p.name for p in out.iterdir()) == ["buono.csv", "candidates.jsonl"]


def test_import_gold_of_a_docx_named_not_utf8_writes_nothing(tmp_path, capfd):
    path = _not_utf8_path(tmp_path / "annotati", ".docx")
    make_docx(path, [[("span diretto", "yellow")]])
    out = tmp_path / "gold.json"
    assert main(["import-gold", str(path), "--out", str(out)]) == 1
    err = capfd.readouterr().err
    assert err.count("file name is not UTF-8") == 1 and "nothing written" in err
    assert not out.exists()


def test_import_gold_of_a_directory_skips_a_docx_named_not_utf8(tmp_path, capfd):
    src = tmp_path / "annotati"
    make_docx(_not_utf8_path(src, ".docx"), [[("span diretto", "yellow")]])
    make_docx(src / "g1.docx", [[("span indiretto", "blue")]])
    out = tmp_path / "gold.json"
    assert main(["import-gold", str(src), "--out", str(out)]) == 2
    assert capfd.readouterr().err.count("file name is not UTF-8") == 1
    assert [a.doc_id for a in load_gold(out)] == ["g1.docx"]


def test_compare_of_a_candidates_file_named_not_utf8_is_a_usage_error(repro_files, tmp_path, capfd):
    base, corpus, gold_path, paths = repro_files
    named = _not_utf8_path(tmp_path, ".jsonl")
    named.write_bytes(paths["regex"].read_bytes())
    out = tmp_path / "R"
    with pytest.raises(SystemExit) as exit_info:
        main(["compare", str(gold_path), str(paths["chat"]), str(named), "--input", str(corpus), "--out", str(out)])
    assert exit_info.value.code == 2
    assert not out.exists()
    assert "compare: error: compare needs candidate file names that are UTF-8" in capfd.readouterr().err


@pytest.mark.parametrize("where", ["gold", "candidates"])
def test_align_rejects_a_doc_id_that_is_not_utf8(tmp_path, monkeypatch, capsys, where):
    corpus = tmp_path / "S"
    _not_utf8_path(corpus, ".txt").write_text("principio\n", encoding="utf-8")
    (corpus / "s01.txt").write_text("principio\n", encoding="utf-8")
    doc_id = f"{NOT_UTF8}.txt"
    record = {"doc_id": doc_id if where == "gold" else "s01.txt", "paragraph_index": 0,
              "span_text": "principio", "pol_type": "Implicit"}
    # json.dumps writes the lone surrogate as the escape "\udcff"
    (tmp_path / "gold.json").write_text(json.dumps({"annotations": [record]}), encoding="utf-8")
    candidate = {"doc_id": doc_id if where == "candidates" else "s01.txt", "paragraph_index": 0,
                 "text": "principio", "quote": "", "trigger": None, "pol_type": "Implicit"}
    (tmp_path / "cand.jsonl").write_text(json.dumps(candidate) + "\n", encoding="utf-8")
    opened = []
    monkeypatch.setattr(cli, "load_document", lambda path: opened.append(path))
    out = tmp_path / "R"
    assert main(["evaluate", str(tmp_path / "gold.json"), str(tmp_path / "cand.jsonl"),
                 "--input", str(corpus), "--out", str(out)]) == 1
    assert opened == [] and not out.exists()
    assert capsys.readouterr().err == f"fatal: doc_id {doc_id!r} is not UTF-8\n"


@pytest.mark.parametrize("flag", ["--model", "--endpoint"])
def test_llm_extract_text_flag_that_is_not_utf8_is_a_usage_error(tmp_path, capsys, monkeypatch, flag):
    corpus = tmp_path / "S"
    corpus.mkdir()
    (corpus / "j01.txt").write_text("Il giudice deve garantire la tutela.\n", encoding="utf-8")
    mock = tmp_path / "mock.json"
    mock.write_text(json.dumps({"j01.txt": "Il giudice"}), encoding="utf-8")
    opened = []
    monkeypatch.setattr(cli, "load_document", lambda path: opened.append(path))
    out_file, audit = tmp_path / "llm.jsonl", tmp_path / "audit.jsonl"
    # --mock with --endpoint is a usage error of its own
    transport = [] if flag == "--endpoint" else ["--mock", str(mock)]
    with pytest.raises(SystemExit) as exit_info:
        main([
            "llm-extract", "--input", str(corpus), *transport, "--audit", str(audit),
            "--out-file", str(out_file), flag, NOT_UTF8,
        ])
    assert exit_info.value.code == 2
    assert opened == [] and not out_file.exists() and not audit.exists()
    assert f"{flag}: must be UTF-8 text, got {NOT_UTF8!r}" in capsys.readouterr().err


def test_import_gold_annotator_that_is_not_utf8_is_a_usage_error(tmp_path, capsys, monkeypatch):
    path = make_docx(tmp_path / "g1.docx", [[("span diretto", "yellow")]])
    read = []
    monkeypatch.setattr(cli.goldstore, "import_docx_highlights", lambda *args, **kwargs: read.append(args))
    out = tmp_path / "gold.json"
    with pytest.raises(SystemExit) as exit_info:
        main(["import-gold", str(path), "--out", str(out), "--annotator", NOT_UTF8])
    assert exit_info.value.code == 2
    assert read == [] and not out.exists()
    assert f"--annotator: must be UTF-8 text, got {NOT_UTF8!r}" in capsys.readouterr().err
