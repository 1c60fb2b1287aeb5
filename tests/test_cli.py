from __future__ import annotations

import json
from pathlib import Path

import pytest

from docxbuild import make_docx, truncate_file
from fixture_corpus import FIXTURE_PARAGRAPHS, build_fixture_corpus
from repro import ReproFixture
from polminer.cli import main
from polminer.extractor import save_candidates_jsonl
from polminer.goldstore import save_gold


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


def test_extract_sequential_jobs_flag(tmp_path):
    corpus = build_fixture_corpus(tmp_path / "S")
    out = tmp_path / "P"
    assert main(["extract", "--input", str(corpus), "--out", str(out), "--jobs", "1"]) == 0
    assert sorted(p.name for p in out.glob("*.csv")) == ["s01.csv", "s02.csv", "s03.csv"]


def test_config_file_with_flag_override(tmp_path):
    corpus = build_fixture_corpus(tmp_path / "S")
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"input_dir": str(corpus), "output_dir": str(tmp_path / "FromConfig")}))
    out = tmp_path / "FromFlag"
    assert main(["extract", "--config", str(config), "--out", str(out)]) == 0
    assert out.is_dir() and not (tmp_path / "FromConfig").exists()


def test_unknown_profile_is_fatal(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"profile": "v9"}))
    assert main(["extract", "--config", str(config)]) == 1


def test_import_gold_roundtrip(tmp_path, capsys):
    src = tmp_path / "annotati"
    src.mkdir()
    make_docx(src / "g1.docx", [[("span diretto", "yellow")], [("span implicito", "lightGray")]])
    make_docx(src / "g2.docx", [[("span indiretto", "blue")]])
    out = tmp_path / "gold.json"
    assert main(["import-gold", str(src), "--out", str(out)]) == 0
    data = json.loads(out.read_text(encoding="utf-8"))
    assert len(data["annotations"]) == 3


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


def test_compare_single_method_is_usage_error(repro_files, capsys):
    base, corpus, gold_path, paths = repro_files
    assert main([
        "compare", str(gold_path), str(paths["chat"]), "--input", str(corpus),
    ]) == 1
    assert "usage error" in capsys.readouterr().err


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


def test_report_tracking_table(repro_files, capsys):
    base, corpus, gold_path, paths = repro_files
    assert main([
        "report", str(gold_path), str(paths["chat"]),
        "--input", str(corpus), "--out", str(base / "track"),
    ]) == 0
    out = capsys.readouterr().out
    assert "TOTAL" in out
    assert (base / "track" / "tracking.md").is_file()


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


def test_llm_extract_requires_transport_choice(tmp_path):
    corpus = tmp_path / "S"
    corpus.mkdir()
    assert main(["llm-extract", "--input", str(corpus)]) == 1


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


def test_compare_same_file_twice_is_usage_error(repro_files, capsys):
    base, corpus, gold_path, paths = repro_files
    assert main([
        "compare", str(gold_path), str(paths["chat"]), str(paths["chat"]), "--input", str(corpus),
    ]) == 1
    assert "usage error" in capsys.readouterr().err
