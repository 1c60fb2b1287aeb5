"""Output files are replaced whole or left as they were."""

from __future__ import annotations

import os
import stat

import pytest

from polminer.extractor import PoLCandidate, PoLType, Source, emit_csv, save_candidates_jsonl
from polminer.goldstore import GoldAnnotation, save_gold
from polminer.outfile import atomic_write


def _cand(index: int, text: str = "Il giudice deve garantire la tutela.") -> PoLCandidate:
    return PoLCandidate(
        doc_id="j01.txt", paragraph_index=index, text=text, quote="",
        trigger=None, pol_type=PoLType.IMPLICIT, citations=(), source=Source.LLM,
    )


class Broken:
    """A candidate that sorts after the good ones and fails once it is written."""

    paragraph_index = 99

    @property
    def text(self) -> str:
        raise RuntimeError("row cannot be written")

    def to_dict(self) -> dict:
        raise RuntimeError("row cannot be written")


@pytest.fixture
def restore_umask():
    """Restore the process umask after a test that sets it."""
    previous = os.umask(0o022)
    try:
        yield
    finally:
        os.umask(previous)


def _mode(path) -> int:
    return stat.S_IMODE(os.stat(path).st_mode)


def test_failed_jsonl_write_keeps_the_previous_file(tmp_path):
    path = save_candidates_jsonl([_cand(0), _cand(1)], tmp_path / "candidates.jsonl")
    before = path.read_bytes()
    with pytest.raises(RuntimeError, match="cannot be written"):
        save_candidates_jsonl([_cand(0), Broken()], path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["candidates.jsonl"]


def test_failed_csv_write_keeps_the_previous_file(tmp_path):
    path = emit_csv([_cand(0), _cand(1)], "j01.txt", tmp_path)
    before = path.read_bytes()
    with pytest.raises(RuntimeError, match="cannot be written"):
        emit_csv([_cand(0), Broken()], "j01.txt", tmp_path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["j01.csv"]


def test_failed_first_write_leaves_no_file(tmp_path):
    with pytest.raises(RuntimeError):
        save_candidates_jsonl([_cand(0), Broken()], tmp_path / "out" / "candidates.jsonl")
    assert os.listdir(tmp_path / "out") == []


@pytest.mark.parametrize("mask", [0o022, 0o077], ids=["umask022", "umask077"])
def test_new_file_mode_follows_the_umask(tmp_path, restore_umask, mask):
    os.umask(mask)
    written = [
        save_candidates_jsonl([_cand(0)], tmp_path / "candidates.jsonl"),
        emit_csv([_cand(0)], "j01.txt", tmp_path),
        save_gold((GoldAnnotation("j01.txt", 0, "tutela", PoLType.IMPLICIT),),
                  tmp_path / "gold.json"),
    ]
    with open(tmp_path / "plain.txt", "w") as fh:
        fh.write("x")
    assert _mode(tmp_path / "plain.txt") == 0o666 & ~mask
    assert [_mode(path) for path in written] == [0o666 & ~mask] * len(written)


def test_replaced_file_keeps_its_mode(tmp_path, restore_umask):
    path = tmp_path / "gold.json"
    path.write_text("{}\n", encoding="utf-8")
    os.chmod(path, 0o640)
    with atomic_write(path) as fh:
        fh.write("[]\n")
    assert path.read_text(encoding="utf-8") == "[]\n"
    assert _mode(path) == 0o640


def test_writes_utf8_with_lf_line_endings_into_a_new_directory(tmp_path):
    path = tmp_path / "a" / "b" / "table.md"
    with atomic_write(path) as fh:
        fh.write("città\nriga\n")
    assert path.read_bytes() == "città\nriga\n".encode("utf-8")
    assert os.listdir(path.parent) == ["table.md"]
