"""One benchmark round, in a fresh interpreter: set-up, then the six commands.

    python3 bench/pipeline.py WORK_DIR [--trace]

Imports ``polminer.cli`` and runs one warm-up extraction of a one-paragraph
document (the set-up time), then runs the six pipeline commands in order
through ``polminer.cli.main`` on the inputs under WORK_DIR, timing each.
A command that takes only tens of milliseconds on a workload runs several
times in a row (``REPEATS``), each run timed, so that a round gives a short
command more than one sample. A fixed calibration load is timed before the
set-up, before every command and after the last; the round's ``speed``
factor, by which every time of the round is scaled, comes from it. With
``--trace`` every command runs once, the public functions of the polminer
layers are wrapped after set-up and the per-layer metrics are added to the
result. The result is written to ``WORK_DIR/round.json``.
"""

import contextlib
import gc
import io
import json
import re
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Host-speed calibration. The shared cores of a small virtual machine run
# everything at times at half speed, for tens of seconds to minutes, longer
# than a run lasts. A fixed pure-Python load slows with them, so a round's
# times are scaled by its ``speed``: CALIBRATION_REF_S over the median time
# of that load in the round. The figures read as seconds on a host that
# runs the load in CALIBRATION_REF_S.
CALIBRATION_REF_S = 0.02
_CALIBRATION_TEXT = " ".join(f"parola{i % 97} Cass. n. {i}/2008 «sic»" for i in range(3000))

# workload -> command -> runs per round, for commands under about 100 ms on
# the reference host; each repeated sample lasts about 200 ms
REPEATS = {
    "corpus_typical": {"import_gold": 16},
    "align_dense": {"import_gold": 16, "extract": 5, "extract_broad": 5, "evaluate": 2},
    "long_paragraphs": {"import_gold": 64, "evaluate": 8, "compare": 3},
}


def _commands(work: Path) -> list[tuple[str, list[str]]]:
    """(label, argv) of the six commands; the labels name them in results and spans."""
    out, corpus = work / "out", str(work / "corpus")
    return [
        ("import_gold", ["import-gold", corpus, "--out", str(out / "gold.json")]),
        ("extract", ["extract", "--input", corpus, "--out", str(out / "v2_refined"), "--profile", "v2_refined"]),
        ("extract_broad", ["extract", "--input", corpus, "--out", str(out / "v1_broad"), "--profile", "v1_broad"]),
        ("llm_extract", ["llm-extract", "--input", corpus, "--mock", str(work / "llm.json"),
                         "--out-file", str(out / "llm.jsonl")]),
        ("evaluate", ["evaluate", str(out / "gold.json"), str(out / "v2_refined" / "candidates.jsonl"),
                      "--input", corpus, "--out", str(out / "evaluate")]),
        ("compare", ["compare", str(out / "gold.json"), str(out / "v1_broad.jsonl"),
                     str(out / "v2_refined.jsonl"), str(out / "llm.jsonl"),
                     "--input", corpus, "--out", str(out / "compare")]),
    ]


def _calibrate() -> float:
    """Time of one run of the fixed calibration load, with the collector off
    so that the heap polminer left behind does not enter it."""
    gc.disable()
    try:
        begin = time.perf_counter()
        for _ in range(3):
            words = _CALIBRATION_TEXT.split()
            Counter(words)
            re.findall(r"\d+/\d{4}", _CALIBRATION_TEXT)
            json.dumps(words)
        return time.perf_counter() - begin
    finally:
        gc.enable()


def main(work: Path, traced: bool) -> None:
    calibration = [_calibrate()]
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    from polminer import cli

    with contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["extract", "--input", str(work / "setup"), "--out", str(work / "out" / "setup")])
    if code != 0:
        sys.exit("set-up extraction failed")
    setup_s = time.perf_counter() - start

    labels = json.loads((work / "labels.json").read_text(encoding="utf-8"))
    repeats = {} if traced else REPEATS[labels["workload"]]
    tracer = None
    if traced:
        import tracer as tracing

        tracer = tracing.Tracer(run_id=f"{labels['workload']}-{labels['seed']}", labels=labels)
        tracer.install()
    commands = {}
    for label, argv in _commands(work):
        if label == "compare":
            # compare names each method after its file stem, and both extract
            # runs write candidates.jsonl, so the sets get distinct names first
            for profile in ("v1_broad", "v2_refined"):
                source = work / "out" / profile / "candidates.jsonl"
                if source.is_file():  # a failed extract leaves compare to report it
                    shutil.copyfile(source, work / "out" / f"{profile}.jsonl")
        calibration.append(_calibrate())
        count = repeats.get(label, 1)
        stderr = io.StringIO()
        exit_code = 0
        walls = []
        for _ in range(count):
            stdout = io.StringIO()  # the checks read the last run's report
            span = tracer.span(f"cli.{label}") if tracer else contextlib.nullcontext()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                begin = time.perf_counter()
                with span:
                    # a command that crashes fails every document; the round goes on
                    try:
                        code = cli.main(argv)
                    except SystemExit as exc:
                        code = exc.code
                    except Exception:
                        traceback.print_exc()
                        code = cli.EXIT_FATAL
                walls.append(time.perf_counter() - begin)
            exit_code = exit_code or code
        commands[label] = {"walls_s": walls, "exit": exit_code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}
    calibration.append(_calibrate())
    result = {
        "speed": CALIBRATION_REF_S / statistics.median(calibration),
        "setup_s": setup_s,
        "commands": commands,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics()
        tracer.write_spans(work / "spans.tsv")
    (work / "round.json").write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(Path(sys.argv[1]), "--trace" in sys.argv[2:])
