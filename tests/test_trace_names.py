"""Every per-layer span the benchmark declares names a function its tracer wraps.

``bench/run.py --trace 1`` reads ``<layer>.<function>.calls`` and
``.self_s`` for each span in ``BENCHMARK.json``'s ``per_layer`` list, and the
tracer wraps only the public functions of the modules in its ``LAYERS``
map; deleting or renaming such a function breaks the traced run. Derived
ratios and the ``cli.*`` command spans are not functions and are skipped.
Both files are read, never imported or written.

The traced run also needs ``align`` to call ``overlap_coefficient`` through
``polminer.evaluation``: ``textnorm.overlap_coefficient.calls`` is missing
from a round where nothing calls it, and ``evaluation.match_yield`` (matches
per score computed from ``polminer.evaluation``) is undefined.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import json
from pathlib import Path

import pytest

from polminer import evaluation
from polminer.corpus import Document
from polminer.extractor import PoLCandidate, PoLType, Source
from polminer.goldstore import GoldAnnotation

ROOT = Path(__file__).resolve().parent.parent


def _tracer_layers() -> dict[str, str]:
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text(encoding="utf-8"))
    (value,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "LAYERS" for t in node.targets)
    ]
    return ast.literal_eval(value)


def _declared_spans() -> list[str]:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    spans = set()
    for metric in benchmark["per_layer"]:
        span, _, measure = metric["name"].rpartition(".")
        if measure in ("calls", "self_s") and not span.startswith("cli."):
            spans.add(span)
    return sorted(spans)


def test_declared_spans_are_found():
    assert {"corpus.load_document", "goldstore.import_docx_highlights"} <= set(_declared_spans())


@pytest.mark.parametrize("span", _declared_spans())
def test_declared_span_is_a_public_layer_function(span):
    layer, function = span.split(".", 1)
    module_of = {name: module for module, name in _tracer_layers().items()}
    assert layer in module_of, f"{layer!r} is not a traced layer"
    value = getattr(importlib.import_module(module_of[layer]), function, None)
    assert not function.startswith("_")
    assert inspect.isfunction(value) and value.__module__ == module_of[layer]


def test_align_scores_every_match_through_evaluation(monkeypatch):
    texts = ["la corte afferma il principio", "altro testo", "la corte tace"]
    document = Document("d.txt", tuple(texts), None)
    gold = [GoldAnnotation(doc_id="d.txt", paragraph_index=0, span_text=texts[0],
                           pol_type=PoLType.EXPLICIT_DIRECT)]
    candidates = [
        PoLCandidate(doc_id="d.txt", paragraph_index=i, text=t, quote="", trigger=None,
                     pol_type=PoLType.IMPLICIT, source=Source.RULES)
        for i, t in enumerate(texts)
    ]
    calls = []
    real = evaluation.overlap_coefficient

    def spy(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(evaluation, "overlap_coefficient", spy)
    result = evaluation.align(candidates, gold, document)
    assert len(result.matches) == 1
    assert len(calls) >= len(result.matches)
