"""Every per-layer span the benchmark declares names a function its tracer wraps.

``bench/run.py --trace 1`` reads ``<layer>.<function>.calls`` and
``.self_s`` for each span in ``BENCHMARK.json``'s ``per_layer`` list, and the
tracer wraps only the public functions of the modules in its ``LAYERS``
map; deleting or renaming such a function breaks the traced run. Derived
ratios and the ``cli.*`` command spans are not functions and are skipped.
Both files are read, never imported or written.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import json
from pathlib import Path

import pytest

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
