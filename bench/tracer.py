"""In-memory spans around polminer's public functions, and the per-layer metrics.

``Tracer.install`` wraps every public function of the layer modules at each
name a caller looks it up by: ``polminer.extractor.find_quotes`` and
``polminer.llm.find_quotes`` are both wrapped, and each span records the
module it was looked up from (its site). A span holds an id, its parent's
id, the layer-qualified name, the site, start and end in nanoseconds and a
few facts about the call that the ratios need. Parents come from a
per-thread stack; a span opened on a thread with an empty stack (the
``extract`` thread pool) takes the current command span as its parent.

A span's self time is its duration minus the union of its children's
intervals, so children running at once on pool threads are not counted
twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

# module -> layer name used in span names
LAYERS = {
    "polminer.corpus": "corpus",
    "polminer.patterns.rules": "rules",
    "polminer.patterns.citations": "citations",
    "polminer.extractor": "extractor",
    "polminer.goldstore": "goldstore",
    "polminer.textnorm": "textnorm",
    "polminer.evaluation": "evaluation",
    "polminer.llm": "llm",
}
# The cli layer is traced by the command spans the round opens around each
# cli.main call; its helpers' time is that span's self time.
DETECTORS = ("rules.find_quotes", "rules.match_keywords", "rules.citation_at_end")


class Tracer:
    def __init__(self, run_id: str, labels: dict):
        self.run_id = run_id
        # (id, parent, name, site, start_ns, end_ns, fact); list.append is
        # atomic, so pool threads append here directly
        self.spans: list[tuple] = []
        self.root: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._installed: list[tuple[object, str, object]] = []
        self._size = {}
        self._gold_class = {}
        for doc in labels["docs"]:
            self._gold_class[doc["name"]] = doc["gold_class"]
            for text, size in zip(doc["texts"], doc["sizes"]):
                self._size[text] = size
        self._facts = {
            # length class of the paragraph a detector scans from extractor
            **{name: self._paragraph_size for name in DETECTORS},
            "citations.parse_citation": lambda args, result, error: error is None,
            "extractor.extract_candidates": lambda args, result, error: (len(result), len(args[0].paragraphs)),
            "evaluation.align": lambda args, result, error: (len(result.matches), self._gold_class.get(args[2].doc_id)),
            "llm.resolve_paragraph": lambda args, result, error: result != -1,
            "llm.split_passages": lambda args, result, error: len(result),
        }

    def _paragraph_size(self, args, result, error):
        return self._size.get(args[0])

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _wrap(self, fn, name: str, site: str):
        fact = self._facts.get(name)
        spans, ids, clock = self.spans, self._ids, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self.root
            span_id = next(ids)
            stack.append(span_id)
            result = error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, name, site, start, end,
                              fact(args, result, error) if fact else None))

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer at every lookup site."""
        originals = {}
        for module_name, layer in LAYERS.items():
            module = importlib.import_module(module_name)
            for attr, value in vars(module).items():
                if inspect.isfunction(value) and value.__module__ == module_name and not attr.startswith("_"):
                    originals[value] = f"{layer}.{value.__name__}"
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("polminer"):
                continue
            site = LAYERS.get(module_name, module_name)
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in originals:
                    self._installed.append((module, attr, value))
                    setattr(module, attr, self._wrap(value, originals[value], site))

    def uninstall(self) -> None:
        for module, attr, value in self._installed:
            setattr(module, attr, value)
        self._installed.clear()

    @contextmanager
    def span(self, name: str):
        """A command span on the calling thread; pool threads parent to it."""
        span_id = next(self._ids)
        stack = self._stack()
        parent = stack[-1] if stack else None
        stack.append(span_id)
        self.root = span_id
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.root = None
            self.spans.append((span_id, parent, name, "bench", start, end, None))

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("run\tid\tparent\tname\tsite\tstart_ns\tend_ns\n")
            for span_id, parent, name, site, start, end, _ in self.spans:
                fh.write(f"{self.run_id}\t{span_id}\t{parent or ''}\t{name}\t{site}\t{start}\t{end}\n")

    def self_times(self) -> dict[int, int]:
        """Self time in ns of every span: duration minus its children's union."""
        children = defaultdict(list)
        for _, parent, _, _, start, end, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        own = {}
        for span_id, _, _, _, start, end, _ in self.spans:
            covered, reach = 0, start
            for s, e in sorted(children.get(span_id, ())):
                s, e = max(s, reach), min(e, end)
                if e > s:
                    covered += e - s
                    reach = e
            own[span_id] = end - start - covered
        return own

    def layer_metrics(self) -> dict[str, float]:
        """Counts, self times and ratios of one traced round."""
        own = self.self_times()
        calls: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        by_name = defaultdict(list)
        for span in self.spans:
            name = span[2]
            calls[name] += 1
            self_ns[name] += own[span[0]]
            by_name[name].append(span)
        metrics: dict[str, float] = {}
        for name in calls:
            metrics[f"{name}.calls"] = calls[name]
            metrics[f"{name}.self_s"] = self_ns[name] / 1e9

        def ratio(num: float, den: float) -> float | None:
            return num / den if den else None

        # detectors' self time per paragraph, 4L paragraphs over L paragraphs
        per_class = {}
        for size in (1, 4):
            scanned = sum(1 for s in by_name["rules.find_quotes"] if s[3] == "extractor" and s[6] == size)
            spent = sum(own[s[0]] for d in DETECTORS for s in by_name[d] if s[3] == "extractor" and s[6] == size)
            per_class[size] = ratio(spent, scanned)
        metrics["rules.scan_growth_4x"] = ratio(per_class[4], per_class[1]) if per_class[1] else None

        parses = by_name["citations.parse_citation"]
        metrics["citations.parse_citation.ok_ratio"] = ratio(sum(1 for s in parses if s[6]), len(parses))
        extracted = by_name["extractor.extract_candidates"]
        metrics["extractor.kept_ratio"] = ratio(sum(s[6][0] for s in extracted), sum(s[6][1] for s in extracted))

        aligns = by_name["evaluation.align"]
        scored = sum(1 for s in by_name["textnorm.overlap_coefficient"] if s[3] == "evaluation")
        metrics["evaluation.match_yield"] = ratio(sum(s[6][0] for s in aligns), scored)
        mean_align = {}
        for size in (1, 4):
            durations = [s[5] - s[4] for s in aligns if s[6][1] == size]
            mean_align[size] = ratio(sum(durations), len(durations))
        metrics["evaluation.align_growth_4x"] = (
            ratio(mean_align[4], mean_align[1]) if mean_align[1] and mean_align[4] else None
        )

        resolved = by_name["llm.resolve_paragraph"]
        metrics["llm.resolve_yield"] = ratio(sum(1 for s in resolved if s[6]), len(resolved))
        passages = sum(s[6] for s in by_name["llm.split_passages"])
        counters = sum(1 for s in by_name["textnorm.raw_token_counts"] if s[3] == "llm")
        metrics["llm.counters_per_passage"] = ratio(counters, passages)

        (extract,) = by_name["cli.extract"]
        busy = sum(s[5] - s[4] for name in ("extractor.extract_candidates", "extractor.emit_csv")
                   for s in by_name[name] if s[1] == extract[0])
        metrics["cli.extract.busy_over_wall"] = ratio(busy, extract[5] - extract[4])
        return metrics
