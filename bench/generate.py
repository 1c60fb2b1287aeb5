"""Seeded input generator for the pipeline benchmark.

``generate(workload, seed, work)`` writes one workload's inputs under
``work`` and returns the labels the checks need:

* ``corpus/``   the judgments: ``.docx`` files with highlight runs and
  ``.txt`` files with wrapped lines;
* ``llm.json``  scripted LLM responses (verbatim, truncated and fabricated
  passages), keyed by document name;
* ``setup/``    a one-paragraph document for the set-up extraction;
* ``labels.json`` what the program should produce, derived from how the
  inputs were built.

Paragraph text comes from ``tests/synth.py`` (typical paragraphs) and
``tests/repro.py`` (span-unique gold vocabulary, fillers and fabricated
passages); ``.docx`` files are written by ``tests/docxbuild.py``. Every gold
span and every paragraph an LLM passage copies carries its own unique
vocabulary, so the alignment outcome follows from construction: a span
matches the one candidate taken from its own paragraph and nothing else.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import repro
import synth
from docxbuild import make_docx

WORKLOADS = ("corpus_typical", "align_dense", "long_paragraphs")

# Highlight colour -> gold type, as documented in the README
# (yellow explicit-direct, blue/cyan explicit-indirect, gray implicit).
COLOUR_TYPES = {
    "yellow": "ExplicitDirect",
    "blue": "ExplicitIndirect",
    "cyan": "ExplicitIndirect",
    "lightGray": "Implicit",
    "darkGray": "Implicit",
}
COLOURS = tuple(COLOUR_TYPES)

TXT_WIDTH = 72  # wrap column of generated plaintext judgments
TRUNCATE_WORDS = 6  # words kept by a truncated passage, before the ellipsis

Run = tuple[str, "str | None"]  # (text, highlight colour or None)


@dataclass
class Para:
    runs: list[Run]
    # length class for rules.scan_growth_4x: 1 for L, 2 for 2L, 4 for 4L
    size: int | None = None
    # index into repro's span vocabulary when the paragraph carries one
    unique: int | None = None
    # (v2_refined, v1_broad) outcome as built, each None (dropped) or the
    # captured quote ("" when none); the checks cross-check it against the
    # regex oracle
    label: tuple[str | None, str | None] | None = None


@dataclass
class Doc:
    name: str
    paras: list[Para]
    gold_class: int | None = None  # 1 for n gold spans, 4 for 4n
    passages: list[tuple[str, int]] = field(default_factory=list)  # (text, source index or -1)


# --- paragraph building blocks ---------------------------------------------


def _unique_runs(k: int, colour: str | None, rng: random.Random) -> list[Run]:
    """repro's span text for ``k``; a highlighted span is sometimes split in
    two adjacent runs of the same colour, which import must merge."""
    text = repro._span_text(k)
    if colour is not None and rng.random() < 0.3:
        cut = text.index(" ", len(text) // 2)
        return [(text[:cut], colour), (text[cut:], colour)]
    return [(text, colour)]


def _truncated(k: int) -> str:
    return " ".join(repro._span_text(k).split()[:TRUNCATE_WORDS]) + "…"


def _deal(rng: random.Random, n: int, items: tuple) -> list:
    """``n`` items in the proportions of ``items`` (cycled), shuffled. Exact
    proportions keep each workload's cost the same from seed to seed; the
    seed only changes order, words and vocabulary."""
    dealt = [items[i % len(items)] for i in range(n)]
    rng.shuffle(dealt)
    return dealt


# verbatim 5 : truncated 3 : skipped 2
_PASSAGE_KINDS = ("verbatim",) * 5 + ("truncated",) * 3 + (None,) * 2


def _passages(doc: Doc, rng: random.Random, fabricated_from: int, count_fabricated: int,
              kinds: list | None = None) -> None:
    """Scripted LLM passages: each paragraph with unique vocabulary is copied
    verbatim, truncated, or skipped, as ``kinds`` says (dealt 5:3:2 when not
    given); fabricated passages share no vocabulary with any source
    paragraph."""
    sources = [(index, para) for index, para in enumerate(doc.paras) if para.unique is not None]
    if kinds is None:
        kinds = _deal(rng, len(sources), _PASSAGE_KINDS)
    for (index, para), kind in zip(sources, kinds):
        if kind == "verbatim":
            doc.passages.append((" ".join(_text(para).split()), index))
        elif kind == "truncated":
            doc.passages.append((_truncated(para.unique), index))
    for n in range(count_fabricated):
        doc.passages.insert(
            rng.randrange(len(doc.passages) + 1),
            (repro._fabricated_text(fabricated_from + n), -1),
        )


def _text(para: Para) -> str:
    return "".join(text for text, _ in para.runs)


# --- workloads ---------------------------------------------------------------


def _corpus_typical(rng: random.Random, seed: int) -> list[Doc]:
    """Many judgments in both formats, 100 paragraphs each, a few gold
    highlights (2 or 8 per .docx judgment).

    A paragraph is one piece (class L) or, one time in five, four pieces
    joined (class 4L). A piece is a synth paragraph, with its mix of quotes,
    keywords, citations and boundary quirks, one time in five; otherwise it
    is plain reasoning made of synth's filler sentences. These proportions
    are assumptions, not corpus figures (bench/README.md)."""
    n_docs, per_doc = 24, 100
    layouts = []
    for d in range(n_docs):
        gold_count = (2 if d % 4 == 0 else 8) if d % 2 == 0 else 0
        unique_count = gold_count + 4
        sizes = _deal(rng, per_doc - unique_count, (4, 1, 1, 1, 1))
        patterned = _deal(rng, sum(sizes) + unique_count, (True, False, False, False, False))
        layouts.append((gold_count, unique_count, sizes, patterned))
    # exactly as many synth paragraphs as pieces need, so their mix of
    # quotes, keywords and citations is the same on every seed
    pool = synth.generate_paragraphs(sum(sum(layout[3]) for layout in layouts), seed=seed)
    rng.shuffle(pool)
    docs: list[Doc] = []
    k = 0
    for d, (gold_count, unique_count, sizes, patterned) in enumerate(layouts):
        docx = d % 2 == 0
        pieces = iter([
            pool.pop() if flag else ", ".join(rng.sample(synth.FILLERS, rng.randint(1, 3))) + "."
            for flag in patterned
        ])
        paras = [Para([(" ".join(next(pieces) for _ in range(size)), None)], size=size) for size in sizes]
        for u in range(unique_count):
            colour = rng.choice(COLOURS) if u < gold_count else None
            runs = _unique_runs(k, colour, rng) + [(" " + next(pieces), None)]
            paras.insert(rng.randrange(len(paras) + 1), Para(runs, unique=k))
            k += 1
        doc = Doc(
            name=f"t{d:02d}.{'docx' if docx else 'txt'}",
            paras=paras,
            gold_class=(1 if gold_count == 2 else 4) if docx else None,
        )
        _passages(doc, rng, fabricated_from=d * 2, count_fabricated=2)
        docs.append(doc)
    return docs


# Span paragraph shapes for align_dense: (prefix, suffix) around the gold
# span. They differ in which rule profile keeps them.
_DENSE_SHAPES = (
    ("La Corte afferma “", "”"),  # quote and keyword: both profiles keep
    ("", " (Cass. n. {num}/20{yy:02d})"),  # end citation: both profiles keep
    ("Il Collegio ribadisce che ", ""),  # keyword only: v1_broad keeps
    ("si legge «", "» in motivazione"),  # quote only: v1_broad keeps
    ("in via generale ", ""),  # no pattern: neither keeps
)


def _align_dense(rng: random.Random, seed: int) -> list[Doc]:
    """A few .docx judgments, hundreds of short span paragraphs each, with n
    or 4n gold spans, half as many span paragraphs without gold, and fillers
    of one or four sentences."""
    n = 24
    docs: list[Doc] = []
    k = 0
    for d, gold_class in enumerate((1, 4, 1, 4)):
        gold_count = n * gold_class
        shapes = _deal(rng, gold_count, _DENSE_SHAPES) + _deal(rng, gold_count // 2, _DENSE_SHAPES)
        paras: list[Para] = []
        for u, (prefix, suffix) in enumerate(shapes):
            colour = rng.choice(COLOURS) if u < gold_count else None
            suffix = suffix.format(num=rng.randrange(1, 30000), yy=rng.randrange(0, 24))
            runs = ([(prefix, None)] if prefix else []) + _unique_runs(k, colour, rng)
            runs += [(suffix, None)] if suffix else []
            paras.append(Para(runs, size=1, unique=k))
            k += 1
        rng.shuffle(paras)
        for slot, sentences in enumerate(_deal(rng, gold_count // 2, (4, 4, 4, 1, 1, 1, 1, 1, 1, 1))):
            text = "; ".join(repro._filler_text(d, slot * 4 + s) for s in range(sentences))
            paras.insert(rng.randrange(len(paras) + 1), Para([(text, None)], size=sentences))
        doc = Doc(name=f"a{d:02d}.docx", paras=paras, gold_class=gold_class)
        _passages(doc, rng, fabricated_from=d * 8, count_fabricated=8)
        docs.append(doc)
    return docs


# Vocabulary of long-paragraph filler: no keyword, quote mark, parenthesis
# or digit, so only the deliberate parts decide the rules' outcome.
_LONG_WORDS = (
    "ritenuto", "che", "la", "domanda", "appare", "fondata", "nei", "limiti",
    "seguenti", "atteso", "il", "ricorrente", "ha", "dedotto", "circostanze",
    "documentate", "mentre", "resistente", "non", "contesta", "fatti",
    "allegati", "in", "atti", "sicché", "deve", "essere", "accolta",
)
# Adversarial runs, one kind per paragraph, every other word: unclosed
# opening quotes, '(' without a closing year, and inline citation heads that
# never reach a number.
_ADVERSARIAL = ("“", "(nota", "Cass. sez.")
# (closed quote, keyword, end citation): kept by both profiles with a quote,
# by both with an end citation, by v1_broad only on its keyword, by neither
_LONG_OUTCOMES = ((True, True, False), (False, False, True), (False, True, False), (False, False, False))
# How the LLM response uses each paragraph, cycled like the outcomes: a
# verbatim copy of a 4L paragraph costs the LLM layer 16 times one of an L
# paragraph, so the copies are not left to the seed.
_LONG_COPIES = ("verbatim", "truncated", None)
LONG_L = 450  # characters of a class-1 long paragraph
_QUOTE = "“principio di diritto enunciato”"


def _long_paragraph(k: int, size: int, kind: str, outcome: tuple, colour: str | None,
                    rng: random.Random) -> Para:
    """A paragraph of about ``size * LONG_L`` characters: span vocabulary,
    optional closed quote, optional keyword, filler alternating with one
    adversarial run, optional end citation; labelled with what each profile
    keeps."""
    has_quote, has_keyword, ends_with_citation = outcome
    runs = _unique_runs(k, colour, rng)
    head = ([_QUOTE] if has_quote else []) + (["la Corte osserva"] if has_keyword else [])
    words: list[str] = []
    length = len(_text(Para(runs))) + sum(len(h) + 1 for h in head)
    while length < size * LONG_L:
        word = kind if len(words) % 2 == 0 else rng.choice(_LONG_WORDS)
        words.append(word)
        length += len(word) + 1
    tail = f" (Cass. Civ. {rng.randrange(100, 9999)}/20{rng.randrange(0, 24):02d})" if ends_with_citation else ""
    runs.append((" " + " ".join(head + words) + tail, None))
    v2 = _QUOTE if has_quote and has_keyword else "" if ends_with_citation else None
    v1 = _QUOTE if has_quote else "" if ends_with_citation or has_keyword else None
    return Para(runs, size=size, unique=k, label=(v2, v1))


def _long_paragraphs(rng: random.Random, seed: int) -> list[Doc]:
    """.txt judgments of long wrapped paragraphs, plus two .docx judgments
    carrying n and 4n gold spans in paragraphs of the same kind. Every
    judgment holds each adversarial kind at lengths L, 2L and 4L; which
    rules keep each paragraph, and how the LLM copies it, cycle through
    _LONG_OUTCOMES and _LONG_COPIES."""
    docs: list[Doc] = []
    k = 0
    layouts = [("txt", None)] * 3 + [("docx", 1), ("docx", 4)]
    for d, (fmt, gold_class) in enumerate(layouts):
        specs = [
            (kind, size, _LONG_OUTCOMES[(i + d) % len(_LONG_OUTCOMES)], _LONG_COPIES[(i + d) % len(_LONG_COPIES)])
            for i, (kind, size) in enumerate((kind, size) for kind in _ADVERSARIAL for size in (1, 2, 4))
        ]
        rng.shuffle(specs)
        gold_count = 2 * gold_class if gold_class else 0
        paras = []
        for i, (kind, size, outcome, _) in enumerate(specs):
            colour = rng.choice(COLOURS) if i < gold_count else None
            paras.append(_long_paragraph(k, size, kind, outcome, colour, rng))
            k += 1
        doc = Doc(name=f"l{d:02d}.{fmt}", paras=paras, gold_class=gold_class)
        _passages(doc, rng, fabricated_from=d * 2, count_fabricated=2, kinds=[spec[3] for spec in specs])
        docs.append(doc)
    return docs


_BUILDERS = {
    "corpus_typical": _corpus_typical,
    "align_dense": _align_dense,
    "long_paragraphs": _long_paragraphs,
}


# --- writing -----------------------------------------------------------------


def _txt_lines(text: str) -> list[str]:
    """Greedy word wrap at TXT_WIDTH; in-paragraph newlines start new lines."""
    lines: list[str] = []
    for piece in text.split("\n"):
        line = ""
        for word in piece.split():
            if line and len(line) + 1 + len(word) > TXT_WIDTH:
                lines.append(line)
                line = word
            else:
                line = f"{line} {word}" if line else word
        if line:
            lines.append(line)
    return lines


def _gold(doc: Doc) -> list[dict]:
    """Highlight spans as import should report them: adjacent runs of one
    colour merged, types mapped from colours."""
    gold = []
    for index, para in enumerate(doc.paras):
        spans: list[list[str]] = []
        previous = None
        for text, colour in para.runs:
            if colour is not None and colour == previous:
                spans[-1][0] += text
            elif colour is not None:
                spans.append([text, colour])
            previous = colour
        for text, colour in spans:
            gold.append({"paragraph_index": index, "span_text": text, "pol_type": COLOUR_TYPES[colour]})
    return gold


def _check_runs(doc: Doc) -> None:
    """Same-colour spans are only merged when adjacent, so a paragraph must
    not hold two separate spans; the builders never make one."""
    for para in doc.paras:
        colours = [c for _, c in para.runs]
        spans = sum(1 for i, c in enumerate(colours) if c is not None and (i == 0 or colours[i - 1] != c))
        if spans > 1:
            raise ValueError(f"{doc.name}: paragraph with {spans} highlight spans")


def generate(workload: str, seed: int, work: Path) -> dict:
    """Write the inputs of ``workload`` for ``seed`` under ``work`` and
    return (and write) the labels."""
    rng = random.Random(f"{workload}:{seed}")
    docs = _BUILDERS[workload](rng, seed)
    corpus = work / "corpus"
    corpus.mkdir(parents=True)
    labels_docs = []
    responses = {}
    for doc in docs:
        _check_runs(doc)
        if doc.name.endswith(".docx"):
            make_docx(corpus / doc.name, [list(p.runs) for p in doc.paras])
            texts = [_text(p) for p in doc.paras]
        else:
            blocks = [_txt_lines(_text(p)) for p in doc.paras]
            (corpus / doc.name).write_text(
                "\n\n".join("\n".join(lines) for lines in blocks) + "\n", encoding="utf-8"
            )
            texts = [" ".join(lines) for lines in blocks]
        responses[doc.name] = "\n\n".join(text for text, _ in doc.passages)
        labels_docs.append({
            "name": doc.name,
            "texts": texts,
            "sizes": [p.size for p in doc.paras],
            "labels": [p.label for p in doc.paras],
            "gold": _gold(doc) if doc.name.endswith(".docx") else [],
            "gold_class": doc.gold_class,
            "passages": [{"text": text, "index": index} for text, index in doc.passages],
        })
    (work / "llm.json").write_text(json.dumps(responses, ensure_ascii=False), encoding="utf-8")
    setup = work / "setup"
    setup.mkdir()
    (setup / "one.txt").write_text(synth.QUIRK_PARAGRAPHS[-1] + "\n", encoding="utf-8")
    labels = {"workload": workload, "seed": seed, "docs": labels_docs}
    (work / "labels.json").write_text(json.dumps(labels, ensure_ascii=False), encoding="utf-8")
    return labels
