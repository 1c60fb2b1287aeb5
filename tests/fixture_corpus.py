"""Fixed three-judgment corpus used for golden-file CSV comparison, with
three highlighted gold spans for the import-gold and evaluate read path.

The golden CSVs under data/golden/ were produced by replaying the original
generated script (see oracles.replay_refined) over these paragraphs and
freezing the bytes; the engine's output must match them exactly.
"""

from __future__ import annotations

from pathlib import Path

from docxbuild import Run, make_docx

FIXTURE_PARAGRAPHS: dict[str, list[str]] = {
    "s01.docx": [
        "La Corte ha affermato “il principio va tutelato” in ogni sede.",
        "   ",
        "Le spese vanno poste a carico dell’Erario (Corte Cost. 217/2019)",
        "Nessun rilievo basta qui.",
        "Il Tribunale osserva, senza virgolette, che nulla rileva.",
        "Si legge “solo virgolette, senza parole chiave”.",
    ],
    "s02.docx": [
        "Il Collegio rammenta: «i diritti fondamentali, dice, \"vanno\" "
        "garantiti» (Cass. n. 26972/2008).",
        "Come da giurisprudenza costante (Cass. Civ. 3877/2020).",
        "Va richiamato l’orientamento del Consesso: “regola chiara” "
        "(v. sent. 22.06.2016 n. 12962)",
        "(nota interna 2021)",
    ],
    "s03.docx": [
        "Testo con virgola, e \"doppi apici\" dentro, CORTE esigente.",
        "Paragrafo semplice senza pattern.",
        "Chiusura con rinvio (Trib. Milano 15/2020)",
    ],
}

# Gold highlights: judgment -> {position in FIXTURE_PARAGRAPHS: (span, colour)}.
# Each span is a substring of its paragraph, which is written as the runs
# before, in and after it, so the paragraph text is unchanged. One span per
# colour class: the rules extractor finds the paragraphs of the first two
# and misses the third, so evaluate on its candidates reads tp=2 fp=5 fn=1.
FIXTURE_HIGHLIGHTS: dict[str, dict[int, tuple[str, str]]] = {
    "s01.docx": {0: ("il principio va tutelato", "yellow")},
    "s02.docx": {0: ("i diritti fondamentali, dice, \"vanno\" garantiti", "cyan")},
    "s03.docx": {1: ("Paragrafo semplice senza pattern.", "lightGray")},
}


def _runs(paragraph: str, highlight: tuple[str, str] | None) -> str | list[Run]:
    if highlight is None:
        return paragraph
    span, colour = highlight
    before, found, after = paragraph.partition(span)
    assert found, (paragraph, span)
    return [(text, hl) for text, hl in ((before, None), (span, colour), (after, None)) if text]


def build_fixture_corpus(directory: Path) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    for name, paragraphs in FIXTURE_PARAGRAPHS.items():
        highlights = FIXTURE_HIGHLIGHTS[name]
        make_docx(directory / name, [_runs(text, highlights.get(i)) for i, text in enumerate(paragraphs)])
    return directory
