"""Synthetic reproduction fixtures matching the published corpus tallies.

Builds a 60-judgment plaintext corpus with 686 gold spans (91 implicit, 293
explicit-direct, 302 explicit-indirect) and three candidate sets whose
alignment yields the published confusion counts:

    chat       tp=161 (6/91/64 by type)   fp=45 (16 Not-PoL + 29 hallucination)
    regex      tp=365 (22/232/111)        fp=87 (all Not-PoL)
    annotators tp=682 (87/293/302)        fp=0

Every gold span uses span-unique vocabulary so token overlap between
different spans stays well under the match threshold, and fabricated
candidates share no vocabulary with any source paragraph.
"""

from __future__ import annotations

from pathlib import Path

from polminer.extractor import PoLCandidate, PoLType, Source
from polminer.goldstore import GoldAnnotation

N_DOCS = 60

_TYPE_LAYOUT = (
    (PoLType.IMPLICIT, 91),
    (PoLType.EXPLICIT_DIRECT, 293),
    (PoLType.EXPLICIT_INDIRECT, 302),
)

# whole implicit = 87 human + 2 chat-discovered + 2 regex-discovered
CHAT_MATCHES = {
    PoLType.IMPLICIT: [0, 1, 2, 3, 87, 88],
    PoLType.EXPLICIT_DIRECT: list(range(91)),
    PoLType.EXPLICIT_INDIRECT: list(range(64)),
}
REGEX_MATCHES = {
    PoLType.IMPLICIT: list(range(20)) + [89, 90],
    PoLType.EXPLICIT_DIRECT: list(range(232)),
    PoLType.EXPLICIT_INDIRECT: list(range(111)),
}
ANNOTATOR_MATCHES = {
    PoLType.IMPLICIT: list(range(87)),
    PoLType.EXPLICIT_DIRECT: list(range(293)),
    PoLType.EXPLICIT_INDIRECT: list(range(302)),
}

CHAT_NOT_POL = 16
CHAT_HALLUCINATION = 29
REGEX_NOT_POL = 87


def _doc_id(i: int) -> str:
    return f"j{i + 1:02d}.txt"


def _span_text(k: int) -> str:
    return f"massima q{k}x riguarda n{k}z e impone v{k}w primato"


def _filler_text(doc: int, slot: int) -> str:
    return f"le parti w{doc}p{slot} hanno dedotto f{doc}h{slot} circostanze irrilevanti"


def _fabricated_text(k: int) -> str:
    return f"drago viola z{k} galassia remota k{k} cristallo errante"


class ReproFixture:
    def __init__(self) -> None:
        self.gold: list[GoldAnnotation] = []
        self.paragraphs: dict[str, list[str]] = {_doc_id(i): [] for i in range(N_DOCS)}
        # (type, ordinal within type) -> (doc_id, paragraph_index)
        self.position: dict[tuple[PoLType, int], tuple[str, int]] = {}
        k = 0
        for pol_type, count in _TYPE_LAYOUT:
            for ordinal in range(count):
                doc_id = _doc_id(k % N_DOCS)
                paragraphs = self.paragraphs[doc_id]
                index = len(paragraphs)
                text = _span_text(k)
                paragraphs.append(text)
                human = not (pol_type is PoLType.IMPLICIT and ordinal >= 87)
                self.gold.append(
                    GoldAnnotation(
                        doc_id=doc_id,
                        paragraph_index=index,
                        span_text=text,
                        pol_type=pol_type,
                        origin="Human" if human else "ToolConfirmed",
                    )
                )
                self.position[(pol_type, ordinal)] = (doc_id, index)
                k += 1
        self.filler_position: dict[tuple[int, int], tuple[str, int]] = {}
        for i in range(N_DOCS):
            doc_id = _doc_id(i)
            for slot in range(2):
                index = len(self.paragraphs[doc_id])
                self.paragraphs[doc_id].append(_filler_text(i, slot))
                self.filler_position[(i, slot)] = (doc_id, index)

    def gold_set(self) -> tuple[GoldAnnotation, ...]:
        return tuple(self.gold)

    def write_corpus(self, directory: Path) -> Path:
        directory.mkdir(parents=True, exist_ok=True)
        for doc_id, paragraphs in self.paragraphs.items():
            (directory / doc_id).write_text("\n\n".join(paragraphs) + "\n", encoding="utf-8")
        return directory

    def _match_candidate(self, pol_type: PoLType, ordinal: int, source: Source) -> PoLCandidate:
        doc_id, index = self.position[(pol_type, ordinal)]
        text = self.paragraphs[doc_id][index]
        return PoLCandidate(
            doc_id=doc_id, paragraph_index=index, text=text, quote="",
            trigger=None, pol_type=pol_type, citations=(), source=source,
        )

    def _not_pol_candidate(self, n: int, source: Source) -> PoLCandidate:
        doc = n % N_DOCS
        slot = n // N_DOCS
        doc_id, index = self.filler_position[(doc, slot)]
        return PoLCandidate(
            doc_id=doc_id, paragraph_index=index, text=self.paragraphs[doc_id][index],
            quote="", trigger=None, pol_type=PoLType.IMPLICIT, citations=(), source=source,
        )

    def _hallucination_candidate(self, n: int, source: Source) -> PoLCandidate:
        return PoLCandidate(
            doc_id=_doc_id(n % N_DOCS), paragraph_index=-1, text=_fabricated_text(n),
            quote="", trigger=None, pol_type=PoLType.IMPLICIT, citations=(), source=source,
        )

    def _method(
        self,
        matches: dict[PoLType, list[int]],
        not_pol: int,
        hallucinated: int,
        source: Source,
    ) -> list[PoLCandidate]:
        candidates = [
            self._match_candidate(pol_type, ordinal, source)
            for pol_type, ordinals in matches.items()
            for ordinal in ordinals
        ]
        candidates.extend(self._not_pol_candidate(n, source) for n in range(not_pol))
        candidates.extend(self._hallucination_candidate(n, source) for n in range(hallucinated))
        return candidates

    def chat_candidates(self) -> list[PoLCandidate]:
        return self._method(CHAT_MATCHES, CHAT_NOT_POL, CHAT_HALLUCINATION, Source.LLM)

    def regex_candidates(self) -> list[PoLCandidate]:
        return self._method(REGEX_MATCHES, REGEX_NOT_POL, 0, Source.RULES)

    def annotator_candidates(self) -> list[PoLCandidate]:
        return self._method(ANNOTATOR_MATCHES, 0, 0, Source.HUMAN)
