"""Prompted LLM extraction behind a transport abstraction.

The canonical prompt asks for paragraphs naming a court-like authority
followed by a quoted passage, paragraphs whose quoted passage is followed by
a parenthesized number, and sentences ending in a parenthesized number, with
verbatim-copy directives appended. Italian is the default wording; an
English variant is available.

Transports: a generic JSON-over-HTTP chat-completions client and an offline
scripted transport for tests and dry runs. Every extraction request carries
exactly one document; sessions cap the number of queries before a mandatory
reset, since long chat sessions were observed to leak content across
documents.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path
from typing import Protocol

from .corpus import Document, find_lone_surrogate
from .errors import BudgetExceeded, EmptyResponse, TransportError
from .extractor import PoLCandidate, Source, classify
from .patterns import find_citations, find_quotes
from .patterns.rules import V2_REFINED
from .textnorm import SourceParagraphs, raw_token_counts

_BODY_IT = (
    "Estrai i paragrafi in cui c’è la parola CORTE, TRIBUNALE, "
    "GIURISPRUDENZA, COLLEGIO, CONSESSO, CASSAZIONE e simili seguita da un "
    "passaggio tra virgolette.\n"
    "Anche i paragrafi in cui c’è un passaggio tra virgolette "
    "seguito da un numero tra parentesi.\n"
    "Anche i paragrafi fino al punto a capo in cui figurano le espressioni "
    "‘la giurisprudenza ha sostenuto che…’, ‘come la "
    "corte ha statuito…’, ‘affermata giurisprudenza…’, "
    "‘il principio stabilito dalla corte…’, seguite o "
    "precedute da un numero.\n"
    "Anche tutte le frasi che prima del punto terminano con un numero tra "
    "parentesi."
)

_DIRECTIVES_IT = (
    "COPIA PEDISSEQUAMENTE I PASSAGGI DAL SINGOLO FILE CARICATO. "
    "ESPORTA PEDISSEQUAMENTE COSI’ COME SONO DAL SINGOLO FILE CARICATO. "
    "NON INVENTARE. NON RIASSUMERE. NON ASSEMBLARE. "
    "Segui dettagliatamente le istruzioni."
)

_EXAMPLES_IT = (
    "La stessa Corte di Cassazione, pronunciandosi a Sezioni Unite, ha di "
    "recente affermato che si tratta di casi “che interrogano "
    "profondamente la coscienza individuale e collettiva, ponendo questioni "
    "delicate e complesse, suscettibili di soluzioni differenziate”.",
    "Si tratta di casi “che interrogano profondamente la coscienza "
    "individuale e collettiva, ponendo questioni delicate e complesse, "
    "suscettibili di soluzioni differenziate” (cfr. Cass. S.U. Civili "
    "n. 12193/19).",
    "Il riconoscimento del primario diritto alla identità sessuale, "
    "sotteso alla disposta rettificazione dell'attribuzione di sesso, rende "
    "consequenziale la rettificazione del prenome (Cass. Civ. 3877/2020).",
    "Le spese della ctu, nella misura liquidata con separato decreto e "
    "operata la dimidiazione prevista dall'art. 130 tusg, vanno poste a "
    "carico dell'Erario (Corte Cost. 217/2019).",
)

_BODY_EN = (
    "Extract the paragraphs in which there is the word COURT, TRIBUNAL, "
    "JURISPRUDENCE, COLLEGE, CONSESSION, CASSATION and similar followed by a "
    "passage in quotation marks.\n"
    "Also paragraphs where there is a passage in quotation marks followed by "
    "a number in parenthesis.\n"
    "Also paragraphs until a new one where the expressions 'jurisprudence "
    "has held that...', 'as the court has ruled...', 'established "
    "jurisprudence...', 'the principle established by the court...', appear "
    "followed or preceded by a number.\n"
    "Also all phrases that end with a number in brackets before the full "
    "stop."
)

_DIRECTIVES_EN = (
    "EXACTLY COPY THE PASSAGES FROM THE SINGLE UPLOADED FILE. "
    "EXACTLY EXPORT THEM AS THEY ARE FROM THE SINGLE UPLOADED FILE. "
    "DO NOT INVENT. DO NOT SUMMARIZE. DO NOT ASSEMBLE. "
    "Follow the instructions in detail."
)

_EXAMPLES_EN = (
    "The Court of Cassation itself, ruling in United Sections, recently "
    "stated that these are cases “which profoundly question individual "
    "and collective conscience, posing delicate and complex questions, "
    "susceptible to differentiated solutions”.",
    "These are cases “that deeply question individual and collective "
    "conscience, posing delicate and complex questions, susceptible to "
    "differentiated solutions” (see Cass. Civil U.S. n. 12193/19).",
    "The expenses of the ctu, in the amount paid by separate decree and the "
    "halving provided for by the art. 130 tusg, must be paid by the "
    "Treasury (Cost. Court 217/2019).",
)


# language -> (body, few-shot examples, directives, example label)
_PROMPTS = {
    "it": (_BODY_IT, _EXAMPLES_IT, _DIRECTIVES_IT, "Esempio:"),
    "en": (_BODY_EN, _EXAMPLES_EN, _DIRECTIVES_EN, "Example:"),
}

# least share of a passage's tokens its paragraph must hold to resolve it
RESOLUTION_THRESHOLD = 0.6


def build_prompt(language: str = "it") -> str:
    """The canonical prompt: body, few-shot examples, directives."""
    try:
        body, examples, directives, label = _PROMPTS[language]
    except KeyError:
        raise ValueError(f"unsupported prompt language {language!r}") from None
    return "\n\n".join([body, *(f"{label} {example}" for example in examples), directives])


class LlmSession:
    """Where queries go, how they are sampled and logged, and how many of
    its ``max_queries_per_session`` the session has sent; a transport sends
    as it says. Setting ``queries_sent`` back to 0 resets it."""

    __slots__ = ("endpoint", "model_name", "temperature", "max_queries_per_session", "queries_sent", "audit_path")

    def __init__(
        self,
        endpoint: str = "",
        model_name: str = "offline-mock",
        temperature: float | None = None,
        max_queries_per_session: int = 5,
        audit_path: str | None = None,
    ):
        self.endpoint = endpoint
        self.model_name = model_name
        self.temperature = temperature
        self.max_queries_per_session = max_queries_per_session
        self.queries_sent = 0
        self.audit_path = audit_path

    def __repr__(self) -> str:
        return "LlmSession(" + ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__) + ")"


class Transport(Protocol):
    def send(self, prompt: str, document: Document, session: LlmSession) -> str:
        """Submit one prompt plus one document as ``session`` says; return the raw response text."""
        ...


class HttpChatTransport:
    """Minimal JSON-over-HTTP chat-completions client; its repr leaves out the API key."""

    def __init__(self, api_key: str | None = None, timeout: float = 120.0):
        self.api_key = api_key
        self.timeout = timeout

    def __repr__(self) -> str:
        return f"HttpChatTransport(timeout={self.timeout!r})"

    def send(self, prompt: str, document: Document, session: LlmSession) -> str:
        # imported on first use: urllib.request loads ssl and email, tens of ms
        import http.client
        import urllib.error
        import urllib.request

        endpoint = session.endpoint
        payload: dict = {
            "model": session.model_name,
            "messages": [{"role": "user", "content": f"{prompt}\n\n{document.text}"}],
        }
        if session.temperature is not None:
            payload["temperature"] = session.temperature
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        try:
            # NaN and infinity are not JSON: refuse them rather than send them
            body = json.dumps(payload, allow_nan=False).encode("utf-8")
            request = urllib.request.Request(endpoint, body, headers, method="POST")
            with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                status, answer = resp.status, resp.read()
        except urllib.error.HTTPError as exc:
            exc.close()
            raise TransportError(f"{endpoint} returned HTTP {exc.code}") from None
        # a read timeout is a bare TimeoutError, an OSError outside URLError
        except (OSError, ValueError, http.client.HTTPException) as exc:
            raise TransportError(f"request to {endpoint} failed: {exc}") from exc
        if status != 200:
            raise TransportError(f"{endpoint} returned HTTP {status}")
        try:
            content = json.loads(answer)["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise TransportError(f"unexpected response shape from {endpoint}") from exc
        # null content is an empty answer, which run_extraction reports as such
        if content is not None and not isinstance(content, str):
            raise TransportError(f"unexpected response shape from {endpoint}")
        return content


class ScriptedTransport:
    """Offline transport replaying canned responses keyed by doc_id."""

    def __init__(self, responses: dict[str, str]):
        self.responses = responses
        self.requests_seen: list[tuple[str, str, str]] = []

    def send(self, prompt: str, document: Document, session: LlmSession) -> str:
        self.requests_seen.append((prompt, document.doc_id, document.text))
        try:
            return self.responses[document.doc_id]
        except KeyError:
            raise TransportError(f"no scripted response for {document.doc_id!r}") from None


_LIST_MARKER = re.compile(r"^\s*(?:\d+[.)]\s+|[-•*]\s+)")


def split_passages(response: str) -> list[str]:
    """Split a response into candidate passages.

    Blank lines separate blocks; within a block, each list-marker line
    starts a new passage. A block without markers is one passage.
    """
    passages: list[str] = []
    for block in re.split(r"\n\s*\n", response.strip()):
        lines = [line for line in block.splitlines() if line.strip()]
        if not lines:
            continue
        current: list[str] = []
        for line in lines:
            if _LIST_MARKER.match(line) and current:
                passages.append(" ".join(current))
                current = []
            current.append(_LIST_MARKER.sub("", line, count=1).strip())
        if current:
            passages.append(" ".join(current))
    return [p for p in passages if p]


def resolve_paragraph(passage: str, source: SourceParagraphs, threshold: float = RESOLUTION_THRESHOLD) -> int:
    """Index of the paragraph best containing the passage, or -1.

    Containment is the fraction of passage tokens (as written) present in
    the paragraph's ``raw_token_counts``; the first paragraph with the top
    score wins. Below the threshold the passage is unresolved and flagged
    for hallucination triage downstream. ``source`` holds the document's
    paragraphs and what earlier passages found in them. A passage without
    a token is unresolved; any other is answered by two exact steps:

    1. Search (``SourceParagraphs.first_containing``): the first paragraph
       holding every passage token at least as often as the passage does.
       It scores 1.0, the top score, and wins the tie with every later
       paragraph. ``str.casefold`` maps each code point on its own, so each
       token of a paragraph occurs in the paragraph's folded text: the
       candidates, the paragraphs that every token hits, whole where the
       judgment's fold keeps token classes (``SourceParagraphs``), include
       every paragraph that contains the passage fully. The search
       compares one candidate with its counter.
    2. Paragraph query (``SourceParagraphs.reaching``): any passage the
       search does not settle. The paragraphs whose overlap coefficient
       with the passage reaches the threshold are ranked by their shared
       counts; the screen lists none for a passage none of whose tokens is
       a token of the judgment, which scores 0 everywhere and is
       unresolved. A paragraph's containment of the passage never exceeds
       their overlap coefficient, so every paragraph at or above the
       threshold is listed, and with it every tie for the top score: the
       answer is the one a score of every paragraph gives.

    Work is linear in the passages: one counter comparison per passage,
    plus the index behind ``reaching``, which is built at most once per
    judgment, from the counters already made, and then answers every later
    passage. No paragraph is tokenized twice.
    """
    passage_counts = raw_token_counts(passage)
    if not passage_counts:
        return -1
    position = source.first_containing(passage_counts)
    if position >= 0:
        return position if threshold <= 1.0 else -1
    total = sum(passage_counts.values())
    best_index, best_score = -1, 0.0
    for position, shared in source.reaching(passage_counts, threshold).items():
        score = shared / total
        if score > best_score or (score == best_score and position < best_index):
            best_index, best_score = position, score
    return best_index if best_score >= threshold else -1


def run_extraction(
    document: Document,
    session: LlmSession,
    transport: Transport,
    language: str = "it",
) -> list[PoLCandidate]:
    """Submit one document and parse the response into LLM-source candidates.

    One document per request; the payload never contains text from a
    previously processed document. Raises BudgetExceeded once the session's
    query budget is spent, and ValueError for a NaN or infinite temperature,
    which the audit log could not write as JSON, before anything is sent.
    A response holding a lone surrogate, which no file can hold as UTF-8,
    is a TransportError before it is counted or audited.
    """
    if session.temperature is not None and not math.isfinite(session.temperature):
        raise ValueError(f"temperature must be a finite number, got {session.temperature!r}")
    if session.queries_sent >= session.max_queries_per_session:
        raise BudgetExceeded(
            f"session sent {session.queries_sent} of "
            f"{session.max_queries_per_session} queries; reset it first"
        )
    prompt = build_prompt(language)
    response = transport.send(prompt, document, session)
    surrogate = find_lone_surrogate(response or "")  # a reply cut inside an emoji
    if surrogate:
        raise TransportError(f"response for {document.doc_id} holds a lone surrogate at offset {surrogate.start()}")
    session.queries_sent += 1
    _audit(session, document, prompt, response)
    if not response or not response.strip():
        raise EmptyResponse(f"empty response for {document.doc_id}")

    source = SourceParagraphs(document.paragraphs)
    candidates: list[PoLCandidate] = []
    for passage in split_passages(response):
        quotes = find_quotes(passage, V2_REFINED)
        citations = tuple(find_citations(passage))
        quote = quotes[0].text if quotes else ""
        candidates.append(
            PoLCandidate(
                doc_id=document.doc_id,
                paragraph_index=resolve_paragraph(passage, source),
                text=passage,
                quote=quote,
                trigger=None,
                pol_type=classify(quote, citations),
                citations=citations,
                source=Source.LLM,
            )
        )
    return candidates


def _audit(session: LlmSession, document: Document, prompt: str, response: str) -> None:
    if not session.audit_path:
        return
    record = {
        "endpoint": session.endpoint,
        "model_name": session.model_name,
        "temperature": session.temperature,
        "doc_id": document.doc_id,
        "query_number": session.queries_sent,
        "prompt": prompt,
        "response": response,
    }
    path = Path(session.audit_path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, ensure_ascii=False, allow_nan=False) + "\n")
