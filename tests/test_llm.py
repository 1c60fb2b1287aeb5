from __future__ import annotations

import hashlib
import json
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

import reference_alignment as ref
from polminer import llm, textnorm
from polminer.corpus import Document
from polminer.errors import BudgetExceeded, EmptyResponse, TransportError
from polminer.evaluation import FpKind, align, confusion
from polminer.extractor import PoLType, Source
from polminer.goldstore import GoldAnnotation
from polminer.llm import (
    HttpChatTransport,
    LlmSession,
    ScriptedTransport,
    build_prompt,
    run_extraction,
    split_passages,
)
from polminer.textnorm import raw_token_counts

PARAGRAPHS = [
    "Premessa in fatto senza alcun rilievo di principio.",
    "Il giudice deve garantire la tutela effettiva dei diritti fondamentali della persona.",
    "La liquidazione segue la soccombenza secondo le regole ordinarie del processo civile.",
]


def _doc(doc_id: str = "j01.txt") -> Document:
    return Document(doc_id, tuple(PARAGRAPHS), 3)


def test_default_prompt_italian_directives_once():
    prompt = build_prompt(language="it")
    assert prompt.count("NON INVENTARE") == 1
    assert "NON RIASSUMERE" in prompt
    assert prompt.startswith("Estrai i paragrafi")


def test_english_prompt_variant():
    prompt = build_prompt(language="en")
    assert prompt.count("DO NOT INVENT") == 1
    assert "DO NOT SUMMARIZE" in prompt


@pytest.mark.parametrize(
    "language, digest",
    [
        ("it", "eb1b17e391f12002a8dd0fab340c857bca9b5d8f32660bb3758d15a5b4af59be"),
        ("en", "e46959cc78a67a2edfe60141efc2041a54bd5e5db773a9b4b708d9aa29a15243"),
    ],
)
def test_canonical_prompt_bytes_are_pinned(language, digest):
    # the prompt is the LLM protocol under evaluation: any edit to its
    # wording, examples, labels or separators changes the digest
    assert hashlib.sha256(build_prompt(language).encode("utf-8")).hexdigest() == digest


def test_build_prompt_is_deterministic():
    assert build_prompt(language="it") == build_prompt(language="it")


def test_split_passages_blank_lines_and_markers():
    response = "1. primo passaggio\n2. secondo passaggio\n\nterzo blocco intero\nsu due righe"
    assert split_passages(response) == [
        "primo passaggio",
        "secondo passaggio",
        "terzo blocco intero su due righe",
    ]
    assert split_passages("- solo uno") == ["solo uno"]


def test_echo_mock_resolves_paragraphs():
    doc = _doc()
    transport = ScriptedTransport(responses={doc.doc_id: f"1. {PARAGRAPHS[1]}\n2. {PARAGRAPHS[2]}"})
    session = LlmSession()
    candidates = run_extraction(doc, session, transport)
    assert [c.paragraph_index for c in candidates] == [1, 2]
    assert all(c.source == Source.LLM and c.trigger is None for c in candidates)
    assert session.queries_sent == 1


def test_fabricated_passage_gets_sentinel_index():
    doc = _doc()
    fabricated = "un drago viola attraversa la galassia remota"
    transport = ScriptedTransport(responses={doc.doc_id: fabricated})
    candidates = run_extraction(doc, LlmSession(), transport)
    assert len(candidates) == 1
    assert candidates[0].paragraph_index == -1


def test_echo_then_align_gives_clean_tp():
    doc = _doc()
    gold = [
        GoldAnnotation(doc_id=doc.doc_id, paragraph_index=1, span_text=PARAGRAPHS[1],
                       pol_type=PoLType.IMPLICIT),
        GoldAnnotation(doc_id=doc.doc_id, paragraph_index=2, span_text=PARAGRAPHS[2],
                       pol_type=PoLType.IMPLICIT),
    ]
    transport = ScriptedTransport(responses={doc.doc_id: f"{PARAGRAPHS[1]}\n\n{PARAGRAPHS[2]}"})
    candidates = run_extraction(doc, LlmSession(), transport)
    counts = confusion(align(candidates, gold, doc))
    assert (counts.tp, counts.fp, counts.fn) == (2, 0, 0)


def test_fabrication_then_align_is_single_hallucination():
    doc = _doc()
    gold = [GoldAnnotation(doc_id=doc.doc_id, paragraph_index=1, span_text=PARAGRAPHS[1],
                           pol_type=PoLType.IMPLICIT)]
    transport = ScriptedTransport(
        responses={doc.doc_id: f"{PARAGRAPHS[1]}\n\nstirpe di drago qzv su cristallo errante"}
    )
    candidates = run_extraction(doc, LlmSession(), transport)
    result = align(candidates, gold, doc)
    kinds = [kind for _, kind in result.false_positives]
    assert kinds == [FpKind.HALLUCINATION]
    assert len(result.matches) == 1


def test_budget_exhaustion_on_sixth_query():
    doc = _doc()
    transport = ScriptedTransport(responses={doc.doc_id: "una risposta qualsiasi"})
    session = LlmSession(max_queries_per_session=5)
    for _ in range(5):
        run_extraction(doc, session, transport)
    with pytest.raises(BudgetExceeded):
        run_extraction(doc, session, transport)


def test_a_spent_session_is_reset_in_place(tmp_path):
    doc = _doc()
    audit = tmp_path / "audit.jsonl"
    transport = ScriptedTransport(responses={doc.doc_id: "una risposta qualsiasi"})
    session = LlmSession(model_name="m", max_queries_per_session=2, audit_path=str(audit))
    for _ in range(2):
        run_extraction(doc, session, transport)
    with pytest.raises(BudgetExceeded):
        run_extraction(doc, session, transport)
    session.queries_sent = 0
    run_extraction(doc, session, transport)
    assert (session.queries_sent, session.max_queries_per_session, session.model_name) == (1, 2, "m")
    records = [json.loads(line) for line in audit.read_text(encoding="utf-8").splitlines()]
    assert [r["query_number"] for r in records] == [1, 2, 1]


def test_requests_are_stateless_across_documents():
    doc_a, doc_b = _doc("a.txt"), _doc("b.txt")
    text_b_only = "contenuto esclusivo del secondo documento"
    doc_b = Document("b.txt", (text_b_only,), None)
    transport = ScriptedTransport(responses={"a.txt": "risposta", "b.txt": "risposta"})
    session = LlmSession()
    run_extraction(doc_a, session, transport)
    run_extraction(doc_b, session, transport)
    (prompt_a, _, payload_a), (prompt_b, _, payload_b) = transport.requests_seen
    assert text_b_only not in payload_a
    assert PARAGRAPHS[1] not in payload_b
    assert prompt_a == prompt_b


def test_empty_response_raises():
    doc = _doc()
    transport = ScriptedTransport(responses={doc.doc_id: "   \n"})
    with pytest.raises(EmptyResponse):
        run_extraction(doc, LlmSession(), transport)


def test_missing_scripted_response_is_transport_error():
    with pytest.raises(TransportError):
        run_extraction(_doc("sconosciuto.txt"), LlmSession(), ScriptedTransport(responses={}))


def test_audit_log_records_model_and_temperature(tmp_path):
    doc = _doc()
    audit = tmp_path / "audit.jsonl"
    session = LlmSession(model_name="m-test", temperature=0.0, audit_path=str(audit))
    transport = ScriptedTransport(responses={doc.doc_id: "una riga"})
    run_extraction(doc, session, transport)
    record = json.loads(audit.read_text(encoding="utf-8").splitlines()[0])
    assert record["model_name"] == "m-test"
    assert record["temperature"] == 0.0
    assert record["doc_id"] == doc.doc_id
    assert record["response"] == "una riga"


@pytest.mark.parametrize("temperature", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_temperature_is_rejected_before_sending(tmp_path, temperature):
    doc = _doc()
    audit = tmp_path / "audit.jsonl"
    session = LlmSession(temperature=temperature, audit_path=str(audit))
    transport = ScriptedTransport(responses={doc.doc_id: "una riga"})
    with pytest.raises(ValueError, match="finite"):
        run_extraction(doc, session, transport)
    assert transport.requests_seen == []
    assert not audit.exists()
    assert session.queries_sent == 0


def test_a_response_with_a_lone_surrogate_is_a_transport_error_that_is_not_counted(tmp_path):
    doc = _doc()
    audit = tmp_path / "audit.jsonl"
    session = LlmSession(audit_path=str(audit))
    transport = ScriptedTransport(responses={doc.doc_id: "La Corte afferma \ud83d il principio"})
    with pytest.raises(TransportError, match="j01.txt.* lone surrogate at offset 17"):
        run_extraction(doc, session, transport)
    assert session.queries_sent == 0
    assert not audit.exists()
    # a well-formed pair is one character, and passes
    transport.responses[doc.doc_id] = "La Corte afferma \U0001f600 il principio"
    run_extraction(doc, session, transport)
    assert session.queries_sent == 1


def test_llm_candidates_are_typed_from_passage_evidence():
    doc = _doc()
    passage = 'Il Collegio ha affermato “regola chiara” (Cass. n. 26972/2008)'
    transport = ScriptedTransport(responses={doc.doc_id: passage})
    candidates = run_extraction(doc, LlmSession(), transport)
    assert candidates[0].pol_type == PoLType.EXPLICIT_DIRECT
    assert candidates[0].quote == "“regola chiara”"


@pytest.fixture
def tokenized(monkeypatch) -> list[str]:
    """Every text handed to ``raw_token_counts``, in order."""
    calls = []

    def counting_raw_token_counts(text):
        calls.append(text)
        return raw_token_counts(text)

    # passages are tokenized through llm, paragraphs through textnorm
    monkeypatch.setattr(llm, "raw_token_counts", counting_raw_token_counts)
    monkeypatch.setattr(textnorm, "raw_token_counts", counting_raw_token_counts)
    return calls


def test_paragraph_counters_built_once_per_document(tokenized):
    paragraphs = (PARAGRAPHS[0], PARAGRAPHS[1], PARAGRAPHS[1])
    doc = Document("j01.txt", paragraphs, 1)
    transport = ScriptedTransport(responses={doc.doc_id: f"{PARAGRAPHS[1]}\n\n{PARAGRAPHS[0]}"})
    candidates = run_extraction(doc, LlmSession(), transport)
    # two equally good paragraphs: the first one wins
    assert [c.paragraph_index for c in candidates] == [1, 0]
    # each passage, then the one paragraph its search reached; paragraph 2,
    # a copy of paragraph 1, is never reached and never tokenized
    assert tokenized == [PARAGRAPHS[1], PARAGRAPHS[1], PARAGRAPHS[0], PARAGRAPHS[0]]


def test_a_passage_the_search_does_not_settle_goes_to_the_index():
    texts = ["viola la legge", "legge viola legge"]
    source = llm.SourceParagraphs(texts)
    # both paragraphs hold "legge" and "viola" as tokens; the search
    # compares only the first, which holds "legge" once, not twice
    assert source.first_containing(raw_token_counts("legge legge viola")) == -1
    assert source._index is None
    assert llm.resolve_paragraph("legge legge viola", source) == 1
    assert source._index is not None
    assert ref.resolve_paragraph("legge legge viola", list(enumerate(map(raw_token_counts, texts)))) == 1


def test_once_the_index_is_built_a_passage_tokenizes_no_paragraph(tokenized):
    texts = ["viola la legge", "legge viola legge", "alfa beta"]
    source = llm.SourceParagraphs(texts)
    assert llm.resolve_paragraph("legge legge viola", source) == 1
    assert source._index is not None
    # the index answers every later passage, and the search returns at once
    assert source.first_containing(raw_token_counts("alfa beta")) == -1
    assert [llm.resolve_paragraph(p, source) for p in ("alfa beta", "la legge", "zeta")] == [2, 0, -1]
    assert sorted(tokenized) == sorted(texts + ["legge legge viola", "alfa beta", "la legge", "zeta"])


def test_a_passage_sharing_no_token_leaves_the_index_unbuilt_however_many_searches_came_before():
    texts = ["alfa beta", "gamma delta", "alfa beta epsilon"]
    source = llm.SourceParagraphs(texts)
    assert [llm.resolve_paragraph(p, source) for p in ("beta alfa", "gamma delta", "epsilon")] == [0, 1, 2]
    # "alf" occurs only inside "alfa", so it hits no paragraph: the search
    # has no candidate, and the screen settles the passage with no index
    assert llm.resolve_paragraph("alf", source) == -1
    assert source._index is None


@pytest.fixture
def chat_server(monkeypatch):
    """A chat-completions stub on 127.0.0.1: records each request's
    Authorization header and JSON body, and answers with ``reply``, after
    sleeping ``reply["stall"]`` seconds before the ``reply["stall_at"]``
    part ("headers" or "body") of the answer.

    ``requests`` cannot be imported while it runs: the transport needs only
    the standard library."""
    monkeypatch.setitem(sys.modules, "requests", None)
    for var in ("HTTP_PROXY", "HTTPS_PROXY", "ALL_PROXY", "http_proxy", "https_proxy", "all_proxy"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    seen = []
    reply = {
        "status": 200,
        "body": {"choices": [{"message": {"content": "passaggio copiato"}}]},
        "stall": 0.0,
        "stall_at": "headers",
    }

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            body = self.rfile.read(int(self.headers["Content-Length"]))
            seen.append((self.headers.get("Authorization"), json.loads(body)))
            answer = json.dumps(reply["body"]).encode("utf-8")
            try:
                if reply["stall_at"] == "headers":
                    time.sleep(reply["stall"])
                self.send_response(reply["status"])
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(answer)))
                self.end_headers()
                if reply["stall_at"] == "body":
                    time.sleep(reply["stall"])
                self.wfile.write(answer)
            except ConnectionError:
                if not reply["stall"]:
                    raise  # only a client that timed out may hang up

        def log_message(self, *args):
            pass

    server = HTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}/v1/chat/completions", seen, reply
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


def _session(url: str) -> LlmSession:
    return LlmSession(endpoint=url, model_name="m")


def test_http_transport_sends_model_prompt_and_document(chat_server):
    url, seen, _ = chat_server
    transport = HttpChatTransport(timeout=10)
    assert transport.send("ISTRUZIONI", _doc(), LlmSession(endpoint=url, model_name="gpt-4o")) == "passaggio copiato"
    ((authorization, payload),) = seen
    assert payload["model"] == "gpt-4o"
    assert payload["messages"] == [{"role": "user", "content": "ISTRUZIONI\n\n" + _doc().text}]
    assert "temperature" not in payload
    assert authorization is None


def test_http_transport_sends_temperature_and_key_when_set(chat_server):
    url, seen, _ = chat_server
    transport = HttpChatTransport(api_key="segreto", timeout=10)
    transport.send("p", _doc(), LlmSession(endpoint=url, model_name="m", temperature=0.0))
    ((authorization, payload),) = seen
    assert payload["temperature"] == 0.0
    assert authorization == "Bearer segreto"
    assert "segreto" not in repr(transport)


def test_http_transport_non_200_is_transport_error(chat_server):
    url, _, reply = chat_server
    reply["status"] = 429
    with pytest.raises(TransportError, match="HTTP 429") as raised:
        HttpChatTransport(timeout=10).send("p", _doc(), _session(url))
    # the session's endpoint, which the transport no longer holds
    assert url in str(raised.value)


def test_http_transport_body_without_choices_is_transport_error(chat_server):
    url, _, reply = chat_server
    reply["body"] = {"error": "nessuna scelta"}
    with pytest.raises(TransportError, match="unexpected response shape"):
        HttpChatTransport(timeout=10).send("p", _doc(), _session(url))


@pytest.mark.parametrize("content", [[{"type": "text", "text": "x"}], 7])
def test_http_transport_content_that_is_not_a_string_is_transport_error(chat_server, content):
    url, _, reply = chat_server
    reply["body"] = {"choices": [{"message": {"content": content}}]}
    with pytest.raises(TransportError, match="unexpected response shape"):
        HttpChatTransport(timeout=10).send("p", _doc(), _session(url))


@pytest.mark.parametrize("status", [500, 201])
def test_http_transport_other_status_is_transport_error(chat_server, status):
    url, _, reply = chat_server
    reply["status"] = status
    with pytest.raises(TransportError, match=f"HTTP {status}"):
        HttpChatTransport(timeout=10).send("p", _doc(), _session(url))


def test_http_transport_refused_connection_is_transport_error(chat_server):
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    # nothing listens on ``port`` once its socket is closed
    url = f"http://127.0.0.1:{port}/v1/chat/completions"
    with pytest.raises(TransportError, match="failed"):
        HttpChatTransport(timeout=10).send("p", _doc(), _session(url))


@pytest.mark.parametrize("stall_at", ["headers", "body"])
def test_http_transport_read_timeout_is_transport_error(chat_server, stall_at):
    url, _, reply = chat_server
    reply["stall"], reply["stall_at"] = 0.6, stall_at
    with pytest.raises(TransportError, match="failed"):
        HttpChatTransport(timeout=0.2).send("p", _doc(), _session(url))


def test_http_transport_nan_temperature_is_never_sent(chat_server):
    url, seen, _ = chat_server
    with pytest.raises(TransportError):
        HttpChatTransport(timeout=10).send("p", _doc(), LlmSession(endpoint=url, model_name="m", temperature=float("nan")))
    assert seen == []


def test_http_reply_cut_inside_an_emoji_is_a_transport_error(chat_server, tmp_path):
    url, seen, reply = chat_server
    # json.dumps writes the lone high surrogate as the escape \ud83d
    reply["body"] = {"choices": [{"message": {"content": "passaggio troncato \ud83d"}}]}
    audit = tmp_path / "audit.jsonl"
    session = LlmSession(endpoint=url, model_name="m", audit_path=str(audit))
    with pytest.raises(TransportError, match="lone surrogate at offset 19"):
        run_extraction(_doc(), session, HttpChatTransport(timeout=10))
    assert len(seen) == 1
    assert session.queries_sent == 0 and not audit.exists()
