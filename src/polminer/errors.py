"""Exception and warning types shared across the toolkit."""

from __future__ import annotations


class PolminerError(Exception):
    """Base class for all toolkit errors."""


class UnreadableJudgment(PolminerError):
    """A judgment file cannot be read: ``path`` names it, ``reason`` says why."""

    def __init__(self, path: object, reason: str):
        self.path = str(path)
        self.reason = reason
        super().__init__(f"{path}: {reason}")


class MalformedArchive(UnreadableJudgment):
    """A .docx file is not a readable zip archive or lacks the main document part."""


class EncodingError(UnreadableJudgment):
    """A plaintext file is not valid UTF-8."""


class DirectoryNotFound(PolminerError):
    """A corpus directory does not exist."""


class UnparseableCitation(PolminerError):
    """A citation string does not fit the citation grammar.

    ``token`` names the first unconsumed token, ``position`` its character
    offset within ``raw``.
    """

    def __init__(self, raw: str, token: str, position: int, reason: str = ""):
        self.raw = raw
        self.token = token
        self.position = position
        self.reason = reason
        detail = reason or f"unexpected token {token!r} at offset {position}"
        super().__init__(f"cannot parse citation {raw!r}: {detail}")


class SchemaError(PolminerError):
    """A JSON document violates an expected schema.

    ``pointer`` is a JSON-pointer-style path to the offending field.
    """

    def __init__(self, pointer: str, message: str):
        self.pointer = pointer
        super().__init__(f"{pointer}: {message}")


class DocMismatch(PolminerError):
    """Candidates, gold annotations, and document do not refer to the same doc_id."""


class GoldMismatch(PolminerError):
    """Alignments passed to a comparison do not cover the same gold set."""


class TransportError(PolminerError):
    """The LLM endpoint could not be reached or returned an unusable response."""


class BudgetExceeded(PolminerError):
    """The session's query budget is spent; reset the session before continuing."""


class EmptyResponse(PolminerError):
    """The LLM returned an empty response body."""


class UnknownColorWarning(UserWarning):
    """A highlight color outside the annotation scheme was ignored."""


class DuplicateHighlightWarning(UserWarning):
    """A paragraph repeats a highlighted span; it was imported once."""
