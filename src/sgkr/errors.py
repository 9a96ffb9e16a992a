"""Exception types shared across the package."""

from __future__ import annotations


class SgkrError(Exception):
    """Base class for every error raised by this package."""


class MissingFile(SgkrError):
    """A file referenced by a manifest or flag does not exist."""


class NotUtf8(SgkrError):
    """A file that must hold UTF-8 text holds other bytes."""


class MalformedManifest(SgkrError):
    """A manifest violates the manifest schema.

    `field_path` points at the offending field, e.g. ``entries[2].inputs[0]``.
    """

    def __init__(self, message: str, field_path: str = ""):
        self.field_path = field_path
        if field_path:
            message = f"{field_path}: {message}"
        super().__init__(message)


class DuplicateEntryId(SgkrError):
    """Two corpus entries share the same id."""


class ParseError(SgkrError):
    """Source text violates the restricted grammar."""

    def __init__(self, message: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"{message} (line {line}, column {col})")


class KnowledgeBindingError(SgkrError):
    """A knowledge annotation names a function the parser did not find."""


class AnchorNotFound(SgkrError):
    """An I/O declaration anchors at a function absent from the graph."""


class FormatVersionMismatch(SgkrError):
    """A graph document was written with an unsupported format version."""


class SchemaViolation(SgkrError):
    """A structured document does not match its expected schema."""


class AliasCollision(SgkrError):
    """An alias maps to two different labels of the same kind."""


class UnknownNode(SgkrError):
    """A node id was requested that the graph does not contain."""


class VectorDimensionMismatch(SgkrError):
    """A vector record's length disagrees with the file's declared dimension."""


class MissingVector(SgkrError):
    """No vector record exists for a requested name."""


class MissingResult(SgkrError):
    """Evaluation was asked to score a question that has no retrieval result."""
