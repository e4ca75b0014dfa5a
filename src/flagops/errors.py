"""Exception types shared across the package."""

from __future__ import annotations


class FlagopsError(Exception):
    """Base class for package errors."""


class ModulusMismatchError(FlagopsError):
    """Operands living over different moduli n."""


class BoundExceededError(FlagopsError):
    """A requested computation exceeds a configured bound."""


class InternalInconsistencyError(FlagopsError):
    """A structural guarantee failed; indicates a bug, not bad input.

    ``witness`` is an optional JSON-ready dict naming the case that broke.
    """

    def __init__(self, message: str, witness: dict | None = None):
        super().__init__(message)
        self.witness = witness
