"""Error taxonomy shared across the package.

Input errors cover malformed data, domain errors cover structurally invalid
requests, resource errors cover enumeration caps (operations fail loudly
instead of truncating), and CrossCheckError flags disagreement between two
computation routes that must agree.
"""

from __future__ import annotations


class SigmaGraphError(Exception):
    """Base class for every error raised by this package."""


class GroupInputError(SigmaGraphError, ValueError):
    """Malformed input: non-bijective images, bad cycle data, bad JSON."""


class DomainError(SigmaGraphError, ValueError):
    """Structurally invalid request: containment or normality violated,
    trivial group where a nontrivial one is required, partition mismatch."""


class ResourceLimitError(SigmaGraphError, RuntimeError):
    """An enumeration cap was exceeded.  Carries the cap name and value."""

    def __init__(self, message: str, *, cap_name: str, cap_value: int):
        super().__init__(f"{message} [cap {cap_name}={cap_value}]")
        self.message = message
        self.cap_name = cap_name
        self.cap_value = cap_value

    def fresh(self) -> "ResourceLimitError":
        """The same error without a traceback, to cache or to raise again."""
        return ResourceLimitError(self.message, cap_name=self.cap_name,
                                  cap_value=self.cap_value)


class CrossCheckError(SigmaGraphError, RuntimeError):
    """Two routes that are proved to agree disagreed: a bug alarm."""
