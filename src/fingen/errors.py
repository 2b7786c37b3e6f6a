"""Shared exception types.

Every failure mode that a caller can act on gets its own class; messages
name the violated constraint so CLI reports can surface it verbatim.
"""

from __future__ import annotations

__all__ = [
    "FingenError",
    "InvalidVectorError",
    "InvalidPartitionError",
    "InvalidParamsError",
    "CapacityError",
    "DivisibilityError",
    "ExpressibilityUndecided",
    "DecodeError",
    "AtypicalNameError",
]


class FingenError(Exception):
    """Base class for all library-level failures."""


class InvalidVectorError(FingenError, ValueError):
    """A probability vector is malformed (negative entry, bad sum, wrong mode)."""


class InvalidPartitionError(FingenError, ValueError):
    """A labeling or block structure does not describe a partition."""


class _NamedError(FingenError):
    """A failure that names its violated constraint in ``constraint``; the
    message is the name, then ``: detail`` when a detail is given."""

    def __init__(self, constraint: str, detail: str = ""):
        self.constraint = constraint
        super().__init__(constraint if not detail else f"{constraint}: {detail}")


class InvalidParamsError(_NamedError, ValueError):
    """Numeric parameters violate a stated precondition."""


class CapacityError(_NamedError):
    """A codebook feasibility inequality failed; ``inequality`` names it."""

    @property
    def inequality(self) -> str:
        return self.constraint


class DivisibilityError(_NamedError, ValueError):
    """An exact-mass construction needs a divisibility that the system lacks."""


class ExpressibilityUndecided(FingenError):
    """Word search hit its cap without a witness; result is unknown, not false."""


class DecodeError(FingenError):
    """Codeword recovery failed (no candidate in radius, or ambiguous)."""


class AtypicalNameError(FingenError):
    """A tower name fell outside the typical set the codebook was built for."""
