"""Shared exception types, and the readers of numeric parameters.

Every failure mode that a caller can act on gets its own class; messages
name the violated constraint so CLI reports can surface it verbatim.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = [
    "FingenError",
    "InvalidVectorError",
    "InvalidPartitionError",
    "InvalidParamsError",
    "CapacityError",
    "DivisibilityError",
    "DecodeError",
    "AtypicalNameError",
    "rational",
    "integer",
]


class FingenError(Exception):
    """Base class for all library-level failures."""


class InvalidVectorError(FingenError, ValueError):
    """A probability vector is malformed (negative entry, bad sum, inexact weight)."""


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


class DecodeError(FingenError):
    """Codeword recovery failed (no candidate in radius, or ambiguous)."""


class AtypicalNameError(FingenError):
    """A tower name fell outside the typical set the codebook was built for."""


def rational(name: str, v) -> Fraction:
    """``v`` as a Fraction: anything ``Fraction()`` reads except a bool, nan
    or an infinity.  A Fraction is returned as it is."""
    if isinstance(v, Fraction):
        return v
    if not isinstance(v, bool):
        try:
            return Fraction(v)
        except (TypeError, ValueError, ArithmeticError):  # no number, nan, infinite or n/0
            pass
    raise InvalidParamsError(f"{name} is a rational number", f"{name}={v!r}")


def integer(name: str, v) -> int:
    """``v`` when it is an int and not a bool."""
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    raise InvalidParamsError(f"{name} is an integer", f"{name}={v!r}")
