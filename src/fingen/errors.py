"""Shared exception types, the readers of numbers, point sets and labelings,
and ``_Record``, the base of the library's frozen records: the one
constructor that binds a record's fields and runs its ``__post_init__``.

Every failure mode that a caller can act on gets its own class; messages
name the violated constraint so CLI reports can surface it verbatim.
"""

from __future__ import annotations

from collections.abc import Iterable
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
    "points",
    "labeling",
    "ordered_labeling",
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


class _Record:
    """A frozen record with the fields its class names in ``_fields``: the
    constructor binds one argument to each, by position or by name, and runs
    ``__post_init__``, which checks them and writes what it derives with
    ``_set``.  No field is assigned or deleted after that, and the record is
    compared, hashed and shown by its fields."""

    _fields: tuple = ()

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):  # bound by name too: each field once, none unknown
            named = [*fields[:len(args)], *kwargs]
            if len(args) > len(fields) or sorted(named) != sorted(fields):
                raise TypeError(f"{type(self).__name__}() takes one argument per field of {fields}, "
                                f"got {len(args)} by position and {sorted(kwargs)} by name")
            args += tuple(kwargs[f] for f in fields[len(args):])
        store = super().__setattr__  # not __dict__: reading it slows every later field read
        for name, value in zip(fields, args):
            store(name, value)
        self.__post_init__()

    def __post_init__(self):
        """Check the fields; a record with nothing to check keeps them as given."""

    def _set(self, **state):
        """Write a field kept in another form than given, or derived state; return the record."""
        store = super().__setattr__
        for name, value in state.items():
            store(name, value)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


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


def points(name: str, points, n: int) -> set:
    """The set of ``points``, each an int (not a bool) in range(n)."""
    items = tuple(points) if isinstance(points, Iterable) else (None,)
    if not {int}.issuperset(map(type, items)):  # no collection; a bool, float or unhashable point
        raise InvalidParamsError(f"{name} holds int points")
    out = set(items)
    if out and (min(out) < 0 or max(out) >= n):
        raise InvalidParamsError(f"{name} lives on the points")
    return out


def _labels(labels, n) -> tuple:
    """``labels`` as a tuple of one label per point, n points when n is given."""
    out = tuple(labels) if isinstance(labels, Iterable) else None
    if out is None or (n is not None and len(out) != n):
        raise InvalidParamsError("one label per point")
    return out


def labeling(labels, n: int | None = None) -> tuple:
    """``labels`` as a tuple of hashable labels, one per point of range(n); a
    labeling whose length is its point count when n is None."""
    out = _labels(labels, n)
    try:
        set(out)
    except TypeError:
        raise InvalidPartitionError("labels are hashable") from None
    return out


def ordered_labeling(labels, n: int | None) -> tuple:
    """``labels`` as a tuple, one label per point of range(n) (of any length
    when n is None), and its distinct labels sorted."""
    out = _labels(labels, n)
    try:
        return out, sorted(set(out))
    except TypeError:  # an unhashable label, or labels of kinds that do not compare
        raise InvalidPartitionError("labels are hashable and mutually ordered") from None
