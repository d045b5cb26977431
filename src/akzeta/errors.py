"""Exception types, the one check for each kind of number an argument can
be (an integer, a finite real or an exact rational, that is an int or a
Fraction; bools, strings and complex numbers are none of these), and the
base of the package's record classes."""

import math
import numbers
from fractions import Fraction


class DomainError(ValueError):
    """A parameter lies outside the mathematical domain of an operation."""


class DivergenceError(DomainError):
    """The requested series does not converge for the given parameters."""


class Record:
    """An immutable record.  A subclass lists its fields in its own
    ``__slots__`` and sets them once, in order, through ``_set``.  Equality
    (same class only), hashing and repr go field by field; assigning or
    deleting a field raises ``AttributeError``."""

    __slots__ = ()

    def _set(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):  # copy and pickle through the constructor, which validates
        return type(self), self._fields()


def _refused(kind: str, name: str, relation: str, bound, v) -> DomainError:
    limit = "" if bound is None else f" {relation} {bound}"
    return DomainError(f"require {kind} {name}{limit}, got {v!r}")


def integer(v, least, name: str) -> int:
    """``v`` as an int: an integral-valued real, at least ``least`` unless
    that is None."""
    n = v
    if type(v) is not int:  # a Composition checks every part: ints go straight on
        try:
            n = int(v) if isinstance(v, numbers.Real) and type(v) is not bool else None
        except (ValueError, OverflowError):  # NaN or inf
            n = None
    if n is None or n != v or (least is not None and n < least):
        raise _refused("an integer", name, ">=", least, v)
    return n


def real(v, name: str, above=None) -> float:
    """``v`` as a float: a finite real, greater than ``above`` unless that
    is None."""
    try:
        f = float(v) if isinstance(v, numbers.Real) and type(v) is not bool else math.nan
    except OverflowError:  # an int or a Fraction past the float range
        f = math.inf
    if not (math.isfinite(f) and (above is None or f > above)):
        raise _refused("a finite", name, ">", above, v)
    return f


def rational(v, name: str, above=None) -> Fraction:
    """``v`` as a Fraction: an int or a Fraction, greater than ``above``
    unless that is None.  A float is refused: 0.1 would be taken as
    3602879701896397/2^55."""
    if not (isinstance(v, (int, Fraction)) and type(v) is not bool
            and (above is None or v > above)):
        raise _refused("a finite rational", f"{name} (an int or a Fraction)", ">", above, v)
    return v if type(v) is Fraction else Fraction(v)  # a Fraction is immutable: no copy
