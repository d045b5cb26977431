"""Exception types, and the one check for each kind of number an argument
can be: an integer, a finite real or an exact rational (an int or a
Fraction).  Bools, strings and complex numbers are none of these."""

import math
import numbers
from fractions import Fraction


class DomainError(ValueError):
    """A parameter lies outside the mathematical domain of an operation."""


class DivergenceError(DomainError):
    """The requested series does not converge for the given parameters."""


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
    return Fraction(v)
