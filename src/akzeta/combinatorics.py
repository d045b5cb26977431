"""Exact integer combinatorics: MZV index tuples, duality, multinomial weights.

A multiple zeta value index is stored as the displayed exponent tuple,
innermost index first, with the trailing "+1" already folded into the last
entry.  So ``Composition((1, 2))`` denotes the convergent sum with inner
exponent 1 and outer exponent 2.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

from .errors import DomainError, Record, integer

__all__ = [
    "Composition",
    "binomial",
    "dual",
    "weak_compositions",
    "m_coeff",
    "admissible_compositions",
]


class Composition(Record):
    """An ordered tuple of positive integer exponents, innermost first."""

    __slots__ = ("parts",)

    def __init__(self, parts: Sequence[int]):
        if len(parts) == 0:
            raise DomainError("composition must be non-empty")
        self._set(tuple(integer(p, 1, "composition part") for p in parts))

    @classmethod
    def of(cls, *parts: int) -> "Composition":
        return cls(tuple(parts))

    @classmethod
    def coerce(cls, c) -> "Composition":
        """``c`` itself if it is a Composition, else its tuple validated as one."""
        if isinstance(c, cls):
            return c
        try:
            return cls(tuple(c))
        except (TypeError, DomainError):
            raise DomainError(f"exponents must be a tuple of positive integers, got {c!r}") from None

    @classmethod
    def parse(cls, literal: str) -> "Composition":
        """Parse a comma-separated literal such as ``"1,2,2,4"``."""
        try:
            parts = tuple(int(tok) for tok in literal.split(","))
        except ValueError as exc:
            raise DomainError(f"cannot parse composition literal {literal!r}") from exc
        return cls(parts)

    @property
    def admissible(self) -> bool:
        return self.parts[-1] >= 2

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @property
    def depth(self) -> int:
        return len(self.parts)

    def alpha(self) -> tuple[int, ...]:
        """Exponent prefix with the folded +1 removed from the last part.

        For an admissible tuple (c_1, .., c_q) this is (c_1, .., c_{q-1}, c_q - 1),
        the form in which dual-side linear combinations are indexed.
        """
        if not self.admissible:
            raise DomainError(f"{self} is not admissible")
        return self.parts[:-1] + (self.parts[-1] - 1,)

    @classmethod
    def from_alpha(cls, alpha: Sequence[int]) -> "Composition":
        alpha = tuple(alpha)
        return cls(alpha[:-1] + (alpha[-1] + 1,))

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts)


def binomial(n: int, k: int) -> int:
    """Exact binomial coefficient, 0 when k > n."""
    return math.comb(integer(n, 0, "n"), integer(k, 0, "k"))


def _to_word(c: Composition) -> list[int]:
    # Innermost-exponent-first word: each exponent s contributes 1 0^{s-1}.
    # An admissible tuple always yields a word ending in 0, so the dual word
    # below always starts with 1 and parses back.
    word: list[int] = []
    for part in c.parts:
        word.append(1)
        word.extend([0] * (part - 1))
    return word


def _from_word(word: Sequence[int]) -> Composition:
    parts: list[int] = []
    for bit in word:
        if bit:
            parts.append(1)
        else:
            parts[-1] += 1
    return Composition(tuple(parts))


def dual(c: Composition) -> Composition:
    """The MZV duality involution on admissible exponent tuples.

    Factor the index as ({1}^{a_1}, b_1+2, ..., {1}^{a_m}, b_m+2) and emit
    ({1}^{b_m}, a_m+2, ..., {1}^{b_1}, a_1+2).  Realized on the binary word
    encoding, where it is reversal composed with bit complement.
    """
    if not c.admissible:
        raise DomainError(f"dual of non-admissible composition {c} (divergent series)")
    word = _to_word(c)
    return _from_word([1 - b for b in reversed(word)])


def weak_compositions(m: int, k: int) -> Iterator[tuple[int, ...]]:
    """All k-tuples of non-negative integers summing to m, lexicographically."""
    m, k = integer(m, 0, "m"), integer(k, 1, "k")

    def rec(prefix: tuple[int, ...], remaining: int, slots: int):
        if slots == 1:
            yield prefix + (remaining,)
            return
        for first in range(remaining + 1):
            yield from rec(prefix + (first,), remaining - first, slots - 1)

    yield from rec((), m, k)


def m_coeff(alpha: Sequence[int], d: Sequence[int]) -> int:
    """Product of binomials C(alpha_j + d_j - 1, d_j) over matched positions."""
    if len(alpha) != len(d):
        raise DomainError("exponent prefix and weak composition lengths differ")
    out = 1
    for a, dj in zip(alpha, d):
        out *= math.comb(a + dj - 1, dj)
    return out


def admissible_compositions(max_weight: int) -> Iterator[Composition]:
    """Every admissible composition with weight in [2, max_weight]."""

    def comps(total: int):
        if total == 0:
            yield ()
            return
        for first in range(1, total + 1):
            for rest in comps(total - first):
                yield (first,) + rest

    for w in range(2, integer(max_weight, None, "max_weight") + 1):
        for parts in comps(w):
            if parts[-1] >= 2:
                yield Composition(parts)
