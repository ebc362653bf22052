"""Ordinals below w^w in Cantor normal form.

An ordinal is kept as a tuple of natural coefficients (c0, c1, ..., cd),
index = exponent, so (4, 1, 3) means w^2*3 + w*1 + 4.  The tuple never
ends in a zero; the empty tuple is the ordinal 0.

Coefficients are checked where they enter: the public constructor
`Ordinal(coeffs)`, `from_int`, `omega_power` and `parse_ordinal`.  Sums
are trusted: the sum of two normal forms is a normal form, so `+`
builds its result without checking it again.

Coefficients are Python ints, so they read and write in decimal only
up to the interpreter's int/str digit limit (`sys.get_int_max_str_digits`,
4,300 digits by default): `parse_ordinal` rejects a longer integer and
`format_ordinal` a longer coefficient.
"""

from __future__ import annotations

import functools
import sys

MAX_DEGREE = 64

# Only ASCII digits: str.isdigit also accepts characters such as '²'
# that int() rejects.
_DIGITS = frozenset("0123456789")


class OrdinalRangeError(Exception):
    """An ordinal beyond what this module represents or writes out."""


class DegreeOverflowError(OrdinalRangeError):
    """Raised when an ordinal would exceed degree MAX_DEGREE."""


class OrdinalParseError(ValueError):
    """Syntax error in ordinal notation. Carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@functools.total_ordering
class Ordinal:
    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, int) or isinstance(c, bool) or c < 0:
                raise ValueError(f"coefficients must be naturals, got {c!r}")
        while cs and cs[-1] == 0:
            cs.pop()
        if len(cs) > MAX_DEGREE + 1:
            raise DegreeOverflowError(
                f"degree {len(cs) - 1} exceeds the bound {MAX_DEGREE}"
            )
        self._coeffs = tuple(cs)

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._coeffs

    @classmethod
    def zero(cls) -> "Ordinal":
        return _ZERO

    @classmethod
    def one(cls) -> "Ordinal":
        return _ONE

    @classmethod
    def from_int(cls, n: int) -> "Ordinal":
        return cls((n,))

    @classmethod
    def omega(cls) -> "Ordinal":
        return cls((0, 1))

    @classmethod
    def omega_power(cls, k: int, coeff: int = 1) -> "Ordinal":
        if type(k) is not int or k < 0:
            raise ValueError("exponent must be a natural")
        if k > MAX_DEGREE:
            raise DegreeOverflowError(f"degree {k} exceeds the bound {MAX_DEGREE}")
        if type(coeff) is int and coeff > 0:
            return _normal((0,) * k + (coeff,))
        return cls((0,) * k + (coeff,))

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def is_finite(self) -> bool:
        return len(self._coeffs) <= 1

    @property
    def degree(self) -> int:
        """Exponent of the leading term; by convention 0 for the ordinal 0."""
        return max(len(self._coeffs) - 1, 0)

    def as_int(self) -> int:
        if not self.is_finite:
            raise ValueError(f"{self} is not a finite ordinal")
        return self._coeffs[0] if self._coeffs else 0

    def __add__(self, other):
        if type(other) is not Ordinal:
            if type(other) is int and other > 0:
                # A natural right summand only adds to the finite part.
                a = self._coeffs
                return _normal((a[0] + other,) + a[1:] if a else (other,))
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        b = other._coeffs
        if not b:
            return self
        a = self._coeffs
        d = len(b) - 1
        # Left summand keeps only the part at or above the right's degree.
        # The result ends in a's last entry or in a_d + b[d] > 0, and is
        # no longer than the longer summand.
        a_d = a[d] if d < len(a) else 0
        return _normal(b[:d] + (a_d + b[d],) + a[d + 1 :])

    def __radd__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + self

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._coeffs == other._coeffs

    def __lt__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        return (len(a), a[::-1]) < (len(b), b[::-1])

    def __hash__(self):
        # A finite ordinal equals its int, so it hashes as that int.
        cs = self._coeffs
        return hash(cs) if len(cs) > 1 else hash(cs[0] if cs else 0)

    def __bool__(self):
        return bool(self._coeffs)

    def __str__(self):
        return format_ordinal(self)

    def __repr__(self):
        return f"Ordinal([{', '.join(map(_int_repr, self._coeffs))}])"


def _normal(coeffs: tuple) -> Ordinal:
    """The Ordinal of a tuple already in normal form: naturals with a
    nonzero last entry.  Nothing is checked.

    Callers build coeffs from checked ordinals and positive ints only,
    and never make the tuple longer than the longest tuple they started
    from (`omega_power` checks its exponent first).  So the degree bound
    holds without a check here, and DegreeOverflowError can still come
    only from the checked paths: `Ordinal(coeffs)`, `omega_power` and
    `parse_ordinal`."""
    o = object.__new__(Ordinal)
    o._coeffs = coeffs
    return o


# Ordinal has no setters, so every zero() and one() can be the same.
_ZERO = _normal(())
_ONE = _normal((1,))


def _int_repr(c: int) -> str:
    """c in decimal, or in hexadecimal beyond the int/str digit limit,
    which bounds only the decimal form."""
    try:
        return repr(c)
    except ValueError:
        return hex(c)


def _coerce(other):
    """other as an Ordinal (a natural int converts), or NotImplemented
    (for a bool, a negative int or a non-number)."""
    if isinstance(other, Ordinal):
        return other
    if isinstance(other, int) and not isinstance(other, bool) and other >= 0:
        return _normal((other,)) if other else _ZERO
    return NotImplemented


def _writable(c: int) -> bool:
    """Whether Python's int/str digit limit lets c be written in decimal."""
    try:
        str(c)
    except ValueError:
        return False
    return True


def _digit_limit() -> str:
    return f"{sys.get_int_max_str_digits():,} digits, Python's int/str limit"


# The text of w^k, indexed by the exponent k from 1 up to MAX_DEGREE.
_POWERS = ("", "w", *(f"w^{k}" for k in range(2, MAX_DEGREE + 1)))


def format_ordinal(o: Ordinal) -> str:
    """Canonical text: terms by descending exponent, e.g. "w^2*3 + w + 4".

    Raises OrdinalRangeError when a coefficient has more digits than the
    int/str limit lets Python write; it names the highest such exponent."""
    cs = o._coeffs
    if not cs:
        return "0"
    try:
        parts = [
            f"{_POWERS[k]}*{c}" if c != 1 else _POWERS[k]
            for k, c in enumerate(cs[1:], 1)
            if c
        ]
        parts.reverse()
        if cs[0]:
            parts.append(str(cs[0]))
    except ValueError:  # only writing a coefficient can fail
        k = max(k for k, c in enumerate(cs) if not _writable(c))
        raise OrdinalRangeError(
            f"the coefficient of w^{k} has more than {_digit_limit()}"
        ) from None
    return " + ".join(parts)


def parse_ordinal(text: str) -> Ordinal:
    """Parse ordinal notation.

    Grammar (whitespace-insensitive):

        ord  := term ("+" term)* | "0"
        term := "w^" INT ("*" INT)? | "w" ("*" INT)? | INT

    Terms are combined left to right with ordinal addition, so the
    canonical descending form round-trips and permuted forms still
    denote a valid ordinal.
    """
    pos = 0
    n = len(text)

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def read_int() -> int:
        nonlocal pos
        skip_ws()
        start = pos
        while pos < n and text[pos] in _DIGITS:
            pos += 1
        if pos == start:
            raise OrdinalParseError("expected an integer", start)
        try:
            return int(text[start:pos])
        except ValueError:
            raise OrdinalParseError(
                f"integer of {pos - start:,} digits exceeds {_digit_limit()}", start
            ) from None

    def read_term() -> Ordinal:
        nonlocal pos
        skip_ws()
        if pos >= n:
            raise OrdinalParseError("expected a term", pos)
        if text[pos] == "w":
            pos += 1
            skip_ws()
            exp = 1
            if pos < n and text[pos] == "^":
                pos += 1
                exp = read_int()
            coeff = 1
            skip_ws()
            if pos < n and text[pos] == "*":
                pos += 1
                coeff = read_int()
            return Ordinal.omega_power(exp, coeff)
        if text[pos] in _DIGITS:
            return Ordinal.from_int(read_int())
        raise OrdinalParseError(f"unexpected character {text[pos]!r}", pos)

    total = read_term()
    skip_ws()
    while pos < n:
        if text[pos] != "+":
            raise OrdinalParseError(f"unexpected character {text[pos]!r}", pos)
        pos += 1
        total = total + read_term()
        skip_ws()
    return total
