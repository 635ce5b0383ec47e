"""Exact polynomial arithmetic.

``MPoly`` is a sparse polynomial in a fixed number of variables with
big-integer coefficients, stored as a map from exponent tuples to nonzero
coefficients.  Univariate polynomials (used for the principal
specialization in a formal variable q) are plain ascending coefficient
lists with exact integer division helpers.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from operator import add
from typing import Mapping, Sequence

Exponents = tuple[int, ...]


class MPoly:
    """Sparse multivariate polynomial over the integers.

    Instances are treated as immutable: no method mutates ``terms`` after
    construction, so values can be cached and shared freely.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Exponents, int] | None = None):
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        clean: dict[Exponents, int] = {}
        if terms:
            for exps, coeff in terms.items():
                if coeff == 0:
                    continue
                e = tuple(int(x) for x in exps)
                if len(e) != nvars:
                    raise ValueError(f"exponent vector {e} has wrong length, expected {nvars}")
                if any(x < 0 for x in e):
                    raise ValueError(f"negative exponent in {e}")
                clean[e] = int(coeff)
        self.nvars = nvars
        self.terms = clean

    @classmethod
    def _raw(cls, nvars: int, terms: dict[Exponents, int]) -> "MPoly":
        # internal constructor for terms already known to be clean
        obj = object.__new__(cls)
        obj.nvars = nvars
        obj.terms = terms
        return obj

    @classmethod
    def zero(cls, nvars: int) -> "MPoly":
        return cls._raw(nvars, {})

    @classmethod
    def const(cls, nvars: int, value: int) -> "MPoly":
        if value == 0:
            return cls.zero(nvars)
        return cls._raw(nvars, {(0,) * nvars: int(value)})

    @classmethod
    def monomial(cls, nvars: int, exps: Sequence[int], coeff: int = 1) -> "MPoly":
        return cls(nvars, {tuple(exps): coeff})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "MPoly":
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range")
        exps = [0] * nvars
        exps[index] = 1
        return cls._raw(nvars, {tuple(exps): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    __hash__ = None  # mutable dict inside; equality is by value

    def _check_same_vars(self, other: "MPoly") -> None:
        if self.nvars != other.nvars:
            raise ValueError(f"variable count mismatch: {self.nvars} vs {other.nvars}")

    def __add__(self, other: "MPoly") -> "MPoly":
        self._check_same_vars(other)
        acc = dict(self.terms)
        for e, c in other.terms.items():
            s = acc.get(e, 0) + c
            if s:
                acc[e] = s
            else:
                acc.pop(e, None)
        return MPoly._raw(self.nvars, acc)

    def __mul__(self, other: "MPoly | int") -> "MPoly":
        if isinstance(other, int):
            if other == 0:
                return MPoly.zero(self.nvars)
            return MPoly._raw(self.nvars, {e: c * other for e, c in self.terms.items()})
        self._check_same_vars(other)
        acc: dict[Exponents, int] = {}
        get = acc.get
        right = other.terms.items()
        for e1, c1 in self.terms.items():
            for e2, c2 in right:
                e = tuple(map(add, e1, e2))
                acc[e] = get(e, 0) + c1 * c2
        # zero sums are dropped once, at the end
        return MPoly._raw(self.nvars, {e: c for e, c in acc.items() if c})

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MPoly":
        if n < 0:
            raise ValueError("negative power")
        result = MPoly.const(self.nvars, 1)
        for _ in range(n):
            result = result * self
        return result

    def evaluate(self, point: Sequence[int | Fraction]) -> int | Fraction:
        """Exact substitution of the variables by the given values."""
        if len(point) != self.nvars:
            raise ValueError(
                f"point has {len(point)} coordinates, polynomial has {self.nvars} variables"
            )
        total: int | Fraction = 0
        for exps, coeff in self.terms.items():
            value: int | Fraction = coeff
            for base, e in zip(point, exps):
                if e:
                    value *= base**e
            total += value
        return total

    def lift(self, nvars: int) -> "MPoly":
        """Embed into a larger variable set; new variables get exponent 0."""
        if nvars < self.nvars:
            raise ValueError("cannot lift to fewer variables")
        pad = (0,) * (nvars - self.nvars)
        return MPoly._raw(nvars, {e + pad: c for e, c in self.terms.items()})

    def restrict_last_zero(self) -> "MPoly":
        """Set the last variable to zero and drop its slot."""
        if self.nvars == 0:
            raise ValueError("no variable to restrict")
        return MPoly._raw(
            self.nvars - 1,
            {e[:-1]: c for e, c in self.terms.items() if e[-1] == 0},
        )

    def digest(self) -> str:
        """Deterministic short hash of the canonical term list."""
        parts = [str(self.nvars)]
        for exps in sorted(self.terms):
            parts.append(",".join(map(str, exps)) + ":" + str(self.terms[exps]))
        blob = ";".join(parts).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def __repr__(self) -> str:
        if not self.terms:
            return f"MPoly({self.nvars}, 0)"
        bits = []
        for exps in sorted(self.terms, reverse=True)[:8]:
            mono = "*".join(
                f"x{i + 1}^{e}" if e > 1 else f"x{i + 1}"
                for i, e in enumerate(exps)
                if e
            )
            c = self.terms[exps]
            bits.append(f"{c}" if not mono else (mono if c == 1 else f"{c}*{mono}"))
        tail = " + ..." if len(self.terms) > 8 else ""
        return f"MPoly({self.nvars}, {' + '.join(bits)}{tail})"


# ---------------------------------------------------------------------------
# dense univariate helpers (ascending coefficient lists; [] is the zero poly)

def upoly_trim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def upoly_mul(p: Sequence[int], q: Sequence[int]) -> list[int]:
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return upoly_trim(out)


def upoly_divexact(num: Sequence[int], den: Sequence[int]) -> list[int]:
    """Exact division of integer polynomials; raises if the remainder is nonzero."""
    num = upoly_trim(list(num))
    den = upoly_trim(list(den))
    if not den:
        raise ZeroDivisionError("division by zero polynomial")
    if not num:
        return []
    if len(num) < len(den):
        raise ValueError("division is not exact")
    lead = den[-1]
    rem = list(num)
    quot = [0] * (len(num) - len(den) + 1)
    for k in range(len(quot) - 1, -1, -1):
        coeff = rem[k + len(den) - 1]
        if coeff % lead:
            raise ValueError("division is not exact")
        q = coeff // lead
        quot[k] = q
        if q:
            for j, b in enumerate(den):
                rem[k + j] -= q * b
    if any(rem):
        raise ValueError("division is not exact")
    return upoly_trim(quot)


def one_minus_power(m: int) -> list[int]:
    """The polynomial 1 - q^m."""
    if m <= 0:
        raise ValueError("exponent must be positive")
    return [1] + [0] * (m - 1) + [-1]
