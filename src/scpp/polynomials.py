"""Exact polynomial arithmetic.

``MPoly`` is a sparse polynomial in a fixed number of variables with
big-integer coefficients, stored as a map from packed monomial keys to
nonzero coefficients.  The key of x_1^e_1 ... x_n^e_n packs the exponents
big-endian into fixed fields of ``FIELD_BITS`` bits: it is the sum of
e_i * 2^(FIELD_BITS * (n - i)), so x_1 is the most significant field and
x_n the least (Kronecker substitution).  A product of monomials is a sum
of keys: multiplying by x_i^e adds the key of x_i^e, which is how the
Schur descent of ``scpp.schur`` builds its term maps.  Since each field
holds its exponent whole and the fields are big-endian, comparing two
keys compares their exponent tuples lexicographically: sorting the keys
gives the order in which the digest lists the terms.

The top bit of each field is headroom.  ``schur_tableau_sum`` refuses a
shape part of 2^31 (``EXPONENT_LIMIT``) or more, so the exponents it
stores are below 2^31, and ``MPoly.__mul__`` refuses an operand with any
top bit set.  Two exponents below 2^31 add up to less than 2^32, so a
product never carries from one field into the next; its own exponents
may reach 2^32 - 2, which its fields still hold exactly, but it cannot be
multiplied again.

``MPoly`` has one constructor, which trusts its caller, and only the
operations that production code uses: product, lifting to more
variables, setting the last variable to zero and a digest.  The
evaluation sweep of ``scpp.verify`` groups a term map by the exponent of
x_1 once (``group_by_first``) and sets x_1 from the groups
(``substitute_groups``).  Setting x_1 term by term (``substitute_first``)
and sums are test oracles (``tests/oracles.py``); values at one point
come from ``scpp.schur.schur_value``.
"""

from __future__ import annotations

import hashlib
import struct
from fractions import Fraction
from typing import Sequence

Exponents = tuple[int, ...]
Value = int | Fraction

# bits per exponent field; ``MPoly.sorted_terms`` decodes a field with the
# 32-bit struct format "I"
FIELD_BITS = 32
FIELD_MASK = (1 << FIELD_BITS) - 1
EXPONENT_LIMIT = 1 << (FIELD_BITS - 1)


def _guard_mask(nvars: int) -> int:
    """The top bit of each of the nvars fields."""
    return (1 << FIELD_BITS * nvars) // FIELD_MASK * EXPONENT_LIMIT


def max_exponent(terms: dict[int, Value], nvars: int) -> int:
    """The largest exponent in a term map in x_1..x_nvars; 0 if there is none."""
    fields = range(0, FIELD_BITS * nvars, FIELD_BITS)
    return max((key >> shift & FIELD_MASK for key in terms for shift in fields), default=0)


def group_by_first(terms: dict[int, Value], nvars: int) -> list[tuple[int, list]]:
    """The terms of a term map in x_1..x_nvars grouped by their exponent e
    of x_1, as (e, [(key in x_2..x_nvars, coeff), ...]) pairs: grouped once,
    the map is substituted at each x_1 with no shift or mask per term."""
    shift = FIELD_BITS * (nvars - 1)
    low = (1 << shift) - 1
    groups: dict[int, list[tuple[int, Value]]] = {}
    for key, coeff in terms.items():
        e = key >> shift
        group = groups.get(e)
        if group is None:
            group = groups[e] = []
        group.append((key & low, coeff))
    return list(groups.items())


def substitute_groups(groups: list[tuple[int, list]], powers: Sequence[Value]) -> dict[int, Value]:
    """The term map left when x_1 := value, from ``group_by_first`` groups
    and powers[e] = value**e; its coefficients are exact and may be zero,
    and groups whose power is zero are skipped."""
    out: dict[int, Value] = {}
    get = out.get
    for e, items in groups:
        power = powers[e]
        if power:
            for rest, coeff in items:
                out[rest] = get(rest, 0) + coeff * power
    return out


class MPoly:
    """Sparse multivariate polynomial over the integers.

    ``MPoly(nvars, terms)`` stores the term map as given, without copying or
    checking it: every key packs ``nvars`` exponents into 32-bit fields,
    x_1 in the most significant, as the module docstring describes, and no
    coefficient is zero.  Sorted keys are sorted exponent tuples, which is
    the digest's order.  Exponents below 2^31 may enter a product; an
    operand with a larger one is refused.  Instances are treated as
    immutable: no method mutates ``terms`` after construction, so values
    can be cached and shared freely.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[int, int]):
        self.nvars = nvars
        self.terms = terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    __hash__ = None  # mutable dict inside; equality is by value

    def __mul__(self, other: "MPoly") -> "MPoly":
        if not isinstance(other, MPoly):
            return NotImplemented
        if self.nvars != other.nvars:
            raise ValueError(f"variable count mismatch: {self.nvars} vs {other.nvars}")
        guard = _guard_mask(self.nvars)
        if any(k & guard for k in self.terms) or any(k & guard for k in other.terms):
            raise ValueError(f"a product operand has an exponent of at least {EXPONENT_LIMIT}")
        acc: dict[int, int] = {}
        get = acc.get
        right = other.terms.items()
        for k1, c1 in self.terms.items():
            for k2, c2 in right:
                k = k1 + k2
                acc[k] = get(k, 0) + c1 * c2
        # zero sums are dropped once, at the end
        return MPoly(self.nvars, {k: c for k, c in acc.items() if c})

    def lift(self, nvars: int) -> "MPoly":
        """Embed into a larger variable set; new variables get exponent 0."""
        if nvars < self.nvars:
            raise ValueError("cannot lift to fewer variables")
        shift = FIELD_BITS * (nvars - self.nvars)
        return MPoly(nvars, {k << shift: c for k, c in self.terms.items()})

    def restrict_last_zero(self) -> "MPoly":
        """Set the last variable to zero and drop its slot."""
        if self.nvars == 0:
            raise ValueError("no variable to restrict")
        return MPoly(
            self.nvars - 1,
            {k >> FIELD_BITS: c for k, c in self.terms.items() if not k & FIELD_MASK},
        )

    def sorted_terms(self) -> list[tuple[Exponents, int]]:
        """(exponent tuple, coefficient) pairs in lexicographic order, which
        is the order of the keys."""
        terms = self.terms
        width = 4 * self.nvars  # bytes
        decode = struct.Struct(f">{self.nvars}I").unpack  # one 32-bit field each
        return [(decode(key.to_bytes(width, "big")), terms[key]) for key in sorted(terms)]

    def digest(self) -> str:
        """Deterministic short hash of the canonical term list: "e1,...,en:c"
        for each term in lexicographic order."""
        line = ",".join(["%d"] * self.nvars) + ":%d"
        parts = [str(self.nvars)]
        parts += [line % (*e, c) for e, c in self.sorted_terms()]
        blob = ";".join(parts).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def __repr__(self) -> str:
        if not self.terms:
            return f"MPoly({self.nvars}, 0)"
        bits = []
        for exps, c in self.sorted_terms()[:-9:-1]:
            mono = "*".join(
                f"x{i + 1}^{e}" if e > 1 else f"x{i + 1}"
                for i, e in enumerate(exps)
                if e
            )
            bits.append(f"{c}" if not mono else (mono if c == 1 else f"{c}*{mono}"))
        tail = " + ..." if len(self.terms) > 8 else ""
        return f"MPoly({self.nvars}, {' + '.join(bits)}{tail})"

