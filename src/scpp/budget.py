"""Bounds that keep the package at desk scale: a ``WorkBudget`` caps one
check's work, and ``KEPT``, the one store of values kept between calls
(Schur polynomials, row tables and chain counts), caps their total size."""

from __future__ import annotations

from collections import OrderedDict

DEFAULT_NODE_CAP = 100_000_000

# every op of the enum benchmark keeps 17,805 entries in all (26 row tables,
# 139 chain steps), of the schur benchmark 2,540 (51 polynomials)
KEPT_ENTRIES = 1 << 15


class BudgetExceededError(RuntimeError):
    """An enumeration passed its node cap before finishing."""


class WorkBudget:
    """Mutable counter of work units with a hard cap.

    Every route that charges work charges one budget: the one it is given,
    or a fresh ``WorkBudget()`` made where the route is entered, never a
    second one, so the cap a check is given bounds all its work.  Work
    whose size is known before it starts is charged once, before it starts;
    work found only by walking is charged as it is walked.  Each route's
    docstring says what it charges.  Pass one instance through a single
    verification run; do not share across concurrent workers.
    """

    __slots__ = ("cap", "used")

    def __init__(self, cap: int = DEFAULT_NODE_CAP):
        if cap <= 0:
            raise ValueError("budget cap must be positive")
        self.cap = cap
        self.used = 0

    def charge(self, amount: int = 1) -> None:
        """Add ``amount`` units, as one at a time: past the cap, stop at cap + 1."""
        self.used = min(self.used + amount, self.cap + 1)
        if self.used > self.cap:
            raise BudgetExceededError(
                f"work budget exceeded: {self.used} nodes > cap {self.cap}"
            )

    def __repr__(self) -> str:
        return f"WorkBudget(cap={self.cap}, used={self.used})"


class Kept:
    """Values kept between calls, least recently used first, at most
    ``bound`` in total cost; a value of size s costs s + 1, so values of
    size 0 cannot pile up.  Callers share the values and only read them."""

    def __init__(self, bound: int) -> None:
        self.bound, self.held = bound, 0  # held: the cost kept now
        self._values: OrderedDict[tuple, tuple[object, int]] = OrderedDict()

    def get(self, key: tuple) -> object | None:
        """The value kept under ``key``, now the most recently used, or None."""
        kept = self._values.get(key)
        if kept is None:
            return None
        self._values.move_to_end(key)
        return kept[0]

    def put(self, key: tuple, value: object, size: int) -> object:
        """Keep ``value`` under ``key``, in place of what it held, and evict the
        least recently used until the cost fits; a value that alone costs
        more than the bound is not kept.  Returns ``value``."""
        self.held -= self._values.pop(key, (None, 0))[1]
        if size < self.bound:
            self._values[key] = value, size + 1
            self.held += size + 1
            while self.held > self.bound:
                self.held -= self._values.popitem(last=False)[1][1]
        return value


KEPT = Kept(KEPT_ENTRIES)
