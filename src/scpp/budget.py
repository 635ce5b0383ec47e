"""Work budgets that keep exhaustive counts and enumerations at desk scale."""

from __future__ import annotations

DEFAULT_NODE_CAP = 100_000_000


class BudgetExceededError(RuntimeError):
    """An enumeration passed its node cap before finishing."""


class WorkBudget:
    """Mutable counter of work units with a hard cap.

    The exhaustive counts charge one unit per row state per transfer step,
    the work that dominates them: a*C(b+c, c) for ``count_pp`` and
    ((a+1)//2)*C(b+c, c) per run for the self-complementary counts (the
    signed count makes two runs), charged before the rows are listed, to a
    fresh budget if none is given.  The move graph charges the same way
    before it lists any array: the units of the self-complementary count,
    then (a*c)//2 moves for each array that count finds.  The object
    enumerators charge one unit per node of their row tree as they walk it,
    if given a budget; the move graph passes them its own.  Pass one
    instance through a single verification run; do not share across
    concurrent workers.
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
