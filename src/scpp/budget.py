"""Work budgets that keep exhaustive counts and enumerations at desk scale."""

from __future__ import annotations

DEFAULT_NODE_CAP = 100_000_000


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
