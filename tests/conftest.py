import sys
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, settings

from scpp import budget
from scpp.budget import KEPT_ENTRIES, Kept

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@contextmanager
def fresh_kept(bound: int = KEPT_ENTRIES):
    """An empty store of ``bound`` in place of ``scpp.budget.KEPT``, in every
    ``scpp`` module that reads it, for the length of the block."""
    store, old = Kept(bound), budget.KEPT
    modules = [
        module for name, module in list(sys.modules.items())
        if name.startswith("scpp") and getattr(module, "KEPT", None) is old
    ]
    for module in modules:
        module.KEPT = store
    try:
        yield store
    finally:
        for module in modules:
            module.KEPT = old


@pytest.fixture
def kept():
    """An empty store in place of ``scpp.budget.KEPT`` for one test."""
    with fresh_kept() as store:
        yield store
