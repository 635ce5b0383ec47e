"""Exact combinatorics of box-bounded plane partitions.

Counts plane partitions and their self-complementary subclasses, evaluates
signed enumerations, verifies two rectangular Schur polynomial product
identities by full expansion and by an evaluation sweep on an integer
grid, and evaluates the bordered binomial Pfaffians that reproduce the
middle-line counts.  Every closed form is cross-checked against an
independent route (an exhaustive count, a full expansion, an evaluation
sweep, or a Pfaffian with its determinant), each check a row of
``scpp.verify.IDENTITIES``.  The package holds only the routes that its
command line and verifiers run; the tests' own oracles live in
``tests/oracles.py``.  Import from the submodules (``scpp.verify``,
``scpp.plane_partitions``, ...); the package re-exports nothing.
"""

__version__ = "0.1.0"
