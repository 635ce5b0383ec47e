"""The op lists of the benchmark's three workloads.

An op is one verification of one parameter tuple, written as the argv of
one ``scpp`` CLI call.  A workload is a fixed list of base tuples.  The
seed (with the number of the pass within a run) chooses the order of the
ops and, where an identity is symmetric in the box sides, which
orientation of the box each base tuple runs in; both change the cost,
while the set of objects counted and of Schur polynomials requested stays
the same.  ``universe`` lists every op any seed can draw; ``expected.json``
holds the expected stdout line of each.

Why these workloads:

- ``enum``: brute-force enumeration against the closed products (box,
  self-complementary, signed, middle-line counts) mixed with move-graph
  (``weight``) ops that build the objects themselves.  ``plane_partitions``
  does almost all the work; ``schur``, ``polynomials`` and ``pfaffian``
  sit idle.  It holds all three middle-line parity cases, the
  punctured odd/odd one included.
- ``schur``: the two rectangular Schur product identities in full
  expansion, square reduction, the specialization bridge and the
  evaluation sweep.  Schur construction dominates, polynomial
  multiplication and evaluation both run, and shapes recur across ops, so
  cache reuse is part of the load; ``plane_partitions`` sits idle.
- ``pfaffian``: criterion 07 on bordered binomial matrices of dimension
  18 to 26 in all three parity cases, half dense (b close to a) and half
  banded (small b), since the Pfaffian recursion skips zero entries.  The
  dense ones stop at dimension 24: with one dense dimension-26 op, which
  alone took a quarter of a pass, the quartiles of the pass time over ten
  runs lay a quarter of the median apart.  Twelve dense dimension-20 ops
  of similar cost hold the 90th percentile.  Enumeration and Schur
  construction sit idle.
"""

from __future__ import annotations

import itertools
import random


# enum: sides up to 6.  Tuples whose op would finish in about a millisecond,
# where the CLI's own overhead dominates, are left out.  So is
# count_scpp(6, 6, 6): at 12 to 22 s it left room for one pass per run, and
# with one pass the quartiles of op_p50_ms over ten runs lay 0.29 of the
# median apart.
#
# The cost of a count depends on the orientation of the box.  For most tuples
# the seed picks one orientation per pass, but the two tuples below hold most
# of that dependence, so each pass counts them in every orientation: the
# orientation cost is measured every pass instead of being drawn, which
# would make the pass time depend on the seed (count_scpp(4, 6, 6) takes
# 0.18 s to 0.68 s, count_scpp(5, 5, 6) 0.6 s to 0.87 s).  count_scpp(5, 6, 6)
# is left out: its orientations take 1.5 s to 4.4 s, so drawing one made the
# quartiles of verify_s over seeds lie 0.15 of the median apart, and counting
# all three would leave room for only two passes per run.
SCPP_EVERY_ORIENTATION = [(5, 5, 6), (4, 6, 6)]
SCPP = [
    (5, 5, 5), (4, 5, 6), (3, 6, 6), (4, 4, 6), (4, 5, 5), (3, 5, 6), (4, 4, 5), (3, 4, 6),
]
BOX = [
    (3, 4, 5), (3, 3, 6), (2, 5, 6), (3, 4, 4), (3, 3, 5), (2, 5, 5), (2, 4, 6),
    (2, 4, 5), (3, 3, 4), (2, 3, 6), (2, 4, 4), (2, 3, 5), (3, 3, 3), (1, 6, 6),
]
SIGNED = [
    (5, 4, 6), (3, 6, 6), (6, 3, 5), (5, 4, 4), (4, 5, 5), (3, 4, 6), (5, 2, 6),
    (4, 3, 5), (3, 4, 4),
]
WEIGHT = [
    (4, 4, 5), (4, 4, 4), (3, 4, 5), (3, 4, 4), (2, 5, 5), (2, 4, 5), (3, 3, 4), (2, 4, 4),
    (2, 3, 5),
]
# (a, b, c1, c2): a and b even; a odd, b even; and the punctured a, b odd case
MIDDLE_LINE = [
    (6, 6, 6, 0), (6, 6, 4, 2),
    (6, 6, 4, 0), (6, 6, 2, 2), (6, 4, 8, 2), (6, 4, 6, 4), (6, 4, 4, 4),
    (6, 4, 6, 2), (6, 4, 8, 0), (6, 4, 4, 2), (6, 4, 6, 0), (6, 2, 6, 6),
    (6, 2, 8, 4), (6, 2, 8, 2), (6, 2, 6, 4), (4, 6, 6, 4), (4, 6, 8, 2),
    (4, 6, 6, 2), (4, 6, 4, 4), (4, 6, 8, 0), (4, 4, 8, 4), (4, 4, 6, 6),
    (4, 4, 6, 4), (4, 4, 8, 2),
    (5, 6, 6, 2), (5, 6, 8, 0), (5, 6, 4, 4), (5, 6, 6, 0), (5, 6, 4, 2),
    (5, 4, 6, 4), (5, 4, 8, 2), (5, 4, 4, 4), (5, 4, 6, 2), (5, 4, 8, 0),
    (5, 4, 6, 0), (5, 4, 4, 2), (5, 2, 8, 4), (5, 2, 6, 6), (3, 6, 6, 4),
    (3, 6, 8, 2), (3, 6, 8, 0), (3, 6, 4, 4), (3, 6, 6, 2), (3, 4, 6, 6),
    (3, 4, 8, 4),
    (5, 5, 6, 4), (5, 5, 8, 2), (5, 5, 4, 4), (5, 5, 6, 2), (5, 5, 8, 0),
    (5, 5, 4, 2), (5, 5, 6, 0), (5, 3, 6, 6), (5, 3, 8, 4), (5, 3, 6, 4),
    (5, 3, 8, 2), (5, 3, 6, 2), (3, 5, 6, 6), (3, 5, 8, 4),
]

# schur: gamma1 <= 4 and n <= 5 in full expansion.  The largest is
# (1, 3, 3, 3, 5); (1, 4, 3, 3, 5) is left out: at 7 to 11 s it left room
# for two passes per run, too few for medians that hold still on a shared host.
SCHURID1 = [
    (3, 3, 3, 5), (4, 3, 2, 4), (2, 2, 3, 5), (3, 3, 3, 4), (4, 2, 3, 4), (4, 2, 2, 4),
    (2, 2, 2, 5), (3, 2, 3, 4), (4, 4, 2, 3), (3, 2, 2, 4), (4, 3, 1, 5), (4, 1, 3, 4),
    (4, 3, 2, 3), (2, 2, 3, 4), (4, 4, 1, 4), (2, 1, 3, 5), (3, 3, 1, 5), (4, 1, 2, 4),
    (2, 2, 2, 4), (3, 3, 2, 3), (4, 4, 3, 3), (4, 2, 1, 5),
]
SCHURID2 = [
    (4, 4, 1, 4), (3, 3, 1, 5), (4, 2, 2, 4), (3, 3, 3, 4), (4, 2, 1, 5), (4, 2, 3, 4),
    (4, 3, 1, 4), (3, 2, 2, 4), (4, 4, 1, 3), (4, 4, 2, 3), (2, 2, 2, 4), (3, 3, 1, 4),
    (3, 2, 1, 5), (2, 1, 3, 5), (3, 2, 3, 4),
]
# evaluation sweep on small tuples: these are the short ops of the workload
SWEEP1 = [
    (2, 0, 2, 3), (2, 2, 1, 2), (3, 1, 2, 2), (3, 2, 1, 2), (2, 1, 1, 3), (2, 2, 2, 2),
    (1, 1, 2, 3), (3, 2, 2, 2), (3, 0, 2, 3), (3, 3, 1, 2), (3, 1, 1, 3), (3, 3, 2, 2),
    (2, 2, 1, 3), (2, 1, 2, 3), (3, 1, 1, 2), (1, 1, 1, 3), (3, 0, 1, 3), (2, 1, 2, 2),
]
SWEEP2 = [
    (1, 1, 1, 3), (2, 2, 2, 2), (2, 0, 2, 3), (2, 2, 1, 2), (3, 3, 0, 3), (3, 3, 2, 0),
    (3, 2, 2, 2), (3, 2, 1, 2), (2, 1, 1, 3), (3, 3, 2, 2), (1, 1, 2, 3), (3, 0, 2, 3),
    (3, 3, 1, 2), (3, 1, 1, 3), (2, 1, 2, 3), (2, 2, 1, 3), (2, 1, 2, 2), (3, 1, 1, 2),
    (3, 0, 1, 3), (3, 1, 2, 2),
]
# (gamma, alpha, n)
SQUARE = [(3, 2, 3), (2, 2, 4), (3, 1, 5), (2, 3, 4), (2, 2, 5), (3, 2, 4), (2, 3, 5), (3, 3, 4), (3, 2, 5)]
# (gamma, alpha, m), m <= 9
BRIDGE = [
    (2, 4, 7), (3, 2, 7), (2, 3, 8), (4, 4, 5), (4, 3, 5), (3, 3, 6), (4, 2, 6),
    (3, 2, 8), (3, 4, 6), (2, 3, 9), (2, 4, 8), (3, 2, 9), (4, 2, 7), (3, 3, 7),
    (2, 4, 9), (4, 3, 6), (3, 4, 7), (4, 4, 6), (4, 2, 8), (3, 3, 8), (4, 2, 9),
]

# pfaffian: (case, a, b, c1, c2); the matrix has dimension a, or a + 1 when a is odd.
# Dense matrices, b close to a: the Pfaffian recursion finds few zero entries.
PFAFFIAN_DENSE = [
    ("even-even", 18, 18, 4, 2), ("a-odd", 17, 14, 6, 2), ("ab-odd", 17, 17, 8, 4),
    ("even-even", 18, 16, 2, 0), ("a-odd", 17, 16, 6, 6), ("ab-odd", 17, 15, 8, 0),
    ("even-even", 18, 18, 4, 4), ("a-odd", 17, 14, 6, 0), ("ab-odd", 17, 17, 2, 2),
    ("even-even", 18, 16, 8, 2), ("a-odd", 17, 16, 4, 2), ("ab-odd", 17, 15, 6, 2),
    ("even-even", 18, 18, 8, 4), ("a-odd", 17, 14, 2, 0), ("ab-odd", 17, 17, 6, 6),
    ("even-even", 18, 16, 8, 0), ("a-odd", 17, 16, 4, 4), ("ab-odd", 17, 15, 6, 0),
    ("even-even", 18, 18, 2, 2), ("a-odd", 17, 14, 8, 2), ("ab-odd", 17, 17, 4, 2),
    ("even-even", 18, 16, 6, 2), ("a-odd", 17, 16, 8, 4), ("ab-odd", 17, 15, 2, 0),
    ("even-even", 18, 18, 6, 6), ("a-odd", 17, 14, 8, 0), ("ab-odd", 17, 17, 4, 4),
    ("even-even", 18, 16, 6, 0), ("even-even", 18, 14, 2, 0), ("a-odd", 17, 12, 4, 2),
    ("ab-odd", 17, 13, 6, 2), ("even-even", 18, 14, 8, 4), ("a-odd", 17, 12, 6, 0),
    ("even-even", 20, 20, 4, 2), ("a-odd", 19, 16, 6, 2), ("ab-odd", 19, 19, 8, 4),
    ("even-even", 20, 18, 2, 0), ("a-odd", 19, 18, 6, 6), ("ab-odd", 19, 17, 8, 0),
    ("even-even", 20, 20, 4, 4), ("a-odd", 19, 16, 6, 0), ("ab-odd", 19, 19, 2, 2),
    ("even-even", 20, 18, 8, 2), ("a-odd", 19, 18, 4, 2), ("ab-odd", 19, 17, 6, 2),
    ("even-even", 22, 22, 4, 2), ("a-odd", 21, 18, 6, 2), ("ab-odd", 21, 21, 8, 4),
    ("even-even", 24, 24, 4, 2),
]
# Banded matrices, small b: most entries are zero and the recursion skips them.
PFAFFIAN_BANDED = [
    ("even-even", 18, 2, 2, 0), ("a-odd", 17, 2, 6, 6), ("ab-odd", 17, 3, 8, 0),
    ("even-even", 18, 4, 4, 4), ("a-odd", 17, 4, 6, 0), ("ab-odd", 17, 5, 2, 2),
    ("even-even", 18, 6, 8, 2), ("a-odd", 17, 6, 4, 2), ("ab-odd", 17, 7, 6, 2),
    ("even-even", 18, 2, 8, 4), ("a-odd", 17, 2, 2, 0), ("ab-odd", 17, 3, 6, 6),
    ("even-even", 18, 4, 8, 0), ("a-odd", 17, 4, 4, 4), ("even-even", 20, 2, 2, 0),
    ("a-odd", 19, 2, 6, 6), ("ab-odd", 19, 3, 8, 0), ("even-even", 20, 4, 4, 4),
    ("a-odd", 19, 4, 6, 0), ("ab-odd", 19, 5, 2, 2), ("even-even", 20, 6, 8, 2),
    ("a-odd", 19, 6, 4, 2), ("ab-odd", 19, 7, 6, 2), ("even-even", 20, 2, 8, 4),
    ("a-odd", 19, 2, 2, 0), ("ab-odd", 19, 3, 6, 6), ("even-even", 20, 4, 8, 0),
    ("a-odd", 19, 4, 4, 4), ("even-even", 22, 2, 2, 0), ("a-odd", 21, 2, 6, 6),
    ("ab-odd", 21, 3, 8, 0), ("even-even", 22, 4, 4, 4), ("a-odd", 21, 4, 6, 0),
    ("ab-odd", 21, 5, 2, 2), ("even-even", 22, 6, 8, 2), ("a-odd", 21, 6, 4, 2),
    ("ab-odd", 21, 7, 6, 2), ("even-even", 22, 2, 8, 4), ("a-odd", 21, 2, 2, 0),
    ("even-even", 24, 2, 2, 0), ("a-odd", 23, 2, 6, 6), ("ab-odd", 23, 3, 8, 0),
    ("even-even", 24, 4, 4, 4), ("a-odd", 23, 4, 6, 0), ("ab-odd", 23, 5, 2, 2),
    ("even-even", 24, 6, 8, 2), ("a-odd", 23, 6, 4, 2), ("even-even", 26, 2, 2, 0),
    ("a-odd", 25, 2, 6, 6), ("ab-odd", 25, 3, 8, 0), ("even-even", 26, 4, 4, 4),
]


def _verify(identity: str, names: str, values, *extra: str) -> tuple[str, ...]:
    argv = ["verify", identity]
    for name, value in zip(names.split(), values):
        argv += [f"--{name}", str(value)]
    return tuple(argv) + extra


def _all_orders(identity: str, sides) -> list[tuple[str, ...]]:
    """Every orientation of a box whose identity is symmetric in all sides."""
    return [_verify(identity, "a b c", p) for p in sorted(set(itertools.permutations(sides)))]


def _swap_bc(identity: str, sides) -> list[tuple[str, ...]]:
    """The signed product is symmetric in b and c only."""
    a, b, c = sides
    return [_verify(identity, "a b c", p) for p in sorted({(a, b, c), (a, c, b)})]


def _fixed(argv: tuple[str, ...]) -> list[tuple[str, ...]]:
    return [argv]


def _enum() -> list[list[tuple[str, ...]]]:
    ops = []
    ops += [[op] for s in SCPP_EVERY_ORIENTATION for op in _all_orders("scpp", s)]
    ops += [_all_orders("scpp", s) for s in SCPP]
    ops += [_all_orders("box", s) for s in BOX]
    ops += [_swap_bc("signed", s) for s in SIGNED]
    ops += [_all_orders("weight", s) for s in WEIGHT]
    ops += [_fixed(_verify("middle-line", "a b c1 c2", t)) for t in MIDDLE_LINE]
    return ops


def _schur() -> list[list[tuple[str, ...]]]:
    ops = []
    names = "gamma1 gamma2 alpha n"
    for which, tuples in ((1, SCHURID1), (2, SCHURID2)):
        ops += [_fixed(_verify(f"schurid{which}", names, t, "--method", "full-expansion")) for t in tuples]
    for which, tuples in ((1, SWEEP1), (2, SWEEP2)):
        ops += [_fixed(_verify(f"schurid{which}", names, t, "--method", "evaluation-sweep")) for t in tuples]
    ops += [_fixed(_verify("square-reduction", "gamma alpha n", t)) for t in SQUARE]
    ops += [_fixed(_verify("bridge", "gamma alpha m", t)) for t in BRIDGE]
    return ops


def _pfaffian() -> list[list[tuple[str, ...]]]:
    ops = []
    for case, a, b, c1, c2 in PFAFFIAN_DENSE + PFAFFIAN_BANDED:
        argv = ("pfaffian", "--case", case, "--a", str(a), "--b", str(b), "--c1", str(c1), "--c2", str(c2))
        ops.append(_fixed(argv))
    return ops


WORKLOADS = {"enum": _enum, "schur": _schur, "pfaffian": _pfaffian}


def universe(workload: str) -> list[tuple[str, ...]]:
    """Every op that some seed can draw for the workload."""
    return sorted({argv for variants in WORKLOADS[workload]() for argv in variants})


def ops_for(workload: str, seed: int, pass_no: int = 0) -> list[tuple[str, ...]]:
    """The workload's ops for one pass of a run with this seed, in the
    order they run.  Each pass of a run draws its own order and
    orientations, so a run's medians average over several of them."""
    rng = random.Random(f"{workload}/{seed}/{pass_no}")
    ops = [rng.choice(variants) for variants in WORKLOADS[workload]()]
    rng.shuffle(ops)
    return ops
