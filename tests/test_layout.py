"""Guards on the layout of the package: ``scpp`` holds production code only,
and the two sides of each identity stay two routes.

Every top-level function, class and constant of a ``src/scpp`` module is
read somewhere in ``src/`` or ``scripts/`` outside its own definition; code
that only the tests call belongs in ``tests/oracles.py``.  A name counts
as read from another file only where that file imports it and then reads
it.  The same holds one level down: every method, property and
classmethod of a class in ``src/scpp``, dunders aside, is read as an
attribute (``x.name``) in ``src/`` or ``scripts/`` outside its own body,
or is listed as read by the benchmark or the standard library.  Every
defaulted parameter of a ``src/scpp`` function or method is passed by some
call in ``src/`` or ``scripts/``.  No ``src/scpp`` code compares a budget
with ``None``.  No ``except`` clause in ``src/scpp`` or ``scripts/`` outside
``scpp.verify`` names an exception whose meaning its ``FAILURES`` states.
No ``src/scpp`` module but ``scpp.budget``, whose ``KEPT`` is the one store
of values kept between calls, changes a module-level value of its own.

Each row of ``IDENTITIES`` has its two sides traced, one at a time under
``sys.setprofile``, on a few tuples of its standard grid.  The ``scpp``
functions that both sides call, ``scpp.budget`` aside, must be the ones
its ``shares`` lists, no more and no fewer.
"""

import ast
import dataclasses
import importlib
import sys
import types
from collections import Counter
from functools import partial
from pathlib import Path

from conftest import fresh_kept
from scpp.budget import WorkBudget
from scpp.pfaffian import corollary_matrix
from scpp.plane_partitions import count_scpp
from scpp.verify import IDENTITIES

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "scpp").glob("*.py"))
TREES = {path: ast.parse(path.read_text(), filename=str(path)) for path in SRC}
TREES.update(
    (path, ast.parse(path.read_text(), filename=str(path)))
    for path in sorted((ROOT / "scripts").glob("*.py"))
)

# (module, name) pairs that nothing in the repo needs to read
ENTRY_POINTS = {("cli", "main"), ("__init__", "__version__")}

# (module, "Class.member") pairs that only the benchmark reads
BENCH_READS = {
    # bench/tracing.py reads it through getattr for pp.objects
    ("plane_partitions", "SignedCount.total"),
    # bench/tracing.py reads it for pf.dim_max; the integer kernels need no dimension
    ("pfaffian", "SkewSymmetricMatrix.dim"),
}

# (module, "Class.member") pairs that the standard library reads
LIBRARY_READS = {
    # argparse reports every parse error through the parser's error()
    ("cli", "_Parser.error"),
}


def _definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id, node
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, node


def _reads(tree, skip=None) -> Counter:
    """How often each bare name, and each attribute as ``.attr``, is read in
    ``tree``, outside the node ``skip``."""
    reads = Counter()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads["." + node.attr] += 1
        stack.extend(ast.iter_child_nodes(node))
    return reads


def _read_elsewhere(module: str) -> set[str]:
    """Names of ``scpp.<module>`` that another file imports and then reads."""
    names = set()
    for tree in TREES.values():
        reads = _reads(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == f"scpp.{module}":
                names.update(a.name for a in node.names if reads[a.asname or a.name])
    return names


def test_every_top_level_name_is_used_outside_the_tests():
    unused = []
    for path in SRC:
        module = path.stem
        elsewhere = _read_elsewhere(module)
        for name, node in _definitions(TREES[path]):
            if (module, name) in ENTRY_POINTS or name in elsewhere:
                continue
            if not _reads(TREES[path], skip=node)[name]:
                unused.append(f"{module}.{name}")
    assert unused == []


def _members(tree):
    """("Class.member", node) for each non-dunder method of a top-level class."""
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    node.name.startswith("__") and node.name.endswith("__")
                ):
                    yield f"{cls.name}.{node.name}", node


def test_every_class_member_is_read_outside_the_tests():
    everywhere = sum((_reads(tree) for tree in TREES.values()), Counter())
    unused = []
    for path in SRC:
        for member, node in _members(TREES[path]):
            key = "." + node.name
            if (path.stem, member) in BENCH_READS | LIBRARY_READS:
                continue
            if everywhere[key] == _reads(node)[key]:
                unused.append(f"{path.stem}.{member}")
    assert unused == []


def _functions(body, in_class=False):
    """(qualified name, node, is a method) for each function defined in
    ``body``, nested ones included."""
    for node in body:
        if isinstance(node, ast.ClassDef):
            for name, fn, method in _functions(node.body, True):
                yield f"{node.name}.{name}", fn, method
        elif isinstance(node, ast.FunctionDef):
            yield node.name, node, in_class
            for name, fn, _ in _functions(node.body):
                yield f"{node.name}.{name}", fn, False


def _defaulted(fn) -> list[tuple[int | None, str]]:
    """(position, name) of each defaulted parameter; None for keyword-only."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
    return out + [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]


def _calls() -> dict[str, list[tuple[bool, int, set[str]]]]:
    """For each called name, bare or as an attribute, one (as an attribute,
    positional count, keyword names) triple per call in ``src/`` or
    ``scripts/``; a starred argument passes every position, a ``**`` every
    keyword (named "**")."""
    calls = {}
    for tree in TREES.values():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            count = 1 << 30 if starred else len(node.args)
            keywords = {k.arg or "**" for k in node.keywords}
            calls.setdefault(name, []).append((isinstance(func, ast.Attribute), count, keywords))
    return calls


def _identity_arguments() -> dict[tuple[str, str], set[str]]:
    """What ``Identity.run`` passes each side, and each sweep, of
    ``IDENTITIES`` by keyword: ``budget``."""
    passed = {}
    for identity in IDENTITIES.values():
        for side in (identity.lhs, identity.rhs, identity.sweep):
            side = side.func if isinstance(side, partial) else side
            if side is not None:
                passed[(side.__module__.rpartition(".")[2], side.__qualname__)] = {"budget"}
    return passed


def test_every_defaulted_parameter_is_passed_somewhere():
    # a default that no call overrides is a constant, or a knob nobody turns;
    # a recursive call counts as a call
    calls, by_identity = _calls(), _identity_arguments()
    unpassed = []
    for path in SRC:
        module = path.stem
        for qualname, fn, method in _functions(TREES[path].body):
            if (module, qualname) in ENTRY_POINTS:
                continue
            name = fn.name
            if name == "__init__":
                name = qualname.split(".")[-2]  # called as the class
            elif name.startswith("__") and name.endswith("__"):
                continue
            for position, param in _defaulted(fn):
                if param in by_identity.get((module, qualname), ()):
                    continue
                for attribute, count, keywords in calls.get(name, []):
                    offset = 1 if method and (attribute or fn.name == "__init__") else 0
                    if param in keywords or "**" in keywords:
                        break
                    if position is not None and position - offset < count:
                        break
                else:
                    unpassed.append(f"{module}.{qualname}({param})")
    assert unpassed == []


def _is_budget(node) -> bool:
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")
    return "budget" in name


def test_no_budget_is_compared_with_none():
    # a missing budget means a fresh WorkBudget() at the route's entry, never
    # a branch that skips charging
    sites = []
    for path in SRC:
        for node in ast.walk(TREES[path]):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                pair = (left, right)
                if isinstance(op, (ast.Is, ast.IsNot)) and any(
                    isinstance(x, ast.Constant) and x.value is None for x in pair
                ) and any(_is_budget(x) for x in pair):
                    sites.append(f"{path.stem}:{node.lineno}")
    assert sites == []


# the exceptions that only scpp.verify.FAILURES may name in a handler; the
# parsing handlers of the CLI name ZeroDivisionError and ValueError
TABLED = {"BudgetExceededError", "RuntimeError", "LookupError", "ArithmeticError", "MemoryError"}


def test_only_the_failure_table_names_a_checks_exceptions():
    # verify, sweep and run_all_checks.py read one table of what a failed
    # check means, so none of them keeps a list of its own
    sites = []
    for path, tree in TREES.items():
        if path == ROOT / "src" / "scpp" / "verify.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                named = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node.type)}
                if named & TABLED:
                    sites.append(f"{path.parent.name}/{path.name}:{node.lineno}")
    assert sites == []


# the methods that change a list, dict or set in place
MUTATORS = {
    "append", "extend", "insert", "pop", "popitem", "remove", "clear", "update", "setdefault",
    "add", "discard", "move_to_end", "sort", "reverse",
}


def _mutable_classes() -> set[str]:
    """The classes of ``src/scpp`` with a method, ``__init__`` aside, that
    assigns to an attribute of ``self``."""
    names = set()
    for path in SRC:
        for cls in TREES[path].body:
            if not isinstance(cls, ast.ClassDef):
                continue
            methods = [fn for fn in cls.body if isinstance(fn, ast.FunctionDef) and fn.name != "__init__"]
            stores = (
                node for fn in methods for node in ast.walk(fn)
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del))
            )
            if any(getattr(node.value, "id", None) == "self" for node in stores):
                names.add(cls.name)
    return names


def _mutated(tree, classes) -> set[str]:
    """The module-level values of ``tree`` that its code changes: a store or
    ``del`` through a subscript or an attribute, a ``MUTATORS`` call, a
    ``global`` rebinding, or an instance of one of ``classes``."""
    values = {
        name: node for name, node in _definitions(tree) if isinstance(node, (ast.Assign, ast.AnnAssign))
    }
    mutated = {
        name for name, node in values.items()
        if isinstance(node.value, ast.Call) and getattr(node.value.func, "id", None) in classes
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            mutated.update(set(node.names) & set(values))
            continue
        if isinstance(node, (ast.Subscript, ast.Attribute)) and isinstance(node.ctx, (ast.Store, ast.Del)):
            base = node.value
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) in MUTATORS:
            base = node.func.value
        else:
            continue
        while isinstance(base, (ast.Subscript, ast.Attribute)):
            base = base.value
        if isinstance(base, ast.Name) and base.id in values:
            mutated.add(base.id)
    return mutated


def test_only_the_store_keeps_values_between_calls():
    # a value a module changes outlives the call that changed it; only
    # scpp.budget.KEPT may, under its one bound
    classes = _mutable_classes()
    kept = [
        f"{path.stem}.{name}" for path in SRC if path.stem != "budget"
        for name in sorted(_mutated(TREES[path], classes))
    ]
    assert kept == []
    # the guard sees each kind of change
    source = (
        "_seen = {}\n_order = []\n_count = 0\n_box = Box()\nFROZEN = (1, 2)\n"
        "def f(k):\n    global _count\n    _seen[k] = FROZEN[0]\n    _order.append(k)\n"
    )
    assert _mutated(ast.parse(source), {"Box"}) == {"_seen", "_order", "_count", "_box"}


def test_no_src_module_imports_from_the_tests():
    test_modules = {"tests"} | {p.stem for p in (ROOT / "tests").glob("*.py")}
    for path in SRC:
        for node in ast.walk(TREES[path]):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                roots = [node.module.split(".")[0]]
            else:
                continue
            assert not test_modules.intersection(roots), (path.name, roots)


def test_pfaffian_submodule_is_not_shadowed():
    importlib.import_module("scpp.pfaffian")
    import scpp

    assert isinstance(scpp.pfaffian, types.ModuleType)


def _traced(side, values) -> set[str]:
    """``module.qualname`` of each ``scpp`` function that ``side`` calls at
    ``values``, ``scpp.budget`` aside; code nested in a function (a closure,
    a comprehension) counts as that function.  Each side runs on an empty
    store, so that a value kept earlier cannot hide a shared route."""
    called = set()

    def profile(frame, event, arg):
        module = frame.f_globals.get("__name__", "")
        if event == "call" and module.startswith("scpp.") and module != "scpp.budget":
            called.add(f"{module[5:]}.{frame.f_code.co_qualname.split('.<locals>')[0]}")

    with fresh_kept():
        sys.setprofile(profile)
        try:
            side(*values, budget=WorkBudget())
        finally:
            sys.setprofile(None)
    return called


def _sharing(identity, tuples) -> tuple[list[str], list[str]]:
    """The functions both sides of ``identity`` call on some of ``tuples``
    that its ``shares`` leaves out, and those it lists that they never
    both call."""
    shared = set().union(*(_traced(identity.lhs, t) & _traced(identity.rhs, t) for t in tuples))
    declared = set(identity.shares)
    return sorted(shared - declared), sorted(declared - shared)


def _sample(identity) -> list[tuple]:
    """Four tuples spread over the standard grid, its first left out."""
    tuples = list(identity.grid)
    return [tuples[len(tuples) * k // 4] for k in (1, 2, 3)] + [tuples[-1]]


def test_the_sides_of_each_identity_share_only_what_it_declares():
    # the routes checked against each other stay two routes
    sharing = {name: _sharing(identity, _sample(identity)) for name, identity in IDENTITIES.items()}
    assert {name: s for name, s in sharing.items() if s != ([], [])} == {}


def test_the_guard_sees_a_route_both_sides_take():
    # two sides that both enumerate: the guard must name the shared count
    both_count = dataclasses.replace(
        IDENTITIES["scpp"], rhs=lambda a, b, c, budget: count_scpp(a, b, c, budget) + 0
    )
    undeclared, _ = _sharing(both_count, [(2, 2, 2)])
    assert "plane_partitions.count_scpp" in undeclared
    # a product side that also builds the matrix: the guard must name the build
    pfaffian = IDENTITIES["pfaffian"]

    def product_and_build(a, b, c1, c2, budget):
        corollary_matrix("a-odd", a, b, c1, c2)
        return pfaffian.rhs(a, b, c1, c2, budget=budget)

    both_build = dataclasses.replace(pfaffian, rhs=product_and_build)
    undeclared, _ = _sharing(both_build, [(3, 2, 4, 2)])
    assert "pfaffian.corollary_matrix" in undeclared
