"""Guards on the layout of the package: ``scpp`` holds production code only.

Every top-level function, class and constant of a ``src/scpp`` module is
read somewhere in ``src/`` or ``scripts/`` outside its own definition; code
that only the tests call belongs in ``tests/oracles.py``.  A name counts
as read from another file only where that file imports it and then reads
it.
"""

import ast
import importlib
import types
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "scpp").glob("*.py"))
TREES = {path: ast.parse(path.read_text(), filename=str(path)) for path in SRC}
TREES.update(
    (path, ast.parse(path.read_text(), filename=str(path)))
    for path in sorted((ROOT / "scripts").glob("*.py"))
)

# (module, name) pairs that nothing in the repo needs to read
ENTRY_POINTS = {("cli", "main"), ("__init__", "__version__")}


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
    """How often each bare name is read in ``tree``, outside the node ``skip``."""
    reads = Counter()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads[node.id] += 1
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
