"""Rules on the package sources themselves, checked without running them."""

import ast
from pathlib import Path

import cfrs

SOURCES = sorted(Path(cfrs.__file__).resolve().parent.glob("*.py"))


def test_sources_have_no_assert_statements():
    # python -O strips assert statements, so a self-check written as one
    # would silently stop checking; raise InternalError instead.  -O also
    # sets __debug__ to False, so the package never names it
    assert len(SOURCES) >= 10
    found = []
    for path in SOURCES:
        text = path.read_text(encoding="utf-8")
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(ast.parse(text, str(path)))
                  if isinstance(node, ast.Assert)]
        found += [f"{path.name}:{number} __debug__"
                  for number, line in enumerate(text.splitlines(), 1) if "__debug__" in line]
    assert found == []


def test_sources_import_no_test_code():
    # the oracles and references live in tests/; the package must run
    # without the test suite or its dependencies installed
    banned = {"tests", "pytest", "hypothesis"}
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {module}" for module in modules
                      if module.split(".")[0] in banned]
    assert found == []


def test_every_exported_name_resolves():
    missing = [name for name in cfrs.__all__ if not hasattr(cfrs, name)]
    assert missing == []
    assert len(set(cfrs.__all__)) == len(cfrs.__all__)


# public definitions that nothing in the package or the benchmark calls, each
# kept on purpose
KEEP = {
    "split_to_branching": "the paper's split-to-branching direction, documented in README",
}


def _names(node, skip=None, bare=True) -> set[str]:
    """Every attribute and string constant under ``node``, except inside
    ``skip``, and with ``bare`` every name and imported name too."""
    found = set()
    stack = [node]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
        elif bare and isinstance(node, ast.Name):
            found.add(node.id)
        elif bare and isinstance(node, ast.alias):
            found.add(node.name.rsplit(".", 1)[-1])
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_every_public_definition_has_a_caller():
    # the package ships only what its commands, solvers and benchmark run:
    # each public top-level function or class must be named somewhere in
    # src/cfrs outside its own definition and outside __init__, or in bench/
    # (whose traced stages name functions by string); each public method
    # must be read as an attribute (x.name) or named in a string constant in
    # the same places, so a local variable that shares its name does not
    # count
    bench = Path(__file__).resolve().parents[1] / "bench"
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in SOURCES if path.stem != "__init__"}
    bench_tree = ast.Module([ast.parse(path.read_text(encoding="utf-8"))
                             for path in sorted(bench.glob("*.py"))], [])
    refs = {stem: _names(tree) for stem, tree in trees.items()}
    attrs = {stem: _names(tree, bare=False) for stem, tree in trees.items()}
    refs["bench"], attrs["bench"] = _names(bench_tree), _names(bench_tree, bare=False)
    defined, unused = set(), []
    for stem, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or \
                    node.name.startswith("_"):
                continue
            defs = [(node.name, node, True)]
            if isinstance(node, ast.ClassDef):
                defs += [(f"{node.name}.{item.name}", item, False) for item in node.body
                         if isinstance(item, ast.FunctionDef)
                         and not item.name.startswith("_")]
            for qualified, definition, bare in defs:
                name = qualified.rsplit(".", 1)[-1]
                defined.add(name)
                used = set().union(*(names for s, names in (refs if bare else attrs).items()
                                     if s != stem))
                if name not in KEEP and name not in used | _names(tree, definition, bare):
                    unused.append(f"{stem}.{qualified}")
    assert unused == []
    assert set(KEEP) <= defined
