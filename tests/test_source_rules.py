"""Rules on the package sources themselves, checked without running them."""

import ast
from pathlib import Path

import cfrs

SOURCES = sorted(Path(cfrs.__file__).resolve().parent.glob("*.py"))


def test_sources_have_no_assert_statements():
    # python -O strips assert statements, so a self-check written as one
    # would silently stop checking; raise InternalError instead
    assert len(SOURCES) >= 10
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
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
    "maximum_antichain": "the planned `width`, computed as the size of this antichain",
}


def _names(node, skip=None) -> set[str]:
    """Every name, attribute, imported name and string constant under
    ``node``, except inside ``skip``."""
    found = set()
    stack = [node]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_every_public_definition_has_a_caller():
    # the package ships only what its commands, solvers and benchmark run:
    # each public top-level function or class and each public method must be
    # named somewhere in src/cfrs outside its own definition and outside
    # __init__, or in bench/ (whose traced stages name functions by string).
    # Matching is by name, so a method sharing a used name passes
    bench = Path(__file__).resolve().parents[1] / "bench"
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in SOURCES if path.stem != "__init__"}
    refs = {stem: _names(tree) for stem, tree in trees.items()}
    refs["bench"] = set().union(*(_names(ast.parse(path.read_text(encoding="utf-8")))
                                  for path in sorted(bench.glob("*.py"))))
    defined, unused = set(), []
    for stem, tree in trees.items():
        others = set().union(*(names for s, names in refs.items() if s != stem))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or \
                    node.name.startswith("_"):
                continue
            defs = [(node.name, node)]
            if isinstance(node, ast.ClassDef):
                defs += [(f"{node.name}.{item.name}", item) for item in node.body
                         if isinstance(item, ast.FunctionDef)
                         and not item.name.startswith("_")]
            for qualified, definition in defs:
                name = qualified.rsplit(".", 1)[-1]
                defined.add(name)
                if name not in KEEP and name not in others | _names(tree, skip=definition):
                    unused.append(f"{stem}.{qualified}")
    assert unused == []
    assert set(KEEP) <= defined
