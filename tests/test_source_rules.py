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
