import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "miflab").glob("*.py"))


def self_calls(tree):
    """Names of the functions that call themselves by name, directly or
    as self.name / cls.name."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for call in ast.walk(fn):
            if not isinstance(call, ast.Call):
                continue
            f = call.func
            if (isinstance(f, ast.Name) and f.id == fn.name
                    or isinstance(f, ast.Attribute) and f.attr == fn.name
                    and isinstance(f.value, ast.Name) and f.value.id in ("self", "cls")):
                found.append(fn.name)
                break
    return found


def test_scan_finds_recursion():
    tree = ast.parse("def f(n):\n    def g():\n        return g()\n    return f(n - 1)\n")
    assert sorted(self_calls(tree)) == ["f", "g"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_function_in_the_package_calls_itself(path):
    # deep inputs must not hit the interpreter's recursion limit
    assert self_calls(ast.parse(path.read_text())) == []
