"""Every parameter of every function in the package is read by its body
(a nested function or lambda reading it counts): a parameter that nothing
reads is surface to delete."""

import ast
from pathlib import Path

import pytest

from stablesde import cli

SRC = Path(cli.__file__).resolve().parent


def unread_parameters(path: Path) -> list:
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs
                  + [a.vararg, a.kwarg] if p is not None]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [f"{path.name}:{node.lineno} {node.name}({p})" for p in params
                  if p not in read]
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert unread_parameters(path) == []


def test_scan_finds_an_unread_parameter(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("def f(a, b, *, c, **d):\n    return b + (lambda: c)()\n")
    assert unread_parameters(src) == ["m.py:1 f(a)", "m.py:1 f(d)"]
