"""Checks on the package's source text."""

import ast
from pathlib import Path

import ddsolve

PACKAGE = Path(ddsolve.__file__).parent


def _unread_parameters(tree: ast.Module) -> list:
    """Each parameter, ``self`` excepted, that no name in its function's
    body reads (nested functions included), as "function.parameter"."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = fn.args
        params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                  args.vararg, args.kwarg) if a is not None]
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        read = {node.id for stmt in body for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        name = getattr(fn, "name", "<lambda>")
        found += [f"{name}.{p}" for p in params if p != "self" and p not in read]
    return found


def test_unread_parameter_check_sees_each_kind_of_read():
    tree = ast.parse("def f(self, a, b, *c, d, **e):\n"
                     "    def g():\n"
                     "        return a\n"
                     "    b = 1\n"
                     "    return lambda k, j: k + g(*c)\n")
    assert sorted(_unread_parameters(tree)) == ["<lambda>.j", "f.b", "f.d", "f.e"]


def test_every_parameter_is_read():
    # a parameter no body reads is an argument every caller forms for nothing
    unread = {}
    for path in sorted(PACKAGE.glob("*.py")):
        found = _unread_parameters(ast.parse(path.read_text(encoding="utf-8")))
        if found:
            unread[path.name] = found
    assert unread == {}
