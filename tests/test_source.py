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


def _orphans(trees: list) -> list:
    """Each private function, method or class (one leading underscore)
    whose name no code outside its own definitions reads, as a name or an
    attribute.  Names are matched as text, so a method counts as read
    wherever any object's attribute of that name is read."""
    defs, reads = {}, {}
    for tree in trees:
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")):
                defs.setdefault(node.name, []).append(node)
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else None)
            if name is not None and isinstance(node.ctx, ast.Load):
                reads.setdefault(name, set()).add(node)
    found = []
    for name, nodes in defs.items():
        inside = {sub for node in nodes for sub in ast.walk(node)}
        if not reads.get(name, set()) - inside:
            found.append(name)
    return sorted(found)


def test_orphan_check_sees_each_kind_of_read():
    tree = ast.parse("class _Used:\n"
                     "    def _method(self):\n"
                     "        return self._method()\n"
                     "    def _called(self):\n"
                     "        return 1\n"
                     "def _recursive(n):\n"
                     "    return _recursive(n - 1)\n"
                     "def _helper():\n"
                     "    return _Used()._called()\n"
                     "def public():\n"
                     "    _unread = 1\n"
                     "    return _helper\n"
                     "def __dunder__():\n"
                     "    pass\n")
    assert _orphans([tree]) == ["_method", "_recursive"]


def test_every_private_definition_is_read():
    # a private helper nothing calls is code no path runs; reads in other
    # modules of the package count
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))]
    assert _orphans(trees) == []
