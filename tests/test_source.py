"""Checks on the package's source text."""

import ast
from pathlib import Path

import pytest

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


def _message(node) -> str | None:
    """The literal message of a raised exception, each formatted value of
    an f-string as "{}"; None for a message that is not a literal."""
    if not (isinstance(node, ast.Call) and node.args):
        return None
    arg = node.args[0]
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return arg.value
    if isinstance(arg, ast.JoinedStr):
        return "".join(part.value if isinstance(part, ast.Constant) else "{}"
                       for part in arg.values)
    return None


def _shared_messages(trees: dict) -> dict:
    """Each literal exception message raised in more than one of the
    modules ``{name: tree}``, with the sorted names of those modules."""
    modules = {}
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and (message := _message(node.exc)) is not None:
                modules.setdefault(message, set()).add(name)
    return {message: sorted(names) for message, names in modules.items() if len(names) > 1}


def test_shared_message_check_sees_literals_and_f_strings():
    one = ast.parse("def f(t):\n"
                    "    raise ValueError(f'bad {t}')\n"
                    "def g(t):\n"
                    "    raise ValueError(f'bad {t + 1}')\n"
                    "def h():\n"
                    "    raise KeyError('once')\n"
                    "def k(e):\n"
                    "    raise e\n")
    two = ast.parse("def f(s):\n"
                    "    raise TypeError(f'bad {s!r}') from None\n"
                    "def g():\n"
                    "    raise KeyError('twice', 1)\n"
                    "def h(m):\n"
                    "    raise KeyError(m)\n")
    three = ast.parse("def f():\n"
                      "    raise OSError('twice')\n")
    assert _shared_messages({"one": one}) == {}
    assert _shared_messages({"one": one, "two": two, "three": three}) == {
        "bad {}": ["one", "two"], "twice": ["three", "two"]}


def test_no_message_is_raised_from_two_modules():
    # a message raised in two modules is a rule kept in two places
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert _shared_messages(trees) == {}


def _raise_sites(trees: dict, phrase: str) -> list:
    """Each raise whose literal message contains ``phrase``, as
    "module:function" ("<module>" outside any function)."""
    return [f"{name}:{around}" for name, tree in trees.items()
            for around, node in _nodes_by_function(tree)
            if isinstance(node, ast.Raise) and phrase in (_message(node.exc) or "")]


def test_raise_site_check_sees_each_spelling():
    tree = ast.parse("def f(e):\n"
                     "    raise ValueError(f'eps must lie in (0, 1), got {e}')\n"
                     "def g(e):\n"
                     "    raise KeyError(f'--eps must lie in (0, 1), got {e!r}') from None\n"
                     "raise OSError('eps must lie in (0, 2)')\n")
    assert _raise_sites({"one": tree}, "eps must lie in (0, 1)") == ["one:f", "one:g"]


@pytest.mark.parametrize("phrase,owner", [
    ("eps must lie in (0, 1)", "status.py:require_eps"),
    ("max_iters must be a non-negative integer", "path.py:require_max_iters"),
])
def test_option_rules_are_raised_by_their_owners_only(phrase, owner):
    # the follower, the status checks and the CLI ask the owner
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert _raise_sites(trees, phrase) == [owner]


def _nodes_by_function(tree: ast.Module):
    """(name of the innermost function around it, node) for every node of
    ``tree``, "<module>" outside any function."""
    def visit(node, around):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            around = node.name
        yield around, node
        for child in ast.iter_child_nodes(node):
            yield from visit(child, around)
    return visit(tree, "<module>")


def _named(node, name: str) -> bool:
    """True if ``node`` is the name ``name`` or an attribute of that name."""
    return name in (getattr(node, "id", None), getattr(node, "attr", None))


def _self_dot_norms(tree: ast.Module) -> list:
    """The function around each ``math.sqrt(v.dot(v))``, for any one
    expression v, by name ("<module>" outside any function)."""
    sqrt = ast.dump(ast.Attribute(ast.Name("math", ast.Load()), "sqrt", ast.Load()))
    return [around for around, node in _nodes_by_function(tree)
            if isinstance(node, ast.Call) and ast.dump(node.func) == sqrt
            and len(node.args) == 1 and isinstance(dot := node.args[0], ast.Call)
            and isinstance(dot.func, ast.Attribute) and dot.func.attr == "dot"
            and len(dot.args) == 1 and ast.dump(dot.args[0]) == ast.dump(dot.func.value)]


def test_self_dot_norm_check_sees_each_spelling():
    tree = ast.parse("import math\n"
                     "top = math.sqrt(v.dot(v))\n"
                     "def f(a, b):\n"
                     "    def g(r):\n"
                     "        return math.sqrt(r.x.dot(r.x))\n"
                     "    return math.sqrt(a.dot(b)) + math.sqrt(a @ a) + sqrt(a.dot(a))\n"
                     "class C:\n"
                     "    def n(self, t):\n"
                     "        return 1 + math.sqrt(t.dot(t))\n")
    assert _self_dot_norms(tree) == ["<module>", "g", "n"]


def test_one_hot_path_norm():
    # barriers._norm is the one spelling of the Euclidean norm on the
    # follower's path; a second copy could drift from its bits
    found = {path.name: _self_dot_norms(ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {"barriers.py": ["_norm"]}


def _tau_positivity_tests(tree: ast.Module) -> list:
    """The function around each ``tau > 0`` comparison, ``0 < tau`` too,
    with tau a name or an attribute, by name ("<module>" outside any
    function)."""
    def is_tau(node):
        return isinstance(node, (ast.Name, ast.Attribute)) and _named(node, "tau")

    def is_zero(node):
        return isinstance(node, ast.Constant) and node.value == 0 and type(node.value) is not bool

    return [around for around, node in _nodes_by_function(tree) if isinstance(node, ast.Compare)
            for left, op, right in zip([node.left, *node.comparators], node.ops, node.comparators)
            if isinstance(op, ast.Gt) and is_tau(left) and is_zero(right)
            or isinstance(op, ast.Lt) and is_zero(left) and is_tau(right)]


def test_tau_positivity_check_sees_each_spelling():
    tree = ast.parse("top = tau > 0.0\n"
                     "def f(it, tau, mu):\n"
                     "    def g(p):\n"
                     "        return 0 < p.tau\n"
                     "    if not it.tau > 0 or tau >= 0.0 or mu > 0.0 or tau > 1.0:\n"
                     "        return 0.0 < tau < 1.0\n"
                     "    return it.taun > 0.0 or tau > False\n")
    assert _tau_positivity_tests(tree) == ["<module>", "g", "f", "f"]


def test_tau_positivity_has_one_owner():
    # model.positive_tau is the one test of tau > 0, and a caller that
    # needs it asks that owner; the stated exceptions report the predicate
    # itself: the "tau > 0" verification check, and the invariants'
    # "tau not positive" message and the gap sandwich it guards
    found = {path.name: _tau_positivity_tests(ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {
        "model.py": ["positive_tau"], "path.py": ["_check_invariants", "_check_invariants"],
        "status.py": ["_add_image_check"]}


def _callers(tree: ast.Module, name: str) -> list:
    """The function around each call of ``name``, a name or an attribute."""
    return [around for around, node in _nodes_by_function(tree)
            if isinstance(node, ast.Call) and _named(node.func, name)]


def _tau_over_mu(tree: ast.Module) -> list:
    """The function around each ``float(tau) / float(mu)``, tau and mu
    names or attributes."""
    def float_of(node, name):
        return (isinstance(node, ast.Call) and _named(node.func, "float")
                and len(node.args) == 1 and _named(node.args[0], name))
    return [around for around, node in _nodes_by_function(tree)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
            and float_of(node.left, "tau") and float_of(node.right, "mu")]


def test_per_point_check_sees_each_spelling():
    tree = ast.parse("top = shifted_image(p, s, x, t)\n"
                     "def f(it, mu):\n"
                     "    def g(p):\n"
                     "        return model.shifted_image(p, s, p.x, p.tau), make_iterate\n"
                     "    v = (float(it.tau) / float(mu)) * it.y + float(tau) * float(mu)\n"
                     "    return make_iterate(p, s, 0, 1, y), float(tau) / mu, tau / float(mu)\n"
                     "class C:\n"
                     "    def h(self, tau, mu):\n"
                     "        return self.make_iterate(), 2 * (float(tau) / float(self.mu))\n")
    assert _callers(tree, "shifted_image") == ["<module>", "g"]
    assert _callers(tree, "make_iterate") == ["f", "h"]
    assert _tau_over_mu(tree) == ["f", "h"]


def test_each_follower_point_is_formed_once():
    # path._evaluate forms every point's shifted image, the mu = 1
    # anchor's included, and the follower forms no plain iterate: the step
    # that puts a point at its own mu reads the image the point carries.
    # model._scale_dual forms v = (tau/mu) y for scaled_dual, proximity_at
    # and the status checks, and with it asks mu > 0
    path = ast.parse((PACKAGE / "path.py").read_text(encoding="utf-8"))
    model = ast.parse((PACKAGE / "model.py").read_text(encoding="utf-8"))
    status = ast.parse((PACKAGE / "status.py").read_text(encoding="utf-8"))
    assert _callers(path, "shifted_image") == ["_evaluate"]
    assert _callers(path, "make_iterate") == []
    assert _tau_over_mu(model) == ["_scale_dual"]
    assert _callers(status, "_scale_dual") == ["check_status", "strict_infeasibility_certificate"]


POINT_TYPES = ("_Point", "_Accepted", "Iterate")
STEP_NAMES = ("residuals", "predictor_step", "corrector_step", "Residuals")
MODEL_ONLY_NAMES = ("default_z0", "in_qdd", "make_iterate", "proximity")


def _point_type_tests(tree: ast.Module) -> list:
    """The function around each ``isinstance`` test against one of
    POINT_TYPES, alone or in a tuple of types, a name or an attribute."""
    def types(node):
        return node.elts if isinstance(node, ast.Tuple) else [node]
    return [around for around, node in _nodes_by_function(tree)
            if isinstance(node, ast.Call) and _named(node.func, "isinstance")
            and len(node.args) == 2
            and any(_named(t, name) for t in types(node.args[1]) for name in POINT_TYPES)]


def _exported(tree: ast.Module, names) -> list:
    """Each of ``names`` that the module's top level imports (under any
    alias) or binds (as an import alias or an assignment target)."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [alias.name if alias.name in names else alias.asname
                      for alias in node.names]
        elif isinstance(node, ast.Assign):
            found += [t.id for t in node.targets if isinstance(t, ast.Name)]
    return [name for name in found if name in names]


def test_point_type_check_sees_each_spelling():
    tree = ast.parse("top = isinstance(p, _Point)\n"
                     "def f(p):\n"
                     "    def g(q):\n"
                     "        return isinstance(q, (float, path._Accepted))\n"
                     "    return isinstance(p, model.Iterate), isinstance(p, Point), type(p)\n"
                     "class C:\n"
                     "    def h(self, p):\n"
                     "        return isinstance(p, (Iterate,)) or isinstance(p)\n")
    assert _point_type_tests(tree) == ["<module>", "g", "f", "h"]
    tree = ast.parse("from .path import follow, residuals\n"
                     "from .path import corrector_step as step, TraceRow as Residuals\n"
                     "from .model import proximity_at\n"
                     "predictor_step = None\n"
                     "def f():\n"
                     "    from .path import predictor_step\n")
    assert _exported(tree, STEP_NAMES) == ["residuals", "corrector_step", "Residuals",
                                           "predictor_step"]


def test_steps_take_follower_points_only():
    # the path steps have one input type, a follower point: they test no
    # point's type and ask no mu > 0, since only follow, which forms
    # every point it hands them, calls them; so they are not exported,
    # nor are the model functions that no solve calls
    path = ast.parse((PACKAGE / "path.py").read_text(encoding="utf-8"))
    init = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert _point_type_tests(path) == []
    assert _callers(path, "_scale_dual") == []
    assert _exported(init, STEP_NAMES + MODEL_ONLY_NAMES) == []


def test_atom_kinds_are_known_in_barriers_only():
    # the parser reads each kind's rules from barriers' tables and names
    # no kind itself
    cli = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    kinds = ("SOC", "BOX", "HALFLINE_LOWER", "HALFLINE_UPPER")
    assert [kind for node in ast.walk(cli) for kind in kinds if _named(node, kind)] == []


def test_one_loop_evaluates_the_barrier_groups():
    # each group's evaluate returns its gradient and its metric block, and
    # grad_hess is the one loop that calls it: grad and hess read its two
    # halves, so no second loop can drift from it
    barriers = ast.parse((PACKAGE / "barriers.py").read_text(encoding="utf-8"))
    assert _callers(barriers, "evaluate") == ["grad_hess"]


ATOM_TABLES = ("ATOM_THETA", "ATOM_CONE", "ATOM_BOUNDS")


def _table_readers(tree: ast.Module) -> dict:
    """For each of ATOM_TABLES, the functions around its reads, a name or
    an attribute, sorted and each named once ("<module>" outside any
    function)."""
    found = {name: set() for name in ATOM_TABLES}
    for around, node in _nodes_by_function(tree):
        for name in ATOM_TABLES:
            if _named(node, name) and isinstance(node.ctx, ast.Load):
                found[name].add(around)
    return {name: sorted(functions) for name, functions in found.items()}


def test_table_reader_check_sees_each_spelling():
    tree = ast.parse("top = barriers.ATOM_THETA\n"
                     "def f(kind):\n"
                     "    def g():\n"
                     "        return ATOM_CONE[kind], barriers.ATOM_CONE\n"
                     "    return barriers.ATOM_BOUNDS[kind], ATOM_CONES\n"
                     "def h(ATOM_THETA):\n"
                     "    ATOM_BOUNDS = 1\n")
    assert _table_readers(tree) == {"ATOM_THETA": ["<module>"], "ATOM_CONE": ["g"],
                                    "ATOM_BOUNDS": ["f"]}


def test_one_walk_reads_the_atom_tables():
    # the parser tests each kind's rules in one walk over a file's atom
    # list, so a second reader of the tables would be a second copy of
    # the rules, free to drift from the first
    cli = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    assert _table_readers(cli) == {name: ["_atom_list"] for name in ATOM_TABLES}


def _raw_certificate_reads(tree: ast.Module) -> list:
    """The function around each read of ``cert.x``, ``cert.y``,
    ``cert.tau`` or ``cert.eps`` that is not an argument of ``_vector`` or
    ``_real``, as "function:field"."""
    owned = {arg for node in ast.walk(tree) if isinstance(node, ast.Call)
             and (_named(node.func, "_vector") or _named(node.func, "_real")) for arg in node.args}
    return [f"{around}:{node.attr}" for around, node in _nodes_by_function(tree)
            if isinstance(node, ast.Attribute) and node.attr in ("x", "y", "tau", "eps")
            and _named(node.value, "cert") and isinstance(node.ctx, ast.Load)
            and node not in owned]


def test_raw_certificate_read_check_sees_each_spelling():
    tree = ast.parse("top = cert.eps\n"
                     "def f(cert, point):\n"
                     "    x, tau = _vector(cert.x, 3), status._real(cert.tau)\n"
                     "    cert.y = None\n"
                     "    return point.x, cert.kind, _vector(cert.y + 1, 2), g(cert.eps)\n")
    assert _raw_certificate_reads(tree) == ["<module>:eps", "f:y", "f:eps"]


def test_certificate_fields_are_read_by_their_owners_only():
    # status._real and status._vector own a certificate's input rule: a
    # field is finite real numbers of its shape or it is missing, so a
    # check that read a field itself could pass on a non-finite one
    status = ast.parse((PACKAGE / "status.py").read_text(encoding="utf-8"))
    assert _raw_certificate_reads(status) == []
