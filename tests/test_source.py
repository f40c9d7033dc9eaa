"""Checks on the package's source text."""

import ast
from pathlib import Path

import pytest

import ddsolve

PACKAGE = Path(ddsolve.__file__).parent
# each package module's tree, parsed once, by file name
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted(PACKAGE.glob("*.py"))}


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
    unread = {name: found for name, tree in TREES.items() if (found := _unread_parameters(tree))}
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
    assert _orphans(list(TREES.values())) == []


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
    assert _shared_messages(TREES) == {}


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


def _sites(tree: ast.Module, match) -> list:
    """The function around each node of ``tree`` that the matcher ``match``
    finds, by name, in source order ("<module>" outside any function).  A
    matcher takes a module's tree and returns a node test."""
    test = match(tree)
    return [around for around, node in _nodes_by_function(tree) if test(node)]


def _named(node, name: str) -> bool:
    """True if ``node`` is the name ``name`` or an attribute of that name."""
    return name in (getattr(node, "id", None), getattr(node, "attr", None))


def raises(phrase: str):
    """Matcher: each raise whose literal message contains ``phrase``."""
    return lambda tree: lambda node: (isinstance(node, ast.Raise)
                                      and phrase in (_message(node.exc) or ""))


def calls(*names):
    """Matcher: each call of one of ``names``, spelt as that name or as an
    attribute ending in it ("json.load" matches ``json.load``, not ``load``)."""
    ends = tuple(f".{name}" for name in names)
    return lambda tree: lambda node: (isinstance(node, ast.Call)
                                      and f".{ast.unparse(node.func)}".endswith(ends))


def method_calls(*names):
    """Matcher: each call of an attribute named one of ``names``; a plain
    name, such as a parameter called ``value``, is not a method."""
    return lambda tree: lambda node: (isinstance(node, ast.Call)
                                      and isinstance(node.func, ast.Attribute)
                                      and node.func.attr in names)


def reads(name: str):
    """Matcher: each read of ``name``, a name or an attribute."""
    return lambda tree: lambda node: _named(node, name) and isinstance(node.ctx, ast.Load)


def mentions(*ids):
    """Matcher: each name, attribute, parameter or keyword spelt as one of
    ``ids``, read or bound."""
    return lambda tree: lambda node: any(
        _named(node, name) or getattr(node, "arg", None) == name for name in ids)


def self_dot_norm(tree: ast.Module):
    """Matcher: each ``math.sqrt(v.dot(v))``, for any one expression v."""
    return lambda node: (
        isinstance(node, ast.Call) and ast.unparse(node.func) == "math.sqrt"
        and len(node.args) == 1 and isinstance(dot := node.args[0], ast.Call)
        and isinstance(dot.func, ast.Attribute) and dot.func.attr == "dot"
        and len(dot.args) == 1 and ast.dump(dot.args[0]) == ast.dump(dot.func.value))


def tau_positivity(tree: ast.Module):
    """Matcher: each comparison holding ``tau > 0`` or ``0 < tau``, tau a
    name or an attribute."""
    def is_zero(node):
        return isinstance(node, ast.Constant) and node.value == 0 and type(node.value) is not bool

    return lambda node: isinstance(node, ast.Compare) and any(
        isinstance(op, ast.Gt) and _named(left, "tau") and is_zero(right)
        or isinstance(op, ast.Lt) and is_zero(left) and _named(right, "tau")
        for left, op, right in zip([node.left, *node.comparators], node.ops, node.comparators))


def tau_over_mu(tree: ast.Module):
    """Matcher: each ``float(tau) / float(mu)``, tau and mu names or
    attributes."""
    def float_of(node, name):
        return (isinstance(node, ast.Call) and _named(node.func, "float")
                and len(node.args) == 1 and _named(node.args[0], name))
    return lambda node: (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
                         and float_of(node.left, "tau") and float_of(node.right, "mu"))


POINT_TYPES = ("_Point", "_Accepted", "Iterate")


def point_type_test(tree: ast.Module):
    """Matcher: each ``isinstance`` test against one of POINT_TYPES, alone
    or in a tuple of types, a name or an attribute."""
    def types(node):
        return node.elts if isinstance(node, ast.Tuple) else [node]
    return lambda node: (isinstance(node, ast.Call) and _named(node.func, "isinstance")
                         and len(node.args) == 2
                         and any(_named(t, name) for t in types(node.args[1])
                                 for name in POINT_TYPES))


def raw_certificate_read(tree: ast.Module):
    """Matcher: each read of ``cert.x``, ``cert.y``, ``cert.tau`` or
    ``cert.eps`` that is not an argument of ``_vector`` or ``_real``."""
    owner = calls("_vector", "_real")(tree)
    owned = {arg for node in ast.walk(tree) if owner(node) for arg in node.args}
    return lambda node: (isinstance(node, ast.Attribute) and node.attr in ("x", "y", "tau", "eps")
                         and _named(node.value, "cert") and isinstance(node.ctx, ast.Load)
                         and node not in owned)


ATOM_KINDS = ("SOC", "BOX", "HALFLINE_LOWER", "HALFLINE_UPPER")
STEP_NAMES = ("residuals", "predictor_step", "corrector_step", "Residuals")
# the model functions no solve calls; tests and the benchmark's spans do
MODEL_ONLY_NAMES = ("default_z0", "in_qdd", "make_iterate", "proximity")

# (rule, module or "*" for the whole package, matcher, "module:function" sites)
RULES = [
    # the follower, the status checks and the CLI ask the owner of an
    # option's rule
    ("eps-rule", "*", raises("eps must lie in (0, 1)"), ["status.py:require_eps"]),
    ("max-iters-rule", "*", raises("max_iters must be a non-negative integer"),
     ["path.py:require_max_iters"]),
    # barriers._norm is the one spelling of the Euclidean norm on the
    # follower's path; a second copy could drift from its bits
    ("norm", "*", self_dot_norm, ["barriers.py:_norm"]),
    # model.positive_tau is the one test of tau > 0, and a caller that
    # needs it asks that owner; the stated exceptions report the predicate
    # itself: the "tau > 0" verification check, and the invariants'
    # "tau not positive" message and the gap sandwich it guards
    ("tau-positive", "*", tau_positivity,
     ["model.py:positive_tau", "path.py:_check_invariants", "path.py:_check_invariants",
      "status.py:_add_image_check"]),
    # path._evaluate forms every point's shifted image, the mu = 1
    # anchor's included, and the follower forms no plain iterate: the step
    # that puts a point at its own mu reads the image the point carries.
    # model._scale_dual forms v = (tau/mu) y for scaled_dual, proximity_at
    # and the status checks, and with it asks mu > 0
    ("shifted-image", "path.py", calls("shifted_image"), ["path.py:_evaluate"]),
    ("plain-iterate", "path.py", calls("make_iterate"), []),
    ("scale-dual", "model.py", tau_over_mu, ["model.py:_scale_dual"]),
    ("scale-dual-callers", "status.py", calls("_scale_dual"),
     ["status.py:check_status", "status.py:strict_infeasibility_certificate"]),
    # the path steps have one input type, a follower point: they test no
    # point's type and ask no mu > 0, since only follow, which forms
    # every point it hands them, calls them
    ("point-type", "path.py", point_type_test, []),
    ("path-scale-dual", "path.py", calls("_scale_dual"), []),
    # path._evaluate forms the dual side of every follower point, the
    # anchor's included: it restores y and checks (tau/mu) y in D*
    ("restore-dual", "path.py", calls("_restore_dual_equality"), ["path.py:_evaluate"]),
    ("dual-check", "path.py", calls("scaled_dual"), ["path.py:_evaluate"]),
    # the parser reads each kind's rules from barriers' tables and names
    # no kind itself
    ("atom-kinds", "cli.py", mentions(*ATOM_KINDS), []),
    # each group's evaluate returns its gradient and its metric block, and
    # grad_hess is the one loop that calls it: grad and hess read its two
    # halves, so no second loop can drift from it
    ("group-evaluate", "barriers.py", calls("evaluate"), ["barriers.py:grad_hess"]),
    # the parser tests each kind's rules in one walk over a file's atom
    # list, so a second reader of the tables would be a second copy of
    # the rules, free to drift from the first
    ("atom-theta", "cli.py", reads("ATOM_THETA"), ["cli.py:_atom_list"]),
    ("atom-cone", "cli.py", reads("ATOM_CONE"), ["cli.py:_atom_list"]),
    ("atom-bounds", "cli.py", reads("ATOM_BOUNDS"), ["cli.py:_atom_list"]),
    # status._real and status._vector own a certificate's input rule: a
    # field is finite real numbers of its shape or it is missing, so a
    # check that read a field itself could pass on a non-finite one
    ("certificate-fields", "status.py", raw_certificate_read, []),
    # the follower's two steps own its KKT system: one seam for how it is solved
    ("kkt-solve", "*", calls("_kkt_solve"), ["path.py:corrector_step", "path.py:predictor_step"]),
    # one function reads a problem file
    ("json-load", "*", calls("json.load"), ["cli.py:parse_problem_file"]),
    # no solve reaches the functions no solve needs: only they call each other
    ("unused-functions", "*", calls(*MODEL_ONLY_NAMES),
     ["model.py:proximity", "model.py:proximity"]),
    ("unused-methods", "*", method_calls("value", "quad", "dense"), ["barriers.py:value"]),
]


@pytest.mark.parametrize("scope,match,owners", [row[1:] for row in RULES],
                         ids=[row[0] for row in RULES])
def test_each_rule_has_its_owners_only(scope, match, owners):
    assert [f"{name}:{site}" for name, tree in TREES.items() if scope in ("*", name)
            for site in _sites(tree, match)] == owners


PER_POINT = ("top = shifted_image(p, s, x, t)\n"
             "def f(it, mu):\n"
             "    def g(p):\n"
             "        return model.shifted_image(p, s, p.x, p.tau), make_iterate\n"
             "    v = (float(it.tau) / float(mu)) * it.y + float(tau) * float(mu)\n"
             "    return make_iterate(p, s, 0, 1, y), float(tau) / mu, tau / float(mu)\n"
             "class C:\n"
             "    def h(self, tau, mu):\n"
             "        return self.make_iterate(), 2 * (float(tau) / float(self.mu))\n")
TABLE_READS = ("top = barriers.ATOM_THETA\n"
               "def f(kind):\n"
               "    def g():\n"
               "        return ATOM_CONE[kind], barriers.ATOM_CONE\n"
               "    return barriers.ATOM_BOUNDS[kind], ATOM_CONES\n"
               "def h(ATOM_THETA):\n"
               "    ATOM_BOUNDS = 1\n")

# (id, matcher, source, the functions around the sites it finds there)
SPELLINGS = [
    ("raises", raises("eps must lie in (0, 1)"),
     "def f(e):\n"
     "    raise ValueError(f'eps must lie in (0, 1), got {e}')\n"
     "def g(e):\n"
     "    raise KeyError(f'--eps must lie in (0, 1), got {e!r}') from None\n"
     "raise OSError('eps must lie in (0, 2)')\n", ["f", "g"]),
    ("self-dot-norm", self_dot_norm,
     "import math\n"
     "top = math.sqrt(v.dot(v))\n"
     "def f(a, b):\n"
     "    def g(r):\n"
     "        return math.sqrt(r.x.dot(r.x))\n"
     "    return math.sqrt(a.dot(b)) + math.sqrt(a @ a) + sqrt(a.dot(a))\n"
     "class C:\n"
     "    def n(self, t):\n"
     "        return 1 + math.sqrt(t.dot(t))\n", ["<module>", "g", "n"]),
    ("tau-positivity", tau_positivity,
     "top = tau > 0.0\n"
     "def f(it, tau, mu):\n"
     "    def g(p):\n"
     "        return 0 < p.tau\n"
     "    if not it.tau > 0 or tau >= 0.0 or mu > 0.0 or tau > 1.0:\n"
     "        return 0.0 < tau < 1.0\n"
     "    return it.taun > 0.0 or tau > False\n", ["<module>", "g", "f", "f"]),
    ("calls-shifted-image", calls("shifted_image"), PER_POINT, ["<module>", "g"]),
    ("calls-make-iterate", calls("make_iterate"), PER_POINT, ["f", "h"]),
    ("tau-over-mu", tau_over_mu, PER_POINT, ["f", "h"]),
    ("calls-dotted", calls("json.load"),
     "top = json.load(f)\n"
     "def f(handle, json):\n"
     "    return np.load(handle), load(handle), json.loads(handle), self.json.load(handle)\n",
     ["<module>", "f"]),
    ("method-calls", method_calls("value", "dense"),
     "top = barrier.value(z)\n"
     "def f(value, metric, groups):\n"
     "    return value(1), metric.dense(), sum(g.value(z) for g in groups), metric.value\n",
     ["<module>", "f", "f"]),
    ("point-type", point_type_test,
     "top = isinstance(p, _Point)\n"
     "def f(p):\n"
     "    def g(q):\n"
     "        return isinstance(q, (float, path._Accepted))\n"
     "    return isinstance(p, model.Iterate), isinstance(p, Point), type(p)\n"
     "class C:\n"
     "    def h(self, p):\n"
     "        return isinstance(p, (Iterate,)) or isinstance(p)\n", ["<module>", "g", "f", "h"]),
    ("reads-atom-theta", reads("ATOM_THETA"), TABLE_READS, ["<module>"]),
    ("reads-atom-cone", reads("ATOM_CONE"), TABLE_READS, ["g", "g"]),
    ("reads-atom-bounds", reads("ATOM_BOUNDS"), TABLE_READS, ["f"]),
    ("mentions-atom-kinds", mentions(*ATOM_KINDS),
     "top = SOC\n"
     "def f(BOX, kinds):\n"
     "    HALFLINE_LOWER = barriers.HALFLINE_UPPER\n"
     "    return kinds.SOCS, SOCS, f(SOCS=1)\n", ["<module>", "f", "f", "f"]),
    ("raw-certificate-read", raw_certificate_read,
     "top = cert.eps\n"
     "def f(cert, point):\n"
     "    x, tau = _vector(cert.x, 3), status._real(cert.tau)\n"
     "    cert.y = None\n"
     "    return point.x, cert.kind, _vector(cert.y + 1, 2), g(cert.eps)\n",
     ["<module>", "f", "f"]),
]


@pytest.mark.parametrize("match,source,functions", [row[1:] for row in SPELLINGS],
                         ids=[row[0] for row in SPELLINGS])
def test_each_matcher_sees_each_spelling(match, source, functions):
    assert _sites(ast.parse(source), match) == functions


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


def test_export_check_sees_each_spelling():
    tree = ast.parse("from .path import follow, residuals\n"
                     "from .path import corrector_step as step, TraceRow as Residuals\n"
                     "from .model import proximity_at\n"
                     "predictor_step = None\n"
                     "def f():\n"
                     "    from .path import predictor_step\n")
    assert _exported(tree, STEP_NAMES) == ["residuals", "corrector_step", "Residuals",
                                           "predictor_step"]


def test_steps_and_unused_model_functions_are_not_exported():
    # only follow calls the path steps, and no solve calls the model
    # functions, so the package's namespace offers neither
    assert _exported(TREES["__init__.py"], STEP_NAMES + MODEL_ONLY_NAMES) == []
