import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "bisteklov"


def _unread_parameters(tree):
    """(line, function, parameter) for each parameter of a def that its body never
    loads, nested functions and lambdas included; ``self`` and ``cls`` are skipped."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg)
                  if p is not None and p.arg not in ("self", "cls")]
        loaded = {n.id for stmt in node.body for n in ast.walk(stmt)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for name in params:
            if name not in loaded:
                yield node.lineno, node.name, name


def test_every_parameter_is_read():
    unread = [f"{path.name}:{line} {fn}({name})" for path in sorted(SRC.glob("*.py"))
              for line, fn, name in _unread_parameters(ast.parse(path.read_text()))]
    assert unread == []


def test_the_check_sees_an_unread_parameter():
    tree = ast.parse("def f(a, b, *rest, key=1):\n"
                     "    g = lambda: b\n"
                     "    return g\n"
                     "class C:\n"
                     "    def m(self, x):\n"
                     "        return 0\n")
    assert [(fn, name) for _, fn, name in _unread_parameters(tree)] == [
        ("f", "a"), ("f", "rest"), ("f", "key"), ("m", "x")]


def test_no_module_imports_a_private_name_of_a_sibling():
    private = [f"{path.name}:{node.lineno} {alias.name}" for path in sorted(SRC.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ImportFrom)
               and (node.level or (node.module or "").startswith("bisteklov"))
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def _range_checks(tree):
    """Line of each ``except`` naming OverflowError or ZeroDivisionError and of each
    read of ``float_info.min``: the double-range checks."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            names = {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)}
            if names & {"OverflowError", "ZeroDivisionError"}:
                yield node.lineno
        elif isinstance(node, ast.Attribute) and node.attr == "min" and "float_info" in (
                getattr(node.value, "attr", None), getattr(node.value, "id", None)):
            yield node.lineno


def _outside_in_double_range(tree):
    helpers = [node for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name == "in_double_range"]
    return [line for line in _range_checks(tree)
            if not any(h.lineno <= line <= h.end_lineno for h in helpers)]


def test_only_in_double_range_checks_the_double_range():
    stray = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
             for line in _outside_in_double_range(ast.parse(path.read_text()))]
    assert stray == []
    assert len(list(_range_checks(ast.parse((SRC / "symbols.py").read_text())))) == 2


def test_the_check_sees_a_hand_written_range_check():
    tree = ast.parse("import sys\n"
                     "from sys import float_info\n"
                     "def in_double_range(f):\n"
                     "    try:\n"
                     "        return f()\n"
                     "    except (OverflowError, ZeroDivisionError):\n"
                     "        return sys.float_info.min\n"
                     "def g(x):\n"
                     "    try:\n"
                     "        return 1 / x\n"
                     "    except ZeroDivisionError:\n"
                     "        return float_info.min\n"
                     "LOW = sys.float_info.min\n")
    assert sorted(_outside_in_double_range(tree)) == [11, 12, 13]


def _module_level_imports(tree, package):
    """Line of each import of ``package`` that runs when the module is imported: outside
    every function body and outside ``if TYPE_CHECKING:``."""
    def walk(nodes):
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if (isinstance(node, ast.If) and isinstance(node.test, ast.Name)
                    and node.test.id == "TYPE_CHECKING"):
                yield from walk(node.orelse)
                continue
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                names = []
            if any(name.split(".")[0] == package for name in names):
                yield node.lineno
            yield from walk(ast.iter_child_nodes(node))

    return list(walk(tree.body))


def test_only_halfspace_imports_numpy_at_module_level():
    # spectrum, weyl and identity-check compute without arrays; numpy costs a fresh process
    # more than its own start-up, so every other module imports it where it builds an array
    eager = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
             if path.name != "halfspace.py"
             for line in _module_level_imports(ast.parse(path.read_text()), "numpy")]
    assert eager == []


def test_the_check_sees_a_module_level_numpy_import():
    tree = ast.parse("import numpy as np\n"
                     "from numpy.linalg import norm\n"
                     "import numpyish\n"
                     "from typing import TYPE_CHECKING\n"
                     "if TYPE_CHECKING:\n"
                     "    import numpy\n"
                     "try:\n"
                     "    import os, numpy.random\n"
                     "except ImportError:\n"
                     "    pass\n"
                     "def f():\n"
                     "    import numpy as np\n"
                     "class C:\n"
                     "    import numpy\n"
                     "    def m(self):\n"
                     "        from numpy import eye\n")
    assert _module_level_imports(tree, "numpy") == [1, 2, 8, 14]


def _is_functools(node, name):
    return (isinstance(node, ast.Name) and node.id == name) or (
        isinstance(node, ast.Attribute) and node.attr == name
        and isinstance(node.value, ast.Name) and node.value.id == "functools")


def _unbounded_caches(tree):
    """Line of each cache with no bound on its entries: a use or import of
    ``functools.cache``, an ``lru_cache`` whose maxsize is None, and a store into a
    module-level dict from inside a function."""
    def bindings(target, value):  # (name, value) pairs, tuple targets unpacked
        if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
            for t, v in zip(target.elts, value.elts):
                yield from bindings(t, v)
        elif isinstance(target, ast.Name):
            yield target.id, value

    dicts = {name for node in tree.body if isinstance(node, ast.Assign)
             for target in node.targets for name, value in bindings(target, node.value)
             if isinstance(value, (ast.Dict, ast.DictComp))
             or (isinstance(value, ast.Call) and getattr(value.func, "id", None) == "dict")}
    functions = [node for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))]
    inside = {id(n) for fn in functions for n in ast.walk(fn) if n is not fn}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools" and any(
                alias.name == "cache" for alias in node.names):
            yield node.lineno
        elif isinstance(node, ast.Attribute) and _is_functools(node, "cache"):
            yield node.lineno
        elif isinstance(node, ast.Call) and _is_functools(node.func, "lru_cache"):
            sizes = [*node.args[:1], *(k.value for k in node.keywords if k.arg == "maxsize")]
            if any(isinstance(s, ast.Constant) and s.value is None for s in sizes):
                yield node.lineno
        elif id(node) in inside and isinstance(node, (ast.Subscript, ast.Attribute)) and (
                isinstance(node.value, ast.Name) and node.value.id in dicts) and (
                isinstance(node.ctx, ast.Store) if isinstance(node, ast.Subscript)
                else node.attr in ("setdefault", "update", "__setitem__")):
            yield node.lineno


def test_every_cache_is_bounded():
    unbounded = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
                 for line in _unbounded_caches(ast.parse(path.read_text()))]
    assert unbounded == []


def test_the_check_sees_an_unbounded_cache():
    tree = ast.parse("import functools\n"
                     "from functools import cache, lru_cache\n"
                     "_SEEN, _TABLE = {}, {'a': 1}\n"
                     "_MEMO = dict()\n"
                     "@functools.cache\n"
                     "def f(x):\n"
                     "    _MEMO[x] = _TABLE['a']\n"
                     "    return _MEMO[x]\n"
                     "@lru_cache(maxsize=None)\n"
                     "def g(x, size=8):\n"
                     "    return functools.lru_cache(size)(len), _MEMO.setdefault(x, x)\n"
                     "@functools.lru_cache(None)\n"
                     "def h(x):\n"
                     "    _TABLE[x] = x\n"
                     "_TABLE['b'] = 2\n")
    assert sorted(_unbounded_caches(tree)) == [2, 5, 7, 9, 11, 12, 14]


def _unguarded_code_runs(tree):
    """Line of each call of eval, exec or compile (by name or through ``builtins``) other than
    one inside class WeightExpr whose globals are a dict literal that ends with
    ``"__builtins__": {}``, so that nothing unpacked into it can put the builtins back."""
    inside = {id(n) for node in ast.walk(tree)
              if isinstance(node, ast.ClassDef) and node.name == "WeightExpr"
              for n in ast.walk(node)}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) in (
                "builtins", "__builtins__"):
            name = func.attr
        else:
            name = getattr(func, "id", None)
        if name not in ("eval", "exec", "compile"):
            continue
        namespace = node.args[1] if len(node.args) > 1 else None
        guarded = (id(node) in inside and isinstance(namespace, ast.Dict) and namespace.keys
                   and isinstance(namespace.keys[-1], ast.Constant)
                   and namespace.keys[-1].value == "__builtins__"
                   and isinstance(namespace.values[-1], ast.Dict)
                   and not namespace.values[-1].keys)
        if not guarded:
            yield node.lineno


def test_code_runs_only_in_weight_expr_without_builtins():
    unguarded = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
                 for line in _unguarded_code_runs(ast.parse(path.read_text()))]
    assert unguarded == []


def test_the_check_sees_unguarded_code_runs():
    tree = ast.parse("import builtins, re\n"
                     "eval('1', {'__builtins__': {}})\n"
                     "class WeightExpr:\n"
                     "    def f(self, g):\n"
                     "        eval('t', {**g, '__builtins__': {}})\n"
                     "        eval('t', g)\n"
                     "        exec('t', {'__builtins__': {}, **g})\n"
                     "        builtins.eval('t', {'__builtins__': {'len': len}})\n"
                     "        compile('t', '<weight>', 'eval')\n"
                     "        __builtins__.exec('t')\n"
                     "        return re.compile('t'), eval('t', {'__builtins__': None})\n")
    assert sorted(_unguarded_code_runs(tree)) == [2, 6, 7, 8, 9, 10, 11]
