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
