import ast
import pathlib

import hilbvertex

PACKAGE = pathlib.Path(hilbvertex.__file__).parent
TESTS = pathlib.Path(__file__).parent


def _unused_imports(source):
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {(a.asname or a.name).split(".")[0] for a in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return bound - read


# calls that build a new mutable container
MUTABLE_CALLS = {"dict", "list", "set", "bytearray", "defaultdict", "Counter",
                 "OrderedDict", "deque"}
MUTABLE_NODES = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
                 ast.SetComp)


def _mutable_defaults(source):
    """Names of the functions with a default argument that is mutable.

    Such a default is built once, when the function is defined, and shared
    by every call that leaves the argument out."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        for d in node.args.defaults + node.args.kw_defaults:
            func = getattr(d, "func", None)  # set on calls only
            call = getattr(func, "id", None) or getattr(func, "attr", None)
            if isinstance(d, MUTABLE_NODES) or call in MUTABLE_CALLS:
                out.append(getattr(node, "name", "<lambda>"))
    return sorted(out)


def test_no_function_has_a_mutable_default():
    assert _mutable_defaults(
        "def f(a, b={}, *, c=set(), d=None): pass\n"
        "g = lambda x=[]: x\n"
        "def h(x=(), y=collections.deque(), z=frozenset()): pass\n"
    ) == ["<lambda>", "f", "f", "h"]
    paths = sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))
    for path in paths:
        assert _mutable_defaults(path.read_text()) == [], path.name


def test_no_module_imports_a_name_it_does_not_use():
    assert _unused_imports("import math\nfrom os import path, sep\n"
                           "print(sep)\n") == {"math", "path"}
    # __init__ imports to export, so it is the one file not scanned
    modules = [p for p in sorted(PACKAGE.glob("*.py"))
               if p.name != "__init__.py"]
    tests = sorted(TESTS.glob("*.py"))
    assert modules and tests
    for path in modules + tests:
        unused = _unused_imports(path.read_text())
        assert unused == set(), path.name


def _private_imports(source):
    """Underscore names a module imports from a module of the package, by a
    relative import or by the package's own name."""
    return sorted(a.name for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom)
                  and (node.level or node.module.split(".")[0] == "hilbvertex")
                  for a in node.names if a.name.startswith("_"))


def test_no_module_imports_a_private_name_of_another():
    assert _private_imports(
        "from .a import b, _c\nfrom os import _exit\nfrom . import _d\n"
        "from hilbvertex.e import _e, f\n"
        "def g():\n    from .h import _h\n") == ["_c", "_d", "_e", "_h"]
    for path in sorted(PACKAGE.glob("*.py")):
        assert _private_imports(path.read_text()) == [], path.name


def _unused_parameters(source):
    """(function, parameter) pairs where the body never reads the parameter.

    Lambdas are left out: a lambda that ignores its argument is how a
    constant callback is written."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                  a.vararg, a.kwarg) if p]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out += [(node.name, p) for p in params if p not in read]
    return out


def test_no_function_has_a_parameter_it_never_reads():
    assert _unused_parameters(
        "def f(a, b, *c, d, **e):\n    b = a\n    return e\n"
        "def g(x):\n    def h(y):\n        return x\n    return h\n"
        "k = lambda lam: 1\n"
    ) == [("f", "b"), ("f", "d"), ("f", "c"), ("h", "y")]
    for path in sorted(PACKAGE.glob("*.py")):
        assert _unused_parameters(path.read_text()) == [], path.name


def _definitions(source):
    """Names of the functions, methods and classes a module defines; dunder
    methods are left out, since the language calls them by protocol."""
    return {node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))}


def _named(source):
    """Every name a module reads or imports: names, attributes, and each
    part of an imported dotted name and of its alias."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.update(node.name.split("."))
            if node.asname:
                out.add(node.asname)
    return out


def _layer_names(source):
    """Each part of the dotted strings of the LAYERS table: the tracer wraps
    those functions and methods by name."""
    for node in ast.parse(source).body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "LAYERS"
                        for t in node.targets)):
            return {part for c in ast.walk(node.value)
                    if isinstance(c, ast.Constant) and isinstance(c.value, str)
                    for part in c.value.split(".")}
    return set()


def test_every_definition_is_named_somewhere():
    sample = ("import a.b as c\nclass K:\n    def __eq__(s, o): pass\n"
              "    def m(s): pass\ndef f(): pass\ndef g(): return f\n")
    assert _definitions(sample) - _named(sample) == {"K", "m", "g"}
    assert _layer_names('LAYERS = {"x": (("K.m", "k"),)}') == {
        "x", "K", "m", "k"}
    repo = TESTS.parent
    sources = (sorted((repo / "src").rglob("*.py"))
               + sorted(TESTS.glob("*.py"))
               + sorted((repo / "perfbench").glob("*.py")))
    assert sources
    named = set().union(*(_named(p.read_text()) for p in sources))
    named |= _layer_names((repo / "perfbench" / "tracing.py").read_text())
    for path in sorted(PACKAGE.glob("*.py")):
        assert _definitions(path.read_text()) - named == set(), path.name
