import ast
import pathlib

import hilbvertex

PACKAGE = pathlib.Path(hilbvertex.__file__).parent
TESTS = pathlib.Path(__file__).parent

# module -> imported names that stay although the module never uses them
KEPT = {
    # perfbench/selftest.py asserts that macdonald binds pmul
    "macdonald": {"pmul"},
}


def _unused_imports(source):
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {(a.asname or a.name).split(".")[0] for a in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return bound - read


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
        assert unused == KEPT.get(path.stem, set()), path.name
