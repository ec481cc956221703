"""Every name a module of the package imports is used in that module.
__init__.py re-exports by importing, and one name is imported only so
the benchmark can wrap it by attribute on the importing module."""
import ast
import pathlib

import diracloud

KEPT = {("assembly.py", "evaluate_coupled")}  # wrapped as diracloud.assembly.evaluate_coupled


def _unused_imports(source):
    """(line, name) of every name an import binds that no expression reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # `import a.b` binds a; `from m import x as y` binds y
            bound += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in bound if name not in read]


def test_no_module_imports_a_name_it_does_not_use():
    # the scan on a probe: os and np.linalg's np are read, sys and the
    # alias y are not
    probe = ("import os, sys\nimport numpy.linalg\nfrom m import x as y, z\n"
             "print(os.sep, numpy.linalg, f'{z}')\n")
    assert _unused_imports(probe) == [(1, "sys"), (3, "y")]
    modules = sorted(pathlib.Path(diracloud.__file__).parent.glob("*.py"))
    assert len(modules) > 1
    unused = {(m.name, name): line for m in modules if m.name != "__init__.py"
              for line, name in _unused_imports(m.read_text())}
    assert set(unused) <= KEPT, unused
