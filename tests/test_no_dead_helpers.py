"""Every private top-level name of the package is used: a def, class or
assignment whose name starts with one underscore is referenced somewhere
in the package outside its own definition.  Code no run can reach gets
deleted, not kept."""
import ast
import pathlib

import diracloud


def _private_names(stmt):
    """The private names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _referenced(node):
    """The names a subtree reads: bare names and attribute names."""
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)
             and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def _unreferenced(sources):
    """(module, name) of every private top-level name of the modules
    (name -> source) that no top-level statement other than its own
    definition reads, in any of the modules."""
    stmts = [(m, stmt) for m, src in sources.items() for stmt in ast.parse(src).body]
    reads = [_referenced(stmt) for _, stmt in stmts]
    return [(m, name) for i, (m, stmt) in enumerate(stmts) for name in _private_names(stmt)
            if not any(name in r for j, r in enumerate(reads) if j != i)]


def test_no_private_name_is_left_unreferenced():
    # the scan on a probe: _used is read by another module's attribute,
    # _self only by its own body, _Dead and _X by nothing; a dunder is
    # exempt
    probe = {"a.py": ("def _used(): pass\n\ndef _self(n): return _self(n - 1)\n"
                      "class _Dead: pass\n_X, y = 1, 2\n__all__ = []\n"),
             "b.py": "import a\na._used()\n"}
    assert _unreferenced(probe) == [("a.py", "_self"), ("a.py", "_Dead"), ("a.py", "_X")]
    modules = sorted(pathlib.Path(diracloud.__file__).parent.glob("*.py"))
    assert len(modules) > 1
    assert _unreferenced({m.name: m.read_text() for m in modules}) == []
