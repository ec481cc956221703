"""Every setting of a run is a RunConfig field: no module of the package
reads the environment.  The number of values a caller can set is pinned
too, so that it only goes down."""
import ast
import pathlib

import diracloud

ENV_NAMES = {"environ", "environb", "getenv", "getenvb"}
SETTABLE_MAX = 211  # the package's count: lower it when a change removes values


def _env_reads(source):
    """(line, name) of every os.environ / os.getenv style access."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ENV_NAMES:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [(node.lineno, a.name) for a in node.names if a.name in ENV_NAMES]
    return found


def test_no_module_reads_the_environment():
    # the scan sees both spellings
    probe = "import os\nfrom os import getenv\nx = os.environ.get('X')\n"
    assert _env_reads(probe) == [(2, "getenv"), (3, "environ")]
    modules = sorted(pathlib.Path(diracloud.__file__).parent.glob("*.py"))
    assert modules
    reads = {m.name: r for m in modules if (r := _env_reads(m.read_text()))}
    assert reads == {}


def _settable_values(source):
    """The settable values of a module: the parameters of every def
    (positional, keyword-only, *args and **kwargs; self excluded; lambdas
    not counted) plus the fields of every @dataclass class (the annotated
    assignments in its body)."""
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
            count += sum(p is not None and p.arg != "self" for p in params)
        elif isinstance(node, ast.ClassDef) and any(
                ast.unparse(d).split("(")[0].endswith("dataclass")
                for d in node.decorator_list):
            count += sum(isinstance(s, ast.AnnAssign) for s in node.body)
    return count


def test_settable_values_stay_at_or_below_the_pin():
    # the rule on a probe: 2 + 1 + 1 parameters, 2 fields, lambdas and
    # class attributes without an annotation not counted
    probe = ("from dataclasses import dataclass\n"
             "def f(a, b=1, *args): pass\n"
             "class C:\n    def m(self, x): pass\n"
             "@dataclass(frozen=True)\nclass D:\n    x: int\n    y: float = 0.0\n"
             "    NAMES = ('x',)\n"
             "g = lambda u, v: u\n")
    assert _settable_values(probe) == 6
    modules = sorted(pathlib.Path(diracloud.__file__).parent.glob("*.py"))
    assert sum(_settable_values(m.read_text()) for m in modules) <= SETTABLE_MAX
