"""Every setting of a run is a RunConfig field: no module of the package
reads the environment."""
import ast
import pathlib

import diracloud

ENV_NAMES = {"environ", "environb", "getenv", "getenvb"}


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
