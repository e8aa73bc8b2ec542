import ast
import sys
from pathlib import Path

import trisect

SRC = Path(trisect.__file__).parent


def _foreign_imports(path):
    """(line, module) for each import outside trisect and the stdlib."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            if top != "trisect" and top not in sys.stdlib_module_names:
                yield node.lineno, name


def test_the_runtime_imports_only_the_standard_library():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 10
    foreign = ["%s:%d imports %s" % (path.name, line, name)
               for path in modules for line, name in _foreign_imports(path)]
    assert foreign == []
