import ast
from pathlib import Path

import trisect

SRC = Path(trisect.__file__).parent
# entry points: the package itself and the command line
ROOTS = {"__init__", "cli"}


def _relative_imports(path):
    """Names of the sibling modules that ``path`` imports relatively,
    function bodies included (the engine imports its own modules only
    that way)."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                yield from (alias.name for alias in node.names)
            else:
                yield node.module.split(".")[0]


def test_every_engine_module_is_imported_by_another():
    modules = {path.stem: path for path in SRC.glob("*.py")}
    assert len(modules) > 10
    used = {name for stem, path in modules.items()
            for name in _relative_imports(path) if name != stem}
    assert sorted(set(modules) - ROOTS - used) == []
