import ast
from pathlib import Path

import trisect

SRC = Path(trisect.__file__).parent
ROOT = SRC.parent.parent
# entry points: the package itself and the command line
ROOTS = {"__init__", "cli"}
# top-level engine functions and classes that only library users and the
# tests call, each with the reason it stays
PUBLIC_API = {
    ("catalog", "genus_zero_diagram"): "the genus-0 diagram of S4, the unit "
                                       "of connected_sum",
    ("catalog", "triangle_sign"): "the slope-triangle sign that, with the "
                                  "parameters, names a genus-one diagram",
    ("catalog", "genus_one_name"): "the catalog entry of given parameters "
                                   "and triangle sign",
    ("diagram", "pi1_presentation"): "pi1 of the 4-manifold of a diagram",
    ("intmatrix", "span_equal"): "whether two column sets span one lattice",
    ("kirby", "matrix_handleslide"): "a framed-link handleslide on the "
                                     "linking matrix",
    ("kirby", "stabilize_link"): "a distant unknot or Hopf pair added to "
                                 "the linking matrix",
    ("moves", "find_stabilization_certificate"):
        "a library move; the benchmark tracer names it only as a string",
    ("moves", "destabilize"): "a library move, removing a certified "
                              "genus-one summand",
    ("moves", "check_classified_params"):
        "the paper's parameter constraint on the classified range, which "
        "the acceptance criterion checks on every triple",
    ("words", "parse_generator_word"): "the inverse of "
                                       "format_generator_word",
}


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


def _code_names(nodes):
    """The names, attribute names and imported names the code under
    ``nodes`` uses; a docstring or other string names nothing."""
    out = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.alias):
                out.add(node.name.rsplit(".", 1)[-1])
    return out


def test_every_engine_function_and_class_is_used_outside_the_tests():
    # used means named by other engine code (its own module outside its
    # own definition included), a demo or a benchmark file
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in SRC.glob("*.py")}
    outside = _code_names(ast.parse(path.read_text(), str(path))
                          for folder in ("demos", "perfbench")
                          for path in (ROOT / folder).glob("*.py"))
    assert outside
    per_node = {stem: [_code_names([node]) for node in tree.body]
                for stem, tree in trees.items()}
    unused = []
    for stem, tree in sorted(trees.items()):
        others = outside.union(*(used for s, sets in per_node.items()
                                 if s != stem for used in sets))
        for node, own in zip(tree.body, per_node[stem]):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and node.name not in others \
                    and not any(node.name in used for used in per_node[stem]
                                if used is not own):
                unused.append((stem, node.name))
    assert sorted(set(unused) - set(PUBLIC_API)) == []
    # an entry whose function came into use, or went, is dropped
    assert sorted(set(PUBLIC_API) - set(unused)) == []
