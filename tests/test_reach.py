"""``src/qpacking`` holds what the ``qpacking`` command reaches, and what an open ROADMAP direction builds on.

The walk works on names.  It starts from ``cli.main`` and from every ``KEPT`` entry, and it
follows every ``Name`` in a reached definition that is a top-level definition of the same
module or a name imported from a sibling module, by an import at any depth of that module
(one inside a function counts for the whole module).  A reached class reaches its dunder
methods, since syntax calls them.  It reaches any other method only when a reached definition
names it as an attribute (``node.attr``), or when its own class body names it
(``__matmul__ = compose``).  Attribute names are not matched to a class, so a name that two
classes share reaches both methods: the walk can only over-reach, and it never reports code
that is used.

``KEPT`` maps ``module.name`` or ``module.Class.method`` to the direction it is kept for.

``tests/helpers.py`` holds only what the tests name: each of its top-level definitions is named
by a test module, or by another of its own definitions.
"""

import ast
from pathlib import Path

import pytest

import qpacking

KEPT = {
    "poly.step_difference": "ROADMAP Direction 1: the staircase proof",
    "geometry.Staircases.bottom": "ROADMAP Directions 1 and 11: the base staircases",
}

TREES = {path.stem: ast.parse(path.read_text()) for path in Path(qpacking.__file__).parent.glob("*.py")}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _methods(cls: ast.ClassDef) -> dict:
    return {item.name: item for item in cls.body if isinstance(item, ast.FunctionDef)}


def definitions(tree) -> dict:
    """Key -> node of each function, class and non-dunder assignment at module level (``name``),
    and of each method (``Class.method``)."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out[node.name] = node
        if isinstance(node, ast.ClassDef):
            out.update({f"{node.name}.{name}": method for name, method in _methods(node).items()})
        for target in getattr(node, "targets", [getattr(node, "target", None)]):
            if isinstance(target, ast.Name) and not target.id.startswith("__"):
                out[target.id] = node
    return out


def reached(trees: dict, roots) -> set[str]:
    """Keys ``module.name`` and ``module.Class.method`` of the definitions that ``roots`` reach."""
    defs = {mod: definitions(tree) for mod, tree in trees.items()}
    imported = {mod: {alias.asname or alias.name: (node.module, alias.name)
                      for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 1
                      for alias in node.names}
                for mod, tree in trees.items()}
    seen, attrs, todo = set(), set(), [tuple(root.split(".", 1)) for root in roots]
    while todo:
        while todo:
            mod, key = todo.pop()
            if (mod, key) in seen:
                continue
            seen.add((mod, key))
            node = defs[mod][key]
            own, parts = {}, [node]
            if isinstance(node, ast.ClassDef):
                # the class body without its methods, which are reached one by one
                own = _methods(node)
                parts = [*node.bases, *node.keywords, *node.decorator_list,
                         *(item for item in node.body if not isinstance(item, ast.FunctionDef))]
                todo += [(mod, f"{key}.{name}") for name in own if _is_dunder(name)]
            for sub in (sub for part in parts for sub in ast.walk(part)):
                if isinstance(sub, ast.Attribute):
                    attrs.add(sub.attr)
                elif isinstance(sub, ast.Name) and sub.id in own:
                    todo.append((mod, f"{key}.{sub.id}"))
                elif isinstance(sub, ast.Name) and sub.id in defs[mod]:
                    todo.append((mod, sub.id))
                elif isinstance(sub, ast.Name) and sub.id in imported[mod]:
                    todo.append(imported[mod][sub.id])
        todo = [(mod, key) for mod, keys in defs.items() for key in keys if "." in key and (mod, key) not in seen
                and (mod, key.partition(".")[0]) in seen and key.partition(".")[2] in attrs]
    return {f"{mod}.{key}" for mod, key in seen}


def every_key(trees: dict) -> set[str]:
    return {f"{mod}.{key}" for mod, tree in trees.items() for key in definitions(tree)}


def unreached(trees: dict, kept) -> set[str]:
    """Definitions and methods that neither ``cli.main`` nor a ``kept`` entry reaches."""
    return every_key(trees) - reached(trees, ["cli.main", *kept])


def stale(trees: dict, kept) -> set[str]:
    """``kept`` entries that ``cli.main`` reaches on its own."""
    return set(kept) & reached(trees, ["cli.main"])


def test_every_definition_and_method_is_reached():
    assert set(KEPT) <= every_key(TREES)
    assert unreached(TREES, KEPT) == set()


def test_no_kept_entry_is_reached_from_the_cli():
    assert stale(TREES, KEPT) == set()


def unused_imports(trees: dict) -> dict:
    """Module -> the names that its imports, at any depth, bind and that no ``Name`` in the module reads."""
    unused = {}
    for mod, tree in trees.items():
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                   and getattr(node, "module", None) != "__future__"]
        names = {alias.asname or alias.name.partition(".")[0] for node in imports for alias in node.names}
        if names - used:
            unused[mod] = names - used
    return unused


def test_every_import_is_used():
    assert unused_imports(TREES) == {}


def _names(node) -> set[str]:
    return {sub.id if isinstance(sub, ast.Name) else sub.attr
            for sub in ast.walk(node) if isinstance(sub, (ast.Name, ast.Attribute))}


def unnamed_helpers(helpers, others) -> set[str]:
    """Top-level definitions of the module ``helpers`` that no ``Name`` or attribute names, in a module of
    ``others`` or in ``helpers`` outside the definition itself; an import does not count."""
    named = set().union(*map(_names, others))
    per_node = [(node, _names(node)) for node in helpers.body]
    return {key for key, node in definitions(helpers).items() if "." not in key and key not in named
            and not any(key in names for other, names in per_node if other is not node)}


def test_every_test_helper_is_named():
    tests = {path.stem: ast.parse(path.read_text()) for path in Path(__file__).parent.glob("*.py")}
    assert unnamed_helpers(tests.pop("helpers"), tests.values()) == set()


def test_a_helper_named_only_by_itself_or_an_import_is_reported():
    helpers = ast.parse("""
def spare(n):
    return spare(n - 1)


def inner():
    return 1


def outer():
    return inner()


TABLE = {"a": outer}


def by_attribute():
    return 2


def imported_only():
    return 3
""")
    test = ast.parse("""
import helpers
from helpers import imported_only


def test_it():
    assert helpers.by_attribute() == TABLE
""")
    assert unnamed_helpers(helpers, [test]) == {"spare", "imported_only"}


def _trees(**sources) -> dict:
    return {mod: ast.parse(source) for mod, source in sources.items()}


WALKED = _trees(
    cli="""
from .shapes import Box


def main():
    return Box(1) @ Box(2)
""",
    shapes="""
class Box:
    def __init__(self, size):
        self.size = size

    def compose(self, other):
        return Box(self.size * other.size)

    __matmul__ = compose

    def grow(self):
        return self.widen()

    def widen(self):
        return Box(self.size + 1)


def spare():
    return Box(0).grow()
""",
)


@pytest.mark.parametrize("kept, missing", [
    ([], {"shapes.Box.grow", "shapes.Box.widen", "shapes.spare"}),
    (["shapes.spare"], set()),
    (["shapes.Box.grow"], {"shapes.spare"}),
], ids=["cli-only", "kept-function", "kept-method"])
def test_walk_reports_a_method_that_no_reached_code_names(kept, missing):
    assert unreached(WALKED, kept) == missing


def test_walk_reaches_dunders_with_the_class_and_names_in_its_body():
    assert {"shapes.Box", "shapes.Box.__init__", "shapes.Box.compose"} <= reached(WALKED, ["cli.main"])


def test_walk_follows_an_import_inside_a_function():
    trees = _trees(
        cli="""
def main():
    from .late import helper
    return helper()
""",
        late="""
def helper():
    return 1
""",
    )
    assert unreached(trees, []) == set()


def test_an_unused_import_inside_a_function_is_reported():
    trees = _trees(
        cli="""
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .late import Spec


def main(spec: Spec):
    from .late import helper, spare
    return helper(spec)
""",
    )
    assert unused_imports(trees) == {"cli": {"spare"}}


@pytest.mark.parametrize("source, unused", [
    ("class Box:\n    def grow(self):\n        import os\n        return self\n", {"os"}),
    ("class Box:\n    import os\n", {"os"}),
    ("def main():\n    def inner():\n        from .late import spare\n    return inner\n", {"spare"}),
    ("from typing import TYPE_CHECKING\n\nif TYPE_CHECKING:\n    from .late import Spec\n", {"Spec"}),
    ("try:\n    import tomllib\nexcept ImportError:\n    tomllib = None\n", {"tomllib"}),
    ("def main():\n    from .late import helper as run\n    return helper()\n", {"run"}),
    ("def main():\n    import os.path\n    return 1\n", {"os"}),
    ("def main(box):\n    import os\n    return box.os\n", {"os"}),
    ("def main():\n    import os.path\n    return os.path.sep\n", set()),
], ids=["method", "class-body", "nested-function", "type-checking", "only-assigned", "alias", "dotted",
        "attribute-only", "dotted-read"])
def test_an_import_at_any_depth_that_no_name_reads_is_reported(source, unused):
    assert unused_imports(_trees(cli=source)) == ({"cli": unused} if unused else {})


def test_a_kept_entry_that_the_cli_reaches_is_stale():
    assert stale(WALKED, ["shapes.Box.compose", "shapes.Box.__init__", "shapes.spare"]) == {
        "shapes.Box.compose", "shapes.Box.__init__"}
