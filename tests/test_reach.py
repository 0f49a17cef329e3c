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

Every refusal in ``src`` is one that some CLI input reaches: ``REFUSED`` runs through ``cli.main``
under ``sys.settrace``, and each ``raise`` outside a ``KEPT`` or ``UNREACHABLE`` definition must run.
A range that the parser, ``make_sector`` or ``admissible_ks`` already decides has no second check.

Every keyword default in ``src`` is one that some ``src`` call leaves out, unless ``PASSED_DEFAULTS``
names it: a default that every caller overrides repeats a decision that the caller makes.
"""

import ast
import os
import sys
from pathlib import Path

import pytest

import qpacking
from qpacking import cli

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


# Definitions whose raise no input can make run, and why.
UNREACHABLE = {
    "poly.to_alpha_form": "an invariant check on the closed form: every packing polynomial has an integral alpha form",
}

EX1 = "2,-2,1/2,0,1/2,0"
NINES = "9" * 1000  # the longest coefficient part the parser takes

# One argv per raise, each refused before it builds any large window.
REFUSED = [
    ["verify", "4", "3", EX1, "--xmax", "0"],  # _int_at_least
    ["classify", "3", "1" * 1001],  # _sector_number: digits
    ["classify", "4", "x"],  # _sector_number: not an int
    ["verify", "4", "3", "1,2,3"],  # _parse_coeffs: count
    ["verify", "4", "3", "1e5,0,0,0,0,0"],  # _parse_coeffs: exponent
    ["verify", "4", "3", "1/0,0,0,0,0,0"],  # _parse_coeffs: not a rational
    ["verify", "4", "3", "1" + "0" * 1000 + ",0,0,0,0,0"],  # _parse_coeffs: digits
    ["search", "4", "3", "--bounds", "a:1:1"],  # _parse_bounds: not integers
    ["search", "4", "3", "--bounds=-2:-2:-2"],  # _parse_bounds: negative
    ["search", "4", "3", "--mode", "full"],  # _parse_bounds: full mode without bounds
    ["search", "4", "3", "--bounds", "1:1"],  # _parse_bounds: count
    ["classify", "0", "1"],  # make_sector: n
    ["classify", "4", "-3"],  # make_sector: m
    ["verify", "4", "3", EX1, "--xmax", "9" * 20],  # _window_dtype: box points
    ["verify", "1", "1", f"{NINES},0,0,0,0,0", "--xmax", "1413"],  # _window_dtype: point-bits
    ["search", "4", "3", "--bounds", "1000:1000:1"],  # brute_force_search: candidates
    ["search", "4", "3", "--bounds", "100:100:1", "--xmax", "1000"],  # brute_force_search: candidate-points
    ["search", "4", "3", "--bounds", f"0:0:{2 ** 62}"],  # brute_force_search: Python-int window
    ["render", "20001", "20003", "1", "--xmax", "1", "--format", "svg"],  # render_figure: staircase lines
    ["render", "3", "2", "1"],  # render_figure: no QPPs
    ["render", "4", "3", "2"],  # render_figure: k not admissible
    ["render", "4", "3", "1", "--xmax", "200"],  # _check_figure_size
    ["atlas", "--nmax", "1000", "--mmax", "1000"],  # check_atlas_size
]


def raise_spans(trees: dict, exempt) -> dict:
    """(module, first line) -> last line of each ``raise`` outside the definitions of ``exempt``."""
    spans = {}
    for mod, tree in trees.items():
        defs = definitions(tree)
        skip = [defs[key.partition(".")[2]] for key in exempt if key.partition(".")[0] == mod]
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and not any(d.lineno <= node.lineno <= d.end_lineno for d in skip):
                spans[mod, node.lineno] = node.end_lineno
    return spans


def lines_run(argvs) -> set[tuple[str, int]]:
    """(module, line) of each ``src`` line that running ``argvs`` through ``cli.main`` executes."""
    src = os.path.dirname(qpacking.__file__)
    hit = set()

    def line(frame, event, arg):
        if event == "line":
            hit.add((Path(frame.f_code.co_filename).stem, frame.f_lineno))
        return line

    def call(frame, event, arg):
        return line if os.path.dirname(frame.f_code.co_filename) == src else None

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        for argv in argvs:
            try:
                cli.main(argv)
            except SystemExit:
                pass
    finally:
        sys.settrace(previous)
    return hit


def test_every_raise_is_reached_from_the_cli():
    if sys.gettrace() is not None:
        pytest.skip("a trace function is already set (a coverage run)")
    spans = raise_spans(TREES, [*KEPT, *UNREACHABLE])
    hit = lines_run(REFUSED)
    assert sorted(f"{mod}.py:{first}" for (mod, first), last in spans.items()
                  if not any((mod, n) in hit for n in range(first, last + 1))) == []


# Keyword defaults that every ``src`` call passes, and why each is kept.
PASSED_DEFAULTS = {
    "verify.brute_force_search.jobs": "ROADMAP Direction 3: the bench tracer binds it, and it goes with --jobs",
}


def _leaves_out(call: ast.Call, index, name: str) -> bool:
    """Whether ``call`` may leave out the parameter ``name``, at position ``index`` or keyword-only (None).

    A splat may leave out anything.  Positions count from the call's first argument, so a method
    called on an instance, whose first parameter is bound, is taken to leave out more than it does.
    """
    if any(isinstance(arg, ast.Starred) for arg in call.args) or any(kw.arg is None for kw in call.keywords):
        return True
    return name not in {kw.arg for kw in call.keywords} and (index is None or len(call.args) <= index)


def passed_defaults(trees: dict) -> set[str]:
    """``module.function.parameter`` of each keyword default of a function in ``trees`` that every call
    of the function's name, as a ``Name`` or an attribute, passes."""
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                calls.setdefault(getattr(node.func, "id", getattr(node.func, "attr", None)), []).append(node)
    out = set()
    for mod, tree in trees.items():
        for func in (node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)):
            a = func.args
            positional = [*a.posonlyargs, *a.args]
            first = len(positional) - len(a.defaults)
            params = [(i, p.arg) for i, p in enumerate(positional) if i >= first]
            params += [(None, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            out |= {f"{mod}.{func.name}.{name}" for index, name in params
                    if not any(_leaves_out(call, index, name) for call in calls.get(func.name, []))}
    return out


def test_every_default_is_left_out_by_some_call():
    # a default that every call passes copies a decision made elsewhere, the CLI's among them
    assert passed_defaults(TREES) == set(PASSED_DEFAULTS)


def test_a_default_that_every_call_passes_is_reported():
    trees = _trees(
        cli="""
from .late import run


def main(argv=None):
    return run(argv, "fast", size=2) + run(argv, mode="slow", size=3) + scale(1, 2) + scale(*argv)


def scale(x, factor=2, *, offset=0):
    return x * factor + offset


class Box:
    def grow(self, by=1):
        return self


main()
Box().grow(1)
""",
        late="""
def run(s, mode="fast", size=1, *, limit=9):
    return s
""",
    )
    assert passed_defaults(trees) == {"late.run.mode", "late.run.size"}


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
