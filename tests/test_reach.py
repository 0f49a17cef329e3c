"""``src/qpacking`` holds what the ``qpacking`` command reaches, and what an open ROADMAP direction builds on.

The walk is by name: from ``cli.main`` it follows every ``Name`` in a reached top-level
definition that is a top-level definition of the same module or a name imported from a
sibling module.  A reached class reaches everything its methods name.
"""

import ast
from pathlib import Path

import qpacking

KEPT = {
    "geometry.extended_gcd": "ROADMAP Direction 8: sectors given by two rays",
    "geometry.reduce_general_sector": "ROADMAP Direction 8: sectors given by two rays",
    "geometry.shear_map": "ROADMAP Direction 8: sectors given by two rays",
    "geometry.x_axis_reflection": "ROADMAP Direction 8: sectors given by two rays",
    "poly.step_difference": "ROADMAP Direction 1: the staircase proof",
    "poly.NonConstantStepDifference": "ROADMAP Direction 1: the staircase proof",
    "staircase.first_step_y": "ROADMAP Directions 1 and 11: the base staircases",
    "verify.value_floor": "the bench tracer wraps it (ROADMAP Direction 3)",
}

TREES = {path.stem: ast.parse(path.read_text()) for path in Path(qpacking.__file__).parent.glob("*.py")}


def top_level(tree) -> dict:
    """Name -> node of each function, class and non-dunder assignment at module level."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out[node.name] = node
        for target in getattr(node, "targets", [getattr(node, "target", None)]):
            if isinstance(target, ast.Name) and not target.id.startswith("__"):
                out[target.id] = node
    return out


def unreached() -> set[str]:
    defs = {mod: top_level(tree) for mod, tree in TREES.items()}
    imported = {mod: {alias.asname or alias.name: (node.module, alias.name)
                      for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1
                      for alias in node.names}
                for mod, tree in TREES.items()}
    seen, todo = set(), [("cli", "main")]
    while todo:
        mod, name = todo.pop()
        if (mod, name) in seen:
            continue
        seen.add((mod, name))
        for node in ast.walk(defs[mod][name]):
            if isinstance(node, ast.Name) and node.id in defs[mod]:
                todo.append((mod, node.id))
            elif isinstance(node, ast.Name) and node.id in imported[mod]:
                todo.append(imported[mod][node.id])
    return {f"{mod}.{name}" for mod, names in defs.items() for name in names if (mod, name) not in seen}


def test_unreached_definitions_are_the_kept_ones():
    assert unreached() == set(KEPT)


def test_every_import_is_used():
    unused = {}
    for mod, tree in TREES.items():
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        imports = [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                   and getattr(node, "module", None) != "__future__"]
        names = {alias.asname or alias.name.partition(".")[0] for node in imports for alias in node.names}
        if names - used:
            unused[mod] = names - used
    assert unused == {}
