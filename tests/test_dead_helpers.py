"""Dead-helper gate: every top-level function, class and method in src/ is
read by other src/ code, or is on the allowlist of names reached on purpose
from outside the package's own call graph.

A definition counts as read when its name is loaded somewhere in src/ other
than inside its own body, as a plain name or as an attribute.  Matching by
name alone is coarse (any `.holds` read keeps every method named `holds`),
so the gate finds helpers nothing mentions, not every unreachable one.
Dunder methods are called by the language and are skipped.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cubetree"

ALLOWED = {
    # Claim oracles: the tests and the acceptance criteria call them.
    "cc.extend_to_dimension_two",
    "cube.all_translations",
    "cube.edge_color",
    "cube.enumerate_cube_automorphisms",
    "cube.parity",
    "cube.symm_diff",
    "dc.modulus_check",
    "verify.bf_equiv",
    "verify.ideal_tree_snapshot",
    "verify.orbit_probe",
    "verify.orbit_witness",
    "verify.path_from_automorphism",
    # References the tests check the fast paths against.
    "structure.holds_E",
    "structure.holds_W",
    # Element construction and failure listings for the tests, and the
    # predicate whose calls perfbench counts.
    "structure.elem",
    "verify.Report.failures",
    "dc.PhiPredicate.holds",
    # A slice of the trace lines for the tests; perfbench's traced mode
    # wraps it by name.
    "engine.Engine.trace_lines",
}


def loaded_names(node) -> Counter:
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            names[sub.attr] += 1
    return names


def definitions(module: str, tree: ast.Module):
    """(qualified name, definition) of each top-level function and class and
    of each method defined in a top-level class body."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{module}.{node.name}.{item.name}", item


def unread_definitions() -> tuple[list[str], set[str]]:
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    everywhere = Counter()
    for tree in trees.values():
        everywhere.update(loaded_names(tree))
    unread, defined = [], set()
    for module, tree in trees.items():
        for qualname, node in definitions(module, tree):
            defined.add(qualname)
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if everywhere[name] - loaded_names(node)[name] <= 0:
                unread.append(qualname)
    return unread, defined


def test_every_helper_is_read_or_allowed():
    unread, defined = unread_definitions()
    assert sorted(set(unread) - ALLOWED) == []
    # An allowlist entry names a definition that still exists, and one that
    # src/ does not read: a stale entry would hide that helper if its last
    # reader went.
    assert sorted(ALLOWED - defined) == []
    assert sorted(ALLOWED - set(unread)) == []
