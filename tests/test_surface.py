"""Every top-level function and class in the package has a caller.

A name counts as called when it appears, outside its own definition, in
the package's modules (not ``__init__.py``, whose re-exports call nothing),
in the benchmark scripts, in the acceptance tests or in the shared test
helpers.  A name that only its own unit tests reach is dead weight: fold it
into the code it wraps or delete it.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qsense"
CALLERS = [*sorted((ROOT / "bench").glob("*.py")),
           ROOT / "tests" / "test_acceptance.py",
           ROOT / "tests" / "helpers.py"]


def _identifiers(nodes):
    """Every name and attribute name read or written under ``nodes``."""
    found = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                found.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                found.add(sub.attr)
    return found


def test_every_top_level_name_has_a_caller():
    statements = [(path.stem, node)
                  for path in sorted(PACKAGE.glob("*.py"))
                  if path.name != "__init__.py"
                  for node in ast.parse(path.read_text()).body]
    inside = [_identifiers([node]) for _, node in statements]
    outside = _identifiers(ast.parse(path.read_text()) for path in CALLERS)
    uncalled = [f"{module}.{node.name}"
                for i, (module, node) in enumerate(statements)
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name not in outside
                and not any(node.name in names
                            for j, names in enumerate(inside) if j != i)]
    assert not uncalled, f"names without a caller: {uncalled}"
