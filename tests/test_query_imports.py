"""Dead-import gate for the query registry modules.

Pruning a query family relies on grep ("which queries still reach this
helper?"); a module-level import that nothing uses makes that answer
wrong.  ``__init__.py`` is exempt: its imports are the package's
re-export surface.
"""

from __future__ import annotations

import ast
import pathlib

import reconcile_curation_in_cris_systems_ray.pipelines.queries as queries

QUERY_DIR = pathlib.Path(queries.__file__).parent


def _unused_imports(path: pathlib.Path) -> list[str]:
    tree = ast.parse(path.read_text())
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.name}:{line} {name}"
            for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in used]


def test_query_modules_have_no_unused_imports():
    modules = sorted(p for p in QUERY_DIR.glob("*.py")
                     if p.name != "__init__.py")
    assert len(modules) >= 10
    unused = [u for p in modules for u in _unused_imports(p)]
    assert unused == [], unused
