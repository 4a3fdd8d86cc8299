"""Dead-import gate for the engine package.

Pruning a query family relies on grep ("which queries still reach this
helper?"); a module-level import that nothing uses makes that answer
wrong.  Every subpackage is checked, so a stage helper deleted with its
last query cannot leave a stale import behind either.  ``__init__.py``
files are exempt: their imports are the package's re-export surface.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

import reconcile_curation_in_cris_systems_ray as engine

ENGINE_DIR = pathlib.Path(engine.__file__).parent
# the package itself and each subpackage, as paths relative to it
SUBPACKAGES = sorted(p.parent.relative_to(ENGINE_DIR).as_posix()
                     for p in ENGINE_DIR.rglob("__init__.py"))


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
    rel = path.relative_to(ENGINE_DIR).as_posix()
    return [f"{rel}:{line} {name}"
            for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in used]


def test_gate_covers_every_subpackage():
    assert {".", "pipelines/queries", "stages"} <= set(SUBPACKAGES)


@pytest.mark.parametrize("subpackage", SUBPACKAGES)
def test_modules_have_no_unused_imports(subpackage):
    modules = sorted(p for p in (ENGINE_DIR / subpackage).glob("*.py")
                     if p.name != "__init__.py")
    unused = [u for p in modules for u in _unused_imports(p)]
    assert unused == [], unused
