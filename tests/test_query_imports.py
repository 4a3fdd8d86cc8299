"""Dead-import gate for the engine package, and the lookup gate.

Pruning a query family relies on grep ("which queries still reach this
helper?"); a module-level import that nothing uses makes that answer
wrong.  Every subpackage is checked, so a stage helper deleted with its
last query cannot leave a stale import behind either.  ``__init__.py``
files are exempt: their imports are the package's re-export surface.

The lookup gate keeps each url- or id-keyed join on the one broadcast
lookup (``stages/lookup.py``): the modules below may not probe a sorted
key array with a ``searchsorted`` of their own.
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
# (module, function): joins that probe through stages/lookup.py; a
# function name limits the gate to that function's body
LOOKUP_PROBERS = [
    ("stages/scoring.py", None),
    ("stages/cluster.py", None),
    ("pipelines/incremental.py", None),
    ("stages/dedup.py", "ngram_jaccard_pairs"),
    ("stages/sketch.py", "signature_agreement_pairs"),
    ("stages/sketch.py", "_agreeing_pairs"),
]


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


def _searchsorted_calls(path: pathlib.Path, function: str | None) -> list:
    tree = ast.parse(path.read_text())
    if function is not None:
        tree = next(n for n in ast.walk(tree)
                    if isinstance(n, ast.FunctionDef) and n.name == function)
    return [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Call)
            and "searchsorted" in (getattr(n.func, "attr", None),
                                   getattr(n.func, "id", None))]


@pytest.mark.parametrize("module,function", LOOKUP_PROBERS)
def test_url_keyed_joins_probe_through_the_lookup_module(module, function):
    assert _searchsorted_calls(ENGINE_DIR / module, function) == []
