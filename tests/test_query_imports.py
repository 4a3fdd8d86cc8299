"""Dead-import gate for the engine package, the core/library boundary,
the query-table merge and the lookup gate.

Pruning a query family relies on grep ("which queries still reach this
helper?"); a module-level import that nothing uses makes that answer
wrong.  Every module of every subpackage is checked, ``__init__.py``
files included: no package re-exports names, so each import in one is
used there, and a stale helper cannot hide behind a re-export list.

The boundary gate keeps the linkage core (the flagship, the incremental
link and the CLI) independent of the query library: the engine imports
that the core reaches, at any depth, never load ``pipelines/queries/``
or the library-only stage modules (``LIBRARY_ONLY_STAGES``), and no
engine module outside that package imports it.

The lookup gate keeps each url- or id-keyed join on the one sorted-hash
lookup (``stages/lookup.py``): the modules below may not probe a sorted
key array with a ``searchsorted`` of their own.

The caller gate keeps the scripts, ``bench.py`` and the benchmark
harness (``perfbench/``, read and never edited here) in step with the
engine: every engine name they import, lazy imports inside functions
included, must still resolve, so a rename fails here rather than when
the script or the benchmark next runs.
"""

from __future__ import annotations

import ast
import importlib
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
    modules = sorted((ENGINE_DIR / subpackage).glob("*.py"))
    unused = [u for p in modules for u in _unused_imports(p)]
    assert unused == [], unused


def _engine_imports(path: pathlib.Path) -> set[pathlib.Path]:
    """Engine modules that ``path`` imports anywhere in its body (lazy
    imports included), with the packages they load on the way."""
    pkg = path.parent.relative_to(ENGINE_DIR).parts
    targets = []  # (dotted module path, names imported from it)
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            targets += [(a.name.split("."), []) for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            mod = node.module.split(".") if node.module else []
            if node.level:
                mod = [ENGINE_DIR.name, *pkg[:len(pkg) - node.level + 1],
                       *mod]
            targets.append((mod, [a.name for a in node.names]))
    out = set()
    for mod, names in targets:
        if mod[0] != ENGINE_DIR.name:
            continue
        parts = mod[1:]
        for i in range(len(parts) + 1):
            out.add(ENGINE_DIR.joinpath(*parts[:i], "__init__.py"))
        out.add(ENGINE_DIR.joinpath(*parts).with_suffix(".py"))
        out.update(ENGINE_DIR.joinpath(*parts, n + ".py") for n in names)
    return {p for p in out if p.is_file()}


def _import_closure(roots) -> set[pathlib.Path]:
    seen, todo = set(), [ENGINE_DIR / r for r in roots]
    while todo:
        path = todo.pop()
        if path not in seen:
            seen.add(path)
            todo.extend(_engine_imports(path) - seen)
    return seen


def _in_query_library(path: pathlib.Path) -> bool:
    return path.is_relative_to(ENGINE_DIR / "pipelines" / "queries")


# stage modules outside pipelines/queries/ that only the query library
# uses; the linkage core must not load them either
LIBRARY_ONLY_STAGES = ["stages/fuzzy.py"]


def test_linkage_core_never_reaches_the_query_library():
    closure = _import_closure(["pipelines/reconcile.py",
                               "pipelines/incremental.py", "cli.py"])
    # non-vacuous: the walk follows relative imports at any depth, and
    # function-local ones (blocking.py imports textnorm inside a method)
    assert ENGINE_DIR / "stages" / "lookup.py" in closure
    assert ENGINE_DIR / "functions" / "textnorm.py" in closure
    reached = sorted(p.relative_to(ENGINE_DIR).as_posix()
                     for p in closure if _in_query_library(p)
                     or p.relative_to(ENGINE_DIR).as_posix()
                     in LIBRARY_ONLY_STAGES)
    assert reached == [], reached
    assert all((ENGINE_DIR / m).is_file() for m in LIBRARY_ONLY_STAGES)


def test_only_the_query_library_imports_itself():
    importers = sorted(
        p.relative_to(ENGINE_DIR).as_posix()
        for p in ENGINE_DIR.rglob("*.py") if not _in_query_library(p)
        and any(_in_query_library(q) for q in _engine_imports(p)))
    assert importers == [], importers


def test_query_table_merge_rejects_a_name_registered_twice():
    from reconcile_curation_in_cris_systems_ray.pipelines.queries import (
        merge_tables,
    )

    assert merge_tables([("a", {"x": 1}), ("b", {"y": 2})]) == \
        {"x": 1, "y": 2}
    with pytest.raises(ValueError, match=r"'x'.* a and b"):
        merge_tables([("a", {"x": 1}), ("b", {"y": 2, "x": 3})])


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


def test_linkage_path_runs_no_dataset_join():
    """The url-keyed joins of the linkage path go through the sharded
    lookup at every size: no Ray ``Dataset.join`` (a ``join`` call with
    a ``join_type``) is left in them."""
    modules = [ENGINE_DIR / "stages" / m
               for m in ("scoring.py", "cluster.py", "dedup.py")]
    modules += sorted((ENGINE_DIR / "pipelines").rglob("*.py"))
    joins = [f"{p.relative_to(ENGINE_DIR)}:{n.lineno}"
             for p in modules for n in ast.walk(ast.parse(p.read_text()))
             if isinstance(n, ast.Call)
             and getattr(n.func, "attr", None) == "join"
             and any(k.arg == "join_type" for k in n.keywords)]
    assert joins == [], joins


REPO_DIR = ENGINE_DIR.parent
# programs outside the package that import the engine
ENGINE_CALLERS = sorted([*REPO_DIR.glob("scripts/*.py"), REPO_DIR / "bench.py",
                         *REPO_DIR.glob("perfbench/*.py")])


def _engine_names(path: pathlib.Path) -> list[tuple[int, str, str | None]]:
    """``(line, module, name)`` of each engine import in ``path``, at any
    depth; ``name`` is None for a plain ``import module``."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            out += [(node.lineno, a.name, None) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            out += [(node.lineno, node.module, a.name) for a in node.names]
    return [(line, mod, name) for line, mod, name in out
            if mod.split(".")[0] == ENGINE_DIR.name]


def _resolves(module: str, name: str | None) -> bool:
    try:
        mod = importlib.import_module(module)
    except ImportError:
        return False
    if name is None or hasattr(mod, name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


def test_engine_callers_import_names_that_exist():
    imports = {p: _engine_names(p) for p in ENGINE_CALLERS}
    # non-vacuous: the benchmark's lazy imports inside functions count
    assert imports[REPO_DIR / "perfbench" / "layers.py"]
    broken = [f"{p.relative_to(REPO_DIR)}:{line} {mod} {name or ''}"
              for p, found in imports.items()
              for line, mod, name in found if not _resolves(mod, name)]
    assert broken == [], broken
