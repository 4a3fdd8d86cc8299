"""Query registry package: the record-linkage engine's named queries.

Each family module registers its own queries where it defines them: it
ends with a ``QUERIES`` table (name -> function of an sf dir) and an
``ORACLES`` table (name -> DuckDB SQL twin; rows-only queries have no
entry).  This package only merges the nine tables, so adding or dropping
a query edits its module's tables plus ``PINNED`` in
``tests/test_queries_oracle.py``.  Import a query function from the
module that defines it, e.g. ``pipelines.queries.er``.  README's
keep-list gives the reason each module's queries stay.
"""

from . import (dedup, embedding, er, graph, io_catalog, relational, stats,
               temporal, textstats)


def merge_tables(tables) -> dict:
    """Merge ``(module name, table)`` pairs into one dict; a name that two
    modules register raises ``ValueError`` naming it and both modules."""
    merged, owner = {}, {}
    for module, table in tables:
        for name, value in table.items():
            if name in merged:
                raise ValueError(f"query {name!r} is registered by both "
                                 f"{owner[name]} and {module}")
            merged[name], owner[name] = value, module
    return merged


_FAMILIES = (dedup, embedding, er, graph, io_catalog, relational, stats,
             temporal, textstats)
QUERIES = merge_tables((m.__name__, m.QUERIES) for m in _FAMILIES)
ORACLES = merge_tables((m.__name__, m.ORACLES) for m in _FAMILIES)
