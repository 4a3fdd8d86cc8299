"""Print one line per registered query: its name, the ``module:qualname``
of the function that runs it, and the sha256 of its ``ORACLES`` SQL (or
``rows-only`` when it has none).  Sorted by name, so two commits'
outputs diff line by line: a pure deletion wave shows only ``-`` lines,
and any kept query whose function moved or whose SQL changed shows up.

Usage: python scripts/registry_digest.py > digest.txt
"""

from __future__ import annotations

import hashlib
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from reconcile_curation_in_cris_systems_ray.pipelines.queries import (  # noqa: E402
    ORACLES, QUERIES,
)


def digest_lines() -> list[str]:
    lines = []
    for name in sorted(QUERIES):
        fn = QUERIES[name]
        where = f"{fn.__module__}:{fn.__qualname__}"
        sql = ORACLES.get(name)
        sha = (hashlib.sha256(sql.encode("utf-8")).hexdigest()
               if sql is not None else "rows-only")
        lines.append(f"{name} {where} {sha}")
    return lines


if __name__ == "__main__":
    print("\n".join(digest_lines()))
