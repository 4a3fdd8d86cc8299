"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported; no
``ray.init()`` / ``ray.shutdown()`` happens here or in the library.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

SF_SMOKE = "/root/testdata/sf0.001"


def entry() -> Any:
    """Flagship pipeline smoke: reconcile the deterministic synthetic
    web corpus (sized from sf0.001 documents) and return cluster
    assignments (url, cluster_id)."""
    from reconcile_curation_in_cris_systems_ray.config import tune_data_context
    from reconcile_curation_in_cris_systems_ray.pipelines.queries.er import (
        q_reconcile_flagship,
    )

    tune_data_context()
    return q_reconcile_flagship(SF_SMOKE)


def queries() -> dict[str, Callable[[str], Any]]:
    """The 195 registered queries (README's keep-list gives the reason
    each module's queries stay)."""
    from reconcile_curation_in_cris_systems_ray.config import tune_data_context
    from reconcile_curation_in_cris_systems_ray.pipelines.queries import QUERIES

    tune_data_context()
    return dict(QUERIES)


def oracle_sql() -> dict[str, str]:
    """DuckDB-equivalent SQL for every SQL-expressible query (185 of the
    195).  The 10 rows-only queries are deliberately absent:
    compression_ratio, incremental_link, media_decode, ncd_pairs,
    pca_project, phash_dups, progressive_er, quantile_sketch,
    quantile_sketch_group and reconcile_flagship (README's keep-list
    says why each has none)."""
    from reconcile_curation_in_cris_systems_ray.pipelines.queries import ORACLES

    return dict(ORACLES)
