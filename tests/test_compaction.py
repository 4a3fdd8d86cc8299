"""compaction_plan pin: FFD packing must equal an independent
implementation and respect the target on non-oversized groups."""

from __future__ import annotations

import collections

from reconcile_curation_in_cris_systems_ray.pipelines.queries.io_catalog import (
    ffd_pack,
)

TARGET = 100


def _reference_ffd(sizes: dict, target: int):
    order = sorted(sizes, key=lambda k: (-sizes[k], k))
    bins: list[dict] = []
    for name in order:
        placed = False
        for b in bins:
            if b["load"] + sizes[name] <= target:
                b["files"].append(name)
                b["load"] += sizes[name]
                placed = True
                break
        if not placed:
            bins.append({"files": [name], "load": sizes[name]})
    return [sorted(b["files"]) for b in bins]


def test_ffd_matches_reference():
    import random

    rng = random.Random(5)
    for _ in range(25):
        sizes = {f"f{i:03d}": rng.randint(1, 130)
                 for i in range(rng.randint(1, 40))}
        got = ffd_pack(sizes, TARGET)
        want = _reference_ffd(sizes, TARGET)
        assert got == want
        for g in got:
            total = sum(sizes[f] for f in g)
            assert total <= TARGET or len(g) == 1
        flat = [f for g in got for f in g]
        assert sorted(flat) == sorted(sizes)


def test_compaction_plan_query(ray_session):
    from reconcile_curation_in_cris_systems_ray.pipelines.queries.io_catalog import (
        q_compaction_plan,
    )

    out = q_compaction_plan("/root/testdata/sf0.001")
    assert len(out) > 0
    # every file appears exactly once
    assert out["file"].is_unique
    by_group = collections.defaultdict(int)
    for _, r in out.iterrows():
        by_group[r["group"]] += int(r["bytes"])
    for g, total in by_group.items():
        n_files = (out["group"] == g).sum()
        assert total <= 4 * 1024 * 1024 or n_files == 1
