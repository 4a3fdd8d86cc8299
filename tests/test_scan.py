"""Unit pins for the keyless-window primitives in stages/scan.py —
exercised across MANY small blocks so every cross-block handoff path
(offset, lead, halo stitched from multiple short tails) actually runs.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest


@pytest.fixture(scope="module")
def frame():
    rng = np.random.default_rng(11)
    n = 1000
    return pd.DataFrame({
        "k": rng.permutation(n),          # sort key, unique
        "v": rng.integers(-5, 6, size=n).astype(np.int64)})


def _ds(df, blocks):
    import ray.data as rd

    return rd.from_pandas(df).repartition(blocks)


def test_global_scan_matches_pandas(ray_session, frame):
    from reconcile_curation_in_cris_systems_ray.stages.scan import global_scan

    out = global_scan(_ds(frame, 23), ["k"], "v", "c").to_pandas() \
        .sort_values("k").reset_index(drop=True)
    want = frame.sort_values("k").reset_index(drop=True)
    np.testing.assert_array_equal(out["c"].to_numpy(),
                                  want["v"].cumsum().to_numpy())


def test_global_scan_lead(ray_session, frame):
    from reconcile_curation_in_cris_systems_ray.stages.scan import global_scan

    out = global_scan(_ds(frame, 17), ["k"], "v", "c",
                      lead_of="k", lead_col="k_next").to_pandas() \
        .sort_values("k").reset_index(drop=True)
    want = frame.sort_values("k").reset_index(drop=True)
    lead = want["k"].shift(-1)
    assert out["k_next"].iloc[-1] is None or pd.isna(out["k_next"].iloc[-1])
    np.testing.assert_array_equal(
        out["k_next"].to_numpy(dtype=np.float64)[:-1],
        lead.to_numpy(dtype=np.float64)[:-1])
