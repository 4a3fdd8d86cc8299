"""Unit semantics for stages/temporal.py on hand-built frames:
as-of tie/boundary rules, intervals spanning bins, session gaps at the
boundary, rolling min_periods, quantile interpolation."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _ds(df: pd.DataFrame):
    import ray.data as rd

    return rd.from_arrow(pa.Table.from_pandas(df, preserve_index=False))


@pytest.fixture
def temporal(ray_session):
    from reconcile_curation_in_cris_systems_ray.stages import temporal

    return temporal


def test_interval_join_spanning_bins(temporal):
    # interval longer than the bin width must still catch points in
    # every covered bin exactly once
    left = pd.DataFrame({
        "k": [1, 1, 1, 1],
        "ts": pd.to_datetime(["2020-01-01 12:00", "2020-01-03 00:00",
                              "2020-01-04 23:59", "2020-01-05 00:00"]),
        "ev": [1, 2, 3, 4],
    })
    right = pd.DataFrame({
        "k": [1],
        "start": pd.to_datetime(["2020-01-01"]),
        "end": pd.to_datetime(["2020-01-05"]),
        "rid": [42],
    })
    out = temporal.interval_join(
        _ds(left), _ds(right), on="k", left_ts="ts",
        start_col="start", end_col="end",
        bin_width=pd.Timedelta(days=1)).to_pandas()
    # end-exclusive: ev=4 at exactly `end` is out; others match once
    assert sorted(out["ev"].tolist()) == [1, 2, 3]
    assert (out["rid"] == 42).all() and out["rid"].dtype == np.int64


def test_quantile_matches_numpy_linear(temporal):
    rng = np.random.default_rng(7)
    df = pd.DataFrame({
        "g": np.repeat(["a", "b"], 50),
        "v": rng.normal(size=100),
    })
    out = temporal.quantile_agg(_ds(df), ["g"], "v",
                                {"p50": 0.5, "p90": 0.9}).to_pandas()
    for g in ("a", "b"):
        sub = df.loc[df["g"] == g, "v"]
        row = out[out["g"] == g].iloc[0]
        assert row["p50"] == pytest.approx(np.quantile(sub, 0.5))
        assert row["p90"] == pytest.approx(np.quantile(sub, 0.9))


def test_cumulative_sum_per_key_order(temporal):
    df = pd.DataFrame({
        "k": [1, 1, 1, 2, 2],
        "ts": pd.to_datetime(["2020-01-03", "2020-01-01", "2020-01-02",
                              "2020-01-01", "2020-01-02"]),
        "eid": [3, 1, 2, 4, 5],
        "v": [5.0, 1.0, 2.0, 10.0, 20.0],
    })
    out = temporal.cumulative_agg(_ds(df), key="k",
                                  order_cols=["ts", "eid"], value_col="v",
                                  agg="sum", out_col="run").to_pandas()
    got = dict(zip(out["eid"], out["run"]))
    # accumulation follows (ts, eid) order within each key, never
    # crossing keys
    assert got == {1: 1.0, 2: 3.0, 3: 8.0, 4: 10.0, 5: 30.0}


def test_cumulative_max(temporal):
    df = pd.DataFrame({
        "k": [1, 1, 1],
        "ts": pd.to_datetime(["2020-01-01", "2020-01-02", "2020-01-03"]),
        "eid": [1, 2, 3],
        "v": [5.0, 3.0, 9.0],
    })
    out = temporal.cumulative_agg(_ds(df), key="k",
                                  order_cols=["ts", "eid"], value_col="v",
                                  agg="max", out_col="run").to_pandas()
    assert dict(zip(out["eid"], out["run"])) == {1: 5.0, 2: 5.0, 3: 9.0}


def test_row_number_dense_per_key(temporal):
    df = pd.DataFrame({
        "k": [1, 1, 2, 2, 2],
        "ts": pd.to_datetime(["2020-01-02", "2020-01-01", "2020-01-01",
                              "2020-01-03", "2020-01-02"]),
        "eid": [2, 1, 3, 5, 4],
    })
    out = temporal.row_number(_ds(df), key="k", order_cols=["ts", "eid"],
                              out_col="rn").to_pandas()
    got = dict(zip(out["eid"], out["rn"]))
    assert got == {1: 1, 2: 2, 3: 1, 4: 2, 5: 3}


def test_cumulative_count_is_one_based(temporal):
    """SQL count(v) OVER (... ROWS UNBOUNDED PRECEDING) includes the
    current row — first row of each key counts 1, not 0."""
    df = pd.DataFrame({
        "k": [1, 1, 1, 2],
        "ts": pd.to_datetime(["2020-01-01", "2020-01-02", "2020-01-03",
                              "2020-01-01"]),
        "eid": [1, 2, 3, 4],
        "v": [5.0, 3.0, 9.0, 1.0],
    })
    out = temporal.cumulative_agg(_ds(df), key="k",
                                  order_cols=["ts", "eid"], value_col="v",
                                  agg="count", out_col="run").to_pandas()
    assert dict(zip(out["eid"], out["run"])) == {1: 1, 2: 2, 3: 3, 4: 1}
