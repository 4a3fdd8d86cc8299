"""Windowed event queries: tumbling-hour aggregate, windowed distinct
count and the interval stream join.

The ``QUERIES`` / ``ORACLES`` tables at the end register this family.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ...stages import relational as rel
from ._shared import _rp


def q_window_hourly(sf_dir: str):
    """Windowed aggregate (tumbling 1h on the event timestamp).
    Window count is bounded (types x hours), so partial-aggregate +
    driver combine — no shuffle."""
    ds = _rp(sf_dir, "events", ["event_type", "ts", "value"])

    def trunc(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["hour"] = df["ts"].dt.floor("h")
        return df.drop(columns=["ts"])

    truncated = ds.map_batches(trunc, batch_format="pandas")
    df = rel.partial_groupby_agg(truncated, ["event_type", "hour"], {
        "n": (None, "count"),
        "sum_value": ("value", "sum"),
    })
    df["sum_value"] = df["sum_value"].round(4)
    return df


SQL_WINDOW_HOURLY = """
SELECT event_type, date_trunc('hour', ts) AS hour,
       count(*) AS n, round(sum(value), 4) AS sum_value
FROM events GROUP BY event_type, date_trunc('hour', ts)
"""


def q_window_distinct(sf_dir: str):
    """Distinct users per hourly tumbling window — the
    distinct-count-under-windowing operator (window_hourly counts
    rows; COUNT(DISTINCT) needs its own plan at scale): per-batch
    (hour, user) dedup partials, ONE bucketed distinct on the pair,
    then a per-hour count combiner; total events ride along as a
    second combiner joined on the bounded hour frame."""
    from ...stages.relational import distinct

    ev = _rp(sf_dir, "events", ["ts", "user_id"])

    def with_hour(df: pd.DataFrame) -> pd.DataFrame:
        h = df["ts"].to_numpy("datetime64[us]").astype("datetime64[h]")
        return pd.DataFrame({"h": h.astype("datetime64[us]"),
                             "user_id": df["user_id"]}) \
            .drop_duplicates(ignore_index=True)

    pairs = distinct(ev.map_batches(with_hour, batch_format="pandas"),
                     ["h", "user_id"], num_buckets=32)
    nu = rel.partial_groupby_agg(
        pairs.map_batches(
            lambda df: df.assign(n_users=np.int64(1))[["h", "n_users"]],
            batch_format="pandas"),
        ["h"], {"n_users": ("n_users", "sum")})
    ne = rel.partial_groupby_agg(
        ev.map_batches(
            lambda df: pd.DataFrame({
                "h": df["ts"].to_numpy("datetime64[us]")
                .astype("datetime64[h]").astype("datetime64[us]"),
                "n_events": np.int64(1)}),
            batch_format="pandas"),
        ["h"], {"n_events": ("n_events", "sum")})
    out = nu.merge(ne, on="h")
    out["n_users"] = out["n_users"].astype(np.int64)
    out["n_events"] = out["n_events"].astype(np.int64)
    return out


SQL_WINDOW_DISTINCT = """
SELECT date_trunc('hour', ts) AS h,
       CAST(count(DISTINCT user_id) AS BIGINT) AS n_users,
       CAST(count(*) AS BIGINT) AS n_events
FROM events GROUP BY 1
"""


def q_stream_join(sf_dir: str):
    """Windowed stream-stream join — every (click, view) pair of the
    same user within 2 hours — the streaming-engine staple
    (Flink/Beam interval join) as one user co-location shuffle plus a
    per-group SORTED-NEIGHBOR probe: views sort by time once, each
    click binary-searches its +/-300 s window (searchsorted), and only
    true pairs materialize — never the per-user cross product."""
    from ...stages.shuffle import bucketed_map_groups

    ev = _rp(sf_dir, "events", ["user_id", "ts", "event_id",
                                "event_type"])
    win_us = np.int64(7200000000)

    empty = pd.DataFrame({"click_id": pd.Series([], dtype="int64"),
                          "view_id": pd.Series([], dtype="int64"),
                          "dt_s": pd.Series([], dtype="float64")})

    def probe(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["event_type"].isin(["click", "view"])]
        outs = []
        for _, g in df.groupby("user_id", sort=False):
            c = g[g["event_type"] == "click"]
            v = g[g["event_type"] == "view"].sort_values(["ts", "event_id"])
            if not len(c) or not len(v):
                continue
            ct = c["ts"].to_numpy("datetime64[us]").astype(np.int64)
            vt = v["ts"].to_numpy("datetime64[us]").astype(np.int64)
            cid = c["event_id"].to_numpy(np.int64)
            vid = v["event_id"].to_numpy(np.int64)
            lo = np.searchsorted(vt, ct - win_us, side="left")
            hi = np.searchsorted(vt, ct + win_us, side="right")
            n = hi - lo
            if not n.sum():
                continue
            ci = np.repeat(np.arange(len(ct)), n)
            vi = np.concatenate([np.arange(a, b) for a, b in zip(lo, hi)
                                 if b > a])
            outs.append(pd.DataFrame({
                "click_id": cid[ci], "view_id": vid[vi],
                "dt_s": np.round(
                    (vt[vi] - ct[ci]).astype(np.float64) / 1e6, 6)}))
        return pd.concat(outs, ignore_index=True) if outs else empty

    return bucketed_map_groups(ev, ["user_id"], probe, num_buckets=32,
                               empty_like=empty)


SQL_STREAM_JOIN = """
SELECT c.event_id AS click_id, v.event_id AS view_id,
       round((epoch_us(v.ts) - epoch_us(c.ts)) / 1e6, 6) AS dt_s
FROM events c JOIN events v
  ON c.user_id = v.user_id
 AND c.event_type = 'click' AND v.event_type = 'view'
 AND epoch_us(v.ts) >= epoch_us(c.ts) - 7200000000
 AND epoch_us(v.ts) <= epoch_us(c.ts) + 7200000000
"""


QUERIES = {
    "window_hourly": q_window_hourly,
    "window_distinct": q_window_distinct,
    "stream_join": q_stream_join,
}

ORACLES = {
    "window_hourly": SQL_WINDOW_HOURLY,
    "window_distinct": SQL_WINDOW_DISTINCT,
    "stream_join": SQL_STREAM_JOIN,
}
