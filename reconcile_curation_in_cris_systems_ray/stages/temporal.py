"""Temporal / ordered-window operators: interval (range) join,
partitioned window functions (cumulative, row number) and exact group
quantiles.

Ray Data has no native primitive for any of these (and the reference
engine is batch-only — SURVEY §2.10), but a web-scale event/curation
pipeline needs them.  Every operator here follows one partitioning
contract: hash-partition on the entity key (ONE all-to-all via
``bucketed_map_groups``), then vectorized pandas over complete
key-groups inside each bucket — never a Python call per key, never a
global sort, never a driver-side materialization.

The two-large-side interval join uses the tagged-union pattern: pad
both sides to a common schema with typed nulls plus a ``__side``
marker, union, and shuffle ONCE on the join key so each bucket holds
both sides of every key it owns.  This is the same exchange count as a
hash join, and the join bounds replication by time-binning (an
interval is copied only to the bins it overlaps), so a long interval
costs O(span/bin) copies — the documented partitioning assumption is
that span/bin stays small.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pandas as pd
import pyarrow as pa

from .shuffle import bucketed_map_groups

_SIDE = "__side"
_BIN = "__bin"


def _pad_union(left, right, on: str, left_ts: str, right_ts: str):
    """Align two datasets on [on, ts, left payload..., right payload...]
    with typed-null padding and a __side tag (1=left, 0=right), then
    union them.  Returns (unioned_ds, left_payload, right_payload)."""
    lschema, rschema = left.schema(), right.schema()
    lpay = [c for c in lschema.names if c not in (on, left_ts)]
    rpay = [c for c in rschema.names if c not in (on, right_ts)]
    overlap = set(lpay) & set(rpay)
    if overlap:
        raise ValueError(f"payload column collision: {sorted(overlap)}")
    ltypes = dict(zip(lschema.names, lschema.types))
    rtypes = dict(zip(rschema.names, rschema.types))
    order = [on, left_ts, *lpay, *rpay, _SIDE]

    def pad_left(t: pa.Table) -> pa.Table:
        n = len(t)
        for c in rpay:
            t = t.append_column(c, pa.nulls(n, rtypes[c]))
        t = t.append_column(_SIDE, pa.array(np.ones(n, np.int8)))
        return t.select(order)

    def pad_right(t: pa.Table) -> pa.Table:
        n = len(t)
        t = t.rename_columns([left_ts if c == right_ts else c
                              for c in t.schema.names])
        for c in lpay:
            t = t.append_column(c, pa.nulls(n, ltypes[c]))
        t = t.append_column(_SIDE, pa.array(np.zeros(n, np.int8)))
        return t.select(order)

    unioned = (left.map_batches(pad_left, batch_format="pyarrow")
               .union(right.map_batches(pad_right, batch_format="pyarrow")))
    # integer/bool payload columns widen to float64 in pandas once the
    # other side's nulls appear; record the dtypes to restore after the
    # in-bucket join filters the nulls back out.
    restore = {c: t.to_pandas_dtype()
               for c, t in {**ltypes, **rtypes}.items()
               if (pa.types.is_integer(t) or pa.types.is_boolean(t))
               and c in (*lpay, *rpay)}
    return unioned, lpay, rpay, restore


def interval_join(left, right, on: str, left_ts: str, start_col: str,
                  end_col: str, bin_width: pd.Timedelta,
                  num_buckets: int = 64):
    """Inner interval join: pairs (left, right) with equal ``on`` key
    and ``start_col <= left_ts < end_col`` (end-exclusive).

    Scale path: both sides are binned by ``bin_width`` — a point lands
    in one bin, an interval is replicated to every bin it overlaps —
    and the shuffle key is (key, bin), so co-location never depends on
    one key's full history fitting in a task.  Partitioning assumption
    (documented contract): interval span / bin_width is small (each
    extra bin is one replica row).  A point meets each overlapping
    interval in exactly one bin, so no post-join dedup is needed.
    """
    bin_us = np.int64(int(bin_width / pd.Timedelta(microseconds=1)))
    unioned, lpay, rpay, restore = _pad_union(left, right, on, left_ts,
                                              start_col)
    # right side's end_col travels inside rpay; left_ts column now holds
    # start for right rows.
    rval = [c for c in rpay if c != end_col]

    def binned(t: pa.Table) -> pa.Table:
        # normalize to microseconds BEFORE the int cast: mixed ns/us
        # timestamp columns otherwise shift bins by 1000x and explode
        # the replication factor
        ts = t.column(left_ts).cast(pa.timestamp("us")).cast(
            pa.int64()).to_numpy(zero_copy_only=False)
        side = t.column(_SIDE).to_numpy(zero_copy_only=False)
        first = ts // bin_us
        if (side == 0).any():
            end = t.column(end_col).cast(pa.timestamp("us")).cast(
                pa.int64()).to_numpy(zero_copy_only=False)
            # end-exclusive: the last covered bin is (end - 1us) // bin
            last = np.where(side == 0, (end - 1) // bin_us, first)
            last = last.astype(np.int64)
        else:
            last = first
        reps = (last - first + 1).astype(np.int64)
        idx = np.repeat(np.arange(len(t)), reps)
        offs = np.arange(reps.sum()) - np.repeat(
            np.cumsum(reps) - reps, reps)
        out = t.take(pa.array(idx))
        return out.append_column(
            _BIN, pa.array(np.repeat(first, reps) + offs))

    expanded = unioned.map_batches(binned, batch_format="pyarrow")

    def bucket_fn(df: pd.DataFrame) -> pd.DataFrame:
        ldf = df.loc[df[_SIDE] == 1, [on, _BIN, left_ts, *lpay]]
        rdf = df.loc[df[_SIDE] == 0, [on, _BIN, left_ts, end_col, *rval]]
        rdf = rdf.rename(columns={left_ts: start_col})
        out = ldf.merge(rdf, on=[on, _BIN])
        out = out[(out[start_col] <= out[left_ts])
                  & (out[left_ts] < out[end_col])]
        out = out.drop(columns=[_BIN])
        for c, want in restore.items():
            if c in out.columns and out[c].dtype != want:
                out[c] = out[c].astype(want)
        return out

    return bucketed_map_groups(expanded, [on, _BIN], bucket_fn,
                               num_buckets)


def cumulative_agg(ds, key: str, order_cols: Sequence[str], value_col: str,
                   agg: str = "sum", out_col: str = "running",
                   num_buckets: int = 64):
    """Per-key running aggregate over the full preceding window (SQL
    ``agg(value) OVER (PARTITION BY key ORDER BY ... ROWS UNBOUNDED
    PRECEDING)``).  Same partitioning contract as the other window
    ops: ONE hash shuffle on the key co-locates each group, then a
    vectorized ``groupby().cumsum/cummax/...`` per bucket.  The
    accumulation visits rows in the same order as the SQL window, so
    float results are bit-identical to a sequential engine's."""
    order_cols = list(order_cols)
    cum_fn = {"sum": "cumsum", "min": "cummin", "max": "cummax",
              "count": "cumcount"}[agg]

    def bucket_fn(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            out = df.copy()
            out[out_col] = pd.Series([], dtype="float64")
            return out
        df = df.sort_values([key, *order_cols], kind="mergesort")
        g = df.groupby(key, sort=False)[value_col]
        out = df.copy()
        if agg == "count":
            # pandas cumcount is 0-based; SQL count() OVER (... ROWS
            # UNBOUNDED PRECEDING) includes the current row
            out[out_col] = g.cumcount() + 1
        else:
            out[out_col] = getattr(g, cum_fn)()
        return out

    return bucketed_map_groups(ds, [key], bucket_fn, num_buckets)


def row_number(ds, key: str, order_cols: Sequence[str],
               out_col: str = "rn", num_buckets: int = 64):
    """Per-key row numbering (SQL ``row_number() OVER (PARTITION BY
    key ORDER BY ...)``): deterministic when ``order_cols`` is a total
    order within each key.  ONE hash shuffle + vectorized
    ``groupby().cumcount`` per bucket."""
    order_cols = list(order_cols)

    def bucket_fn(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            out = df.copy()
            out[out_col] = pd.Series([], dtype="int64")
            return out
        df = df.sort_values([key, *order_cols], kind="mergesort")
        out = df.copy()
        out[out_col] = df.groupby(key, sort=False).cumcount() + 1
        return out

    return bucketed_map_groups(ds, [key], bucket_fn, num_buckets)


def quantile_agg(ds, keys: Sequence[str], value_col: str,
                 qs: dict[str, float], num_buckets: int = 64):
    """Exact per-group quantiles (linear interpolation — DuckDB
    ``quantile_cont`` semantics): ``qs`` maps output column -> q.

    Quantiles are not algebraic, so this co-locates each group with one
    shuffle and computes vectorized per-bucket; the 100 TB path for
    HIGH-cardinality keys is fine (groups spread over buckets), while a
    single giant group is the documented limit — switch to a t-digest
    sketch if one group's rows exceed a task's memory.
    """
    keys = list(keys)

    def bucket_fn(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(keys, sort=False)[value_col]
        out = {}
        for name, q in qs.items():
            out[name] = g.quantile(q)
        return pd.DataFrame(out).reset_index()

    return bucketed_map_groups(ds.select_columns([*keys, value_col]),
                               keys, bucket_fn, num_buckets)
