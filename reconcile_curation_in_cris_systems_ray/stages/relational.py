"""Relational operators, Ray-Data-first.

Reference analogues (SURVEY §2.4-2.7): linkage equi-joins (J1/J3/J8),
broadcast small-side lookups (J2), anti-joins (J4/J5), containment
join (J6), priority window-dedup (D1), DISTINCT (D2-D4),
representative-pick (A2), match-type counts (A3).

Design rules:
- small side -> ``ray.put`` broadcast + per-batch pandas merge (no
  shuffle);
- both sides large -> ``Dataset.join`` (hash-partitioned) with
  partitions sized to cluster CPUs;
- anti-join -> broadcast key set + vectorized ``isin`` filter;
- window dedup / top-k per group / distinct -> bucketed co-location
  (one hash shuffle, vectorized pandas within buckets — never one
  Python call per key).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pandas as pd
import ray

from .shuffle import bucketed_map_groups


def _num_partitions(requested: int | None = None) -> int:
    if requested:
        return requested
    cpus = int(ray.cluster_resources().get("CPU", 8))
    return max(2, cpus // 2)


def broadcast_join(ds, small_df: pd.DataFrame, on: Sequence[str],
                   how: str = "inner", suffix: str = "_r"):
    """Join against a small in-memory side, shipped once via ray.put.

    Reference J2 (institution->ROR lookup) pattern: the lookup table is
    read inside each task from the object store, never re-shipped per
    batch.
    """
    ref = ray.put(small_df)
    on = list(on)

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        small = ray.get(ref)
        return df.merge(small, on=on, how=how, suffixes=("", suffix))

    return ds.map_batches(merge, batch_format="pandas")


def hash_join(left, right, on: Sequence[str], how: str = "inner",
              num_partitions: int | None = None,
              right_on: Sequence[str] | None = None,
              rows_hint: int | None = None):
    """Distributed hash join for two large sides (Ray Dataset.join).

    ``rows_hint`` (total rows across both sides, when the caller knows
    it — parquet-metadata counts are free) sizes the partition count
    adaptively: each hash-shuffle partition is one aggregator actor, so
    at small inputs fewer partitions win (measured 4.5 s -> 2.5 s on a
    750k-row join at 32 CPUs with 16 -> 4 partitions), while at scale
    the count grows with the data up to one per cluster CPU.
    """
    if num_partitions is None and rows_hint is not None:
        cpus = int(ray.cluster_resources().get("CPU", 8))
        num_partitions = max(2, min(cpus, -(-rows_hint // 500_000)))
    return left.join(right, join_type=how,
                     num_partitions=_num_partitions(num_partitions),
                     on=tuple(on),
                     right_on=tuple(right_on) if right_on else None)


def skew_join(left, right, on: Sequence[str],
              right_on: Sequence[str] | None = None,
              detect_capacity: int = 64, hot_factor: float = 1.1,
              num_partitions: int | None = None,
              rows_hint: int | None = None):
    """Skew-aware inner equi-join: HOT keys bypass the shuffle.

    The classic salted-join alternative for joins where a handful of
    keys dominate (boilerplate-heavy domains, null-like sentinel ids):
    1. detect candidate hot keys on the left with per-batch
       top-``detect_capacity`` count partials (bounded driver merge —
       capacity x blocks rows, data-size independent);
    2. the right side's rows for those keys are broadcast once via
       ``ray.put`` and joined map-side against the left's hot rows —
       the skewed keys never enter the hash exchange, so no reducer
       receives a monster partition;
    3. the cold remainder takes the normal shuffle :func:`hash_join`;
    4. union (paths cover disjoint key sets).

    Detection is an OPTIMIZATION, not a correctness gate: both paths
    are exact joins, so any candidate set — missed stragglers, false
    positives — yields the identical result.  A key is hot when its
    merged count reaches ``hot_factor`` x the mean candidate count, or
    holds >= 20% of all rows (catches the single-monster-key case).
    Contract: the right side must be dimension-like on hot keys (rows
    per key bounded) so the broadcast stays small.  Single-key
    detection only: compound joins route everything cold.
    """
    on = list(on)
    ron = list(right_on) if right_on else on
    key = on[0]

    rename = dict(zip(ron, on))
    right2 = right.map_batches(
        lambda df: df.rename(columns=rename), batch_format="pandas")
    out_cols = list(left.schema().names) + [
        c for c in right.schema().names if c not in ron]

    if len(on) > 1:
        return hash_join(left, right2, on=on,
                         num_partitions=num_partitions,
                         rows_hint=rows_hint).select_columns(out_cols)

    def part_counts(df: pd.DataFrame) -> pd.DataFrame:
        vc = df[key].value_counts().head(detect_capacity)
        return pd.DataFrame({key: vc.index.to_numpy(), "n": vc.to_numpy()})

    parts = left.select_columns([key]).map_batches(
        part_counts, batch_format="pandas").take_all()
    agg: dict = {}
    for r in parts:
        agg[r[key]] = agg.get(r[key], 0) + r["n"]
    hot: set = set()
    if agg:
        total = sum(agg.values())
        mean = total / len(agg)
        hot = {k for k, n in agg.items()
               if n >= hot_factor * mean or n >= 0.2 * total}
    if not hot:
        return hash_join(left, right2, on=on,
                         num_partitions=num_partitions,
                         rows_hint=rows_hint).select_columns(out_cols)

    hot_ref = ray.put(hot)

    def split(col: str, want_hot: bool):
        def f(df: pd.DataFrame) -> pd.DataFrame:
            m = df[col].isin(ray.get(hot_ref))
            return df[m if want_hot else ~m]
        return f

    left_hot = left.map_batches(split(key, True), batch_format="pandas")
    left_cold = left.map_batches(split(key, False), batch_format="pandas")
    right_hot_df = right2.map_batches(split(key, True),
                                      batch_format="pandas").to_pandas()
    right_cold = right2.map_batches(split(key, False),
                                    batch_format="pandas")

    hot_joined = broadcast_join(left_hot, right_hot_df, on=on)
    cold_joined = hash_join(left_cold, right_cold, on=on,
                            num_partitions=num_partitions,
                            rows_hint=rows_hint)
    return hot_joined.select_columns(out_cols).union(
        cold_joined.select_columns(out_cols))


def partial_groupby_agg(ds, keys: Sequence[str],
                        spec: dict[str, tuple[str | None, str]]) -> pd.DataFrame:
    """Low-cardinality grouped aggregate via the COMBINER pattern:
    per-batch pandas partials (one narrow map, NO shuffle) merged with
    one tiny driver-side combine — the right physical plan whenever the
    group count is small relative to the data (reference A3/A4 counter
    merges; at 10^12 rows a 4-group TPC-H-Q1-style aggregate must never
    pay an all-to-all).

    ``spec``: ``{out_col: (src_col, fn)}`` with fn in
    {'count', 'sum', 'min', 'max'} (mean = caller-side sum/count).
    Returns a pandas DataFrame (the result is small by assumption).

    When the partial stream exceeds ``tree_fanin`` blocks, one bucketed
    combine level pre-merges the partials distributedly (a shuffle over
    the BOUNDED partials, not the data) so the driver collect stays
    O(groups), not O(groups x batches) — the same hierarchical-merge
    guard as the sketch operators.
    """
    keys = list(keys)
    tree_fanin = 32

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(keys, sort=False)
        out = pd.DataFrame(index=g.size().index)
        for col, (src, fn) in spec.items():
            out[col] = g.size() if fn == "count" else getattr(g[src], fn)()
        return out.reset_index()

    parts_ds = ds.map_batches(partial, batch_format="pandas").materialize()
    if parts_ds.num_blocks() > tree_fanin:
        from .shuffle import bucketed_map_groups

        def comb(df: pd.DataFrame) -> pd.DataFrame:
            g = df.groupby(keys, sort=False)
            out = pd.DataFrame(index=g.size().index)
            for col, (_, fn) in spec.items():
                out[col] = getattr(g[col], "sum" if fn == "count" else fn)()
            return out.reset_index()

        parts_ds = bucketed_map_groups(parts_ds, keys, comb,
                                       num_buckets=tree_fanin)
    parts = parts_ds.to_pandas()
    if len(parts) == 0:
        # a fully-empty input loses its schema through the empty
        # blocks (Ray skips UDFs on them); return a typed-empty frame
        return pd.DataFrame({**{k: [] for k in keys},
                             **{c: [] for c in spec}})
    g = parts.groupby(keys, sort=False)
    final = pd.DataFrame(index=g.size().index)
    for col, (_, fn) in spec.items():
        comb = "sum" if fn == "count" else fn
        final[col] = getattr(g[col], comb)()
    return final.reset_index()


def broadcast_anti_join(ds, keys: set | frozenset, on: str):
    """Keep rows whose ``on`` value is NOT in the broadcast key set
    (reference J4/J5 exclusion anti-joins).

    Empty-result caveat: Ray 2.49 drops the schema of ANY 0-row
    Dataset (``to_pandas`` returns zero columns; typed 0-row anchors
    don't survive ``from_arrow`` either), so a caller whose result can
    legitimately drain to nothing must fall back to a typed frame of
    its own — see ``queries._typed_or_empty``."""
    ref = ray.put(frozenset(keys))

    def flt(df: pd.DataFrame) -> pd.DataFrame:
        excl = ray.get(ref)
        return _typed_empty(df[~df[on].isin(excl)])

    return ds.map_batches(flt, batch_format="pandas")


def _typed_empty(df: pd.DataFrame) -> pd.DataFrame:
    """Empty object columns break Ray's block-size estimator; pin them
    to pandas 'string' when a filter drains a block."""
    if len(df) == 0:
        return df.astype({c: "string" for c in df.columns
                          if df[c].dtype == object})
    return df


def distinct(ds, cols: Sequence[str] | None = None, num_buckets: int = 64):
    """Multi-column DISTINCT (reference D2/D4) as bucketed dedup."""
    cols = list(cols) if cols else ds.schema().names
    projected = ds.select_columns(cols)

    def dd(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates(cols)

    return bucketed_map_groups(projected, cols, dd, num_buckets)


def priority_dedup(ds, keys: Sequence[str], order_by: Sequence[str],
                   ascending: Sequence[bool] | None = None,
                   num_buckets: int = 64):
    """ROW_NUMBER() OVER (PARTITION BY keys ORDER BY order_by) = 1
    (reference D1 priority dedup across discovery channels)."""
    keys, order_by = list(keys), list(order_by)
    asc = list(ascending) if ascending is not None else [True] * len(order_by)

    def pick(df: pd.DataFrame) -> pd.DataFrame:
        return (df.sort_values(order_by, ascending=asc, kind="mergesort")
                  .drop_duplicates(keys, keep="first"))

    return bucketed_map_groups(ds, keys, pick, num_buckets)


def topk_per_group(ds, keys: Sequence[str], order_col: str, k: int,
                   descending: bool = True, num_buckets: int = 64):
    """Top-k rows per group by ``order_col`` (window-function analogue)."""
    keys = list(keys)

    def pick(df: pd.DataFrame) -> pd.DataFrame:
        return (df.sort_values([*keys, order_col],
                               ascending=[True] * len(keys) + [not descending],
                               kind="mergesort")
                  .groupby(keys, sort=False).head(k))

    return bucketed_map_groups(ds, keys, pick, num_buckets)


def representative_first(ds, key: str, value_col: str, num_buckets: int = 64):
    """One deterministic representative value per key: the MIN, not an
    order-dependent FIRST (reference A2 divergence, SURVEY §2.5)."""
    from ray.data.aggregate import Min

    return (ds.select_columns([key, value_col])
              .groupby(key).aggregate(Min(value_col, alias_name=value_col)))


def containment_join(ds, col: str, entities: Sequence[str],
                     entity_col: str = "entity"):
    """Theta-join: rows whose ``col`` contains any of the (small) entity
    strings — reference J6 (`LIKE '%'||entity||'%'`), implemented as a
    broadcast + vectorized substring match per entity (no shuffle)."""
    ref = ray.put(list(entities))

    def match(df: pd.DataFrame) -> pd.DataFrame:
        ents = ray.get(ref)
        outs = []
        col_vals = df[col].astype("string").fillna("")
        for e in ents:
            hit = df[col_vals.str.contains(e, regex=False)]
            if len(hit):
                hit = hit.copy()
                hit[entity_col] = e
                outs.append(hit)
        if not outs:
            out = df.head(0).copy()
            out[entity_col] = pd.Series([], dtype="string")
            return out
        return pd.concat(outs, ignore_index=True)

    return ds.map_batches(match, batch_format="pandas")


def explode_split(ds, col: str, sep: str, out_col: str | None = None):
    """UNNEST(string_split(trim(col), sep)) — reference M10 multi-value
    splitter, as a vectorized explode (1 row -> N rows)."""
    out_col = out_col or col

    def split(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df[out_col] = df[col].astype("string").str.strip().str.split(sep)
        if out_col != col:
            df = df.drop(columns=[col]) if col not in (out_col,) else df
        df = df.explode(out_col, ignore_index=True)
        df = df[df[out_col].notna() & (df[out_col] != "")]
        return df

    return ds.map_batches(split, batch_format="pandas")


def group_pivot(ds, key: str, agg_spec: dict[str, tuple[str, str]],
                num_buckets: int = 64):
    """Per-group assembly (reference A1 groupby-work_id pivot slot):
    ``agg_spec`` maps output column -> (input column, pandas agg name).
    """

    def pivot(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(key, sort=False)
        out = pd.DataFrame({
            out_col: g[in_col].agg(how)
            for out_col, (in_col, how) in agg_spec.items()
        })
        return out.reset_index()

    return bucketed_map_groups(ds, [key], pivot, num_buckets)


def group_concat(ds, keys: Sequence[str], value_col: str, sep: str = ",",
                 out_col: str = "concat", num_buckets: int = 64):
    """Per-group ordered string aggregation (SQL ``string_agg(value,
    sep ORDER BY value)``): values sort lexicographically within each
    group so the output is deterministic under any partitioning.  ONE
    hash shuffle on the keys, then a vectorized sort + join per bucket.
    The 100 TB caveat matches every string_agg engine's: one group's
    concatenation must fit in a task's memory — cap group size upstream
    for unbounded keys."""
    keys = list(keys)

    def bucket_fn(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            out = df[keys].copy()
            out[out_col] = pd.Series([], dtype=object)
            return out
        df = df.sort_values([*keys, value_col], kind="mergesort")
        g = df.groupby(keys, sort=False)[value_col]
        return g.agg(sep.join).rename(out_col).reset_index()

    return bucketed_map_groups(ds.select_columns([*keys, value_col]),
                               keys, bucket_fn, num_buckets)


def set_op(left, right, cols: Sequence[str], op: str = "intersect",
           num_buckets: int = 64):
    """SQL ``INTERSECT`` / ``EXCEPT`` (distinct set semantics) in ONE
    bucketed co-location shuffle: both sides are projected to the
    compare columns, tagged with a side bit, unioned, and every
    complete key-group lands in one bucket where a vectorized
    membership test keeps keys present on both sides (``intersect``)
    or only the left (``except``).  No join, no second exchange —
    the same plan a distributed SQL engine picks for set ops.
    """
    if op not in ("intersect", "except"):
        raise ValueError(f"unsupported set op: {op}")
    cols = list(cols)
    side_col = "__side"

    def tag(val):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            out = df.copy()
            out[side_col] = np.int8(val)
            return out
        return fn

    tagged = (left.select_columns(cols)
                  .map_batches(tag(0), batch_format="pandas")
                  .union(right.select_columns(cols)
                               .map_batches(tag(1), batch_format="pandas")))

    def pick(df: pd.DataFrame) -> pd.DataFrame:
        # dropna=False: SQL INTERSECT/EXCEPT treat NULL keys as equal and
        # can emit them — a dropping groupby would silently lose those
        # rows.  Null keys co-locate: string nulls hash stably via
        # pd.util.hash_array, numeric NaN casts to one bucket value.
        g = df.groupby(cols, sort=False, dropna=False)[side_col]
        lo, hi = g.min(), g.max()
        keep = (lo == 0) & (hi == 1) if op == "intersect" else (hi == 0)
        out = lo.index[keep]
        return pd.DataFrame(
            {c: out.get_level_values(i) for i, c in enumerate(cols)}
            if len(cols) > 1 else {cols[0]: out.to_numpy()})

    return bucketed_map_groups(tagged, cols, pick, num_buckets)


def _grand_total_row(finest: pd.DataFrame,
                     spec: dict[str, tuple[str | None, str]],
                     comb: dict[str, str]) -> pd.DataFrame:
    """The () grouping-set row with SQL empty-input semantics: count
    aggregates are 0 on empty input but sum/min/max are NULL (pandas'
    empty-Series sum() would say 0.0 — the tracked empty-at-small-sf
    oracle-divergence class)."""
    if len(finest) == 0:
        return pd.DataFrame(
            {col: [0 if spec[col][1] == "count" else np.nan]
             for col in comb})
    return pd.DataFrame({col: [getattr(finest[col], how)()]
                         for col, how in comb.items()})


def rollup_agg(ds, keys: Sequence[str],
               spec: dict[str, tuple[str | None, str]],
               total_label: str = "ALL") -> pd.DataFrame:
    """GROUP BY ROLLUP(keys): subtotals at every key prefix plus the
    grand total.  The physical plan is the classic rollup
    optimization — aggregate ONCE at the finest level (the combiner
    pattern of :func:`partial_groupby_agg`, so there is no shuffle at
    all for re-aggregable fns), then derive every coarser level from
    that small finest-level frame on the driver.  Rolled-up key
    columns carry ``total_label`` instead of SQL NULL so the output
    hashes engine-independently (source keys are non-null by
    contract).  ``spec`` fns: count / sum / min / max (re-aggregable).
    """
    keys = list(keys)
    finest = partial_groupby_agg(ds, keys, spec)
    levels = [finest.copy()]
    cur = finest
    for depth in range(len(keys) - 1, -1, -1):
        gb_keys = keys[:depth]
        comb = {col: ("sum" if fn == "count" else fn)
                for col, (_, fn) in spec.items()}
        if gb_keys:
            rolled = cur.groupby(gb_keys, sort=False).agg(comb).reset_index()
        else:
            rolled = _grand_total_row(cur, spec, comb)
        for k in keys[depth:]:
            rolled[k] = total_label
        levels.append(rolled[finest.columns])
        cur = rolled
    return pd.concat(levels, ignore_index=True)


def cube_agg(ds, keys: Sequence[str],
             spec: dict[str, tuple[str | None, str]],
             total_label: str = "ALL") -> pd.DataFrame:
    """GROUP BY CUBE(keys): aggregates at EVERY key subset.  Same
    physical plan as :func:`rollup_agg` — ONE shuffle-free finest-level
    combiner aggregate, every other subset derived from that small
    frame on the driver (valid because spec fns are re-aggregable).
    Rolled-up key columns carry ``total_label`` (source keys non-null
    by contract).
    """
    from itertools import combinations

    keys = list(keys)
    finest = partial_groupby_agg(ds, keys, spec)
    comb = {col: ("sum" if fn == "count" else fn)
            for col, (_, fn) in spec.items()}
    levels = [finest.copy()]
    for depth in range(len(keys) - 1, -1, -1):
        for subset in combinations(keys, depth):
            if subset:
                rolled = (finest.groupby(list(subset), sort=False)
                                .agg(comb).reset_index())
            else:
                rolled = _grand_total_row(finest, spec, comb)
            for k in keys:
                if k not in subset:
                    rolled[k] = total_label
            levels.append(rolled[finest.columns])
    return pd.concat(levels, ignore_index=True)


def grouping_sets_agg(ds, sets: Sequence[Sequence[str]],
                      spec: dict[str, tuple[str | None, str]],
                      total_label: str = "ALL") -> pd.DataFrame:
    """GROUP BY GROUPING SETS(sets): aggregates at each explicitly
    requested key subset — the generalization that ROLLUP and CUBE
    are shorthands for (reference A1-A5 only ever need fixed level
    lists; at 10^12 rows the physical plan matters more than the
    spelling).  Same plan as :func:`rollup_agg`: ONE shuffle-free
    finest-level combiner aggregate over the UNION of all set keys,
    every requested set derived from that small frame on the driver
    (valid because spec fns are re-aggregable).  Absent key columns
    carry ``total_label`` (source keys non-null by contract).
    """
    sets = [list(s) for s in sets]
    all_keys: list[str] = []
    for s in sets:
        for k in s:
            if k not in all_keys:
                all_keys.append(k)
    finest = partial_groupby_agg(ds, all_keys, spec)
    comb = {col: ("sum" if fn == "count" else fn)
            for col, (_, fn) in spec.items()}
    out_cols = all_keys + list(spec)
    levels = []
    for s in sets:
        if sorted(s) == sorted(all_keys):
            rolled = finest.copy()
        elif s:
            rolled = finest.groupby(s, sort=False).agg(comb).reset_index()
        else:
            rolled = _grand_total_row(finest, spec, comb)
        for k in all_keys:
            if k not in s:
                rolled[k] = total_label
        levels.append(rolled[out_cols])
    return pd.concat(levels, ignore_index=True)


def unpivot(ds, id_cols: Sequence[str], value_cols: Sequence[str],
            var_name: str = "measure", value_name: str = "value"):
    """Wide -> long (SQL UNPIVOT / pandas melt): one output row per
    (input row, value column), carrying the id columns, the source
    column's name and its value.  Purely row-local — a stateless
    vectorized ``map_batches``, no shuffle; value columns must share a
    castable type (floats here).
    """
    id_cols, value_cols = list(id_cols), list(value_cols)

    def melt(df: pd.DataFrame) -> pd.DataFrame:
        out = df.melt(id_vars=id_cols, value_vars=value_cols,
                      var_name=var_name, value_name=value_name)
        out[value_name] = out[value_name].astype("float64")
        return out

    return ds.select_columns([*id_cols, *value_cols]).map_batches(
        melt, batch_format="pandas")


def golden_record(ds, key: str, rules: dict[str, tuple[str, ...]],
                  num_buckets: int = 64):
    """Survivorship merge: collapse every ``key`` group to ONE canonical
    record by per-field rules — the golden-record step that follows
    cluster assembly in an ER pipeline (the reference's D1 priority
    pick generalized from one global priority to per-field policies).

    ``rules`` maps an output column to a policy tuple:

    - ``("mode", col)`` — most frequent value, ties broken by the
      smallest value (deterministic, unlike SQL ``mode()``),
    - ``("longest", col)`` — longest string, ties by smallest value,
    - ``("min", col)`` / ``("max", col)`` — plain extrema,
    - ``("latest", col, ts_col, tie_col)`` — value of ``col`` on the
      row with the greatest ``(ts_col, tie_col)``.

    One co-location shuffle of the NARROW projection (key + referenced
    columns only), vectorized pandas per bucket.  Scale note: ``mode``
    is also expressible as a re-aggregable (key, value, count)
    combiner when a single mode column dominates the payload; the
    co-located form keeps all policies in one exchange, the same
    contract as ``quantile_agg`` (complete groups per bucket)."""
    from .shuffle import bucketed_map_groups

    need = {key}
    for pol in rules.values():
        need.update(pol[1:])
    cols = sorted(need)

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        base = df[[key]].drop_duplicates().sort_values(key)
        out = base.set_index(key)
        for name, pol in rules.items():
            kind, col = pol[0], pol[1]
            if kind == "mode":
                cnt = (df.groupby([key, col], sort=False)
                       .size().rename("__n").reset_index()
                       .sort_values(["__n", col],
                                    ascending=[False, True],
                                    kind="mergesort"))
                pick = cnt.groupby(key, sort=False).first()[col]
            elif kind == "longest":
                t = df[[key, col]].copy()
                t["__len"] = t[col].astype("string").fillna("").str.len()
                t = t.sort_values(["__len", col],
                                  ascending=[False, True],
                                  kind="mergesort")
                pick = t.groupby(key, sort=False).first()[col]
            elif kind in ("min", "max"):
                g = df.groupby(key, sort=False)[col]
                pick = g.min() if kind == "min" else g.max()
            elif kind == "latest":
                ts_col, tie_col = pol[2], pol[3]
                t = df[[key, col, ts_col, tie_col]].sort_values(
                    [ts_col, tie_col], ascending=[False, False],
                    kind="mergesort")
                # drop_duplicates, NOT groupby().first(): first() skips
                # NaN per column, silently replacing a null value on
                # the truly-latest row with an older row's value
                pick = t.drop_duplicates(key, keep="first") \
                    .set_index(key)[col]
            else:
                raise ValueError(f"unknown survivorship rule {kind!r}")
            out[name] = pick
        return out.reset_index()

    narrow = ds.map_batches(lambda df: df[cols], batch_format="pandas")
    return bucketed_map_groups(narrow, [key], merge,
                               num_buckets=num_buckets)


def mutual_best_match(pairs, a_col: str, b_col: str, score_col: str,
                      num_buckets: int = 64):
    """One-to-one linkage assignment: from a scored candidate-pair
    table keep exactly the pairs where ``b`` is ``a``'s best match AND
    ``a`` is ``b``'s best match (ties broken by the smaller partner
    id) — the mutual-argmax round that turns a many-to-many match
    table into a 1:1 assignment, the standard post-scoring resolution
    when each record may link to at most one partner.

    Scale plan: each side's argmax is a re-aggregable per-batch
    partial (max over (score, -partner) is associative), so only ONE
    best-candidate row per (batch, key) enters the two tiny
    co-location shuffles; the mutual check is then an equi-join of the
    two best tables on the (a, b) pair — never a shuffle of the full
    pair set beyond its batch partials."""
    import pyarrow as pa

    from .shuffle import bucketed_map_groups

    # consumed twice (one argmax per side) — materialize so the
    # upstream pipeline runs once, not once per side
    pairs = pairs.materialize()
    sch = pairs.schema()
    types = dict(zip(sch.names, sch.types))

    def typed_empty_array(t):
        # schema() carries pyarrow types for arrow blocks but
        # numpy/pandas dtypes for pandas blocks
        if isinstance(t, pa.DataType):
            return pa.array([], t)
        return pa.array(pd.Series([], dtype=t))

    def best_of(side: str, partner: str):
        def partial(df: pd.DataFrame) -> pd.DataFrame:
            t = df[[side, partner, score_col]].sort_values(
                [side, score_col, partner],
                ascending=[True, False, True], kind="mergesort")
            return t.groupby(side, sort=False, as_index=False).first()

        parts = pairs.map_batches(partial, batch_format="pandas")
        # empty_like anchors the output schema when every bucket is
        # empty, and the trailing repartition coalesces away the
        # schema-less empty blocks sparse buckets emit at tiny inputs
        # (map_batches can't fix them — Ray skips the UDF on empty
        # blocks), which acero's join rejects; it also right-sizes the
        # join's input
        anchor = pa.table({c: typed_empty_array(types[c])
                           for c in (side, partner, score_col)}) \
            .to_pandas()
        return bucketed_map_groups(parts, [side], partial,
                                   num_buckets=num_buckets,
                                   empty_like=anchor) \
            .repartition(_num_partitions())

    # the best tables are bounded by key cardinality and feed straight
    # into the join; materializing them makes the emptiness check free
    # (an all-empty side defeats every schema anchor — repartition
    # drops block schemas when total rows are zero — and acero rejects
    # schema-less join inputs)
    best_a = best_of(a_col, b_col).materialize()         # 1 row per a
    best_b = best_of(b_col, a_col).map_batches(
        lambda df: df[[a_col, b_col]], batch_format="pandas") \
        .materialize()
    if best_a.count() == 0 or best_b.count() == 0:
        import ray.data as rd

        return rd.from_arrow(pa.table(
            {c: typed_empty_array(types[c])
             for c in (a_col, b_col, score_col)}))

    return hash_join(best_a, best_b, on=[a_col, b_col], how="inner")


def rare_collapse(ds, col: str, min_frac: float, other: str = "OTHER",
                  out_col: str | None = None):
    """Rare-category collapse: values whose corpus frequency is below
    ``min_frac`` of all rows fold into the ``other`` sentinel — the
    standard long-tail cleanup before blocking keys or model features
    (a rare category is usually a typo or a singleton that would
    otherwise mint its own block).

    Counts come from the shuffle-free combiner; the (category, count)
    table is bounded by DISTINCT cardinality and is collected
    driver-side here (config-scale contract — at web-scale
    cardinality swap the broadcast for a distributed join on the
    category, the unigram_logprob crossover pattern).  The data pass
    is map-only."""
    counts = partial_groupby_agg(ds, [col], {"n": (None, "count")})
    tot = int(counts["n"].sum())
    rare = frozenset(counts.loc[counts["n"] < min_frac * tot, col])
    out_name = out_col or f"{col}_collapsed"
    import ray

    rare_ref = ray.put(rare)

    def mapf(df: pd.DataFrame) -> pd.DataFrame:
        r = ray.get(rare_ref)
        out = df.copy()
        out[out_name] = np.where(df[col].isin(r), other,
                                 df[col].to_numpy(dtype=object))
        return out

    return ds.map_batches(mapf, batch_format="pandas")


def group_entropy(ds, key: str, col: str, num_buckets: int = 64):
    """Per-key Shannon entropy of a categorical column (base 2) plus
    the group size — the diversity signal used to flag
    over-homogeneous or over-noisy entities.  Per-batch (key, value)
    count partials combine in ONE co-location shuffle of the COUNTS
    (bounded by key x value cardinality x blocks, never the rows); the entropy
    sum per key is computed over counts sorted by value so the float
    accumulation order is deterministic (SQL parity after rounding to 6
    decimals)."""
    def part(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby([key, col], sort=False).size() \
            .rename("n").reset_index()

    parts = ds.map_batches(part, batch_format="pandas")

    def ent(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            ks = (df[key].iloc[:0] if key in df.columns
                  else pd.Series([], dtype="int64"))
            return pd.DataFrame({key: ks,
                                 "entropy": pd.Series([],
                                                      dtype="float64"),
                                 "n_events": pd.Series([],
                                                       dtype="int64")})
        cells = df.groupby([key, col], sort=False, as_index=False)["n"] \
            .sum().sort_values([key, col], kind="mergesort")
        tot = cells.groupby(key, sort=False)["n"].transform("sum")
        p = cells["n"].to_numpy(np.float64) / tot.to_numpy(np.float64)
        term = -p * np.log2(p)
        g = pd.DataFrame({key: cells[key].to_numpy(), "term": term,
                          "n": cells["n"].to_numpy()}).groupby(
            key, sort=False, as_index=False).agg(
            entropy=("term", "sum"), n_events=("n", "sum"))
        g["entropy"] = g["entropy"].round(6)
        return g

    return bucketed_map_groups(parts, [key], ent, num_buckets)


def global_dense_rank(ds, order_col: str, tie_col: str,
                      num_buckets: int = 64):
    """Global dense rank 0..N-1 by ``(order_col, tie_col)`` WITHOUT a
    global sort materialization (SQL ``row_number() OVER (ORDER BY
    order_col, tie_col) - 1``) — the primitive under sorted-
    neighborhood blocking, global ntile binning and rank-based
    sampling.

    Plan (the pack_sequences two-level scan): an ORDER-PRESERVING
    range bucket per row — string keys take their first two UTF-8
    bytes big-endian, numeric keys a uniform [min, max] split (one
    tiny min/max combiner pass) — so ranges are contiguous rank spans;
    per-range counts reduce to a driver exclusive scan over the range
    ids; then ONE co-location shuffle sorts each range locally and
    adds its broadcast offset.  Output: ``(tie_col, rn)`` — the order
    key never travels past the rank stage.  Skew note: pathological
    key distributions funnel rows into few ranges; the fix is
    sample-quantile boundaries, same contract.  Non-null contract on
    both columns (strings coalesce to '')."""
    import pyarrow as pa_

    from .shuffle import bucketed_map_groups

    sch = ds.schema()
    otype = dict(zip(sch.names, sch.types))[order_col]
    # the schema carries pyarrow types for arrow blocks but
    # numpy/pandas dtypes for pandas blocks — detect numeric either
    # way; everything else takes the string path (timestamps: cast to
    # int64 upstream)
    if isinstance(otype, pa_.DataType):
        is_num = (pa_.types.is_integer(otype)
                  or pa_.types.is_floating(otype))
    else:
        is_num = pd.api.types.is_numeric_dtype(otype)
    is_str = not is_num
    n_ranges = 64

    if is_str:
        def add_rng(df: pd.DataFrame) -> pd.DataFrame:
            key = df[order_col].astype("string").fillna("")
            # first two BYTES of the UTF-8 encoding (zero-padded) —
            # byte (not character) prefixes keep the int comparison
            # order-preserving for multi-byte codepoints, and UTF-8
            # byte order equals codepoint order, which is what the
            # in-range pandas sort uses
            b = key.str.encode("utf-8").to_numpy()
            pref = np.array(
                [int.from_bytes((x[:2] + b"\x00\x00")[:2], "big")
                 for x in b], dtype=np.int64)
            return pd.DataFrame({"id": df[tie_col].to_numpy(),
                                 "key": key.to_numpy(dtype=object),
                                 "rng": pref})
    else:
        lohi = ds.map_batches(
            lambda df: pd.DataFrame(
                {"lo": [df[order_col].min()], "hi": [df[order_col].max()]})
            if len(df) else pd.DataFrame({"lo": [], "hi": []}),
            batch_format="pandas").to_pandas()
        if len(lohi) == 0:
            lo, hi = 0.0, 1.0
        else:
            lo = float(lohi["lo"].min())
            hi = float(lohi["hi"].max())
        width = max((hi - lo) / n_ranges, 1e-300)

        def add_rng(df: pd.DataFrame) -> pd.DataFrame:
            v = df[order_col].to_numpy(np.float64)
            rng = np.clip(((v - lo) / width).astype(np.int64), 0,
                          n_ranges - 1)
            return pd.DataFrame({"id": df[tie_col].to_numpy(),
                                 "key": df[order_col].to_numpy(),
                                 "rng": rng})

    nar = ds.map_batches(add_rng, batch_format="pandas").materialize()

    counts: dict[int, int] = {}
    for r in nar.map_batches(
            lambda df: df.groupby("rng", sort=False).size()
            .rename("n").reset_index(), batch_format="pandas").take_all():
        counts[r["rng"]] = counts.get(r["rng"], 0) + r["n"]
    offsets, acc = {}, 0
    for rng in sorted(counts):
        offsets[rng] = acc
        acc += counts[rng]
    off_ref = ray.put(offsets)

    def rank_range(df: pd.DataFrame) -> pd.DataFrame:
        offs = ray.get(off_ref)
        outs = []
        for rng, g in df.groupby("rng", sort=False):
            g = g.sort_values(["key", "id"], kind="mergesort")
            rn = offs[int(rng)] + np.arange(len(g), dtype=np.int64)
            outs.append(pd.DataFrame({"id": g["id"].to_numpy(),
                                      "rn": rn}))
        if not outs:
            return pd.DataFrame({"id": pd.Series([], dtype="int64"),
                                 "rn": pd.Series([], dtype="int64")})
        return pd.concat(outs, ignore_index=True)

    empty_rank = pd.DataFrame({"id": pd.Series([], dtype="int64"),
                               "rn": pd.Series([], dtype="int64")})
    ranked = bucketed_map_groups(nar, ["rng"], rank_range,
                                 num_buckets=num_buckets,
                                 empty_like=empty_rank)
    return ranked, acc


def profile_columns(ds, cols: Sequence[str]):
    """Column profiling (the reference A5 verify_db audit generalized):
    one row per column with ``n_rows, n_null, n_distinct, vmin, vmax``
    — the standard pre-linkage data-quality report.

    Two bounded passes: (1) per-batch (count, null-count, min, max)
    partials merged driver-side (cols x blocks rows); (2) exact
    distinct counts for ALL columns in ONE co-location shuffle of
    batch-deduplicated ``(col, value)`` cells — values ride
    stringified so heterogeneous columns share the exchange, and each
    batch contributes each distinct value once, so exchange volume is
    bounded by batch-local cardinality, not row count.  (At web-scale
    cardinalities swap pass 2 for the HLL sketch —
    ``sketch.hll_per_group`` — accepting approximation.)  ``vmin`` /
    ``vmax`` compare on the RAW type and stringify only for the
    report, matching SQL ``CAST(min(col) AS VARCHAR)``.

    Distinct semantics caveat: ``n_distinct`` counts distinct
    STRINGIFIED values (so heterogeneous columns can share one
    exchange) — it diverges from SQL ``count(DISTINCT col)`` exactly
    where str() and the raw type disagree on identity (0.0 vs -0.0
    count as two; an object column's 1 vs '1' collide)."""
    from .shuffle import bucketed_map_groups

    cols = list(cols)

    def stats_part(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for c in cols:
            s = df[c]
            valid = s.dropna()
            rows.append({
                "col": c, "n_rows": len(s),
                "n_null": int(s.isna().sum()),
                "vmin": None if valid.empty else valid.min(),
                "vmax": None if valid.empty else valid.max()})
        return pd.DataFrame(rows)

    parts = ds.map_batches(stats_part, batch_format="pandas").to_pandas()

    def dis_part(df: pd.DataFrame) -> pd.DataFrame:
        frames = [pd.DataFrame({
            "col": c,
            "val": df[c].dropna().astype(str).unique()}) for c in cols]
        out = pd.concat(frames, ignore_index=True)
        return out.astype({"col": "string", "val": "string"})

    cells = bucketed_map_groups(
        ds.map_batches(dis_part, batch_format="pandas"), ["col", "val"],
        lambda d: d.drop_duplicates(ignore_index=True), num_buckets=64)
    dc = partial_groupby_agg(cells, ["col"], {"n": (None, "count")})
    dcounts = dict(zip(dc["col"], dc["n"]))

    out = []
    for c in cols:
        p = parts[parts["col"] == c]
        vmin = p["vmin"].dropna()
        vmax = p["vmax"].dropna()
        out.append({
            "col": c,
            "n_rows": int(p["n_rows"].sum()),
            "n_null": int(p["n_null"].sum()),
            "n_distinct": int(dcounts.get(c, 0)),
            "vmin": None if vmin.empty else str(vmin.min()),
            "vmax": None if vmax.empty else str(vmax.max())})
    return pd.DataFrame(out)


def sort_merge_join(left, right, on: str, right_on: str | None = None,
                    num_ranges: int = 64):
    """Distributed SORT-MERGE equi-join on a numeric key — the
    physical-plan alternative to :func:`hash_join` (Ray Data has no
    native merge join): both sides range-partition on the SAME
    contiguous key boundaries (uniform [min, max] split from one tiny
    min/max combiner pass), each range co-locates once, sorts both
    sides locally and ZIPPERS them with searchsorted runs — no hash
    table, matches emitted as vectorized contiguous-run takes.  The
    plan of record when both inputs are already key-sorted on disk
    (log-structured ingest) and when output ordering by key matters
    downstream; equality with hash_join is pinned in tests.  Inner
    join; key columns must be non-null numerics; other column names
    must be disjoint between the sides."""
    import pyarrow as pa

    from .shuffle import bucketed_map_groups

    right_on = right_on or on

    def key_range(ds, col):
        def mm(df: pd.DataFrame) -> pd.DataFrame:
            v = df[col].to_numpy()
            return pd.DataFrame({"lo": [v.min() if len(v) else None],
                                 "hi": [v.max() if len(v) else None]})

        r = ds.map_batches(mm, batch_format="pandas").to_pandas()
        return r["lo"].min(), r["hi"].max()

    l_lo, l_hi = key_range(left, on)
    r_lo, r_hi = key_range(right, right_on)
    lo, hi = min(l_lo, r_lo), max(l_hi, r_hi)
    span = max(int(hi) - int(lo) + 1, 1)

    def tag(side, col):
        def f(df: pd.DataFrame) -> pd.DataFrame:
            k = df[col].to_numpy(np.int64)
            out = df.copy()
            out["__rng"] = np.minimum((k - int(lo)) * num_ranges // span,
                                      num_ranges - 1).astype(np.int64)
            out["__side"] = np.int64(side)
            return out
        return f

    both = left.map_batches(tag(0, on), batch_format="pandas").union(
        right.map_batches(tag(1, right_on), batch_format="pandas"))

    l_cols = [c for c in left.schema().names]
    r_cols = [c for c in right.schema().names]
    # the union null-pads each side's missing columns, which upcasts
    # integer columns to float64 — record the original integer columns
    # so the merged output restores exact dtypes
    int_cols = []
    for sch in (left.schema(), right.schema()):
        for name, typ in zip(sch.names, sch.types):
            if isinstance(typ, pa.DataType) and pa.types.is_integer(typ):
                int_cols.append(name)
            elif getattr(typ, "kind", "") in ("i", "u"):
                int_cols.append(name)

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        l = df[df["__side"] == 0]
        r = df[df["__side"] == 1]
        lk = np.sort(l[on].to_numpy(np.int64), kind="mergesort")
        l = l.sort_values(on, kind="mergesort").reset_index(drop=True)
        r = r.sort_values(right_on, kind="mergesort").reset_index(drop=True)
        rk = r[right_on].to_numpy(np.int64)
        starts = np.searchsorted(rk, lk, side="left")
        ends = np.searchsorted(rk, lk, side="right")
        cnt = ends - starts
        total = int(cnt.sum())
        if total == 0:
            return pd.DataFrame({
                c: pd.Series([], dtype=(np.int64 if c in int_cols
                                        else df[c].dtype))
                for c in l_cols + r_cols})
        li = np.repeat(np.arange(len(l)), cnt)
        run_base = np.repeat(np.cumsum(cnt) - cnt, cnt)
        ri = np.repeat(starts, cnt) + (np.arange(total) - run_base)
        out = l.iloc[li][l_cols].reset_index(drop=True)
        rp = r.iloc[ri][r_cols].reset_index(drop=True)
        for c in r_cols:
            out[c] = rp[c]
        for c in int_cols:
            out[c] = out[c].astype(np.int64)
        return out

    return bucketed_map_groups(both, ["__rng"], merge,
                               num_buckets=num_ranges)
