"""Shuffle helper: the engine's one key-equality exchange.

Every keyed co-location — candidate-pair generation, pair dedup, star
contraction, the bucketed hash join and the grouped queries — runs
through :func:`exchange`, a two-stage map/reduce over Ray tasks on
block refs (:func:`bucketed_map_groups` is its Dataset wrapper):

1. **split**: one task per input block hashes the key columns into
   ``num_buckets`` buckets, takes the block in bucket order and returns
   one Arrow shard per bucket (zero-copy slices of that one take);
2. **merge**: one task per bucket concatenates its shards — every row
   of every key whose hash lands in the bucket — and calls
   ``bucket_fn`` once on the result.

An optional ``prep`` rewrites each input block inside the split task
(or the single merge task): the pair stage salts hot keys there.

``bucket_fn`` processes all the bucket's groups vectorized (pandas /
NumPy groupby), so Python overhead scales with the bucket count, not
the key cardinality (Ray's ``groupby(key).map_groups`` pays ~1 ms per
group).  The exchange stays Arrow end-to-end up to ``bucket_fn``;
kernels that take and return ``pa.Table`` (``arrow_fn=True``) skip the
pandas round-trip entirely.

Sizing: the exchange runs ``min(num_buckets, cluster CPUs)`` buckets
(:func:`effective_buckets`), so its task count follows the cluster,
not the key count or a constant, and its output has at most that many
blocks.  With one bucket there is nothing to split: the single merge
task reads the input blocks directly.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.similarity import stable_hash_strings
from . import block_meta, blocks_dataset, dataset_blocks, remote_fn


def effective_buckets(requested: int) -> int:
    """Bucket count of an exchange: ``min(requested, cluster CPUs)``,
    at least 1.

    More buckets than CPUs only add per-task overhead on a given
    cluster (measured: 64 buckets on 32 CPUs ran the pair exchange
    slower than 32 buckets on 16 CPUs), while the configured ceiling
    still bounds per-task group size at scale.  There is no floor: a
    floor above the CPU count (8 once) queues merge tasks for the same
    few CPUs and hands that many blocks to every stage downstream,
    each a Ray task that mostly pays scheduling overhead (on a 1-CPU
    host an idle 8-block ``map_batches`` costs 91 ms wall against
    37 ms for 1 block)."""
    import ray

    cpus = int(ray.cluster_resources().get("CPU", 1))
    return max(1, min(requested, cpus))


def drop_empty_blocks(ds):
    """Drop schema-less 0-row blocks from a materialized dataset.

    Ray 2.49's block normalization strips the schema off 0-row blocks
    that map stages emit (typed empties do not survive a filtering
    ``map_batches``).  Ray's native hash join then fails FieldRef
    resolution when such blocks reach it (``ArrowInvalid: No match ...
    on left side of the join``).  This helper filters them out by
    BLOCK METADATA ONLY (:func:`.dataset_blocks`): no block is fetched
    to the driver, and the surviving refs are rewrapped zero-copy
    (:func:`.blocks_dataset`).  If every block is empty the input is
    returned unchanged (callers handle the fully-empty case).
    Returns a materialized dataset.
    """
    mat = ds.materialize()
    refs, metas = dataset_blocks(mat)
    keep = [(r, m) for r, m in zip(refs, metas)
            if m.num_rows is None or m.num_rows > 0]
    if not keep or len(keep) == len(refs):
        return mat
    return blocks_dataset(*zip(*keep))


def as_arrow(block) -> pa.Table:
    """An input block as Arrow: ``to_arrow_refs`` hands pandas-format
    blocks over unconverted."""
    if isinstance(block, pa.Table):
        return block
    from ray.data.block import BlockAccessor

    return BlockAccessor.for_block(block).to_arrow()


def _split_block(block, key_cols: list[str], nb: int, prep=None,
                 prep_arg=None):
    """Split side: one Arrow take per input block, one shard per bucket
    (no pandas round-trip on the exchange path).  A 0-row block may
    carry no columns at all, so it contributes no shards.  ``prep``,
    when given, rewrites the block first: ``prep(block, prep_arg)``."""
    block = as_arrow(block)
    if block.num_rows == 0:
        return (None,) * nb
    if prep is not None:
        block = prep(block, prep_arg)
    h = np.zeros(block.num_rows, dtype=np.uint64)
    for c in key_cols:
        col = block.column(c)
        if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
            vals = stable_hash_strings(col.to_pandas().to_numpy(dtype=object))
        else:
            vals = col.to_numpy(zero_copy_only=False)
            # 8-byte int -> uint64 reinterpret view, not a copy
            vals = vals.view(np.uint64) \
                if vals.dtype.kind in "iu" and vals.dtype.itemsize == 8 \
                else vals.astype(np.uint64)
        h = h * np.uint64(0x9E3779B97F4A7C15) + vals
    bucket = (h % np.uint64(nb)).astype(np.int64)
    order = np.argsort(bucket, kind="stable")
    sorted_tbl = block.take(pa.array(order))
    bounds = np.searchsorted(bucket[order], np.arange(nb + 1))
    return tuple(sorted_tbl.slice(bounds[j], bounds[j + 1] - bounds[j])
                 .combine_chunks() for j in range(nb))


def _merge_bucket(bucket_fn, arrow_fn, prep, prep_arg, *shards):
    """Merge side: concat one bucket's shards and run ``bucket_fn``;
    returns ``(table, its block metadata)`` (:func:`.block_meta`), so
    the driver can drop empty outputs and wrap the rest as a Dataset
    without fetching them.  With one bucket the shards are the input
    blocks themselves, in any block format, and ``prep`` rewrites each
    non-empty one as the split would have."""
    tbls = [t for t in (as_arrow(s) for s in shards if s is not None)
            if t.num_rows]
    if not tbls:
        out = pa.table({})
        return out, block_meta(out)
    if prep is not None:
        tbls = [prep(t, prep_arg) for t in tbls]
    # permissive: shards of one column may differ in physical type
    # across input blocks (timestamp[us] vs timestamp[ns], null vs typed)
    big = pa.concat_tables(tbls, promote_options="permissive")
    if arrow_fn:
        out = bucket_fn(big.combine_chunks())
        return out, block_meta(out)
    out = bucket_fn(big.to_pandas())
    if len(out) == 0:
        # empty object columns would become Arrow null-typed columns
        out = out.astype({c: "string" for c in out.columns
                          if out[c].dtype == object})
    out = pa.Table.from_pandas(out, preserve_index=False)
    return out, block_meta(out)


def exchange(refs, key_cols: list[str], bucket_fn, num_buckets: int,
             arrow_fn: bool = False, prep=None, prep_arg=None) -> list:
    """The exchange over block refs: launches the split and merge
    tasks and returns, without waiting, one ``(table ref, metadata
    ref)`` per bucket (:func:`_merge_bucket`), empty buckets included.

    ``prep(block, prep_arg)`` rewrites each non-empty input block inside
    the split task (or inside the single merge task, when there is one
    bucket), so a per-row expansion such as hot-key salting costs no
    pass of its own.  ``prep_arg`` travels as a top-level task
    argument: an object ref there is resolved by Ray before the task
    starts, so no task blocks on it."""
    nb = effective_buckets(num_buckets)
    merge = remote_fn(_merge_bucket, num_returns=2)
    if nb == 1:
        # one bucket holds every key: the merge reads the blocks as is
        return [tuple(merge.remote(bucket_fn, arrow_fn, prep, prep_arg,
                                   *refs))]
    split = remote_fn(_split_block, num_returns=nb)
    shard_refs = [split.remote(r, key_cols, nb, prep, prep_arg)
                  for r in refs]
    return [tuple(merge.remote(bucket_fn, arrow_fn, None, None,
                               *[shards[j] for shards in shard_refs]))
            for j in range(nb)]


def nonempty_dataset(outs, empty: pa.Table | None = None):
    """A Dataset of the ``(table ref, metadata ref)`` outputs
    (:func:`.block_meta`) that hold rows, wrapped from their metadata
    (:func:`.blocks_dataset`).  When none does, ``empty`` (a typed
    0-row table) is its one block, so downstream column access still
    resolves; without it the empty outputs are kept as they are."""
    import ray

    outs = list(outs)
    metas = ray.get([m for _, m in outs])
    keep = [(t, m) for (t, _), m in zip(outs, metas) if m.num_rows]
    if not keep:
        keep = (list(zip([t for t, _ in outs], metas)) if empty is None
                else [(ray.put(empty), block_meta(empty))])
    return blocks_dataset([t for t, _ in keep], [m for _, m in keep])


def bucketed_map_groups(ds, key_cols: list[str],
                        bucket_fn: Callable[[pd.DataFrame], pd.DataFrame],
                        num_buckets: int = 256,
                        empty_like: pd.DataFrame | None = None,
                        arrow_fn: bool = False):
    """Co-locate complete key-groups and apply a *vectorized* function.

    ``bucket_fn`` receives every row of every key whose hash lands in
    one bucket — a pandas DataFrame, or a ``pa.Table`` when
    ``arrow_fn=True`` — and returns the same kind.  Buckets that
    receive no rows never call it.

    Returns a materialized Dataset holding only the non-empty bucket
    outputs, so no schema-less 0-row block leaves the exchange.  When
    every output is empty, ``empty_like`` (a possibly 0-row DataFrame
    with the OUTPUT schema) supplies one typed 0-row block so
    downstream column access still resolves; without it the empty
    outputs are returned as they are, so only callers whose result is
    provably non-empty should skip it.  A thin wrapper over
    :func:`exchange`.
    """
    empty = None
    if empty_like is not None:
        anchor = empty_like.iloc[0:0].astype(
            {c: "string" for c in empty_like.columns
             if empty_like[c].dtype == object})
        empty = pa.Table.from_pandas(anchor, preserve_index=False)
    return nonempty_dataset(
        exchange(ds.materialize().to_arrow_refs(), key_cols, bucket_fn,
                 num_buckets, arrow_fn), empty)
