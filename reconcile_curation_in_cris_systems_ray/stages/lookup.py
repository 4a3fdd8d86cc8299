"""Sharded sorted-hash lookup: the engine's url- and id-keyed join.

Every url-keyed join of the linkage path (features for pair scoring,
star edges for assignment, the n-gram verify features) and the
incremental link's touched-band and new-url key sets run the same plan:
key each row by 64 bits, sort once in a remote task, hand the sorted
key array and the row-aligned table to the consumers as object refs,
and probe with a vectorized ``searchsorted``.  Both objects
deserialize zero-copy on every ``ray.get`` (a Python dict's unpickle is
paid per task: ~3 s in aggregate on a 700-block url stream); the build
runs on a worker, and the driver holds only the refs.  This is the
compact-key join of "Nested Parquet Is Flat, Why Not Use It?" (SIGMOD
2025): join on a small integer key, read the payload late.

Sharding: a lookup larger than ``LOOKUP_BYTES`` is split into
``S = ceil(bytes / LOOKUP_BYTES)`` shards, a key's shard being
``key_hash(key) % S`` (:func:`sharded_lookup`); one shard is the
single-build plan above.  Pair consumers split their pair blocks into
the S(S+1)/2 shard-pair groups and run one task per group against its
at most two shards (:func:`sharded_pair_tasks`), so every size runs one
plan whose per-task memory is bounded by two shards.

Keys: a string key column hashes with ``stable_hash_strings`` (the
``uh`` of band rows and candidate pairs); an integer key column is its
own key.

Collision policy: a key listed twice keeps its first row.  Two
different string keys on one 64-bit hash raise ``ValueError`` naming
both, when the lookup is built: a silent merge of two pages (one
wrong pair, label or membership) is never an answer.  Equal hashes
land in one shard, so the check holds at every shard count.  The
birthday bound makes that a ~3% chance for one colliding pair among
10^12 urls; the remedy then is a wider hash, not a quieter lookup.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# byte budget of one lookup shard, read when a shard count is chosen
# (never bound as a default argument, so a patched value takes effect)
LOOKUP_BYTES = 256 << 20


def key_hash(keys) -> np.ndarray:
    """Lookup key of each value: strings (an object array, or an Arrow
    string column) hash as the build hashes them; integers are their
    own key."""
    from ..functions import similarity

    if isinstance(keys, (pa.Array, pa.ChunkedArray)):
        keys = keys.to_numpy(zero_copy_only=False)
    keys = np.asarray(keys)
    if keys.dtype == object:
        return similarity.stable_hash_strings(keys)
    return keys


def build_sorted_lookup(key: str, cols, *blocks):
    """Remote body: ``(sorted keys, row-aligned table of cols, size)``.

    Concatenates the non-empty blocks (a 0-row block may carry no
    columns, and a split leaves None for it), keys them (see
    :func:`key_hash`) and mergesorts.  A key listed twice keeps its
    first row; two different string keys on one hash raise
    ``ValueError``."""
    cols = list(cols)
    need = [key] + [c for c in cols if c != key]
    good = [b.select(need) for b in blocks
            if b is not None and b.num_rows]
    if not good:
        empty = pa.table({c: pa.array([], pa.null()) for c in cols})
        return np.empty(0, dtype=np.uint64), empty, 0
    # one contiguous chunk: every probe's take is then a vectorized
    # gather rather than a per-index chunk walk
    tbl = pa.concat_tables(good).combine_chunks()
    keys = tbl.column(key)
    h = key_hash(keys)
    order = np.argsort(h, kind="mergesort")
    h = h[order]
    first = np.ones(len(h), dtype=bool)
    first[1:] = h[1:] != h[:-1]
    if not first.all() and not pa.types.is_integer(keys.type):
        dup = np.flatnonzero(~first)
        # a run of equal hashes holding two keys has two adjacent ones
        left = keys.take(pa.array(order[dup - 1]))
        right = keys.take(pa.array(order[dup]))
        clash = pc.not_equal(left, right)
        if pc.any(clash).as_py():
            i = pc.index(clash, True).as_py()
            raise ValueError(
                f"{key} hash collision: {left[i].as_py()!r} and "
                f"{right[i].as_py()!r} share hash {int(h[dup[i]]):#x}")
    keep = order[first]
    return (h[first], tbl.select(cols).take(pa.array(keep)).combine_chunks(),
            int(keep.size))


def broadcast_lookup(block_refs, key: str, cols=()):
    """Start :func:`build_sorted_lookup` over ``block_refs`` as one
    remote task; returns ``(keys ref, table ref, size ref)``.

    NON-BLOCKING: block refs resolve zero-copy on the worker, so the
    build overlaps whatever the driver launches next, and the consumers
    block on the refs when they first probe."""
    from . import remote_fn

    return remote_fn(build_sorted_lookup, num_returns=3).remote(
        key, cols, *block_refs)


def probe(h: np.ndarray, keys) -> tuple[np.ndarray, np.ndarray]:
    """``(row index, found)`` of each key in the sorted key array ``h``;
    the index of a key not found is meaningless.  Neither ``h`` nor the
    table it indexes is copied."""
    q = key_hash(keys)
    if not len(h):
        return np.zeros(len(q), dtype=np.intp), np.zeros(len(q), dtype=bool)
    q = q.astype(h.dtype, copy=False)
    i = np.searchsorted(h, q)
    np.minimum(i, len(h) - 1, out=i)
    return i, h[i] == q


def probe_pairs(batch: pa.Table, h_a: np.ndarray, h_b: np.ndarray,
                what: str) -> tuple[np.ndarray, np.ndarray]:
    """Row indices ``(ia, ib)`` of each pair's ``uh_a`` in the sorted
    keys ``h_a`` and its ``uh_b`` in ``h_b``.

    Raises ``ValueError`` naming a hash that its lookup lacks: both
    sides of every pair come from the rows the lookup was built over,
    so a dangling hash is a defect, not a pair to drop."""
    ia, found_a = probe(h_a, batch.column("uh_a"))
    ib, found_b = probe(h_b, batch.column("uh_b"))
    if not (found_a.all() and found_b.all()):
        k = int(np.flatnonzero(~(found_a & found_b))[0])
        side = "uh_a" if not found_a[k] else "uh_b"
        raise ValueError(
            f"candidate pair names {what} hash "
            f"{batch.column(side)[k].as_py():#x} ({side}), which is not "
            f"in the lookup")
    return ia, ib


def lookup_shards(nbytes: int) -> int:
    """Shard count of a lookup over ``nbytes`` of input:
    ``ceil(nbytes / LOOKUP_BYTES)``, at least 1."""
    return max(1, -(-int(nbytes) // LOOKUP_BYTES))


def _with_shard(block: pa.Table, key_and_shards) -> pa.Table:
    key, n = key_and_shards
    shard = key_hash(block.column(key)).astype(np.uint64) % np.uint64(n)
    return block.append_column("shard", pa.array(shard))


def split_by_shard(block_refs, key: str, n_shards: int) -> list:
    """Split each block once by its rows' key shard (the exchange's
    split task), without waiting: per block, one part ref per shard,
    each part holding its rows plus a ``shard`` column (an empty
    block's parts are None)."""
    from . import remote_fn
    from .shuffle import _split_block

    split = remote_fn(_split_block, num_returns=n_shards)
    return [split.remote(b, ["shard"], n_shards, _with_shard,
                         (key, n_shards)) for b in block_refs]


def sharded_lookup(block_refs, key: str, cols, n_shards: int) -> list:
    """The lookup of ``block_refs`` in ``n_shards`` shards, without
    waiting: one ``(keys ref, table ref, size ref)`` per shard, holding
    the rows whose key has ``key_hash(key) % n_shards`` equal to the
    shard's index.  One shard is one :func:`broadcast_lookup` task;
    more split each block once (the exchange's split task) and build
    each shard with :func:`build_sorted_lookup`."""
    from . import remote_fn

    if n_shards == 1:
        return [broadcast_lookup(block_refs, key, cols)]
    parts = split_by_shard(block_refs, key, n_shards)
    build = remote_fn(build_sorted_lookup, num_returns=3)
    return [tuple(build.remote(key, cols, *[p[s] for p in parts]))
            for s in range(n_shards)]


def _orient_pairs(block: pa.Table, n_shards: int) -> pa.Table:
    """Swap the sides of each pair whose ``uh_a`` shard is above its
    ``uh_b`` shard, and append the pair's group: the index of
    ``(shard(uh_a), shard(uh_b))`` among the shard pairs ``(lo, hi)``,
    ``lo <= hi``, in row-major order (the triangle groups of
    ``pairs.salt_band_rows``)."""
    a = block.column("uh_a").to_numpy().astype(np.uint64, copy=False)
    b = block.column("uh_b").to_numpy().astype(np.uint64, copy=False)
    n = np.uint64(n_shards)
    sa, sb = (a % n).astype(np.int64), (b % n).astype(np.int64)
    swap = sa > sb
    if swap.any():
        block = block.set_column(
            block.schema.get_field_index("uh_a"), "uh_a",
            pa.array(np.where(swap, b, a), block.schema.field("uh_a").type))
        block = block.set_column(
            block.schema.get_field_index("uh_b"), "uh_b",
            pa.array(np.where(swap, a, b), block.schema.field("uh_b").type))
    lo, hi = np.minimum(sa, sb), np.maximum(sa, sb)
    group = lo * n_shards - lo * (lo - 1) // 2 + (hi - lo)
    return block.append_column("group", pa.array(group))


def _pair_task(body, *args):
    """Task body of :func:`sharded_pair_tasks`: ``body(*args)``'s table
    and its block metadata."""
    from . import block_meta

    out, _ = body(*args)
    return out, block_meta(out)


def sharded_pair_tasks(body, pair_refs, shards, args) -> list:
    """Launch ``body`` over the ``(uh_a, uh_b)`` pair blocks
    ``pair_refs`` against the lookup ``shards``
    (:func:`sharded_lookup`), without waiting; returns one ``(table
    ref, metadata ref)`` per task (:func:`.block_meta`).

    ``body(h_a, t_a, h_b, t_b, args, *parts)`` gets the side-a shard's
    keys and table, the side-b shard's (None when it is the side-a
    shard), ``args`` and its pair parts, and returns ``(table,
    num_rows)``.  One shard: one task per pair
    block.  More: each pair block is split once into the S(S+1)/2
    shard-pair groups, its sides oriented so that side a lies in the
    group's lower shard, and one task runs per group.  The shard refs
    are top-level task arguments, so Ray resolves them before a task
    starts and none blocks on them."""
    from . import remote_fn
    from .shuffle import _split_block

    task = remote_fn(_pair_task, num_returns=2)
    if len(shards) == 1:
        h, t, _ = shards[0]
        return [tuple(task.remote(body, h, t, None, None, args, p))
                for p in pair_refs]
    n = len(shards)
    groups = [(lo, hi) for lo in range(n) for hi in range(lo, n)]
    split = remote_fn(_split_block, num_returns=len(groups))
    parts = [split.remote(p, ["group"], len(groups), _orient_pairs, n)
             for p in pair_refs]
    out = []
    for g, (lo, hi) in enumerate(groups):
        h_b, t_b = (None, None) if lo == hi else shards[hi][:2]
        out.append(tuple(task.remote(body, shards[lo][0], shards[lo][1],
                                     h_b, t_b, args, *[p[g] for p in parts])))
    return out


def concat_pairs(parts) -> pa.Table:
    """The pairs of a task's pair parts as one table (a split leaves
    None for an empty input block); a typed 0-row ``(uh_a, uh_b)`` table
    when none holds rows."""
    from .shuffle import as_arrow

    tbls = [t for t in (as_arrow(p) for p in parts if p is not None)
            if t.num_rows]
    if not tbls:
        return pa.table({"uh_a": pa.array([], pa.uint64()),
                         "uh_b": pa.array([], pa.uint64())})
    return tbls[0] if len(tbls) == 1 else pa.concat_tables(tbls)

