"""Broadcast sorted-hash lookup: the engine's join to a small side.

Every url-keyed join whose small side fits one object (features for
pair scoring, star edges for assignment, the n-gram verify features,
the incremental link's membership sets and label maps) runs the same
plan: key each row by 64 bits, sort once in ONE remote task, broadcast
the sorted key array and the row-aligned table as object refs, and
probe with a vectorized ``searchsorted``.  Both objects deserialize
zero-copy on every ``ray.get`` (a Python dict's unpickle is paid per
task: ~3 s in aggregate on a 700-block url stream); the build runs on
a worker, and the driver holds only the refs.  This is the compact-key
join of "Nested Parquet Is Flat, Why Not Use It?" (SIGMOD 2025): join
on a small integer key, read the payload late.

Keys: a string key column hashes with ``stable_hash_strings`` (the
``uh`` of band rows and candidate pairs); an integer key column is its
own key.

Collision policy: a key listed twice keeps its first row.  Two
different string keys on one 64-bit hash raise ``ValueError`` naming
both, when the lookup is built: a silent merge of two pages (one
wrong pair, label or membership) is never an answer.  The birthday
bound makes that a ~3% chance for one colliding pair among 10^12
urls; the remedy then is a wider hash, not a quieter lookup.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# rows up to which a small side is broadcast; above it the callers fall
# back to a hash-partitioned ``Dataset.join`` or groupby
BROADCAST_ROWS = 2_000_000


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
    columns), keys them (see :func:`key_hash`) and mergesorts.  A key
    listed twice keeps its first row; two different string keys on one
    hash raise ``ValueError``."""
    cols = list(cols)
    need = [key] + [c for c in cols if c != key]
    good = [b.select(need) for b in blocks if b.num_rows]
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
