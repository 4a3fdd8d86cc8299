"""Keyless global ordered prefix scan (Blelloch two-phase scan).

``cumulative_agg`` (stages/temporal.py) covers PARTITION BY windows —
the per-key accumulation rides the bucketed shuffle.  A *keyless*
``SUM(x) OVER (ORDER BY ...)`` has no partitioning key to shuffle on;
the classic distributed plan is the two-phase scan:

1. range-sort the dataset on the order columns (Ray's distributed
   sort; blocks come back globally ordered),
2. reduce each block to its value-sum (one scalar per block to the
   driver — driver state is O(blocks), never O(rows)),
3. exclusive-scan the block sums driver-side and re-map each block
   with its offset, computing the within-block cumsum vectorized.

Reference shape: SURVEY §2.4 O1/O2 (external sort + ordered output)
composed with the A4 combiner discipline.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def global_scan(ds, order_cols: list[str], value_col: str, out_col: str,
                lead_of: str | None = None, lead_col: str | None = None):
    """Append ``out_col`` = running sum of ``value_col`` in global
    ``order_cols`` order.  Rows with equal keys form deterministic
    prefix *sets*: any permutation of identical rows yields the same
    multiset of running values, so order-insensitive consumers
    (aggregates, the driver's value-hash) see a deterministic result.

    ``lead_of``/``lead_col``: also append the NEXT row's ``lead_of``
    value in the same global order (SQL ``lead(x) OVER (ORDER BY
    ...)``) — the cross-block handoff ships exactly one scalar per
    block boundary (each block's head value, gathered in the same
    O(blocks) driver pass as the sums); the global last row gets null.
    """
    import ray

    from . import block_meta, blocks_dataset

    mat = ds.sort(order_cols).materialize()
    refs = mat.to_arrow_refs()

    @ray.remote
    def block_stats(tbl: pa.Table):
        import pyarrow.compute as pc

        s = pc.sum(tbl[value_col]).as_py()
        head = None
        if lead_of is not None and tbl.num_rows:
            head = tbl[lead_of][0]
        return (0 if s is None else s, tbl.num_rows, head)

    metas = ray.get([block_stats.remote(r) for r in refs])
    sums = np.array([m[0] for m in metas])
    offsets = np.concatenate([[sums.dtype.type(0)], np.cumsum(sums)[:-1]])
    # head of the NEXT non-empty block, per block (None past the end)
    next_heads = [None] * len(metas)
    if lead_of is not None:
        upcoming = None
        for i in range(len(metas) - 1, -1, -1):
            next_heads[i] = upcoming
            if metas[i][1]:
                upcoming = metas[i][2]

    @ray.remote(num_returns=2)
    def with_prefix(tbl: pa.Table, off, nxt):
        v = tbl[value_col].to_numpy(zero_copy_only=False)
        tbl = tbl.append_column(out_col, pa.array(off + np.cumsum(v)))
        if lead_of is not None:
            col = tbl[lead_of]
            name = lead_col or f"{lead_of}_next"
            if tbl.num_rows == 0:     # range sort can emit empty blocks
                tbl = tbl.append_column(name, pa.array([], type=col.type))
            else:
                shifted = col.slice(1)
                tail = pa.array([nxt.as_py() if nxt is not None else None],
                                type=col.type)
                tbl = tbl.append_column(
                    name,
                    pa.concat_arrays([shifted.combine_chunks(), tail]))
        return tbl, block_meta(tbl)

    outs = [with_prefix.remote(r, o, h)
            for r, o, h in zip(refs, offsets, next_heads)]
    return blocks_dataset([t for t, _ in outs],
                          ray.get([m for _, m in outs]))
