"""Candidate-pair generation from banded LSH keys, with hot-key salting.

Reference analogue: candidate generation was an equi-join on the exact
blocking key (``repository.py:297-314``); here it is
``groupby(block_key) -> within-group pairing`` with explicit skew
control, per the north rule:

- **hot-key detection**: per-block partial ``value_counts``
  (locally-unique keys dropped before the driver merge), returned by
  the flagship's explode tasks next to their band rows
  (:func:`explode_blocks`) or computed by a narrow pre-pass
  (:func:`find_hot_keys`), and merged on the driver; keys whose group
  exceeds ``hot_key_cap``
  reach the exchange's split tasks as one top-level task argument.
- **salting**: members of a hot key with at most ``MAX_SIDE`` members
  (a larger key reaches the guard below unsplit) get
  ``salt = hash(url) % s`` and are replicated into the s "triangle"
  groups ``(min(salt,t), max(salt,t))``
  so every cross-salt pair is generated exactly once while the work is
  spread over s*(s+1)/2 independent groups (pair-set identical to the
  unsalted groupby — pinned by tests).
- **degenerate-clique guard**: a group side larger than ``max_side``
  (an identical-boilerplate band bucket) switches to star+chain pairing
  (connect to min member + sorted-adjacent window) — bounded O(m*w)
  instead of O(m^2); connectivity for true duplicate cliques is
  preserved.

Shuffle discipline: narrow band rows carry just ``(band_hash, uh)``
(16B — the band index is mixed into the hash, so no band_id column
travels); wide rows add ``band_id`` and ``bands``, the doc's full
band-hash vector (128B at defaults) — 4x narrower than the MinHash
signature, and sufficient for shuffle-free global pair dedup: each
pair is emitted only by the first band where the two vectors agree
(min-band emission), so no pair-key exchange is needed.  The MinHash
Jaccard estimate is attached later, during pair hydration, from the
feature lookup.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ..config import BlockingConfig, ScoringConfig
from . import remote_fn
from .blocking import band_rows, binary_matrix
from .lookup import probe
from .shuffle import effective_buckets, exchange, nonempty_dataset

_PAIR_COLS = ["uh_a", "uh_b"]
_NO_KEYS = np.empty(0, np.uint64)
MAX_SIDE = 2000          # degenerate-clique guard
CHAIN_WINDOW = 3


def band_key_counts(batch: pa.Table) -> pa.Table:
    """Partial counts ``(band_hash, n)`` of one block's band keys,
    keeping only keys the block holds more than once: almost every band
    key is unique, so this shrinks what the driver merges ~100x."""
    if not batch.num_rows:
        return pa.table({"band_hash": pa.array([], pa.int64()),
                         "n": pa.array([], pa.int64())})
    vc = pc.value_counts(batch.column("band_hash"))
    n = vc.field("counts")
    rep = pc.greater(n, 1)
    return pa.table({"band_hash": vc.field("values").filter(rep),
                     "n": n.filter(rep).cast(pa.int64())})


def merge_hot_counts(parts, cap: int) -> dict[int, int]:
    """``{band_hash: count}`` of the keys whose summed partial counts
    (:func:`band_key_counts` tables) exceed ``cap``."""
    parts = [p for p in parts if p.num_rows]
    if not parts:
        return {}
    tbl = pa.concat_tables(parts)
    keys, inv = np.unique(tbl.column("band_hash").to_numpy(),
                          return_inverse=True)
    totals = np.bincount(inv, weights=tbl.column("n").to_numpy(),
                         minlength=keys.size).astype(np.int64)
    hot = totals > cap
    return dict(zip(keys[hot].tolist(), totals[hot].tolist()))


def find_hot_keys(band_ds, cfg: BlockingConfig) -> dict[int, int]:
    """Narrow count pre-pass; returns {band_hash: count}.

    Keys on ``band_hash`` ALONE: the band index is already mixed into
    the hash (``MinHasher.band_keys``), so one int64 identifies the
    (band, content) group.

    Per-block partial counts (:func:`band_key_counts`) merged on the
    driver (:func:`merge_hot_counts`): one narrow map, NO shuffle (the
    combiner pattern).  Keys that never repeat within any single block
    are dropped BEFORE the driver merge.  A key can only be missed
    this way if its members are spread one-per-block, bounding its
    size by the block count — far below any cap where salting
    matters, and the degenerate-clique guard in the pair stage bounds
    residual skew regardless.  Hot-key detection is a load-balancing
    heuristic; the emitted pair set is identical either way (pinned by
    tests).
    """
    parts = band_ds.select_columns(["band_hash"]).map_batches(
        band_key_counts, batch_format="pyarrow")
    return merge_hot_counts(ray.get(parts.to_arrow_refs()), cfg.hot_key_cap)


def salt_band_rows(tbl: pa.Table, hot, cap: int,
                   max_salts: int) -> pa.Table:
    """Assign salts and replicate hot-key members into triangle groups.

    ``hot`` is ``(sorted band_hash int64 array, count array)``.  A row
    of a hot key with count c gets ``s = clip(ceil(c / cap), 2,
    max_salts)`` salts, ``member_salt = uh % s``, and is replicated
    once per "other" salt t into group ``(min(m, t), max(m, t))``; cold
    rows get salt 0 everywhere.  Adds ``salt_i``, ``salt_j`` and
    ``member_salt`` (int32)."""
    keys, counts = hot
    i, is_hot = probe(keys, tbl.column("band_hash"))
    zeros = np.zeros(int((~is_hot).sum()), dtype=np.int32)
    cold = tbl.filter(pa.array(~is_hot)) if is_hot.any() else tbl
    for name in ("salt_i", "salt_j", "member_salt"):
        cold = cold.append_column(name, pa.array(zeros))
    if not is_hot.any():
        return cold
    rows = np.flatnonzero(is_hot)
    s = np.minimum(np.maximum((counts[i[rows]] + cap - 1) // cap, 2),
                   max_salts).astype(np.int64)
    uh = tbl.column("uh").to_numpy().astype(np.uint64, copy=False)
    member_salt = (uh[rows] % s.astype(np.uint64)).astype(np.int64)
    # replicate each hot row s times; "other" salt enumerates 0..s-1
    rep = np.repeat(rows, s)
    csum = np.cumsum(s) - s
    other = np.arange(int(s.sum())) - np.repeat(csum, s)
    mine = np.repeat(member_salt, s)
    out_hot = tbl.take(pa.array(rep))
    out_hot = out_hot.append_column(
        "salt_i", pa.array(np.minimum(mine, other).astype(np.int32)))
    out_hot = out_hot.append_column(
        "salt_j", pa.array(np.maximum(mine, other).astype(np.int32)))
    out_hot = out_hot.append_column(
        "member_salt", pa.array(mine.astype(np.int32)))
    return pa.concat_tables([cold, out_hot])


def _hot_arrays(hot: dict[int, int]):
    keys = np.fromiter(hot.keys(), dtype=np.int64, count=len(hot))
    counts = np.fromiter(hot.values(), dtype=np.int64, count=len(hot))
    order = np.argsort(keys)
    return keys[order], counts[order]


def _emit(urls_i: np.ndarray, urls_j: np.ndarray,
          bands_i, bands_j, band_id,
          out_a: list, out_b: list) -> None:
    """Min-band dedup + canonicalize (a < b) + drop self-pairs.

    Min-band (when band vectors travel with the rows): both docs' full
    band-hash vectors are at hand, so each pair is emitted only by the
    FIRST band where the vectors agree — every other band that would
    also collide sees argmax != band_id and stays silent.  Globally-
    unique pairs with no pair-key exchange.  Without band vectors
    (narrow emit), duplicates across bands are kept and removed by the
    pair-key dedup exchange instead."""
    if bands_i is None:
        keep = urls_i != urls_j
    else:
        eq = bands_i == bands_j
        keep = (eq.argmax(axis=1) == band_id) & (urls_i != urls_j)
    a, b = urls_i[keep], urls_j[keep]
    swap = a > b
    out_a.append(np.where(swap, b, a))
    out_b.append(np.where(swap, a, b))


def _pairs_within(urls: np.ndarray, bands, band_id: int,
                  out_a: list, out_b: list) -> None:
    m = len(urls)
    if m < 2:
        return
    if m > MAX_SIDE:  # degenerate clique: star + chain
        order = np.argsort(urls)
        urls = urls[order]
        bands = bands[order] if bands is not None else None
        ii: list[int] = []
        jj: list[int] = []
        for w in range(1, CHAIN_WINDOW + 1):
            ii.extend(range(m - w))
            jj.extend(range(w, m))
        ii.extend([0] * (m - CHAIN_WINDOW - 1))
        jj.extend(range(CHAIN_WINDOW + 1, m))
        i_idx, j_idx = np.array(ii), np.array(jj)
    else:
        i_idx, j_idx = np.triu_indices(m, k=1)
    _emit(urls[i_idx], urls[j_idx],
          bands[i_idx] if bands is not None else None,
          bands[j_idx] if bands is not None else None,
          band_id, out_a, out_b)


def _pairs_cross(urls_a: np.ndarray, bands_a,
                 urls_b: np.ndarray, bands_b, band_id: int,
                 out_a: list, out_b: list) -> None:
    if len(urls_a) == 0 or len(urls_b) == 0:
        return
    if len(urls_a) > MAX_SIDE or len(urls_b) > MAX_SIDE:
        # degenerate: pair each A member with first CHAIN_WINDOW B members
        k = min(len(urls_b), CHAIN_WINDOW)
        order_b = np.argsort(urls_b)[:k]
        i_idx = np.repeat(np.arange(len(urls_a)), k)
        j_idx = np.tile(order_b, len(urls_a))
    else:
        i_idx = np.repeat(np.arange(len(urls_a)), len(urls_b))
        j_idx = np.tile(np.arange(len(urls_b)), len(urls_a))
    _emit(urls_a[i_idx], urls_b[j_idx],
          bands_a[i_idx] if bands_a is not None else None,
          bands_b[j_idx] if bands_b is not None else None,
          band_id, out_a, out_b)


def _dedup_pair_arrays(a: np.ndarray, b: np.ndarray):
    """Distinct (a, b) pairs via lexsort + adjacent-unique — the
    numpy-native replacement for pandas drop_duplicates on the pair
    exchange (no object/index machinery; output sorted by (a, b),
    which downstream consumers don't depend on)."""
    if a.size == 0:
        return a, b
    order = np.lexsort((b, a))
    a2, b2 = a[order], b[order]
    keep = np.empty(a2.size, dtype=bool)
    keep[0] = True
    keep[1:] = (a2[1:] != a2[:-1]) | (b2[1:] != b2[:-1])
    return a2[keep], b2[keep]


def generate_candidate_pairs(band_ds, blocking: BlockingConfig,
                             scoring: ScoringConfig | None = None,
                             n_rows_hint: int | None = None,
                             dedup_pairs: bool = False,
                             num_blocks_hint: int | None = None):
    """Salted groupby-pairing: band rows -> globally-unique candidate
    pairs ``(url_a, url_b)`` with ``url_a < url_b``.

    Returns ``(uh_a, uh_b)`` uint64 url-hash pairs, ``uh_a < uh_b``;
    pair hydration maps hashes back to urls and features.  With wide
    band rows (a ``bands`` column) pairs are already unique thanks to
    min-band emission (see :func:`_emit`).  Narrow band rows (no
    ``bands`` column) emit a pair once per band key the two docs share,
    so with more than one band per doc they REQUIRE
    ``dedup_pairs=True``: the pair-key exchange (an extra all-to-all)
    that keeps one row per pair.  ``n_rows_hint`` and
    ``num_blocks_hint`` are accepted for callers that still pass them
    and are unused: the band rows are materialized once, at most one
    block per bucket, for both the hot-key scan and the exchange.  The
    Dataset form of :func:`pair_exchange`."""
    # one materialized explode serves the hot-key scan and the pairing
    # exchange.  At most one block per bucket: the hot-key scan then
    # runs over a few fat blocks (vs one tiny task per upstream block —
    # measured 2.9s -> 0.9s at 6.4M band rows) and the exchange splits
    # a few fat blocks.
    nb = effective_buckets(blocking.num_buckets)
    band_ds = band_ds.materialize()
    if band_ds.num_blocks() > nb:
        band_ds = band_ds.repartition(nb).materialize()
    hot = find_hot_keys(band_ds, blocking)
    return nonempty_dataset(
        pair_exchange(band_ds.to_arrow_refs(), hot, blocking, dedup_pairs),
        _pair_table(_NO_KEYS, _NO_KEYS))


def _explode_block(block: pa.Table, cfg: BlockingConfig,
                   include_bands: bool, touched=None):
    """Task body: one features block -> its band rows and their partial
    key counts; with ``touched`` (a sorted band-key array), only the
    rows in those bands."""
    rows = band_rows(block, cfg, include_bands)
    if touched is not None:
        rows = rows.filter(pa.array(probe(touched,
                                          rows.column("band_hash"))[1]))
    return rows, band_key_counts(rows)


def explode_blocks(feature_refs, blocking: BlockingConfig,
                   include_bands: bool, touched=None) -> list:
    """Launch one explode task per features block (``touched`` as in
    :func:`_explode_block`, a top-level task argument), without
    waiting; returns one ``(band rows ref, partial counts ref)`` per
    block."""
    explode = remote_fn(_explode_block, num_returns=2)
    return [tuple(explode.remote(f, blocking, include_bands, touched))
            for f in feature_refs]


def exploded_pairs(outs, blocking: BlockingConfig,
                   dedup_pairs: bool) -> list:
    """Candidate pairs of the explode outputs ``outs``
    (:func:`explode_blocks`): the driver merges their partial counts
    (:func:`merge_hot_counts`) and :func:`pair_exchange` pairs their
    band rows.  Returns one ``(pair table ref, metadata ref)`` per
    bucket."""
    hot = merge_hot_counts(ray.get([c for _, c in outs]),
                           blocking.hot_key_cap)
    return pair_exchange([r for r, _ in outs], hot, blocking, dedup_pairs)


def pair_exchange(band_refs, hot: dict[int, int], blocking: BlockingConfig,
                  dedup_pairs: bool) -> list:
    """Candidate pairs of the band-row blocks ``band_refs``, without
    waiting: one ``(pair table ref, metadata ref)`` per bucket.

    Hot keys (``hot``, from :func:`find_hot_keys` or
    :func:`merge_hot_counts`) are salted inside the exchange's split
    tasks (:func:`salt_band_rows`); a key with more than ``MAX_SIDE``
    members stays unsalted: salting would split it into groups whose
    sides never exceed MAX_SIDE, so the degenerate-clique guard would
    not trip and the key would pay its full O(m^2) clique instead of
    the O(m) star + chain.  ``dedup_pairs`` adds the pair-key dedup
    exchange that narrow band rows need."""
    hot = {k: c for k, c in hot.items() if c <= MAX_SIDE}
    # grouping key is band_hash ALONE (band_id is mixed into the hash;
    # narrow rows don't even carry a band_id column — 20% fewer bytes
    # through the pipeline's hottest exchange)
    prep = prep_arg = None
    group_cols = ["band_hash"]
    if hot:
        # no hot keys is the common case: no salting at all, and
        # bucket_pairs treats absent salt columns as all-zero
        prep = partial(salt_band_rows, cap=blocking.hot_key_cap,
                       max_salts=blocking.max_salts)
        prep_arg = ray.put(_hot_arrays(hot))
        group_cols = ["band_hash", "salt_i", "salt_j"]
    outs = exchange(band_refs, group_cols, bucket_pairs,
                    blocking.num_buckets, arrow_fn=True, prep=prep,
                    prep_arg=prep_arg)
    if not dedup_pairs:
        return outs
    # global dedup of cross-band duplicates: a second exchange, but over
    # pair rows (~2 orders of magnitude fewer than band rows).  Full
    # bucket count: a bucket is ONE merge task, and the dedup output's
    # block count is the downstream scoring stage's parallelism
    return exchange([t for t, _ in outs], _PAIR_COLS, dedup_pair_table,
                    blocking.num_buckets, arrow_fn=True)


def bucket_pairs(data: pa.Table) -> pa.Table:
    """Vectorized across groups: a bucket holds ~1e5 tiny band
    groups, so a per-group Python loop is the bottleneck, not the
    pair math.  Groups are boundary-detected on a lexsort, then all
    groups of equal size m generate their triangle pairs in ONE
    batched numpy expression.  Arrow in, Arrow out: numeric
    columns view zero-copy into numpy."""
    names = set(data.schema.names)
    n = data.num_rows

    def npcol(name, dtype=None):
        v = data.column(name).combine_chunks() \
            .to_numpy(zero_copy_only=False)
        if dtype is not None and v.dtype != dtype:
            # int64<->uint64 reinterpret is a view, not a copy
            v = v.view(dtype) \
                if v.dtype.kind in "iu" and v.dtype.itemsize == 8 \
                and np.dtype(dtype).itemsize == 8 else v.astype(dtype)
        return v

    out_a: list[np.ndarray] = []
    out_b: list[np.ndarray] = []

    has_bands = "bands" in names
    has_bid = "band_id" in names
    has_salt = "salt_i" in names
    cross_mask = (
        (npcol("salt_i") != npcol("salt_j"))
        if has_salt else np.zeros(n, dtype=bool))
    main_mask = None
    if cross_mask.any():
        # hot-key cross-salt groups: rare; pandas group iteration
        # over just the affected subset
        sub = data.filter(pa.array(cross_mask))
        sub_bands = (binary_matrix(sub.column("bands"), np.int64)
                     if has_bands else None)
        sub = sub.drop_columns(["bands"] if has_bands else []).to_pandas()
        for (_, si, _), g in sub.groupby(
                ["band_hash", "salt_i", "salt_j"], sort=False):
            urls = g["uh"].to_numpy().astype(np.uint64)
            bands = sub_bands[g.index.to_numpy()] if has_bands else None
            bid = int(g["band_id"].iloc[0]) if has_bid else 0
            ma = g["member_salt"].to_numpy() == si
            _pairs_cross(urls[ma],
                         bands[ma] if has_bands else None,
                         urls[~ma],
                         bands[~ma] if has_bands else None,
                         bid, out_a, out_b)
        main_mask = ~cross_mask

    def masked(v):
        return v if main_mask is None else v[main_mask]

    n_main = n if main_mask is None else int(main_mask.sum())
    if n_main >= 2:
        bh = masked(npcol("band_hash", np.int64))
        si = (masked(npcol("salt_i")).astype(np.int64)
              if has_salt else np.zeros(n_main, dtype=np.int64))
        order = np.lexsort((si, bh))
        h2, s2 = bh[order], si[order]
        # band_id is constant within a band_hash group (the hash
        # mixes it in), so it never splits groups — only min-band
        # emission reads it, positionally
        b2 = (masked(npcol("band_id")).astype(np.int64)[order]
              if has_bid else np.zeros(len(order), dtype=np.int64))
        new = np.empty(len(order), dtype=bool)
        new[0] = True
        new[1:] = (h2[1:] != h2[:-1]) | (s2[1:] != s2[:-1])
        counts = np.diff(np.append(np.flatnonzero(new), len(order)))
        starts = np.append(0, np.cumsum(counts))[:-1]
        urls_s = masked(npcol("uh", np.uint64))[order]
        bands_s = (masked(binary_matrix(data.column("bands"),
                                        np.int64))[order]
                   if has_bands else None)
        for m in np.unique(counts):
            if m < 2:
                continue
            g_idx = np.flatnonzero(counts == m)
            if m > MAX_SIDE:
                for g in g_idx:
                    s = starts[g]
                    _pairs_within(
                        urls_s[s:s + m],
                        bands_s[s:s + m] if has_bands else None,
                        int(b2[s]), out_a, out_b)
                continue
            pairs_per_group = int(m) * (int(m) - 1) // 2
            tri_i, tri_j = np.triu_indices(int(m), k=1)
            step = max(1, 2_000_000 // pairs_per_group)
            for c0 in range(0, len(g_idx), step):
                base = starts[g_idx[c0:c0 + step]]
                gi = (base[:, None] + tri_i[None, :]).ravel()
                gj = (base[:, None] + tri_j[None, :]).ravel()
                if has_bands:
                    eq = bands_s[gi] == bands_s[gj]
                    keep = ((eq.argmax(axis=1) == b2[gi])
                            & (urls_s[gi] != urls_s[gj]))
                else:
                    keep = urls_s[gi] != urls_s[gj]
                a, b = urls_s[gi[keep]], urls_s[gj[keep]]
                swap = a > b
                out_a.append(np.where(swap, b, a))
                out_b.append(np.where(swap, a, b))

    if not out_a:
        return _pair_table(np.empty(0, np.uint64),
                           np.empty(0, np.uint64))
    a = np.concatenate(out_a).astype(np.uint64, copy=False)
    b = np.concatenate(out_b).astype(np.uint64, copy=False)
    # in-bucket dedup removes same-band/same-bucket repeats cheaply;
    # cross-band repeats are removed by the pair-key dedup exchange
    return _pair_table(*_dedup_pair_arrays(a, b))


def dedup_pair_table(tbl: pa.Table) -> pa.Table:
    """Distinct ``(uh_a, uh_b)`` rows of one pair-key bucket."""
    def u64(name):
        v = tbl.column(name).combine_chunks() \
            .to_numpy(zero_copy_only=False)
        return v.view(np.uint64) \
            if v.dtype.kind in "iu" and v.dtype.itemsize == 8 \
            else v.astype(np.uint64)

    return _pair_table(*_dedup_pair_arrays(u64("uh_a"), u64("uh_b")))


def _pair_table(a: np.ndarray, b: np.ndarray) -> pa.Table:
    return pa.table({"uh_a": pa.array(a, pa.uint64()),
                     "uh_b": pa.array(b, pa.uint64())})


def hamming_pairs(ds, id_col: str, key_col: str, max_dist: int = 2,
                  num_buckets: int = 64, leaf_cap: int = 512):
    """Exact Hamming-distance pair join for FIXED-LENGTH keys: all
    pairs whose strings differ in at most ``max_dist`` positions —
    the identifier-typo case (account numbers, zero-padded ids,
    fixed-format codes) where edit distance degenerates to position
    flips.

    Pigeonhole blocking (the SimHash-band trick on raw strings): the
    key splits into ``max_dist + 1`` contiguous segments; two keys
    within distance d <= max_dist must agree on at least one WHOLE
    segment, so candidates come from grouping on (segment_index,
    segment_bytes) — one co-location shuffle.  Fixed-format keys
    defeat a single level (a constant prefix puts the whole table in
    one group), so oversized groups recurse MULTI-INDEX style (Liu et
    al.'s multi-index Hamming idea): the pigeonhole lemma holds for
    ANY position partition, so each level re-partitions under a
    rotated segmentation until groups fit ``leaf_cap``; leaves verify
    with a vectorized byte-matrix comparison.  Groups whose keys are
    ALL equal stop recursing and emit their (distance-0) pairs
    directly — the one case where quadratic output is the exact
    answer.  A pair found via several agreeing segments dedups in a
    second bounded exchange.  Mixed-length inputs never pair (a
    length difference is not a Hamming relation); self-pairs
    excluded; output ``(id_a, id_b, dist)`` with id_a < id_b."""
    from .shuffle import bucketed_map_groups

    n_seg = int(max_dist) + 1
    sch = ds.schema()
    id_t = dict(zip(sch.names, sch.types))[id_col]
    id_dtype = id_t.to_pandas_dtype() if hasattr(id_t, "to_pandas_dtype") \
        else id_t

    def empty_pairs() -> pd.DataFrame:
        return pd.DataFrame({
            "id_a": pd.Series([], dtype=id_dtype),
            "id_b": pd.Series([], dtype=id_dtype),
            "dist": pd.Series([], dtype="int64")})

    def pieces_of(keys: pd.Series, L: int):
        """Level-0 contiguous segmentation."""
        bounds = np.linspace(0, L, n_seg + 1, dtype=np.int64)
        return [keys.str.slice(int(bounds[s]), int(bounds[s + 1]))
                for s in range(n_seg)]

    def verify(m: pd.DataFrame, L: int, outs: list) -> None:
        ba = "".join(m["key_a"]).encode("utf-8")
        bb = "".join(m["key_b"]).encode("utf-8")
        if len(ba) == len(m) * L and len(bb) == len(m) * L:
            ka = np.frombuffer(ba, dtype=np.uint8).reshape(len(m), L)
            kb = np.frombuffer(bb, dtype=np.uint8).reshape(len(m), L)
            dist = (ka != kb).sum(axis=1)
        else:
            dist = np.array(
                [sum(x != y for x, y in zip(a, b))
                 for a, b in zip(m["key_a"], m["key_b"])],
                dtype=np.int64)
        keep = dist <= max_dist
        if keep.any():
            outs.append(pd.DataFrame({
                "id_a": m["id_a"].to_numpy()[keep],
                "id_b": m["id_b"].to_numpy()[keep],
                "dist": dist[keep].astype(np.int64)}))

    def emit_group(g: pd.DataFrame, L: int, depth: int,
                   outs: list) -> None:
        n = len(g)
        if n < 2:
            return
        if n <= leaf_cap or depth > 32:
            # small group (or the pathological depth cap): direct
            # quadratic merge + vectorized verify
            m = g.merge(g, on="__one", suffixes=("_a", "_b"))
            m = m[m["id_a"] < m["id_b"]]
            if len(m):
                verify(m, L, outs)
            return
        # multi-index recursion (Liu et al.): within the group, all
        # <= max_dist diffs of a qualifying pair lie in the VARIABLE
        # positions, so partitioning those into max_dist+1 parts
        # guarantees agreement on one whole part — and every part is
        # non-constant, so every subgroup strictly shrinks
        # (termination).  Needs the uniform-byte-length fast path;
        # multibyte groups this large fall back to the direct merge.
        ba = "".join(g["key"]).encode("utf-8")
        if len(ba) != n * L:
            m = g.merge(g, on="__one", suffixes=("_a", "_b"))
            m = m[m["id_a"] < m["id_b"]]
            if len(m):
                verify(m, L, outs)
            return
        mat = np.frombuffer(ba, dtype=np.uint8).reshape(n, L)
        var_cols = np.where((mat != mat[0]).any(axis=0))[0]
        if len(var_cols) <= max_dist:
            # diffs are confined to <= max_dist positions, so EVERY
            # pair in the group qualifies (incl. the all-equal /
            # duplicate-clique case) — the quadratic output IS the
            # exact answer; distances come from the variable columns
            ia, ib = np.triu_indices(n, k=1)
            ids = g["id"].to_numpy()
            if len(var_cols):
                sub = mat[:, var_cols]
                dist = (sub[ia] != sub[ib]).sum(axis=1).astype(
                    np.int64)
            else:
                dist = np.zeros(len(ia), np.int64)
            a, b = ids[ia], ids[ib]
            outs.append(pd.DataFrame({
                "id_a": np.minimum(a, b), "id_b": np.maximum(a, b),
                "dist": dist}))
            return
        # |V| >= max_dist+1: pigeonhole over exactly n_seg parts of
        # the variable positions — a qualifying pair agrees on one
        # whole part, and every part is non-constant so every
        # subgroup strictly shrinks
        for part in np.array_split(var_cols, n_seg):
            if len(part) == 0:
                continue
            sub = np.ascontiguousarray(mat[:, part])
            _, labels = np.unique(sub, axis=0, return_inverse=True)
            for lab in np.unique(labels):
                emit_group(g.iloc[labels == lab], L, depth + 1, outs)

    def segments(df: pd.DataFrame) -> pd.DataFrame:
        key = df[key_col].astype("string").fillna("")
        ln = key.str.len().to_numpy(np.int64)
        frames = []
        for L in np.unique(ln):
            if L < n_seg:
                continue
            sub = key[ln == L]
            ids = df[id_col].to_numpy()[ln == L]
            for s, piece in enumerate(pieces_of(sub, int(L))):
                frames.append(pd.DataFrame({
                    "seg": np.int64(s),
                    "L": np.int64(L),
                    "piece": piece.to_numpy(dtype=object),
                    "id": ids,
                    "key": sub.to_numpy(dtype=object)}))
        if not frames:
            return pd.DataFrame({
                "seg": pd.Series([], dtype="int64"),
                "L": pd.Series([], dtype="int64"),
                "piece": pd.Series([], dtype="string"),
                "id": df[id_col].iloc[:0],
                "key": pd.Series([], dtype="string")})
        return pd.concat(frames, ignore_index=True)

    segged = ds.map_batches(segments, batch_format="pandas")

    def pairgen(df: pd.DataFrame) -> pd.DataFrame:
        outs: list = []
        for (_, L, _), g in df.groupby(["seg", "L", "piece"],
                                       sort=False):
            gg = g[["id", "key"]].assign(__one=np.int8(1))
            # recurse from depth 1 (depth 0 produced this group)
            emit_group(gg, int(L), 1, outs)
        if not outs:
            return empty_pairs()
        return pd.concat(outs, ignore_index=True)

    empty = empty_pairs()
    cand = bucketed_map_groups(segged, ["seg", "piece"], pairgen,
                               num_buckets, empty_like=empty)
    return bucketed_map_groups(
        cand, ["id_a", "id_b"],
        lambda df: df.drop_duplicates(["id_a", "id_b"]),
        num_buckets, empty_like=empty)
