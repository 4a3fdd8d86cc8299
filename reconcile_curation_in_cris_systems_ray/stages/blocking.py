"""Blocking: normalization + MinHash signatures + banded LSH key emission.

Reference analogue: the ``normalized_affiliation_key`` exact blocking
key (``build_db.py:252-276``, reapplied at ``repository.py:306-308``)
generalized to MinHash-LSH banded keys per the north rule.  Exact-key
blocking (F5 semantics) is also provided for reference parity.

Shuffle discipline: the band-emission stage explodes 1 doc ->
``num_bands`` rows but carries only url hashes and band hashes, never
the text.  The shingle sets stay in the un-exploded features table and
are read by the scorer only for surviving candidate pairs.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pandas as pd
import pyarrow as pa

from ..config import BlockingConfig
from ..functions.similarity import (
    MinHasher, _one_array, batch_shingle_stream, packed_u32_sets,
    packed_u64_column,
)


class SignatureStage:
    """Actor-pool batch callable: extracted text -> per-doc features.

    Output columns: ``url``, ``n_shingles``, ``shingles`` (binary:
    sorted unique uint32 hash tokens of the normalized text, one
    newline-flattened pass), ``sig`` (binary: num_perm uint32 MinHash
    tokens, little-endian — binary rather than list<...> so the column
    stays a plain object dtype through pandas block conversions instead
    of Ray's tensor extension, whose metadata breaks ``Table.to_pandas``
    in workers).  ``scoring`` is accepted and ignored: no feature
    depends on it, and callers that pass the engine config pair
    positionally keep working.

    Storage dtype: hashing/MinHash run in uint64, but the STORED
    shingle and signature values are truncated to uint32 equality
    tokens — Jaccard/estimate only ever compare tokens for equality,
    a false equality costs 2^-32 per comparison (negligible at any
    batch size), and halving the widest columns halves the broadcast
    feature table and the scorer's memory traffic (the measured
    bottleneck at high per-node concurrency).
    """

    def __init__(self, blocking: BlockingConfig = BlockingConfig(),
                 scoring=None, text_col: str = "extracted_text"):
        self.cfg = blocking
        self.text_col = text_col
        self.hasher = MinHasher(blocking.num_bands, blocking.rows_per_band,
                                blocking.minhash_seed)

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        from ..functions.textnorm import normalize_text_array

        # Arrow-native text path: newline flatten and normalization run
        # as C++ kernels — no per-row Python string objects for the
        # corpus-sized column (this stage touches every byte of the
        # corpus)
        ta = batch.column(self.text_col)
        if isinstance(ta, pa.ChunkedArray):
            ta = ta.combine_chunks()
        flat = pc.replace_substring(ta, pattern="\n", replacement=" ")
        norm_arr = pc.fill_null(normalize_text_array(flat), "")
        return pa.table({"url": batch.column("url"),
                         **feature_columns(norm_arr, self.hasher,
                                           self.cfg.shingle_k)})


def feature_columns(texts, hasher: MinHasher, shingle_k: int) -> dict:
    """``n_shingles``, ``shingles`` and ``sig`` columns of a batch of
    normalized texts (storage contract: :class:`SignatureStage`), from
    one shingle stream, with no Python object per doc."""
    vals, lens = batch_shingle_stream(texts, shingle_k)
    sets, n_sh = packed_u32_sets(vals, lens)
    sig32 = hasher.stream_signatures(vals, lens).astype(np.uint32)
    n = lens.size
    offs = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(n_sh * 4, out=offs[1:])
    if offs[-1] > np.iinfo(np.int32).max:
        raise ValueError(f"{offs[-1]} shingle bytes overflow a binary "
                         "column; use smaller batches")
    return {
        "n_shingles": pa.array(n_sh),
        # binary (uint32 little-endian bytes) — not list<...> — so the
        # column survives Arrow acero hash joins as a payload field
        "shingles": pa.Array.from_buffers(
            pa.binary(), n,
            [None, pa.py_buffer(offs.astype(np.int32)), pa.py_buffer(sets)]),
        # FIXED-size binary: every sig is num_perm x uint32, and the
        # fixed width lets every consumer rebuild the (n, num_perm)
        # matrix zero-copy from the Arrow buffer
        "sig": pa.Array.from_buffers(
            pa.binary(hasher.num_perm * 4), n,
            [None, pa.py_buffer(np.ascontiguousarray(sig32))]),
    }


def binary_matrix(col, dtype=np.uint32) -> np.ndarray:
    """(n, k) matrix from a binary column of fixed-length payloads.

    Zero-copy view of the Arrow data buffer: a fixed_size_binary column
    (the writer's format) is viewed directly, a variable binary one
    (a pandas round trip, older checkpoints/parquet) through its
    offsets, after checking that every row has the same length.
    """
    arr = _one_array(col)
    n = len(arr)
    if n == 0:
        return np.empty((0, 1), dtype=dtype)
    if pa.types.is_fixed_size_binary(arr.type):
        w = arr.type.byte_width
        flat = np.frombuffer(arr.buffers()[1], dtype=np.uint8)
        flat = flat[arr.offset * w: (arr.offset + n) * w]
        return flat.view(dtype).reshape(n, -1)
    vals, lens = packed_u64_column(arr, dtype)
    if (lens != lens[0]).any():
        raise ValueError("binary_matrix needs equal-length rows")
    return vals.reshape(n, -1)


def emit_band_keys(features_ds, cfg: BlockingConfig = BlockingConfig(),
                   include_bands: bool = True):
    """Explode features into ``(band_hash, uh[, band_id, bands])`` rows.

    ``include_bands=False`` emits NARROW rows (16B, just band_hash +
    uh): the pair stage then needs a pair-key dedup exchange instead of
    min-band emission — cheaper when band rows vastly outnumber pairs
    (large corpora).  There is no ``band_id`` column in narrow mode:
    :meth:`MinHasher.band_keys` mixes the band index into the hash
    (``similarity.py``), so ``band_hash`` alone identifies the
    (band, content) group up to negligible 64-bit collisions — carrying
    the redundant int32 through the pipeline's hottest exchange cost
    20% of its bytes.  Wide mode keeps ``band_id`` because min-band
    emission compares ``argmax == band_id`` positionally.

    Shuffle-bytes discipline (what makes this viable at 10^12 rows —
    the explode multiplies row count by ``num_bands``):

    - ``uh`` is the doc's 64-bit url hash (``stable_hash_strings``,
      the same hash the pair-hydration broadcast lookup is keyed by) —
      8B instead of a ~60B url string; urls are restored at hydration.
      Two urls on one hash make that lookup raise (the collision
      policy of :mod:`.lookup`).
    - ``bands`` is the doc's FULL band-hash vector (num_bands x uint64
      fixed-size binary, 128B at defaults) — 4x narrower than the
      MinHash signature but enough for the pair stage's shuffle-free
      min-band dedup: a pair is emitted only by the first band where
      the two docs' band hashes agree, so no pair-key exchange is
      needed.  The signature itself (for the Jaccard estimate) never
      travels with band rows; it is attached during pair hydration
      from the broadcast feature table.

    Docs with no shingles emit no rows: they all carry the same
    all-max sentinel signature, so they would share every band key and
    form one quadratic candidate clique whose pairs all score 0.  They
    keep their singleton cluster at assignment."""
    return features_ds.select_columns(["url", "sig", "shingles"]).map_batches(
        partial(band_rows, cfg=cfg, include_bands=include_bands),
        batch_format="pyarrow")


def band_rows(batch: pa.Table, cfg: BlockingConfig,
              include_bands: bool) -> pa.Table:
    """The band rows of one features block (schema and rules:
    :func:`emit_band_keys`); extra columns are ignored."""
    import pyarrow.compute as pc

    from ..functions.similarity import stable_hash_strings

    if batch.num_rows:
        keep = pc.fill_null(pc.binary_length(batch.column("shingles")),
                            0).to_numpy(zero_copy_only=False) > 0
        batch = batch.select(["url", "sig"])
        if not keep.all():
            batch = batch.filter(pa.array(keep))
    n = len(batch)
    if n == 0:
        cols = {"band_hash": pa.array([], pa.int64()),
                "uh": pa.array([], pa.uint64())}
        if include_bands:
            cols["band_id"] = pa.array([], pa.int32())
            cols["bands"] = pa.array([], pa.binary(cfg.num_bands * 8))
        return pa.table(cols)
    # stored sigs are uint32 equality tokens; band-key mixing runs in
    # uint64 arithmetic
    sigs = binary_matrix(batch.column("sig")).astype(np.uint64)
    band_id, band_hash = MinHasher(
        cfg.num_bands, cfg.rows_per_band, cfg.minhash_seed).band_keys(sigs)
    uh = stable_hash_strings(
        batch.column("url").to_pandas().to_numpy(dtype=object))
    idx = np.repeat(np.arange(n), cfg.num_bands)
    cols = {
        "band_hash": pa.array(band_hash, pa.int64()),
        "uh": pa.array(uh[idx], pa.uint64()),
    }
    if include_bands:
        cols["band_id"] = pa.array(band_id, pa.int32())
        # bands as ONE fixed-size-binary buffer (numpy repeat, zero
        # Python objects) — a 2M-row explode otherwise builds 2M bytes
        # objects per pass
        key_mat = band_hash.reshape(n, cfg.num_bands)
        width = cfg.num_bands * 8
        bands_buf = np.repeat(key_mat, cfg.num_bands, axis=0).tobytes()
        cols["bands"] = pa.Array.from_buffers(
            pa.binary(width), n * cfg.num_bands,
            [None, pa.py_buffer(bands_buf)])
    return pa.table(cols)


def exact_blocking_keys(ds, col: str, out_col: str = "block_key"):
    """Reference F5 exact blocking key: ``lower(trim(coalesce(col, '')))``."""

    def derive(df: pd.DataFrame) -> pd.DataFrame:
        from ..functions.textnorm import blocking_key_series
        df[out_col] = blocking_key_series(df[col])
        return df

    return ds.map_batches(derive, batch_format="pandas")


def sorted_neighborhood_pairs(ds, key_col: str, id_col: str,
                              window: int = 4, segment_len: int = 4096,
                              num_buckets: int = 64):
    """Sorted-neighborhood candidate generation (Hernandez & Stolfo
    1995): order all records by ``(key, id)`` and emit every pair whose
    global ranks differ by less than ``window`` — the classic
    complement to exact-key blocking (F5 slot) for keys with
    typos/prefix drift, where equal-key grouping misses near-sorted
    neighbors.

    Distributed plan (no global sort materialization, two bounded
    co-location shuffles over NARROW rows):

    1. order-preserving range bucket: ``rng`` = the key's first two
       bytes as a big-endian int — lexicographic order on the key
       implies non-decreasing ``rng``, so ranges are contiguous rank
       spans.  (Production note: with a pathologically skewed key
       distribution the 2-byte prefix can funnel rows into few ranges;
       the fix is sample-quantile boundaries, same contract.)
    2. per-range counts -> the driver's exclusive scan over <= 65536
       scalars -> broadcast offsets (the pack_sequences two-level-scan
       pattern).
    3. shuffle #1 co-locates each range, sorts it by ``(key, id)``
       locally and assigns the GLOBAL dense rank ``rn = offset + pos``.
       Only ``(id, rn)`` — 16 B/row — leaves this stage; the key never
       travels again.
    4. map-only segment emit: ``seg = rn // segment_len``; the last
       ``window-1`` rows of each segment are replicated to ``seg+1``
       (marked non-native) so windows crossing the cut still see both
       endpoints.
    5. shuffle #2 co-locates segments; ranks inside a segment are
       contiguous by construction, so after one local sort the pairs
       at gap ``d`` are just ``(row[i], row[i+d])`` — emitted only when
       the LARGER-rank row is native, which generates every qualifying
       pair exactly once (the smaller endpoint is present natively or
       via the replica band).

    Output: ``(id_a, id_b)`` with ``id_a`` the smaller-rank record.
    Pair volume is ~``N * (window-1)`` — linear, never quadratic.
    """
    from .relational import global_dense_rank
    from .shuffle import bucketed_map_groups

    if window < 2:
        raise ValueError("window must be >= 2")
    w = int(window)
    L = max(int(segment_len), 4 * w)

    # steps 1-3 live in relational.global_dense_rank (shared with the
    # global_rank / ntile operators); only (id, rn) comes back
    ranked, _ = global_dense_rank(
        ds.select_columns([key_col, id_col]), key_col, id_col,
        num_buckets=num_buckets)

    def emit_segments(df: pd.DataFrame) -> pd.DataFrame:
        rn = df["rn"].to_numpy()
        seg = rn // L
        native = pd.DataFrame({"id": df["id"].to_numpy(), "rn": rn,
                               "seg": seg, "nat": True})
        tail = (rn % L) >= L - (w - 1)
        if tail.any():
            rep = pd.DataFrame({"id": df["id"].to_numpy()[tail],
                                "rn": rn[tail], "seg": seg[tail] + 1,
                                "nat": False})
            return pd.concat([native, rep], ignore_index=True)
        return native

    segged = ranked.map_batches(emit_segments, batch_format="pandas")

    def pair_segment(df: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for _, g in df.groupby("seg", sort=False):
            g = g.sort_values("rn", kind="mergesort") \
                 .drop_duplicates("rn", keep="first")
            rn = g["rn"].to_numpy()
            ids = g["id"].to_numpy()
            nat = g["nat"].to_numpy()
            for d in range(1, w):
                if len(rn) <= d:
                    break
                ok = (rn[d:] - rn[:-d] == d) & nat[d:]
                if ok.any():
                    outs.append(pd.DataFrame({"id_a": ids[:-d][ok],
                                              "id_b": ids[d:][ok]}))
        if not outs:
            return pd.DataFrame({"id_a": pd.Series([], dtype="int64"),
                                 "id_b": pd.Series([], dtype="int64")})
        return pd.concat(outs, ignore_index=True)

    empty_pairs = pd.DataFrame({"id_a": pd.Series([], dtype="int64"),
                                "id_b": pd.Series([], dtype="int64")})
    return bucketed_map_groups(segged, ["seg"], pair_segment,
                               num_buckets=num_buckets,
                               empty_like=empty_pairs)


def dynamic_blocking_keys(ds, id_col: str, text_col: str,
                          cap: int = 40, max_depth: int = 3):
    """Cap-bounded recursive blocking-key refinement (dynamic/iterative
    blocking — McNeill, Kardes & Borthwick 2012): start from a coarse
    prefix key; any block whose size exceeds ``cap`` is re-keyed on a
    longer prefix, up to ``max_depth`` characters.  Bounding every
    block's size bounds the pairwise work of whatever comparison stage
    consumes the blocks — the knob that keeps blocking O(n·cap) at
    web scale instead of O(max-block²).

    Plan: prefix-key counts are BOUNDED-DOMAIN combiners (≤ alphabet^d
    keys), so each refinement level is one partial-count pass plus a
    driver broadcast of the (small by construction) oversized-key set;
    rows then pick their final (key, depth) in a single vectorized
    map.  No shuffle of the data itself at any level.  Rows with empty
    normalized text are dropped (no key).  Returns
    (id, block_key, depth).
    """
    from .relational import partial_groupby_agg

    def norm_keys(df: pd.DataFrame) -> pd.DataFrame:
        t = df[text_col].astype("string").fillna("") \
            .str.strip().str.lower()
        keep = t != ""
        out = pd.DataFrame({id_col: df[id_col].to_numpy()[keep]})
        tk = t[keep]
        for d in range(1, max_depth + 1):
            out[f"k{d}"] = tk.str.slice(0, d).to_numpy(dtype=object)
        return out

    keyed = ds.map_batches(norm_keys, batch_format="pandas") \
        .materialize()

    oversized: list[set] = []   # per level: keys still too big
    for d in range(1, max_depth):
        prev = oversized[-1] if oversized else None

        def level_partial(df: pd.DataFrame, _d=d, _prev=prev):
            if _prev is not None:
                df = df[df[f"k{_d - 1}"].isin(_prev)]
            g = df.groupby(f"k{_d}", sort=False).size()
            return pd.DataFrame({f"k{_d}": g.index.to_numpy(object),
                                 "n": g.to_numpy()})

        counts = partial_groupby_agg(
            keyed.map_batches(level_partial, batch_format="pandas"),
            [f"k{d}"], {"n": ("n", "sum")})
        oversized.append(set(counts.loc[counts["n"] > cap, f"k{d}"]))

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        key = df["k1"].to_numpy(dtype=object).copy()
        depth = np.ones(len(df), dtype=np.int64)
        pending = df["k1"].isin(oversized[0]).to_numpy() \
            if oversized else np.zeros(len(df), dtype=bool)
        for d in range(2, max_depth + 1):
            key[pending] = df[f"k{d}"].to_numpy(dtype=object)[pending]
            depth[pending] = d
            if d - 1 < len(oversized):
                pending = pending & df[f"k{d}"].isin(
                    oversized[d - 1]).to_numpy()
            else:
                break
        return pd.DataFrame({id_col: df[id_col].to_numpy(),
                             "block_key": pd.Series(key, dtype=object),
                             "depth": depth})

    return keyed.map_batches(assign, batch_format="pandas")
