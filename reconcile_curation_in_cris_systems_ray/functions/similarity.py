"""Similarity kernels: shingles, MinHash, LSH bands, SimHash, Jaccard.

The reference has no near-dup machinery (``datasketch`` is declared in
``build_db/requirements.txt:1`` but never imported); these are new,
Ray-Data-first designs per the north rule: everything here is batch
NumPy over stable 64-bit hashes so a ``map_batches`` stage can compute
signatures for thousands of documents per call without Python-per-row
loops in the hot path.

Determinism: shingle-token hashing uses DuckDB's vectorized ``hash()``
(xxhash-family, identical across processes and workers for the pinned
DuckDB build — see :func:`hash_strings_fast`); url/bucket keys use
``pandas.util.hash_array`` (stable SipHash with a fixed key).  MinHash
permutations are affine maps ``x -> a*x + b (mod 2**64)`` with odd
``a`` drawn from a seeded RNG (odd multiplier => bijection on Z_2^64,
so each map is a true permutation and min-stability holds).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

_MIX = np.uint64(0x9E3779B97F4A7C15)  # 64-bit golden-ratio mixing constant


def stable_hash_strings(values) -> np.ndarray:
    """Stable uint64 hash of an iterable of strings (vectorized)."""
    arr = np.asarray(values, dtype=object)
    if arr.size == 0:
        return np.empty(0, dtype=np.uint64)
    return pd.util.hash_array(arr, categorize=False)


_DUCK_HASH = None


def _hash_con():
    """Lazy per-process DuckDB connection for the vectorized string
    hash (threads=1: each Ray map task owns one CPU)."""
    global _DUCK_HASH
    if _DUCK_HASH is None:
        import duckdb

        _DUCK_HASH = duckdb.connect()
        _DUCK_HASH.execute("PRAGMA threads=1")
    return _DUCK_HASH


def hash_strings_fast(values) -> np.ndarray:
    """Stable uint64 hash of a string array via DuckDB's vectorized
    ``hash()`` kernel — measured ~4x faster than
    ``pandas.util.hash_array`` on short tokens, with zero
    Python-object churn when fed an Arrow array (the shingle path's
    dominant cost was hash_array over millions of token objects).

    Deterministic across processes and workers for the environment's
    pinned DuckDB build.  Used for shingle/equality tokens and (since
    round 5) for the ANN index samples (stages/ann.py IVF centroids /
    PQ training rows), which makes those index builds SQL-replayable
    by the DuckDB oracles.  Caveat that use inherits: a DuckDB upgrade
    may change ``hash()``, so a PERSISTED IVF/PQ index must be rebuilt
    when the engine's DuckDB build changes (the index manifest should
    record the build; assignments are otherwise silently different).
    ``stable_hash_strings`` remains the hash for url/bucket keys.
    """
    import pyarrow as pa

    if isinstance(values, pa.ChunkedArray):
        values = values.combine_chunks()
    if not isinstance(values, pa.Array):
        arr = np.asarray(values, dtype=object)
        if arr.size == 0:
            return np.empty(0, dtype=np.uint64)
        values = pa.array(arr, pa.string())
    if len(values) == 0:
        return np.empty(0, dtype=np.uint64)
    con = _hash_con()
    con.register("__hash_in", pa.table({"s": values}))
    # single-threaded projection over one sequential scan: row order is
    # preserved (pinned by tests)
    out = con.execute("SELECT hash(s) AS h FROM __hash_in").arrow()
    con.unregister("__hash_in")
    return out.column("h").to_numpy(zero_copy_only=False).astype(np.uint64)


def token_shingles(tokens: list[str], k: int = 3) -> list[str]:
    """Contiguous token k-shingles (w-shingling); whole doc if < k tokens."""
    if len(tokens) < k:
        return [" ".join(tokens)] if tokens else []
    return [" ".join(tokens[i:i + k]) for i in range(len(tokens) - k + 1)]


def _rolling_combine(hashes: np.ndarray, k: int) -> np.ndarray:
    """Combine k consecutive element hashes into one shingle hash via a
    polynomial rolling mix mod 2**64 (vectorized; no string joins)."""
    n = hashes.size
    if n == 0:
        return hashes
    if n < k:
        acc = np.zeros(1, dtype=np.uint64)
        for j in range(n):
            acc = acc * _MIX + hashes[j]
        return acc
    m = n - k + 1
    acc = np.zeros(m, dtype=np.uint64)
    for j in range(k):
        acc = acc * _MIX + hashes[j:j + m]
    return acc


def shingle_hash_set(text_tokens: list[str], k: int = 3) -> np.ndarray:
    """Sorted unique uint64 shingle hashes for one tokenized document.

    Shingle hash = rolling combine of per-token hashes — equivalent
    discrimination to hashing the joined string, ~10x cheaper at batch
    scale (one vectorized hash call over tokens, zero string builds).
    """
    if not text_tokens:
        return np.empty(0, dtype=np.uint64)
    return np.unique(_rolling_combine(hash_strings_fast(text_tokens), k))


def shingle_hash_set_text(text: str, k_tokens: int = 3,
                          k_chars: int = 5) -> np.ndarray:
    """Shingle set for raw (normalized) text with a script-aware rule.

    Whitespace-delimited scripts get token ``k_tokens``-shingles.  When
    the mean token length exceeds 10 (CJK and other unsegmented
    scripts tokenize into whole glued runs), fall back to character
    ``k_chars``-grams over the de-spaced text — token shingles would
    flip entirely on a single char edit (char grams also decay ~2x
    faster per edit than word shingles, hence the smaller k).
    Deterministic; pinned by tests.  Delegates to the batch kernel so
    per-doc and batch outputs are identical by construction.
    """
    return batch_shingle_sets([text], k_tokens, k_chars)[0]


def batch_shingle_sets(texts, k_tokens: int = 3,
                       k_chars: int = 5) -> list[np.ndarray]:
    """Sorted unique uint64 shingle set of each text: the stream of
    :func:`batch_shingle_stream`, split per doc.  Identical output to
    calling :func:`shingle_hash_set_text` per doc (that function
    delegates here).  Serves SimHash and the tests; the signature stage
    reads the stream itself."""
    vals, lens = batch_shingle_stream(texts, k_tokens, k_chars)
    return [np.unique(v) for v in np.split(vals, np.cumsum(lens)[:-1])]


def batch_shingle_stream(texts, k_tokens: int = 3, k_chars: int = 5
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Every doc's shingle hashes, back to back: ``(vals uint64, lens
    int64)``, one length per doc, repeats kept (a doc's set is
    ``np.unique`` of its slice).

    - ONE Arrow ``utf8_split_whitespace`` tokenize over the batch
      (zero Python string objects for the common word-script path);
    - ONE DuckDB ``hash()`` call over all kept tokens and units;
    - ONE rolling k-gram combine over the batch's flat token hashes
      (:func:`_kgram_stream`), of which each doc keeps its own starts.

    Accepts a list of strings, a pandas Series, or an Arrow string
    array.  When the mean token length exceeds 10 (unsegmented
    scripts, see :func:`shingle_hash_set_text`) a doc's units are the
    characters of its de-spaced text, hashed in the same call and
    combined ``k_chars`` at a time; that rare per-doc unit build is the
    only Python loop over docs.
    """
    import pyarrow as pa
    import pyarrow.compute as pc

    if isinstance(texts, pd.Series):
        ta = pa.Array.from_pandas(texts.fillna(""), type=pa.string())
    elif isinstance(texts, (pa.Array, pa.ChunkedArray)):
        ta = pc.fill_null(texts, "")
        if isinstance(ta, pa.ChunkedArray):
            ta = ta.combine_chunks()
    else:
        ta = pa.array(["" if t is None else t for t in texts], pa.string())
    n = len(ta)
    if n == 0:
        return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64)
    tok = pc.utf8_split_whitespace(ta)
    offs = tok.offsets.to_numpy().astype(np.int64)
    offs = offs - offs[0]
    raw_counts = np.diff(offs)
    flat = tok.values
    # Arrow's split emits empty tokens at boundaries / repeated
    # whitespace where Python str.split drops them — mask them out
    mask = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
    doc_of = np.repeat(np.arange(n), raw_counts)
    ntok = np.bincount(doc_of[mask], minlength=n).astype(np.int64)
    charlen = pc.utf8_length(ta).to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    # mean token length > 10 (strict) -> unsegmented-script char grams
    cjk = (ntok > 0) & (charlen > 10 * ntok)

    words = flat.filter(pa.array(mask & ~cjk[doc_of]))
    cjk_idx = np.flatnonzero(cjk)
    units: list[str] = []
    n_units = np.empty(cjk_idx.size, dtype=np.int64)
    for j, i in enumerate(cjk_idx.tolist()):
        chars = "".join(ta[i].as_py().split())
        units.extend(chars)
        n_units[j] = len(chars)
    if units:
        words = pa.concat_arrays([words, pa.array(units, words.type)])
    h = hash_strings_fast(words)
    nw = h.size - len(units)
    vals, lens = _kgram_stream(h[:nw], np.where(cjk, 0, ntok), k_tokens)
    if cjk_idx.size == 0:
        return vals, lens
    cvals, clens = _kgram_stream(h[nw:], n_units, k_chars)
    lens[cjk_idx] = clens
    out = np.empty(int(lens.sum()), dtype=np.uint64)
    in_cjk = np.repeat(cjk, lens)
    out[~in_cjk] = vals
    out[in_cjk] = cvals
    return out, lens


def _kgram_stream(h: np.ndarray, counts: np.ndarray,
                  k: int) -> tuple[np.ndarray, np.ndarray]:
    """K-gram hashes of docs whose unit hashes lie back to back in ``h``
    (``counts`` units each): ``(vals, lens)``.  A doc of n >= k units
    has n - k + 1 k-grams, one of 1 <= n < k units one n-gram, an empty
    one none.  Values equal :func:`_rolling_combine` per doc: one Horner
    pass over all of ``h`` (k-grams spanning two docs are computed and
    never read), and one per short length, over all docs of it."""
    counts = np.asarray(counts, dtype=np.int64)
    lens = np.where(counts >= k, counts - k + 1, np.minimum(counts, 1))
    src = _offsets(counts)[:-1]
    dst = _offsets(lens)
    out = np.empty(int(dst[-1]), dtype=np.uint64)
    if (counts >= k).any():
        m = h.size - k + 1
        acc = np.zeros(m, dtype=np.uint64)
        for j in range(k):
            np.multiply(acc, _MIX, out=acc)
            np.add(acc, h[j:j + m], out=acc)
        # each output's start in h; a short doc's (overwritten below)
        # may run past the last k-gram, hence the clip
        start = np.repeat(src - dst[:-1], lens)
        start += np.arange(out.size, dtype=np.int64)
        np.take(acc, start, out=out, mode="clip")
    for width in range(1, k):
        docs = np.flatnonzero(counts == width)
        if docs.size:
            acc = np.zeros(docs.size, dtype=np.uint64)
            for j in range(width):
                np.multiply(acc, _MIX, out=acc)
                np.add(acc, h[src[docs] + j], out=acc)
            out[dst[docs]] = acc
    return out, lens


# most stream values one MinHash permutation pass or one packing sort
# holds at once: 512 KiB of uint64 temporaries (L2-resident)
_STREAM_CHUNK = 1 << 16


def _doc_groups(lens: np.ndarray, limit: int = _STREAM_CHUNK):
    """``(d0, d1, p0, p1)``: runs of whole docs ``d0:d1`` whose stream
    values ``p0:p1`` number at most ``limit``; a doc longer than
    ``limit`` forms a run of its own."""
    ends = np.cumsum(lens)
    d0 = 0
    while d0 < lens.size:
        p0 = int(ends[d0] - lens[d0])
        d1 = max(d0 + 1, int(np.searchsorted(ends, p0 + limit, side="right")))
        yield d0, d1, p0, int(ends[d1 - 1])
        d0 = d1


def packed_u32_sets(vals: np.ndarray,
                    lens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each doc's sorted unique uint32 tokens (the low 32 bits of its
    stream values), packed back to back: ``(values, counts)``.

    One ``np.unique`` per run of docs (:func:`_doc_groups`) over
    ``(doc << 32) | low32``, which sorts by doc, then by token."""
    lens = np.asarray(lens, dtype=np.int64)
    counts = np.zeros(lens.size, dtype=np.int64)
    parts = []
    for d0, d1, p0, p1 in _doc_groups(lens):
        doc = np.repeat(np.arange(d1 - d0, dtype=np.uint64), lens[d0:d1])
        key = np.bitwise_and(vals[p0:p1], np.uint64(0xFFFFFFFF))
        key |= doc << np.uint64(32)
        key = np.unique(key)
        counts[d0:d1] = np.bincount((key >> np.uint64(32)).astype(np.intp),
                                    minlength=d1 - d0)
        parts.append(key.astype(np.uint32))
    values = np.concatenate(parts) if parts else np.empty(0, dtype=np.uint32)
    return values, counts


def _one_array(col):
    """``col`` as one Arrow Array: a 1-chunk ChunkedArray yields its
    chunk as is (``combine_chunks`` would copy it), several chunks are
    concatenated."""
    import pyarrow as pa

    if isinstance(col, pa.ChunkedArray):
        return col.chunk(0) if col.num_chunks == 1 else col.combine_chunks()
    return col


def packed_u64_column(col, dtype=np.uint64) -> tuple[np.ndarray, np.ndarray]:
    """Zero-copy ``(values, lengths)`` view of an Arrow binary column
    holding packed unsigned-int sets (one ``arr.tobytes()`` blob per
    row, ``dtype`` elements).  Avoids ``to_pylist`` + per-row
    ``np.frombuffer`` in hot scoring stages: the concatenated payload
    is viewed in place from the Arrow data buffer (a multi-chunk or
    null-holding column is first copied into one array)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    dtype = np.dtype(dtype)
    col = _one_array(col)
    if col.null_count:
        col = pc.fill_null(col, b"")
    if len(col) == 0:
        return (np.empty(0, dtype=dtype), np.empty(0, dtype=np.int64))
    large = (pa.types.is_large_binary(col.type)
             or pa.types.is_large_string(col.type))
    off_dtype = np.int64 if large else np.int32
    offs = np.frombuffer(col.buffers()[1], dtype=off_dtype)[
        col.offset: col.offset + len(col) + 1].astype(np.int64)
    data = np.frombuffer(col.buffers()[2], dtype=np.uint8)
    vals = data[offs[0]:offs[-1]].view(dtype)
    lens = (np.diff(offs) // dtype.itemsize).astype(np.int64)
    return vals, lens


# exact-Jaccard probe table: 2^16 slots keyed by a token's low 16 bits
# (256 KiB of uint32, 512 KiB of uint64: L2-resident), and the most
# tokens (side-b partners plus side-a sets) gathered at once
_SLOT_BITS = 16
_GATHER_TOKENS = 1 << 18
# most partners a side-a set may have for its pairs to take the merge
# kernel rather than the per-set probe
_SMALL_GROUP = 4


def _offsets(lens: np.ndarray) -> np.ndarray:
    offs = np.zeros(lens.size + 1, dtype=np.int64)
    np.cumsum(lens, out=offs[1:])
    return offs


def jaccard_pairs_from_binary(col_a, col_b, dtype=np.uint64) -> np.ndarray:
    """Exact Jaccard per row of two Arrow binary columns of packed
    sorted-unique token sets (``dtype`` elements), NULL reading as the
    empty set: near-dup verify, n-gram Jaccard and the distributed
    scoring path.

    A thin wrapper over :func:`jaccard_pairs_by_index`: side a is
    dictionary-encoded (equal bytes are an equal set, so each distinct
    side-a set forms one probe group), side b is packed after the
    dictionary, and each row becomes a pair of indices into the one
    buffer.  Bit-identical to :func:`jaccard_from_sets` per row (pinned
    by tests).
    """
    import pyarrow.compute as pc

    col_a = _one_array(col_a)
    if col_a.null_count:
        col_a = pc.fill_null(col_a, b"")
    enc = pc.dictionary_encode(col_a)
    codes = enc.indices.to_numpy(zero_copy_only=False)
    set_vals, set_lens = packed_u64_column(enc.dictionary, dtype)
    vb, lb = packed_u64_column(col_b, dtype)
    n_sets = set_lens.size
    return jaccard_pairs_by_index(
        np.concatenate([set_vals, vb]), np.concatenate([set_lens, lb]),
        codes, np.arange(n_sets, n_sets + lb.size, dtype=np.int64))


def _gather_sets(vals: np.ndarray, offs: np.ndarray,
                 rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sets of ``rows`` packed back to back, with their offsets."""
    lens = offs[rows + 1] - offs[rows]
    out_offs = _offsets(lens)
    idx = np.repeat(offs[rows] - out_offs[:-1], lens)
    idx += np.arange(out_offs[-1], dtype=np.int64)
    return vals[idx], out_offs


def jaccard_pairs_by_index(vals: np.ndarray, lens: np.ndarray,
                           ia, ib) -> np.ndarray:
    """Exact Jaccard of the set pairs ``(ia[k], ib[k])``, indices into
    one packed column of sorted-unique token sets (``vals``/``lens`` as
    :func:`packed_u64_column` returns them: the flagship scorer passes
    the broadcast feature table's zero-copy view).  Either side empty
    scores 0.0.

    Intersection sizes come from two kernels, split by how many pairs
    share a side-a set: pairs whose set has at most ``_SMALL_GROUP``
    partners (most pairs of a crawl of small duplicate families) are
    counted together by :func:`_merge_intersections`, the rest per
    side-a set by :func:`_probe_intersections`.  Both count exactly,
    so the split never changes a score.
    """
    ia = np.asarray(ia, dtype=np.int64)
    ib = np.asarray(ib, dtype=np.int64)
    n = ia.size
    offs = _offsets(lens)
    la, lb = lens[ia], lens[ib]
    inter = np.zeros(n, dtype=np.int64)
    if n and vals.dtype.itemsize <= 4:
        _, inv, partners = np.unique(ia, return_inverse=True,
                                     return_counts=True)
        small = partners[inv] <= _SMALL_GROUP
        few = np.flatnonzero(small)
        inter[few] = _merge_intersections(vals, offs, ia[few], ib[few])
        many = np.flatnonzero(~small)
        inter[many] = _probe_intersections(vals, offs, ia[many], ib[many])
    else:
        inter = _probe_intersections(vals, offs, ia, ib)
    out = np.zeros(n, dtype=np.float64)
    np.divide(inter, la + lb - inter, out=out, where=(la > 0) & (lb > 0))
    return out


def _merge_intersections(vals: np.ndarray, offs: np.ndarray,
                         ia: np.ndarray, ib: np.ndarray) -> np.ndarray:
    """Intersection size of each set pair ``(ia[k], ib[k])``, tokens of
    at most 32 bits, with no Python loop over pairs.

    In slices of at most ``_GATHER_TOKENS`` tokens, both sets of every
    pair are gathered and each token is tagged with its pair's number
    in the slice (``pair << 32 | token``); one sort then brings a
    pair's two copies of a shared token next to each other (a set
    holds a token once), so the pair's intersection size is its count
    of adjacent-equal keys.  Per token this does more work than the
    per-set probe, which scatters a set once for all its partners, but
    it pays no per-set Python overhead: the better kernel when a set
    has few partners."""
    n = ia.size
    inter = np.zeros(n, dtype=np.int64)
    tok = (offs[ia + 1] - offs[ia]) + (offs[ib + 1] - offs[ib])
    tok_end = np.cumsum(tok)
    shift = np.uint64(32)
    s0 = 0
    while s0 < n:
        base = tok_end[s0 - 1] if s0 else 0
        s1 = max(s0 + 1, int(np.searchsorted(tok_end, base + _GATHER_TOKENS,
                                             side="right")))
        v, o = _gather_sets(vals, offs, np.concatenate([ia[s0:s1],
                                                        ib[s0:s1]]))
        pair = np.arange(s1 - s0, dtype=np.uint64) << shift
        keys = np.repeat(np.concatenate([pair, pair]), np.diff(o))
        keys |= v
        # a pair's keys are two sorted runs: the stable sort merges them
        keys.sort(kind="stable")
        eq = np.zeros(keys.size, dtype=np.uint8)
        np.equal(keys[1:], keys[:-1], out=eq[1:].view(bool))
        # reduceat over the non-empty pairs only: a segment then runs
        # to the next non-empty pair's start, or to the slice's end
        nz = np.flatnonzero(tok[s0:s1])
        if nz.size:
            starts = tok_end[s0:s1][nz] - tok[s0:s1][nz] - base
            inter[s0 + nz] = np.add.reduceat(eq, starts, dtype=np.int64)
        s0 = s1
    return inter


def _probe_intersections(vals: np.ndarray, offs: np.ndarray,
                         ia: np.ndarray, ib: np.ndarray) -> np.ndarray:
    """Intersection size of each set pair ``(ia[k], ib[k])``, per
    side-a set rather than per pair, build/probe style (a hot block's
    ~20k pairs hold ~700 distinct sets):

    - pairs are grouped by ``ia`` (a stable argsort of the integers);
    - the side-b sets and each group's side-a set are gathered by
      offset from ``vals``, in slices of at most ``_GATHER_TOKENS``
      tokens, so the temporaries stay a few MB whatever the batch size
      (a batch-global lexsort over (pair, value) tags was measured 17x
      slower under 32-way task concurrency: its multi-MB allocations
      saturate the memory bus);
    - each group scatters its set into a 2^16-slot table keyed by the
      low 16 bits and probes all its partners' tokens with one gather
      and compare.  An empty slot s holds s + 1, whose low bits are not
      s, so it never matches.  The set's tokens that lost their slot to
      a collision are probed with one ``searchsorted``;
    - per-pair hit counts come from one ``np.add.reduceat`` per slice.
    """
    n = ia.size
    dtype = vals.dtype
    la, lb = offs[ia + 1] - offs[ia], offs[ib + 1] - offs[ib]
    order = np.argsort(ia, kind="stable")
    ia_ord, ib_ord = ia[order], ib[order]
    # a slice's tokens: its pairs' side b, plus each group's set once
    first = np.ones(n, dtype=bool)
    first[1:] = ia_ord[1:] != ia_ord[:-1]
    tok_end = np.cumsum(lb[order] + np.where(first, la[order], 0))
    inter_ord = np.zeros(n, dtype=np.int64)
    mask = dtype.type((1 << _SLOT_BITS) - 1)
    empty = np.arange(1, (1 << _SLOT_BITS) + 1, dtype=dtype)
    table = empty.copy()
    contested = np.zeros(1 << _SLOT_BITS, dtype=bool)
    s0 = 0
    while s0 < n:
        base = tok_end[s0 - 1] if s0 else 0
        s1 = max(s0 + 1, int(np.searchsorted(tok_end, base + _GATHER_TOKENS,
                                             side="right")))
        vb, offs_b = _gather_sets(vals, offs, ib_ord[s0:s1])
        # a group split across slices resumes at the slice's start
        starts = np.flatnonzero(first[s0:s1])
        if not first[s0]:
            starts = np.concatenate(([0], starts))
        va, offs_a = _gather_sets(vals, offs, ia_ord[s0:s1][starts])
        slot_a = (va & mask).astype(np.intp)
        slot_b = (vb & mask).astype(np.intp)
        hit = np.zeros(vb.size, dtype=bool)
        oa, ob = offs_a.tolist(), offs_b.tolist()
        for g, u0, u1 in zip(range(starts.size), starts.tolist(),
                             starts[1:].tolist() + [s1 - s0]):
            a0, a1, b0, b1 = oa[g], oa[g + 1], ob[u0], ob[u1]
            if a0 == a1 or b0 == b1:
                continue
            a, sa = va[a0:a1], slot_a[a0:a1]
            b, sb = vb[b0:b1], slot_b[b0:b1]
            table[sa] = a
            lost = table[sa] != a
            np.equal(table[sb], b, out=hit[b0:b1])
            if lost.any():
                # only partner tokens on a contested slot can match a
                # lost token (searchsorted is slow on unsorted keys)
                lost_slots = sa[lost]
                contested[lost_slots] = True
                cand = np.flatnonzero(contested[sb])
                contested[lost_slots] = False
                lost_a, bc = a[lost], b[cand]
                pos = np.searchsorted(lost_a, bc)
                np.minimum(pos, lost_a.size - 1, out=pos)
                hit[b0 + cand] |= lost_a[pos] == bc
            table[sa] = empty[sa]
        # reduceat over the non-empty pairs only: each segment then runs
        # to the next non-empty pair's start, or to the slice's end
        nz = np.flatnonzero(np.diff(offs_b))
        if nz.size:
            inter_ord[s0 + nz] = np.add.reduceat(hit.view(np.uint8),
                                                 offs_b[nz], dtype=np.int64)
        s0 = s1

    inter = np.empty(n, dtype=np.int64)
    inter[order] = inter_ord
    return inter


def partial_lev_distance(pattern: str, text: str) -> int:
    """Minimum Levenshtein distance between ``pattern`` and ANY
    contiguous substring of ``text`` (semi-global / Sellers-1980
    alignment: deletions at both ends of the text are free).

    Reference analogue: rapidfuzz ``fuzz.partial_ratio``
    (``query_db/udf.py:43-59``) — the "best local match" scorer used
    for entity validation against long affiliation strings
    (``repository.py:569-581``).  Documented divergence: rapidfuzz
    scores Indel similarity over alignments of the shorter string;
    this uses full Levenshtein over all substrings — same role, exact
    SQL-expressible semantics (min over substrings of
    ``levenshtein()``), pinned by a brute-force unit oracle and the
    driver's ``partial_ratio`` query.

    Vectorized DP: one numpy pass over the text axis per pattern char;
    the in-row dependency ``D[j] = min(D[j], D[j-1]+1)`` is a min-plus
    prefix scan, computed as ``cummin(D - j) + j``.
    """
    m, n = len(pattern), len(text)
    if m == 0:
        return 0
    if n == 0:
        return m
    t = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)
    steps = np.arange(n + 1, dtype=np.int64)
    prev = np.zeros(n + 1, dtype=np.int64)  # D[0][j] = 0: free start
    full = np.empty(n + 1, dtype=np.int64)
    for i, ch in enumerate(pattern, 1):
        code = np.uint32(ord(ch))
        full[0] = i  # D[i][0]: pattern prefix vs empty substring
        np.minimum(prev[:-1] + (t != code), prev[1:] + 1, out=full[1:])
        prev = np.minimum.accumulate(full - steps) + steps
        full = np.empty(n + 1, dtype=np.int64)
    return int(prev.min())


def partial_ratio(s1: str, s2: str) -> float:
    """Best-local-match similarity in [0, 1]:
    ``1 - partial_lev_distance(shorter, longer) / len(shorter)``.
    Empty-vs-empty is 1.0, empty-vs-nonempty 0.0 (the reference wraps
    the UDF with the same null/blank -> 0.0 guard, udf.py:50-53)."""
    if not s1 and not s2:
        return 1.0
    if not s1 or not s2:
        return 0.0
    short, long_ = (s1, s2) if len(s1) <= len(s2) else (s2, s1)
    return 1.0 - partial_lev_distance(short, long_) / len(short)


def gotoh_local_similarity(names_a, names_b,
                           match: float = 2.0, mismatch: float = -1.0,
                           gap_open: float = -2.0,
                           gap_extend: float = -0.5) -> np.ndarray:
    """Batched Smith-Waterman local alignment with affine gaps (Gotoh
    1982), normalized to [0, 1] by the perfect-match score of the
    shorter string — the alignment-aware name similarity that survives
    internal insertions/deletions where whole-string edit ratios decay.

    Vectorized ACROSS THE PAIR AXIS: the i/j DP loops run over the
    (padded) max name lengths only, with every cell update a numpy op
    over all pairs at once — len_a x len_b Python iterations total for
    the whole batch, not per pair.  Padded positions use disjoint
    sentinels (0 vs 255, outside ASCII text) so they can never match
    and, under negative mismatch/gap scores, can never raise a local
    maximum; the global cell-max is therefore the valid-region max.
    """
    n_pairs = len(names_a)
    if n_pairs == 0:
        return np.zeros(0, dtype=np.float64)
    enc_a = [str(s).encode("latin-1", "replace") for s in names_a]
    enc_b = [str(s).encode("latin-1", "replace") for s in names_b]
    la = np.array([len(s) for s in enc_a], dtype=np.int64)
    lb = np.array([len(s) for s in enc_b], dtype=np.int64)
    n, m = int(la.max(initial=1)), int(lb.max(initial=1))
    A = np.zeros((n_pairs, n), dtype=np.uint8)          # pad sentinel 0
    B = np.full((n_pairs, m), 255, dtype=np.uint8)      # pad sentinel 255
    for r, s in enumerate(enc_a):
        A[r, :len(s)] = np.frombuffer(s, dtype=np.uint8)
    for r, s in enumerate(enc_b):
        B[r, :len(s)] = np.frombuffer(s, dtype=np.uint8)

    neg = -1e18
    h_prev = np.zeros((n_pairs, m + 1))                 # H[i-1][*]
    f_row = np.full((n_pairs, m + 1), neg)              # F[i][*]
    best = np.zeros(n_pairs)
    for i in range(n):
        h_cur = np.zeros((n_pairs, m + 1))
        e = np.full(n_pairs, neg)                       # E[i][j] running
        np.maximum(h_prev + gap_open, f_row + gap_extend, out=f_row)
        sub = np.where(B == A[:, i:i + 1], match, mismatch)
        for j in range(1, m + 1):
            e = np.maximum(h_cur[:, j - 1] + gap_open, e + gap_extend)
            h = np.maximum.reduce([np.zeros(n_pairs),
                                   h_prev[:, j - 1] + sub[:, j - 1],
                                   e, f_row[:, j]])
            h_cur[:, j] = h
        np.maximum(best, h_cur.max(axis=1), out=best)
        h_prev = h_cur
    denom = match * np.maximum(np.minimum(la, lb), 1)
    out = best / denom
    both_empty = (la == 0) & (lb == 0)
    out[both_empty] = 1.0
    return np.clip(out, 0.0, 1.0)


def jaccard_from_sets(a: np.ndarray, b: np.ndarray) -> float:
    """Exact Jaccard of two sorted-unique uint64 shingle sets."""
    if a.size == 0 or b.size == 0:
        # empty vs empty is 0.0 by fiat: content-free pages must not
        # cluster together on "similarity" they don't have
        return 0.0
    inter = np.intersect1d(a, b, assume_unique=True).size
    return inter / (a.size + b.size - inter)


class MinHasher:
    """Seeded MinHash + banded-LSH key emitter, vectorized over a batch.

    ``num_perm = bands * rows``; with the defaults (16 bands x 4 rows)
    the LSH S-curve threshold is ~(1/16)^(1/4) ~= 0.50 Jaccard.
    """

    def __init__(self, num_bands: int = 16, rows_per_band: int = 4,
                 seed: int = 2024):
        self.num_bands = num_bands
        self.rows_per_band = rows_per_band
        self.num_perm = num_bands * rows_per_band
        rng = np.random.default_rng(seed)
        self.a = (rng.integers(1, 2**63, self.num_perm, dtype=np.uint64)
                  * np.uint64(2) + np.uint64(1))  # odd multipliers
        self.b = rng.integers(0, 2**63, self.num_perm, dtype=np.uint64)

    def signatures(self, shingle_sets: list[np.ndarray]) -> np.ndarray:
        """(n_docs, num_perm) uint64 MinHash signature matrix of a list
        of shingle sets: :meth:`stream_signatures` over their
        concatenation."""
        lens = np.array([s.size for s in shingle_sets], dtype=np.int64)
        vals = (np.concatenate(shingle_sets).astype(np.uint64, copy=False)
                if shingle_sets else np.empty(0, dtype=np.uint64))
        return self.stream_signatures(vals, lens)

    def stream_signatures(self, vals: np.ndarray,
                          lens: np.ndarray) -> np.ndarray:
        """(n_docs, num_perm) uint64 MinHash signature matrix of a
        shingle stream (``lens[i]`` values per doc, back to back, as
        :func:`batch_shingle_stream` returns it).  Repeats within a doc
        need no dedup first: a min is the same over a multiset and its
        set.  Empty docs get an all-max sentinel signature.

        Per permutation, over runs of whole docs of at most
        ``_STREAM_CHUNK`` values (:func:`_doc_groups`): ``a*x + b`` as
        two 1-D ufuncs into one reused 512 KiB buffer, then one
        ``np.minimum.reduceat`` at the docs' starts.  A doc longer than
        a run is reduced slice by slice into its running min.  Empty
        docs are left out of the reduce, so a segment never spans one.
        """
        lens = np.asarray(lens, dtype=np.int64)
        n = lens.size
        top = np.iinfo(np.uint64).max
        nonempty = np.flatnonzero(lens)
        lens_ne = lens[nonempty]
        mins = np.full((self.num_perm, nonempty.size), top, dtype=np.uint64)
        buf = np.empty(min(_STREAM_CHUNK, int(lens.sum())), dtype=np.uint64)
        for d0, d1, p0, p1 in _doc_groups(lens_ne):
            starts = _offsets(lens_ne[d0:d1])[:-1]
            for s0 in range(p0, p1, _STREAM_CHUNK):
                x = vals[s0:min(s0 + _STREAM_CHUNK, p1)]
                t = buf[:x.size]
                for p in range(self.num_perm):
                    np.multiply(x, self.a[p], out=t)
                    np.add(t, self.b[p], out=t)
                    row = mins[p, d0:d1]
                    np.minimum(row, np.minimum.reduceat(t, starts), out=row)
        out = np.full((n, self.num_perm), top, dtype=np.uint64)
        out[nonempty] = mins.T
        return out

    def band_keys(self, sigs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Collapse each band of the signature matrix to one int64 key.

        Returns ``(band_id, band_hash)`` arrays of shape
        (n_docs * num_bands,), laid out doc-major. The per-band rows are
        mixed with a polynomial rolling hash mod 2**64 (collision prob
        ~n^2/2**64 — negligible even at 10^12 docs per band).
        """
        n = sigs.shape[0]
        bands = sigs.reshape(n, self.num_bands, self.rows_per_band)
        key = np.zeros((n, self.num_bands), dtype=np.uint64)
        for r in range(self.rows_per_band):
            key = key * _MIX + bands[:, :, r]
        key += np.arange(self.num_bands, dtype=np.uint64)[None, :] * _MIX
        band_id = np.tile(np.arange(self.num_bands, dtype=np.int32), n)
        return band_id, key.reshape(-1).view(np.int64)

    def estimate_jaccard(self, sig_a: np.ndarray, sig_b: np.ndarray) -> np.ndarray:
        """Row-wise estimated Jaccard of two (n, num_perm) sig matrices."""
        return (sig_a == sig_b).mean(axis=1)


def simhash64(shingle_sets: list[np.ndarray]) -> np.ndarray:
    """64-bit SimHash per document (vectorized bit-count reduction)."""
    n = len(shingle_sets)
    out = np.zeros(n, dtype=np.uint64)
    lens = np.array([s.size for s in shingle_sets], dtype=np.int64)
    nonempty = np.flatnonzero(lens)
    if nonempty.size == 0:
        return out
    concat = np.concatenate([shingle_sets[i] for i in nonempty])
    offsets = np.zeros(nonempty.size, dtype=np.int64)
    np.cumsum(lens[nonempty][:-1], out=offsets[1:])
    shifts = np.arange(64, dtype=np.uint64)
    bits = ((concat[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.int64)
    sums = np.add.reduceat(bits, offsets, axis=0)  # (n_nonempty, 64)
    majority = (2 * sums) > lens[nonempty][:, None]
    vals = (majority.astype(np.uint64) << shifts[None, :]).sum(
        axis=1, dtype=np.uint64)
    out[nonempty] = vals
    return out


def hamming64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise Hamming distance between two uint64 arrays."""
    x = np.bitwise_xor(a, b)
    # popcount via byte-view lookup (numpy<2 has no bit_count ufunc)
    byte_counts = np.unpackbits(x.view(np.uint8)).reshape(x.size, 8 * 8)
    return byte_counts.sum(axis=1)


# --------------------------------------------------------------------------
# Byte-matrix string kernels: bounded-distance Damerau-Levenshtein and
# character-set Jaccard.  Both operate on a padded (n, W) uint8 matrix
# built in ONE vectorized pass (no Python loop over rows), so a
# map_batches verify stage stays numpy-bound.  Contract: 1-byte-per-char
# encodable text (latin-1; chars > U+00FF are replaced) with no NUL
# bytes — the webtext/TPC-H name columns these serve are ASCII.
# --------------------------------------------------------------------------

def byte_matrix(strings, width: int | None = None
                ) -> tuple[np.ndarray, np.ndarray]:
    """Padded (n, W) uint8 byte matrix + per-row lengths for a string
    series.  Right-padded with NUL; latin-1 keeps one byte per char so
    column j is character j for every row."""
    s = pd.Series(strings).astype("string").fillna("")
    lens = s.str.len().to_numpy(np.int64)
    n = len(s)
    w = int(lens.max()) if n and lens.size else 0
    if width is not None:
        w = max(w, width)
    if w == 0 or n == 0:
        return np.zeros((n, w), np.uint8), lens
    padded = s.str.pad(w, side="right", fillchar="\x00")
    buf = "".join(padded.tolist()).encode("latin-1", errors="replace")
    return np.frombuffer(buf, np.uint8).reshape(n, w).copy(), lens


def damerau_leq1(a, b) -> np.ndarray:
    """Row-wise full Damerau-Levenshtein distance CAPPED at 1: returns
    0, 1, or 2 (meaning "> 1") per pair.  At threshold 1 the full DL
    metric (DuckDB ``damerau_levenshtein``, Lowrance-Wagner 1975) has a
    closed form — equal length: one substitution OR one adjacent
    transposition; length diff 1: one indel (prefix+suffix match covers
    the shorter string); else > 1 — so no DP matrix is needed and the
    whole pair batch vectorizes.  Parity with DuckDB is pinned in
    tests/test_similarity.py on randomized mutation pairs."""
    sa = pd.Series(a).astype("string").fillna("")
    sb = pd.Series(b).astype("string").fillna("")
    n = len(sa)
    out = np.full(n, 2, dtype=np.int64)
    if n == 0:
        return out
    la = sa.str.len().to_numpy(np.int64)
    lb = sb.str.len().to_numpy(np.int64)
    w = int(max(la.max(), lb.max(), 1))
    A, _ = byte_matrix(sa, width=w)
    B, _ = byte_matrix(sb, width=w)

    eqlen = la == lb
    if eqlen.any():
        Ae, Be = A[eqlen], B[eqlen]
        neq = Ae != Be                       # padding compares equal
        m = neq.sum(axis=1)
        i1 = neq.argmax(axis=1)
        second = neq & (np.cumsum(neq, axis=1) == 2)
        i2 = second.argmax(axis=1)
        r = np.arange(len(Ae))
        swapped = ((m == 2) & (i2 == i1 + 1)
                   & (Ae[r, i1] == Be[r, i2]) & (Ae[r, i2] == Be[r, i1]))
        out[eqlen] = np.where(m == 0, 0,
                              np.where((m == 1) | swapped, 1, 2))

    gap = np.abs(la - lb) == 1
    if gap.any():
        Ag, Bg = A[gap], B[gap]
        lag, lbg = la[gap], lb[gap]
        longer_b = (lbg > lag)[:, None]
        L = np.where(longer_b, Bg, Ag)
        S = np.where(longer_b, Ag, Bg)
        ls = np.minimum(lag, lbg)
        idx = np.arange(w)
        valid = idx[None, :] < ls[:, None]
        # p: leading equal run of S vs L
        neq_d = (S != L) & valid
        p = np.where(neq_d.any(axis=1), neq_d.argmax(axis=1), ls)
        # t: trailing equal run of S[j] vs L[j+1] ending at ls-1
        neq_s = (S[:, : w - 1] != L[:, 1:]) & valid[:, : w - 1]
        cand = np.where(neq_s, idx[None, : w - 1], -1).max(axis=1) \
            if w > 1 else np.full(len(S), -1, np.int64)
        t = ls - 1 - cand
        out[gap] = np.where(p + t >= ls, 1, 2)
    return out


_POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def charset_masks(strings) -> np.ndarray:
    """(n, 4) uint64 bitmask of each string's DISTINCT byte set —
    the exact set DuckDB's ``jaccard()`` compares (char-set Jaccard,
    case-sensitive).  Bit 0 of word 0 (NUL, the pad byte) is always
    cleared; real text never contains NUL."""
    M, _ = byte_matrix(strings)
    n = len(M)
    masks = np.zeros((n, 4), dtype=np.uint64)
    if M.shape[1] == 0:
        return masks
    word = M >> 6
    bit = np.uint64(1) << (M & np.uint8(63)).astype(np.uint64)
    for wd in range(4):
        sel = np.where(word == wd, bit, np.uint64(0))
        masks[:, wd] = np.bitwise_or.reduce(sel, axis=1)
    masks[:, 0] &= ~np.uint64(1)
    return masks


def popcount_rows(x: np.ndarray) -> np.ndarray:
    """Per-row popcount of a (n, k) uint64 array (byte-LUT; numpy<2
    has no bit_count ufunc)."""
    if x.size == 0:
        return np.zeros(x.shape[0], dtype=np.int64)
    b = x.view(np.uint8).reshape(x.shape[0], -1)
    return _POP8[b].sum(axis=1, dtype=np.int64)
