"""Sketch / sampling operators for web-scale cardinality and subsetting.

Reference A4 keeps exact distinct counts in a concurrent set
(`openalex .../main.rs:120-203`) — fine in one process, impossible at
10^12 rows.  SURVEY §2.5 mandates the sketch route at scale; this
module provides it:

- ``hash_sample``: deterministic md5-prefix sampling — the same rows
  are kept on every engine and every run (SQL-oracle-able, resumable,
  no RNG state to coordinate across tasks).
- ``hll_count_distinct``: HyperLogLog approximate COUNT DISTINCT as a
  combiner-pattern aggregate: each batch folds into a 2^p-register
  sketch (one narrow map, NO shuffle), registers max-merge on the
  driver — bytes moved are O(2^p), independent of row count.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd

from ..functions.similarity import stable_hash_strings


def hash_sample(ds, key_col: str, hex_cut: str = "1a"):
    """Deterministic sample: keep rows where the first
    ``len(hex_cut)`` hex chars of ``md5(key)`` compare lexicographically
    below ``hex_cut`` (fixed-width hex compares like the number it
    encodes, so ``hex_cut='1a'`` keeps 26/256 ~= 10.2% of keys).

    Unlike RNG sampling this needs no seed coordination across tasks,
    is stable under repartitioning/retries, and an oracle can reproduce
    it exactly: ``WHERE substr(md5(key), 1, 2) < '1a'``.
    """
    width = len(hex_cut)

    def flt(df: pd.DataFrame) -> pd.DataFrame:
        keys = df[key_col].astype(str)
        pref = np.fromiter(
            (hashlib.md5(k.encode("utf-8")).hexdigest()[:width]
             for k in keys),
            dtype=object, count=len(df))
        out = df[pref < hex_cut]
        if len(out) == 0:
            out = out.astype({c: "string" for c in out.columns
                              if out[c].dtype == object})
        return out

    return ds.map_batches(flt, batch_format="pandas")


# ---------------------------------------------------------------------------
# HyperLogLog
# ---------------------------------------------------------------------------

_HLL_P = 14  # 2^14 = 16384 registers -> ~1.04/sqrt(2^14) = 0.8% std error


def _hll_partial(values: np.ndarray, p: int = _HLL_P) -> np.ndarray:
    """Fold a batch of uint64 hashes into a 2^p uint8 register array."""
    m = 1 << p
    regs = np.zeros(m, dtype=np.uint8)
    if values.size == 0:
        return regs
    idx = (values >> np.uint64(64 - p)).astype(np.int64)
    w = values & np.uint64((1 << (64 - p)) - 1)
    # rank = leading-zero count of the (64-p)-bit suffix + 1.
    # bit_length via frexp is EXACT for w < 2^53 (the suffix is at
    # most 52 bits for p >= 12) — exactness matters because the SQL
    # oracle mirrors this with length(bin(w)), which is exact too
    bl = np.zeros(values.size, dtype=np.int64)
    nz = w > 0
    _, e = np.frexp(w[nz].astype(np.float64))
    bl[nz] = e
    rank = ((64 - p) - bl + 1).astype(np.uint8)
    np.maximum.at(regs, idx, rank)
    return regs


def _hll_estimate(regs: np.ndarray) -> float:
    """Standard HLL estimator with small-range (linear counting)
    correction.

    The register sum Σ 2^-r is computed EXACTLY in integer arithmetic
    (Σ counts[r]·2^(Rmax-r), a Python big int) and converted to float
    only once — so a SQL twin using HUGEINT mirrors the estimate
    bit-for-bit (float-summation order no longer matters)."""
    m = float(regs.size)
    rmax = int(regs.max()) if regs.size else 0
    counts = np.bincount(regs, minlength=rmax + 1)
    s_int = sum(int(c) << (rmax - r) for r, c in enumerate(counts) if c)
    alpha = 0.7213 / (1.0 + 1.079 / m)
    # op order mirrored exactly by the SQL oracle: (alpha*m*m) *
    # (float(2^rmax) / float(S))
    est = (alpha * m * m) * (float(1 << rmax) / float(s_int))
    zeros = int(counts[0])
    if est <= 2.5 * m and zeros:
        est = m * float(np.log(m / zeros))
    return float(est)


def _hash_for(vals: np.ndarray, hasher: str) -> np.ndarray:
    if hasher == "duckdb":
        from ..functions.similarity import hash_strings_fast

        return hash_strings_fast(vals)
    return stable_hash_strings(vals)


def hll_count_distinct(ds, col: str, p: int = _HLL_P,
                       hasher: str = "stable") -> int:
    """Approximate COUNT(DISTINCT col): per-batch HLL partials (no
    shuffle — each batch emits one 2^p-byte register row), max-merged
    on the driver.  ~0.8% std error at p=14; the exact-distinct
    alternative is a full groupby shuffle of every value.

    ``hasher="duckdb"`` routes values through DuckDB's ``hash()``
    kernel so a SQL oracle can rebuild the registers (and hence the
    exact estimate) bit-for-bit; the default pandas hash stays for
    callers that don't need SQL parity."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        vals = df[col].astype(str).to_numpy(dtype=object)
        h = _hash_for(vals, hasher)
        return pd.DataFrame({"regs": [_hll_partial(h, p).tobytes()]})

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    merged = np.zeros(1 << p, dtype=np.uint8)
    for b in parts["regs"]:
        np.maximum(merged, np.frombuffer(b, dtype=np.uint8), out=merged)
    return int(np.floor(_hll_estimate(merged) + 0.5))


def hll_per_group(ds, keys, col: str, p: int = 12,
                  out_col: str = "approx_n", num_buckets: int = 64,
                  hasher: str = "stable"):
    """Per-group approximate COUNT(DISTINCT col) — the 100-TB path for
    high-cardinality grouped distincts: each batch emits one 2^p-byte
    HLL register row per group it contains, then ONE co-location
    shuffle moves the BOUNDED sketches (never the raw values) and a
    vectorized max-merge + estimate runs per group.  Contrast the
    exact route (`count_distinct`), which must shuffle every value;
    at p=12 the sketch is 4 KiB per (batch, group) with ~1.6% std
    error, dropping to near-exact in the linear-counting regime.
    Accuracy pinned vs exact in tests/test_sketch.py."""
    from .shuffle import bucketed_map_groups

    keys = list(keys)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out_rows, regs = [], []
        for k, g in df.groupby(keys, sort=False):
            vals = g[col].astype(str).to_numpy(dtype=object)
            h = _hash_for(vals, hasher)
            out_rows.append(k if isinstance(k, tuple) else (k,))
            regs.append(_hll_partial(h, p).tobytes())
        kdf = pd.DataFrame(out_rows, columns=keys) if out_rows else \
            pd.DataFrame({k: pd.Series([], dtype="object") for k in keys})
        kdf["regs"] = pd.Series(regs, dtype="object")
        return kdf

    partials = ds.map_batches(partial, batch_format="pandas")

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for k, g in df.groupby(keys, sort=False):
            m = np.zeros(1 << p, dtype=np.uint8)
            for b in g["regs"]:
                np.maximum(m, np.frombuffer(b, dtype=np.uint8), out=m)
            kt = k if isinstance(k, tuple) else (k,)
            rows.append((*kt, int(np.floor(_hll_estimate(m) + 0.5))))
        if not rows:
            out = pd.DataFrame({k: pd.Series([], dtype="object")
                                for k in keys})
            out[out_col] = pd.Series([], dtype="int64")
            return out
        return pd.DataFrame(rows, columns=[*keys, out_col])

    return bucketed_map_groups(partials, keys, merge, num_buckets)


def stratified_sample(ds, group_cols, key_col: str, n_per_group: int,
                      num_buckets: int = 64):
    """Deterministic stratified sample: the ``n_per_group`` rows of each
    group whose ``md5(key)`` digests sort smallest (key as final
    tie-break).  Like :func:`hash_sample` this needs no RNG
    coordination, survives repartition/retry unchanged, and an oracle
    reproduces it exactly (``row_number() OVER (PARTITION BY group
    ORDER BY md5(key), key) <= n``).  One shuffle on the group key;
    within a bucket the pick is a vectorized sort + ``groupby.head``.
    """
    from .shuffle import bucketed_map_groups

    group_cols = list(group_cols)

    def bucket_fn(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return df
        keys = df[key_col].astype(str)
        dig = np.fromiter(
            (hashlib.md5(k.encode("utf-8")).hexdigest() for k in keys),
            dtype=object, count=len(df))
        tmp = df.assign(__dig=dig)
        tmp = tmp.sort_values([*group_cols, "__dig", key_col],
                              kind="mergesort")
        out = tmp.groupby(group_cols, sort=False).head(n_per_group)
        return out.drop(columns="__dig")

    return bucketed_map_groups(ds, group_cols, bucket_fn, num_buckets)


def mixture_resample(ds, group_col: str, key_col: str,
                     weights: dict[str, float],
                     default_weight: float = 1.0):
    """Deterministic domain-mixture resampling (the DoReMi / Pile
    data-mixing shape): each row is emitted ``floor(w + u)`` times,
    where ``w`` is its domain's target weight (epochs — may exceed 1
    for upsampling, be < 1 for downsampling) and ``u = hash(key)/2^64``
    is a per-key uniform.  Expected copies = w exactly; stochastic
    rounding is resolved by the key hash, so the output is stable under
    repartition/retry and exactly reproducible by a SQL oracle
    (``floor(w + hash(key)/2^64)`` + ``generate_series``).  Map-only —
    no shuffle at any scale; adds an ``epoch`` column (1..n per source
    row)."""
    from ..functions.similarity import hash_strings_fast

    def rs(df: pd.DataFrame) -> pd.DataFrame:
        out_cols = [*df.columns, "epoch"]
        if len(df) == 0:
            return pd.DataFrame({**{c: df[c] for c in df.columns},
                                 "epoch": pd.Series([], dtype="int64")})
        w = (df[group_col].map(weights).fillna(default_weight)
             .to_numpy(dtype=np.float64))
        u = (hash_strings_fast(df[key_col].astype(str)
                               .to_numpy(dtype=object))
             .astype(np.float64) / float(2 ** 64))
        n = np.floor(w + u).astype(np.int64)
        idx = np.repeat(np.arange(len(df)), n)
        out = df.iloc[idx].reset_index(drop=True)
        ends = np.cumsum(n)
        out["epoch"] = (np.arange(len(idx), dtype=np.int64)
                        - np.repeat(ends - n, n) + 1)
        if len(out) == 0:
            out = out.astype({c: "string" for c in out.columns
                              if out[c].dtype == object})
        return out[out_cols]

    return ds.map_batches(rs, batch_format="pandas")


# ----------------------------------------------------------------------
# Mergeable approximate quantiles (t-digest; Dunning & Ertl, public
# algorithm) — the scale path quantile_agg's docstring reserves for
# groups too large to co-locate: per-batch partial digests (one narrow
# map, NO shuffle), centroid-merge on the driver, O(delta) bytes moved
# per batch independent of row count.
# ----------------------------------------------------------------------

def _tdigest_compress(values: np.ndarray, weights: np.ndarray,
                      delta: int) -> tuple[np.ndarray, np.ndarray]:
    """Compress weighted points into <= ~2*delta centroids using the
    k1 scale function's size bound (stronger accuracy near the tails).
    Inputs must be sorted by value; deterministic."""
    total = weights.sum()
    if total == 0:
        return values[:0], weights[:0]
    # cumulative quantile at the LEFT edge of each point
    q_left = (np.cumsum(weights) - weights) / total
    # greedy: start a new centroid whenever adding the point would
    # push the centroid's width past the k1 size limit 4*q*(1-q)/delta
    out_v, out_w = [], []
    acc_w = 0.0
    acc_vw = 0.0
    start_q = 0.0
    for v, w, ql in zip(values, weights, q_left):
        q_right = ql + w / total
        mid = (start_q + q_right) / 2.0
        limit = 4.0 * total * mid * (1.0 - mid) / delta
        if acc_w > 0 and acc_w + w > limit:
            out_v.append(acc_vw / acc_w)
            out_w.append(acc_w)
            acc_w, acc_vw = 0.0, 0.0
            start_q = ql
        acc_w += w
        acc_vw += v * w
    if acc_w > 0:
        out_v.append(acc_vw / acc_w)
        out_w.append(acc_w)
    return (np.asarray(out_v, dtype=np.float64),
            np.asarray(out_w, dtype=np.float64))


def _tdigest_quantile(cv: np.ndarray, cw: np.ndarray, q: float,
                      vmin: float, vmax: float) -> float:
    """Linear interpolation between centroid means (standard t-digest
    estimate), clamped to the true min/max."""
    total = cw.sum()
    if total == 0:
        return float("nan")
    if len(cv) == 1:
        return float(cv[0])
    # centroid midpoints in cumulative-weight space
    mids = np.cumsum(cw) - cw / 2.0
    target = q * total
    if target <= mids[0]:
        lo_w = cw[0] / 2.0
        t = target / lo_w if lo_w > 0 else 0.0
        return float(vmin + t * (cv[0] - vmin))
    if target >= mids[-1]:
        hi_w = cw[-1] / 2.0
        t = (target - mids[-1]) / hi_w if hi_w > 0 else 0.0
        return float(cv[-1] + t * (vmax - cv[-1]))
    i = int(np.searchsorted(mids, target) - 1)
    span = mids[i + 1] - mids[i]
    t = (target - mids[i]) / span if span > 0 else 0.0
    return float(cv[i] + t * (cv[i + 1] - cv[i]))


def tdigest_quantiles(ds, col: str, qs: dict[str, float],
                      delta: int = 200) -> pd.DataFrame:
    """Approximate global quantiles via mergeable t-digests.

    Physical plan mirrors ``hll_count_distinct``: each batch sorts its
    values and compresses to <= ~2*delta (value, weight) centroids —
    one narrow ``map_batches``, NO shuffle; the driver concatenates
    the per-batch centroids (a few KiB each), re-sorts and compresses
    once more, then interpolates.  Accuracy is pinned within 1% of
    exact p50/p90 by tests/test_sketch.py; tails are tighter (k1
    scale function).  At 10^12 rows the bytes reaching the driver are
    O(batches * delta), independent of row count — and the same
    centroid merge nests hierarchically (tree-reduce) if even that
    overflows."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        v = pd.to_numeric(df[col], errors="coerce").dropna().to_numpy(
            dtype=np.float64)
        if v.size == 0:
            return pd.DataFrame({"v": [], "w": [], "lo": [], "hi": []})
        v.sort()
        cv, cw = _tdigest_compress(v, np.ones_like(v), delta)
        return pd.DataFrame({"v": cv, "w": cw,
                             "lo": np.full(cv.size, v[0]),
                             "hi": np.full(cv.size, v[-1])})

    parts = ds.select_columns([col]).map_batches(
        partial, batch_format="pandas").to_pandas()
    if parts.empty:
        return pd.DataFrame({name: [float("nan")] for name in qs})
    order = np.argsort(parts["v"].to_numpy(), kind="mergesort")
    cv, cw = _tdigest_compress(parts["v"].to_numpy()[order],
                               parts["w"].to_numpy()[order], delta)
    vmin = float(parts["lo"].min())
    vmax = float(parts["hi"].max())
    return pd.DataFrame({name: [_tdigest_quantile(cv, cw, q, vmin, vmax)]
                         for name, q in qs.items()})


# ----------------------------------------------------------------------
# Exact heavy hitters (top-k terms) WITHOUT an all-to-all shuffle:
# Misra-Gries candidate sweep + exact verification pass.  The naive
# plan for "top 20 terms in the corpus" shuffles the ENTIRE exploded
# token stream by term (ngram_top's plan — fine when bigram partials
# collapse well, catastrophic for a 10^12-row corpus whose vocabulary
# doesn't).  This plan moves only O(batches * capacity) summary rows
# plus candidate counts, and PROVES its answer exact.
# ----------------------------------------------------------------------

def _mg_reduce(counts: pd.Series, capacity: int) -> tuple[pd.Series, int]:
    """One Misra-Gries decrement step over exact batch counts: if more
    than ``capacity`` distinct terms, subtract the (capacity+1)-th
    largest count from all and drop non-positives.  Every kept estimate
    is a LOWER bound underestimating by at most the returned decrement;
    every dropped term's batch count is at most the decrement."""
    if len(counts) <= capacity:
        return counts, 0
    arr = np.sort(counts.to_numpy())[::-1]
    dec = int(arr[capacity])
    kept = counts[counts > dec] - dec
    return kept, dec


def heavy_hitters_topk(ds, text_col: str = "text", k: int = 20,
                       capacity: int = 4096,
                       tree_fanin: int = 32) -> pd.DataFrame:
    """Exact global top-``k`` whitespace tokens by count, tie-broken
    lexicographically — two streaming passes, NO token-stream shuffle.

    Pass 1 (candidate sweep): each batch counts its tokens exactly,
    then compresses to <= ``capacity`` (term, est) rows via one
    Misra-Gries decrement (:func:`_mg_reduce`).  Summaries merge by
    summing ests; per-batch decrements sum to a global error bound
    ``e`` with the invariants  est(t) <= true(t) <= est(t) + e  and
    true(t) <= e for any term absent from the merged summary.

    Pass 2 (exact verify): candidates = summary terms with
    ``est >= T_k - e`` (``T_k`` = k-th largest est; any true-top-k term
    satisfies this, since true >= n_k >= T_k and est >= true - e).  The
    candidate set is broadcast once via ``ray.put`` and each batch
    counts ONLY candidate occurrences — exact counts arrive without
    shuffling the token stream.  If the exact k-th count ``n_k > e``
    the result is PROVABLY exact (absent terms have true <= e < n_k;
    excluded summary terms have true <= est + e < T_k <= n_k); when the
    guarantee fails (capacity too small for the skew) the operator
    falls back to the full bucketed shuffle, so the answer is exact
    either way.

    Driver-side merges are bounded: when either pass emits more than
    ``tree_fanin`` blocks, its per-batch partials are pre-summed by one
    bucketed combine level (a shuffle over the BOUNDED summaries, not
    the token stream) so the driver collects O(distinct candidate
    terms) rows instead of O(batches * capacity).
    """
    import ray

    from .shuffle import bucketed_map_groups
    from .textstats import _ws_tokens

    docs = ds.select_columns([text_col])

    # "" is a safe marker: _ws_tokens strips before splitting on \s+,
    # so a real token can never be the empty string.
    _MARKER = ""

    def sweep(df: pd.DataFrame) -> pd.DataFrame:
        ex = _ws_tokens(df[text_col]).explode().dropna()
        if ex.empty:
            return pd.DataFrame({"term": pd.Series([], dtype="string"),
                                 "est": pd.Series([], dtype="int64")})
        counts = ex.value_counts(sort=False)
        kept, dec = _mg_reduce(counts, capacity)
        terms = kept.index.to_numpy(dtype=object)
        ests = kept.to_numpy(dtype=np.int64)
        if dec:
            # marker row: empty term carries this batch's decrement
            terms = np.append(terms, _MARKER)
            ests = np.append(ests, dec)
        return pd.DataFrame({"term": pd.Series(terms, dtype="string"),
                             "est": ests})

    def _sum_terms(col: str):
        def comb(df: pd.DataFrame) -> pd.DataFrame:
            return df.groupby("term", sort=False)[col].sum().reset_index()
        return comb

    summary_ds = docs.map_batches(sweep, batch_format="pandas").materialize()
    if summary_ds.num_blocks() > tree_fanin:
        # hierarchical merge level over the bounded summaries
        summary_ds = bucketed_map_groups(summary_ds, ["term"],
                                         _sum_terms("est"),
                                         num_buckets=tree_fanin)
    summary = summary_ds.to_pandas()
    if summary.empty:
        return pd.DataFrame({"term": pd.Series([], dtype="string"),
                             "n": pd.Series([], dtype="int64")})
    marker_mask = summary["term"].isna() | (summary["term"] == _MARKER)
    err = int(summary.loc[marker_mask, "est"].sum())
    est = (summary[~marker_mask].groupby("term", sort=False)["est"].sum()
           .sort_values(ascending=False, kind="mergesort"))
    if est.empty:
        # every batch's Misra-Gries step dropped all terms (capacity far
        # below per-batch distinct count with tied counts) — no candidate
        # set to verify; fall back to the exact shuffle
        return _heavy_hitters_shuffle(docs, text_col, k)
    t_k = int(est.iloc[min(k, len(est)) - 1])
    cand = est[est >= t_k - err]

    # candidate blow-up means the bound is useless — go straight to the
    # exact-shuffle fallback rather than broadcasting a huge set
    if err and len(cand) > max(64 * k, 4096):
        return _heavy_hitters_shuffle(docs, text_col, k)

    cand_ref = ray.put(frozenset(cand.index))

    def verify(df: pd.DataFrame, _ref=cand_ref) -> pd.DataFrame:
        cands = ray.get(_ref)
        ex = _ws_tokens(df[text_col]).explode().dropna()
        hits = ex[ex.isin(cands)]
        if hits.empty:
            return pd.DataFrame({"term": pd.Series([], dtype="string"),
                                 "n": pd.Series([], dtype="int64")})
        c = hits.value_counts(sort=False)
        return pd.DataFrame({"term": pd.Series(c.index.to_numpy(dtype=object),
                                               dtype="string"),
                             "n": c.to_numpy().astype(np.int64)})

    verify_ds = docs.map_batches(verify, batch_format="pandas").materialize()
    if verify_ds.num_blocks() > tree_fanin:
        verify_ds = bucketed_map_groups(
            verify_ds, ["term"], _sum_terms("n"), num_buckets=tree_fanin,
            empty_like=pd.DataFrame({"term": pd.Series([], dtype="string"),
                                     "n": pd.Series([], dtype="int64")}))
    exact = (verify_ds.to_pandas()
             .groupby("term", sort=False)["n"].sum().reset_index())
    exact = exact.sort_values(["n", "term"], ascending=[False, True],
                              kind="mergesort").reset_index(drop=True)
    top = exact.head(k)
    n_k = int(top["n"].iloc[-1]) if len(top) else 0
    if err and n_k <= err:
        return _heavy_hitters_shuffle(docs, text_col, k)
    return pd.DataFrame({"term": top["term"].astype("string").to_numpy(),
                         "n": top["n"].astype("int64").to_numpy()})


def _heavy_hitters_shuffle(docs, text_col: str, k: int) -> pd.DataFrame:
    """Exact fallback: per-batch partial counts, ONE bucketed shuffle
    on the term key (ngram_top's plan) — always correct, used only when
    the sweep's proof fails."""
    from .shuffle import bucketed_map_groups
    from .textstats import _ws_tokens

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        ex = _ws_tokens(df[text_col]).explode().dropna()
        if ex.empty:
            return pd.DataFrame({"term": pd.Series([], dtype="string"),
                                 "n": pd.Series([], dtype="int64")})
        c = ex.value_counts(sort=False)
        return pd.DataFrame({"term": pd.Series(c.index.to_numpy(dtype=object),
                                               dtype="string"),
                             "n": c.to_numpy().astype(np.int64)})

    def total(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("term", sort=False)["n"].sum()
        return g.reset_index()

    sums = bucketed_map_groups(
        docs.map_batches(partial, batch_format="pandas"),
        ["term"], total, num_buckets=32)
    out = (sums.sort(["n", "term"], descending=[True, False])
           .limit(k).to_pandas())
    return pd.DataFrame({"term": out["term"].astype("string").to_numpy(),
                         "n": out["n"].astype("int64").to_numpy()})


def dataset_split(ds, key_col: str, fractions: dict[str, float]):
    """Deterministic train/val/test assignment by key hash: split s
    with cumulative boundaries [c_{s-1}, c_s) claims rows whose
    ``u = hash(key)/2^64`` lands in it.  Map-only, stable under
    repartition/retry/appends (a row's split never changes when the
    corpus grows — the property epoch-stable training pipelines need),
    and exactly reproducible by a SQL oracle.  ``fractions`` must sum
    to 1 (validated); iteration order fixes the boundary order."""
    from ..functions.similarity import hash_strings_fast

    names = list(fractions)
    total = float(sum(fractions.values()))
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"fractions sum to {total}, expected 1")
    bounds = np.cumsum([float(fractions[n]) for n in names])

    def tag(df: pd.DataFrame) -> pd.DataFrame:
        out = df.copy()
        if len(df) == 0:
            out["split"] = pd.Series([], dtype="string")
            return out
        u = (hash_strings_fast(df[key_col].astype(str)
                               .to_numpy(dtype=object))
             .astype(np.float64) / float(2 ** 64))
        idx = np.searchsorted(bounds, u, side="right")
        idx = np.minimum(idx, len(names) - 1)
        out["split"] = pd.array(np.array(names, dtype=object)[idx],
                                dtype="string")
        return out

    return ds.map_batches(tag, batch_format="pandas")


def weighted_sample(ds, key_col: str, weight_col_or_map, k: int,
                    group_col: str | None = None,
                    default_weight: float = 1.0):
    """Weighted sampling without replacement, k rows, deterministic
    (Efraimidis & Spirakis 2006 A-Res, public algorithm): each row gets
    priority ``ln(u)/w`` with ``u = (hash(key)+1)/2^64`` (monotone
    transform of u^(1/w)); the global top-k by priority is the sample.

    Scale shape: per-batch partial top-k (bounded k rows per block)
    → driver merge of k × blocks rows — data-size independent, no
    shuffle.  Reproducible by a SQL oracle (ORDER BY ln/pow LIMIT k);
    the key hash makes the "randomness" stable under repartition.

    ``weight_col_or_map``: a numeric column name, or (with
    ``group_col``) a {group: weight} dict."""
    from ..functions.similarity import hash_strings_fast

    def pri(df: pd.DataFrame) -> np.ndarray:
        u = ((hash_strings_fast(df[key_col].astype(str)
                                .to_numpy(dtype=object))
              .astype(np.float64) + 1.0) / float(2 ** 64))
        if isinstance(weight_col_or_map, dict):
            w = (df[group_col].map(weight_col_or_map)
                 .fillna(default_weight).to_numpy(dtype=np.float64))
        else:
            w = df[weight_col_or_map].to_numpy(dtype=np.float64)
        return np.log(u) / np.maximum(w, 1e-300)

    def part(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return df
        p = pri(df)
        keep = np.argsort(-p, kind="stable")[:k]
        out = df.iloc[np.sort(keep)].copy()
        out["_pri"] = p[np.sort(keep)]
        return out

    parts = ds.map_batches(part, batch_format="pandas").to_pandas()
    if len(parts) == 0:
        return parts
    top = parts.nlargest(k, "_pri", keep="all").head(k)
    return top.drop(columns=["_pri"]).reset_index(drop=True)


def count_min_estimates(ds, text_col: str, probes: list[str],
                        depth: int = 4, width: int = 2048) -> pd.DataFrame:
    """Count-Min sketch term-frequency estimates (Cormode &
    Muthukrishnan 2005): depth x width counter matrix, row r hashes
    a term with DuckDB ``hash(f"{r}:{term}")`` % width; the estimate
    is the min over rows — always >= the true count, and <= true +
    eps*N (eps = e/width) with probability 1 - (1/2)^depth.  The
    shuffle-free answer to "how frequent is key X" when the key space
    is too large for an exact count shuffle.

    Plan: each batch folds its token counts into <= depth*width
    (r, c, n) CELLS (the combiner discipline — cell count is bounded
    by the SKETCH size, never the vocabulary), one
    ``partial_groupby_agg`` merges them (hierarchical above its
    fan-in), and the probe lookups are a driver-side min over depth
    bounded rows.  Because the row hash is the DuckDB kernel, the
    entire sketch is reproduced by the SQL oracle bit-for-bit."""
    from ..functions.similarity import hash_strings_fast
    from .relational import partial_groupby_agg

    def cells(df: pd.DataFrame) -> pd.DataFrame:
        texts = (df[text_col].astype("string").fillna("").str.strip()
                 .str.lower())
        toks = texts[texts != ""].str.split().explode()
        if toks.empty:
            return pd.DataFrame({"r": np.empty(0, np.int64),
                                 "c": np.empty(0, np.int64),
                                 "n": np.empty(0, np.int64)})
        cnt = toks.value_counts(sort=False)
        terms = cnt.index.to_numpy(dtype=object)
        n = cnt.to_numpy(np.int64)
        frames = []
        for r in range(depth):
            keys = [f"{r}:{t}" for t in terms]
            c = (hash_strings_fast(keys) % np.uint64(width)) \
                .astype(np.int64)
            p = pd.DataFrame({"r": np.full(len(terms), r,
                                           dtype=np.int64),
                              "c": c, "n": n})
            frames.append(p.groupby(["r", "c"], sort=False)["n"]
                          .sum().reset_index())
        return pd.concat(frames, ignore_index=True)

    merged = partial_groupby_agg(
        ds.map_batches(cells, batch_format="pandas"),
        ["r", "c"], {"n": ("n", "sum")})
    mat = np.zeros((depth, width), dtype=np.int64)
    mat[merged["r"].to_numpy(np.int64),
        merged["c"].to_numpy(np.int64)] = merged["n"].to_numpy(np.int64)
    from ..functions.similarity import hash_strings_fast as hsf
    est = []
    for t in probes:
        cs = (hsf([f"{r}:{t}" for r in range(depth)])
              % np.uint64(width)).astype(np.int64)
        est.append(int(mat[np.arange(depth), cs].min()))
    return pd.DataFrame({"term": pd.Series(probes, dtype=object),
                         "est": np.asarray(est, np.int64)})


def tdigest_per_group(ds, keys, col: str, qs: dict[str, float],
                      delta: int = 200,
                      num_buckets: int = 64) -> "object":
    """Per-group approximate quantiles via mergeable t-digests — the
    100-TB path when the GROUP count is web-scale and per-group exact
    quantiles (`quantile_agg`'s value co-location) would shuffle every
    raw value: each batch compresses each group it contains to
    <= ~2*delta (value, weight) centroid pairs plus (min, max), packed
    as one binary cell; ONE co-location shuffle moves the bounded
    sketches, and a per-group merge (concat -> value-sort ->
    re-compress -> interpolate) emits the quantile columns.  Same
    contract as `hll_per_group`; accuracy pinned vs exact quantiles
    in tests/test_sketch.py."""
    import io

    from .shuffle import bucketed_map_groups

    keys = list(keys)
    names = list(qs)

    def pack(cv, cw, vmin, vmax) -> bytes:
        buf = io.BytesIO()
        np.save(buf, np.concatenate(
            [[vmin, vmax], cv.astype(np.float64), cw.astype(np.float64)]))
        return buf.getvalue()

    def unpack(b: bytes):
        arr = np.load(io.BytesIO(b))
        n = (len(arr) - 2) // 2
        return arr[2:2 + n], arr[2 + n:], float(arr[0]), float(arr[1])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        rows, blobs = [], []
        d = df[[*keys, col]].dropna(subset=[col])
        for k, g in d.groupby(keys, sort=False):
            v = np.sort(g[col].to_numpy(dtype=np.float64))
            cv, cw = _tdigest_compress(v, np.ones_like(v), delta)
            rows.append(k if isinstance(k, tuple) else (k,))
            blobs.append(pack(cv, cw, float(v[0]), float(v[-1])))
        kdf = pd.DataFrame(rows, columns=keys) if rows else \
            pd.DataFrame({k: pd.Series([], dtype="object") for k in keys})
        kdf["td"] = pd.Series(blobs, dtype="object")
        return kdf

    partials = ds.map_batches(partial, batch_format="pandas")

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for k, g in df.groupby(keys, sort=False):
            cvs, cws, lo, hi = [], [], np.inf, -np.inf
            for b in g["td"]:
                cv, cw, vmin, vmax = unpack(b)
                cvs.append(cv)
                cws.append(cw)
                lo, hi = min(lo, vmin), max(hi, vmax)
            v = np.concatenate(cvs)
            w = np.concatenate(cws)
            order = np.argsort(v, kind="mergesort")
            cv, cw = _tdigest_compress(v[order], w[order], delta)
            kt = k if isinstance(k, tuple) else (k,)
            rows.append((*kt, *[_tdigest_quantile(cv, cw, qs[n], lo, hi)
                                for n in names]))
        if not rows:
            out = pd.DataFrame({k: pd.Series([], dtype="object")
                                for k in keys})
            for n in names:
                out[n] = pd.Series([], dtype="float64")
            return out
        return pd.DataFrame(rows, columns=[*keys, *names])

    return bucketed_map_groups(partials, keys, merge, num_buckets)


def icws_signatures(ds, id_col: str = "doc_id", text_col: str = "text",
                    m: int = 64):
    """Improved Consistent Weighted Sampling signatures (Ioffe 2010) —
    MinHash generalized to WEIGHTED Jaccard
    J_w = Σ min(w_a, w_b) / Σ max(w_a, w_b) over tf vectors:
    P[sample_k(A) = sample_k(B)] = J_w(A, B) exactly, so signature
    agreement estimates J_w unbiased with variance J(1−J)/m.

    Per sample k and token x, (r, c, β) derive from the DuckDB hash
    kernel on ``x|k|i`` — token-and-k only, never the doc, which is
    what makes sampling CONSISTENT across docs.  The batch kernel
    hashes each distinct token once per (k, i) (five uniforms), maps
    onto the (doc, token, tf) cells, and takes a per-doc argmin of
    ``a = c / (y·e^r)`` with ``t = ⌊ln w / r + β⌋, y = e^{r(t−β)}`` —
    all vectorized; the emitted sample is hash(token|t), one int64 per
    (doc, k).  One narrow map, no shuffle; signatures are m×8 bytes.

    Returns (id, sig list<int64> of length m).
    """
    from ..functions.similarity import hash_strings_fast
    from .textstats import _ws_tokens

    def sig_batch(df: pd.DataFrame) -> pd.DataFrame:
        toks = _ws_tokens(df[text_col]).reset_index(drop=True)
        ex = toks.explode().dropna()
        if ex.empty:
            return pd.DataFrame({
                id_col: df[id_col].iloc[:0],
                "sig": pd.Series([], dtype=object)})
        cell = (pd.DataFrame({"row": ex.index.to_numpy(),
                              "term": ex.to_numpy(object)})
                .groupby(["row", "term"], sort=False).size()
                .reset_index(name="tf"))
        rows = cell["row"].to_numpy(np.int64)
        terms = cell["term"].to_numpy(object)
        logw = np.log(cell["tf"].to_numpy(np.float64))
        uniq, inv = np.unique(terms, return_inverse=True)
        keep_ids = df[id_col].to_numpy()
        row_codes, row_uniq = pd.factorize(rows)
        n_docs = len(row_uniq)
        two64 = np.float64(2.0) ** 64
        sigs = np.empty((n_docs, m), dtype=np.int64)
        for k in range(m):
            u = [hash_strings_fast(
                    np.char.add(uniq.astype("U"), f"|{k}|{i}")
                    .astype(object)).astype(np.float64) / two64
                 for i in range(5)]
            r = -np.log(u[0] * u[1])
            c = -np.log(u[2] * u[3])
            beta = u[4]
            rk, ck, bk = r[inv], c[inv], beta[inv]
            t = np.floor(logw / rk + bk)
            y = np.exp(rk * (t - bk))
            a = ck / (y * np.exp(rk))
            best = (pd.DataFrame({"d": row_codes, "a": a,
                                  "i": np.arange(len(a))})
                    .sort_values(["d", "a", "i"], kind="mergesort")
                    .drop_duplicates("d"))
            bi = best["i"].to_numpy(np.int64)
            samp = hash_strings_fast(
                np.char.add(
                    np.char.add(terms[bi].astype("U"), "|"),
                    t[bi].astype(np.int64).astype("U")).astype(object)
            ).view(np.int64)
            sigs[best["d"].to_numpy(np.int64), k] = samp
        return pd.DataFrame({
            id_col: keep_ids[row_uniq],
            "sig": [s.tolist() for s in sigs]})

    return ds.select_columns([id_col, text_col]).map_batches(
        sig_batch, batch_format="pandas")


def icws_estimate(sig_a: np.ndarray, sig_b: np.ndarray) -> float:
    """Unbiased weighted-Jaccard estimate: fraction of agreeing
    samples."""
    return float(np.mean(np.asarray(sig_a) == np.asarray(sig_b)))


def _sig_matrix(col) -> np.ndarray:
    """(n, m) int64 matrix of a list<int> signature column."""
    import pyarrow as pa

    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    flat = arr.flatten().to_numpy(zero_copy_only=False)
    return flat.reshape(len(arr), -1).astype(np.int64)


def _agreeing_pairs(df: pd.DataFrame, lookup, id_col: str, sig_col: str,
                    threshold: float) -> pd.DataFrame:
    """Candidate ``(id_a, id_b)`` rows whose signatures, read from a
    :mod:`.lookup` id -> signature lookup ``(keys, table, size)``, agree
    on at least ``threshold`` of their positions, with that fraction.
    A candidate id the lookup does not hold raises ``ValueError``."""
    import pyarrow as pa

    from .lookup import probe

    if df.empty:
        return pd.DataFrame({"doc_a": pd.Series([], dtype="int64"),
                             "doc_b": pd.Series([], dtype="int64"),
                             "est_wj": pd.Series([], dtype="float64")})
    ids, tbl, _ = lookup
    a, b = df["id_a"].to_numpy(), df["id_b"].to_numpy()
    ia, found_a = probe(ids, a)
    ib, found_b = probe(ids, b)
    if not (found_a.all() and found_b.all()):
        missing = np.concatenate([a[~found_a], b[~found_b]])
        raise ValueError(f"candidate {id_col} {missing[0]} has no signature")
    sigs = tbl.column(sig_col)
    est = (_sig_matrix(sigs.take(pa.array(ia)))
           == _sig_matrix(sigs.take(pa.array(ib)))).mean(axis=1)
    keep = est >= threshold
    return pd.DataFrame({"doc_a": a[keep], "doc_b": b[keep],
                         "est_wj": np.round(est[keep], 6)})


def signature_agreement_pairs(sigs_ds, id_col: str = "doc_id",
                              sig_col: str = "sig", threshold: float = 0.5,
                              num_buckets: int = 64):
    """Distributed pair generation over per-position signatures
    (round-4: replaces the former driver-side all-pairs compare in
    ``icws_pairs``): emit all id pairs whose signatures agree on at
    least ``threshold`` of their m positions, with the exact agreement
    fraction attached.

    Shape (the banded-LSH machinery at r=1): each (position k, sample
    value) becomes one band row ``(bh = mix(k, sample), id)``; pairs
    sharing >= 1 band co-locate in one bucketed shuffle, dedup in a
    second (pair-keyed, ~2 orders smaller) exchange, and verify
    against a broadcast id -> signature lookup (:mod:`.lookup`, built
    in ONE remote task from the dataset's own blocks — signatures never
    touch the driver); a candidate id with no signature raises.  r=1
    makes candidate recall EXACT for any threshold >= 1/m: a
    qualifying pair agrees on >= ceil(threshold*m) >= 1 positions, so
    it must share a band.  Partitioning assumption:
    group sizes are bounded by how many docs share one (k, sample)
    value — a corpus-wide identical boilerplate token can make a hot
    band, in which case the quadratic output IS the answer.  The
    lookup is one unsharded build: a signature table past
    ``lookup.LOOKUP_BYTES`` would take the sharded plan of the pair
    scorer (``lookup.sharded_pair_tasks``).
    """
    import pyarrow as pa
    import ray

    from .lookup import broadcast_lookup
    from .shuffle import bucketed_map_groups

    sigs = sigs_ds.materialize()

    def explode(tbl: pa.Table) -> pd.DataFrame:
        mat = _sig_matrix(tbl.column(sig_col))
        n, m = mat.shape
        k = np.tile(np.arange(m, dtype=np.uint64), n)
        vals = mat.astype(np.uint64).ravel()
        bh = (vals * np.uint64(0x9E3779B97F4A7C15)
              + (k + np.uint64(1)) * np.uint64(0xC2B2AE3D27D4EB4F))
        ids = np.repeat(
            tbl.column(id_col).to_numpy(zero_copy_only=False), m)
        return pd.DataFrame({"bh": bh.view(np.int64), "id": ids})

    band = sigs.map_batches(explode, batch_format="pyarrow")

    def pairgen(df: pd.DataFrame) -> pd.DataFrame:
        bh = df["bh"].to_numpy(np.int64)
        order = np.argsort(bh, kind="stable")
        h2 = bh[order]
        ids = df["id"].to_numpy()[order]
        new = np.empty(len(h2), dtype=bool)
        if len(h2):
            new[0] = True
            new[1:] = h2[1:] != h2[:-1]
        counts = np.diff(np.append(np.flatnonzero(new), len(h2)))
        starts = np.append(0, np.cumsum(counts))[:-1]
        out_a, out_b = [], []
        for mval in np.unique(counts):
            if mval < 2:
                continue
            g_idx = np.flatnonzero(counts == mval)
            ti, tj = np.triu_indices(int(mval), k=1)
            base = starts[g_idx]
            gi = (base[:, None] + ti[None, :]).ravel()
            gj = (base[:, None] + tj[None, :]).ravel()
            a, b = ids[gi], ids[gj]
            keep = a != b
            a, b = a[keep], b[keep]
            out_a.append(np.minimum(a, b))
            out_b.append(np.maximum(a, b))
        if not out_a:
            return pd.DataFrame({"id_a": pd.Series([], dtype="int64"),
                                 "id_b": pd.Series([], dtype="int64")})
        return (pd.DataFrame({"id_a": np.concatenate(out_a),
                              "id_b": np.concatenate(out_b)})
                .drop_duplicates())

    empty = pd.DataFrame({"id_a": pd.Series([], dtype="int64"),
                          "id_b": pd.Series([], dtype="int64")})
    cand = bucketed_map_groups(band, ["bh"], pairgen, num_buckets,
                               empty_like=empty)
    cand = bucketed_map_groups(
        cand, ["id_a", "id_b"],
        lambda d: d.drop_duplicates(["id_a", "id_b"]),
        num_buckets, empty_like=empty)

    refs = broadcast_lookup(sigs.to_arrow_refs(), id_col, [sig_col])

    def verify(df: pd.DataFrame) -> pd.DataFrame:
        return _agreeing_pairs(df, ray.get(list(refs)), id_col, sig_col,
                               threshold)

    return cand.map_batches(verify, batch_format="pandas")
