"""Text analysis stages for large-scale training-data curation:
token counting, quality scoring, language ID, fingerprinting.

All vectorized ``map_batches`` bodies (pandas string kernels / numpy);
the language-ID stage is a stateful callable (stopword tables built
once per actor — the ST1 load-once pattern).
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa

_WS_SPLIT_RE = re.compile(r"\s+")
# BPE-ish word/number/punct pieces (public GPT-2-style pattern, simplified)
_BPE_RE = re.compile(r"[A-Za-z]+|\d+|[^\sA-Za-z\d]")


def token_count_stage(ds, text_col: str = "text"):
    """Whitespace token count per row (oracle-parity:
    ``len(regexp_split_to_array(trim(text), '\\s+'))`` in DuckDB)."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        t = df[text_col].astype("string").fillna("").str.strip()
        n = t.str.split(_WS_SPLIT_RE).str.len()
        n = n.where(t != "", 0).astype("int64")
        out = df.copy()
        out["n_tokens"] = n
        return out

    return ds.map_batches(fn, batch_format="pandas")


def bpe_token_count(texts: pd.Series) -> pd.Series:
    """Sub-word-ish token count via the BPE-style regex."""
    return texts.astype("string").fillna("").str.findall(_BPE_RE).str.len()


def quality_stats_stage(ds, text_col: str = "text"):
    """Quality-signal columns: char/alpha/digit/space/punct counts and
    ratios (all integer counts + IEEE-double ratios so a DuckDB oracle
    reproduces them bit-for-bit)."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        t = df[text_col].astype("string").fillna("")
        n_chars = t.str.len().astype("int64")
        n_alpha = t.str.count(r"[A-Za-z]").astype("int64")
        n_digit = t.str.count(r"[0-9]").astype("int64")
        n_space = t.str.count(r"\s").astype("int64")
        n_punct = (n_chars - n_alpha - n_digit - n_space).astype("int64")
        out = df.copy()
        out["n_chars_calc"] = n_chars
        out["n_alpha"] = n_alpha
        out["n_digit"] = n_digit
        out["n_space"] = n_space
        out["n_punct"] = n_punct
        out["alpha_ratio"] = n_alpha.astype("float64") / np.maximum(n_chars, 1)
        return out

    return ds.map_batches(fn, batch_format="pandas")


# tiny per-language stopword lists (deterministic heuristic language ID)
_STOPWORDS = {
    "en": {"the", "and", "of", "to", "in", "is", "that", "for", "with", "as"},
    "de": {"der", "die", "das", "und", "ist", "von", "mit", "für", "auf", "ein"},
    "fr": {"le", "la", "les", "et", "de", "des", "un", "une", "est", "pour"},
    "es": {"el", "la", "los", "las", "de", "que", "es", "por", "con", "una"},
}
_CJK_RE = re.compile("[一-鿿]")


class LangIdStage:
    """Heuristic language ID (stopword ratios + CJK script check).

    Stateful actor-pool callable: tables are built in ``__init__``.
    Output: ``lang_pred`` + ``lang_score`` columns.
    """

    def __init__(self, text_col: str = "text"):
        self.text_col = text_col
        self.tables = {k: frozenset(v) for k, v in _STOPWORDS.items()}

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        """Vectorized: one explode + one ``isin`` pass per language
        table, no Python loop over rows (round-1 version looped)."""
        texts = df[self.text_col].astype("string").fillna("")
        texts = texts.reset_index(drop=True)
        toks = texts.str.lower().str.split()
        ntok = toks.str.len().fillna(0).astype("int64")
        ex = toks.explode()
        ratios = pd.DataFrame(index=texts.index)
        for lang, stops in self.tables.items():
            hits = ex.isin(stops).groupby(level=0).sum()
            ratios[lang] = (hits.reindex(texts.index).fillna(0)
                            / ntok.clip(lower=1))
        # first-max tie-break == the scalar loop's strict-greater update
        best = ratios.max(axis=1)
        best_lang = ratios.idxmax(axis=1).where(best > 0.02, "und")
        is_cjk = texts.str.contains(_CJK_RE, regex=True)
        out = df.copy()
        out["lang_pred"] = np.where(is_cjk, "zh",
                                    best_lang.where(ntok > 0, "und"))
        out["lang_score"] = np.where(
            is_cjk, 1.0, best.round(4).where(ntok > 0, 0.0))
        return out


def winnowing_fingerprints(text: str, k: int = 5, window: int = 4) -> list[int]:
    """Winnowing document fingerprint (public algorithm: Schleimer,
    Wilkerson, Aiken 2003): min hash per sliding window over k-gram
    hashes; deterministic.  Gram hash = DuckDB ``hash()`` of the
    space-joined gram string, so the whole transform is reproducible
    in SQL (see SQL_WINNOW_FINGERPRINT) — the oracle for the batch
    stage below, which this scalar form pins in tests."""
    from ..functions.similarity import hash_strings_fast

    toks = text.split()
    if len(toks) < k:
        grams = [" ".join(toks)] if toks else []
    else:
        grams = [" ".join(toks[i:i + k]) for i in range(len(toks) - k + 1)]
    if not grams:
        return []
    h = hash_strings_fast(grams).astype(np.uint64)
    if h.size <= window:
        return [int(h.min())]
    mins = []
    for i in range(h.size - window + 1):
        mins.append(int(h[i:i + window].min()))
    # dedup consecutive repeats (standard winnowing output)
    out = [mins[0]]
    for m in mins[1:]:
        if m != out[-1]:
            out.append(m)
    return out


def winnow_stats_stage(ds, id_col: str = "doc_id", text_col: str = "text",
                       k: int = 5, window: int = 4):
    """Per-document winnowing fingerprint stats (n_fingerprints,
    min_fp) as a batch transform: gram strings are collected across
    the whole batch and hashed in ONE DuckDB ``hash()`` call (the
    dominant cost), window minima + consecutive-dedup run as numpy
    sliding windows over the flat gram-hash buffer with per-doc
    boundary masks — no per-doc hash calls.  Empty-token documents
    are dropped (mirroring the SQL oracle's WHERE clause).  Output
    matches :func:`winnowing_fingerprints` per doc (pinned by tests)
    and DuckDB's window-SQL reformulation exactly."""
    from numpy.lib.stride_tricks import sliding_window_view

    from ..functions.similarity import hash_strings_fast

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        texts = df[text_col].astype("string").fillna("")
        ids, grams, counts = [], [], []
        for doc_id, t in zip(df[id_col].to_numpy(), texts):
            toks = t.split()
            if not toks:
                continue
            if len(toks) < k:
                g = [" ".join(toks)]
            else:
                g = [" ".join(toks[i:i + k])
                     for i in range(len(toks) - k + 1)]
            ids.append(doc_id)
            counts.append(len(g))
            grams.extend(g)
        if not ids:
            return pd.DataFrame({id_col: pd.Series([], dtype="int64"),
                                 "n_fingerprints": pd.Series([],
                                                             dtype="int64"),
                                 "min_fp": pd.Series([], dtype=object)})
        h = hash_strings_fast(grams).astype(np.uint64)
        counts = np.asarray(counts, dtype=np.int64)
        offs = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=offs[1:])
        # global min per doc == min over window minima (every gram is
        # covered by at least one window)
        min_fp = np.minimum.reduceat(h, offs[:-1])
        # flat sliding-window minima; window w is valid iff it does not
        # cross a doc boundary
        n_fp = np.empty(counts.size, dtype=np.int64)
        if h.size >= window:
            wmin = sliding_window_view(h, window).min(axis=1)
        else:
            wmin = np.empty(0, dtype=np.uint64)
        for j in range(counts.size):
            lo, n = offs[j], counts[j]
            if n <= window:
                n_fp[j] = 1
                continue
            m = wmin[lo:lo + n - window + 1]
            n_fp[j] = 1 + int(np.count_nonzero(m[1:] != m[:-1]))
        return pd.DataFrame({
            id_col: np.asarray(ids),
            "n_fingerprints": n_fp,
            # string-typed so engines hash the uint64 identically
            "min_fp": min_fp.astype(str),
        })

    return ds.map_batches(fn, batch_format="pandas")


def exact_int_quantile(ds, col: str, q: float) -> int:
    """EXACT ``quantile_disc`` over an integer-valued column without a
    shuffle or a sort: per-batch value-count histograms (the combiner
    pattern — one narrow map), merged on the driver, then a cumulative
    scan picks the smallest value whose cumulative count reaches
    ``ceil(q * N)`` (DuckDB ``quantile_disc`` parity, pinned by tests
    incl. the ties/exact-multiple edge cases).

    Bytes reaching the driver are O(distinct values) — bounded for
    count-like document stats (token counts, lengths) regardless of
    row count; for unbounded/float domains use the t-digest
    (:func:`..stages.sketch.tdigest_quantiles`) instead."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        c = df[col].value_counts(sort=False)
        return pd.DataFrame({"v": c.index.to_numpy(dtype=np.int64),
                             "n": c.to_numpy().astype(np.int64)})

    hist = (ds.select_columns([col])
            .map_batches(partial, batch_format="pandas").to_pandas()
            .groupby("v", sort=True)["n"].sum())
    total = int(hist.sum())
    if total == 0:
        raise ValueError(f"exact_int_quantile: no rows in column {col!r}")
    rank = max(1, int(np.ceil(q * total)))
    cum = hist.cumsum()
    return int(cum.index[np.searchsorted(cum.to_numpy(), rank)])


def quantile_threshold_filter(ds, col: str, q: float):
    """Curation gate: keep rows whose integer ``col`` exceeds the
    corpus-wide exact ``quantile_disc(col, q)``.  Two streaming passes
    — histogram combiner for the threshold (no shuffle), then a
    broadcast-scalar vectorized filter."""
    thr = exact_int_quantile(ds, col, q)

    def flt(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        return batch.filter(pc.greater(batch.column(col), thr))

    return ds.map_batches(flt, batch_format="pyarrow")


def _ws_tokens(texts: pd.Series) -> pd.Series:
    """Lowercased whitespace tokens (list per row); empty text -> empty
    list.  Matches DuckDB ``regexp_split_to_array(trim(lower(text)),
    '\\s+')`` on non-empty text."""
    t = texts.astype("string").fillna("").str.strip().str.lower()
    toks = t.str.split(_WS_SPLIT_RE)
    return toks.where(t != "", other=None).map(
        lambda x: x if isinstance(x, list) else [])


def top_tfidf_terms(ds, id_col: str = "doc_id", text_col: str = "text",
                    num_buckets: int = 64,
                    broadcast_max_terms: int | None = None):
    """Per-document top term by (term frequency, lexicographic) with
    its TF-IDF weight — the inverted-index / term-weighting composition
    a curation pipeline needs (query expansion, keyword features).

    Two passes over the corpus, both streaming:

    1. document frequency: per-batch distinct (doc, term) -> partial
       term counts (combiner: vocabulary rows collapse ~100x within a
       batch), then ONE bucketed shuffle on term sums exactly;
    2. scoring: per-doc term frequencies are computed entirely within
       the row's own batch (a document never spans rows) and the
       per-doc winner is picked by integer tf with a lexicographic
       tie-break — the winner never depends on DF, so float TF-IDF is
       reported but never used for ordering and ranking is
       reproducible across engines and runs.

    The winner rows (ONE per document) are then hydrated with their
    term's df_n: below ``broadcast_max_terms`` the DF table ships once
    as a broadcast map (cheapest at config-scale vocabularies); above
    it — a web-scale vocabulary is billions of terms and must never
    become one driver/object-store Series — the hydration is a
    distributed hash join on term, the same bounded-crossover pattern
    as the feature-lookup hydration in the flagship pipeline.
    """
    import ray

    from .relational import hash_join
    from .shuffle import bucketed_map_groups

    def df_partial(df: pd.DataFrame) -> pd.DataFrame:
        toks = _ws_tokens(df[text_col]).reset_index(drop=True)
        ex = toks.explode().dropna()
        if len(ex) == 0:
            return pd.DataFrame({"term": pd.Series([], dtype="string"),
                                 "df_n": pd.Series([], dtype="int64")})
        pairs = pd.DataFrame({"d": ex.index.to_numpy(),
                              "term": ex.to_numpy()}).drop_duplicates()
        counts = pairs.groupby("term", sort=False).size()
        return pd.DataFrame({"term": counts.index.astype("string"),
                             "df_n": counts.to_numpy()})

    def df_sum(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("term", sort=False)["df_n"].sum()
        return pd.DataFrame({"term": g.index.astype("string"),
                             "df_n": g.to_numpy()})

    docs = ds.select_columns([id_col, text_col])
    df_ds = bucketed_map_groups(
        docs.map_batches(df_partial, batch_format="pandas"),
        ["term"], df_sum, num_buckets).materialize()

    def n_partial(df: pd.DataFrame) -> pd.DataFrame:
        t = df[text_col].astype("string").fillna("").str.strip()
        return pd.DataFrame({"n": [int((t != "").sum())]})

    n_docs = int(docs.map_batches(
        n_partial, batch_format="pandas").sum("n"))
    n_terms = df_ds.count()

    def pick_top(df: pd.DataFrame) -> pd.DataFrame:
        toks = _ws_tokens(df[text_col]).reset_index(drop=True)
        ex = toks.explode().dropna()
        if len(ex) == 0:
            return pd.DataFrame({
                id_col: df[id_col].iloc[:0],
                "top_term": pd.Series([], dtype="string"),
                "tf": pd.Series([], dtype="int64"),
            })
        tf = (pd.DataFrame({"row": ex.index.to_numpy(),
                            "term": ex.to_numpy()})
              .groupby(["row", "term"], sort=False).size()
              .reset_index(name="tf"))
        tf = tf.sort_values(["row", "tf", "term"],
                            ascending=[True, False, True], kind="mergesort")
        top = tf.drop_duplicates("row", keep="first")
        return pd.DataFrame({
            id_col: df[id_col].to_numpy()[top["row"].to_numpy()],
            "top_term": top["term"].astype("string").to_numpy(),
            "tf": top["tf"].astype("int64").to_numpy(),
        })

    winners = docs.map_batches(pick_top, batch_format="pandas")

    if broadcast_max_terms is None:
        broadcast_max_terms = BROADCAST_MAX_TERMS
    if n_terms <= broadcast_max_terms:
        df_map_ref = ray.remote(_df_blocks_to_series).remote(
            *df_ds.to_arrow_refs())

        def hydrate(df: pd.DataFrame, _ref=df_map_ref,
                    _n=n_docs) -> pd.DataFrame:
            dfm = ray.get(_ref)
            out = df.copy()
            dfv = df["top_term"].map(dfm).astype("int64")
            out["df_n"] = dfv.to_numpy()
            out["tfidf"] = (df["tf"].to_numpy()
                            * np.log(float(_n) / dfv.to_numpy())).round(6)
            return out

        return winners.map_batches(hydrate, batch_format="pandas")

    # vocabulary too large to broadcast: distributed hash join on term
    joined = hash_join(winners, df_ds, on=["top_term"], right_on=["term"],
                       how="inner", rows_hint=n_docs + n_terms)

    def finish(df: pd.DataFrame, _n=n_docs) -> pd.DataFrame:
        dfv = df["df_n"].astype("int64")
        out = pd.DataFrame({
            id_col: df[id_col].to_numpy(),
            "top_term": df["top_term"].astype("string").to_numpy(),
            "tf": df["tf"].astype("int64").to_numpy(),
            "df_n": dfv.to_numpy(),
            "tfidf": (df["tf"].to_numpy()
                      * np.log(float(_n) / dfv.to_numpy())).round(6),
        })
        return out

    return joined.map_batches(finish, batch_format="pandas")


# above this vocabulary size the DF table is hydrated by a distributed
# hash join instead of one broadcast Series (matches the 2M-row
# broadcast-lookup ceiling used by the flagship feature hydration)
BROADCAST_MAX_TERMS = 2_000_000


def _df_blocks_to_series(*blocks) -> pd.Series:
    frames = [b.to_pandas() for b in blocks if "term" in b.schema.names]
    if not frames:
        return pd.Series(dtype="int64")
    allf = pd.concat(frames, ignore_index=True)
    return pd.Series(allf["df_n"].to_numpy(),
                     index=allf["term"].to_numpy())


def unigram_logprob(ds, id_col: str = "doc_id", text_col: str = "text",
                    ref_mod: int = 10, num_buckets: int = 64,
                    broadcast_max_terms: int | None = None):
    """Per-document mean negative log-probability under a unigram LM
    trained on a reference slice — the CCNet/KenLM perplexity-filter
    shape (Wenzek et al. 2020) with the LM reduced to add-one-smoothed
    unigrams (no LM library in this environment; the distributed plan
    is identical for any token-factorized model).

    Train: docs with ``id % ref_mod == 0`` are the reference corpus;
    one combiner pass + ONE bucketed shuffle builds (term, cnt) counts
    (the model).  Score: every doc's mean of ``-log((cnt+1)/(N+V+1))``
    over its tokens (unseen tokens get the cnt=0 mass).

    Model hydration mirrors :func:`top_tfidf_terms`: broadcast the
    count table once below ``broadcast_max_terms``; above it (web-scale
    vocabularies), a distributed left join on term over per-doc
    DISTINCT (doc, term, tf) rows — multiplicity travels as the tf
    integer, never as repeated token rows — then one doc-keyed
    aggregate.  Returns (id, n_tok, nll) with nll rounded to 6.
    """
    import ray

    from .relational import hash_join
    from .shuffle import bucketed_map_groups

    docs = ds.select_columns([id_col, text_col])

    def cnt_partial(df: pd.DataFrame) -> pd.DataFrame:
        ref = df[df[id_col].to_numpy() % ref_mod == 0]
        ex = _ws_tokens(ref[text_col]).explode().dropna()
        if len(ex) == 0:
            return pd.DataFrame({"term": pd.Series([], dtype="string"),
                                 "cnt": pd.Series([], dtype="int64")})
        g = ex.groupby(ex.to_numpy(), sort=False).size()
        return pd.DataFrame({"term": g.index.astype("string"),
                             "cnt": g.to_numpy()})

    def cnt_sum(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("term", sort=False)["cnt"].sum()
        return pd.DataFrame({"term": g.index.astype("string"),
                             "cnt": g.to_numpy()})

    model = bucketed_map_groups(
        docs.map_batches(cnt_partial, batch_format="pandas"),
        ["term"], cnt_sum, num_buckets,
        empty_like=pd.DataFrame({"term": pd.Series([], dtype="string"),
                                 "cnt": pd.Series([], dtype="int64")}),
    ).materialize()
    v_terms = model.count()
    n_tokens = int(model.sum("cnt") or 0)
    denom = float(n_tokens + v_terms + 1)

    def doc_tf(df: pd.DataFrame) -> pd.DataFrame:
        toks = _ws_tokens(df[text_col]).reset_index(drop=True)
        ex = toks.explode().dropna()
        if len(ex) == 0:
            return pd.DataFrame({id_col: df[id_col].iloc[:0],
                                 "term": pd.Series([], dtype="string"),
                                 "tf": pd.Series([], dtype="int64")})
        tf = (pd.DataFrame({"row": ex.index.to_numpy(),
                            "term": ex.to_numpy()})
              .groupby(["row", "term"], sort=False).size()
              .reset_index(name="tf"))
        return pd.DataFrame({
            id_col: df[id_col].to_numpy()[tf["row"].to_numpy()],
            "term": tf["term"].astype("string").to_numpy(),
            "tf": tf["tf"].astype("int64").to_numpy(),
        })

    if broadcast_max_terms is None:
        broadcast_max_terms = BROADCAST_MAX_TERMS
    if v_terms <= broadcast_max_terms:
        ref_map = ray.remote(_cnt_blocks_to_series).remote(
            *model.to_arrow_refs())

        def score(df: pd.DataFrame, _ref=ref_map,
                  _d=denom) -> pd.DataFrame:
            cm = ray.get(_ref)
            t = doc_tf(df)
            if not len(t):
                return pd.DataFrame({id_col: df[id_col].iloc[:0],
                                     "n_tok": pd.Series([], dtype="int64"),
                                     "nll": pd.Series([], dtype="float64")})
            cnt = t["term"].map(cm).fillna(0).to_numpy(dtype=np.float64)
            lp = np.log((cnt + 1.0) / _d) * t["tf"].to_numpy()
            g = (pd.DataFrame({id_col: t[id_col].to_numpy(),
                               "tf": t["tf"].to_numpy(), "lp": lp})
                 .groupby(id_col, sort=False).sum().reset_index())
            return pd.DataFrame({
                id_col: g[id_col].to_numpy(),
                "n_tok": g["tf"].astype("int64").to_numpy(),
                "nll": np.round(-g["lp"].to_numpy()
                                / g["tf"].to_numpy(), 6),
            })

        return docs.map_batches(score, batch_format="pandas")

    # web-scale vocabulary: distributed left join on term, then one
    # doc-keyed aggregate (unseen terms surface as null cnt -> 0)
    pairs = docs.map_batches(doc_tf, batch_format="pandas")
    joined = hash_join(pairs, model, on=["term"], how="left_outer")

    def finish(df: pd.DataFrame, _d=denom) -> pd.DataFrame:
        cnt = df["cnt"].fillna(0).to_numpy(dtype=np.float64)
        tf = df["tf"].to_numpy(dtype=np.float64)
        lp = np.log((cnt + 1.0) / _d) * tf
        g = (pd.DataFrame({id_col: df[id_col].to_numpy(),
                           "tf": tf, "lp": lp})
             .groupby(id_col, sort=False).sum().reset_index())
        return pd.DataFrame({
            id_col: g[id_col].to_numpy(),
            "n_tok": g["tf"].astype("int64").to_numpy(),
            "nll": np.round(-g["lp"].to_numpy() / g["tf"].to_numpy(), 6),
        })

    return bucketed_map_groups(
        joined, [id_col], finish, num_buckets,
        empty_like=pd.DataFrame({
            id_col: pd.Series([], dtype="int64"),
            "n_tok": pd.Series([], dtype="int64"),
            "nll": pd.Series([], dtype="float64")}))


def _cnt_blocks_to_series(*blocks) -> pd.Series:
    frames = [b.to_pandas() for b in blocks if "term" in b.schema.names]
    if not frames:
        return pd.Series(dtype="int64")
    allf = pd.concat(frames, ignore_index=True)
    return pd.Series(allf["cnt"].to_numpy(),
                     index=allf["term"].to_numpy())


def pmi_bigrams(ds, text_col: str = "text", min_count: int = 5,
                k: int = 20, num_buckets: int = 32):
    """Top-k bigram collocations by pointwise mutual information
    (Church & Hanks 1990) — the classic phrase-mining signal:
    ``PMI(a,b) = log2( (n_ab/TB) / ((n_a/T) * (n_b/T)) )`` over
    whitespace tokens, bigrams below ``min_count`` dropped (PMI's
    low-frequency instability).

    Plan: unigram and bigram count cells via the ngram_top combiner
    (per-batch partials, one bucketed shuffle each); the corpus
    totals are two scalar reductions over the bounded cell tables;
    per-bigram unigram counts hydrate through TWO distributed hash
    joins on the token (vocabulary never broadcast — the
    unigram_logprob discipline, here join-only); the PMI map, filter
    and global top-k are then sort+limit over the surviving cells.
    The float expression is written identically in the SQL oracle so
    scores match bit-for-bit before the round."""
    import ray

    from .shuffle import bucketed_map_groups
    from .relational import _num_partitions, hash_join

    def tok_series(df: pd.DataFrame):
        texts = df[text_col].astype("string").fillna("") \
            .reset_index(drop=True)
        toks = texts.str.lower().str.split()
        return toks.explode().dropna()

    def uni_partial(df: pd.DataFrame) -> pd.DataFrame:
        ex = tok_series(df)
        if ex.empty:
            return pd.DataFrame({"tok": pd.Series([], dtype=object),
                                 "nu": pd.Series([], dtype="int64")})
        c = ex.value_counts(sort=False)
        return pd.DataFrame({"tok": c.index.to_numpy(dtype=object),
                             "nu": c.to_numpy()})

    def bi_partial(df: pd.DataFrame) -> pd.DataFrame:
        ex = tok_series(df)
        if ex.empty:
            return pd.DataFrame({"a": pd.Series([], dtype=object),
                                 "b": pd.Series([], dtype=object),
                                 "nb": pd.Series([], dtype="int64")})
        doc_idx = ex.index.to_numpy()
        vals = ex.to_numpy(dtype=object)
        same = doc_idx[:-1] == doc_idx[1:]
        pairs = pd.DataFrame({"a": vals[:-1][same], "b": vals[1:][same]})
        c = pairs.groupby(["a", "b"], sort=False).size().rename("nb")
        return c.reset_index()

    def sum_cells(col):
        def f(df: pd.DataFrame) -> pd.DataFrame:
            g = df.groupby([c for c in df.columns if c != col],
                           sort=False, as_index=False)[col].sum()
            return g
        return f

    uni = bucketed_map_groups(
        ds.map_batches(uni_partial, batch_format="pandas"),
        ["tok"], sum_cells("nu"), num_buckets=num_buckets) \
        .repartition(_num_partitions()).materialize()
    bg = bucketed_map_groups(
        ds.map_batches(bi_partial, batch_format="pandas"),
        ["a", "b"], sum_cells("nb"), num_buckets=num_buckets) \
        .repartition(_num_partitions()).materialize()

    def scalar_sum(d, col):
        parts = d.map_batches(
            lambda df: pd.DataFrame({"v": [int(df[col].sum())]}),
            batch_format="pandas").take_all()
        return float(sum(r["v"] for r in parts))

    T = scalar_sum(uni, "nu")
    TB = scalar_sum(bg, "nb")

    kept = bg.map_batches(
        lambda df: df[df["nb"] >= min_count], batch_format="pandas")
    ua = uni.map_batches(
        lambda df: df.rename(columns={"tok": "a", "nu": "nua"}),
        batch_format="pandas")
    ub = uni.map_batches(
        lambda df: df.rename(columns={"tok": "b", "nu": "nub"}),
        batch_format="pandas")
    j = hash_join(hash_join(kept, ua, on=["a"]), ub, on=["b"])

    def score(df: pd.DataFrame) -> pd.DataFrame:
        nb = df["nb"].to_numpy(np.float64)
        nua = df["nua"].to_numpy(np.float64)
        nub = df["nub"].to_numpy(np.float64)
        pmi = np.log2((nb / TB) / ((nua / T) * (nub / T)))
        return pd.DataFrame({
            "bigram": (df["a"].astype(str) + " "
                       + df["b"].astype(str)).to_numpy(dtype=object),
            "n": df["nb"].to_numpy(np.int64),
            "pmi": pmi})

    scored = j.map_batches(score, batch_format="pandas")
    top = scored.sort(["pmi", "bigram"], descending=[True, False]).limit(k)
    return top.map_batches(
        lambda df: df.assign(pmi=df["pmi"].round(6)),
        batch_format="pandas")


def vocab_stats(ds, text_col: str = "text", num_buckets: int = 32):
    """Corpus vocabulary statistics: total tokens, distinct tokens,
    hapax legomena (frequency-1 terms), max term frequency and the
    type-token ratio — the Zipf/Heaps audit run before tokenizer and
    LM decisions.  One combiner pass to (term, count) cells, one
    bucketed shuffle of the cells, then per-bucket scalar partials
    (V, hapax, max, Σn) reduced driver-side — the corpus never moves
    twice and the driver holds O(buckets) scalars."""
    from .shuffle import bucketed_map_groups

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        texts = df[text_col].astype("string").fillna("") \
            .reset_index(drop=True)
        ex = texts.str.lower().str.split().explode().dropna()
        if ex.empty:
            return pd.DataFrame({"tok": pd.Series([], dtype=object),
                                 "n": pd.Series([], dtype="int64")})
        c = ex.value_counts(sort=False)
        return pd.DataFrame({"tok": c.index.to_numpy(dtype=object),
                             "n": c.to_numpy()})

    cells = bucketed_map_groups(
        ds.map_batches(partial, batch_format="pandas"), ["tok"],
        lambda df: df.groupby("tok", sort=False, as_index=False)["n"]
        .sum(), num_buckets=num_buckets)

    def scalars(df: pd.DataFrame) -> pd.DataFrame:
        n = df["n"].to_numpy(np.int64)
        return pd.DataFrame({"v": [len(n)], "hapax": [int((n == 1).sum())],
                             "mx": [int(n.max()) if len(n) else 0],
                             "tot": [int(n.sum())]})

    parts = cells.map_batches(scalars, batch_format="pandas").take_all()
    v = sum(r["v"] for r in parts)
    hapax = sum(r["hapax"] for r in parts)
    mx = max((r["mx"] for r in parts), default=0)
    tot = sum(r["tot"] for r in parts)
    return pd.DataFrame({
        "total_tokens": [int(tot)],
        "distinct_tokens": [int(v)],
        "hapax_tokens": [int(hapax)],
        "max_freq": [int(mx)],
        "type_token_ratio": [round(v / tot, 6) if tot else 0.0]})


def dup_span_stats_stage(ds, id_col: str = "doc_id", text_col: str = "text",
                         k: int = 8, num_buckets: int = 32):
    """Exact-substring duplicate-span coverage (the ExactSubstr shape of
    Lee et al. 2022, "Deduplicating Training Data Makes Language Models
    Better", token-gram variant): a token k-gram position is DUPLICATED
    iff its gram occurs >= 2 times anywhere in the corpus (cross-doc or
    within-doc).  Per document with >= k tokens, emit

        (doc_id, n_grams, n_dup_grams, dup_ratio)

    where n_grams = n_toks - k + 1 sliding positions and dup_ratio =
    n_dup_grams / n_grams (IEEE double).  Docs with < k tokens carry no
    gram and are dropped (mirroring the SQL oracle's WHERE clause).

    Physical plan (the 10^12-doc shape):

    1. per-batch combiner map: gram strings are hashed in ONE DuckDB
       ``hash()`` call (:func:`..functions.similarity.hash_strings_fast`
       — oracle parity with SQL ``hash(array_to_string(...))``), then
       collapsed to (gram_hash, doc_id, n_pos) within the batch, so
       repeated grams never reach the shuffle more than once per
       (batch, doc);
    2. ONE bucketed shuffle on gram_hash: a gram qualifies when its
       global position count > 1; qualifying groups re-emit per-doc
       partial dup counts — output is O(docs x buckets), tiny;
    3. a second small bucketed groupby on doc_id sums the partials,
       then a hash join hydrates them onto the per-doc gram totals
       (left outer; docs with no duplicated gram get 0).

    No stage materializes the gram set; driver state is zero.  At true
    web scale the gram emission is the dominant bytes (64-bit hash +
    doc id per distinct gram per doc) — the same order as the MinHash
    band exchange the flagship already sizes for."""
    from .relational import hash_join
    from .shuffle import bucketed_map_groups
    from ..functions.similarity import hash_strings_fast

    def grams_partial(df: pd.DataFrame) -> pd.DataFrame:
        texts = df[text_col].astype("string").fillna("")
        ids, per_doc, grams = [], [], []
        for doc_id, t in zip(df[id_col].to_numpy(), texts):
            toks = t.split()
            if len(toks) < k:
                continue
            ids.append(doc_id)
            per_doc.append(len(toks) - k + 1)
            grams.extend(" ".join(toks[i:i + k])
                         for i in range(len(toks) - k + 1))
        if not ids:
            return pd.DataFrame({"gh": pd.Series([], dtype="uint64"),
                                 id_col: pd.Series([], dtype="int64"),
                                 "n_pos": pd.Series([], dtype="int64")})
        h = hash_strings_fast(grams)
        doc_rep = np.repeat(np.asarray(ids, dtype=np.int64),
                            np.asarray(per_doc, dtype=np.int64))
        c = (pd.DataFrame({"gh": h, id_col: doc_rep})
             .groupby(["gh", id_col], sort=False).size())
        out = c.rename("n_pos").reset_index()
        out["n_pos"] = out["n_pos"].astype("int64")
        return out

    partials = ds.map_batches(grams_partial, batch_format="pandas")

    def dup_bucket(df: pd.DataFrame) -> pd.DataFrame:
        tot = df.groupby("gh", sort=False)["n_pos"].transform("sum")
        d = df[tot > 1]
        s = d.groupby(id_col, sort=False)["n_pos"].sum()
        return pd.DataFrame({id_col: s.index.to_numpy(dtype=np.int64),
                             "n_dup_grams": s.to_numpy(dtype=np.int64)})

    dup_partials = bucketed_map_groups(partials, ["gh"], dup_bucket,
                                       num_buckets=num_buckets)

    def doc_sum(df: pd.DataFrame) -> pd.DataFrame:
        s = df.groupby(id_col, sort=False)["n_dup_grams"].sum()
        return pd.DataFrame({id_col: s.index.to_numpy(dtype=np.int64),
                             "n_dup_grams": s.to_numpy(dtype=np.int64)})

    dups = bucketed_map_groups(dup_partials, [id_col], doc_sum,
                               num_buckets=min(8, num_buckets))

    def doc_totals(df: pd.DataFrame) -> pd.DataFrame:
        t = df[text_col].astype("string").fillna("")
        n_toks = t.str.split().str.len().fillna(0).astype("int64")
        keep = n_toks >= k
        return pd.DataFrame({
            id_col: df.loc[keep, id_col].to_numpy(dtype=np.int64),
            "n_grams": (n_toks[keep] - k + 1).to_numpy(dtype=np.int64)})

    totals = ds.map_batches(doc_totals, batch_format="pandas")
    joined = hash_join(totals, dups, on=[id_col], how="left_outer")

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        nd = df["n_dup_grams"].fillna(0).astype("int64")
        ng = df["n_grams"].astype("int64")
        return pd.DataFrame({
            id_col: df[id_col].astype("int64"),
            "n_grams": ng,
            "n_dup_grams": nd,
            "dup_ratio": nd.to_numpy(np.float64) / ng.to_numpy(np.float64),
        })

    return joined.map_batches(finish, batch_format="pandas")


def dup_span_removal_stage(ds, id_col: str = "doc_id",
                           text_col: str = "text", k: int = 8,
                           num_buckets: int = 32):
    """ExactSubstr REMOVAL (the output side of Lee et al. 2022): strip
    every token covered by a corpus-duplicated k-gram and emit

        (doc_id, clean_text, n_kept, n_removed)

    per non-empty document.  A token j is covered iff some duplicated
    gram starts at i with i <= j <= i+k-1; clean_text is the kept
    tokens joined by single spaces (whitespace-normalized, matching
    the SQL oracle's regexp_split/trim tokenization).  Docs shorter
    than k tokens carry no gram and pass through untouched.

    Physical plan: like :func:`dup_span_stats_stage` but the gram
    exchange carries the int32 POSITION VECTOR per (gram, doc) packed
    as a binary cell (no list columns — Dataset.join/acero constraint),
    so qualifying grams can re-emit their exact spans: ONE bucketed
    shuffle on gram_hash -> per-doc position union (second small
    bucketed groupby) -> hash-join back onto the documents -> map-side
    span subtraction.  Bytes through the big shuffle are O(total gram
    positions x 12B), the same order as the stats variant."""
    from .relational import hash_join
    from .shuffle import bucketed_map_groups
    from ..functions.similarity import hash_strings_fast

    def grams_partial(df: pd.DataFrame) -> pd.DataFrame:
        texts = df[text_col].astype("string").fillna("")
        ids, per_doc, grams = [], [], []
        for doc_id, t in zip(df[id_col].to_numpy(), texts):
            toks = t.split()
            if len(toks) < k:
                continue
            ids.append(doc_id)
            per_doc.append(len(toks) - k + 1)
            grams.extend(" ".join(toks[i:i + k])
                         for i in range(len(toks) - k + 1))
        if not ids:
            return pd.DataFrame({"gh": pd.Series([], dtype="uint64"),
                                 id_col: pd.Series([], dtype="int64"),
                                 "pos": pd.Series([], dtype=object)})
        h = hash_strings_fast(grams)
        per_doc = np.asarray(per_doc, dtype=np.int64)
        doc_rep = np.repeat(np.asarray(ids, dtype=np.int64), per_doc)
        # 1-based gram start positions (SQL-oracle parity)
        pos = np.concatenate([np.arange(1, n + 1, dtype=np.int32)
                              for n in per_doc])
        dfp = pd.DataFrame({"gh": h, id_col: doc_rep, "p": pos})
        g = dfp.groupby(["gh", id_col], sort=False)["p"].apply(
            lambda s: s.to_numpy(dtype=np.int32).tobytes())
        out = g.rename("pos").reset_index()
        return out

    partials = ds.map_batches(grams_partial, batch_format="pandas")

    def dup_bucket(df: pd.DataFrame) -> pd.DataFrame:
        npos = df["pos"].map(len).to_numpy(np.int64) // 4
        tot = pd.Series(npos).groupby(df["gh"].to_numpy(),
                                      sort=False).transform("sum")
        d = df[(tot > 1).to_numpy()]
        return pd.DataFrame({id_col: d[id_col].to_numpy(dtype=np.int64),
                             "pos": d["pos"].to_numpy(object)})

    dup_pos = bucketed_map_groups(partials, ["gh"], dup_bucket,
                                  num_buckets=num_buckets)

    def doc_union(df: pd.DataFrame) -> pd.DataFrame:
        ids_out, pos_out = [], []
        for doc_id, grp in df.groupby(id_col, sort=False)["pos"]:
            arr = np.unique(np.concatenate(
                [np.frombuffer(b, dtype=np.int32) for b in grp]))
            ids_out.append(doc_id)
            pos_out.append(arr.tobytes())
        return pd.DataFrame({id_col: pd.Series(ids_out, dtype="int64"),
                             "dup_pos": pd.Series(pos_out, dtype=object)})

    per_doc_pos = bucketed_map_groups(dup_pos, [id_col], doc_union,
                                      num_buckets=min(8, num_buckets))

    docs = ds.map_batches(
        lambda t: t.select([id_col, text_col]), batch_format="pyarrow")
    joined = hash_join(docs, per_doc_pos, on=[id_col], how="left_outer")

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        ids_out, clean, n_kept, n_removed = [], [], [], []
        texts = df[text_col].astype("string").fillna("")
        for doc_id, t, pb in zip(df[id_col].to_numpy(), texts,
                                 df["dup_pos"].to_numpy(object)):
            toks = t.split()
            if not toks:
                continue
            covered = np.zeros(len(toks), dtype=bool)
            if isinstance(pb, (bytes, bytearray)):
                starts = np.frombuffer(pb, dtype=np.int32)
                for s in starts:          # spans overlap heavily; small
                    covered[s - 1:s - 1 + k] = True
            kept = [tok for tok, c in zip(toks, covered) if not c]
            ids_out.append(doc_id)
            clean.append(" ".join(kept))
            n_kept.append(len(kept))
            n_removed.append(int(covered.sum()))
        return pd.DataFrame({
            id_col: pd.Series(ids_out, dtype="int64"),
            "clean_text": pd.Series(clean, dtype=object),
            "n_kept": pd.Series(n_kept, dtype="int64"),
            "n_removed": pd.Series(n_removed, dtype="int64")})

    return joined.map_batches(finish, batch_format="pandas")


def bigram_logprob(ds, id_col: str = "doc_id", text_col: str = "text",
                   ref_mod: int = 10, num_buckets: int = 64):
    """Per-document mean negative log-probability under an add-one
    bigram LM trained on a reference slice — the conditional-context
    step up from :func:`unigram_logprob` (CCNet-style quality signal;
    Wenzek et al. 2020):

        p(w2 | w1) = (c(w1 w2) + 1) / (c(w1) + V)

    with ``c`` counted on docs where ``id % ref_mod == 0`` and
    ``V`` = distinct reference unigrams + 1 (the OOV row).

    Plan: bigram and unigram count tables each via one combiner pass +
    one bucketed shuffle (the model is distributed, never a driver
    object); scoring hydrates per-doc DISTINCT (doc, bigram, tf) rows
    through TWO hash joins — on the bigram string for c12, then on its
    first token for c1 — so no vocabulary is ever broadcast; one
    doc-keyed aggregate finishes.  Docs with < 2 tokens emit no row
    (no bigrams), matching the SQL oracle's group-over-bigrams.
    Returns (id, n_bg, nll) with nll rounded to 6.
    """
    from .relational import hash_join
    from .shuffle import bucketed_map_groups

    docs = ds.select_columns([id_col, text_col])

    def doc_bigrams(df: pd.DataFrame, ref_only: bool) -> pd.DataFrame:
        # adjacent-pair construction, vectorized over the exploded
        # token stream (the pmi_bigrams bi_partial trick): positions
        # i, i+1 form a bigram iff they came from the same row
        if ref_only:
            df = df[df[id_col].to_numpy() % ref_mod == 0]
        toks = _ws_tokens(df[text_col]).reset_index(drop=True)
        ex = toks.explode().dropna()
        empty = pd.DataFrame({"row": pd.Series([], dtype="int64"),
                              "big": pd.Series([], dtype="string")})
        if ex.empty:
            return empty
        rows = ex.index.to_numpy()
        vals = ex.to_numpy(dtype=object)
        same = rows[:-1] == rows[1:]
        if not same.any():
            return empty
        big = (pd.Series(vals[:-1][same], dtype="string") + " "
               + pd.Series(vals[1:][same], dtype="string"))
        return pd.DataFrame({"row": rows[:-1][same],
                             "big": big.to_numpy()})

    def bg_cnt_partial(df: pd.DataFrame) -> pd.DataFrame:
        b = doc_bigrams(df, ref_only=True)
        g = b.groupby("big", sort=False).size()
        return pd.DataFrame({"big": g.index.astype("string"),
                             "c12": g.to_numpy()})

    def bg_cnt_sum(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("big", sort=False)["c12"].sum()
        return pd.DataFrame({"big": g.index.astype("string"),
                             "c12": g.to_numpy()})

    bg_model = bucketed_map_groups(
        docs.map_batches(bg_cnt_partial, batch_format="pandas"),
        ["big"], bg_cnt_sum, num_buckets,
        empty_like=pd.DataFrame({"big": pd.Series([], dtype="string"),
                                 "c12": pd.Series([], dtype="int64")}))

    def uni_cnt_partial(df: pd.DataFrame) -> pd.DataFrame:
        ref = df[df[id_col].to_numpy() % ref_mod == 0]
        ex = _ws_tokens(ref[text_col]).explode().dropna()
        if len(ex) == 0:
            return pd.DataFrame({"term": pd.Series([], dtype="string"),
                                 "c1": pd.Series([], dtype="int64")})
        g = ex.groupby(ex.to_numpy(), sort=False).size()
        return pd.DataFrame({"term": g.index.astype("string"),
                             "c1": g.to_numpy()})

    def uni_cnt_sum(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("term", sort=False)["c1"].sum()
        return pd.DataFrame({"term": g.index.astype("string"),
                             "c1": g.to_numpy()})

    uni_model = bucketed_map_groups(
        docs.map_batches(uni_cnt_partial, batch_format="pandas"),
        ["term"], uni_cnt_sum, num_buckets,
        empty_like=pd.DataFrame({"term": pd.Series([], dtype="string"),
                                 "c1": pd.Series([], dtype="int64")})
    ).materialize()
    v = float(uni_model.count() + 1)

    def doc_tf(df: pd.DataFrame) -> pd.DataFrame:
        b = doc_bigrams(df, ref_only=False)
        if not len(b):
            return pd.DataFrame({
                id_col: df[id_col].iloc[:0],
                "big": pd.Series([], dtype="string"),
                "term": pd.Series([], dtype="string"),
                "tf": pd.Series([], dtype="int64")})
        tf = b.groupby(["row", "big"], sort=False).size() \
            .reset_index(name="tf")
        big = tf["big"].astype("string")
        return pd.DataFrame({
            id_col: df[id_col].to_numpy()[tf["row"].to_numpy()],
            "big": big.to_numpy(),
            "term": big.str.split(" ").str[0].astype("string").to_numpy(),
            "tf": tf["tf"].astype("int64").to_numpy()})

    pairs = docs.map_batches(doc_tf, batch_format="pandas")
    j1 = hash_join(pairs, bg_model, on=["big"], how="left_outer")
    j2 = hash_join(j1, uni_model, on=["term"], how="left_outer")

    def finish(df: pd.DataFrame, _v=v) -> pd.DataFrame:
        c12 = df["c12"].fillna(0).to_numpy(dtype=np.float64)
        c1 = df["c1"].fillna(0).to_numpy(dtype=np.float64)
        tf = df["tf"].to_numpy(dtype=np.float64)
        lp = np.log((c12 + 1.0) / (c1 + _v)) * tf
        g = (pd.DataFrame({id_col: df[id_col].to_numpy(),
                           "tf": tf, "lp": lp})
             .groupby(id_col, sort=False).sum().reset_index())
        return pd.DataFrame({
            id_col: g[id_col].to_numpy(),
            "n_bg": g["tf"].astype("int64").to_numpy(),
            "nll": np.round(-g["lp"].to_numpy() / g["tf"].to_numpy(), 6)})

    return bucketed_map_groups(
        j2, [id_col], finish, num_buckets,
        empty_like=pd.DataFrame({
            id_col: pd.Series([], dtype="int64"),
            "n_bg": pd.Series([], dtype="int64"),
            "nll": pd.Series([], dtype="float64")}))


def llr_collocations(ds, text_col: str = "text", min_count: int = 5,
                     k: int = 20, num_buckets: int = 32):
    """Top-k bigram collocations by Dunning's log-likelihood ratio
    (Dunning 1993) — the significance-weighted alternative to PMI
    that does not over-reward rare pairs: G2 over the 2x2 bigram
    contingency (first-token margin, second-token margin, bigram
    total), zero cells contributing zero.

    Plan: the pmi_bigrams cell machinery minus the unigram table —
    both margins are groupby-sums OF the bigram cell table itself,
    hydrated back via distributed hash joins on the token (vocabulary
    never broadcast or driver-collected); the G2 float expression is
    mirrored term-for-term in the SQL oracle."""
    from .relational import _num_partitions, hash_join
    from .shuffle import bucketed_map_groups

    def bi_partial(df: pd.DataFrame) -> pd.DataFrame:
        texts = df[text_col].astype("string").fillna("") \
            .reset_index(drop=True)
        ex = texts.str.lower().str.split().explode().dropna()
        if ex.empty:
            return pd.DataFrame({"a": pd.Series([], dtype=object),
                                 "b": pd.Series([], dtype=object),
                                 "nb": pd.Series([], dtype="int64")})
        doc_idx = ex.index.to_numpy()
        vals = ex.to_numpy(dtype=object)
        same = doc_idx[:-1] == doc_idx[1:]
        pairs = pd.DataFrame({"a": vals[:-1][same], "b": vals[1:][same]})
        return pairs.groupby(["a", "b"], sort=False).size() \
            .rename("nb").reset_index()

    def sum_nb(df: pd.DataFrame) -> pd.DataFrame:
        keys = [c for c in df.columns if c != "nb"]
        return df.groupby(keys, sort=False, as_index=False)["nb"].sum()

    bg = bucketed_map_groups(
        ds.map_batches(bi_partial, batch_format="pandas"),
        ["a", "b"], sum_nb, num_buckets=num_buckets) \
        .repartition(_num_partitions()).materialize()

    tb_parts = bg.map_batches(
        lambda df: pd.DataFrame({"v": [int(df["nb"].sum())]}),
        batch_format="pandas").take_all()
    TB = float(sum(r["v"] for r in tb_parts))

    fa = bucketed_map_groups(
        bg.map_batches(lambda df: df[["a", "nb"]], batch_format="pandas"),
        ["a"], sum_nb, num_buckets=num_buckets).map_batches(
        lambda df: df.rename(columns={"nb": "fa"}), batch_format="pandas")
    sb = bucketed_map_groups(
        bg.map_batches(lambda df: df[["b", "nb"]], batch_format="pandas"),
        ["b"], sum_nb, num_buckets=num_buckets).map_batches(
        lambda df: df.rename(columns={"nb": "sb"}), batch_format="pandas")

    kept = bg.map_batches(
        lambda df: df[df["nb"] >= min_count], batch_format="pandas")
    j = hash_join(hash_join(kept, fa, on=["a"]), sb, on=["b"])

    def score(df: pd.DataFrame) -> pd.DataFrame:
        k11 = df["nb"].to_numpy(np.float64)
        fa_ = df["fa"].to_numpy(np.float64)
        sb_ = df["sb"].to_numpy(np.float64)
        k12 = fa_ - k11
        k21 = sb_ - k11
        k22 = TB - fa_ - sb_ + k11

        def xlx(kv, ev):
            return np.where(kv > 0, kv * np.log(
                np.where(kv > 0, kv, 1.0) / ev), 0.0)

        llr = 2.0 * (xlx(k11, fa_ * sb_ / TB)
                     + xlx(k12, fa_ * (TB - sb_) / TB)
                     + xlx(k21, (TB - fa_) * sb_ / TB)
                     + xlx(k22, (TB - fa_) * (TB - sb_) / TB))
        return pd.DataFrame({
            "bigram": (df["a"].astype(str) + " "
                       + df["b"].astype(str)).to_numpy(dtype=object),
            "n": df["nb"].to_numpy(np.int64),
            "llr": llr})

    scored = j.map_batches(score, batch_format="pandas")
    top = scored.sort(["llr", "bigram"], descending=[True, False]).limit(k)
    return top.map_batches(
        lambda df: df.assign(llr=df["llr"].round(6)),
        batch_format="pandas")
