"""Text analysis & LLM-curation: quality, lang-id, TF-IDF, filters, PII.

The ``QUERIES`` / ``ORACLES`` tables at the end register this family.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ...stages import relational as rel
from ...stages import textstats as ts
from ._shared import _rp


def q_token_count(sf_dir: str):
    """Text analysis: whitespace token count."""
    ds = _rp(sf_dir, "documents", ["doc_id", "text"])
    return ts.token_count_stage(ds, "text").select_columns(
        ["doc_id", "n_tokens"])


SQL_TOKEN_COUNT = """
SELECT doc_id,
       CASE WHEN trim(text) = '' OR text IS NULL THEN 0
            ELSE len(regexp_split_to_array(trim(text), '\\s+')) END AS n_tokens
FROM documents
"""


def q_bpe_token_count(sf_dir: str):
    """Text analysis: sub-word-ish token counting via the BPE-style
    regex (word runs | digit runs | single non-space symbol)."""
    ds = _rp(sf_dir, "documents", ["doc_id", "text"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": df["doc_id"].to_numpy(),
            "n_bpe": ts.bpe_token_count(df["text"]).astype("int64").to_numpy(),
        })

    return ds.map_batches(fn, batch_format="pandas")


SQL_BPE_TOKEN_COUNT = r"""
SELECT doc_id,
       len(regexp_extract_all(text, '[A-Za-z]+|\d+|[^\sA-Za-z\d]'))
         AS n_bpe
FROM documents
"""


_EN_STOPWORDS = ("the", "and", "of", "to", "in", "is", "that", "for",
                 "with", "as")


def q_stopword_ratio(sf_dir: str):
    """Text analysis: English stopword-hit ratio per document (the
    vectorized explode+isin kernel the language-ID stage uses, here
    pinned to a SQL oracle)."""
    ds = _rp(sf_dir, "documents", ["doc_id", "text"])
    stops = frozenset(_EN_STOPWORDS)

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        texts = df["text"].astype("string").fillna("").reset_index(drop=True)
        toks = texts.str.lower().str.split()
        ntok = toks.str.len().fillna(0).astype("int64")
        ex = toks.explode()
        hits = ex.isin(stops).groupby(level=0).sum() \
            .reindex(texts.index).fillna(0).astype("int64")
        ratio = (hits / ntok.clip(lower=1)).round(6)
        return pd.DataFrame({
            "doc_id": df["doc_id"].to_numpy(),
            "n_tokens": ntok.to_numpy(),
            "n_stop": hits.to_numpy(),
            "stop_ratio": ratio.to_numpy(),
        })

    return ds.map_batches(fn, batch_format="pandas")


SQL_STOPWORD_RATIO = r"""
WITH t AS (
  SELECT doc_id,
         CASE WHEN trim(coalesce(text, '')) = ''
              THEN CAST([] AS VARCHAR[])
              ELSE regexp_split_to_array(trim(lower(text)), '\s+') END
           AS toks
  FROM documents)
SELECT doc_id, len(toks) AS n_tokens,
       len(list_filter(toks, x -> x IN ('the','and','of','to','in','is',
                                        'that','for','with','as')))
         AS n_stop,
       round(CAST(len(list_filter(toks, x -> x IN ('the','and','of','to',
                     'in','is','that','for','with','as'))) AS DOUBLE)
             / greatest(len(toks), 1), 6) AS stop_ratio
FROM t
"""


def q_quality_stats(sf_dir: str):
    """Text analysis: quality-signal counts and ratios."""
    ds = _rp(sf_dir, "documents", ["doc_id", "text"])
    return ts.quality_stats_stage(ds, "text").select_columns(
        ["doc_id", "n_chars_calc", "n_alpha", "n_digit", "n_space",
         "n_punct", "alpha_ratio"])


SQL_QUALITY_STATS = """
SELECT doc_id,
       length(text) AS n_chars_calc,
       length(regexp_replace(text, '[^A-Za-z]', '', 'g')) AS n_alpha,
       length(regexp_replace(text, '[^0-9]', '', 'g')) AS n_digit,
       length(text) - length(regexp_replace(text, '\\s', '', 'g')) AS n_space,
       length(text)
         - length(regexp_replace(text, '[^A-Za-z]', '', 'g'))
         - length(regexp_replace(text, '[^0-9]', '', 'g'))
         - (length(text) - length(regexp_replace(text, '\\s', '', 'g')))
         AS n_punct,
       CAST(length(regexp_replace(text, '[^A-Za-z]', '', 'g')) AS DOUBLE)
         / greatest(length(text), 1) AS alpha_ratio
FROM documents
"""


def q_normalize_text(sf_dir: str):
    """M5/M6: canonical text normalizer (gated transliteration +
    lowercase + strip non-word + trim) over the documents table."""
    from ...functions.textnorm import normalize_text_array

    ds = _rp(sf_dir, "documents", ["doc_id", "text"])

    def norm(t: pa.Table) -> pa.Table:
        return pa.table({"doc_id": t.column("doc_id"),
                         "normalized": normalize_text_array(t.column("text"))})

    return ds.map_batches(norm, batch_format="pyarrow")


# oracle valid for ASCII corpora (the transliteration branch is the
# identity there); non-ASCII semantics are pinned by unit tests instead
SQL_NORMALIZE_TEXT = r"""
SELECT doc_id,
       regexp_replace(
         regexp_replace(lower(text), '[^a-z0-9_[:space:]]', '', 'g'),
         '^[[:space:]]+|[[:space:]]+$', '', 'g') AS normalized
FROM documents
"""


def q_ngram_jaccard(sf_dir: str):
    """Token-set (n-gram, n=1) Jaccard dedup within the exact `source`
    blocking key."""
    from ...stages.dedup import ngram_jaccard_pairs

    ds = _rp(sf_dir, "documents", ["doc_id", "source", "text"])
    return ngram_jaccard_pairs(ds, "doc_id", "text", "source",
                               n=1, threshold=0.5)


SQL_NGRAM_JACCARD = r"""
WITH t AS (
  SELECT doc_id, source,
         list_distinct(regexp_split_to_array(trim(text), '\s+')) AS toks
  FROM documents)
SELECT a.doc_id AS id_a, b.doc_id AS id_b,
       round(CAST(len(list_intersect(a.toks, b.toks)) AS DOUBLE)
             / len(list_distinct(list_concat(a.toks, b.toks))), 6) AS jac
FROM t a JOIN t b ON a.source = b.source AND a.doc_id < b.doc_id
WHERE CAST(len(list_intersect(a.toks, b.toks)) AS DOUBLE)
      / len(list_distinct(list_concat(a.toks, b.toks))) >= 0.5
"""


def q_lang_id(sf_dir: str):
    """Heuristic language identification."""
    ds = _rp(sf_dir, "documents", ["doc_id", "text"])
    out = ds.map_batches(ts.LangIdStage, batch_format="pandas",
                         concurrency=(1, 4))
    return out.select_columns(["doc_id", "lang_pred", "lang_score"])


def _sql_lang_id() -> str:
    """Build the lang-id oracle from the same stopword tables the
    stage uses (single source of truth; dict order = tie-break
    order, matching pandas idxmax first-max)."""
    from ...stages.textstats import _STOPWORDS

    langs = list(_STOPWORDS)
    ratio_cols = ",\n    ".join(
        "len(list_filter(t, x -> list_contains([{words}], x)))"
        " / CAST(greatest(ntok, 1) AS DOUBLE) AS r_{lang}".format(
            words=", ".join(f"'{w}'" for w in sorted(_STOPWORDS[lang])),
            lang=lang)
        for lang in langs)
    best = "greatest({})".format(", ".join(f"r_{l}" for l in langs))
    cases = []
    for i, lang in enumerate(langs[:-1]):
        conds = " AND ".join(f"r_{lang} >= r_{other}"
                             for other in langs[i + 1:])
        cases.append(f"WHEN {conds} THEN '{lang}'")
    case_lang = ("CASE " + " ".join(cases) +
                 f" ELSE '{langs[-1]}' END")
    return f"""
WITH base AS (
  SELECT doc_id, text,
         regexp_split_to_array(trim(lower(coalesce(text, ''))),
                               '\\s+') AS t,
         CASE WHEN trim(coalesce(text, '')) = '' THEN 0
              ELSE len(regexp_split_to_array(
                     trim(lower(coalesce(text, ''))), '\\s+')) END AS ntok
  FROM documents
), r AS (
  SELECT doc_id, text, ntok,
    {ratio_cols}
  FROM base
), pick AS (
  SELECT doc_id, text, ntok, {best} AS best,
         {case_lang} AS best_lang
  FROM r
)
SELECT doc_id,
  CASE WHEN regexp_matches(coalesce(text, ''), '[一-鿿]')
         THEN 'zh'
       WHEN ntok = 0 OR best <= 0.02 THEN 'und'
       ELSE best_lang END AS lang_pred,
  CASE WHEN regexp_matches(coalesce(text, ''), '[一-鿿]')
         THEN 1.0
       WHEN ntok = 0 THEN 0.0
       ELSE round_even(best, 4) END AS lang_score
FROM pick
"""


SQL_LANG_ID = _sql_lang_id()


def _media_ds(sf_dir: str):
    """Documents re-cast as opaque media payloads (binary column +
    typed metadata) — the multimodal schema contract."""
    ds = _rp(sf_dir, "documents", ["doc_id", "text"])

    def to_media(t: pa.Table) -> pa.Table:
        ids = [f"m{v}" for v in t.column("doc_id").to_pylist()]
        payloads = [s.encode("utf-8") for s in t.column("text").to_pylist()]
        kinds = ["image" if i % 2 == 0 else "video"
                 for i in range(len(ids))]
        return pa.table({
            "media_id": pa.array(ids, pa.string()),
            "kind": pa.array(kinds, pa.string()),
            "payload": pa.array(payloads, pa.binary()),
            "mime": pa.array(["application/octet-stream"] * len(ids),
                             pa.string()),
        })

    return ds.map_batches(to_media, batch_format="pyarrow")


def _png_media_ds(sf_dir: str, plant_dups: bool = False):
    """Documents re-cast as REAL image payloads in TWO container
    formats: a deterministic smooth grayscale field per doc_id (8x8
    seeded noise mean-upsampled — rich low-frequency content, what
    pHash keys on), encoded through the pure-stdlib PNG writer (the
    scanline filter varying by id so the decoder's None/Sub/Up paths
    all run) — except rows with ``doc_id % 4 in (1, 2)``, which ship
    the SAME pixels as a 24-bit BMP (``functions/bmp.py``), exercising
    the decode stage's magic-byte dispatch.  ``plant_dups`` re-emits
    every 50th image under "<id>dup" with small pixel noise in the
    OTHER container — dup sites are even ids, so ``id % 4 == 0`` sites
    plant PNG original -> BMP dup and ``id % 4 == 2`` sites plant BMP
    original -> PNG dup; multiples of 50 alternate between the two, so
    BOTH directions of the true CROSS-FORMAT near-duplicate (different
    bytes, different codec, visually identical) are generated and
    recovered by the pHash pin."""
    ds = _rp(sf_dir, "documents", ["doc_id"])

    def to_img(t: pa.Table) -> pa.Table:
        from ...functions.bmp import encode_bmp_rgb24
        from ...functions.png import encode_png_gray, resize_mean

        ids, payloads, mimes = [], [], []
        for did in t.column("doc_id").to_pylist():
            h = 48 + (did % 5) * 8
            w = 48 + (did % 7) * 8
            rng = np.random.default_rng((did * 2654435761) % (2 ** 32))
            field = resize_mean(rng.random((8, 8)), h, w)
            img = (field * 255).astype(np.uint8)
            ids.append(f"m{did}")
            if did % 4 in (1, 2):
                payloads.append(encode_bmp_rgb24(img))
                mimes.append("image/bmp")
            else:
                payloads.append(encode_png_gray(img, filter_type=did % 3))
                mimes.append("image/png")
            if plant_dups and did % 50 == 0:
                noisy = np.clip(
                    img.astype(np.int16)
                    + rng.integers(-2, 3, img.shape), 0, 255
                ).astype(np.uint8)
                ids.append(f"m{did}dup")
                if did % 4 == 2:   # BMP original -> PNG dup
                    payloads.append(
                        encode_png_gray(noisy, filter_type=(did + 1) % 3))
                    mimes.append("image/png")
                else:              # PNG original -> BMP dup
                    payloads.append(encode_bmp_rgb24(noisy))
                    mimes.append("image/bmp")
        return pa.table({
            "media_id": pa.array(ids, pa.string()),
            "kind": pa.array(["image"] * len(ids), pa.string()),
            "payload": pa.array(payloads, pa.binary()),
            "mime": pa.array(mimes, pa.string()),
        })

    return ds.map_batches(to_img, batch_format="pyarrow")


def q_media_decode(sf_dir: str):
    """Multimodal decode over REAL image bytes in two container
    formats: binary payload -> true width/height + features via the
    actor-pool stage with magic-byte dispatch across the pure-stdlib
    PNG and BMP codecs (``functions/png.py`` / ``functions/bmp.py``)
    — no fake backend in this path."""
    from ...stages.multimodal import decode_media

    out = decode_media(_png_media_ds(sf_dir), backend="image")
    return out.select_columns(["media_id", "kind", "n_bytes", "width",
                               "height", "decode_error"])


def q_frame_sample(sf_dir: str):
    """Multimodal frame sampling: explode payloads into frame rows.
    ORACLED (round-5): the fake backend's frame count is
    max(1, payload_bytes // 256) with every 10th frame sampled — the
    payload is the UTF-8 text, so the oracle derives the frame grid
    from strlen directly."""
    from ...stages.multimodal import frame_sample_stage

    out = frame_sample_stage(_media_ds(sf_dir), every_n=10)
    return out.select_columns(["media_id", "frame_idx"])


SQL_FRAME_SAMPLE = r"""
SELECT 'm' || CAST(doc_id AS VARCHAR) AS media_id,
       CAST(i AS INT) AS frame_idx
FROM (SELECT doc_id,
             greatest(1, strlen(coalesce(text, '')) // 256) AS nf
      FROM documents) d,
     unnest(range(0, CAST(d.nf AS BIGINT), 10)) AS t(i)
"""


def q_phash_dups(sf_dir: str):
    """Perceptual-hash near-duplicate pairs over REAL image payloads
    in two container formats, end-to-end real: magic-dispatched
    pure-stdlib PNG/BMP decode -> BT.601 grayscale -> mean-pool 32x32
    -> DCT-II pHash (8x8 low-frequency block, median threshold, 64
    bits) -> pigeonhole Hamming pair join on the 16-nibble hex hash
    (max_dist=2 nibbles).  The planted dups are TRUE CROSS-FORMAT
    near-duplicates: noise-perturbed pixels re-encoded into the OTHER
    container (PNG original -> BMP dup and vice versa), so payload
    bytes AND codec differ but the hash lands within a couple of bits
    — recovery pinned in test_multimodal.py."""
    from ...stages.multimodal import phash_media
    from ...stages.pairs import hamming_pairs

    hashed = phash_media(_png_media_ds(sf_dir, plant_dups=True),
                         backend="image")
    return hamming_pairs(hashed, "media_id", "phash", max_dist=2)


def q_top_tfidf(sf_dir: str):
    """Inverted-index / term-weighting composition: per-document top
    term (by integer tf, lexicographic tie-break) with its TF-IDF
    weight.  DF is one bucketed shuffle with in-batch combining; the
    winner is picked by ints so ranking is engine-reproducible."""
    return ts.top_tfidf_terms(_rp(sf_dir, "documents", ["doc_id", "text"]))


SQL_TOP_TFIDF = r"""
WITH toks AS (
  SELECT doc_id,
         unnest(regexp_split_to_array(trim(lower(text)), '\s+')) AS term
  FROM documents WHERE trim(coalesce(text, '')) <> ''
), tf AS (
  SELECT doc_id, term, count(*) AS tf FROM toks GROUP BY doc_id, term
), df AS (
  SELECT term, count(DISTINCT doc_id) AS df_n FROM toks GROUP BY term
), n AS (
  SELECT count(*) AS n_docs FROM documents
  WHERE trim(coalesce(text, '')) <> ''
), ranked AS (
  SELECT tf.doc_id, tf.term, tf.tf, df.df_n,
         row_number() OVER (PARTITION BY tf.doc_id
                            ORDER BY tf.tf DESC, tf.term) AS rn
  FROM tf JOIN df USING (term)
)
SELECT doc_id, term AS top_term, tf, df_n,
       round(tf * ln((SELECT CAST(n_docs AS DOUBLE) FROM n) / df_n), 6)
         AS tfidf
FROM ranked WHERE rn = 1
"""


def q_regex_extract(sf_dir: str):
    """M3 variant: vectorized regex capture over document text (first
    integer token; '' when absent, matching SQL regexp_extract)."""
    docs = _rp(sf_dir, "documents", ["doc_id", "text"])

    def ext(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": df["doc_id"],
            "first_num": df["text"].str.extract(r"([0-9]+)", expand=False)
                                   .fillna(""),
        })

    return docs.map_batches(ext, batch_format="pandas")


SQL_REGEX_EXTRACT = """
SELECT doc_id, regexp_extract(text, '[0-9]+') AS first_num FROM documents
"""


def q_keyword_search(sf_dir: str):
    """P3-search slot: term-frequency ranked keyword search — top 20
    documents by exact-token hits for 'filter' (vectorized explode +
    equality, no per-row loop; tie-break by doc_id)."""
    ds = _rp(sf_dir, "documents", ["doc_id", "text"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        texts = df["text"].astype("string").fillna("").reset_index(drop=True)
        toks = texts.str.lower().str.split()
        ex = toks.explode()
        hits = (ex == "filter").groupby(level=0).sum() \
            .reindex(texts.index).fillna(0).astype("int64")
        out = pd.DataFrame({"doc_id": df["doc_id"].to_numpy(),
                            "hits": hits.to_numpy()})
        return out[out["hits"] > 0]

    return ds.map_batches(fn, batch_format="pandas").sort(
        ["hits", "doc_id"], descending=[True, False]).limit(20)


SQL_KEYWORD_SEARCH = r"""
WITH t AS (
  SELECT doc_id,
         regexp_split_to_array(trim(lower(text)), '\s+') AS toks
  FROM documents WHERE trim(coalesce(text, '')) <> ''
)
SELECT doc_id, len(list_filter(toks, x -> x = 'filter')) AS hits
FROM t
WHERE len(list_filter(toks, x -> x = 'filter')) > 0
ORDER BY hits DESC, doc_id
LIMIT 20
"""


def q_ngram_top(sf_dir: str):
    """Corpus-wide top-20 bigrams: per-batch partial counts (combiner
    — bigrams repeat heavily within a batch), ONE bucketed shuffle on
    the bigram key, global sort + limit.  The 100 TB plan for n-gram
    language-model statistics."""
    from ...stages.shuffle import bucketed_map_groups

    ds = _rp(sf_dir, "documents", ["text"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        texts = df["text"].astype("string").fillna("").reset_index(drop=True)
        toks = texts.str.lower().str.split()
        ex = toks.explode().dropna()
        if ex.empty:
            return pd.DataFrame({"bigram": pd.Series([], dtype=object),
                                 "n": pd.Series([], dtype="int64")})
        doc_idx = ex.index.to_numpy()
        vals = ex.to_numpy(dtype=object)
        same_doc = doc_idx[:-1] == doc_idx[1:]
        big = np.char.add(np.char.add(vals[:-1].astype(str), " "),
                          vals[1:].astype(str))[same_doc]
        c = pd.Series(big).value_counts(sort=False)
        return pd.DataFrame({"bigram": c.index.to_numpy(dtype=object),
                             "n": c.to_numpy()})

    partials = ds.map_batches(partial, batch_format="pandas")

    def total(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("bigram", sort=False)["n"].sum()
        return g.reset_index()

    sums = bucketed_map_groups(partials, ["bigram"], total, num_buckets=32)
    return sums.sort(["n", "bigram"], descending=[True, False]).limit(20)


SQL_NGRAM_TOP = r"""
WITH t AS (
  SELECT regexp_split_to_array(trim(lower(text)), '\s+') AS toks
  FROM documents WHERE trim(coalesce(text, '')) <> ''
), pos AS (
  SELECT toks, unnest(generate_series(1, len(toks) - 1)) AS i
  FROM t WHERE len(toks) >= 2
)
SELECT toks[i] || ' ' || toks[i+1] AS bigram, count(*) AS n
FROM pos GROUP BY bigram
ORDER BY n DESC, bigram
LIMIT 20
"""


_BM25_TERMS = ("filter", "merge")
_BM25_K1, _BM25_B = 1.2, 0.75


def q_bm25_search(sf_dir: str):
    """BM25-ranked keyword search (Robertson & Walker 1994; the
    Lucene idf variant ln(1 + (N - df + 0.5)/(df + 0.5))) for the
    two-term query 'filter merge': top 20 docs by summed term score.

    The 100 TB plan: per-doc term stats (dl, tf per query term) are a
    NARROW map materialized once (3 ints/doc — the kmeans narrow-
    projection discipline, so the text is read exactly once); corpus
    scalars (N, avgdl, df per term) come from a one-row-per-batch
    combiner partial (no shuffle — the query has a bounded term count,
    so stats are O(terms), the contrast to raw-vocab top_tfidf);
    scoring is map-only over the narrow stats with per-batch partial
    top-k, so the final sort sees <= 20 x batches rows.  The float
    expression (idf * tf*(k1+1) / (tf + k1*(1 - b + b*dl/avgdl)),
    summed in term order) is mirrored in the SQL oracle bit-for-bit
    (both sides round to 6 decimals)."""
    ds = _rp(sf_dir, "documents", ["doc_id", "text"])
    k1, b = _BM25_K1, _BM25_B
    t1, t2 = _BM25_TERMS

    def stats(df: pd.DataFrame) -> pd.DataFrame:
        texts = df["text"].astype("string").fillna("").str.strip()
        keep = texts != ""
        texts = texts[keep].str.lower().reset_index(drop=True)
        ids = df["doc_id"][keep.to_numpy()].reset_index(drop=True)
        toks = texts.str.split()
        ex = toks.explode()
        dl = toks.str.len().fillna(0).astype("int64")
        tf1 = (ex == t1).groupby(level=0).sum().reindex(
            texts.index, fill_value=0).astype("int64")
        tf2 = (ex == t2).groupby(level=0).sum().reindex(
            texts.index, fill_value=0).astype("int64")
        return pd.DataFrame({"doc_id": ids.to_numpy(),
                             "dl": dl.to_numpy(),
                             "tf1": tf1.to_numpy(), "tf2": tf2.to_numpy()})

    narrow = ds.map_batches(stats, batch_format="pandas").materialize()

    def corpus_partial(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "n": [len(df)], "sum_dl": [int(df["dl"].sum())],
            "df1": [int((df["tf1"] > 0).sum())],
            "df2": [int((df["tf2"] > 0).sum())]})

    parts = narrow.map_batches(
        corpus_partial, batch_format="pandas").to_pandas()
    n = float(parts["n"].sum())
    avgdl = float(parts["sum_dl"].sum()) / n
    idf = [float(np.log(1.0 + (n - d + 0.5) / (d + 0.5)))
           for d in (parts["df1"].sum(), parts["df2"].sum())]

    def score(df: pd.DataFrame) -> pd.DataFrame:
        dl = df["dl"].to_numpy(dtype=np.float64)
        norm = k1 * (1.0 - b + b * dl / avgdl)
        s = np.zeros(len(df))
        for w, col in zip(idf, ("tf1", "tf2")):
            tf = df[col].to_numpy(dtype=np.float64)
            s = s + w * (tf * (k1 + 1.0)) / (tf + norm)
        # round-6 BEFORE the sort so the top-20 cut is decided on the
        # same values in both engines (numpy/DuckDB ln differ by 1 ULP)
        out = pd.DataFrame({"doc_id": df["doc_id"].to_numpy(),
                            "bm25": np.round(s, 6)})
        out = out[out["bm25"] > 0.0]
        # partial top-k: only each batch's best 20 reach the sort
        return out.sort_values(["bm25", "doc_id"],
                               ascending=[False, True]).head(20)

    return narrow.map_batches(score, batch_format="pandas").sort(
        ["bm25", "doc_id"], descending=[True, False]).limit(20)


SQL_BM25_SEARCH = r"""
WITH t AS (
  SELECT doc_id, regexp_split_to_array(trim(lower(text)), '\s+') AS toks
  FROM documents WHERE trim(coalesce(text, '')) <> ''
), s AS (
  SELECT doc_id, len(toks) AS dl,
         len(list_filter(toks, x -> x = 'filter')) AS tf1,
         len(list_filter(toks, x -> x = 'merge')) AS tf2
  FROM t
), g AS (
  SELECT CAST(count(*) AS DOUBLE) AS n,
         CAST(sum(dl) AS DOUBLE) / count(*) AS avgdl,
         CAST(sum(CASE WHEN tf1 > 0 THEN 1 ELSE 0 END) AS DOUBLE) AS df1,
         CAST(sum(CASE WHEN tf2 > 0 THEN 1 ELSE 0 END) AS DOUBLE) AS df2
  FROM s
), sc AS (
  SELECT s.doc_id,
         round(
         ln(1.0 + (g.n - g.df1 + 0.5) / (g.df1 + 0.5))
           * (s.tf1 * 2.2) / (s.tf1 + 1.2 * (0.25 + 0.75 * s.dl / g.avgdl))
         + ln(1.0 + (g.n - g.df2 + 0.5) / (g.df2 + 0.5))
           * (s.tf2 * 2.2) / (s.tf2 + 1.2 * (0.25 + 0.75 * s.dl / g.avgdl))
         , 6) AS bm25
  FROM s, g
)
SELECT doc_id, bm25 FROM sc WHERE bm25 > 0.0
ORDER BY bm25 DESC, doc_id
LIMIT 20
"""


def q_gopher_filter(sf_dir: str):
    """Gopher quality-rule filter (Rae et al. 2021 App. A1.1): per-doc
    rule signals — word count, mean word length, alpha-word fraction,
    stop-word hits, symbol-to-word ratio — and the composite pass
    decision (word count in [25, 100k] — floor scaled from the paper's
    50 for the short synthetic docs — mean word length in [3, 10],
    alpha fraction >= 0.8, symbol ratio <= 0.1, >= 2 distinct stop
    words from an adapted {the, a, of} list).  Map-only, fully
    vectorized (explode + level-0 groupbys per batch), no shuffle at
    any scale — the canonical cheap-signal gate that runs BEFORE the
    expensive dedup stages in a web-corpus curation DAG."""
    ds = _rp(sf_dir, "documents", ["doc_id", "text"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        texts = df["text"].astype("string").fillna("").str.strip()
        keep = texts != ""
        texts = texts[keep].str.lower().reset_index(drop=True)
        ids = df["doc_id"][keep.to_numpy()].reset_index(drop=True)
        toks = texts.str.split()
        n = toks.str.len().fillna(0).to_numpy(dtype=np.int64)
        ex = toks.explode()
        idx = texts.index
        total = (ex.str.len().groupby(level=0).sum()
                 .reindex(idx, fill_value=0).to_numpy(dtype=np.float64))
        nn = np.maximum(n, 1)
        mwl = np.round(total / nn, 6)
        n_alpha = (ex.str.contains("[a-z]", regex=True)
                   .groupby(level=0).sum()
                   .reindex(idx, fill_value=0).to_numpy(dtype=np.float64))
        alpha_frac = np.round(n_alpha / nn, 6)
        n_stop = np.zeros(len(texts), dtype=np.int64)
        for w in ("the", "a", "of"):
            n_stop += ((ex == w).groupby(level=0).any()
                       .reindex(idx, fill_value=False)
                       .to_numpy().astype(np.int64))
        n_sym = ((ex.str.startswith("#") | ex.str.contains("...",
                                                           regex=False))
                 .groupby(level=0).sum()
                 .reindex(idx, fill_value=0).to_numpy(dtype=np.float64))
        sym_ratio = np.round(n_sym / nn, 6)
        passes = ((n >= 25) & (n <= 100000) & (mwl >= 3.0) & (mwl <= 10.0)
                  & (alpha_frac >= 0.8) & (sym_ratio <= 0.1)
                  & (n_stop >= 2))
        return pd.DataFrame({
            "doc_id": ids.to_numpy(), "n_words": n, "mean_word_len": mwl,
            "alpha_frac": alpha_frac, "n_stop": n_stop, "passes": passes})

    return ds.map_batches(fn, batch_format="pandas")


SQL_GOPHER_FILTER = r"""
WITH t AS (
  SELECT doc_id, regexp_split_to_array(trim(lower(text)), '\s+') AS toks
  FROM documents WHERE trim(coalesce(text, '')) <> ''
), s AS (
  SELECT doc_id, len(toks) AS n_words,
         round(list_sum(list_transform(toks,
               x -> CAST(length(x) AS DOUBLE))) / len(toks), 6)
           AS mean_word_len,
         round(CAST(len(list_filter(toks,
               x -> regexp_matches(x, '[a-z]'))) AS DOUBLE) / len(toks), 6)
           AS alpha_frac,
         CAST(list_contains(toks, 'the') AS INT)
           + CAST(list_contains(toks, 'a') AS INT)
           + CAST(list_contains(toks, 'of') AS INT) AS n_stop,
         round(CAST(len(list_filter(toks,
               x -> starts_with(x, '#') OR contains(x, '...')))
               AS DOUBLE) / len(toks), 6) AS sym_ratio
  FROM t
)
SELECT doc_id, n_words, mean_word_len, alpha_frac, n_stop,
       (n_words BETWEEN 25 AND 100000
        AND mean_word_len BETWEEN 3.0 AND 10.0
        AND alpha_frac >= 0.8 AND sym_ratio <= 0.1
        AND n_stop >= 2) AS passes
FROM s
"""


def q_repetition_ratio(sf_dir: str):
    """Gopher-style intra-document repetition filter: per-doc duplicate
    word fraction (1 - distinct/total tokens) and duplicate bigram
    fraction — the standard "remove boilerplate/spam" quality signal
    for LLM training corpora.  Map-only (each doc's ratio is computed
    entirely within its own row), fully vectorized: one explode +
    drop_duplicates pass per batch, no shuffle at any scale."""
    ds = _rp(sf_dir, "documents", ["doc_id", "text"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        texts = df["text"].astype("string").fillna("").str.strip()
        keep = texts != ""
        texts = texts[keep].str.lower().reset_index(drop=True)
        ids = df["doc_id"][keep.to_numpy()].reset_index(drop=True)
        toks = texts.str.split()
        n_tok = toks.str.len().to_numpy(dtype=np.int64)
        ex = toks.explode()
        pairs = pd.DataFrame({"row": ex.index.to_numpy(),
                              "tok": ex.to_numpy()})
        d_tok = (pairs.drop_duplicates().groupby("row", sort=False).size()
                 .reindex(range(len(texts)), fill_value=0).to_numpy())
        # bigrams: join each token with its successor within the row
        nxt = pairs["tok"].shift(-1)
        same_row = pairs["row"].to_numpy()[1:] == pairs["row"].to_numpy()[:-1]
        bg = pd.DataFrame({
            "row": pairs["row"].to_numpy()[:-1][same_row],
            "bg": (pairs["tok"].astype(str) + " " + nxt.astype(str))
            .to_numpy()[:-1][same_row],
        })
        n_bg = np.maximum(n_tok - 1, 0)
        d_bg = (bg.drop_duplicates().groupby("row", sort=False).size()
                .reindex(range(len(texts)), fill_value=0).to_numpy())
        dup_word = np.where(n_tok > 0, 1.0 - d_tok / np.maximum(n_tok, 1),
                            0.0)
        dup_bg = np.where(n_bg > 0, 1.0 - d_bg / np.maximum(n_bg, 1), 0.0)
        return pd.DataFrame({
            "doc_id": ids.to_numpy(),
            "dup_word_ratio": dup_word.round(6),
            "dup_bigram_ratio": dup_bg.round(6),
        })

    return ds.map_batches(fn, batch_format="pandas")


SQL_REPETITION_RATIO = r"""
WITH t AS (
  SELECT doc_id, regexp_split_to_array(trim(lower(text)), '\s+') AS toks
  FROM documents WHERE trim(coalesce(text, '')) <> ''
), w AS (
  SELECT doc_id, len(toks) AS n_tok,
         count(DISTINCT tok) AS d_tok
  FROM t, unnest(toks) AS u(tok) GROUP BY doc_id, len(toks)
), pos AS (
  SELECT doc_id, toks, unnest(generate_series(1, len(toks) - 1)) AS i
  FROM t WHERE len(toks) >= 2
), b AS (
  SELECT doc_id, count(*) AS n_bg,
         count(DISTINCT toks[i] || ' ' || toks[i+1]) AS d_bg
  FROM pos GROUP BY doc_id
)
SELECT w.doc_id,
       round(1.0 - d_tok / n_tok, 6) AS dup_word_ratio,
       coalesce(round(1.0 - d_bg / n_bg, 6), 0.0) AS dup_bigram_ratio
FROM w LEFT JOIN b ON w.doc_id = b.doc_id
"""


def q_pii_redact(sf_dir: str):
    """PII detection + redaction — the standard pre-training scrub
    (emails, IPv4 addresses, phone-shaped numbers).  Map-only and RE2
    end-to-end: counts via pc.count_substring_regex and redaction via
    pc.replace_substring_regex, the same regex engine DuckDB uses, so
    the oracle matches bit-for-bit.  The synthetic corpus contains no
    natural PII, so both sides enrich the text with PII deterministically
    derived from doc_id (documented fixture enrichment); the detection/
    redaction machinery itself is implemented independently per side."""
    ds = _rp(sf_dir, "documents", ["doc_id", "text"])

    pat_email = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
    pat_ip = r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b"
    pat_phone = r"\b\d{3}-\d{3}-\d{4}\b"

    def fn(t: pa.Table) -> pa.Table:
        did = t.column("doc_id").to_numpy(zero_copy_only=False)
        base = pd.Series(t.column("text").to_pandas()).fillna("")
        scan = (base + " contact u" + pd.Series(did.astype(str))
                + "@ex" + pd.Series((did % 7).astype(str)) + ".org ip 10."
                + pd.Series((did % 250).astype(str)) + "."
                + pd.Series((did % 199).astype(str)) + "."
                + pd.Series((did % 97).astype(str)) + " tel 555-"
                + pd.Series((did % 1000).astype(str)).str.zfill(3) + "-"
                + pd.Series((did % 10000).astype(str)).str.zfill(4))
        arr = pa.array(scan, type=pa.string())
        n_email = pc.count_substring_regex(arr, pat_email)
        n_ip = pc.count_substring_regex(arr, pat_ip)
        n_phone = pc.count_substring_regex(arr, pat_phone)
        red = pc.replace_substring_regex(arr, pat_email, "<EMAIL>")
        red = pc.replace_substring_regex(red, pat_ip, "<IP>")
        red = pc.replace_substring_regex(red, pat_phone, "<PHONE>")
        return pa.table({
            "doc_id": t.column("doc_id"),
            "n_email": pc.cast(n_email, pa.int64()),
            "n_ip": pc.cast(n_ip, pa.int64()),
            "n_phone": pc.cast(n_phone, pa.int64()),
            "redacted": red,
        })

    return ds.map_batches(fn, batch_format="pyarrow")


SQL_PII_REDACT = r"""
WITH s AS (
  SELECT doc_id,
         coalesce(text, '') || ' contact u' || doc_id || '@ex'
           || (doc_id % 7) || '.org ip 10.' || (doc_id % 250) || '.'
           || (doc_id % 199) || '.' || (doc_id % 97) || ' tel 555-'
           || lpad(CAST(doc_id % 1000 AS VARCHAR), 3, '0') || '-'
           || lpad(CAST(doc_id % 10000 AS VARCHAR), 4, '0') AS scan
  FROM documents
)
SELECT doc_id,
       len(regexp_extract_all(scan,
           '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}')) AS n_email,
       len(regexp_extract_all(scan,
           '\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b')) AS n_ip,
       len(regexp_extract_all(scan, '\b\d{3}-\d{3}-\d{4}\b')) AS n_phone,
       regexp_replace(regexp_replace(regexp_replace(scan,
           '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}', '<EMAIL>', 'g'),
           '\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b', '<IP>', 'g'),
           '\b\d{3}-\d{3}-\d{4}\b', '<PHONE>', 'g') AS redacted
FROM s
"""


def q_decontaminate(sf_dir: str):
    """Benchmark decontamination — the GPT-3-style n-gram overlap
    check: any document sharing a word 3-gram with the held-out
    benchmark set is flagged.  Docs with doc_id % 97 == 0 stand in for
    the benchmark.  The 100-TB shape: eval sets are tiny relative to
    the corpus, so the benchmark's distinct n-gram set is built once
    (a filtered pass over a pruned projection) and broadcast via
    ``ray.put``; the corpus pass is then map-only — one vectorized
    explode + isin per batch, no shuffle of the big side ever."""
    import ray as _ray

    n = 3

    def doc_ngrams(df: pd.DataFrame) -> pd.DataFrame:
        texts = df["text"].astype("string").fillna("").str.strip()
        keep = texts != ""
        texts = texts[keep].str.lower().reset_index(drop=True)
        ids = df["doc_id"][keep.to_numpy()].reset_index(drop=True)
        toks = texts.str.split()
        ex = toks.explode()
        rows = ex.index.to_numpy()
        words = ex.astype(str).to_numpy()
        if len(words) < n:
            return pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                                 "ngram": pd.Series([], dtype="string")})
        same = np.ones(len(words) - (n - 1), dtype=bool)
        for off in range(1, n):
            same &= rows[off:len(rows) - (n - 1) + off] == \
                rows[:len(rows) - (n - 1)]
        grams = words[:-(n - 1)].astype(object)
        for off in range(1, n):
            grams = grams + " " + words[off:len(words) - (n - 1) + off]
        out = pd.DataFrame({
            "doc_id": ids.to_numpy()[rows[:-(n - 1)][same]],
            "ngram": grams[same],
        })
        return out.drop_duplicates()

    bench = (_rp(sf_dir, "documents", ["doc_id", "text"])
             .map_batches(lambda df: df[df["doc_id"] % 97 == 0],
                          batch_format="pandas")
             .map_batches(doc_ngrams, batch_format="pandas"))
    bench_set = set()
    for b in bench.iter_batches(batch_format="pandas"):
        bench_set.update(b["ngram"].tolist())
    bench_ref = _ray.put(np.asarray(sorted(bench_set), dtype=object))

    def flag(df: pd.DataFrame) -> pd.DataFrame:
        grams = doc_ngrams(df)
        bset = _ray.get(bench_ref)
        hit = grams[grams["ngram"].isin(bset)]
        out = (hit.groupby("doc_id", sort=False).size()
               .rename("n_hit").reset_index())
        out["n_hit"] = out["n_hit"].astype("int64")
        return out

    ds = _rp(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(flag, batch_format="pandas")


SQL_DECONTAMINATE = r"""
WITH t AS (
  SELECT doc_id, regexp_split_to_array(trim(lower(text)), '\s+') AS toks
  FROM documents WHERE trim(coalesce(text, '')) <> ''
), g AS (
  SELECT DISTINCT doc_id,
         toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2] AS ngram
  FROM t, unnest(generate_series(1, len(toks) - 2)) AS u(i)
  WHERE len(toks) >= 3
), bench AS (
  SELECT DISTINCT ngram FROM g WHERE doc_id % 97 = 0
)
SELECT g.doc_id, count(*) AS n_hit
FROM g JOIN bench USING (ngram)
GROUP BY g.doc_id
"""


def q_unigram_logprob(sf_dir: str):
    """CCNet-style LM quality score: per-doc mean negative log-prob
    under an add-one unigram model trained on the doc_id%10==0 slice."""
    from ...stages.textstats import unigram_logprob

    ds = _rp(sf_dir, "documents", ["doc_id", "text"])
    return unigram_logprob(ds, "doc_id", "text", ref_mod=10)


SQL_UNIGRAM_LOGPROB = r"""
WITH toks AS (
  SELECT doc_id,
         unnest(regexp_split_to_array(trim(lower(text)), '\s+')) AS term
  FROM documents WHERE trim(coalesce(text, '')) <> ''),
ref AS (
  SELECT term, count(*) AS cnt FROM toks WHERE doc_id % 10 = 0
  GROUP BY term),
tot AS (
  SELECT CAST(coalesce(sum(cnt), 0) AS DOUBLE)
         + CAST(count(*) AS DOUBLE) + 1.0 AS denom
  FROM ref)
SELECT doc_id, CAST(count(*) AS BIGINT) AS n_tok,
       round(-avg(ln((coalesce(cnt, 0) + 1.0) / denom)), 6) AS nll
FROM toks LEFT JOIN ref USING (term), tot
GROUP BY doc_id
"""


def q_mixture_resample(sf_dir: str):
    """Domain-mixture resampling: per-language epoch weights, rows
    repeated floor(w + hash-uniform) times with an epoch index."""
    from ...stages.sketch import mixture_resample

    ds = _rp(sf_dir, "documents", ["doc_id", "lang"])
    return mixture_resample(ds, "lang", "doc_id",
                            {"en": 0.5, "zh": 2.3, "es": 1.0,
                             "de": 1.7, "fr": 0.2})


SQL_MIXTURE_RESAMPLE = """
WITH w(lang, wt) AS (VALUES ('en', 0.5), ('zh', 2.3), ('es', 1.0),
                            ('de', 1.7), ('fr', 0.2)),
b AS (
  SELECT doc_id, d.lang,
         CAST(floor(coalesce(wt, 1.0)
              + hash(CAST(doc_id AS VARCHAR))
                / 18446744073709551616.0) AS BIGINT) AS n
  FROM documents d LEFT JOIN w USING (lang))
SELECT doc_id, lang, CAST(g AS BIGINT) AS epoch
FROM b, unnest(generate_series(1, n)) AS u(g)
WHERE n > 0
"""


def q_rare_collapse(sf_dir: str):
    """Rare-category collapse over a deterministically skewed
    categorical (digit-length of a DuckDB-parity hash gives geometric
    category sizes): categories under 5% of rows fold into 'OTHER'
    (stages/relational.py::rare_collapse — combiner counts, broadcast
    rare set, map-only data pass)."""
    from ...functions.similarity import hash_strings_fast
    from ...stages.relational import rare_collapse

    ds = _rp(sf_dir, "part", ["p_partkey"])

    def derive(df: pd.DataFrame) -> pd.DataFrame:
        keys = df["p_partkey"].to_numpy(np.int64)
        h = hash_strings_fast([str(k) for k in keys]) \
            % np.uint64(100000)
        cat = np.char.add("c", np.char.str_len(
            h.astype("U6")).astype("U1"))
        return pd.DataFrame({"p_partkey": keys, "cat": cat})

    return rare_collapse(ds.map_batches(derive, batch_format="pandas"),
                         "cat", min_frac=0.05)


SQL_RARE_COLLAPSE = """
WITH d AS (
  SELECT p_partkey,
         'c' || CAST(length(CAST(hash(CAST(p_partkey AS VARCHAR))
                                 % 100000 AS VARCHAR)) AS VARCHAR)
             AS cat
  FROM part),
c AS (SELECT cat, count(*) AS n FROM d GROUP BY 1),
t AS (SELECT count(*) AS tot FROM d)
SELECT d.p_partkey, d.cat,
       CASE WHEN c.n < 0.05 * t.tot THEN 'OTHER' ELSE d.cat END
           AS cat_collapsed
FROM d JOIN c USING (cat) CROSS JOIN t
"""


def q_group_entropy(sf_dir: str):
    """Per-user Shannon entropy (base 2) of the event-type
    distribution plus group size — the behavioral-diversity signal
    (stages/relational.py::group_entropy; count partials, one
    co-location shuffle of the counts, round-6 float parity)."""
    from ...stages.relational import group_entropy

    events = _rp(sf_dir, "events", ["user_id", "event_type"])
    return group_entropy(events, "user_id", "event_type")


SQL_GROUP_ENTROPY = """
WITH c AS (SELECT user_id, event_type, count(*) AS n
           FROM events GROUP BY 1, 2),
t AS (SELECT user_id, sum(n) AS tot FROM c GROUP BY 1)
SELECT c.user_id,
       round(-sum((n / tot) * log2(n / tot)), 6) AS entropy,
       CAST(t.tot AS BIGINT) AS n_events
FROM c JOIN t USING (user_id)
GROUP BY c.user_id, t.tot
"""


def q_pmi_bigrams(sf_dir: str):
    """Top-20 bigram collocations by pointwise mutual information
    (Church & Hanks 1990; min bigram count 5) — unigram/bigram count
    cells via the ngram_top combiner, token-keyed hash-join
    hydration (vocabulary never broadcast), PMI float expression
    mirrored in the SQL oracle (stages/textstats.py::pmi_bigrams)."""
    from ...stages.textstats import pmi_bigrams

    return pmi_bigrams(_rp(sf_dir, "documents", ["text"]),
                       text_col="text", min_count=5, k=20)


SQL_PMI_BIGRAMS = r"""
WITH t AS (
  SELECT regexp_split_to_array(trim(lower(text)), '\s+') AS toks
  FROM documents WHERE trim(coalesce(text, '')) <> ''
), uni AS (SELECT unnest(toks) AS tok FROM t),
ucnt AS (SELECT tok, count(*) AS nu FROM uni GROUP BY 1),
tot AS (SELECT CAST(count(*) AS DOUBLE) AS T FROM uni),
pos AS (SELECT toks, unnest(generate_series(1, len(toks) - 1)) AS i
        FROM t WHERE len(toks) >= 2),
bg AS (SELECT toks[i] AS a, toks[i+1] AS b, count(*) AS nb
       FROM pos GROUP BY 1, 2),
btot AS (SELECT CAST(sum(nb) AS DOUBLE) AS TB FROM bg)
SELECT a || ' ' || b AS bigram, CAST(nb AS BIGINT) AS n,
       round(log2((CAST(nb AS DOUBLE) / TB)
                  / ((ua.nu / T) * (ub.nu / T))), 6) AS pmi
FROM bg
JOIN ucnt ua ON ua.tok = bg.a
JOIN ucnt ub ON ub.tok = bg.b
CROSS JOIN tot CROSS JOIN btot
WHERE nb >= 5
ORDER BY log2((CAST(nb AS DOUBLE) / TB)
              / ((ua.nu / T) * (ub.nu / T))) DESC, bigram
LIMIT 20
"""


def q_vocab_stats(sf_dir: str):
    """Corpus vocabulary audit: total/distinct/hapax token counts,
    max term frequency, type-token ratio (stages/textstats.py::
    vocab_stats — one combiner pass, one cell shuffle, scalar
    partials)."""
    from ...stages.textstats import vocab_stats

    return vocab_stats(_rp(sf_dir, "documents", ["text"]))


SQL_VOCAB_STATS = r"""
WITH t AS (
  SELECT regexp_split_to_array(trim(lower(text)), '\s+') AS toks
  FROM documents WHERE trim(coalesce(text, '')) <> ''),
uni AS (SELECT unnest(toks) AS tok FROM t),
c AS (SELECT tok, count(*) AS n FROM uni GROUP BY 1)
SELECT CAST(sum(n) AS BIGINT) AS total_tokens,
       CAST(count(*) AS BIGINT) AS distinct_tokens,
       CAST(sum(CASE WHEN n = 1 THEN 1 ELSE 0 END) AS BIGINT)
           AS hapax_tokens,
       CAST(max(n) AS BIGINT) AS max_freq,
       round(count(*) / CAST(sum(n) AS DOUBLE), 6) AS type_token_ratio
FROM c
"""


def q_dsir_sample(sf_dir: str):
    """DSIR importance resampling (Xie et al. 2023, "Data Selection
    for Language Models via Importance Resampling"): hashed-unigram
    bag-of-words models for a TARGET distribution (docs from source
    'src0') and the RAW corpus, per-doc log importance weight
    sum(ln p_tgt(b) - ln p_raw(b)) over the doc's token buckets
    (hash % 8192, add-one smoothing), deterministic top-100 selection
    (weight desc, doc_id asc).

    The 10^12-doc shape: the hashing trick BOUNDS the feature space
    (V = 8192), so both models fit one driver combine
    (partial_groupby_agg over per-batch bucket counts — no shuffle of
    the data) and the log-ratio table broadcasts as one 64 KiB numpy
    array (ray.put once, zero-copy in every scoring task) — exactly
    the bounded-vocabulary contrast to raw-vocab TF-IDF, which must
    hash-join instead.  Scoring emits per-batch partial top-k, so the
    final sort sees <= 100 x batches rows."""
    import ray

    from ...functions.similarity import hash_strings_fast
    from ...stages.relational import partial_groupby_agg

    V = 8192
    ds = _rp(sf_dir, "documents", ["doc_id", "text", "source"])

    def count_partial(df: pd.DataFrame) -> pd.DataFrame:
        t = df["text"].astype("string").fillna("").str.strip()
        d = df[t != ""]
        if d.empty:
            return pd.DataFrame({"bk": pd.Series([], dtype="int64"),
                                 "n_raw": pd.Series([], dtype="int64"),
                                 "n_tgt": pd.Series([], dtype="int64")})
        toks = d["text"].astype("string").str.strip().str.split()
        ex = toks.explode()
        bk = (hash_strings_fast(ex.to_numpy(dtype=object)) % V).astype(
            np.int64)
        is_tgt = (d["source"].astype("string") == "src0").loc[
            ex.index].to_numpy(dtype=np.int64)
        g = pd.DataFrame({"bk": bk, "tgt": is_tgt}).groupby(
            "bk", sort=False)["tgt"]
        return pd.DataFrame({"bk": g.size().index.to_numpy(np.int64),
                             "n_raw": g.size().to_numpy(np.int64),
                             "n_tgt": g.sum().to_numpy(np.int64)})

    parts = ds.map_batches(count_partial, batch_format="pandas")
    counts = partial_groupby_agg(parts, ["bk"],
                                 {"n_raw": ("n_raw", "sum"),
                                  "n_tgt": ("n_tgt", "sum")})
    t_raw = int(counts["n_raw"].sum())
    t_tgt = int(counts["n_tgt"].sum())
    lw_full = np.zeros(V, dtype=np.float64)
    bks = counts["bk"].to_numpy(np.int64)
    lw_full[bks] = (
        np.log((counts["n_tgt"].to_numpy(np.float64) + 1.0) / (t_tgt + V))
        - np.log((counts["n_raw"].to_numpy(np.float64) + 1.0) / (t_raw + V)))
    lw_ref = ray.put(lw_full)

    def weigh(df: pd.DataFrame) -> pd.DataFrame:
        lw = ray.get(lw_ref)
        t = df["text"].astype("string").fillna("").str.strip()
        d = df[t != ""]
        if d.empty:
            return pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                                 "logw": pd.Series([], dtype="float64")})
        toks = d["text"].astype("string").str.strip().str.split()
        ntok = toks.str.len().to_numpy(np.int64)
        ex = toks.explode()
        bk = (hash_strings_fast(ex.to_numpy(dtype=object)) % V).astype(
            np.int64)
        offs = np.zeros(ntok.size, dtype=np.int64)
        np.cumsum(ntok[:-1], out=offs[1:])
        logw = np.round(np.add.reduceat(lw[bk], offs), 6)
        ids = d["doc_id"].to_numpy(np.int64)
        # per-batch partial top-k (weight desc, doc_id asc)
        order = np.lexsort((ids, -logw))[:100]
        return pd.DataFrame({"doc_id": ids[order], "logw": logw[order]})

    topk = ds.map_batches(weigh, batch_format="pandas")
    return topk.sort(["logw", "doc_id"],
                     descending=[True, False]).limit(100)


SQL_DSIR_SAMPLE = r"""
WITH d AS (
  SELECT doc_id, source, regexp_split_to_array(trim(text), '\s+') AS t
  FROM documents WHERE trim(coalesce(text, '')) <> ''
), tok AS (
  SELECT doc_id, source, unnest(t) AS tok FROM d
), b AS (
  SELECT doc_id, source, hash(tok) % 8192 AS bk FROM tok
), cnt AS (
  SELECT bk, count(*) AS n_raw,
         count(*) FILTER (WHERE source = 'src0') AS n_tgt
  FROM b GROUP BY bk
), tot AS (
  SELECT sum(n_raw) AS t_raw, sum(n_tgt) AS t_tgt FROM cnt
), lr AS (
  SELECT bk, ln((n_tgt + 1.0) / (t_tgt + 8192))
             - ln((n_raw + 1.0) / (t_raw + 8192)) AS lw
  FROM cnt, tot
), w AS (
  SELECT b.doc_id, round(sum(lr.lw), 6) AS logw
  FROM b JOIN lr USING (bk) GROUP BY b.doc_id
)
SELECT doc_id, logw FROM w ORDER BY logw DESC, doc_id LIMIT 100
"""


def q_ppl_bucket(sf_dir: str):
    """CCNet-style perplexity bucketing (Wenzek et al. 2020): score
    every doc under the reference-slice unigram LM (unigram_logprob's
    plan), split the corpus into head/middle/tail at the exact p25 /
    p75 nll quantiles, and report per-bucket doc counts + mean nll.
    The quantile thresholds here are the exact quantile_cont kernel
    (oracle-matched); at 10^12 docs the documented swap is the
    mergeable t-digest (quantile_sketch) — bucket BOUNDARIES are the
    only thing the sketch changes, the bucketing pass is identical."""
    from ...stages.temporal import quantile_agg
    from ...stages.textstats import unigram_logprob

    ds = _rp(sf_dir, "documents", ["doc_id", "text"])
    scored = unigram_logprob(ds, "doc_id", "text", ref_mod=10)
    scored = scored.materialize()

    qdf = quantile_agg(
        scored.map_batches(lambda df: df.assign(g=0),
                           batch_format="pandas"),
        ["g"], "nll", {"p25": 0.25, "p75": 0.75}).to_pandas()
    p25 = float(qdf["p25"].iloc[0])
    p75 = float(qdf["p75"].iloc[0])

    def bucket(df: pd.DataFrame) -> pd.DataFrame:
        nll = df["nll"].to_numpy(np.float64)
        lab = np.where(nll <= p25, "head",
                       np.where(nll <= p75, "middle", "tail"))
        return pd.DataFrame({"bucket": lab, "n_docs": 1, "s_nll": nll})

    cells = rel.partial_groupby_agg(
        scored.map_batches(bucket, batch_format="pandas"),
        ["bucket"], {"n_docs": (None, "count"), "s_nll": ("s_nll", "sum")})
    cells["avg_nll"] = (cells["s_nll"] / cells["n_docs"]).round(6)
    return cells[["bucket", "n_docs", "avg_nll"]]


SQL_PPL_BUCKET = r"""
WITH toks AS (
  SELECT doc_id,
         unnest(regexp_split_to_array(trim(lower(text)), '\s+')) AS term
  FROM documents WHERE trim(coalesce(text, '')) <> ''),
ref AS (
  SELECT term, count(*) AS cnt FROM toks WHERE doc_id % 10 = 0
  GROUP BY term),
tot AS (
  SELECT CAST(coalesce(sum(cnt), 0) AS DOUBLE)
         + CAST(count(*) AS DOUBLE) + 1.0 AS denom
  FROM ref),
scored AS (
  SELECT doc_id, round(-avg(ln((coalesce(cnt, 0) + 1.0) / denom)), 6) AS nll
  FROM toks LEFT JOIN ref USING (term), tot
  GROUP BY doc_id),
th AS (
  SELECT quantile_cont(nll, 0.25) AS p25, quantile_cont(nll, 0.75) AS p75
  FROM scored)
SELECT CASE WHEN nll <= p25 THEN 'head'
            WHEN nll <= p75 THEN 'middle' ELSE 'tail' END AS bucket,
       count(*) AS n_docs, round(avg(nll), 6) AS avg_nll
FROM scored, th
GROUP BY 1
"""


def q_tfidf_cosine_pairs(sf_dir: str):
    """Exact weighted all-pairs: part-name pairs with TF-IDF cosine
    >= 0.5 via the inverted-index posting join
    (stages/setsim.tfidf_cosine_pairs — Bayardo et al. 2007's
    weighted problem; prefix filter is the documented skew lever)."""
    from ...stages.setsim import tfidf_cosine_pairs

    parts = _rp(sf_dir, "part", ["p_partkey", "p_name"])
    return tfidf_cosine_pairs(parts, "p_partkey", "p_name",
                              threshold=0.5)


SQL_TFIDF_COSINE_PAIRS = """
WITH toks AS (
  SELECT p_partkey AS id, unnest(string_split(p_name, ' ')) AS tok
  FROM part),
tf AS (SELECT id, tok, count(*) AS tf FROM toks GROUP BY 1, 2),
nn AS (SELECT CAST(count(*) AS DOUBLE) AS n FROM part),
dfn AS (SELECT tok, CAST(count(DISTINCT id) AS DOUBLE) AS dfn
        FROM toks GROUP BY tok),
w AS (SELECT id, tok,
             ln(tf + 1.0) * ln(1.0 + (SELECT n FROM nn) / dfn) AS w
      FROM tf JOIN dfn USING (tok)),
nrm AS (SELECT id, sqrt(sum(w * w)) AS nrm FROM w GROUP BY id),
wn AS (SELECT id, tok, w / nrm AS wn FROM w JOIN nrm USING (id)),
pairs AS (
  SELECT a.id AS id_a, b.id AS id_b, sum(a.wn * b.wn) AS sim
  FROM wn a JOIN wn b ON b.tok = a.tok AND b.id > a.id
  GROUP BY 1, 2)
SELECT id_a, id_b, round(sim, 6) AS sim FROM pairs WHERE sim >= 0.5
"""


def q_phrase_search(sf_dir: str):
    """Positional phrase search (P3 family beyond bag-of-words): docs
    containing the exact token sequence 'the data', with occurrence
    counts — ref query_db search workflow, extended to phrase grain.

    The 100 TB shape: a phrase never spans rows, so the adjacency scan
    is MAP-ONLY — each batch explodes its token stream once (vectorized
    findall + explode), compares the stream against its own 1-shifted
    self under a same-row guard, and bincounts hits back to rows.  No
    shuffle, no index materialization, no driver state.  A persisted
    positional index would replace the batch scan with a postings probe
    but keeps the identical (pos, pos+1, same-doc) adjacency join."""
    ds = _rp(sf_dir, "documents", ["doc_id", "text"])
    w1, w2 = "the", "data"

    def scan(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                              "n_hits": pd.Series([], dtype="int64")})
        texts = (df["text"].astype("string").fillna("")
                 .str.lower().reset_index(drop=True))
        toks = texts.str.findall(r"[a-z0-9]+").explode().dropna()
        if len(toks) < 2:
            return empty
        row = toks.index.to_numpy(dtype=np.int64)
        val = toks.to_numpy(dtype=object)
        hit = ((val[:-1] == w1) & (val[1:] == w2)
               & (row[:-1] == row[1:]))
        n = np.bincount(row[:-1][hit], minlength=len(df))
        keep = n > 0
        if not keep.any():
            return empty
        return pd.DataFrame({"doc_id": df["doc_id"].to_numpy()[keep],
                             "n_hits": n[keep].astype(np.int64)})

    return ds.map_batches(scan, batch_format="pandas")


SQL_PHRASE_SEARCH = r"""
WITH t AS (
  SELECT doc_id,
         regexp_extract_all(lower(coalesce(text, '')), '[a-z0-9]+') AS toks
  FROM documents),
u AS (
  SELECT doc_id, unnest(toks) AS tok,
         generate_subscripts(toks, 1) AS pos
  FROM t)
SELECT a.doc_id, count(*) AS n_hits
FROM u a JOIN u b ON b.doc_id = a.doc_id AND b.pos = a.pos + 1
WHERE a.tok = 'the' AND b.tok = 'data'
GROUP BY 1
"""


def q_bpe_train(sf_dir: str):
    """BPE merge learning over the document corpus (Sennrich et al.
    2016) — 8 merge rounds on the distinct-word vocab after ONE
    corpus word-count shuffle; each round is a shuffle-free pair-stats
    combiner + driver argmax (deterministic lexicographic tie-break) +
    vectorized vocab-wide regex merge (stages/bpe.py::learn_bpe).
    ORACLED (round-5, upgraded from rows-only): the rounds unroll as
    chained MATERIALIZED CTEs with python's non-overlapping
    left-to-right merge reproduced by run-parity window logic (RE2 has
    no lookbehind).  Also pinned against an independent pure-dict
    sequential trainer in tests/test_bpe.py."""
    from ...stages.bpe import learn_bpe

    docs = _rp(sf_dir, "documents", ["text"])
    return learn_bpe(docs, "text", n_merges=8)


def _bpe_sql(n_merges: int = 8) -> str:
    """Exact SQL twin of stages/bpe.learn_bpe: per round a weighted
    adjacent-pair count over the carried symbol arrays, the
    (count DESC, left, right) argmax, and the NON-OVERLAPPING
    left-to-right merge — python's regex scan-resume semantics
    reproduced lookaround-free by run-parity window logic (within a
    maximal run of consecutive eligible positions, merges start at
    even offsets and the following symbol is consumed)."""
    head = r"""WITH
wc AS MATERIALIZED (
  SELECT tok AS word, CAST(count(*) AS BIGINT) AS n FROM (
    SELECT unnest(regexp_extract_all(lower(coalesce(text, '')),
                                     '[a-z0-9]+')) AS tok
    FROM documents) GROUP BY 1),
v0 AS MATERIALIZED (
  SELECT word, n,
         list_append(regexp_split_to_array(word, ''), '</w>') AS arr
  FROM wc)"""
    parts = [head]
    for t in range(1, n_merges + 1):
        p = t - 1
        parts.append(f"""
pc{t} AS MATERIALIZED (
  SELECT arr[k] AS l, arr[k + 1] AS r, sum(n) AS cnt
  FROM (SELECT word, n, arr, unnest(range(1, len(arr))) AS k FROM v{p})
  GROUP BY 1, 2),
b{t} AS MATERIALIZED (
  SELECT l, r, cnt FROM pc{t}
  ORDER BY cnt DESC, l, r LIMIT 1),
e{t} AS MATERIALIZED (
  SELECT v.word, v.n, u.k, v.arr[u.k] AS s,
         (u.k < len(v.arr) AND v.arr[u.k] = b.l
          AND v.arr[u.k + 1] = b.r) AS elig
  FROM v{p} v CROSS JOIN b{t} b,
       LATERAL (SELECT unnest(range(1, len(v.arr) + 1)) AS k) u),
r{t} AS MATERIALIZED (
  SELECT word, n, k, s, elig,
         CASE WHEN elig THEN
           (k - min(k) OVER (PARTITION BY word, grp)) % 2 = 0
         ELSE false END AS mstart
  FROM (
    SELECT word, n, k, s, elig,
           CASE WHEN elig THEN
             k - row_number() OVER (PARTITION BY word, elig ORDER BY k)
           END AS grp
    FROM e{t})),
v{t} AS MATERIALIZED (
  SELECT x.word, x.n,
         list(CASE WHEN x.mstart THEN b.l || b.r ELSE x.s END
              ORDER BY x.k) AS arr
  FROM (
    SELECT word, n, k, s, mstart,
           coalesce(lag(mstart) OVER (PARTITION BY word ORDER BY k),
                    false) AS consumed
    FROM r{t}) x
  CROSS JOIN b{t} b
  WHERE NOT x.consumed
  GROUP BY x.word, x.n)""")
    tail = "\nUNION ALL\n".join(
        f"SELECT CAST({t} AS BIGINT) AS step, l AS left, r AS right, "
        f"CAST(cnt AS BIGINT) AS pair_count FROM b{t}"
        for t in range(1, n_merges + 1))
    return ",".join(parts) + "\n" + tail


SQL_BPE_TRAIN = _bpe_sql()


def q_chi2_terms(sf_dir: str):
    """Chi-square term keyness vs the language labeling (presence-cell
    chi2 over the token x lang contingency) — the feature-selection
    statistic for corpus drift / classifier vocab pruning.  Top 20
    terms by chi2, ordered deterministically on the unrounded double.

    Scale plan: doc-distinct (tok, lang) cells via the shuffle-free
    combiner; lang totals are a 5-row broadcast; the per-token finish
    needs only that token's lang row (bucketed token grouping at
    web-scale vocab — same contract as top_tfidf's hash-join path;
    the driver frame here is bounded by the observed vocab)."""
    docs = _rp(sf_dir, "documents", ["doc_id", "text", "lang"])

    def cells(df: pd.DataFrame) -> pd.DataFrame:
        texts = (df["text"].astype("string").fillna("")
                 .str.lower().reset_index(drop=True))
        toks = texts.str.findall(r"[a-z0-9]+").explode().dropna()
        rt = pd.DataFrame({
            "r": toks.index.to_numpy(),
            "tok": toks.to_numpy()}).drop_duplicates()
        rt["lang"] = df["lang"].reset_index(drop=True) \
            .reindex(rt["r"]).to_numpy()
        g = rt.groupby(["tok", "lang"], sort=False).size()
        return g.reset_index(name="o")

    cell = rel.partial_groupby_agg(
        docs.map_batches(cells, batch_format="pandas"),
        ["tok", "lang"], {"o": ("o", "sum")})

    lang_tot = rel.partial_groupby_agg(
        docs.map_batches(
            lambda df: df.groupby("lang", sort=False).size()
            .reset_index(name="n_lang"),
            batch_format="pandas"),
        ["lang"], {"n_lang": ("n_lang", "sum")})
    n_docs = float(lang_tot["n_lang"].sum())

    # dense token x lang grid (zero cells included, as in the SQL)
    grid = (cell.pivot_table(index="tok", columns="lang", values="o",
                             fill_value=0, aggfunc="sum"))
    langs = lang_tot.set_index("lang")["n_lang"]
    grid = grid.reindex(columns=langs.index, fill_value=0)
    O = grid.to_numpy(np.float64)
    n_tok = O.sum(axis=1)
    E = n_tok[:, None] * langs.to_numpy(np.float64)[None, :] / n_docs
    chi2 = ((O - E) ** 2 / E).sum(axis=1)
    out = pd.DataFrame({"tok": grid.index.to_numpy(dtype=object),
                        "chi2_raw": chi2})
    out = out.sort_values(["chi2_raw", "tok"],
                          ascending=[False, True]).head(20)
    return pd.DataFrame({"tok": out["tok"].to_numpy(),
                         "chi2": np.round(out["chi2_raw"].to_numpy(), 6)})


SQL_CHI2_TERMS = r"""
WITH t AS (
  SELECT doc_id, lang,
         unnest(list_distinct(regexp_extract_all(lower(coalesce(text, '')),
                                                 '[a-z0-9]+'))) AS tok
  FROM documents),
n AS (SELECT count(*) AS n_docs FROM documents),
lt AS (SELECT lang, count(*) AS n_lang FROM documents GROUP BY 1),
cell AS (SELECT tok, lang, count(*) AS o FROM t GROUP BY 1, 2),
tok_tot AS (SELECT tok, sum(o) AS n_tok FROM cell GROUP BY 1),
grid AS (
  SELECT tt.tok, l.lang, tt.n_tok, l.n_lang, coalesce(c.o, 0) AS o
  FROM tok_tot tt CROSS JOIN lt l
  LEFT JOIN cell c ON c.tok = tt.tok AND c.lang = l.lang),
chi AS (
  SELECT tok,
         sum(power(o - n_tok * n_lang / (SELECT n_docs FROM n)::DOUBLE, 2)
             / (n_tok * n_lang / (SELECT n_docs FROM n)::DOUBLE)) AS c2
  FROM grid GROUP BY 1)
SELECT tok, round(c2, 6) AS chi2 FROM chi
ORDER BY c2 DESC, tok LIMIT 20
"""


def q_group_lcp(sf_dir: str):
    """Per-group longest common prefix of customer names — via the
    min/max-combiner identity: the LCP of a whole set equals
    LCP(lexicographic min, lexicographic max), so only two strings
    per group ever aggregate (shuffle-free min/max combiner), and the
    driver finish compares one string pair per group.  The URL-prefix
    / path-hierarchy profiling primitive at zero shuffle cost."""
    ds = _rp(sf_dir, "customer", ["c_nationkey", "c_name"])

    mm = rel.partial_groupby_agg(
        ds.map_batches(
            lambda df: df.groupby("c_nationkey", sort=False)["c_name"]
            .agg(m1="min", m2="max").reset_index(),
            batch_format="pandas"),
        ["c_nationkey"], {"m1": ("m1", "min"), "m2": ("m2", "max")})

    def lcp(a: str, b: str) -> int:
        n = min(len(a), len(b))
        i = 0
        while i < n and a[i] == b[i]:
            i += 1
        return i

    ln = [lcp(a, b) for a, b in zip(mm["m1"], mm["m2"])]
    return pd.DataFrame({
        "c_nationkey": mm["c_nationkey"].to_numpy(np.int64),
        "lcp_len": np.array(ln, dtype=np.int64),
        "prefix": [a[:i] for a, i in zip(mm["m1"], ln)]})


SQL_GROUP_LCP = """
WITH mm AS (SELECT c_nationkey, min(c_name) AS m1, max(c_name) AS m2
            FROM customer GROUP BY 1),
l AS (SELECT c_nationkey, m1, max(L) AS lcp_len
      FROM mm CROSS JOIN generate_series(0, 64) AS t(L)
      WHERE L <= least(length(m1), length(m2))
        AND substr(m1, 1, CAST(L AS INTEGER))
            = substr(m2, 1, CAST(L AS INTEGER))
      GROUP BY 1, 2)
SELECT c_nationkey, CAST(lcp_len AS BIGINT) AS lcp_len,
       substr(m1, 1, CAST(lcp_len AS INTEGER)) AS prefix
FROM l
"""


def q_zipf_slope(sf_dir: str):
    """Zipf exponent of the corpus token-frequency distribution — the
    OLS slope of ln(freq) on ln(rank) (ranks by freq DESC, ties by
    token).  Token counts ride the shuffle-free combiner; the
    rank+fit finish runs on the bounded observed-vocab frame (the
    corpus-health profiling statistic next to vocab_stats)."""
    docs = _rp(sf_dir, "documents", ["text"])

    def counts(df: pd.DataFrame) -> pd.DataFrame:
        toks = (df["text"].astype("string").fillna("").str.lower()
                .str.findall(r"[a-z0-9]+").explode().dropna())
        vc = toks.value_counts()
        return pd.DataFrame({"tok": vc.index.to_numpy(dtype=object),
                             "c": vc.to_numpy(np.int64)})

    f = rel.partial_groupby_agg(
        docs.map_batches(counts, batch_format="pandas"),
        ["tok"], {"c": ("c", "sum")})
    f = f.sort_values(["c", "tok"], ascending=[False, True],
                      kind="mergesort").reset_index(drop=True)
    x = np.log(np.arange(1, len(f) + 1, dtype=np.float64))
    y = np.log(f["c"].to_numpy(np.float64))
    dx = x - x.mean()
    slope = (dx * (y - y.mean())).sum() / (dx ** 2).sum()
    return pd.DataFrame({"slope": [np.round(slope, 6)],
                         "vocab": [np.int64(len(f))]})


SQL_ZIPF_SLOPE = r"""
WITH t AS (SELECT unnest(regexp_extract_all(lower(coalesce(text, '')),
                                            '[a-z0-9]+')) AS tok
           FROM documents),
f AS (SELECT tok, count(*) AS c FROM t GROUP BY 1),
r AS (SELECT c, row_number() OVER (ORDER BY c DESC, tok) AS rk FROM f)
SELECT round(regr_slope(ln(c), ln(rk)), 6) AS slope,
       count(*) AS vocab
FROM r
"""


def q_bigram_lm(sf_dir: str):
    """Per-doc mean negative log-prob under an add-one BIGRAM LM
    trained on the doc_id%10==0 slice — the conditional-context step
    up from unigram_logprob (stages/textstats.py::bigram_logprob:
    distributed count tables, two hash-join hydrations, no vocabulary
    broadcast)."""
    return ts.bigram_logprob(_rp(sf_dir, "documents", ["doc_id", "text"]),
                             "doc_id", "text", ref_mod=10)


SQL_BIGRAM_LM = r"""
WITH d AS (
  SELECT doc_id, regexp_split_to_array(trim(lower(text)), '\s+') AS tk
  FROM documents WHERE trim(coalesce(text, '')) <> ''),
bg AS (
  SELECT doc_id, tk[i] AS w1, tk[i] || ' ' || tk[i + 1] AS big
  FROM (SELECT doc_id, tk,
               unnest(generate_series(1, len(tk) - 1)) AS i
        FROM d WHERE len(tk) >= 2)),
refu AS (
  SELECT term, count(*) AS c1
  FROM (SELECT doc_id, unnest(tk) AS term FROM d)
  WHERE doc_id % 10 = 0 GROUP BY term),
refb AS (
  SELECT big, count(*) AS c12 FROM bg WHERE doc_id % 10 = 0
  GROUP BY big),
v AS (SELECT CAST(count(*) AS DOUBLE) + 1.0 AS vv FROM refu)
SELECT doc_id, CAST(count(*) AS BIGINT) AS n_bg,
       round(-avg(ln((coalesce(c12, 0) + 1.0)
                     / (coalesce(c1, 0) + vv))), 6) AS nll
FROM bg LEFT JOIN refb USING (big)
        LEFT JOIN refu ON refu.term = bg.w1, v
GROUP BY doc_id
"""


def q_k_anonymity(sf_dir: str):
    """k-anonymity audit over the (event_type, day) quasi-identifier:
    groups smaller than k = 50 are re-identification risks a release
    pipeline must suppress or generalize — reported with relative day
    index so the result is scale-stable.  One bounded combiner (the
    quasi-identifier domain is types × days), driver-side filter."""
    ev = _rp(sf_dir, "events", ["ts", "event_type"])
    day_us = np.int64(86400000000)

    def part(df: pd.DataFrame) -> pd.DataFrame:
        day = (df["ts"].to_numpy("datetime64[us]").astype(np.int64)
               // day_us)
        out = pd.DataFrame({"event_type": df["event_type"]
                            .to_numpy(object),
                            "day": day, "n": np.int64(1)})
        return out.groupby(["event_type", "day"], sort=False) \
            .sum().reset_index()

    g = rel.partial_groupby_agg(
        ev.map_batches(part, batch_format="pandas"),
        ["event_type", "day"], {"n": ("n", "sum")})
    d0 = int(g["day"].min())
    bad = g[g["n"] < 50]
    return pd.DataFrame({
        "event_type": bad["event_type"].to_numpy(object),
        "day_idx": bad["day"].to_numpy(np.int64) - d0,
        "n": bad["n"].to_numpy(np.int64)})


SQL_K_ANONYMITY = """
WITH g AS (
  SELECT event_type, epoch_us(ts) // 86400000000 AS day,
         count(*) AS n
  FROM events GROUP BY 1, 2),
b AS (SELECT min(day) AS d0 FROM g)
SELECT event_type, CAST(day - d0 AS BIGINT) AS day_idx,
       CAST(n AS BIGINT) AS n
FROM g CROSS JOIN b WHERE n < 50
"""


def q_llr_collocations(sf_dir: str):
    """Top-20 bigram collocations by Dunning log-likelihood ratio
    (min count 5) — PMI's significance-weighted sibling; bigram cell
    combiner, margin hydration via token hash joins, G2 mirrored
    term-for-term in SQL (stages/textstats.py::llr_collocations)."""
    from ...stages.textstats import llr_collocations

    return llr_collocations(_rp(sf_dir, "documents", ["text"]),
                            text_col="text", min_count=5, k=20)


SQL_LLR_COLLOCATIONS = r"""
WITH t AS (
  SELECT regexp_split_to_array(trim(lower(text)), '\s+') AS toks
  FROM documents WHERE trim(coalesce(text, '')) <> ''
), pos AS (SELECT toks, unnest(generate_series(1, len(toks) - 1)) AS i
           FROM t WHERE len(toks) >= 2),
bg AS (SELECT toks[i] AS a, toks[i+1] AS b, count(*) AS nb
       FROM pos GROUP BY 1, 2),
fa AS (SELECT a, sum(nb) AS fa FROM bg GROUP BY 1),
sb AS (SELECT b, sum(nb) AS sb FROM bg GROUP BY 1),
tb AS (SELECT CAST(sum(nb) AS DOUBLE) AS TB FROM bg),
cells AS (
  SELECT bg.a, bg.b, CAST(bg.nb AS DOUBLE) AS k11,
         CAST(fa.fa - bg.nb AS DOUBLE) AS k12,
         CAST(sb.sb - bg.nb AS DOUBLE) AS k21,
         TB - fa.fa - sb.sb + bg.nb AS k22,
         CAST(fa.fa AS DOUBLE) AS fa, CAST(sb.sb AS DOUBLE) AS sb, TB
  FROM bg JOIN fa USING (a) JOIN sb USING (b) CROSS JOIN tb
  WHERE bg.nb >= 5),
scored AS (
  SELECT a || ' ' || b AS bigram, CAST(k11 AS BIGINT) AS n,
         2.0 * (
           CASE WHEN k11 > 0
                THEN k11 * ln(k11 / (fa * sb / TB)) ELSE 0 END
         + CASE WHEN k12 > 0
                THEN k12 * ln(k12 / (fa * (TB - sb) / TB)) ELSE 0 END
         + CASE WHEN k21 > 0
                THEN k21 * ln(k21 / ((TB - fa) * sb / TB)) ELSE 0 END
         + CASE WHEN k22 > 0
                THEN k22 * ln(k22 / ((TB - fa) * (TB - sb) / TB))
                ELSE 0 END) AS llr
  FROM cells)
SELECT bigram, n, round(llr, 6) AS llr FROM scored
ORDER BY llr DESC, bigram LIMIT 20
"""


def q_l_diversity(sf_dir: str):
    """l-diversity audit (k_anonymity's sibling for attribute
    disclosure): quasi-identifier groups (c_nationkey, c_mktsegment)
    whose SENSITIVE attribute (acctbal thousands-bucket) shows fewer
    than l = 6 distinct values — a homogeneous group leaks the
    sensitive value even when k-anonymous.  One (group, sensitive)
    distinct-cell combiner, per-group distinct count on the bounded
    frame."""
    cust = _rp(sf_dir, "customer",
               ["c_nationkey", "c_mktsegment", "c_acctbal"])

    def cells(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({
            "nk": df["c_nationkey"].to_numpy(np.int64),
            "seg": df["c_mktsegment"].to_numpy(object),
            "sv": (df["c_acctbal"].to_numpy(np.float64)
                   // 1000.0).astype(np.int64)})
        return out.drop_duplicates(ignore_index=True) \
            .assign(one=np.int64(1))

    g = rel.partial_groupby_agg(
        cust.map_batches(cells, batch_format="pandas"),
        ["nk", "seg", "sv"], {"one": ("one", "min")})
    cnt = g.groupby(["nk", "seg"], as_index=False)["one"].count() \
        .rename(columns={"one": "l"})
    bad = cnt[cnt["l"] < 6]
    return pd.DataFrame({"c_nationkey": bad["nk"].to_numpy(np.int64),
                         "c_mktsegment": bad["seg"].to_numpy(object),
                         "l": bad["l"].to_numpy(np.int64)})


# floor(x / 1000), NOT x // 1000: DuckDB's // on DOUBLE operands is
# plain division (verified: 836.71 // 1000.0 = 0.83671), so the CAST
# would round-to-nearest instead of bucketing
SQL_L_DIVERSITY = """
SELECT CAST(c_nationkey AS BIGINT) AS c_nationkey, c_mktsegment,
       CAST(count(DISTINCT CAST(floor(c_acctbal / 1000.0) AS BIGINT))
            AS BIGINT) AS l
FROM customer GROUP BY 1, 2
HAVING count(DISTINCT CAST(floor(c_acctbal / 1000.0) AS BIGINT)) < 6
"""


def q_t_closeness(sf_dir: str):
    """t-closeness audit (the third release gate beside k_anonymity
    and l_diversity): per quasi-identifier group (c_nationkey,
    c_mktsegment), the 1-D earth-mover distance between the group's
    sensitive distribution (acctbal thousands-bucket) and the GLOBAL
    one — ordered-category EMD = mean |cumulative difference| over the
    bucket order.  Groups with EMD > t = 0.25 leak distributional
    information.  One (group, bucket) cell combiner; the EMD closes
    vectorized on the bounded cell grid (dense zero cells included,
    as in the SQL grid)."""
    cust = _rp(sf_dir, "customer",
               ["c_nationkey", "c_mktsegment", "c_acctbal"])

    def cells(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({
            "nk": df["c_nationkey"].to_numpy(np.int64),
            "seg": df["c_mktsegment"].to_numpy(object),
            "sv": np.floor(df["c_acctbal"].to_numpy(np.float64)
                           / 1000.0).astype(np.int64),
            "c": np.int64(1)})
        return out.groupby(["nk", "seg", "sv"], sort=False) \
            .sum().reset_index()

    cell = rel.partial_groupby_agg(
        cust.map_batches(cells, batch_format="pandas"),
        ["nk", "seg", "sv"], {"c": ("c", "sum")})
    buckets = np.sort(cell["sv"].unique())
    glob = cell.groupby("sv")["c"].sum().reindex(buckets, fill_value=0)
    n = float(glob.sum())
    # cumsum THEN divide — the SQL window computes (sum OVER)/total
    gcdf = np.cumsum(glob.to_numpy(np.float64)) / n

    rows = []
    for (nk, seg), g in cell.groupby(["nk", "seg"]):
        cnt = g.set_index("sv")["c"].reindex(buckets, fill_value=0) \
            .to_numpy(np.float64)
        cdf = np.cumsum(cnt) / cnt.sum()
        emd = np.abs(cdf - gcdf).sum() / len(buckets)
        if emd > 0.25:
            rows.append({"c_nationkey": np.int64(nk),
                         "c_mktsegment": seg,
                         "emd": np.round(emd, 6)})
    if not rows:
        return pd.DataFrame({
            "c_nationkey": pd.Series([], dtype="int64"),
            "c_mktsegment": pd.Series([], dtype="string"),
            "emd": pd.Series([], dtype="float64")})
    return pd.DataFrame(rows)


SQL_T_CLOSENESS = """
WITH base AS (SELECT c_nationkey AS nk, c_mktsegment AS seg,
                     CAST(floor(c_acctbal / 1000.0) AS BIGINT) AS sv
              FROM customer),
buckets AS (SELECT DISTINCT sv FROM base),
grps AS (SELECT DISTINCT nk, seg FROM base),
grid AS (SELECT g.nk, g.seg, b.sv FROM grps g CROSS JOIN buckets b),
cell AS (SELECT nk, seg, sv, count(*) AS c FROM base GROUP BY 1, 2, 3),
full_grid AS (SELECT grid.nk, grid.seg, grid.sv,
                     coalesce(cell.c, 0) AS c
              FROM grid LEFT JOIN cell USING (nk, seg, sv)),
gtot AS (SELECT sv, sum(c) AS gc FROM full_grid GROUP BY 1),
nn AS (SELECT CAST(count(*) AS DOUBLE) AS n FROM base),
nb AS (SELECT CAST(count(*) AS DOUBLE) AS k FROM buckets),
cdf AS (
  SELECT f.nk, f.seg, f.sv,
         sum(f.c) OVER w / sum(f.c) OVER (PARTITION BY f.nk, f.seg)
             AS gcdf_grp,
         sum(g.gc) OVER w2 / nn.n AS gcdf_all
  FROM full_grid f JOIN gtot g USING (sv) CROSS JOIN nn
  WINDOW w AS (PARTITION BY f.nk, f.seg ORDER BY f.sv
               ROWS UNBOUNDED PRECEDING),
         w2 AS (PARTITION BY f.nk, f.seg ORDER BY f.sv
                ROWS UNBOUNDED PRECEDING))
SELECT CAST(nk AS BIGINT) AS c_nationkey, seg AS c_mktsegment,
       round(sum(abs(gcdf_grp - gcdf_all)) / any_value(nb.k), 6) AS emd
FROM cdf CROSS JOIN nb
GROUP BY nk, seg, nb.k
HAVING sum(abs(gcdf_grp - gcdf_all)) / nb.k > 0.25
"""


def q_token_budget_sample(sf_dir: str):
    """Language-balanced downsampling to a per-language TOKEN budget
    (the LLM-mixing primitive: every language capped at the smallest
    language's token total): per-lang token-count combiner fixes the
    keep fraction f = budget / lang_tokens, then a map-only
    hash-uniform Bernoulli keep (hash(doc_id)/2^64 < f — the
    mixture_resample device, deterministic and oracle-reproducible).
    No shuffle beyond the bounded lang-margin pass."""
    from ...functions.similarity import hash_strings_fast

    docs = _rp(sf_dir, "documents", ["doc_id", "lang", "text"])

    def tok_counts(df: pd.DataFrame) -> pd.DataFrame:
        n = ts._ws_tokens(df["text"]).str.len().fillna(0) \
            .astype(np.int64)
        return pd.DataFrame({"lang": df["lang"].to_numpy(object),
                             "t": n}).groupby("lang", sort=False) \
            .sum().reset_index()

    tot = rel.partial_groupby_agg(
        docs.map_batches(tok_counts, batch_format="pandas"),
        ["lang"], {"t": ("t", "sum")})
    budget = float(tot["t"].min())
    frac = {lg: budget / float(t) for lg, t in zip(tot["lang"], tot["t"])}

    def keep(df: pd.DataFrame) -> pd.DataFrame:
        u = hash_strings_fast(df["doc_id"].astype(str).tolist()) \
            .astype(np.float64) / 18446744073709551616.0
        f = df["lang"].map(frac).to_numpy(np.float64)
        m = u < f
        out = df.loc[m, ["doc_id", "lang"]].copy()
        out["n_tokens"] = ts._ws_tokens(df["text"][m]).str.len() \
            .fillna(0).astype(np.int64).to_numpy()
        if len(out) == 0:
            out = out.astype({"lang": "string"})
        return out

    return docs.map_batches(keep, batch_format="pandas")


SQL_TOKEN_BUDGET_SAMPLE = r"""
WITH tc AS (
  SELECT doc_id, lang,
         CASE WHEN trim(coalesce(text, '')) = '' THEN 0
              ELSE len(regexp_split_to_array(trim(lower(text)),
                                             '\s+')) END AS t
  FROM documents),
tot AS (SELECT lang, sum(t) AS lt FROM tc GROUP BY 1),
b AS (SELECT CAST(min(lt) AS DOUBLE) AS budget FROM tot)
SELECT tc.doc_id, tc.lang, CAST(tc.t AS BIGINT) AS n_tokens
FROM tc JOIN tot USING (lang) CROSS JOIN b
WHERE hash(CAST(tc.doc_id AS VARCHAR)) / 18446744073709551616.0
      < b.budget / CAST(tot.lt AS DOUBLE)
"""


def q_interleave_order(sf_dir: str):
    """Deterministic curriculum/epoch interleaving: documents are
    quality-bucketed (n_chars // 200), ranked WITHIN their bucket, and
    assigned a global position that round-robins the buckets (all
    rank-0 docs first, then all rank-1, ...) — the shuffle-free "mix
    the strata evenly through the epoch" ordering a trainer consumes.
    Rank-in-bucket is one co-location pass; the global position is the
    global_dense_rank primitive on the composite (rank * 64 + bucket)
    key (bucket cardinality < 64 by construction); one hash join
    attaches it back."""
    from ...stages.relational import global_dense_rank, hash_join
    from ...stages.shuffle import bucketed_map_groups, drop_empty_blocks

    docs = _rp(sf_dir, "documents", ["doc_id", "n_chars"])

    def with_bucket(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": df["doc_id"].to_numpy(np.int64),
            "qb": df["n_chars"].to_numpy(np.int64) // 200})

    def rank_in_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["qb", "doc_id"], kind="mergesort")
        df["rank_in_bucket"] = df.groupby("qb", sort=False).cumcount() \
            .astype(np.int64)
        return df

    ranked = bucketed_map_groups(
        docs.map_batches(with_bucket, batch_format="pandas"),
        ["qb"], rank_in_bucket, num_buckets=32)

    keyed = drop_empty_blocks(ranked.map_batches(
        lambda df: df.assign(
            pos_key=df["rank_in_bucket"].to_numpy(np.int64) * 64
            + df["qb"].to_numpy(np.int64)),
        batch_format="pandas").materialize())
    pos, _n = global_dense_rank(keyed.map_batches(
        lambda df: df[["pos_key", "doc_id"]], batch_format="pandas"),
        "pos_key", "doc_id")
    pos = drop_empty_blocks(pos.map_batches(
        lambda df: df.rename(columns={"id": "doc_id", "rn": "pos"}),
        batch_format="pandas").materialize())
    out = hash_join(keyed.map_batches(
        lambda df: df[["doc_id", "qb", "rank_in_bucket"]],
        batch_format="pandas"), pos, on=["doc_id"])
    return out


SQL_INTERLEAVE_ORDER = """
WITH b AS (SELECT doc_id, n_chars // 200 AS qb FROM documents),
r AS (SELECT doc_id, qb,
             row_number() OVER (PARTITION BY qb ORDER BY doc_id) - 1
                 AS rank_in_bucket
      FROM b)
SELECT doc_id, qb, rank_in_bucket,
       row_number() OVER (ORDER BY rank_in_bucket * 64 + qb, doc_id)
           - 1 AS pos
FROM r
"""


def q_png_dims(sf_dir: str):
    """ORACLED real-decode check (round-4; widened round-5 to BOTH
    real codecs): every fixture image's dimensions are a pure function
    of doc_id (width 48+(id%7)*8, height 48+(id%5)*8), so SQL predicts
    them WITHOUT decoding while the engine must actually parse the
    real bytes — PNG rows through IHDR + inflate + unfilter, BMP rows
    (``doc_id % 4 in (1, 2)``) through the DIB header/scanline parser — to
    report them: a value-hash gate on both decode paths themselves,
    not just their plumbing."""
    from ...stages.multimodal import decode_media

    out = decode_media(_png_media_ds(sf_dir), backend="image")
    return out.select_columns(["media_id", "width", "height"])


SQL_PNG_DIMS = """
SELECT 'm' || CAST(doc_id AS VARCHAR) AS media_id,
       CAST(48 + (doc_id % 7) * 8 AS INT) AS width,
       CAST(48 + (doc_id % 5) * 8 AS INT) AS height
FROM documents
"""


QUERIES = {
    "png_dims": q_png_dims,
    "token_count": q_token_count,
    "quality_stats": q_quality_stats,
    "normalize_text": q_normalize_text,
    "ngram_jaccard": q_ngram_jaccard,
    "bpe_token_count": q_bpe_token_count,
    "stopword_ratio": q_stopword_ratio,
    "top_tfidf": q_top_tfidf,
    "regex_extract": q_regex_extract,
    "keyword_search": q_keyword_search,
    "bm25_search": q_bm25_search,
    "gopher_filter": q_gopher_filter,
    "ngram_top": q_ngram_top,
    "repetition_ratio": q_repetition_ratio,
    "pii_redact": q_pii_redact,
    "decontaminate": q_decontaminate,
    "unigram_logprob": q_unigram_logprob,
    "mixture_resample": q_mixture_resample,
    "rare_collapse": q_rare_collapse,
    "group_entropy": q_group_entropy,
    "pmi_bigrams": q_pmi_bigrams,
    "vocab_stats": q_vocab_stats,
    "llr_collocations": q_llr_collocations,
    "l_diversity": q_l_diversity,
    "t_closeness": q_t_closeness,
    "token_budget_sample": q_token_budget_sample,
    "interleave_order": q_interleave_order,
    "dsir_sample": q_dsir_sample,
    "media_decode": q_media_decode,
    "phash_dups": q_phash_dups,
    "frame_sample": q_frame_sample,
    "lang_id": q_lang_id,
    "tfidf_cosine_pairs": q_tfidf_cosine_pairs,
    "phrase_search": q_phrase_search,
    "bpe_train": q_bpe_train,
    "chi2_terms": q_chi2_terms,
    "group_lcp": q_group_lcp,
    "zipf_slope": q_zipf_slope,
    "bigram_lm": q_bigram_lm,
    "k_anonymity": q_k_anonymity,
    "ppl_bucket": q_ppl_bucket,
}

ORACLES = {
    "png_dims": SQL_PNG_DIMS,
    "token_count": SQL_TOKEN_COUNT,
    "quality_stats": SQL_QUALITY_STATS,
    "normalize_text": SQL_NORMALIZE_TEXT,
    "ngram_jaccard": SQL_NGRAM_JACCARD,
    "bpe_token_count": SQL_BPE_TOKEN_COUNT,
    "stopword_ratio": SQL_STOPWORD_RATIO,
    "top_tfidf": SQL_TOP_TFIDF,
    "dsir_sample": SQL_DSIR_SAMPLE,
    "lang_id": SQL_LANG_ID,
    "regex_extract": SQL_REGEX_EXTRACT,
    "keyword_search": SQL_KEYWORD_SEARCH,
    "bm25_search": SQL_BM25_SEARCH,
    "gopher_filter": SQL_GOPHER_FILTER,
    "ngram_top": SQL_NGRAM_TOP,
    "repetition_ratio": SQL_REPETITION_RATIO,
    "pii_redact": SQL_PII_REDACT,
    "decontaminate": SQL_DECONTAMINATE,
    "unigram_logprob": SQL_UNIGRAM_LOGPROB,
    "mixture_resample": SQL_MIXTURE_RESAMPLE,
    "frame_sample": SQL_FRAME_SAMPLE,
    "bpe_train": SQL_BPE_TRAIN,
    "rare_collapse": SQL_RARE_COLLAPSE,
    "group_entropy": SQL_GROUP_ENTROPY,
    "pmi_bigrams": SQL_PMI_BIGRAMS,
    "vocab_stats": SQL_VOCAB_STATS,
    "llr_collocations": SQL_LLR_COLLOCATIONS,
    "l_diversity": SQL_L_DIVERSITY,
    "t_closeness": SQL_T_CLOSENESS,
    "token_budget_sample": SQL_TOKEN_BUDGET_SAMPLE,
    "interleave_order": SQL_INTERLEAVE_ORDER,
    "tfidf_cosine_pairs": SQL_TFIDF_COSINE_PAIRS,
    "phrase_search": SQL_PHRASE_SEARCH,
    "chi2_terms": SQL_CHI2_TERMS,
    "group_lcp": SQL_GROUP_LCP,
    "zipf_slope": SQL_ZIPF_SLOPE,
    "bigram_lm": SQL_BIGRAM_LM,
    "k_anonymity": SQL_K_ANONYMITY,
    "ppl_bucket": SQL_PPL_BUCKET,
}
