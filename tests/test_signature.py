"""Golden tests for the batch signature layer: the one-stream shingle,
MinHash and packing kernels behind ``SignatureStage`` must give every
doc exactly what a per-document build gives it."""
import hashlib

import numpy as np
import pyarrow as pa

from reconcile_curation_in_cris_systems_ray.config import BlockingConfig
from reconcile_curation_in_cris_systems_ray.functions import similarity
from reconcile_curation_in_cris_systems_ray.functions.similarity import (
    MinHasher, _rolling_combine, batch_shingle_sets, batch_shingle_stream,
    hash_strings_fast, packed_u64_column, shingle_hash_set_text,
)
from reconcile_curation_in_cris_systems_ray.functions.textnorm import (
    normalize_text_array,
)
from reconcile_curation_in_cris_systems_ray.stages.blocking import (
    SignatureStage, binary_matrix,
)

# more distinct 3-shingles than one MinHash chunk holds
GIANT = " ".join(f"w{i}" for i in range(similarity._STREAM_CHUNK + 4000))
DOCS = [
    "The quick brown fox jumps over the lazy dog\nand then some more.",
    "北京大学计算机科学与技术系欢迎您访问我们的网站",
    None,
    "",
    "   ",
    "hello",
    "hello world",
    "a b c a b c a b c a b c",
    GIANT,
    "東京 大学の研究室では自然言語処理と機械翻訳を研究しています",
    "one two three four",
]
CFG = BlockingConfig()


def _normalized(text):
    """The text SignatureStage shingles, normalized one doc at a time."""
    if text is None:
        return ""
    return normalize_text_array(
        pa.array([text.replace("\n", " ")], pa.string()))[0].as_py() or ""


def _python_shingle_set(text: str, k_tokens: int, k_chars: int = 5):
    """Per-doc shingle set from Python str.split and the rolling
    combine: word k-grams, or char k-grams when the mean token length
    exceeds 10."""
    tokens = text.split()
    if not tokens:
        return np.empty(0, dtype=np.uint64)
    if len(text) > 10 * len(tokens):
        units, k = list("".join(tokens)), k_chars
    else:
        units, k = tokens, k_tokens
    return np.unique(_rolling_combine(hash_strings_fast(units), k))


def _naive_signature(hasher: MinHasher, s: np.ndarray) -> np.ndarray:
    top = np.iinfo(np.uint64).max
    return np.array([(s * a + b).min() if s.size else top
                     for a, b in zip(hasher.a, hasher.b)], dtype=np.uint64)


def test_signature_stage_matches_per_doc_reference():
    batch = pa.table({"url": [f"u{i}" for i in range(len(DOCS))],
                      "extracted_text": pa.array(DOCS, pa.string())})
    feats = SignatureStage(CFG)(batch)
    hasher = MinHasher(CFG.num_bands, CFG.rows_per_band, CFG.minhash_seed)
    vals, lens = packed_u64_column(feats.column("shingles"), np.uint32)
    offs = np.concatenate([[0], np.cumsum(lens)])
    sigs = binary_matrix(feats.column("sig"))
    assert feats.column("n_shingles").to_pylist() == lens.tolist()
    for i, text in enumerate(DOCS):
        norm = _normalized(text)
        s64 = shingle_hash_set_text(norm, CFG.shingle_k)
        assert np.array_equal(s64, _python_shingle_set(norm, CFG.shingle_k))
        want = np.unique(s64.astype(np.uint32))
        assert np.array_equal(vals[offs[i]:offs[i + 1]], want), i
        sig = hasher.signatures([s64])[0]
        assert np.array_equal(sig, _naive_signature(hasher, s64)), i
        assert np.array_equal(sigs[i], sig.astype(np.uint32)), i
    # the mix covers what it claims to
    n = dict(zip(DOCS, lens.tolist()))
    assert n[None] == n[""] == n["   "] == 0
    assert n["hello"] == n["hello world"] == 1
    assert n["a b c a b c a b c a b c"] == 3
    assert n[DOCS[1]] > 5  # char grams, not one glued token
    assert n[GIANT] > similarity._STREAM_CHUNK


def test_stream_list_and_per_doc_signatures_agree():
    norms = [_normalized(t) for t in DOCS]
    hasher = MinHasher(CFG.num_bands, CFG.rows_per_band, CFG.minhash_seed)
    vals, lens = batch_shingle_stream(norms, CFG.shingle_k)
    sets = batch_shingle_sets(norms, CFG.shingle_k)
    assert [np.unique(v).tolist() for v in
            np.split(vals, np.cumsum(lens)[:-1])] == [s.tolist() for s in sets]
    stream = hasher.stream_signatures(vals, lens)
    assert np.array_equal(stream, hasher.signatures(sets))
    assert np.array_equal(
        stream, np.vstack([hasher.signatures([s]) for s in sets]))
    assert (stream[lens == 0] == np.iinfo(np.uint64).max).all()


def test_gate_corpus_features_are_pinned():
    """sha256 of the gate corpus's stored shingles and signatures, as
    the per-document signature build wrote them."""
    from reconcile_curation_in_cris_systems_ray.sources.corpus import (
        CorpusConfig, corpus_table,
    )
    from reconcile_curation_in_cris_systems_ray.stages.extract import (
        HtmlTextExtractor,
    )

    tbl = corpus_table(CorpusConfig(n_families=40, giant_family_variants=24))
    feats = SignatureStage()(HtmlTextExtractor()(tbl.select(["url", "html"])))
    vals, lens = packed_u64_column(feats.column("shingles"), np.uint32)
    digest = hashlib.sha256()
    for part in (lens.astype("<i8"), vals.astype("<u4"),
                 binary_matrix(feats.column("sig")).astype("<u4")):
        digest.update(np.ascontiguousarray(part).tobytes())
    assert (feats.num_rows, int(lens.sum())) == (127, 29113)
    assert digest.hexdigest() == (
        "2a640c7aa01e34583867396d52432d5592880ef5f25fd64fa993eb08b8f8cd63")
