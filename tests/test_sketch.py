"""Sketch/sampling semantics: HLL accuracy + merge associativity,
md5-prefix sampling determinism."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def test_hll_partial_merge_equals_single_pass():
    from reconcile_curation_in_cris_systems_ray.stages.sketch import _hll_partial

    rng = np.random.default_rng(3)
    h = rng.integers(0, 2**64, size=20000, dtype=np.uint64)
    whole = _hll_partial(h)
    merged = np.maximum(_hll_partial(h[:7000]),
                        np.maximum(_hll_partial(h[7000:15000]),
                                   _hll_partial(h[15000:])))
    assert np.array_equal(whole, merged)


def test_hll_accuracy_vs_exact():
    from reconcile_curation_in_cris_systems_ray.stages.sketch import (
        _hll_estimate, _hll_partial,
    )
    from reconcile_curation_in_cris_systems_ray.functions.similarity import (
        stable_hash_strings,
    )

    for n in (500, 5000, 80000):
        vals = np.array([f"key-{i}" for i in range(n)], dtype=object)
        est = _hll_estimate(_hll_partial(stable_hash_strings(vals)))
        assert abs(est - n) / n < 0.02, (n, est)


def test_hll_count_distinct_dataset(ray_session):
    import ray.data as rd

    from reconcile_curation_in_cris_systems_ray.stages.sketch import (
        hll_count_distinct,
    )

    n, dup = 30000, 3
    df = pd.DataFrame({"k": [f"id-{i % n}" for i in range(n * dup)]})
    ds = rd.from_arrow(pa.Table.from_pandas(df)).repartition(8)
    est = hll_count_distinct(ds, "k")
    assert abs(est - n) / n < 0.02


def test_hash_sample_fraction_and_determinism(ray_session):
    import ray.data as rd

    from reconcile_curation_in_cris_systems_ray.stages.sketch import hash_sample

    df = pd.DataFrame({"doc_id": np.arange(20000), "x": 1})
    ds = rd.from_arrow(pa.Table.from_pandas(df))
    a = hash_sample(ds, "doc_id", "1a").to_pandas()
    b = hash_sample(ds.repartition(7), "doc_id", "1a").to_pandas()
    # identical keep-set regardless of partitioning
    assert sorted(a["doc_id"]) == sorted(b["doc_id"])
    # expected fraction 26/256 ~= 10.16%; binomial 5-sigma band
    frac = len(a) / len(df)
    assert abs(frac - 26 / 256) < 5 * np.sqrt(0.1 * 0.9 / len(df))


def test_stratified_sample_deterministic_and_capped(ray_session):
    import ray.data as rd

    from reconcile_curation_in_cris_systems_ray.stages.sketch import (
        stratified_sample,
    )

    df = pd.DataFrame({
        "g": np.repeat(["a", "b", "c"], 100),
        "k": np.arange(300),
    })
    ds = rd.from_arrow(pa.Table.from_pandas(df))
    a = stratified_sample(ds, ["g"], "k", 7).to_pandas()
    b = stratified_sample(ds.repartition(11), ["g"], "k", 7).to_pandas()
    # exactly n per group, identical pick under any partitioning
    assert a.groupby("g").size().tolist() == [7, 7, 7]
    assert sorted(a["k"]) == sorted(b["k"])
    # matches the oracle semantics: smallest md5(key) per group
    import hashlib
    for g, sub in df.groupby("g"):
        want = sorted(sub["k"], key=lambda k: (
            hashlib.md5(str(k).encode()).hexdigest(), k))[:7]
        got = sorted(a.loc[a["g"] == g, "k"])
        assert got == sorted(want)


def test_stratified_sample_small_groups_kept_whole(ray_session):
    import ray.data as rd

    from reconcile_curation_in_cris_systems_ray.stages.sketch import (
        stratified_sample,
    )

    df = pd.DataFrame({"g": ["a", "a", "b"], "k": [1, 2, 3]})
    ds = rd.from_arrow(pa.Table.from_pandas(df))
    out = stratified_sample(ds, ["g"], "k", 5).to_pandas()
    assert len(out) == 3


def test_tdigest_merge_accuracy_vs_exact():
    """Partial digests merged across batches stay within 1% of exact
    quantiles (0.1% at the tails — k1 scale function)."""
    import numpy as np

    from reconcile_curation_in_cris_systems_ray.stages.sketch import (
        _tdigest_compress, _tdigest_quantile,
    )

    rng = np.random.default_rng(11)
    data = rng.lognormal(1.0, 1.2, 120_000)
    # simulate 12 batch partials then one driver merge
    cvs, cws = [], []
    for chunk in np.array_split(data, 12):
        c = np.sort(chunk)
        cv, cw = _tdigest_compress(c, np.ones_like(c), 200)
        cvs.append(cv)
        cws.append(cw)
    v = np.concatenate(cvs)
    w = np.concatenate(cws)
    order = np.argsort(v, kind="mergesort")
    cv, cw = _tdigest_compress(v[order], w[order], 200)
    assert len(cv) < 2500  # bytes on the driver stay bounded
    for q in (0.01, 0.5, 0.9, 0.99):
        est = _tdigest_quantile(cv, cw, q, data.min(), data.max())
        exact = np.quantile(data, q)
        assert abs(est - exact) / exact < 0.01, (q, est, exact)


def test_tdigest_dataset_path(ray_session):
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from reconcile_curation_in_cris_systems_ray.stages.sketch import (
        tdigest_quantiles,
    )

    rng = np.random.default_rng(3)
    vals = rng.normal(100, 15, 50_000)
    ds = rd.from_arrow(pa.Table.from_pandas(
        pd.DataFrame({"value": vals}), preserve_index=False))
    out = tdigest_quantiles(ds, "value", {"p50": 0.5, "p90": 0.9})
    exact50 = np.quantile(vals, 0.5)
    exact90 = np.quantile(vals, 0.9)
    assert abs(out["p50"][0] - exact50) / exact50 < 0.01
    assert abs(out["p90"][0] - exact90) / exact90 < 0.01


def _brute_topk(texts: list[str], k: int) -> pd.DataFrame:
    toks: list[str] = []
    for t in texts:
        toks.extend(t.strip().lower().split())
    c = pd.Series(toks).value_counts()
    df = c.reset_index()
    df.columns = ["term", "n"]
    df = df.sort_values(["n", "term"], ascending=[False, True],
                        kind="mergesort").head(k)
    return df.reset_index(drop=True)


def _zipf_texts() -> list[str]:
    # deterministic skewed corpus: term-i appears ~600/(i+1) times,
    # spread across docs so batches see overlapping vocabularies
    words = []
    for i in range(400):
        words.extend([f"w{i:03d}"] * (600 // (i + 1) + 1))
    # fixed interleave (no RNG): stride permutation mixes terms per doc
    n = len(words)
    order = [(j * 7919) % n for j in range(n)]
    mixed = [words[j] for j in order]
    return [" ".join(mixed[s:s + 50]) for s in range(0, n, 50)]


def test_heavy_hitters_exact_vs_brute(ray_session):
    import ray.data as rd

    from reconcile_curation_in_cris_systems_ray.stages.sketch import (
        heavy_hitters_topk,
    )

    texts = _zipf_texts()
    ds = rd.from_arrow(pa.Table.from_pandas(
        pd.DataFrame({"text": texts}))).repartition(8)
    got = heavy_hitters_topk(ds, "text", k=15, capacity=4096)
    want = _brute_topk(texts, 15)
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True).astype({"term": str, "n": "int64"}),
        want.astype({"term": str, "n": "int64"}))


def test_heavy_hitters_tiny_capacity_still_exact(ray_session):
    """capacity far below vocabulary forces MG decrements; the result
    must STILL be exact — either the proof holds or the operator falls
    back to the full shuffle."""
    import ray.data as rd

    from reconcile_curation_in_cris_systems_ray.stages.sketch import (
        heavy_hitters_topk,
    )

    texts = _zipf_texts()
    ds = rd.from_arrow(pa.Table.from_pandas(
        pd.DataFrame({"text": texts}))).repartition(8)
    got = heavy_hitters_topk(ds, "text", k=10, capacity=16)
    want = _brute_topk(texts, 10)
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True).astype({"term": str, "n": "int64"}),
        want.astype({"term": str, "n": "int64"}))


def test_mg_reduce_bounds():
    from reconcile_curation_in_cris_systems_ray.stages.sketch import _mg_reduce

    counts = pd.Series({f"t{i}": 100 - i for i in range(50)})
    kept, dec = _mg_reduce(counts, 10)
    assert len(kept) <= 10
    assert dec == counts.sort_values(ascending=False).iloc[10]
    # every kept estimate is a lower bound within dec of truth
    for term, est in kept.items():
        assert counts[term] - dec == est
    # no-op below capacity
    kept2, dec2 = _mg_reduce(counts, 100)
    assert dec2 == 0 and kept2.equals(counts)


def test_exact_int_quantile_duckdb_parity(ray_session):
    import duckdb
    import ray.data as rd

    from reconcile_curation_in_cris_systems_ray.stages.textstats import (
        exact_int_quantile,
    )

    con = duckdb.connect()
    cases = [
        np.arange(10), np.array([1, 2, 3, 4]), np.array([5] * 10),
        np.repeat(np.arange(5), 2),
        np.random.default_rng(7).integers(0, 50, size=997),
    ]
    for vals in cases:
        ds = rd.from_arrow(pa.Table.from_pandas(
            pd.DataFrame({"v": vals.astype("int64")}))).repartition(4)
        con.execute("DROP VIEW IF EXISTS t")
        con.register("t", pd.DataFrame({"v": vals}))
        for q in (0.1, 0.25, 0.5, 0.75, 0.9, 0.99):
            want = con.execute(
                f"SELECT quantile_disc(v, {q}) FROM t").fetchone()[0]
            got = exact_int_quantile(ds, "v", q)
            assert got == want, (vals[:5], q, got, want)


def test_heavy_hitters_tree_reduce_branch(ray_session):
    """tree_fanin below the block count forces the hierarchical
    (bucketed) merge of the sweep and verify partials — result must be
    identical to the flat path."""
    import ray.data as rd

    from reconcile_curation_in_cris_systems_ray.stages.sketch import (
        heavy_hitters_topk,
    )

    texts = _zipf_texts()
    ds = rd.from_arrow(pa.Table.from_pandas(
        pd.DataFrame({"text": texts}))).repartition(8)
    got = heavy_hitters_topk(ds, "text", k=12, capacity=64, tree_fanin=4)
    want = _brute_topk(texts, 12)
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True).astype({"term": str, "n": "int64"}),
        want.astype({"term": str, "n": "int64"}))


def test_heavy_hitters_all_terms_decremented(ray_session):
    """capacity below the per-batch distinct count with ALL counts tied
    makes every Misra-Gries step drop every term (summary = marker rows
    only); the operator must fall back to the exact shuffle, not crash."""
    import ray.data as rd

    from reconcile_curation_in_cris_systems_ray.stages.sketch import (
        heavy_hitters_topk,
    )

    # 40 distinct terms per batch, every count == 1 -> dec drops all
    texts = [" ".join(f"t{i:03d}" for i in range(b * 40, b * 40 + 40))
             for b in range(6)]
    ds = rd.from_arrow(pa.Table.from_pandas(
        pd.DataFrame({"text": texts}))).repartition(6)
    got = heavy_hitters_topk(ds, "text", k=5, capacity=8)
    want = _brute_topk(texts, 5)
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True).astype({"term": str, "n": "int64"}),
        want.astype({"term": str, "n": "int64"}))


def test_hll_per_group_accuracy_vs_exact(ray_session):
    """Grouped HLL (sketch-shuffle route) within 5% (3 sigma at
    p=12, std error ~1.6%) of the exact grouped distinct on skewed
    per-group cardinalities."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from reconcile_curation_in_cris_systems_ray.stages.sketch import (
        hll_per_group)

    rng = np.random.default_rng(11)
    frames = []
    for grp, card in (("a", 37), ("b", 1200), ("c", 5000)):
        vals = rng.integers(0, card, size=card * 4)
        frames.append(pd.DataFrame({"g": grp,
                                    "v": [f"{grp}:{v}" for v in vals]}))
    df = pd.concat(frames, ignore_index=True).sample(
        frac=1.0, random_state=0).reset_index(drop=True)
    got = hll_per_group(rd.from_pandas(df), ["g"], "v",
                        out_col="n").to_pandas().set_index("g")["n"]
    exact = df.groupby("g")["v"].nunique()
    for grp in exact.index:
        e, a = int(exact[grp]), int(got[grp])
        assert abs(a - e) <= max(0.05 * e, 2), (grp, a, e)


def test_count_min_overestimate_and_accuracy(ray_session):
    """CMS hard guarantee: est >= exact for every probe; and on this
    fixture (vocab << width) the estimates are exact."""
    import ray.data as rd

    from reconcile_curation_in_cris_systems_ray.stages.sketch import (
        count_min_estimates,
    )

    rng = np.random.default_rng(7)
    vocab = [f"w{i}" for i in range(50)]
    docs = [" ".join(rng.choice(vocab, size=30)) for _ in range(200)]
    df = pd.DataFrame({"text": docs})
    exact = pd.Series(" ".join(docs).split()).value_counts()
    probes = ["w0", "w7", "w49", "absent_term"]
    got = count_min_estimates(rd.from_pandas(df), "text", probes)
    m = dict(zip(got["term"], got["est"].astype(int)))
    for t in probes:
        e = int(exact.get(t, 0))
        assert m[t] >= e, (t, m[t], e)
        # 50 distinct terms x 4 rows into 2048 columns: collisions
        # possible but overestimate bounded by eps*N = e/2048 * 6000
        assert m[t] <= e + 8, (t, m[t], e)


def test_tdigest_per_group_accuracy(ray_session):
    import ray.data as rd

    from reconcile_curation_in_cris_systems_ray.stages.sketch import (
        tdigest_per_group,
    )

    rng = np.random.default_rng(11)
    rows = []
    for g, (mu, sd, n) in {"a": (0.0, 1.0, 4000), "b": (10.0, 3.0, 6000),
                           "c": (-5.0, 0.5, 2500)}.items():
        v = rng.normal(mu, sd, n)
        rows.append(pd.DataFrame({"g": g, "v": v}))
    df = pd.concat(rows, ignore_index=True)
    got = tdigest_per_group(
        rd.from_pandas(df), ["g"], "v",
        {"p50": 0.5, "p95": 0.95}).to_pandas().set_index("g")
    for g, sub in df.groupby("g"):
        spread = sub["v"].quantile(0.95) - sub["v"].quantile(0.05)
        for name, q in (("p50", 0.5), ("p95", 0.95)):
            exact = sub["v"].quantile(q)
            assert abs(got.loc[g, name] - exact) <= 0.02 * spread, (
                g, name, got.loc[g, name], exact)


def test_signature_agreement_raises_on_dangling_id():
    """A candidate id the signature lookup does not hold raises; it
    must not read a neighbouring id's signature."""
    from reconcile_curation_in_cris_systems_ray.stages.lookup import (
        build_sorted_lookup,
    )
    from reconcile_curation_in_cris_systems_ray.stages.sketch import (
        _agreeing_pairs,
    )

    sigs = pa.table({
        "doc_id": pa.array([4, 1, 2], pa.int64()),
        "sig": pa.array([[9, 9, 9, 9], [1, 2, 3, 4], [1, 2, 3, 5]],
                        pa.list_(pa.int64()))})
    lookup = build_sorted_lookup("doc_id", ["sig"], sigs)
    got = _agreeing_pairs(pd.DataFrame({"id_a": [1, 1], "id_b": [2, 4]}),
                          lookup, "doc_id", "sig", 0.5)
    assert got.to_dict("list") == {"doc_a": [1], "doc_b": [2],
                                   "est_wj": [0.75]}
    for dangling in (3, 7):  # between two ids, past the last one
        with pytest.raises(ValueError, match=f"doc_id {dangling} "):
            _agreeing_pairs(pd.DataFrame({"id_a": [1], "id_b": [dangling]}),
                            lookup, "doc_id", "sig", 0.5)
