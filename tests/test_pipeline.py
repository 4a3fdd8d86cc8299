"""End-to-end reconcile pipeline: F1 gate, checkpoint resume,
permutation invariance, salting pair-set equivalence (SURVEY §5)."""
import collections

import pytest

from reconcile_curation_in_cris_systems_ray.config import (
    BlockingConfig, ReconcileConfig, ScoringConfig,
)
from reconcile_curation_in_cris_systems_ray.pipelines.reconcile import run_reconcile
from reconcile_curation_in_cris_systems_ray.sources.corpus import (
    CorpusConfig, corpus_table, true_pairs,
)

CORPUS_CFG = CorpusConfig(n_families=40, giant_family_variants=24)


def _pairwise_f1(assigns, truth):
    pred = collections.defaultdict(list)
    for r in assigns:
        pred[r["cluster_id"]].append(r["url"])
    pred_pairs = set()
    for urls in pred.values():
        urls = sorted(urls)
        for i in range(len(urls)):
            for j in range(i + 1, len(urls)):
                pred_pairs.add((urls[i], urls[j]))
    tp = len(pred_pairs & truth)
    fp = len(pred_pairs - truth)
    fn = len(truth - pred_pairs)
    prec = tp / max(1, tp + fp)
    rec = tp / max(1, tp + fn)
    return 2 * prec * rec / max(1e-9, prec + rec), prec, rec


@pytest.fixture(scope="module")
def corpus(ray_session):
    return corpus_table(CORPUS_CFG)


# a lookup byte budget that splits the gate corpus's ~158 KB of
# features into at least four shards
SHARDED_BYTES = 40_000


def test_pipeline_f1_gate(ray_session, corpus):
    import ray.data as rd

    out = run_reconcile(rd.from_arrow(corpus))
    assigns = out["assignments"].take_all()
    assert len(assigns) == corpus.num_rows
    f1, prec, rec = _pairwise_f1(assigns, true_pairs(corpus))
    assert f1 >= 0.99, (f1, prec, rec)
    # the block extractor vouches for every generated page
    assert out["metrics"]["extract_deferred"] == 0


def test_permutation_invariance(ray_session, corpus):
    """Row order must not change cluster assignments (determinism)."""
    import numpy as np
    import ray.data as rd

    rng = np.random.default_rng(11)
    perm = corpus.take(rng.permutation(corpus.num_rows))
    out1 = run_reconcile(rd.from_arrow(corpus))
    out2 = run_reconcile(rd.from_arrow(perm))
    a1 = {r["url"]: r["cluster_id"] for r in out1["assignments"].take_all()}
    a2 = {r["url"]: r["cluster_id"] for r in out2["assignments"].take_all()}
    assert a1 == a2


def test_block_counts_follow_bucket_count(ray_session, corpus):
    """A corpus in 24 small blocks is coalesced once, in the features
    stage, to the exchange's bucket count: features, pairs and
    assignments have at most ``effective_buckets(num_buckets)`` blocks,
    so every stage from band emission to the assignments runs one task
    per bucket.  The assignments equal those of a 1-block corpus."""
    import ray.data as rd

    from reconcile_curation_in_cris_systems_ray.stages.shuffle import (
        effective_buckets,
    )

    n = corpus.num_rows
    bounds = [i * n // 24 for i in range(25)]
    split = rd.from_arrow([corpus.slice(lo, hi - lo)
                           for lo, hi in zip(bounds, bounds[1:])])
    assert split.num_blocks() == 24
    cfg = ReconcileConfig()
    nb = effective_buckets(cfg.blocking.num_buckets)
    out = run_reconcile(split, cfg)
    assert out["features"].num_blocks() <= nb
    assert out["pairs"].num_blocks() <= nb
    assert out["assignments"].materialize().num_blocks() <= nb
    got = {r["url"]: r["cluster_id"] for r in out["assignments"].take_all()}
    one = run_reconcile(rd.from_arrow(corpus), cfg)
    want = {r["url"]: r["cluster_id"] for r in one["assignments"].take_all()}
    assert len(got) == n
    assert got == want


def test_checkpoint_resume_equals_single_run(ray_session, corpus, tmp_path):
    import ray.data as rd

    root = str(tmp_path / "ckpt")
    out1 = run_reconcile(rd.from_arrow(corpus), checkpoint_root=root,
                         input_fingerprint="corpus-v1")
    a1 = {r["url"]: r["cluster_id"] for r in out1["assignments"].take_all()}
    # resume: every stage should be read back, not recomputed
    out2 = run_reconcile(rd.from_arrow(corpus), checkpoint_root=root,
                         input_fingerprint="corpus-v1")
    a2 = {r["url"]: r["cluster_id"] for r in out2["assignments"].take_all()}
    assert a1 == a2
    resumed = [s for s in out2["metrics"]["stages"] if s.get("resumed")]
    assert len(resumed) >= 4


def test_sharded_checkpointed_run_resumes(ray_session, corpus, tmp_path,
                                          monkeypatch):
    """With the lookups forced into several shards, a run's pairs and
    assignments equal the one-shard run's, its lineage reports the
    shard count, and a checkpointed run resumes every stage to the
    same assignments."""
    import ray.data as rd

    from reconcile_curation_in_cris_systems_ray.stages import lookup

    one = run_reconcile(rd.from_arrow(corpus))
    assert one["metrics"]["lookup_shards"] == 1
    want = {r["url"]: r["cluster_id"] for r in one["assignments"].take_all()}
    want_pairs = {(r["uh_a"], r["uh_b"]) for r in one["pairs"].take_all()}

    monkeypatch.setattr(lookup, "LOOKUP_BYTES", SHARDED_BYTES)
    root = str(tmp_path / "ckpt")
    for resumed in (False, True):
        out = run_reconcile(rd.from_arrow(corpus), checkpoint_root=root,
                            input_fingerprint="corpus-sharded")
        assert out["metrics"]["lookup_shards"] >= 4
        cc = next(s for s in out["metrics"]["stages"]
                  if s["stage"] == "score+components")
        assert cc["lookup_shards"] == out["metrics"]["lookup_shards"]
        by_name = {s["stage"]: s for s in out["metrics"]["stages"]}
        for st in ("features", "pairs", "edges", "assignments"):
            assert bool(by_name[st].get("resumed")) == resumed, st
        got = {r["url"]: r["cluster_id"]
               for r in out["assignments"].take_all()}
        assert got == want
        assert {(r["uh_a"], r["uh_b"])
                for r in out["pairs"].take_all()} == want_pairs


def test_checkpointed_run_requires_input_fingerprint(ray_session, corpus,
                                                      tmp_path):
    """Stages resume by fingerprint, so a checkpointed run that does not
    name its input must fail before it writes anything."""
    import os

    import ray.data as rd

    root = str(tmp_path / "ckpt")
    with pytest.raises(ValueError, match="input_fingerprint"):
        run_reconcile(rd.from_arrow(corpus), checkpoint_root=root)
    assert not os.path.exists(root)


def test_library_upgrade_recomputes_every_stage(ray_session, corpus,
                                                tmp_path, monkeypatch):
    """A DuckDB upgrade changes the fuzzy scores, so checkpoints written
    under the old version must not be resumed; lineage.json names the
    versions the run was fingerprinted with."""
    import importlib.metadata
    import json

    import ray.data as rd

    root = str(tmp_path / "ckpt")
    run_reconcile(rd.from_arrow(corpus), checkpoint_root=root,
                  input_fingerprint="corpus-v1")
    installed = importlib.metadata.version
    monkeypatch.setattr(
        importlib.metadata, "version",
        lambda dist: "0.0.0-upgraded" if dist == "duckdb"
        else installed(dist))
    out = run_reconcile(rd.from_arrow(corpus), checkpoint_root=root,
                        input_fingerprint="corpus-v1")
    stages = out["metrics"]["stages"]
    assert len(stages) >= 5
    assert [s["stage"] for s in stages if s.get("resumed")] == []
    with open(f"{root}/lineage.json") as f:
        lineage = json.load(f)
    assert lineage["library_versions"]["duckdb"] == "0.0.0-upgraded"
    assert set(lineage["library_versions"]) == {
        "ray", "pyarrow", "pandas", "duckdb"}


def test_salting_preserves_pair_set(ray_session, corpus):
    """Aggressively-salted hot keys must produce the identical candidate
    pair set as the unsalted groupby (FIXTURES §5.3)."""
    import ray.data as rd

    from reconcile_curation_in_cris_systems_ray.stages.blocking import (
        SignatureStage, emit_band_keys,
    )
    from reconcile_curation_in_cris_systems_ray.stages.pairs import (
        generate_candidate_pairs,
    )

    cfg = ReconcileConfig()
    ds = rd.from_arrow(corpus)
    feats = ds.map_batches(
        SignatureStage,
        fn_constructor_kwargs={"blocking": cfg.blocking,
                               "scoring": cfg.scoring,
                               "text_col": "text"},
        batch_format="pyarrow", concurrency=(1, 2))
    feats = feats.materialize()

    def pair_set(blocking_cfg):
        bands = emit_band_keys(feats, blocking_cfg)
        pairs = generate_candidate_pairs(bands, blocking_cfg, cfg.scoring)
        return {(r["uh_a"], r["uh_b"]) for r in pairs.take_all()}

    no_salt = pair_set(BlockingConfig(hot_key_cap=10**9))
    aggressive = pair_set(BlockingConfig(hot_key_cap=4, max_salts=5))
    assert no_salt == aggressive


def test_min_band_emission_yields_unique_pairs(ray_session, corpus):
    """Without any pair-key dedup exchange, min-band emission must
    already produce globally-unique canonical pairs."""
    import ray.data as rd

    from reconcile_curation_in_cris_systems_ray.stages.blocking import (
        SignatureStage, emit_band_keys,
    )
    from reconcile_curation_in_cris_systems_ray.stages.pairs import (
        generate_candidate_pairs,
    )

    cfg = ReconcileConfig()
    feats = rd.from_arrow(corpus).map_batches(
        SignatureStage,
        fn_constructor_kwargs={"blocking": cfg.blocking,
                               "scoring": cfg.scoring,
                               "text_col": "text"},
        batch_format="pyarrow", concurrency=(1, 2)).materialize()
    pairs = generate_candidate_pairs(
        emit_band_keys(feats, cfg.blocking), cfg.blocking, cfg.scoring,
        dedup_pairs=False).take_all()
    keys = [(r["uh_a"], r["uh_b"]) for r in pairs]
    assert len(keys) == len(set(keys)), "duplicate pairs emitted"
    assert all(a < b for a, b in keys), "pairs not canonical"


def test_config_from_yaml(tmp_path):
    from reconcile_curation_in_cris_systems_ray.config import ReconcileConfig

    p = tmp_path / "cfg.yaml"
    p.write_text(
        "blocking:\n  num_bands: 8\n  rows_per_band: 8\n"
        "scoring:\n  jaccard_threshold: 0.7\n")
    cfg = ReconcileConfig.from_yaml(str(p))
    assert cfg.blocking.num_bands == 8
    assert cfg.scoring.jaccard_threshold == 0.7
    assert cfg.cluster.max_rounds == 30  # untouched section: defaults

    import pytest as _pytest
    with _pytest.raises(ValueError):
        ReconcileConfig.from_dict({"blocking": {"num_bandz": 3}})
    with _pytest.raises(ValueError):
        ReconcileConfig.from_dict({"blocked": {}})
    # the removed execution-mode section fails loudly, not silently
    with _pytest.raises(ValueError, match="exec"):
        ReconcileConfig.from_dict({"exec": {"extract_batch_size": 256}})


def test_cli_reconcile_from_parquet(ray_session, corpus, tmp_path, capsys):
    """CLI path: corpus Parquet in -> (url, cluster_id) Parquet out,
    identical clusters to the in-memory pipeline.  An input rewritten
    in place under the same checkpoint root starts over: its stages
    are not resumed from the old data."""
    import json

    import pyarrow.parquet as pq
    import ray.data as rd

    from reconcile_curation_in_cris_systems_ray.cli import main

    src = tmp_path / "corpus"
    src.mkdir()
    pages = corpus.drop_columns(["text", "cluster_id"])
    ckpt = str(tmp_path / "ckpt")

    def run(tbl, dst):
        pq.write_table(tbl, src / "part-0.parquet")
        capsys.readouterr()
        rc = main(["reconcile", "--input", str(src), "--output", str(dst),
                   "--checkpoint-root", ckpt])
        assert rc == 0
        metrics = json.loads(capsys.readouterr().out.strip()
                             .splitlines()[-1])
        back = rd.read_parquet(str(dst))
        return metrics, {r["url"]: r["cluster_id"] for r in back.take_all()}

    run(pages.slice(0, pages.num_rows // 2), tmp_path / "first")
    metrics, a_cli = run(pages, tmp_path / "assignments")
    stages = {s["stage"]: s for s in metrics["stages"]}
    assert not stages["extracted"]["resumed"]
    assert sorted(a_cli) == sorted(pages.column("url").to_pylist())
    out = run_reconcile(rd.from_arrow(corpus))
    a_mem = {r["url"]: r["cluster_id"] for r in out["assignments"].take_all()}
    assert a_cli == a_mem


def _delta_split(corpus):
    """A deterministic ~20% delta, split orthogonal to families so many
    delta pages must join existing base clusters: ``(base, delta)``."""
    import numpy as np

    from reconcile_curation_in_cris_systems_ray.functions.similarity import (
        stable_hash_strings,
    )

    urls = np.asarray(corpus.column("url").to_pylist(), dtype=object)
    is_delta = stable_hash_strings(urls) % np.uint64(5) == 0
    return corpus.filter(~is_delta), corpus.filter(is_delta)


@pytest.mark.parametrize("case", ["default", "sharded", "cc_rounds",
                                  "salting"])
def test_incremental_equals_full_run(ray_session, corpus, monkeypatch, case):
    """Delta linkage against a base run must produce the SAME clustering
    as a from-scratch run over base+delta (url->cluster identical): by
    default, with the lookups forced into at least four shards
    (``lookup.LOOKUP_BYTES``), with the contraction rounds forced
    (``driver_finish_edges=0``) and with delta pages joining the giant
    family, whose band keys are then salted inside the link
    (``hot_key_cap=8``)."""
    import numpy as np
    import ray.data as rd

    from reconcile_curation_in_cris_systems_ray.config import ClusterConfig
    from reconcile_curation_in_cris_systems_ray.pipelines.incremental import (
        run_incremental,
    )
    from reconcile_curation_in_cris_systems_ray.stages import (
        lookup, pairs as pmod,
    )

    cfg = {
        "salting": ReconcileConfig(blocking=BlockingConfig(hot_key_cap=8)),
        "cc_rounds": ReconcileConfig(
            cluster=ClusterConfig(driver_finish_edges=0)),
    }.get(case, ReconcileConfig())
    base_tbl, delta_tbl = _delta_split(corpus)
    assert 0 < delta_tbl.num_rows < corpus.num_rows
    if case == "salting":
        # the giant family (CORPUS_CFG.giant_family_variants) has pages
        # on both sides of the split
        fam = corpus.column("cluster_id").to_numpy()
        giant = int(np.bincount(fam).argmax())
        assert giant in delta_tbl.column("cluster_id").to_pylist()
        assert giant in base_tbl.column("cluster_id").to_pylist()
    if case == "sharded":
        monkeypatch.setattr(lookup, "LOOKUP_BYTES", SHARDED_BYTES)

    base = run_reconcile(rd.from_arrow(base_tbl), cfg)
    hot = []
    exchange = pmod.pair_exchange

    def hot_spy(band_refs, hot_keys, *args):
        hot.append(hot_keys)
        return exchange(band_refs, hot_keys, *args)

    monkeypatch.setattr(pmod, "pair_exchange", hot_spy)
    inc = run_incremental(base["features"], base["assignments"],
                          rd.from_arrow(delta_tbl), cfg)
    got = {r["url"]: r["cluster_id"]
           for r in inc["assignments"].take_all()}
    monkeypatch.setattr(pmod, "pair_exchange", exchange)

    full = run_reconcile(rd.from_arrow(corpus), cfg)
    want = {r["url"]: r["cluster_id"]
            for r in full["assignments"].take_all()}
    assert len(got) == corpus.num_rows
    assert got == want
    # the delta actually linked into base clusters (non-vacuous)
    assert inc["metrics"]["delta_edges"] > 0
    # each case reaches the path it forces
    assert (inc["metrics"]["lookup_shards"] >= 4) == (case == "sharded")
    assert (inc["metrics"]["cc_rounds"] > 0) == (case == "cc_rounds")
    assert len(hot) == 1
    salted = [c for c in hot[0].values() if c <= pmod.MAX_SIDE]
    assert bool(salted) == (case == "salting")


def test_incremental_rejects_delta_url_already_in_base(ray_session, corpus):
    """Re-sending base pages as a delta must fail loudly, naming a
    repeated url, instead of returning two assignment rows per url."""
    import re

    import ray.data as rd

    from reconcile_curation_in_cris_systems_ray.pipelines.incremental import (
        run_incremental,
    )

    base = run_reconcile(rd.from_arrow(corpus))
    resent = corpus.slice(0, 5)
    repeated = "|".join(map(re.escape, resent.column("url").to_pylist()))
    with pytest.raises(ValueError, match=repeated):
        run_incremental(base["features"], base["assignments"],
                        rd.from_arrow(resent))


def _with_url(tbl, urls):
    import pyarrow as pa

    i = tbl.schema.get_field_index("url")
    return tbl.set_column(i, tbl.schema.field(i),
                          pa.array(urls, tbl.schema.field(i).type))


def test_flagship_rejects_url_listed_twice(ray_session, corpus, monkeypatch):
    """A url given a second page must fail loudly, naming it, on one
    lookup shard and on several: the feature lookup keeps one row per
    url, so the second page would be scored as the first and the url
    assigned twice."""
    import re

    import pyarrow as pa
    import ray.data as rd

    from reconcile_curation_in_cris_systems_ray.stages import lookup

    url = corpus.column("url")[0].as_py()
    twice = pa.concat_tables([corpus, _with_url(corpus.slice(1, 1), [url])])
    with pytest.raises(ValueError, match=re.escape(url)):
        run_reconcile(rd.from_arrow(twice))
    # sharded: the url's two pages hash to one shard, whose size counts
    # the url once
    monkeypatch.setattr(lookup, "LOOKUP_BYTES", SHARDED_BYTES)
    with pytest.raises(ValueError, match=re.escape(url)):
        run_reconcile(rd.from_arrow(twice))


def test_incremental_rejects_url_listed_twice_in_delta(ray_session, corpus):
    """A delta that lists one new url twice must fail loudly, naming
    it, instead of assigning the url twice."""
    import re

    import ray.data as rd

    from reconcile_curation_in_cris_systems_ray.pipelines.incremental import (
        run_incremental,
    )

    base = run_reconcile(rd.from_arrow(corpus.slice(2)))
    url = corpus.column("url")[0].as_py()
    delta = _with_url(corpus.slice(0, 2), [url, url])
    with pytest.raises(ValueError, match=re.escape(url)):
        run_incremental(base["features"], base["assignments"],
                        rd.from_arrow(delta))


def _with_empty_block(tbl):
    """``tbl`` as a dataset whose first block has no rows and no
    columns — what a map over an emptied input block yields."""
    import ray
    import ray.data as rd

    ds = rd.from_arrow([tbl.slice(0, 0), tbl]).map_batches(
        lambda t: t, batch_format="pyarrow").materialize()
    assert min(t.num_rows for t in ray.get(ds.to_arrow_refs())) == 0
    return ds


def test_empty_blocks_through_full_and_incremental_run(ray_session, corpus):
    """A base and a delta that each carry a 0-row, column-less block
    must reconcile to the same assignments as the same inputs without
    it (the lookup builders skip empty blocks)."""
    import ray.data as rd

    from reconcile_curation_in_cris_systems_ray.pipelines.incremental import (
        run_incremental,
    )

    base_tbl, delta_tbl = _delta_split(corpus)

    def run(base_ds, delta_ds):
        base = run_reconcile(base_ds)
        got_base = {r["url"]: r["cluster_id"]
                    for r in base["assignments"].take_all()}
        inc = run_incremental(base["features"], base["assignments"],
                              delta_ds)
        return got_base, {r["url"]: r["cluster_id"]
                          for r in inc["assignments"].take_all()}

    want = run(rd.from_arrow(base_tbl), rd.from_arrow(delta_tbl))
    got = run(_with_empty_block(base_tbl), _with_empty_block(delta_tbl))
    assert len(got[1]) == corpus.num_rows
    assert got == want


def _pages(urls: list[str], htmls: list[bytes]):
    """Corpus rows with the given urls and raw html bytes; each gets its
    own ground-truth cluster id and an empty ``text`` column."""
    import numpy as np
    import pyarrow as pa

    from reconcile_curation_in_cris_systems_ray.sources.corpus import (
        CORPUS_SCHEMA,
    )

    n = len(urls)
    return pa.table({
        "url": urls,
        "warc_ts": np.full(n, np.datetime64("2024-03-01", "us")),
        "html": htmls,
        "text": [""] * n,
        "lang": ["en"] * n,
        "cluster_id": np.arange(n, dtype=np.int64) + 10**9,
    }, schema=CORPUS_SCHEMA)


def _blank_pages(n: int, prefix: str):
    """``n`` corpus rows whose html has an empty body: their text yields
    no shingles, so they all get the same sentinel MinHash signature."""
    return _pages(
        [f"https://blank.example/{prefix}/{i:05d}" for i in range(n)],
        [b"<html><body></body></html>"] * n)


def test_shingle_less_pages_emit_no_candidate_pairs(ray_session, corpus):
    """2,500 pages with no shingles share every band key; they must not
    become a 3M-pair candidate clique.  Added to the gate corpus, they
    leave ``candidate_pairs`` and the corpus's assignments unchanged and
    each gets its own singleton cluster; as an incremental delta they
    touch no band and link nothing."""
    import pyarrow as pa
    import ray.data as rd

    from reconcile_curation_in_cris_systems_ray.pipelines.incremental import (
        run_incremental,
    )

    def assigned(ds):
        rows = ds.take_all()
        got = {r["url"]: r["cluster_id"] for r in rows}
        assert len(got) == len(rows)  # every url assigned once
        return got

    blank = _blank_pages(2500, "base")
    alone = run_reconcile(rd.from_arrow(corpus))
    want = assigned(alone["assignments"])
    mixed = run_reconcile(rd.from_arrow(pa.concat_tables([corpus, blank])))
    assert (mixed["metrics"]["candidate_pairs"]
            == alone["metrics"]["candidate_pairs"])
    got = assigned(mixed["assignments"])
    assert len(got) == corpus.num_rows + blank.num_rows
    assert {u: got[u] for u in want} == want
    assert all(got[u] == u for u in blank.column("url").to_pylist())

    delta = _blank_pages(2500, "delta")
    inc = run_incremental(alone["features"], alone["assignments"],
                          rd.from_arrow(delta))
    assert inc["metrics"]["touched_bands"] == 0
    assert inc["metrics"]["delta_edges"] == 0
    got = assigned(inc["assignments"])
    assert len(got) == corpus.num_rows + delta.num_rows
    assert {u: got[u] for u in want} == want
    assert all(got[u] == u for u in delta.column("url").to_pylist())


def test_empty_corpus_gives_no_assignments(ray_session, corpus):
    """A corpus with no pages reconciles to no assignments (every
    exchange and lookup builder sees only empty blocks) instead of
    failing on a missing column."""
    import ray.data as rd

    out = run_reconcile(rd.from_arrow(corpus.slice(0, 0)))
    assert out["assignments"].take_all() == []


def test_single_page_corpus_and_delta(ray_session, corpus):
    """One page: a 1-page corpus reconciles to one singleton assignment,
    and a 1-page delta links to what a full run over base + delta
    assigns (its new-url lookup holds one row)."""
    import numpy as np
    import ray.data as rd

    from reconcile_curation_in_cris_systems_ray.pipelines.incremental import (
        run_incremental,
    )

    urls = corpus.column("url").to_pylist()
    out = run_reconcile(rd.from_arrow(corpus.slice(0, 1)))
    assert out["assignments"].take_all() == [
        {"url": urls[0], "cluster_id": urls[0]}]

    # the delta page has family members in the base, so it must link
    fam = corpus.column("cluster_id").to_numpy()
    row = int(np.flatnonzero(np.bincount(fam)[fam] > 1)[0])
    is_delta = np.arange(corpus.num_rows) == row
    base = run_reconcile(rd.from_arrow(corpus.filter(~is_delta)))
    inc = run_incremental(base["features"], base["assignments"],
                          rd.from_arrow(corpus.filter(is_delta)))
    assert inc["metrics"]["delta_rows"] == 1
    assert inc["metrics"]["delta_edges"] > 0
    got = {r["url"]: r["cluster_id"]
           for r in inc["assignments"].take_all()}
    full = run_reconcile(rd.from_arrow(corpus))
    want = {r["url"]: r["cluster_id"]
            for r in full["assignments"].take_all()}
    assert len(got) == corpus.num_rows
    assert got == want


def test_incremental_narrow_mode_equals_full_run(ray_session, corpus,
                                                 monkeypatch):
    """Force the NARROW incremental path (16B band_hash-only rows +
    touched-band filter + pair-key dedup): every band row block of the
    link carries no ``bands`` column, and the clustering still equals
    a from-scratch run over base+delta."""
    import ray
    import ray.data as rd

    from reconcile_curation_in_cris_systems_ray.pipelines import incremental

    monkeypatch.setattr(incremental, "NARROW_THRESHOLD", 0)
    columns = []
    exploded = incremental.exploded_pairs

    def spy(outs, *args):
        columns.extend(b.schema.names for b in ray.get([r for r, _ in outs]))
        return exploded(outs, *args)

    monkeypatch.setattr(incremental, "exploded_pairs", spy)

    base_tbl, delta_tbl = _delta_split(corpus)
    base = run_reconcile(rd.from_arrow(base_tbl))
    inc = incremental.run_incremental(
        base["features"], base["assignments"], rd.from_arrow(delta_tbl))
    got = {r["url"]: r["cluster_id"]
           for r in inc["assignments"].take_all()}
    assert columns and all(c == ["band_hash", "uh"] for c in columns)
    full = run_reconcile(rd.from_arrow(corpus))
    want = {r["url"]: r["cluster_id"]
            for r in full["assignments"].take_all()}
    assert got == want


@pytest.mark.parametrize("case", ["default", "cc_rounds"])
def test_incremental_launches_no_ray_data_execution(ray_session, corpus,
                                                    monkeypatch, case):
    """A link over a materialized base run and delta launches no Ray
    Data execution: it runs the flagship's bare tasks over block refs,
    and reading its assignments launches none.  So do the contraction
    rounds, forced with ``driver_finish_edges=0``."""
    import ray.data as rd

    from reconcile_curation_in_cris_systems_ray.config import ClusterConfig
    from reconcile_curation_in_cris_systems_ray.pipelines.incremental import (
        run_incremental,
    )

    cfg = ReconcileConfig(cluster=ClusterConfig(driver_finish_edges=0)) \
        if case == "cc_rounds" else ReconcileConfig()
    base_tbl, delta_tbl = _delta_split(corpus)
    base = run_reconcile(rd.from_arrow(base_tbl), cfg)
    delta = rd.from_arrow(delta_tbl)
    calls = _count_executions(monkeypatch)
    inc = run_incremental(base["features"], base["assignments"], delta, cfg)
    assert len(inc["assignments"].take_all()) == corpus.num_rows
    assert inc["delta_features"].count() == delta_tbl.num_rows
    assert len(calls) == 0
    assert (inc["metrics"]["cc_rounds"] > 0) == (case == "cc_rounds")


def test_flagship_narrow_mode_f1(ray_session, corpus, monkeypatch):
    """Force the flagship's NARROW band path (no band vectors, pair-key
    dedup exchange, task shuffle) on the small corpus: F1 gate must
    still hold and pair sets stay canonical-unique."""
    import ray.data as rd

    from reconcile_curation_in_cris_systems_ray.pipelines import (
        reconcile as rmod,
    )

    monkeypatch.setattr(rmod, "NARROW_THRESHOLD", 0)
    out = rmod.run_reconcile(rd.from_arrow(corpus))
    assigns = out["assignments"].take_all()
    f1, prec, rec = _pairwise_f1(assigns, true_pairs(corpus))
    assert f1 >= 0.99, (f1, prec, rec)
    keys = [(r["uh_a"], r["uh_b"]) for r in out["pairs"].take_all()]
    assert len(keys) == len(set(keys))
    assert all(a < b for a, b in keys)


def test_partial_resume_recomputes_only_invalidated_stage(
        ray_session, corpus, tmp_path):
    """Mid-pipeline resume: wipe ONE stage's checkpoint; the rerun must
    reuse every stage upstream of it, rebuild the wiped stage and its
    descendants, and produce identical assignments (north-rule
    'resumes mid-pipeline' evidence beyond the full-resume test)."""
    import shutil

    import ray.data as rd

    root = str(tmp_path / "ckpt")
    out1 = run_reconcile(rd.from_arrow(corpus), checkpoint_root=root,
                         input_fingerprint="corpus-v1")
    a1 = {r["url"]: r["cluster_id"] for r in out1["assignments"].take_all()}

    shutil.rmtree(f"{root}/pairs")          # invalidate one mid stage
    out2 = run_reconcile(rd.from_arrow(corpus), checkpoint_root=root,
                         input_fingerprint="corpus-v1")
    a2 = {r["url"]: r["cluster_id"] for r in out2["assignments"].take_all()}
    assert a1 == a2

    by_name = {s["stage"]: s for s in out2["metrics"]["stages"]}
    assert by_name["features"].get("resumed") is True
    assert not by_name["pairs"].get("resumed")


def test_flagship_crash_after_pairs_resumes_to_identical_assignments(
        ray_session, corpus, tmp_path, monkeypatch):
    """Round-5 (verdict task 6): KILL the flagship right after the
    pairs checkpoint commits (injected failure at the start of the
    edge stage, where the score tasks launch), then resume with a fresh run_reconcile on the same
    root: extracted/features/pairs must come back from their Parquet
    checkpoints (resumed=True), edges+CC+assignments recompute, and
    the final assignments equal an uncheckpointed reference run —
    end-to-end kill-resume beyond the CC-round test in
    test_cluster.py (north-rule resumability evidence)."""
    import os

    import ray.data as rd

    from reconcile_curation_in_cris_systems_ray.pipelines import (
        reconcile as rmod,
    )

    ref = run_reconcile(rd.from_arrow(corpus))
    a_ref = {r["url"]: r["cluster_id"]
             for r in ref["assignments"].take_all()}

    root = str(tmp_path / "ckpt")
    real = rmod.score_blocks

    def boom(*a, **k):
        raise RuntimeError("injected crash after pairs checkpoint")

    monkeypatch.setattr(rmod, "score_blocks", boom)
    with pytest.raises(RuntimeError, match="injected crash"):
        run_reconcile(rd.from_arrow(corpus), checkpoint_root=root,
                      input_fingerprint="corpus-v2")
    monkeypatch.setattr(rmod, "score_blocks", real)

    # the kill landed after pairs committed, before edges existed
    for st in ("extracted", "features", "pairs"):
        assert os.path.exists(os.path.join(root, st, "manifest.json")), st
    assert not os.path.exists(os.path.join(root, "edges"))

    out = run_reconcile(rd.from_arrow(corpus), checkpoint_root=root,
                        input_fingerprint="corpus-v2")
    by_name = {s["stage"]: s for s in out["metrics"]["stages"]}
    for st in ("extracted", "features", "pairs"):
        assert by_name[st].get("resumed") is True, st
    assert not by_name["edges"].get("resumed")
    assert not by_name["assignments"].get("resumed")
    a2 = {r["url"]: r["cluster_id"]
          for r in out["assignments"].take_all()}
    assert a2 == a_ref


def test_identical_pages_above_max_side_take_the_clique_guard(ray_session):
    """2,100 byte-identical pages share every band key, a group larger
    than ``MAX_SIDE``.  Salting must not split it below the guard: the
    pair stage emits the star + chain (at most ``CHAIN_WINDOW + 1``
    pairs per page) instead of the C(2100, 2) = 2,203,950-pair clique,
    and the pages still form one cluster named by the minimum url."""
    import ray.data as rd

    from reconcile_curation_in_cris_systems_ray.stages.pairs import (
        CHAIN_WINDOW, MAX_SIDE,
    )

    n = 2100
    assert n > MAX_SIDE
    body = " ".join(f"word{i % 97} token{i % 89}" for i in range(120))
    html = f"<html><body><main><p>{body}</p></main></body></html>".encode()
    pages = _pages([f"https://same.example/p/{i:05d}" for i in range(n)],
                   [html] * n)
    out = run_reconcile(rd.from_arrow(pages))
    assert out["metrics"]["candidate_pairs"] <= (CHAIN_WINDOW + 1) * n
    rows = out["assignments"].take_all()
    assert len(rows) == n
    assert {r["cluster_id"] for r in rows} == {
        min(pages.column("url").to_pylist())}


@pytest.mark.parametrize("twins", [True, False])
@pytest.mark.parametrize("mode", ["streamed", "checkpoint", "sharded"])
def test_exchange_buckets_left_empty(ray_session, tmp_path, monkeypatch,
                                     mode, twins):
    """Three pages with one band have at most three band keys, so at
    least one of the pair exchange's four buckets receives no rows.  Their outputs must not break the
    checkpointed ``pairs`` stage or the sharded lookups (a budget of a
    quarter of the features' bytes: shard-pair groups and shards that
    get no rows), with pairs (``twins``: one cluster named by the
    minimum url) or with none (three singletons)."""
    import ray.data as rd

    from reconcile_curation_in_cris_systems_ray.stages import lookup
    from reconcile_curation_in_cris_systems_ray.stages.shuffle import (
        effective_buckets,
    )

    cfg = ReconcileConfig(blocking=BlockingConfig(num_bands=1))
    assert effective_buckets(cfg.blocking.num_buckets) > 3
    urls = [f"https://same.example/p/{i}" for i in (2, 0, 1)]
    htmls = []
    for k in range(3):
        words = " ".join(f"word{(i * (1 if twins else k + 2)) % 97} "
                         f"token{i % 89}" for i in range(120))
        htmls.append(
            f"<html><body><main><p>{words}</p></main></body></html>".encode())
    pages = _pages(urls, htmls)
    kwargs = {}
    if mode == "checkpoint":
        kwargs = {"checkpoint_root": str(tmp_path / "ckpt"),
                  "input_fingerprint": "three-pages"}
    want = {u: min(urls) if twins else u for u in urls}
    for run in range(2 if mode != "streamed" else 1):
        if mode == "sharded" and run:
            monkeypatch.setattr(lookup, "LOOKUP_BYTES",
                                -(-out["features"].size_bytes() // 4))
        out = run_reconcile(rd.from_arrow(pages), cfg, **kwargs)
        assert out["metrics"]["candidate_pairs"] == (3 if twins else 0)
        assert (out["metrics"]["lookup_shards"] >= 4) == (
            mode == "sharded" and run == 1)
        got = {r["url"]: r["cluster_id"]
               for r in out["assignments"].take_all()}
        assert got == want
    if mode == "checkpoint":
        by_name = {s["stage"]: s for s in out["metrics"]["stages"]}
        assert by_name["pairs"].get("resumed") is True


def test_damaged_html_pages_mixed_into_the_gate_corpus(ray_session, corpus):
    """Pages whose html is invalid UTF-8, truncated mid-tag or zero
    bytes, mixed into the gate corpus: every url is assigned exactly
    once, two byte-identical damaged pages share a cluster, and the
    gate corpus's own pairs score the same F1 as without them."""
    import pyarrow as pa
    import ray.data as rd

    body = " ".join(f"damaged{i % 53} page{i % 41} text{i}"
                    for i in range(80)).encode()
    bad_utf8 = b"<html><body><p>" + body + b" \xff\xfe\xc3\x28 \xed\xa0\x80 " \
        + body[::-1] + b"</p></body></html>"
    truncated = b"<html><body><main><p>" + body + b"</p><div class=\"na"
    htmls = [bad_utf8, bad_utf8, truncated, truncated, b"", b""]
    damaged = _pages([f"https://damaged.example/d/{i}"
                      for i in range(len(htmls))], htmls)

    alone = run_reconcile(rd.from_arrow(corpus))
    f1_alone = _pairwise_f1(alone["assignments"].take_all(),
                            true_pairs(corpus))
    mixed = run_reconcile(rd.from_arrow(pa.concat_tables([corpus, damaged])))
    rows = mixed["assignments"].take_all()
    got = {r["url"]: r["cluster_id"] for r in rows}
    assert len(got) == len(rows) == corpus.num_rows + damaged.num_rows

    urls = damaged.column("url").to_pylist()
    assert got[urls[0]] == got[urls[1]] == urls[0]     # invalid UTF-8 twins
    assert got[urls[2]] == got[urls[3]] == urls[2]     # truncated twins
    assert got[urls[0]] != got[urls[2]]
    assert got[urls[4]] == urls[4] and got[urls[5]] == urls[5]  # no text

    gate = set(corpus.column("url").to_pylist())
    f1_mixed = _pairwise_f1([r for r in rows if r["url"] in gate],
                            true_pairs(corpus))
    assert f1_mixed == f1_alone


def _count_executions(monkeypatch) -> list:
    """A list that grows by one per Ray Data execution from here on."""
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor,
    )

    calls = []
    real = StreamingExecutor.execute

    def counting(self, *args, **kwargs):
        calls.append(1)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counting)
    return calls


@pytest.mark.parametrize("case", ["default", "cc_rounds"])
def test_no_ray_data_execution_per_run(ray_session, corpus, monkeypatch,
                                       case):
    """An uncheckpointed run over an in-memory corpus launches no Ray Data
    execution: the features run as grouped bare tasks over the corpus
    blocks, everything after them as bare tasks too, and reading the
    returned pairs and assignments launches none.  So do the
    contraction rounds, forced with ``driver_finish_edges=0``."""
    import ray.data as rd

    from reconcile_curation_in_cris_systems_ray.config import ClusterConfig

    cfg = ReconcileConfig(cluster=ClusterConfig(driver_finish_edges=0)) \
        if case == "cc_rounds" else ReconcileConfig()
    calls = _count_executions(monkeypatch)
    out = run_reconcile(rd.from_arrow(corpus), cfg)
    assert out["assignments"].take_all()
    assert out["pairs"].take_all()
    out["assignments"].materialize().to_arrow_refs()
    assert len(calls) == 0
    cc = next(s for s in out["metrics"]["stages"]
              if s["stage"] == "score+components")
    assert (cc["rounds"] > 0) == (case == "cc_rounds")


def test_lazy_corpus_launches_one_execution(ray_session, corpus, tmp_path,
                                           monkeypatch):
    """A lazy ``read_parquet`` corpus costs one Ray Data execution, its
    read, and reconciles to the in-memory run's assignments."""
    import pyarrow.parquet as pq
    import ray.data as rd

    half = corpus.num_rows // 2
    for i, part in enumerate((corpus.slice(0, half), corpus.slice(half))):
        pq.write_table(part, tmp_path / f"part-{i}.parquet")
    want = {r["url"]: r["cluster_id"] for r in
            run_reconcile(rd.from_arrow(corpus))["assignments"].take_all()}
    calls = _count_executions(monkeypatch)
    out = run_reconcile(rd.read_parquet(str(tmp_path)))
    got = {r["url"]: r["cluster_id"] for r in out["assignments"].take_all()}
    assert len(calls) == 1
    assert got == want


def test_resumed_features_read_none_of_the_corpus(ray_session, corpus,
                                                  tmp_path):
    """A checkpointed run that resumes its features reads none of the
    corpus: a lazy input whose Parquet file is gone by then still
    resumes to the first run's assignments."""
    import pyarrow.parquet as pq
    import ray.data as rd

    src = tmp_path / "corpus"
    src.mkdir()
    pq.write_table(corpus, src / "part-0.parquet")
    kwargs = {"checkpoint_root": str(tmp_path / "ckpt"),
              "input_fingerprint": "lazy-corpus"}
    first = run_reconcile(rd.read_parquet(str(src)), **kwargs)
    want = {r["url"]: r["cluster_id"] for r in first["assignments"].take_all()}
    lazy = rd.read_parquet(str(src))
    (src / "part-0.parquet").unlink()
    again = run_reconcile(lazy, **kwargs)
    got = {r["url"]: r["cluster_id"] for r in again["assignments"].take_all()}
    assert got == want
    stages = {s["stage"]: s for s in again["metrics"]["stages"]}
    assert stages["features"]["resumed"] is True


@pytest.mark.parametrize("n_blocks", [1, 24])
def test_features_equal_the_dataset_composition(ray_session, corpus,
                                                n_blocks):
    """The grouped feature tasks give byte-identical features to the
    ``_extract_task`` -> ``_signature_task`` Dataset composition, over a
    1-block corpus and over ``test_block_counts_follow_bucket_count``'s
    24 blocks."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray
    import ray.data as rd

    from reconcile_curation_in_cris_systems_ray.pipelines.reconcile import (
        _extract_task, _signature_task,
    )

    n = corpus.num_rows
    bounds = [i * n // n_blocks for i in range(n_blocks + 1)]
    ds = rd.from_arrow([corpus.slice(lo, hi - lo)
                        for lo, hi in zip(bounds, bounds[1:])])
    cfg = ReconcileConfig()

    def table(d):
        t = pa.concat_tables(ray.get(d.to_arrow_refs()))
        return t.take(pc.sort_indices(t, [("url", "ascending")])) \
            .combine_chunks()

    got = table(run_reconcile(ds, cfg)["features"])
    want = table(ds.select_columns(["url", "warc_ts", "html", "lang"])
                 .map_batches(_extract_task, batch_format="pyarrow")
                 .map_batches(_signature_task, batch_format="pyarrow",
                              fn_kwargs={"blocking": cfg.blocking})
                 .materialize())
    assert got.num_rows == n
    assert got.equals(want)


def _odd_pages():
    """Pages that take the extractor's slow paths: a null html (an
    extraction error), a ``<![CDATA[`` section and invalid UTF-8 (both
    deferred to the per-page scanner)."""
    import pyarrow as pa

    odd = _pages(["https://odd.example/cdata", "https://odd.example/latin1",
                  "https://odd.example/none"],
                 [b"<p>kept <![CDATA[x]]> text of the first odd page</p>",
                  b"<p>caf\xe9 au lait, the second odd page</p>", b""])
    i = odd.schema.get_field_index("html")
    return odd.set_column(i, "html", pa.array(
        odd.column("html").to_pylist()[:2] + [None], pa.binary()))


def _feature_layouts(pages, engine_blocks):
    """``{name: blocks}``: the layouts a feature task must treat alike."""
    import pyarrow as pa

    n = pages.num_rows
    one_page = [pages.slice(i, 1) for i in range(n)]
    interleaved = [b for blk in engine_blocks for b in (pa.table({}), blk)]
    interleaved.append(pa.table({}))
    html = pages.schema.get_field_index("html")

    def retyped(block, t):
        try:
            col = block.column("html").cast(t)
        except pa.ArrowInvalid:  # not UTF-8: stays binary
            return block
        return block.set_column(html, "html", col)

    types = [pa.string(), pa.large_string(), pa.binary()]
    bounds = [i * n // 9 for i in range(10)]
    mixed = [retyped(pages.slice(lo, hi - lo), types[i % 3])
             for i, (lo, hi) in enumerate(zip(bounds, bounds[1:]))]
    return {"one_block": [pages], "engine_blocks": engine_blocks,
            "one_page_blocks": one_page, "interleaved_empty": interleaved,
            "mixed_html_types": mixed}


@pytest.mark.parametrize("run_bytes", [None, 20_000])
def test_feature_runs_are_layout_independent(ray_session, corpus,
                                             monkeypatch, run_bytes):
    """A feature task cuts its blocks into runs (concatenating small
    blocks, slicing one above ``RUN_BYTES``) and gives the one-block
    features byte for byte, with the same error and deferred counts and
    matching block metadata, for every layout: the engine's own blocks,
    1-page blocks, blocks between column-less 0-row blocks, blocks whose
    html is string, large_string or binary, and the checkpointed path's
    extracted blocks (``cols`` None).  A group of empty blocks only
    gives the typed 0-row features table."""
    import pyarrow as pa
    import ray

    from reconcile_curation_in_cris_systems_ray.pipelines import (
        reconcile as rmod,
    )
    from reconcile_curation_in_cris_systems_ray.sources.corpus import (
        CORPUS_SCHEMA, corpus_dataset,
    )

    cols = ["url", "warc_ts", "html", "lang"]
    blocking = ReconcileConfig().blocking
    pages = pa.concat_tables([corpus, _odd_pages()]).select(cols)
    want, _, errors, deferred = rmod._feature_group(cols, blocking, True,
                                                    pages)
    want = _by_url(want)
    assert (errors, deferred) == (1, 3)
    engine = ray.get(corpus_dataset(CORPUS_CFG).materialize()
                     .to_arrow_refs())
    engine = [b.select(cols) for b in engine] + [_odd_pages().select(cols)]
    if run_bytes is not None:
        # several runs per task: blocks are sliced and concatenated
        monkeypatch.setattr(rmod, "RUN_BYTES", run_bytes)
        assert len(rmod._runs([pages], "html")) > 2

    def check(out, want_deferred):
        got, meta, n_err, n_def = out
        assert _by_url(got).equals(want)
        assert (meta.num_rows, meta.schema) == (got.num_rows, got.schema)
        assert (n_err, n_def) == (errors, want_deferred)

    for blocks in _feature_layouts(pages, engine).values():
        check(rmod._feature_group(cols, blocking, True, *blocks), deferred)
        # the checkpointed path: the same layout, extracted block by block
        extracted = [rmod._feature_group(cols, blocking, False, b)[0]
                     if b.num_rows else b for b in blocks]
        check(rmod._feature_group(None, blocking, True, *extracted), 0)
    for empties in ([pa.table({})],
                    [pa.table({}), CORPUS_SCHEMA.empty_table()]):
        for group_cols in (cols, None):
            got, meta, n_err, n_def = rmod._feature_group(
                group_cols, blocking, True, *empties)
            assert got.num_rows == meta.num_rows == n_err == n_def == 0
            assert got.schema.equals(want.schema)


def _by_url(table):
    """``table`` sorted by url, in one chunk per column."""
    import pyarrow.compute as pc

    return table.take(pc.sort_indices(table, [("url", "ascending")])) \
        .combine_chunks()


def test_feature_layouts_through_the_run(ray_session, corpus, tmp_path):
    """``run_reconcile`` over 1-page blocks, blocks between column-less
    0-row blocks and blocks of string, large_string and binary html
    gives the features and counts of a 1-block corpus, uncheckpointed and
    checkpointed (the features then built from the extracted stage)."""
    import pyarrow as pa
    import ray

    from reconcile_curation_in_cris_systems_ray.stages import (
        block_meta, blocks_dataset,
    )

    pages = pa.concat_tables([corpus, _odd_pages()])

    def dataset(blocks):
        return blocks_dataset([ray.put(b) for b in blocks],
                              [block_meta(b) for b in blocks])

    def run(blocks, **kwargs):
        out = run_reconcile(dataset(blocks), **kwargs)
        m = out["metrics"]
        return (_by_url(pa.concat_tables(
                    ray.get(out["features"].to_arrow_refs()))),
                m["extract_errors"], m["extract_deferred"])

    want = run([pages])
    assert want[1:] == (1, 3)
    layouts = _feature_layouts(pages, [pages])
    # the mixed-type blocks, each behind a column-less 0-row block
    mixed = [b for blk in layouts["mixed_html_types"]
             for b in (pa.table({}), blk)]
    for i, layout in enumerate((mixed, layouts["one_page_blocks"])):
        got = run(layout)
        assert got[0].equals(want[0]) and got[1:] == want[1:]
        got = run(layout, checkpoint_root=str(tmp_path / f"ckpt{i}"),
                  input_fingerprint=f"layout-{i}")
        assert got[0].equals(want[0]) and got[1:] == want[1:]


def test_blocks_dataset_equals_from_arrow_refs(ray_session, corpus,
                                               monkeypatch):
    """The features, pairs (also the typed 0-row pairs block of a
    corpus with no pairs) and assignments that ``run_reconcile`` and
    ``run_incremental`` return, wrapped from task-side block metadata
    with no ``rd.from_arrow_refs`` call, equal
    ``rd.from_arrow_refs(refs).materialize()`` in every field a
    consumer reads.  ``blocks_dataset`` builds on Ray internals, so a
    Ray upgrade that changes them fails here."""
    import ray.data as rd
    from ray.data import read_api

    from reconcile_curation_in_cris_systems_ray.pipelines.incremental import (
        run_incremental,
    )

    real = rd.from_arrow_refs
    # the inputs are made first: rd.from_arrow calls from_arrow_refs
    base_ds, delta_ds, single_ds = (rd.from_arrow(t) for t in (
        *_delta_split(corpus), corpus.slice(0, 1)))

    def boom(*args, **kwargs):
        raise AssertionError("rd.from_arrow_refs called")

    monkeypatch.setattr(rd, "from_arrow_refs", boom)
    monkeypatch.setattr(read_api, "from_arrow_refs", boom)
    base = run_reconcile(base_ds)
    link = run_incremental(base["features"], base["assignments"], delta_ds)
    single = run_reconcile(single_ds)
    monkeypatch.undo()
    assert single["pairs"].count() == 0
    datasets = [base["features"], base["pairs"], base["assignments"],
                link["delta_features"], link["assignments"],
                single["pairs"], single["assignments"]]
    for ds in datasets:
        want = real(ds.to_arrow_refs()).materialize()
        assert ds.count() == want.count()
        assert ds.num_blocks() == want.num_blocks()
        assert ds.schema() == want.schema()
        assert ds.size_bytes() == want.size_bytes()
        assert ds.to_arrow_refs() == want.to_arrow_refs()
        assert ds.take_all() == want.take_all()


def test_extraction_errors_are_counted(ray_session, corpus, tmp_path):
    """A page with no html fails extraction: the run counts it in its
    metrics and in the ``features`` lineage entry (also when a
    checkpointed run resumes the stage), and the page still gets its
    singleton assignment."""
    import pyarrow as pa
    import ray.data as rd

    bad = _pages(["https://broken.example/none"], [b""])
    bad = bad.set_column(bad.schema.get_field_index("html"), "html",
                         pa.array([None], pa.binary()))
    pages = pa.concat_tables([corpus, bad])
    kwargs = {"checkpoint_root": str(tmp_path / "ckpt"),
              "input_fingerprint": "one-broken-page"}
    for run_kwargs in ({}, kwargs, kwargs):
        out = run_reconcile(rd.from_arrow(pages), **run_kwargs)
        stages = {s["stage"]: s for s in out["metrics"]["stages"]}
        assert out["metrics"]["extract_errors"] == 1
        assert stages["features"]["extract_errors"] == 1
        assert out["metrics"]["extract_deferred"] == 1  # the null page
        got = {r["url"]: r["cluster_id"]
               for r in out["assignments"].take_all()}
        assert len(got) == pages.num_rows
        assert got["https://broken.example/none"] == \
            "https://broken.example/none"
    assert stages["features"]["resumed"] is True


def test_extract_deferred_is_counted(ray_session, corpus, tmp_path):
    """Pages the block extractor cannot vouch for (a ``<![CDATA[``
    section, invalid UTF-8) are counted in the metrics and the
    ``features`` lineage entry, uncheckpointed, checkpointed (the
    manifest keeps the count) and resumed, and still extract as the
    oracle does."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from reconcile_curation_in_cris_systems_ray.stages.extract import (
        extract_html_text,
    )

    odd = {"https://odd.example/cdata":
           b"<p>kept <![CDATA[x]]> text of the first odd page</p>",
           "https://odd.example/latin1":
           b"<p>caf\xe9 au lait, the second odd page</p>"}
    pages = pa.concat_tables([corpus, _pages(list(odd), list(odd.values()))])
    kwargs = {"checkpoint_root": str(tmp_path / "ckpt"),
              "input_fingerprint": "two-odd-pages"}
    for run_kwargs in ({}, kwargs, kwargs):
        out = run_reconcile(rd.from_arrow(pages), **run_kwargs)
        stages = {s["stage"]: s for s in out["metrics"]["stages"]}
        assert out["metrics"]["extract_deferred"] == 2
        assert stages["features"]["extract_deferred"] == 2
        assert out["metrics"]["extract_errors"] == 0
    assert stages["features"]["resumed"] is True
    extracted = pq.read_table(tmp_path / "ckpt" / "extracted" / "data")
    got = dict(zip(extracted.column("url").to_pylist(),
                   extracted.column("extracted_text").to_pylist()))
    for url, html in odd.items():
        assert got[url] == extract_html_text(html)


def test_feature_lookup_reuses_a_materialized_dataset(ray_session, corpus,
                                                      monkeypatch):
    """``build_feature_lookup`` uses a materialized Dataset as it is: a
    run makes one ``materialize`` call fewer than when the lookup
    re-materializes the features, and the lookup shards are equal."""
    import ray
    import ray.data as rd
    from ray.data.dataset import MaterializedDataset

    from reconcile_curation_in_cris_systems_ray.stages import scoring

    calls = []
    real = MaterializedDataset.materialize

    def counting(self, *args, **kwargs):
        calls.append(1)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(MaterializedDataset, "materialize", counting)
    build = scoring.build_feature_lookup
    built = []

    def recording(features_ds):
        built.append(build(features_ds))
        return built[-1]

    monkeypatch.setattr(
        "reconcile_curation_in_cris_systems_ray.pipelines.reconcile."
        "build_feature_lookup", recording)
    out = run_reconcile(rd.from_arrow(corpus))
    n_calls = len(calls)
    calls.clear()
    build(out["features"])
    assert not calls
    # the lookup as it was built before: on a re-materialized Dataset
    monkeypatch.setattr(
        "reconcile_curation_in_cris_systems_ray.pipelines.reconcile."
        "build_feature_lookup", lambda f: recording(f.materialize()))
    calls.clear()
    run_reconcile(rd.from_arrow(corpus))
    assert n_calls == len(calls) - 1

    def tables(lookup):
        return [ray.get(list(shard)) for shard in lookup]

    first, second = tables(built[0]), tables(built[1])
    assert len(first) == len(second)
    for (k1, t1, n1), (k2, t2, n2) in zip(first, second):
        assert (k1 == k2).all() and t1.equals(t2) and n1 == n2
    assert out["metrics"]["lookup_shards"] == len(first)


def test_checkpointed_run_without_pairs_resumes_without_warnings(
        ray_session, tmp_path):
    """A checkpointed run whose pairs stage holds no rows writes and
    reads that stage back as a typed empty block, with no RuntimeWarning
    (``read_parquet`` over no rows emits numpy's ``Mean of empty
    slice``), and its resume gives the same singletons."""
    import warnings

    import ray.data as rd

    urls = [f"https://apart.example/p/{i}" for i in range(3)]
    htmls = [f"<html><body><p>{' '.join(f'w{k}x{i}' for i in range(60))}"
             "</p></body></html>".encode() for k in range(3)]
    pages = _pages(urls, htmls)
    kwargs = {"checkpoint_root": str(tmp_path / "ckpt"),
              "input_fingerprint": "no-pairs"}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for _ in range(2):
            out = run_reconcile(rd.from_arrow(pages), **kwargs)
            assert out["metrics"]["candidate_pairs"] == 0
            got = {r["url"]: r["cluster_id"]
                   for r in out["assignments"].take_all()}
            assert got == {u: u for u in urls}
    stages = {s["stage"]: s for s in out["metrics"]["stages"]}
    assert stages["pairs"]["resumed"] is True
    assert stages["pairs"]["rows"] == 0


def _layered_run(features, cfg, narrow):
    """Pairs and assignments of the layer-by-layer composition that
    ``perfbench/layers.py`` calls, each layer a Dataset function."""
    from reconcile_curation_in_cris_systems_ray.stages.blocking import (
        emit_band_keys,
    )
    from reconcile_curation_in_cris_systems_ray.stages.cluster import (
        assign_clusters, connected_components,
    )
    from reconcile_curation_in_cris_systems_ray.stages.pairs import (
        generate_candidate_pairs,
    )
    from reconcile_curation_in_cris_systems_ray.stages.scoring import (
        build_feature_lookup, hydrate_score_pairs, match_edges,
    )

    bands = emit_band_keys(features, cfg.blocking, include_bands=not narrow)
    pairs = generate_candidate_pairs(bands, cfg.blocking, cfg.scoring,
                                     dedup_pairs=narrow)
    scored = hydrate_score_pairs(pairs, features, cfg.scoring,
                                 est_prefilter=cfg.scoring.est_prefilter,
                                 prebuilt=build_feature_lookup(features))
    star = connected_components(
        scored.map_batches(match_edges, batch_format="pyarrow"), cfg.cluster)
    return pairs, assign_clusters(features, star,
                                  num_buckets=cfg.cluster.num_buckets)


@pytest.mark.parametrize("case", ["default", "salting", "narrow",
                                  "cc_rounds", "sharded"])
def test_core_equals_layer_composition(ray_session, corpus, monkeypatch,
                                       case):
    """The task-graph core's pairs and assignments equal the layer-by-
    layer composition's, with salting forced (``hot_key_cap=2``), narrow
    band rows forced (``NARROW_THRESHOLD=0``), the contraction rounds
    forced (``driver_finish_edges=0``) and the core's feature and star
    lookups forced into several shards (``lookup.LOOKUP_BYTES``, read
    per run; the layers then run on one shard)."""
    import ray.data as rd

    from reconcile_curation_in_cris_systems_ray.config import ClusterConfig
    from reconcile_curation_in_cris_systems_ray.pipelines import (
        reconcile as rmod,
    )
    from reconcile_curation_in_cris_systems_ray.stages import (
        lookup, pairs as pmod,
    )
    from reconcile_curation_in_cris_systems_ray.stages.blocking import (
        emit_band_keys,
    )

    cfg = {
        "salting": ReconcileConfig(blocking=BlockingConfig(hot_key_cap=2)),
        "cc_rounds": ReconcileConfig(
            cluster=ClusterConfig(driver_finish_edges=0)),
    }.get(case, ReconcileConfig())
    if case == "narrow":
        monkeypatch.setattr(rmod, "NARROW_THRESHOLD", 0)
    if case == "sharded":
        monkeypatch.setattr(lookup, "LOOKUP_BYTES", SHARDED_BYTES)
    out = rmod.run_reconcile(rd.from_arrow(corpus), cfg)
    assert (out["metrics"]["lookup_shards"] >= 4) == (case == "sharded")
    monkeypatch.undo()

    features = out["features"]
    pairs, assignments = _layered_run(features, cfg, case == "narrow")
    got = [(r["uh_a"], r["uh_b"]) for r in out["pairs"].take_all()]
    want = {(r["uh_a"], r["uh_b"]) for r in pairs.take_all()}
    assert len(got) == len(set(got)) == len(want) > 0
    assert set(got) == want
    assert out["metrics"]["candidate_pairs"] == len(want)
    got = {r["url"]: r["cluster_id"] for r in out["assignments"].take_all()}
    want = {r["url"]: r["cluster_id"] for r in assignments.take_all()}
    assert len(got) == corpus.num_rows
    assert got == want

    # each case reaches the path it forces
    cc = next(s for s in out["metrics"]["stages"]
              if s["stage"] == "score+components")
    assert (cc["rounds"] > 0) == (case == "cc_rounds")
    if case == "salting":
        hot = pmod.find_hot_keys(emit_band_keys(features, cfg.blocking),
                                 cfg.blocking)
        assert any(c <= pmod.MAX_SIDE for c in hot.values())
