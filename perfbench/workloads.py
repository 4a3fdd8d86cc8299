"""Workload definitions, their seeded inputs and the correctness checks.

Every workload is a synthetic crawl from ``sources.corpus``; the seed
only changes its text, not its shape.  Sizes are chosen so that one
warm run takes about 2 s on one CPU: a dozen runs then fit in one
measured window next to the two cold set-ups.  BENCHMARK.json lists
``web_mix`` and ``hot_cluster``; ``unique_pages`` and ``delta_append``
are run by hand.  See README.md for why each workload exists and which
layers it stresses.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from functools import partial

import numpy as np
import pandas as pd
import pyarrow as pa

ENGINE_COLUMNS = ["url", "warc_ts", "html", "lang"]
# 1/DELTA_SHARE of a corpus is linked incrementally: pages picked by url
# hash for delta_append, fresh families for the other workloads' traced
# delta step
DELTA_SHARE = 10
MIN_F1 = 0.99


@dataclass(frozen=True)
class Workload:
    name: str
    families: int
    corpus: dict = field(default_factory=dict)
    # True: the timed operation links a url-hash delta against a base
    # run made during set-up (``pipelines.incremental``); False: the
    # timed operation is a full ``run_reconcile`` over the corpus
    incremental: bool = False


WORKLOADS = {w.name: w for w in (
    Workload("web_mix", 800),
    Workload("unique_pages", 2400,
             {"singleton_frac": 1.0, "giant_family_variants": 0}),
    Workload("hot_cluster", 250, {"giant_family_variants": 200}),
    Workload("delta_append", 500, incremental=True),
)}


@dataclass
class Inputs:
    """Materialized engine inputs plus the ground truth for both parts.

    ``base`` is what a full run reconciles; ``delta`` is linked against
    the base run by ``run_incremental`` (None when not needed)."""
    base: object
    delta: object | None
    base_truth: pd.Series   # url -> true cluster id
    truth: pd.Series        # url -> true cluster id over base + delta

    @property
    def base_pages(self) -> int:
        return len(self.base_truth)

    @property
    def delta_pages(self) -> int:
        return len(self.truth) - len(self.base_truth)


def _url_hash_share(urls) -> frozenset:
    """The 1/DELTA_SHARE of ``urls`` with the lowest url hashes: a fixed
    share, so a seed changes which pages form the delta but not how many
    (the incremental run's cost is mostly per run, not per page)."""
    ranked = sorted(urls, key=lambda u: (zlib.crc32(u.encode()), u))
    return frozenset(ranked[:len(ranked) // DELTA_SHARE])


def _select(batch: pa.Table, urls: frozenset, inside: bool) -> pa.Table:
    mask = np.array([u in urls for u in batch.column("url").to_pylist()],
                    dtype=bool)
    return batch.filter(pa.array(mask if inside else ~mask))


def _truth(ds) -> pd.Series:
    df = fetch(ds.select_columns(["url", "cluster_id"]))
    return pd.Series(df["cluster_id"].to_numpy(), index=df["url"].to_numpy())


def build_inputs(w: Workload, seed: int, scale: float,
                 with_delta: bool) -> Inputs:
    """Generate and materialize the workload's corpus for ``seed``.

    ``with_delta`` asks for a delta even on a full-run workload (the
    traced run links one); it is then 1/DELTA_SHARE as many fresh
    families, appended after the corpus's own."""
    import ray.data as rd

    from reconcile_curation_in_cris_systems_ray.sources.corpus import (
        CorpusConfig, corpus_dataset, generate_family_rows,
    )

    cfg = CorpusConfig(n_families=max(20, round(w.families * scale)),
                       seed=seed, **w.corpus)
    corpus = corpus_dataset(cfg).materialize()
    if w.incremental:
        truth = _truth(corpus)
        share = _url_hash_share(truth.index)
        base = corpus.map_batches(partial(_select, urls=share, inside=False),
                                  batch_format="pyarrow").materialize()
        delta = corpus.map_batches(partial(_select, urls=share, inside=True),
                                   batch_format="pyarrow").materialize()
        base_truth = truth.drop(list(share))
    else:
        base, delta, base_truth = corpus, None, _truth(corpus)
        truth = base_truth
        if with_delta:
            fresh = generate_family_rows(
                np.arange(cfg.n_families,
                          cfg.n_families + cfg.n_families // DELTA_SHARE),
                cfg)
            delta = rd.from_arrow(fresh).materialize()
            truth = pd.concat([base_truth, _truth(delta)])
    base = _nonempty_blocks(base.select_columns(ENGINE_COLUMNS))
    if delta is not None:
        delta = _nonempty_blocks(delta.select_columns(ENGINE_COLUMNS))
    return Inputs(base, delta, base_truth, truth)


def _nonempty_blocks(ds):
    """``ds`` without its empty blocks.  Splitting a corpus by url can
    empty a block, a map over an empty block yields one without columns,
    and ``run_incremental`` then fails (KeyError 'url' while building its
    feature lookup) - an engine defect that no workload is meant to hit."""
    import ray
    import ray.data as rd

    tables = ray.get(list(ds.to_arrow_refs()))
    return rd.from_arrow([t for t in tables if t.num_rows]).materialize()


def fetch(ds) -> pd.DataFrame:
    """A small materialized dataset as one local DataFrame."""
    import ray

    tables = [t for t in ray.get(list(ds.to_arrow_refs())) if t.num_rows]
    if not tables:
        return pd.DataFrame({c: [] for c in ds.schema().names})
    return pa.concat_tables(tables).to_pandas()


def _pairs(group_sizes: pd.Series) -> int:
    n = group_sizes.to_numpy(dtype=np.int64)
    return int((n * (n - 1) // 2).sum())


def pairwise_f1(assign: pd.DataFrame, truth: pd.Series) -> float:
    """Pairwise F1 of ``(url, cluster_id)`` assignments against the
    true cluster ids.  Two empty pair sets (all singletons) agree: 1.0."""
    df = pd.DataFrame({"pred": assign["cluster_id"].to_numpy(),
                       "true": truth.reindex(assign["url"]).to_numpy()})
    tp = _pairs(df.groupby(["pred", "true"]).size())
    predicted = _pairs(df.groupby("pred").size())
    actual = _pairs(df.groupby("true").size())
    precision = tp / predicted if predicted else 1.0
    recall = tp / actual if actual else 1.0
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def check(assign: pd.DataFrame, truth: pd.Series) -> tuple[float, list[str]]:
    """Pairwise F1 plus every way the assignments are wrong: urls lost,
    urls invented, urls assigned twice, F1 below the gate."""
    problems = []
    urls = assign["url"]
    if urls.duplicated().any():
        problems.append(f"{int(urls.duplicated().sum())} urls assigned twice")
    missing = truth.index.difference(urls)
    extra = pd.Index(urls).difference(truth.index)
    if len(missing):
        problems.append(f"{len(missing)} urls missing")
    if len(extra):
        problems.append(f"{len(extra)} unknown urls")
    f1 = pairwise_f1(assign, truth) if not problems else 0.0
    if f1 < MIN_F1:
        problems.append(f"pairwise F1 {f1:.4f} < {MIN_F1}")
    return f1, problems


def canonical(assign: pd.DataFrame) -> pd.DataFrame:
    """Assignments in a fixed row order, for equality between runs."""
    return (assign[["url", "cluster_id"]].astype(str)
            .sort_values("url", ignore_index=True))
