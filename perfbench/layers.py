"""The traced run: the reconcile chain called layer by layer.

Each layer's public function is called in the order ``run_reconcile``
composes them, with a materialize barrier after each, so every layer's
wall time, process-tree CPU time and counts are its own.  Spans (name,
start, end, parent) are recorded from here, around the calls into the
engine; the engine itself is not instrumented.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from functools import partial

import numpy as np
import pyarrow as pa

# per-layer metric name -> unit; BENCHMARK.json lists the same names
LAYER_UNITS = {
    "extract.wall_s": "s",
    "extract.cpu_us_per_page": "us/page",
    "extract.errors": "count",
    "signature.wall_s": "s",
    "signature.cpu_us_per_page": "us/page",
    "signature.shingles_per_page": "count/page",
    "signature.bytes_per_page": "B/page",
    "band_emit.wall_s": "s",
    "band_emit.rows_out": "count",
    "band_emit.bytes_out": "B",
    "pairs.wall_s": "s",
    "pairs.cpu_s": "s",
    "pairs.hot_keys": "count",
    "pairs.hot_key_rows": "count",
    "pairs.candidate_pairs": "count",
    "pairs.block_skew": "ratio",
    "score.wall_s": "s",
    "score.cpu_us_per_pair": "us/pair",
    "score.pairs_scored": "count",
    "score.prefilter_pass_ratio": "ratio",
    "score.match_ratio": "ratio",
    "cluster.cc_wall_s": "s",
    "cluster.input_edges": "count",
    "cluster.rounds": "count",
    "cluster.components": "count",
    "cluster.assign_wall_s": "s",
    "delta.wall_s": "s",
    "delta.touched_bands": "count",
    "delta.delta_edges": "count",
    "delta.merged_labels": "count",
    "trace.overhead_s": "s",
}


class Tracer:
    """Spans of one benchmark invocation, kept in memory until it ends.

    A span is ``{trace, id, parent, name, start, end, cpu_s}``: ``trace``
    identifies the run it belongs to, ``parent`` the span that caused it
    (None for a run's root), times are seconds since the tracer began
    and ``cpu_s`` is the process tree's CPU time spent inside it."""

    def __init__(self, meter):
        self.meter = meter
        self.spans: list[dict] = []
        self._open: list[dict] = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str, trace: int):
        rec = {"trace": trace, "id": len(self.spans),
               "parent": self._open[-1]["id"] if self._open else None,
               "name": name}
        self.spans.append(rec)
        self._open.append(rec)
        cpu0, t0 = self.meter.read(), time.perf_counter()
        try:
            yield rec
        finally:
            rec["start"] = t0 - self._t0
            rec["end"] = time.perf_counter() - self._t0
            rec["cpu_s"] = self.meter.read() - cpu0
            self._open.pop()

    @staticmethod
    def wall(rec: dict) -> float:
        return rec["end"] - rec["start"]


def _extract(batch: pa.Table) -> pa.Table:
    from reconcile_curation_in_cris_systems_ray.stages.extract import (
        HtmlTextExtractor,
    )
    return HtmlTextExtractor()(batch)


def _signature(batch: pa.Table, blocking=None, scoring=None) -> pa.Table:
    from reconcile_curation_in_cris_systems_ray.stages.blocking import (
        SignatureStage,
    )
    return SignatureStage(blocking, scoring)(batch)


def _to_edges(batch: pa.Table) -> pa.Table:
    m = batch.filter(batch.column("is_match"))
    return pa.table({"u": m.column("url_a"), "v": m.column("url_b")})


def _blocks(ds) -> list[pa.Table]:
    import ray

    return ray.get(list(ds.to_arrow_refs()))


def _column(ds, name: str) -> np.ndarray:
    parts = [t.column(name).to_numpy() for t in _blocks(ds) if t.num_rows]
    return np.concatenate(parts) if parts else np.empty(0)


def traced_reconcile(corpus, cfg, tracer: Tracer, trace: int):
    """``run_reconcile`` over ``corpus``, one layer at a time.

    Returns ``(features, assignments, layer metrics)``; both datasets
    are materialized."""
    from reconcile_curation_in_cris_systems_ray.pipelines.reconcile import (
        NARROW_THRESHOLD,
    )
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
        build_feature_lookup, hydrate_score_pairs,
    )

    pages = corpus.count()
    m: dict[str, float] = {}
    with tracer.span("reconcile", trace) as root:
        with tracer.span("extract", trace) as sp:
            extracted = corpus.map_batches(
                _extract, batch_format="pyarrow").materialize()
        m["extract.wall_s"] = Tracer.wall(sp)
        m["extract.cpu_us_per_page"] = sp["cpu_s"] * 1e6 / pages
        m["extract.errors"] = sum(
            t.num_rows - t.column("extract_error").null_count
            for t in _blocks(extracted))

        with tracer.span("signature", trace) as sp:
            features = extracted.map_batches(
                partial(_signature, blocking=cfg.blocking,
                        scoring=cfg.scoring),
                batch_format="pyarrow").materialize()
        del extracted
        m["signature.wall_s"] = Tracer.wall(sp)
        m["signature.cpu_us_per_page"] = sp["cpu_s"] * 1e6 / pages
        m["signature.shingles_per_page"] = float(
            _column(features, "n_shingles").sum()) / pages
        m["signature.bytes_per_page"] = features.size_bytes() / pages

        band_rows_hint = pages * cfg.blocking.num_bands
        narrow = band_rows_hint >= NARROW_THRESHOLD
        with tracer.span("band_emit", trace) as sp:
            bands = emit_band_keys(features, cfg.blocking,
                                   include_bands=not narrow).materialize()
        m["band_emit.wall_s"] = Tracer.wall(sp)
        m["band_emit.rows_out"] = bands.count()
        m["band_emit.bytes_out"] = bands.size_bytes()
        # keys the pair layer must salt: band groups above the cap,
        # counted exactly over the emitted rows
        _, sizes = np.unique(_column(bands, "band_hash"), return_counts=True)
        hot = sizes[sizes > cfg.blocking.hot_key_cap]
        m["pairs.hot_keys"] = len(hot)
        m["pairs.hot_key_rows"] = int(hot.sum())

        with tracer.span("pairs", trace) as sp:
            pairs = generate_candidate_pairs(
                bands, cfg.blocking, cfg.scoring,
                n_rows_hint=band_rows_hint, dedup_pairs=narrow,
                num_blocks_hint=features.num_blocks()).materialize()
        del bands
        m["pairs.wall_s"] = Tracer.wall(sp)
        m["pairs.cpu_s"] = sp["cpu_s"]
        rows = np.array([t.num_rows for t in _blocks(pairs)])
        candidates = int(rows.sum())
        m["pairs.candidate_pairs"] = candidates
        # max/mean rows per output block; 0 when there are no pairs
        m["pairs.block_skew"] = (float(rows.max() / rows.mean())
                                 if candidates else 0.0)

        with tracer.span("score", trace) as sp:
            scored = hydrate_score_pairs(
                pairs, features, cfg.scoring,
                est_prefilter=cfg.scoring.est_prefilter,
                prebuilt=build_feature_lookup(features)).materialize()
        del pairs
        scored_n = scored.count()
        m["score.wall_s"] = Tracer.wall(sp)
        m["score.cpu_us_per_pair"] = (sp["cpu_s"] * 1e6 / candidates
                                      if candidates else 0.0)
        m["score.pairs_scored"] = scored_n
        m["score.prefilter_pass_ratio"] = (scored_n / candidates
                                           if candidates else 0.0)

        with tracer.span("cluster", trace):
            with tracer.span("cluster.cc", trace) as sp:
                edges = scored.map_batches(
                    _to_edges, batch_format="pyarrow").materialize()
                cc: dict = {}
                star = connected_components(edges, cfg.cluster,
                                            metrics_out=cc).materialize()
            m["cluster.cc_wall_s"] = Tracer.wall(sp)
            with tracer.span("cluster.assign", trace) as sp:
                assignments = assign_clusters(
                    features, star,
                    num_buckets=cfg.cluster.num_buckets).materialize()
            m["cluster.assign_wall_s"] = Tracer.wall(sp)
        del scored, star
        m["cluster.input_edges"] = edges.count()
        m["cluster.rounds"] = cc.get("rounds", 0)
        m["cluster.components"] = len(
            np.unique(_column(assignments, "cluster_id")))
        m["score.match_ratio"] = (m["cluster.input_edges"] / scored_n
                                  if scored_n else 0.0)
    m["reconcile.wall_s"] = Tracer.wall(root)
    return features, assignments, m


def traced_delta(features, assignments, delta, cfg, tracer: Tracer,
                 trace: int):
    """``run_incremental`` of ``delta`` against a base run, as one span.

    The delta pipeline is not split into layers: its counts come from
    the metrics it returns.  Returns ``(assignments, layer metrics)``."""
    from reconcile_curation_in_cris_systems_ray.pipelines.incremental import (
        run_incremental,
    )

    with tracer.span("delta", trace) as sp:
        out = run_incremental(features, assignments, delta, cfg)
        final = out["assignments"].materialize()
    metrics = out["metrics"]
    return final, {
        "delta.wall_s": Tracer.wall(sp),
        "delta.touched_bands": metrics["touched_bands"],
        "delta.delta_edges": metrics["delta_edges"],
        "delta.merged_labels": metrics["merged_labels"],
    }
