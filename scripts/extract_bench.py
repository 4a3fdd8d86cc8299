"""Features-layer kernels in process: CPU µs per page of each extractor
and of the signature stage.

    python scripts/extract_bench.py [--workload web_mix hot_cluster]
                                    [--seed 1] [--repeat 5]

Run from the repository root; Ray is not started.  Generates
the corpus of each perfbench workload (``perfbench.workloads``) for
``--seed`` and cuts it into 296-page blocks, the engine's block size on
these workloads.  Per workload it prints CPU µs/page (process time,
best of ``--repeat``) of:

- ``stdlib``: the ``HTMLParser`` oracle, ``extract_html_text``, per page;
- ``scalar``: the per-page scanner, ``extract_html_text_fast``;
- ``block``: ``HtmlTextExtractor()`` per block (the block path, and the
  scanner for the pages it defers), the engine's extract layer;
- ``signature``: ``SignatureStage()`` over the extracted blocks;

and the share of pages the block path deferred.  It first asserts that
the block path's texts equal the oracle's.

It then times a feature task's body (``pipelines.reconcile.
_feature_group``: extract + signature, in runs of at most
``RUN_BYTES`` of html) over three layouts of the same pages: one
block, the blocks the engine receives (``corpus_dataset``: Ray's range
source cuts the families into ``n // n_blocks``-family blocks) and
16-page blocks, and prints the last two's CPU per page as a ratio of
the one block's (1.0: the task's cost follows bytes, not blocks).  The
last line of stdout is one JSON object with every number.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BLOCK_ROWS = 296
SMALL_ROWS = 16


def _engine_blocks(cfg):
    """The corpus blocks ``corpus_dataset(cfg)`` yields: Ray's range
    source cuts the families into blocks of ``n // n_blocks``
    families (the last one shorter)."""
    import numpy as np

    from reconcile_curation_in_cris_systems_ray.sources.corpus import (
        generate_family_rows,
    )

    n = cfg.n_families
    size = max(1, n // max(8, n // 512))
    return [generate_family_rows(np.arange(lo, min(lo + size, n)), cfg)
            for lo in range(0, n, size)]


def _us_per_page(fn, pages: int, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.process_time()
        fn()
        best = min(best, time.process_time() - t0)
    return round(best * 1e6 / pages, 2)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", nargs="+", default=["web_mix", "hot_cluster"],
                   choices=("web_mix", "hot_cluster"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--repeat", type=int, default=5)
    args = p.parse_args(argv)
    sys.path.insert(0, ROOT)

    import pyarrow as pa

    from perfbench.workloads import WORKLOADS
    from reconcile_curation_in_cris_systems_ray.config import BlockingConfig
    from reconcile_curation_in_cris_systems_ray.pipelines.reconcile import (
        _feature_group,
    )
    from reconcile_curation_in_cris_systems_ray.sources.corpus import (
        CorpusConfig, corpus_table,
    )
    from reconcile_curation_in_cris_systems_ray.stages.blocking import (
        SignatureStage,
    )
    from reconcile_curation_in_cris_systems_ray.stages.extract import (
        HtmlTextExtractor, extract_html_text, extract_html_text_fast,
    )

    report = {"seed": args.seed, "repeat": args.repeat,
              "block_rows": BLOCK_ROWS, "workloads": {}}
    cols = ["url", "warc_ts", "html", "lang"]
    blocking = BlockingConfig()
    for name in args.workload:
        w = WORKLOADS[name]
        cfg = CorpusConfig(n_families=w.families, seed=args.seed, **w.corpus)
        table = corpus_table(cfg)
        pages = table.select(cols).combine_chunks()
        layouts = {
            "one_block": [pages],
            "engine": [b.select(cols) for b in _engine_blocks(cfg)],
            "small": [pages.slice(i, SMALL_ROWS)
                      for i in range(0, pages.num_rows, SMALL_ROWS)],
        }
        table = table.select(["url", "html"]).combine_chunks()
        n = table.num_rows
        blocks = [table.slice(i, BLOCK_ROWS) for i in range(0, n, BLOCK_ROWS)]
        htmls = table.column("html").to_pylist()
        extractor = HtmlTextExtractor()
        outs = [extractor.extract(b) for b in blocks]
        deferred = sum(d for _, d in outs)
        extracted = [t for t, _ in outs]
        got = pa.concat_tables(extracted).column("extracted_text").to_pylist()
        want = [extract_html_text(h) for h in htmls]
        if got != want:
            raise SystemExit(f"{name}: the block path differs from the oracle")
        signature = SignatureStage()
        row = {
            "pages": n,
            "stdlib": _us_per_page(
                lambda: [extract_html_text(h) for h in htmls], n, args.repeat),
            "scalar": _us_per_page(
                lambda: [extract_html_text_fast(h) for h in htmls], n,
                args.repeat),
            "block": _us_per_page(
                lambda: [extractor(b) for b in blocks], n, args.repeat),
            "signature": _us_per_page(
                lambda: [signature(b) for b in extracted], n, args.repeat),
            "deferred_share": round(deferred / n, 4),
            "engine_blocks": len(layouts["engine"]),
        }
        for layout, blocks in layouts.items():
            row[f"task_{layout}"] = _us_per_page(
                lambda: _feature_group(cols, blocking, True, *blocks), n,
                args.repeat)
        for layout in ("engine", "small"):
            row[f"ratio_{layout}"] = round(
                row[f"task_{layout}"] / row["task_one_block"], 3)
        report["workloads"][name] = row
        print(f"{name:12s} {n:5d} pages  us/page: stdlib {row['stdlib']:.1f}"
              f"  scalar {row['scalar']:.1f}  block {row['block']:.1f}"
              f"  signature {row['signature']:.1f}"
              f"  deferred {deferred}/{n}", flush=True)
        print(f"{'':12s} feature task us/page: one block "
              f"{row['task_one_block']:.1f}  {row['engine_blocks']} engine "
              f"blocks {row['task_engine']:.1f} (x{row['ratio_engine']})"
              f"  {SMALL_ROWS}-page blocks {row['task_small']:.1f}"
              f" (x{row['ratio_small']})", flush=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
