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
the block path's texts equal the oracle's.  The last line of stdout is
one JSON object with every number.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BLOCK_ROWS = 296


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
    for name in args.workload:
        w = WORKLOADS[name]
        table = corpus_table(CorpusConfig(n_families=w.families,
                                          seed=args.seed, **w.corpus))
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
        }
        report["workloads"][name] = row
        print(f"{name:12s} {n:5d} pages  us/page: stdlib {row['stdlib']:.1f}"
              f"  scalar {row['scalar']:.1f}  block {row['block']:.1f}"
              f"  signature {row['signature']:.1f}"
              f"  deferred {deferred}/{n}", flush=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
