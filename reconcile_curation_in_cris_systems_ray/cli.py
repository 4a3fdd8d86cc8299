"""CLI entry point (reference P1 mode dispatch, ``query_db/main.py:42-98``).

Usage:

    python -m reconcile_curation_in_cris_systems_ray.cli reconcile \
        --input /path/to/corpus_parquet_dir \
        --output /path/to/assignments_out \
        [--config pipeline.yaml] [--checkpoint-root /path/ckpt] [--no-resume]

Reads the web-page corpus ``(url, warc_ts, html, text?, lang)`` from
Parquet, runs the flagship reconcile pipeline, and writes
``(url, cluster_id)`` as partitioned Parquet.  Owns its Ray session
(guarded init) — library code never calls ``ray.init``.
"""

from __future__ import annotations

import argparse
import json
import sys


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="reconcile_curation_in_cris_systems_ray")
    sub = p.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("reconcile", help="run the flagship pipeline")
    rec.add_argument("--input", required=True,
                     help="Parquet dir/file with (url, warc_ts, html, lang)")
    rec.add_argument("--output", required=True,
                     help="output dir for (url, cluster_id) Parquet")
    rec.add_argument("--config", default=None, help="pipeline YAML config")
    rec.add_argument("--checkpoint-root", default=None,
                     help="per-stage checkpoint/lineage dir (resumable)")
    rec.add_argument("--no-resume", action="store_true",
                     help="ignore existing checkpoints")
    return p


def _input_fingerprint(path: str) -> str:
    """Checkpoint identity of the Parquet input: each file's path
    relative to ``path``, byte size and footer (row count and
    row-group statistics).  An input rewritten in place thus starts
    the pipeline over instead of resuming the old data's stages.
    Like the Parquet reader, skips names starting with ``.`` or ``_``."""
    import os

    import pyarrow.fs as pafs
    import pyarrow.parquet as pq

    from .state.manifest import fingerprint

    fs, root = pafs.FileSystem.from_uri(
        path if "://" in path else os.path.abspath(path))
    info = fs.get_file_info(root)
    if info.is_file:
        files = {info.base_name: info}
    else:
        files = {}
        for f in fs.get_file_info(pafs.FileSelector(root, recursive=True)):
            rel = f.path[len(root):].lstrip("/")
            if f.is_file and not any(s.startswith((".", "_"))
                                     for s in rel.split("/")):
                files[rel] = f
    return fingerprint(*[
        (rel, f.size, pq.read_metadata(f.path, filesystem=fs).to_dict())
        for rel, f in sorted(files.items())])


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    import ray

    if not ray.is_initialized():
        # No explicit address: Ray resolves RAY_ADDRESS (set inside a
        # `ray job submit` container to the running cluster) and only
        # falls back to a local session when unset — the same script
        # therefore drives both the single-node dev loop and the
        # N-node / 4N-node cluster runs of the north rule.
        ray.init(include_dashboard=False, logging_level="ERROR")
    import ray.data as rd

    from .config import ReconcileConfig, tune_data_context
    from .pipelines.reconcile import run_reconcile

    tune_data_context()
    cfg = (ReconcileConfig.from_yaml(args.config) if args.config
           else ReconcileConfig())
    corpus = rd.read_parquet(args.input)
    out = run_reconcile(corpus, cfg,
                        checkpoint_root=args.checkpoint_root,
                        resume=not args.no_resume,
                        input_fingerprint=_input_fingerprint(args.input))
    out["assignments"].write_parquet(args.output)
    print(json.dumps(out["metrics"], default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
