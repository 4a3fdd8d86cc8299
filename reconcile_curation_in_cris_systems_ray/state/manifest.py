"""Per-stage Parquet checkpoints + lineage/metrics manifest.

The reference has no checkpoint/resume at all (§4 of SURVEY.md — a
crash restarts a stage); the north rule requires every stage to write
per-partition Parquet plus a manifest so a run can resume
mid-pipeline.  Semantics:

- a stage output lives at ``<root>/<stage>/`` as a directory of part
  files written by ``Dataset.write_parquet`` (one file per block — the
  partitioned, resumable layout), committed atomically by writing into
  ``<stage>.tmp/`` and renaming;
- ``<root>/<stage>/manifest.json`` records the stage name, the input
  fingerprint (hash of upstream fingerprints + config), row count and
  wall time; a resume run with a matching fingerprint skips the stage
  and re-reads the Parquet; a mismatched fingerprint recomputes;
- ``<root>/lineage.json`` lists every stage of the run, with the
  library versions that its fingerprints include.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import shutil
import time
from typing import Callable

logger = logging.getLogger(__name__)

MANIFEST_NAME = "manifest.json"


def fingerprint(*parts) -> str:
    """Stable fingerprint of config/ancestry strings."""
    h = hashlib.blake2b(digest_size=16)
    for p in parts:
        h.update(repr(p).encode())
        h.update(b"\x1f")
    return h.hexdigest()


class CheckpointManager:
    """Orchestrates resumable stages under one root directory.

    With ``root=None`` every stage just materializes in the object
    store (no disk checkpoints) — used by tests and small runs.
    """

    def __init__(self, root: str | None, resume: bool = True):
        self.root = root
        self.resume = resume
        self.lineage: list[dict] = []
        if root:
            os.makedirs(root, exist_ok=True)

    def run_stage(self, name: str, fp: str, build: Callable[[], "object"],
                  materialize: bool = True):
        """Return a Dataset for stage ``name``.

        ``build`` is only invoked when no valid checkpoint exists.
        ``materialize=False`` (only honored without a checkpoint root)
        returns the lazy Dataset so consecutive stages stream through
        each other with no barrier — used for stages whose output is
        consumed exactly once downstream.
        """
        import ray.data as rd

        t0 = time.time()
        if self.root:
            stage_dir = os.path.join(self.root, name)
            man_path = os.path.join(stage_dir, MANIFEST_NAME)
            if self.resume and os.path.exists(man_path):
                with open(man_path) as f:
                    man = json.load(f)
                if man.get("fingerprint") == fp:
                    logger.info("stage %s: resume from checkpoint", name)
                    man["resumed"] = True
                    self.lineage.append(man)
                    return rd.read_parquet(os.path.join(stage_dir, "data"))
                logger.info("stage %s: fingerprint changed, recomputing", name)

            ds = build()
            tmp_dir = stage_dir + ".tmp"
            shutil.rmtree(tmp_dir, ignore_errors=True)
            data_dir = os.path.join(tmp_dir, "data")
            os.makedirs(data_dir, exist_ok=True)
            ds.write_parquet(data_dir)
            out = rd.read_parquet(data_dir)
            # per-partition lineage: one entry per written part file
            # (rows + bytes), so an auditor can attribute output to
            # partitions and a resumed run can verify integrity
            import pyarrow.parquet as pq
            partitions = []
            for f in sorted(os.listdir(data_dir)):
                fpath = os.path.join(data_dir, f)
                if not f.endswith(".parquet"):
                    continue
                partitions.append({
                    "file": f,
                    "rows": pq.read_metadata(fpath).num_rows,
                    "bytes": os.path.getsize(fpath),
                })
            man = {
                "stage": name, "fingerprint": fp,
                "rows": sum(p["rows"] for p in partitions),
                "bytes": sum(p["bytes"] for p in partitions),
                "num_partitions": len(partitions),
                "partitions": partitions,
                "wall_sec": round(time.time() - t0, 3), "resumed": False,
            }
            with open(os.path.join(tmp_dir, MANIFEST_NAME), "w") as f:
                json.dump(man, f, indent=2)
            shutil.rmtree(stage_dir, ignore_errors=True)
            os.rename(tmp_dir, stage_dir)
            self.lineage.append(man)
            return rd.read_parquet(os.path.join(stage_dir, "data"))

        if not materialize:
            ds = build()
            self.lineage.append({
                "stage": name, "fingerprint": fp, "rows": None,
                "wall_sec": None, "resumed": False, "streamed": True,
            })
            return ds
        ds = build().materialize()
        self.lineage.append({
            "stage": name, "fingerprint": fp, "rows": ds.count(),
            "wall_sec": round(time.time() - t0, 3), "resumed": False,
        })
        return ds

    def write_lineage(self, library_versions: dict[str, str]):
        """Write ``lineage.json``: the library versions the run's
        fingerprints include, then one entry per stage."""
        if self.root:
            with open(os.path.join(self.root, "lineage.json"), "w") as f:
                json.dump({"library_versions": library_versions,
                           "stages": self.lineage}, f, indent=2)
