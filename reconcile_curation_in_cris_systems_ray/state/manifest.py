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
- a stage that wrote no rows reads back as one typed 0-row block (a
  0-row Parquet file written next to the parts holds its schema), not
  through ``read_parquet``;
- ``<root>/lineage.json`` lists every stage of the run, with the
  library versions that its fingerprints include.

Stages over block refs (:meth:`CheckpointManager.ref_stage`) take one
code path with and without a root: their refs pass straight through,
or are written and continue as the read-back blocks.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import shutil
import time
from typing import Callable

import pyarrow.parquet as pq

logger = logging.getLogger(__name__)

MANIFEST_NAME = "manifest.json"
# the 0-row part file that holds the schema of a stage with no rows
EMPTY_PART = "empty.parquet"


def _parts(data_dir: str) -> list[str]:
    return sorted(f for f in os.listdir(data_dir) if f.endswith(".parquet"))


def _read_back(data_dir: str, rows: int):
    """A checkpointed stage's part files as a Dataset.  A stage with no
    rows is the typed 0-row block of its first part file:
    ``read_parquet`` over no rows warns (numpy's ``Mean of empty
    slice``, from its encoding estimate)."""
    import ray.data as rd

    parts = _parts(data_dir)
    if rows or not parts:
        return rd.read_parquet(data_dir)
    return rd.from_arrow(pq.read_table(os.path.join(data_dir, parts[0])))


def fingerprint(*parts) -> str:
    """Stable fingerprint of config/ancestry strings."""
    h = hashlib.blake2b(digest_size=16)
    for p in parts:
        h.update(repr(p).encode())
        h.update(b"\x1f")
    return h.hexdigest()


class CheckpointManager:
    """Orchestrates resumable stages under one root directory.

    With ``root=None`` there are no checkpoints: callers pass their
    stages through and only record them in ``lineage``.
    """

    def __init__(self, root: str | None, resume: bool = True):
        self.root = root
        self.resume = resume
        self.lineage: list[dict] = []
        if root:
            os.makedirs(root, exist_ok=True)

    def run_stage(self, name: str, fp: str, build: Callable[[], "object"],
                  stats: Callable[[], dict] | None = None):
        """Return stage ``name`` as a Dataset read back from its
        checkpoint under the root.

        ``build`` (returning the stage's Dataset) is only invoked when no
        valid checkpoint exists.  ``stats()``, called once a checkpoint
        is written, adds its counters to the stage's manifest, so a
        resumed run reads them back.
        """
        t0 = time.time()
        stage_dir = os.path.join(self.root, name)
        man_path = os.path.join(stage_dir, MANIFEST_NAME)
        if self.resume and os.path.exists(man_path):
            with open(man_path) as f:
                man = json.load(f)
            if man.get("fingerprint") == fp:
                logger.info("stage %s: resume from checkpoint", name)
                man["resumed"] = True
                self.lineage.append(man)
                return _read_back(os.path.join(stage_dir, "data"),
                                  man["rows"])
            logger.info("stage %s: fingerprint changed, recomputing", name)

        ds = build()
        tmp_dir = stage_dir + ".tmp"
        shutil.rmtree(tmp_dir, ignore_errors=True)
        data_dir = os.path.join(tmp_dir, "data")
        os.makedirs(data_dir, exist_ok=True)
        ds.write_parquet(data_dir)
        if not _parts(data_dir) and ds.schema() is not None:
            # no rows written: keep the stage's schema for the read-back
            pq.write_table(ds.schema().base_schema.empty_table(),
                           os.path.join(data_dir, EMPTY_PART))
        # per-partition lineage: one entry per written part file
        # (rows + bytes), so an auditor can attribute output to
        # partitions and a resumed run can verify integrity
        partitions = []
        for f in _parts(data_dir):
            fpath = os.path.join(data_dir, f)
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
            **(stats() if stats else {}),
        }
        with open(os.path.join(tmp_dir, MANIFEST_NAME), "w") as f:
            json.dump(man, f, indent=2)
        shutil.rmtree(stage_dir, ignore_errors=True)
        os.rename(tmp_dir, stage_dir)
        self.lineage.append(man)
        return _read_back(os.path.join(stage_dir, "data"), man["rows"])

    def ref_stage(self, name: str, fp: str, build, stats=None):
        """Stage ``name`` over block refs.

        ``build()`` launches the stage's tasks and returns ``(table
        refs, metadata refs)`` (:func:`..stages.block_meta`) without
        waiting.  Without a root they pass straight through.  With one,
        the Dataset of them (:func:`..stages.blocks_dataset`) is written
        through :meth:`run_stage` (or a checkpoint with fingerprint
        ``fp`` is read back instead of building) and the stage continues
        from the read-back blocks, so a checkpointed run takes the same
        code path.  ``stats()``, called once the stage is written, adds
        its counters to the stage's manifest."""
        if not self.root:
            refs, metas = build()
            self.streamed(name, fp)
            return refs, metas
        import ray

        from ..stages import blocks_dataset, dataset_blocks

        def written():
            refs, metas = build()
            return blocks_dataset(refs, ray.get(list(metas)))

        ds = self.run_stage(name, fp, written, stats=stats).materialize()
        refs, metas = dataset_blocks(ds)
        return refs, [ray.put(m) for m in metas]

    def streamed(self, name: str, fp: str) -> None:
        """Record stage ``name`` as passed through without a checkpoint."""
        self.lineage.append({"stage": name, "fingerprint": fp, "rows": None,
                             "wall_sec": None, "resumed": False,
                             "streamed": True})

    def write_lineage(self, library_versions: dict[str, str]):
        """Write ``lineage.json``: the library versions the run's
        fingerprints include, then one entry per stage."""
        if self.root:
            with open(os.path.join(self.root, "lineage.json"), "w") as f:
                json.dump({"library_versions": library_versions,
                           "stages": self.lineage}, f, indent=2)
