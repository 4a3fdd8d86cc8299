"""Ray-Data-native entity-resolution / record-linkage engine.

A from-scratch engine (NOT a port) with the query and data-processing
capabilities of the reference project
``cometadata/reconcile-curation-in-cris-systems``, re-expressed as
``ray.data.Dataset`` pipelines: ``map_batches`` over zero-copy Arrow
batches, per-worker cached state for stateful stages (actor pools
where an operator needs them), one bucketed exchange plus ``sort``/
``unique`` for the wide steps, streaming execution with backpressure.

Layout
------
- ``functions/``  pure, vectorized scalar/batch functions (normalizers,
  identifier canonicalizers, name matching, similarity kernels, MinHash)
- ``sources/``    readers and the deterministic synthetic corpus generator
- ``stages/``     Dataset-stage building blocks (extract, blocking,
  candidate pairs, scoring, clustering, dedup, ANN, text stats,
  relational operators)
- ``pipelines/``  end-to-end compositions (the flagship reconcile
  pipeline, linkage workflow)
- ``state/``      checkpoint / lineage manifest layer for resumability
"""

__version__ = "0.1.0"
