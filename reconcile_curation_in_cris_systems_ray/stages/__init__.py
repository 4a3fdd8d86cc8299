"""Stage building blocks: the task bodies and ref-level task launchers
of the linkage core, plus the Dataset-level stage functions the traced
benchmark and the query library compose."""

# Per-worker-process stage cache: Ray reuses worker processes across
# tasks and stages, so state built here (parser tables, MinHash
# permutations, DuckDB connections) is constructed once per worker —
# the load-once semantics of an actor pool's ``__init__``, while the
# stages stay plain task operators that Ray can fuse (extract +
# signature run in one task per block, no inter-operator object-store
# hop) with no pool ramp-up.
_WORKER_STATE: dict = {}


def worker_cached(key, build):
    """This worker's state for ``key``, built by ``build()`` on first
    use.  Keys must be hashable (frozen config dataclasses are)."""
    st = _WORKER_STATE.get(key)
    if st is None:
        st = _WORKER_STATE[key] = build()
    return st


_REMOTE: dict = {}


def remote_fn(fn, **options):
    """``ray.remote(**options)(fn)``, made once per process: a remote
    function is pickled and exported on its first call, so building a
    fresh one per call pays that again."""
    key = (fn, tuple(sorted(options.items())))
    rf = _REMOTE.get(key)
    if rf is None:
        import ray

        rf = _REMOTE[key] = ray.remote(**options)(fn) if options \
            else ray.remote(fn)
    return rf


def block_meta(block):
    """The Ray Data metadata of one output block (rows, bytes, schema),
    computed by the task that makes the block, as
    ``rd.from_arrow_refs`` computes it in a task of its own: the driver
    then wraps the block refs with :func:`blocks_dataset` and launches
    no metadata task.  No execution stats: they need a Ray session, and
    the task bodies also run in process."""
    from ray.data.block import BlockMetadataWithSchema

    return BlockMetadataWithSchema.from_block(block)


def blocks_dataset(refs, metas):
    """The blocks ``refs`` as a materialized Dataset, from their
    metadata ``metas`` (:func:`block_meta` or :func:`dataset_blocks`
    values, fetched), built as ``Dataset.materialize`` builds its
    output: one ``RefBundle`` per block, under the first non-empty
    schema, as the ``InputData`` of a plan whose ``execute()`` is a
    no-op.  Launches no task and fetches no block, and no consumer of
    the Dataset has an execution left to run.  Uses Ray 2.49 internals;
    ``tests/test_pipeline.py::test_blocks_dataset_equals_from_arrow_refs``
    pins it against ``rd.from_arrow_refs(refs).materialize()``."""
    from ray.data._internal.execution.interfaces import RefBundle
    from ray.data._internal.logical.interfaces import LogicalPlan
    from ray.data._internal.logical.operators.input_data_operator import (
        InputData,
    )
    from ray.data._internal.plan import ExecutionPlan
    from ray.data._internal.stats import DatasetStats
    from ray.data.block import _take_first_non_empty_schema
    from ray.data.context import DataContext
    from ray.data.dataset import MaterializedDataset

    metas = list(metas)
    schema = _take_first_non_empty_schema(m.schema for m in metas)
    bundles = [RefBundle([(ref, meta)], owns_blocks=False, schema=schema)
               for ref, meta in zip(refs, metas, strict=True)]
    ctx = DataContext.get_current().copy()
    ds = MaterializedDataset(
        ExecutionPlan(DatasetStats(metadata={"FromBlocks": metas},
                                   parent=None), ctx),
        LogicalPlan(InputData(input_data=bundles), ctx))
    ds._plan.execute()  # no-op that marks the plan as executed
    return ds


def dataset_blocks(ds) -> tuple[list, list]:
    """The block refs and metadata of a materialized Dataset, read from
    its bundles (no block is fetched): the inverse of
    :func:`blocks_dataset`.  Each metadata carries its bundle's schema,
    as :func:`block_meta` does."""
    from ray.data.block import BlockMetadataWithSchema

    blocks = [(ref, BlockMetadataWithSchema(meta, bundle.schema))
              for bundle in ds.iter_internal_ref_bundles()
              for ref, meta in bundle.blocks]
    return [ref for ref, _ in blocks], [meta for _, meta in blocks]
