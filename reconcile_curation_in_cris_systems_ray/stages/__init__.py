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
