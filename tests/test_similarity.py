"""MinHash / SimHash determinism and accuracy (FIXTURES F-7)."""
import numpy as np
import pandas as pd

from reconcile_curation_in_cris_systems_ray.functions.similarity import (
    MinHasher, hamming64, jaccard_from_sets, shingle_hash_set,
    shingle_hash_set_text, simhash64, stable_hash_strings, token_shingles,
)


def test_stable_hash_deterministic():
    a = stable_hash_strings(["x", "y", "x"])
    b = stable_hash_strings(["x", "y", "x"])
    assert (a == b).all() and a[0] == a[2] and a[0] != a[1]


def test_token_shingles():
    assert token_shingles(["a", "b", "c", "d"], 3) == ["a b c", "b c d"]
    assert token_shingles(["a"], 3) == ["a"]
    assert token_shingles([], 3) == []


def test_jaccard_exact():
    a = shingle_hash_set("the quick brown fox jumps".split())
    b = shingle_hash_set("the quick brown fox leaps".split())
    # shingles: 3 total each, 2 shared -> J = 2/4
    assert jaccard_from_sets(a, b) == 0.5
    assert jaccard_from_sets(a, a) == 1.0
    empty = np.empty(0, dtype=np.uint64)
    assert jaccard_from_sets(empty, empty) == 0.0


def test_char_gram_fallback():
    cjk = shingle_hash_set_text("北京大学计算机科学与技术系欢迎您访问我们")
    assert cjk.size > 5  # char grams, not one giant token
    latin = shingle_hash_set_text("many short words go here now ok yes")
    assert latin.size > 0


def test_minhash_estimates_jaccard():
    rng = np.random.default_rng(7)
    base = [f"w{i}" for i in range(300)]
    docs = []
    for frac in (1.0, 0.9, 0.5, 0.1):
        keep = base[: int(300 * frac)] + [f"x{i}" for i in range(300 - int(300 * frac))]
        docs.append(np.unique(stable_hash_strings(keep)))
    mh = MinHasher(16, 4, seed=2024)
    sigs = mh.signatures(docs)
    for i, frac in enumerate((1.0, 0.9, 0.5, 0.1)):
        true_j = jaccard_from_sets(docs[0], docs[i])
        est = float((sigs[0] == sigs[i]).mean())
        assert abs(est - true_j) < 0.2, (frac, true_j, est)
    # determinism across instances
    sigs2 = MinHasher(16, 4, seed=2024).signatures(docs)
    assert (sigs == sigs2).all()


def test_minhash_band_keys_shape_and_determinism():
    mh = MinHasher(8, 4, seed=1)
    docs = [np.unique(stable_hash_strings([f"t{i}", f"u{i}"])) for i in range(5)]
    sigs = mh.signatures(docs)
    b1, k1 = mh.band_keys(sigs)
    b2, k2 = mh.band_keys(sigs)
    assert b1.shape == (40,) and (k1 == k2).all()
    # identical docs share all band keys
    sigs_dup = mh.signatures([docs[0], docs[0]])
    _, kd = mh.band_keys(sigs_dup)
    assert (kd[:8] == kd[8:]).all()


def test_minhash_chunking_consistency():
    """Signatures must not depend on the internal chunk boundaries."""
    rng = np.random.default_rng(3)
    docs = [np.unique(rng.integers(0, 2**63, size=n, dtype=np.uint64))
            for n in (1, 7, 1000, 3, 5000, 2)]
    mh = MinHasher(4, 4, seed=9)
    whole = mh.signatures(docs)
    single = np.vstack([mh.signatures([d]) for d in docs])
    assert (whole == single).all()


def test_simhash_and_hamming():
    a = shingle_hash_set("the quick brown fox jumps over the lazy dog".split())
    b = shingle_hash_set("the quick brown fox jumps over the lazy cat".split())
    c = shingle_hash_set("completely different text with other words".split())
    s = simhash64([a, b, c])
    d_ab = hamming64(s[:1], s[1:2])[0]
    d_ac = hamming64(s[:1], s[2:3])[0]
    assert d_ab < d_ac
    assert hamming64(s[:1], s[:1])[0] == 0


def test_pairwise_jaccard_packed_matches_scalar():
    """Vectorized packed-pairs kernel == per-pair jaccard_from_sets."""
    import pyarrow as pa

    from reconcile_curation_in_cris_systems_ray.functions.similarity import (
        jaccard_from_sets, jaccard_pairs_from_binary,
    )

    rng = np.random.default_rng(42)
    sets_a, sets_b = [], []
    for _ in range(200):
        na, nb = rng.integers(0, 50, 2)
        base = np.unique(rng.integers(0, 80, 40).astype(np.uint64))
        a = np.unique(np.concatenate(
            [base[: rng.integers(0, base.size + 1)],
             rng.integers(100, 10**9, na).astype(np.uint64)]))
        b = np.unique(np.concatenate(
            [base[: rng.integers(0, base.size + 1)],
             rng.integers(100, 10**9, nb).astype(np.uint64)]))
        sets_a.append(a)
        sets_b.append(b)
    # include empty-set edge cases
    sets_a[0] = np.empty(0, dtype=np.uint64)
    sets_b[1] = np.empty(0, dtype=np.uint64)
    sets_a[2] = np.empty(0, dtype=np.uint64)
    sets_b[2] = np.empty(0, dtype=np.uint64)

    col_a = pa.array([s.tobytes() for s in sets_a], pa.binary())
    col_b = pa.array([s.tobytes() for s in sets_b], pa.binary())
    got = jaccard_pairs_from_binary(col_a, col_b)
    want = np.array([jaccard_from_sets(a, b)
                     for a, b in zip(sets_a, sets_b)])
    np.testing.assert_allclose(got, want, rtol=0, atol=0)

    # sliced column (non-zero offset) and large_binary must also work
    got_sliced = jaccard_pairs_from_binary(col_a.slice(3, 50),
                                           col_b.slice(3, 50))
    np.testing.assert_allclose(got_sliced, want[3:53], rtol=0, atol=0)
    got_large = jaccard_pairs_from_binary(col_a.cast(pa.large_binary()),
                                          col_b.cast(pa.large_binary()))
    np.testing.assert_allclose(got_large, want, rtol=0, atol=0)


def test_pairwise_jaccard_packed_nulls():
    import pyarrow as pa

    from reconcile_curation_in_cris_systems_ray.functions.similarity import (
        jaccard_pairs_from_binary,
    )

    s = np.array([1, 2, 3], dtype=np.uint64)
    col_a = pa.array([s.tobytes(), None], pa.binary())
    col_b = pa.array([s.tobytes(), s.tobytes()], pa.binary())
    got = jaccard_pairs_from_binary(col_a, col_b)
    np.testing.assert_allclose(got, [1.0, 0.0])


def test_packed_u64_column_single_chunk_is_zero_copy():
    """A 1-chunk column is viewed in place; values are unchanged for
    1-chunk, multi-chunk, sliced and large_binary inputs."""
    import pyarrow as pa

    from reconcile_curation_in_cris_systems_ray.functions.similarity import (
        packed_u64_column,
    )

    rng = np.random.default_rng(3)
    sets = [np.unique(rng.integers(0, 2**32, k).astype(np.uint32))
            for k in rng.integers(0, 30, 40)]
    arr = pa.array([s.tobytes() for s in sets], pa.binary())
    want_lens = np.array([s.size for s in sets])

    one = pa.chunked_array([arr])
    vals, _ = packed_u64_column(one, np.uint32)
    assert np.shares_memory(
        vals, np.frombuffer(one.chunk(0).buffers()[2], dtype=np.uint8))
    cases = {
        "one_chunk": (one, slice(None)),
        "array": (arr, slice(None)),
        "multi_chunk": (pa.chunked_array([arr.slice(0, 7), arr.slice(7, 0),
                                          arr.slice(7)]), slice(None)),
        "sliced": (arr.slice(5, 20), slice(5, 25)),
        "sliced_one_chunk": (pa.chunked_array([arr.slice(5, 20)]),
                             slice(5, 25)),
        "large_binary": (pa.chunked_array([arr.cast(pa.large_binary())]),
                         slice(None)),
    }
    for name, (col, rows) in cases.items():
        vals, lens = packed_u64_column(col, np.uint32)
        np.testing.assert_array_equal(lens, want_lens[rows], err_msg=name)
        want = (np.concatenate(sets[rows]) if sets[rows]
                else np.empty(0, np.uint32))
        np.testing.assert_array_equal(vals, want, err_msg=name)


def _grouped_jaccard_cases(rng, dtype):
    """(sets_a, sets_b) rows in which side-a sets repeat in groups of 1
    to ~200 partners, with forced low-16-bit slot collisions, one large
    (~5,000-token) set and empty sets on either side."""
    hi = 2**32 if dtype == np.uint32 else 2**63

    def rand(k):
        return rng.integers(0, hi, k, dtype=np.uint64).astype(dtype)

    def colliding(k, slots):
        # k tokens spread over few slots: most lose their table slot
        lo = rng.choice(slots, k)
        return ((rand(k) >> dtype(16)) << dtype(16)) | lo.astype(dtype)

    slots = rng.integers(0, 1 << 16, 8)
    bases = [
        np.unique(rand(int(rng.integers(1, 400)))) for _ in range(30)
    ] + [
        np.unique(np.concatenate([rand(100), colliding(60, slots)]))
        for _ in range(10)
    ] + [np.unique(rand(5000)), np.empty(0, dtype)]
    sets_a, sets_b = [], []
    prev = bases[-1]
    for a in bases:
        for _ in range(int(rng.choice([1, 2, 3, 17, 200]))):
            keep = a[rng.random(a.size) < rng.random()]
            # tokens of the previous group's set (a stale probe table
            # would match them) and tokens below 2^16, 0 included (an
            # empty slot's filler must never match them)
            extra = np.concatenate([rand(int(rng.integers(0, 60))),
                                    colliding(int(rng.integers(0, 20)),
                                              slots),
                                    prev[:int(rng.integers(0, 30))],
                                    rng.integers(0, 1 << 16, 3).astype(dtype),
                                    np.zeros(1, dtype)])
            b = (np.empty(0, dtype) if rng.random() < 0.03
                 else np.unique(np.concatenate([keep, extra])))
            sets_a.append(a)
            sets_b.append(b)
        prev = a
    return sets_a, sets_b


def test_grouped_jaccard_fuzz_bit_identical(monkeypatch):
    """The grouped build/probe Jaccard kernel equals jaccard_from_sets
    bit for bit, grouped or shuffled, across slot collisions, large and
    empty sets, NULLs, both token widths, every Arrow input layout, and
    side-b gathers split into many small slices: through the binary
    wrapper and through the indexed kernel (repeated and shuffled
    side-a indices into one packed column)."""
    import pyarrow as pa

    from reconcile_curation_in_cris_systems_ray.functions import similarity
    from reconcile_curation_in_cris_systems_ray.functions.similarity import (
        jaccard_pairs_from_binary,
    )

    rng = np.random.default_rng(2024)
    for dtype in (np.uint32, np.uint64):
        sets_a, sets_b = _grouped_jaccard_cases(rng, dtype)
        want = np.array([jaccard_from_sets(a, b)
                         for a, b in zip(sets_a, sets_b)])
        assert (want > 0).sum() > len(want) // 2
        perm = rng.permutation(len(sets_a))
        for name, rows in (("grouped", np.arange(len(sets_a))),
                           ("shuffled", perm)):
            col_a = pa.array([sets_a[i].tobytes() for i in rows], pa.binary())
            col_b = pa.array([sets_b[i].tobytes() for i in rows], pa.binary())
            w = want[rows]
            layouts = {
                "array": (col_a, col_b, w),
                "one_chunk": (pa.chunked_array([col_a]),
                              pa.chunked_array([col_b]), w),
                "multi_chunk": (pa.chunked_array([col_a[:100], col_a[100:]]),
                                pa.chunked_array([col_b[:333], col_b[333:]]),
                                w),
                "sliced": (col_a.slice(50, 400), col_b.slice(50, 400),
                           w[50:450]),
                "large_binary": (col_a.cast(pa.large_binary()),
                                 col_b.cast(pa.large_binary()), w),
                "empty": (col_a.slice(0, 0), col_b.slice(0, 0), w[:0]),
            }
            for layout, (ca, cb, expect) in layouts.items():
                got = jaccard_pairs_from_binary(ca, cb, dtype=dtype)
                assert got.dtype == np.float64
                assert got.tobytes() == expect.tobytes(), (dtype, name,
                                                           layout)
        # a gather budget far below one group's partners splits groups
        # across slices
        monkeypatch.setattr(similarity, "_GATHER_TOKENS", 1000)
        col_a = pa.array([sets_a[i].tobytes() for i in perm], pa.binary())
        col_b = pa.array([sets_b[i].tobytes() for i in perm], pa.binary())
        got = jaccard_pairs_from_binary(col_a, col_b, dtype=dtype)
        assert got.tobytes() == want[perm].tobytes(), (dtype, "small slices")
        monkeypatch.undo()

        # the indexed kernel over one packed column holding each
        # distinct side-a set once and every side-b set; extra pairs
        # pick any two sets of the column, a set with itself included
        ids = {}
        ia = np.array([ids.setdefault(a.tobytes(), len(ids))
                       for a in sets_a])
        pool = [np.frombuffer(x, dtype) for x in ids] + sets_b
        vals, lens = similarity.packed_u64_column(
            pa.array([x.tobytes() for x in pool], pa.binary()), dtype)
        ib = len(ids) + np.arange(len(sets_b))
        extra_a = rng.integers(0, len(pool), 300)
        extra_b = rng.integers(0, len(pool), 300)
        extra_b[:20] = extra_a[:20]
        ia, ib = np.concatenate([ia, extra_a]), np.concatenate([ib, extra_b])
        want_ix = np.array([jaccard_from_sets(pool[i], pool[j])
                            for i, j in zip(ia, ib)])
        assert want_ix[-300:-280].max() == 1.0
        perm = rng.permutation(ia.size)
        for name, rows in (("grouped", np.arange(ia.size)),
                           ("shuffled", perm), ("empty", perm[:0])):
            got = similarity.jaccard_pairs_by_index(vals, lens, ia[rows],
                                                    ib[rows])
            assert got.dtype == np.float64
            assert got.tobytes() == want_ix[rows].tobytes(), (dtype, name)
        monkeypatch.setattr(similarity, "_GATHER_TOKENS", 1000)
        got = similarity.jaccard_pairs_by_index(vals, lens, ia[perm],
                                                ib[perm])
        assert got.tobytes() == want_ix[perm].tobytes(), (dtype,
                                                          "indexed slices")
        monkeypatch.undo()

    # NULL reads as the empty set, on either side
    s = np.array([1, 2, 3], dtype=np.uint32).tobytes()
    got = jaccard_pairs_from_binary(pa.array([s, None, None, s], pa.binary()),
                                    pa.array([None, s, None, s], pa.binary()),
                                    dtype=np.uint32)
    assert got.tolist() == [0.0, 0.0, 0.0, 1.0]


def test_damerau_leq1_duckdb_parity_fuzz():
    """Closed-form capped DL kernel == DuckDB damerau_levenshtein
    (capped at 2) over randomized mutation pairs covering every branch:
    identity, substitution, insertion, deletion, adjacent transposition,
    and double edits."""
    import random

    import duckdb

    from reconcile_curation_in_cris_systems_ray.functions.similarity import (
        damerau_leq1,
    )

    rng = random.Random(7)
    alpha = "abcdeXY01#"
    pairs = []
    for _ in range(2000):
        n = rng.randint(0, 12)
        s = "".join(rng.choice(alpha) for _ in range(n))
        t = list(s)
        op = rng.randint(0, 5)
        if op == 0 and t:
            t[rng.randrange(len(t))] = rng.choice(alpha)
        elif op == 1:
            t.insert(rng.randint(0, len(t)), rng.choice(alpha))
        elif op == 2 and t:
            del t[rng.randrange(len(t))]
        elif op == 3 and len(t) > 1:
            i = rng.randrange(len(t) - 1)
            t[i], t[i + 1] = t[i + 1], t[i]
        elif op == 4 and t:
            t[rng.randrange(len(t))] = rng.choice(alpha)
            t.insert(rng.randint(0, len(t)), rng.choice(alpha))
        pairs.append((s, "".join(t)))
    df = pd.DataFrame(pairs, columns=["a", "b"])
    con = duckdb.connect()
    want = con.execute(
        "SELECT least(damerau_levenshtein(a, b), 2) FROM df"
    ).fetchnumpy()
    want = next(iter(want.values())).astype(np.int64)
    got = damerau_leq1(df["a"], df["b"])
    np.testing.assert_array_equal(got, want)


def test_charset_jaccard_duckdb_parity_fuzz():
    """256-bit charset-mask Jaccard == DuckDB jaccard() bit-for-bit
    on random non-empty ASCII strings."""
    import random

    import duckdb

    from reconcile_curation_in_cris_systems_ray.functions.similarity import (
        charset_masks, popcount_rows,
    )

    rng = random.Random(11)
    alpha = "abcdefgXYZ 012#~"
    rows = [("".join(rng.choice(alpha) for _ in range(rng.randint(1, 20))),
             "".join(rng.choice(alpha) for _ in range(rng.randint(1, 20))))
            for _ in range(2000)]
    df = pd.DataFrame(rows, columns=["a", "b"])
    con = duckdb.connect()
    want = con.execute("SELECT jaccard(a, b) FROM df").fetchnumpy()
    want = next(iter(want.values()))
    ma, mb = charset_masks(df["a"]), charset_masks(df["b"])
    got = popcount_rows(ma & mb) / np.maximum(popcount_rows(ma | mb), 1)
    np.testing.assert_allclose(got, want, rtol=0, atol=0)


def test_small_group_jaccard_bit_identical(monkeypatch):
    """A batch made mostly of side-a sets with 1-3 partners (a crawl of
    small duplicate families), plus a few larger groups: the indexed
    kernel equals jaccard_from_sets bit for bit whichever kernel counts
    each group (the merge kernel for all, for none, or split at the
    default), across gather slices far smaller than one pair."""
    import pyarrow as pa

    from reconcile_curation_in_cris_systems_ray.functions import similarity

    rng = np.random.default_rng(77)
    sets_a, sets_b = _grouped_jaccard_cases(rng, np.uint32)
    pool = sets_a[:40] + sets_b
    vals, lens = similarity.packed_u64_column(
        pa.array([x.tobytes() for x in pool], pa.binary()), np.uint32)
    ia, ib = [], []
    for a in range(len(pool)):
        k = int(rng.choice([1, 2, 3, 9], p=[0.3, 0.3, 0.35, 0.05]))
        ia.extend([a] * k)
        ib.extend(rng.integers(0, len(pool), k))
    ia, ib = np.array(ia), np.array(ib)
    ib[:25] = ia[:25]                       # a set with itself
    want = np.array([jaccard_from_sets(pool[i], pool[j])
                     for i, j in zip(ia, ib)])
    assert (want > 0).sum() > len(want) // 4 and want.max() == 1.0
    partners = np.bincount(ia)[ia]
    assert (partners <= 3).mean() > 0.7
    perm = rng.permutation(ia.size)
    for small_group in (similarity._SMALL_GROUP, 0, 10**9):
        monkeypatch.setattr(similarity, "_SMALL_GROUP", small_group)
        for tokens in (similarity._GATHER_TOKENS, 1000):
            monkeypatch.setattr(similarity, "_GATHER_TOKENS", tokens)
            got = similarity.jaccard_pairs_by_index(vals, lens, ia[perm],
                                                    ib[perm])
            assert got.tobytes() == want[perm].tobytes(), (small_group,
                                                           tokens)
        monkeypatch.undo()
