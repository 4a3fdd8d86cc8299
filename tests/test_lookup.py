"""The broadcast sorted-hash lookup (``stages/lookup.py``): build rules,
collision policy and probe, run in process on the remote body."""
import numpy as np
import pyarrow as pa
import pytest

from reconcile_curation_in_cris_systems_ray.functions import similarity
from reconcile_curation_in_cris_systems_ray.stages.lookup import (
    build_sorted_lookup, probe,
)


def _labels(keys, labels):
    return pa.table({"k": pa.array(keys, pa.string()),
                     "v": pa.array(labels, pa.string())})


def test_string_key_collision_raises_naming_both_keys(monkeypatch):
    real_hash = similarity.stable_hash_strings

    def colliding_hash(values):
        h = real_hash(values)
        h[np.asarray(values, dtype=object) == "b/clash"] = real_hash(
            ["a/one"])[0]
        return h

    monkeypatch.setattr(similarity, "stable_hash_strings", colliding_hash)
    # the clash sits in another block and after a repeat of "a/one"
    with pytest.raises(ValueError, match="'a/one' and 'b/clash'"):
        build_sorted_lookup("k", ["v"],
                            _labels(["a/one", "a/two"], ["x", "y"]),
                            _labels(["a/one", "b/clash"], ["z", "w"]))


def test_repeated_key_keeps_its_first_row():
    h, tbl, n = build_sorted_lookup(
        "k", ["k", "v"], _labels(["a", "b", "a"], ["first", "b", "second"]),
        _labels(["a"], ["third"]))
    assert n == len(h) == tbl.num_rows == 2
    assert (h[1:] > h[:-1]).all()
    i, found = probe(h, np.array(["a", "b"], dtype=object))
    assert found.all()
    assert tbl.column("v").take(pa.array(i)).to_pylist() == ["first", "b"]
    assert tbl.column("k").take(pa.array(i)).to_pylist() == ["a", "b"]


def test_integer_key_set_collapses_repeats():
    def bands(vals):
        return pa.table({"band_hash": pa.array(vals, pa.int64())})

    h, tbl, n = build_sorted_lookup("band_hash", [], bands([5, -3, 5]),
                                    bands([7, -3, 2**62]))
    assert h.dtype == np.int64
    assert h.tolist() == [-3, 5, 7, 2**62]
    assert n == 4 and tbl.num_columns == 0


def test_column_less_empty_blocks_are_skipped():
    no_cols = pa.table({})
    assert no_cols.num_rows == 0 and no_cols.num_columns == 0
    h, tbl, n = build_sorted_lookup("k", ["v"], no_cols,
                                    _labels(["a"], ["x"]), no_cols)
    assert n == 1 and tbl.column("v").to_pylist() == ["x"]

    h, tbl, n = build_sorted_lookup("k", ["v"], no_cols, no_cols)
    assert n == 0 and len(h) == 0 and tbl.column_names == ["v"]
    i, found = probe(h, np.array(["a"], dtype=object))
    assert found.tolist() == [False] and len(i) == 1


def test_probe_found_mask_marks_missing_keys():
    keys = ["m", "c", "x"]
    h, tbl, _ = build_sorted_lookup("k", ["v"], _labels(keys, keys))
    # below, between and above the stored hashes, plus every stored key
    query = ["m", "nope", "x", "", "c", "zzz"] + [f"q{i}" for i in range(50)]
    i, found = probe(h, np.array(query, dtype=object))
    assert found.tolist() == [q in keys for q in query]
    got = tbl.column("v").take(pa.array(i[found])).to_pylist()
    assert got == [q for q in query if q in keys]
    # Arrow string columns and precomputed hashes probe alike
    by_arrow = probe(h, pa.chunked_array([pa.array(query)]))
    by_hash = probe(h, similarity.stable_hash_strings(query))
    for other in (by_arrow, by_hash):
        assert (other[1] == found).all() and (other[0][found] ==
                                              i[found]).all()
    # integer lookups take integer keys as they are
    ih, _, _ = build_sorted_lookup(
        "band_hash", [], pa.table({"band_hash": pa.array([4, 9], pa.int64())}))
    assert probe(ih, np.array([1, 4, 5, 9, 12]))[1].tolist() == [
        False, True, False, True, False]
