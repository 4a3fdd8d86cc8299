"""Independent scalar-DP pin for the batched Gotoh kernel, plus the
smith_waterman query smoke (rows-only at the driver)."""

from __future__ import annotations

import numpy as np
import pytest

from reconcile_curation_in_cris_systems_ray.functions.similarity import (
    gotoh_local_similarity,
)

MATCH, MISMATCH, GO, GE = 2.0, -1.0, -2.0, -0.5


def _scalar_gotoh(a: str, b: str) -> float:
    n, m = len(a), len(b)
    if n == 0 and m == 0:
        return 1.0
    if n == 0 or m == 0:
        return 0.0
    neg = float("-inf")
    H = [[0.0] * (m + 1) for _ in range(n + 1)]
    E = [[neg] * (m + 1) for _ in range(n + 1)]
    F = [[neg] * (m + 1) for _ in range(n + 1)]
    best = 0.0
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            E[i][j] = max(H[i][j - 1] + GO, E[i][j - 1] + GE)
            F[i][j] = max(H[i - 1][j] + GO, F[i - 1][j] + GE)
            sub = MATCH if a[i - 1] == b[j - 1] else MISMATCH
            H[i][j] = max(0.0, H[i - 1][j - 1] + sub, E[i][j], F[i][j])
            best = max(best, H[i][j])
    return min(1.0, best / (MATCH * min(n, m)))


CASES = [
    ("smith", "smith"),
    ("smith", "smyth"),
    ("jonathan", "johnathan"),
    ("acme corporation", "acme corp"),
    ("deep sea research ltd", "deepsea research limited"),
    ("abc", "xyz"),
    ("a", "a"),
    ("a", "b"),
    ("reconcile", "recncile"),
    ("university of oxford", "oxford university"),
    ("aaaa", "aabaa"),
    ("kitten", "sitting"),
    ("", "nonempty"),
    ("pale turquoise", "pale turqoise"),
    ("x" * 40, "x" * 35 + "y" * 5),
]


def test_batched_kernel_matches_scalar_dp():
    a = np.array([c[0] for c in CASES], dtype=object)
    b = np.array([c[1] for c in CASES], dtype=object)
    got = gotoh_local_similarity(a, b)
    want = np.array([_scalar_gotoh(x, y) for x, y in CASES])
    np.testing.assert_allclose(got, want, atol=1e-9)


def test_identity_and_ordering():
    got = gotoh_local_similarity(
        np.array(["smith", "smith", "smith"], dtype=object),
        np.array(["smith", "smyth", "qqqqq"], dtype=object))
    assert got[0] == pytest.approx(1.0)
    assert got[0] > got[1] > got[2]


def test_smith_waterman_query(ray_session):
    from reconcile_curation_in_cris_systems_ray.pipelines.queries.dedup import (
        q_smith_waterman,
    )

    df = q_smith_waterman("/root/testdata/sf0.001").to_pandas()
    assert len(df) > 0
    assert df["sim"].between(0, 1).all()
    # twins keep the second word intact, so the local alignment
    # recovers roughly the w2/(w1+w2) fraction of the shorter string
    assert (df["sim"] >= 0.4).mean() > 0.9
    assert df["sim"].median() > 0.5
