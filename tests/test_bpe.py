"""Independent sequential pin for distributed BPE merge learning."""

from __future__ import annotations

import re
from collections import Counter

import pandas as pd
import pyarrow.parquet as pq

SF = "/root/testdata/sf0.001"
END = "</w>"


def _sequential_bpe(texts: list[str], n_merges: int) -> pd.DataFrame:
    vocab: Counter = Counter()
    for t in texts:
        vocab.update(re.findall(r"[a-z0-9]+", (t or "").lower()))
    syms = {w: " ".join(list(w) + [END]) for w in vocab}
    rules = []
    for step in range(1, n_merges + 1):
        stats: Counter = Counter()
        for w, n in vocab.items():
            parts = syms[w].split(" ")
            for i in range(len(parts) - 1):
                stats[(parts[i], parts[i + 1])] += n
        if not stats:
            break
        best = min(stats.items(), key=lambda kv: (-kv[1], kv[0]))
        (left, right), cnt = best
        rules.append((step, left, right, cnt))
        pat = re.compile(
            rf"(?<!\S){re.escape(left)} {re.escape(right)}(?!\S)")
        for w in syms:
            syms[w] = pat.sub(left + right, syms[w])
    return pd.DataFrame(rules,
                        columns=["step", "left", "right", "pair_count"])


def test_bpe_train_matches_sequential(ray_session):
    from reconcile_curation_in_cris_systems_ray.pipelines.queries.textstats import (
        q_bpe_train,
    )

    got = q_bpe_train(SF).reset_index(drop=True)
    texts = pq.read_table(f"{SF}/documents.parquet",
                          columns=["text"]).column("text").to_pylist()
    want = _sequential_bpe(texts, 8)
    assert len(got) == 8
    pd.testing.assert_frame_equal(
        got.astype({"step": "int64", "pair_count": "int64"}),
        want.astype({"step": "int64", "pair_count": "int64"}))


def test_bpe_merges_are_progressive(ray_session):
    from reconcile_curation_in_cris_systems_ray.stages.bpe import learn_bpe
    import ray.data as rd
    import pyarrow as pa

    docs = rd.from_arrow(pa.table({"text": ["low lower lowest",
                                            "low low lowest"]}))
    rules = learn_bpe(docs, "text", n_merges=4)
    assert list(rules["step"]) == [1, 2, 3, 4]
    # 'low' appears in every word: 'l o' (or its successor) merges first
    assert rules.iloc[0]["pair_count"] >= 4
