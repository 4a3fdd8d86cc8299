"""Perceptual-hash operator: real DCT hash math + the actor-pool
stage + Hamming pair recovery of planted payload duplicates."""

from __future__ import annotations

import numpy as np
import pandas as pd


def test_phash_locality_on_pixels():
    """Real hash math: small pixel noise moves few bits, unrelated
    images differ in ~half."""
    from reconcile_curation_in_cris_systems_ray.stages.multimodal import phash64

    rng = np.random.default_rng(0)
    base = rng.random((32, 32)) * 0.5 + 0.25
    noisy = base + rng.normal(0, 0.01, base.shape)
    other = rng.random((32, 32))
    h = phash64(np.stack([base, noisy, other]))
    bits = np.unpackbits(h, axis=1)
    assert int((bits[0] != bits[1]).sum()) <= 4
    assert int((bits[0] != bits[2]).sum()) >= 16


def test_phash_dups_recovers_exact_payload_duplicates(ray_session):
    import ray.data as rd

    from reconcile_curation_in_cris_systems_ray.stages.multimodal import (
        phash_media,
    )
    from reconcile_curation_in_cris_systems_ray.stages.pairs import (
        hamming_pairs,
    )

    payloads = [f"unique media payload {i}".encode() for i in range(40)]
    # plant 3 exact duplicates of payload 0
    rows = [{"media_id": f"m{i}", "kind": "image", "payload": p,
             "mime": "application/octet-stream"}
            for i, p in enumerate(payloads)]
    for j in range(3):
        rows.append({"media_id": f"d{j}", "kind": "image",
                     "payload": payloads[0],
                     "mime": "application/octet-stream"})
    hashed = phash_media(rd.from_pandas(pd.DataFrame(rows)))
    got = hamming_pairs(hashed, "media_id", "phash", max_dist=2) \
        .to_pandas()
    dup_ids = {"m0", "d0", "d1", "d2"}
    exact = got[got["dist"] == 0]
    pairs = {tuple(sorted((a, b)))
             for a, b in zip(exact["id_a"], exact["id_b"])}
    import itertools
    want = {tuple(sorted(p))
            for p in itertools.combinations(sorted(dup_ids), 2)}
    assert want <= pairs
    # no exact-distance pair outside the planted clique
    assert all(a in dup_ids and b in dup_ids for a, b in pairs)


# ---------------------------------------------------------------------------
# Real PNG decode path (round-4: pure-stdlib codec, functions/png.py)
# ---------------------------------------------------------------------------

def test_png_roundtrip_all_encoder_filters():
    from reconcile_curation_in_cris_systems_ray.functions.png import (
        decode_png, encode_png_gray,
    )

    rng = np.random.default_rng(11)
    img = (rng.random((37, 61)) * 255).astype(np.uint8)
    for f in (0, 1, 2):
        out = decode_png(encode_png_gray(img, filter_type=f))
        assert out.dtype == np.uint8 and out.shape == img.shape
        assert (out == img).all()


def test_png_decode_rgb_average_paeth_and_palette():
    """Hand-built PNGs exercise decode-only paths: RGB with Average
    and Paeth scanline filters, and palette expansion."""
    import struct
    import zlib

    from reconcile_curation_in_cris_systems_ray.functions.png import decode_png

    def chunk(t, d):
        return (struct.pack(">I", len(d)) + t + d
                + struct.pack(">I", zlib.crc32(t + d)))

    def paeth(a, b, c):
        p = a + b - c
        pa_, pb_, pc_ = abs(p - a), abs(p - b), abs(p - c)
        return a if pa_ <= pb_ and pa_ <= pc_ else (b if pb_ <= pc_ else c)

    rng = np.random.default_rng(3)
    h, w, bpp = 11, 6, 3
    rgb = (rng.random((h, w, bpp)) * 255).astype(np.uint8)
    stride = w * bpp
    flat = rgb.reshape(h, stride).astype(int)
    scan, prev = [], np.zeros(stride, dtype=int)
    for y in range(h):
        f = 3 if y % 2 == 0 else 4
        enc = np.zeros(stride, dtype=int)
        for x in range(stride):
            left = flat[y][x - bpp] if x >= bpp else 0
            up, ul = prev[x], (prev[x - bpp] if x >= bpp else 0)
            pred = (left + up) // 2 if f == 3 else paeth(left, up, ul)
            enc[x] = (flat[y][x] - pred) & 0xFF
        scan.append(bytes([f]) + bytes(enc.astype(np.uint8)))
        prev = flat[y]
    sig = b"\x89PNG\r\n\x1a\n"
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    data = (sig + chunk(b"IHDR", ihdr)
            + chunk(b"IDAT", zlib.compress(b"".join(scan)))
            + chunk(b"IEND", b""))
    assert (decode_png(data) == rgb).all()

    # palette image: 2 colors, 4x4 checker
    idx = np.indices((4, 4)).sum(axis=0) % 2
    raw = b"".join(b"\x00" + bytes(idx[y].astype(np.uint8)) for y in range(4))
    plte = bytes([10, 20, 30, 200, 210, 220])
    ihdr = struct.pack(">IIBBBBB", 4, 4, 8, 3, 0, 0, 0)
    data = (sig + chunk(b"IHDR", ihdr) + chunk(b"PLTE", plte)
            + chunk(b"IDAT", zlib.compress(raw)) + chunk(b"IEND", b""))
    out = decode_png(data)
    assert out.shape == (4, 4, 3)
    assert (out[0, 0] == [10, 20, 30]).all()
    assert (out[0, 1] == [200, 210, 220]).all()


def test_png_decode_rejects_malformed():
    import struct
    import zlib

    import pytest

    from reconcile_curation_in_cris_systems_ray.functions.png import (
        PngError, decode_png, encode_png_gray,
    )

    with pytest.raises(PngError):
        decode_png(b"not a png at all")
    good = encode_png_gray(np.zeros((4, 4), dtype=np.uint8))
    with pytest.raises(PngError):
        decode_png(good[:20])  # truncated
    # corrupt the IDAT payload bytes
    bad = bytearray(good)
    bad[-20] ^= 0xFF
    with pytest.raises(PngError):
        decode_png(bytes(bad))

    # header and palette faults that would otherwise surface as
    # struct.error / IndexError deeper in the decode
    def chunk(t, d):
        return (struct.pack(">I", len(d)) + t + d
                + struct.pack(">I", zlib.crc32(t + d)))

    sig = good[:8]
    idat = chunk(b"IDAT", zlib.compress(b"\x00\x05\x05" * 2))
    iend = chunk(b"IEND", b"")
    short_ihdr = chunk(b"IHDR", struct.pack(">IIBBBB", 2, 2, 8, 3, 0, 0))
    zero_width = chunk(b"IHDR", struct.pack(">IIBBBBB", 0, 2, 8, 0, 0, 0, 0))
    palette = chunk(b"IHDR", struct.pack(">IIBBBBB", 2, 2, 8, 3, 0, 0, 0))
    one_color = chunk(b"PLTE", bytes([1, 2, 3]))  # pixels index entry 5
    for data, msg in [(sig + short_ihdr + idat + iend, "IHDR length"),
                      (sig + zero_width
                       + chunk(b"IDAT", zlib.compress(b"\x00\x00")) + iend,
                       "zero image"),
                      (sig + palette + one_color + idat + iend,
                       "palette index")]:
        with pytest.raises(PngError, match=msg):
            decode_png(data)


def test_media_decode_png_backend_real_dims(ray_session):
    """backend="png" reports TRUE width/height from IHDR, not fakes."""
    import ray.data as rd

    from reconcile_curation_in_cris_systems_ray.functions.png import (
        encode_png_gray,
    )
    from reconcile_curation_in_cris_systems_ray.stages.multimodal import (
        decode_media,
    )

    rng = np.random.default_rng(5)
    rows = []
    dims = [(40, 56), (64, 48), (32, 32)]
    for i, (h, w) in enumerate(dims):
        img = (rng.random((h, w)) * 255).astype(np.uint8)
        rows.append({"media_id": f"m{i}", "kind": "image",
                     "payload": encode_png_gray(img, filter_type=i % 3),
                     "mime": "image/png"})
    # one corrupt payload -> quarantined per-row, not a stage failure
    rows.append({"media_id": "bad", "kind": "image",
                 "payload": b"\x89PNG\r\n\x1a\ngarbage",
                 "mime": "image/png"})
    out = decode_media(rd.from_pandas(pd.DataFrame(rows)),
                       backend="png").to_pandas()
    out = out.set_index("media_id")
    for i, (h, w) in enumerate(dims):
        assert out.loc[f"m{i}", "width"] == w
        assert out.loc[f"m{i}", "height"] == h
        assert out.loc[f"m{i}", "decode_error"] is None
    assert out.loc["bad", "decode_error"] is not None


def test_phash_png_recovers_planted_near_duplicates(ray_session):
    """End-to-end REAL path: noise-perturbed re-encoded PNGs (different
    bytes, different scanline filter) land within 2 hex-nibble Hamming
    distance; unrelated images never pair."""
    from reconcile_curation_in_cris_systems_ray.pipelines.queries.textstats import (
        q_phash_dups,
    )

    got = q_phash_dups("/root/testdata/sf0.001").to_pandas()
    pairs = {tuple(sorted((a, b)))
             for a, b in zip(got["id_a"], got["id_b"])}
    # every planted ("m{50k}", "m{50k}dup") pair must be recovered
    import pyarrow.parquet as pq
    n_docs = pq.read_table("/root/testdata/sf0.001/documents.parquet",
                           columns=["doc_id"]).num_rows
    planted = {tuple(sorted((f"m{d}", f"m{d}dup")))
               for d in range(0, n_docs, 50)}
    assert planted, "fixture produced no planted dups"
    assert planted <= pairs
    # and nothing else pairs (unrelated smooth fields differ by ~32 bits)
    assert pairs == planted


def test_bmp_roundtrip_exact():
    """encode_bmp_rgb24 -> decode_bmp is pixel-exact, for even and odd
    widths (row padding) and for grayscale input (replicated to RGB)."""
    from reconcile_curation_in_cris_systems_ray.functions.bmp import (
        decode_bmp, encode_bmp_rgb24,
    )

    rng = np.random.default_rng(11)
    for h, w in [(5, 7), (8, 8), (3, 2), (17, 31)]:
        img = (rng.random((h, w, 3)) * 255).astype(np.uint8)
        out = decode_bmp(encode_bmp_rgb24(img))
        assert out.shape == (h, w, 3)
        assert np.array_equal(out, img)
    gray = (rng.random((6, 5)) * 255).astype(np.uint8)
    out = decode_bmp(encode_bmp_rgb24(gray))
    assert np.array_equal(out, np.repeat(gray[:, :, None], 3, axis=2))


def test_bmp_decode_rejects_malformed():
    import pytest

    from reconcile_curation_in_cris_systems_ray.functions.bmp import (
        decode_bmp, encode_bmp_rgb24,
    )

    with pytest.raises(ValueError):
        decode_bmp(b"BMgarbage")
    with pytest.raises(ValueError):
        decode_bmp(b"\x89PNG\r\n\x1a\nnot a bmp")
    good = encode_bmp_rgb24(np.zeros((4, 4, 3), dtype=np.uint8))
    with pytest.raises(ValueError):
        decode_bmp(good[: len(good) - 8])  # truncated pixel array


def test_media_decode_image_backend_mixed_formats(ray_session):
    """backend="image" magic-dispatches PNG and BMP payloads in one
    batch and reports true dims for both; unknown magic is quarantined
    per-row."""
    import ray.data as rd

    from reconcile_curation_in_cris_systems_ray.functions.bmp import (
        encode_bmp_rgb24,
    )
    from reconcile_curation_in_cris_systems_ray.functions.png import (
        encode_png_gray,
    )
    from reconcile_curation_in_cris_systems_ray.stages.multimodal import (
        decode_media,
    )

    rng = np.random.default_rng(7)
    img_a = (rng.random((40, 56)) * 255).astype(np.uint8)
    img_b = (rng.random((24, 33, 3)) * 255).astype(np.uint8)  # odd width
    rows = [
        {"media_id": "png0", "kind": "image",
         "payload": encode_png_gray(img_a), "mime": "image/png"},
        {"media_id": "bmp0", "kind": "image",
         "payload": encode_bmp_rgb24(img_b), "mime": "image/bmp"},
        {"media_id": "unk", "kind": "image",
         "payload": b"GIF87a....", "mime": "image/gif"},
    ]
    out = decode_media(rd.from_pandas(pd.DataFrame(rows)),
                       backend="image").to_pandas().set_index("media_id")
    assert (out.loc["png0", "width"], out.loc["png0", "height"]) == (56, 40)
    assert out.loc["png0", "decode_error"] is None
    assert (out.loc["bmp0", "width"], out.loc["bmp0", "height"]) == (33, 24)
    assert out.loc["bmp0", "decode_error"] is None
    assert out.loc["unk", "decode_error"] is not None


def test_phash_cross_format_locality():
    """The SAME pixels through PNG and BMP containers hash to (nearly)
    identical pHash bits — the container contributes nothing; only
    pixel content does."""
    from reconcile_curation_in_cris_systems_ray.functions.bmp import (
        decode_bmp, encode_bmp_rgb24,
    )
    from reconcile_curation_in_cris_systems_ray.functions.png import (
        decode_png, encode_png_gray, resize_mean, to_gray_f64,
    )
    from reconcile_curation_in_cris_systems_ray.stages.multimodal import (
        phash64,
    )

    rng = np.random.default_rng(3)
    img = (resize_mean(rng.random((8, 8)), 64, 48) * 255).astype(np.uint8)
    px_png = resize_mean(to_gray_f64(decode_png(encode_png_gray(img))),
                         32, 32)
    px_bmp = resize_mean(to_gray_f64(decode_bmp(encode_bmp_rgb24(img))),
                         32, 32)
    h = phash64(np.stack([px_png, px_bmp]))
    dist = bin(int.from_bytes(bytes(h[0]), "big")
               ^ int.from_bytes(bytes(h[1]), "big")).count("1")
    assert dist <= 2, dist


def test_media_fixture_plants_both_cross_format_directions(ray_session):
    """The planted near-dups must include BOTH container directions —
    PNG original -> BMP dup AND BMP original -> PNG dup (regression:
    an earlier rule keyed the direction on doc_id % 4 == 1, which no
    even dup site can satisfy, leaving one direction untested)."""
    from reconcile_curation_in_cris_systems_ray.pipelines.queries.textstats import (  # noqa: E501
        _png_media_ds,
    )

    df = _png_media_ds("/root/testdata/sf0.001",
                       plant_dups=True).to_pandas()
    m = df.set_index("media_id")["mime"]
    directions = set()
    for mid in m.index:
        if mid.endswith("dup"):
            directions.add((m[mid[:-3]], m[mid]))
    assert ("image/png", "image/bmp") in directions
    assert ("image/bmp", "image/png") in directions


def test_phash_stage_quarantines_bad_payload_rows(ray_session):
    """One undecodable payload drops that row, never the batch — the
    same per-row discipline as the decode stage."""
    import ray.data as rd

    from reconcile_curation_in_cris_systems_ray.functions.bmp import (
        encode_bmp_rgb24,
    )
    from reconcile_curation_in_cris_systems_ray.functions.png import (
        encode_png_gray,
    )
    from reconcile_curation_in_cris_systems_ray.stages.multimodal import (
        phash_media,
    )

    img = (np.random.default_rng(1).random((40, 40)) * 255) \
        .astype(np.uint8)
    png = encode_png_gray(img)
    bmp = encode_bmp_rgb24(img)
    # the first IDAT body byte (after signature, IHDR chunk and the
    # IDAT length/type) at 41 is the zlib header
    bad_zlib = png[:41] + b"\xff\xff\xff\xff" + png[45:]
    rows = [
        {"media_id": "ok", "kind": "image",
         "payload": png, "mime": "image/png"},
        {"media_id": "bad", "kind": "image",
         "payload": b"GIF87a....", "mime": "image/gif"},
        {"media_id": "null", "kind": "image",
         "payload": None, "mime": "image/png"},
        {"media_id": "short_png", "kind": "image",
         "payload": png[: len(png) // 2], "mime": "image/png"},
        {"media_id": "short_bmp", "kind": "image",
         "payload": bmp[: len(bmp) // 2], "mime": "image/bmp"},
        {"media_id": "bad_zlib", "kind": "image",
         "payload": bad_zlib, "mime": "image/png"},
    ]
    out = phash_media(rd.from_pandas(pd.DataFrame(rows)),
                      backend="image").to_pandas()
    assert list(out["media_id"]) == ["ok"]
    assert len(out["phash"].iloc[0]) == 16


def test_phash_stage_propagates_non_media_errors():
    """Only malformed media (ValueError) are quarantined: an error of
    any other type in the pixel path is a bug and must surface rather
    than silently drop the row."""
    import pyarrow as pa
    import pytest

    from reconcile_curation_in_cris_systems_ray.functions import png
    from reconcile_curation_in_cris_systems_ray.stages.multimodal import (
        PhashStage,
    )

    class BrokenGray:
        decode_png = staticmethod(png.decode_png)
        resize_mean = staticmethod(png.resize_mean)

        @staticmethod
        def to_gray_f64(img):
            raise TypeError("bug in the pixel path")

    stage = PhashStage(backend="png")
    stage._png = BrokenGray
    payload = png.encode_png_gray(np.zeros((8, 8), np.uint8))
    batch = pa.table({"media_id": ["a"], "payload": [payload]})
    with pytest.raises(TypeError, match="bug in the pixel path"):
        stage(batch)
