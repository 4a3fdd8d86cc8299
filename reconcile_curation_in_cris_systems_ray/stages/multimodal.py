"""Multimodal column plumbing: opaque binary payloads + typed metadata.

Image/audio decode *libraries* are not available in this container
(no Pillow — verified), so most decode kernels are stubbed behind
``backend="fake"`` (a deterministic hash-based fake) / ``backend=
"strict"`` (raises NotImplementedError).  TWO real formats are wired
end-to-end: ``backend="png"`` decodes genuine PNG bytes through the
pure-stdlib codec in ``functions/png.py`` (IHDR/IDAT, filters 0-4,
gray/RGB/RGBA/palette), and ``backend="image"`` adds magic-byte
dispatch to the pure-stdlib BMP codec (``functions/bmp.py``, 24/32-bit
BI_RGB) — both feed the same (B, 32, 32) float pixel
contract the pHash / feature stages consume — so `media_decode` and
`phash_dups` exercise true decode paths, not fakes, across two
container formats (including CROSS-format near-dup recovery).  The Ray-side plumbing is identical across backends:
schema contract, small-batch actor-pool stage, per-row quarantine,
and the output layout a real decoder would produce.

At 100 TB the rules encoded here: binary payloads force SMALL
``batch_size`` (payload x batch x concurrency must fit the worker
heap), the stage is an actor pool (decoder init is expensive), and
outputs keep payload and features in separate columns so downstream
stages can drop the bytes early (``select_columns``).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa


FEATURE_DIM = 32


def _decode_image_pixels(payload: bytes, png_mod, bmp_mod, *,
                         allow_bmp: bool) -> np.ndarray:
    """THE real decode path, shared by the decode and pHash stages:
    payload -> (H, W[, C]) uint8 via magic-byte dispatch.  Raises
    ValueError on unknown magic (including BMP when the caller's
    backend is PNG-only) so both stages quarantine identically."""
    if payload[:8] == b"\x89PNG\r\n\x1a\n":
        return png_mod.decode_png(payload)
    if allow_bmp and payload[:2] == b"BM":
        return bmp_mod.decode_bmp(payload)
    raise ValueError("unsupported image format (magic bytes)")


class MediaDecodeStage:
    """Actor-pool callable: (media_id, kind, payload) -> decoded features.

    Output columns: media_id, kind, n_bytes, width, height,
    feature (fixed-size list<float32>), decode_error.

    ``backend="fake"`` produces deterministic pseudo-features from a
    blake2b digest of the payload — stable across runs/workers, so
    tests can assert exact values. ``backend="png"`` REALLY decodes
    PNG payloads (pure-stdlib codec, ``functions/png.py``) and emits
    true width/height plus a 32-dim feature: the row means of the
    mean-pooled 32x32 grayscale field. ``backend="image"`` extends the
    real path with magic-byte dispatch across the wired pure-stdlib
    codecs (PNG signature -> ``functions/png.py``; ``BM`` ->
    ``functions/bmp.py``); unknown magic becomes a per-row
    ``decode_error``, the error-tolerant-source discipline.
    ``backend="strict"`` raises NotImplementedError (the marker that
    genuinely external-library formats — JPEG/WebP/audio — go here).
    """

    def __init__(self, backend: str = "fake"):
        if backend not in ("fake", "png", "image", "strict"):
            raise ValueError(f"unknown backend {backend!r}")
        self.backend = backend
        if backend in ("png", "image"):
            # import once per actor (ST1 load-once pattern)
            from ..functions import bmp as _bmp
            from ..functions import png as _png
            self._png = _png
            self._bmp = _bmp

    def _decode_one(self, payload: bytes, kind: str):
        if self.backend == "strict":
            raise NotImplementedError(
                "real image/audio decoding requires libs not present in "
                "this container; wire Pillow/torchaudio here")
        if self.backend in ("png", "image"):
            img = _decode_image_pixels(payload, self._png, self._bmp,
                                       allow_bmp=self.backend == "image")
            height, width = img.shape[0], img.shape[1]
            field = self._png.resize_mean(
                self._png.to_gray_f64(img), FEATURE_DIM, FEATURE_DIM)
            feat = field.mean(axis=1).astype(np.float32)
            return width, height, feat
        digest = hashlib.blake2b(payload, digest_size=8 + 4 * FEATURE_DIM).digest()
        width = int.from_bytes(digest[:4], "little") % 4096 + 1
        height = int.from_bytes(digest[4:8], "little") % 4096 + 1
        feat = (np.frombuffer(digest[8:], dtype=np.uint32)
                .astype(np.float32) / np.float32(2**32))
        return width, height, feat

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch.column("payload").to_pylist()
        kinds = batch.column("kind").to_pylist()
        widths, heights, feats, errors = [], [], [], []
        for p, k in zip(payloads, kinds):
            try:
                if p is None:
                    raise ValueError("null payload")
                w, h, f = self._decode_one(p, k)
                widths.append(w)
                heights.append(h)
                feats.append(f)
                errors.append(None)
            except NotImplementedError:
                raise
            except Exception as exc:
                widths.append(0)
                heights.append(0)
                feats.append(np.zeros(FEATURE_DIM, dtype=np.float32))
                errors.append(f"{type(exc).__name__}: {exc}")
        return pa.table({
            "media_id": batch.column("media_id"),
            "kind": batch.column("kind"),
            "n_bytes": pa.array([len(p) if p else 0 for p in payloads],
                                pa.int64()),
            "width": pa.array(widths, pa.int32()),
            "height": pa.array(heights, pa.int32()),
            "feature": pa.array([f.tolist() for f in feats],
                                pa.list_(pa.float32(), FEATURE_DIM)),
            "decode_error": pa.array(errors, pa.string()),
        })


def decode_media(ds, backend: str = "fake", batch_size: int = 64,
                 concurrency=(1, 8)):
    """Binary payloads => small batches; decoder state per actor."""
    return ds.map_batches(
        MediaDecodeStage, fn_constructor_kwargs={"backend": backend},
        batch_format="pyarrow", batch_size=batch_size,
        concurrency=concurrency)


def frame_sample_stage(ds, every_n: int = 10):
    """Video frame-sampling plumbing: explode (media_id, payload) into
    (media_id, frame_idx, frame_payload) rows — the fake backend slices
    the payload deterministically; a real backend would demux."""

    def sample(batch: pa.Table) -> pa.Table:
        ids, idxs, frames = [], [], []
        for mid, payload in zip(batch.column("media_id").to_pylist(),
                                batch.column("payload").to_pylist()):
            payload = payload or b""
            n_frames = max(1, len(payload) // 256)
            for i in range(0, n_frames, every_n):
                ids.append(mid)
                idxs.append(i)
                frames.append(payload[i * 256:(i + 1) * 256])
        return pa.table({
            "media_id": pa.array(ids, pa.string()),
            "frame_idx": pa.array(idxs, pa.int32()),
            "frame_payload": pa.array(frames, pa.binary()),
        })

    return ds.map_batches(sample, batch_format="pyarrow", batch_size=32)


_MAGIC = [
    (b"\x89PNG\r\n\x1a\n", "image/png"),
    (b"\xff\xd8\xff", "image/jpeg"),
    (b"GIF87a", "image/gif"),
    (b"GIF89a", "image/gif"),
    (b"RIFF", "audio/wav"),        # refined to webp below
    (b"%PDF-", "application/pdf"),
    (b"\x1f\x8b", "application/gzip"),
    (b"OggS", "audio/ogg"),
    (b"fLaC", "audio/flac"),
    (b"ID3", "audio/mpeg"),
    (b"PK\x03\x04", "application/zip"),
]


def sniff_mime(ds, payload_col: str = "payload",
               out_col: str = "mime_sniffed"):
    """Magic-byte content-type detection over a binary column — the
    curation gate that catches mislabeled payloads BEFORE an expensive
    decode stage (a 100 TB crawl carries wrong Content-Types
    constantly).  One zero-copy 16-byte prefix slice per batch, then
    numpy byte comparisons per signature (bounded signature table);
    the only per-row Python is padding the 16-byte prefixes into the
    fixed-width matrix.  HTML/text fall back via a printable heuristic:
    leading ``<`` -> text/html, mostly-printable -> text/plain, else
    application/octet-stream."""

    def sniff(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        pay = batch.column(payload_col)
        n = len(batch)
        prefix = pc.binary_slice(pay.combine_chunks()
                                 if isinstance(pay, pa.ChunkedArray)
                                 else pay, 0, 16)
        # fixed-width byte matrix: pad to 16 with zeros
        buf = np.zeros((n, 16), dtype=np.uint8)
        for i, v in enumerate(prefix):
            b = v.as_py() or b""
            buf[i, :len(b)] = np.frombuffer(b, dtype=np.uint8)
        out = np.full(n, "application/octet-stream", dtype=object)
        lens = pc.binary_length(pay).to_numpy(zero_copy_only=False)
        # longest-signature-first so e.g. PNG wins over its prefix
        for sig, mime in sorted(_MAGIC, key=lambda s: -len(s[0])):
            s = np.frombuffer(sig, dtype=np.uint8)
            hit = (buf[:, :len(s)] == s).all(axis=1) & (lens >= len(s))
            if mime == "audio/wav":
                webp = hit & (buf[:, 8:12] == np.frombuffer(
                    b"WEBP", dtype=np.uint8)).all(axis=1)
                out[webp & (out == "application/octet-stream")] = \
                    "image/webp"
                hit = hit & ~webp
            mask = hit & (out == "application/octet-stream")
            out[mask] = mime
        undecided = out == "application/octet-stream"
        if undecided.any():
            first = buf[:, 0]
            stripped = first
            printable = ((buf >= 0x20) & (buf < 0x7F) | (buf == 0x09)
                         | (buf == 0x0A) | (buf == 0x0D) | (buf == 0))
            textish = printable.all(axis=1) & (lens > 0)
            out[undecided & textish & (stripped == ord("<"))] = \
                "text/html"
            out[undecided & textish & (stripped != ord("<"))] = \
                "text/plain"
        return batch.append_column(out_col,
                                   pa.array(out.tolist(), pa.string()))

    return ds.map_batches(sniff, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Perceptual hashing: REAL math (32x32 DCT-II -> top-left 8x8 -> median
# threshold -> 64 bits), stubbed only at the image-DECODE boundary like
# everything else in this module.
# ---------------------------------------------------------------------------

_PHASH_N = 32
_PHASH_K = 8


def _dct_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II basis (the JPEG transform)."""
    k = np.arange(n)[:, None]
    i = np.arange(n)[None, :]
    d = np.cos(np.pi * (2 * i + 1) * k / (2 * n)) * np.sqrt(2.0 / n)
    d[0] /= np.sqrt(2.0)
    return d


_DCT32 = _dct_matrix(_PHASH_N)


def phash64(pixels: np.ndarray) -> np.ndarray:
    """64-bit perceptual hash of a (B, 32, 32) float image stack
    (pHash family — Zauner 2010): 2-D DCT-II, keep the top-left 8x8
    low-frequency block, threshold each coefficient against the
    block's median, pack 64 bits.  Small pixel perturbations leave
    the low-frequency spectrum (and hence the hash) nearly unchanged;
    unrelated images differ in ~32 bits.  Returns uint8 (B, 8) —
    callers hex-encode for fixed-format keys.  Fully vectorized over
    the batch (two matmuls via einsum, one median, one packbits)."""
    x = np.asarray(pixels, dtype=np.float64)
    if x.ndim == 2:
        x = x[None]
    c = np.einsum("ij,bjk,lk->bil", _DCT32, x, _DCT32)
    blk = c[:, :_PHASH_K, :_PHASH_K].reshape(len(x), -1)
    med = np.median(blk, axis=1, keepdims=True)
    bits = blk > med
    return np.packbits(bits, axis=1)


class PhashStage:
    """Actor-pool callable: (media_id, payload) -> (media_id, phash
    hex16).  The pixel DECODE is the stub boundary (``backend="fake"``
    derives a deterministic pixel field from a blake2b digest — exact
    payload duplicates get identical pixels, hence identical hashes;
    a real Pillow decode slots in behind the same (B, 32, 32) float
    contract, at which point NEAR-duplicate images land within a few
    bits).  The hash math itself is real and locality-preserving —
    pinned on synthetic pixel images in tests."""

    def __init__(self, backend: str = "fake"):
        if backend not in ("fake", "png", "image", "strict"):
            raise ValueError(f"unknown backend {backend!r}")
        self.backend = backend
        if backend in ("png", "image"):
            from ..functions import bmp as _bmp
            from ..functions import png as _png
            self._png = _png
            self._bmp = _bmp

    def _pixels(self, payload: bytes) -> np.ndarray:
        if self.backend == "strict":
            raise NotImplementedError(
                "real image decoding requires libs not present in this "
                "container; wire Pillow here (decode -> grayscale -> "
                "resize 32x32 -> float)")
        if self.backend in ("png", "image"):
            # REAL path: decode -> BT.601 grayscale -> mean-pool 32x32.
            # Near-duplicate images (small pixel noise, re-encode —
            # even into a DIFFERENT container format via the "image"
            # backend's magic dispatch) land within a few Hamming
            # bits; unrelated images ~32 bits.
            img = _decode_image_pixels(payload, self._png, self._bmp,
                                       allow_bmp=self.backend == "image")
            return self._png.resize_mean(
                self._png.to_gray_f64(img), _PHASH_N, _PHASH_N)
        seed = hashlib.blake2b(payload, digest_size=8).digest()
        rng = np.random.default_rng(int.from_bytes(seed, "little"))
        return rng.random((_PHASH_N, _PHASH_N))

    def __call__(self, batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return pa.table({"media_id": pa.array([], pa.string()),
                             "phash": pa.array([], pa.string())})
        # per-row quarantine: one undecodable payload drops that ROW
        # from the pair candidate set, never the batch/actor.  Malformed
        # media raise ValueError (the PNG codec's PngError subclasses
        # it and wraps zlib errors; the BMP codec raises it directly);
        # anything else — NotImplementedError from the strict backend
        # included — is a bug or a config error and propagates
        ids, fields = [], []
        for mid, p in zip(batch.column("media_id").to_pylist(),
                          batch.column("payload").to_pylist()):
            try:
                if p is None:
                    raise ValueError("null payload")
                fields.append(self._pixels(p))
                ids.append(mid)
            except ValueError:
                continue
        if not ids:
            return pa.table({"media_id": pa.array([], pa.string()),
                             "phash": pa.array([], pa.string())})
        h = phash64(np.stack(fields))
        hexes = [bytes(row).hex() for row in h]
        return pa.table({"media_id": pa.array(ids, pa.string()),
                         "phash": pa.array(hexes, pa.string())})


def phash_media(ds, backend: str = "fake", batch_size: int = 64,
                concurrency=(1, 8)):
    """Actor-pool wrapper for :class:`PhashStage` (small batches — the
    binary-payload memory rule at the module top)."""
    return ds.map_batches(
        PhashStage, fn_constructor_kwargs={"backend": backend},
        batch_format="pyarrow", batch_size=batch_size,
        concurrency=concurrency)
