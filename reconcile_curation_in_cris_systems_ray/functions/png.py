"""Minimal pure-Python PNG codec (stdlib ``zlib`` + numpy only).

Closes the one multimodal decode path that CAN be closed in this
container (no Pillow — verified absent): a real, spec-conformant
decoder for non-interlaced 8-bit PNG (color types 0 gray, 2 RGB,
3 palette, 4 gray+alpha, 6 RGBA; all five scanline filters), plus a
matching grayscale encoder so tests can plant genuine PNG bytes.

Scale notes: decode cost is per-payload and embarrassingly parallel —
the actor-pool stage in ``stages/multimodal.py`` is the distribution
boundary; this module is the per-row kernel.  Unfiltering is
vectorized where the spec allows (None/Up fully; Sub as strided
cumsum lanes); Average/Paeth carry a true sequential left-dependency
and fall back to a per-byte loop on those scanlines only.

Reference semantics: PNG spec (RFC 2083 / ISO 15948) — public.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

_SIG = b"\x89PNG\r\n\x1a\n"

# channels per pixel, by color type
_CHANNELS = {0: 1, 2: 3, 3: 1, 4: 2, 6: 4}


class PngError(ValueError):
    """Raised for malformed or unsupported PNG payloads."""


def _chunks(data: bytes):
    if data[:8] != _SIG:
        raise PngError("not a PNG: bad signature")
    pos = 8
    n = len(data)
    while pos + 8 <= n:
        (length,) = struct.unpack(">I", data[pos:pos + 4])
        ctype = data[pos + 4:pos + 8]
        body = data[pos + 8:pos + 8 + length]
        if len(body) != length:
            raise PngError("truncated chunk")
        yield ctype, body
        pos += 12 + length  # skip CRC (integrity checked by zlib stream)
        if ctype == b"IEND":
            return
    raise PngError("missing IEND")


def _paeth(a: int, b: int, c: int) -> int:
    p = a + b - c
    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
    if pa <= pb and pa <= pc:
        return a
    if pb <= pc:
        return b
    return c


def _unfilter(raw: np.ndarray, height: int, stride: int, bpp: int) -> np.ndarray:
    """Reverse PNG scanline filters.  ``raw`` is the decompressed byte
    stream of ``height`` rows x (1 filter byte + ``stride`` bytes)."""
    rows = raw.reshape(height, stride + 1)
    ftypes = rows[:, 0]
    out = np.zeros((height, stride), dtype=np.uint8)
    prev = np.zeros(stride, dtype=np.int32)
    for y in range(height):
        f = int(ftypes[y])
        line = rows[y, 1:].astype(np.int32)
        if f == 0:                               # None
            cur = line
        elif f == 2:                             # Up
            cur = (line + prev) & 0xFF
        elif f == 1:                             # Sub: strided cumsum lanes
            cur = line.copy()
            lanes = cur.reshape(-1, bpp) if stride % bpp == 0 else None
            if lanes is not None:
                cur = np.cumsum(lanes, axis=0, dtype=np.int64).reshape(-1) & 0xFF
            else:  # pragma: no cover - stride is always a bpp multiple here
                for x in range(bpp, stride):
                    cur[x] = (cur[x] + cur[x - bpp]) & 0xFF
        elif f == 3:                             # Average (sequential left dep)
            cur = line.copy()
            for x in range(stride):
                left = cur[x - bpp] if x >= bpp else 0
                cur[x] = (cur[x] + ((left + prev[x]) >> 1)) & 0xFF
        elif f == 4:                             # Paeth (sequential left dep)
            cur = line.copy()
            for x in range(stride):
                left = int(cur[x - bpp]) if x >= bpp else 0
                up = int(prev[x])
                ul = int(prev[x - bpp]) if x >= bpp else 0
                cur[x] = (cur[x] + _paeth(left, up, ul)) & 0xFF
        else:
            raise PngError(f"unknown filter type {f}")
        out[y] = cur.astype(np.uint8)
        prev = cur
    return out


def decode_png(data: bytes) -> np.ndarray:
    """Decode non-interlaced 8-bit PNG bytes to a (H, W) or (H, W, C)
    uint8 array.  Palette (type 3) is expanded to RGB."""
    width = height = None
    color_type = None
    palette = None
    idat = []
    for ctype, body in _chunks(data):
        if ctype == b"IHDR":
            if len(body) != 13:
                raise PngError("bad IHDR length")
            width, height, depth, color_type, comp, filt, interlace = \
                struct.unpack(">IIBBBBB", body)
            if width == 0 or height == 0:
                raise PngError("zero image dimension")
            if depth != 8:
                raise PngError(f"unsupported bit depth {depth}")
            if comp != 0 or filt != 0:
                raise PngError("unsupported compression/filter method")
            if interlace != 0:
                raise PngError("interlaced PNG unsupported")
            if color_type not in _CHANNELS:
                raise PngError(f"unknown color type {color_type}")
        elif ctype == b"PLTE":
            pal = np.frombuffer(body, dtype=np.uint8)
            if len(pal) % 3:
                raise PngError("bad PLTE length")
            palette = pal.reshape(-1, 3)
        elif ctype == b"IDAT":
            idat.append(body)
    if width is None:
        raise PngError("missing IHDR")
    if not idat:
        raise PngError("missing IDAT")
    try:
        raw = zlib.decompress(b"".join(idat))
    except zlib.error as exc:
        raise PngError(f"bad IDAT stream: {exc}") from None
    ch = _CHANNELS[color_type]
    stride = width * ch
    if len(raw) != height * (stride + 1):
        raise PngError("IDAT length mismatch")
    img = _unfilter(np.frombuffer(raw, dtype=np.uint8), height, stride, ch)
    if color_type == 3:
        if palette is None:
            raise PngError("palette image without PLTE")
        if img.size and int(img.max()) >= len(palette):
            raise PngError("palette index out of range")
        return palette[img.reshape(height, width)]
    if ch == 1:
        return img.reshape(height, width)
    return img.reshape(height, width, ch)


def encode_png_gray(img: np.ndarray, filter_type: int = 0) -> bytes:
    """Encode a (H, W) uint8 array as an 8-bit grayscale PNG.
    ``filter_type`` applies one fixed filter to every scanline (0, 1
    or 2) — enough to exercise the decoder's unfilter paths."""
    img = np.ascontiguousarray(img, dtype=np.uint8)
    if img.ndim != 2:
        raise ValueError("encode_png_gray wants (H, W) uint8")
    h, w = img.shape
    if filter_type == 0:
        filtered = img
    elif filter_type == 1:
        left = np.zeros_like(img)
        left[:, 1:] = img[:, :-1]
        filtered = (img.astype(np.int16) - left) & 0xFF
    elif filter_type == 2:
        up = np.zeros_like(img)
        up[1:] = img[:-1]
        filtered = (img.astype(np.int16) - up) & 0xFF
    else:
        raise ValueError("filter_type must be 0, 1 or 2")
    scan = np.empty((h, w + 1), dtype=np.uint8)
    scan[:, 0] = filter_type
    scan[:, 1:] = filtered
    body = zlib.compress(scan.tobytes(), 6)

    def chunk(ctype: bytes, data: bytes) -> bytes:
        crc = zlib.crc32(ctype + data) & 0xFFFFFFFF
        return struct.pack(">I", len(data)) + ctype + data + \
            struct.pack(">I", crc)

    ihdr = struct.pack(">IIBBBBB", w, h, 8, 0, 0, 0, 0)
    return _SIG + chunk(b"IHDR", ihdr) + chunk(b"IDAT", body) + \
        chunk(b"IEND", b"")


def to_gray_f64(img: np.ndarray) -> np.ndarray:
    """(H, W[, C]) uint8 -> (H, W) float64 luminance in [0, 1]
    (ITU-R BT.601 weights; alpha ignored)."""
    x = img.astype(np.float64)
    if x.ndim == 2:
        return x / 255.0
    c = x.shape[2]
    if c == 1:
        return x[:, :, 0] / 255.0
    if c == 2:  # gray + alpha
        return x[:, :, 0] / 255.0
    return (0.299 * x[:, :, 0] + 0.587 * x[:, :, 1]
            + 0.114 * x[:, :, 2]) / 255.0


def resize_mean(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Area-style downscale/upscale of a (H, W) float image via
    bucketed row/col means (``np.add.reduceat``) — smooth enough that
    near-duplicate source images land on near-identical 32x32 fields,
    which is what the pHash locality contract needs."""
    h, w = img.shape
    row_idx = (np.arange(out_h) * h) // out_h
    col_idx = (np.arange(out_w) * w) // out_w
    rows = np.add.reduceat(img, row_idx, axis=0)
    rcnt = np.diff(np.append(row_idx, h))[:, None]
    # reduceat with duplicate indices (upscale) yields the single row
    if (rcnt == 0).any():
        rows = img[np.minimum(row_idx, h - 1)]
        rcnt = np.ones((out_h, 1))
    cols = np.add.reduceat(rows / rcnt, col_idx, axis=1)
    ccnt = np.diff(np.append(col_idx, w))[None, :]
    if (ccnt == 0).any():
        return (rows / rcnt)[:, np.minimum(col_idx, w - 1)]
    return cols / ccnt
