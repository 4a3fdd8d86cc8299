"""Text normalization.

Reimplements (from observed behavior, not code) the reference's two text
normalizers and pins ONE semantic — the Python variant with the
Latin-char gate (reference ``build_db.py:10-27`` and duplicated
``query_db/utils.py:9-26``): transliterate to ASCII only when the string
contains at least one character in U+0000..U+024F, then lowercase, strip
``[^\\w\\s]``, and trim.  The Rust variant
(``parse_join.../src/main.rs:376-381``) transliterates unconditionally;
we deliberately pick the gated semantic (preserves pure-CJK strings) and
the test suite pins it.

The reference transliterates with ``unidecode``; that package is not
available here, so transliteration is NFKD-decompose + drop combining
marks, with a small supplement table for Latin letters that do not
decompose (ø, æ, ß, đ, þ, …).  This is a documented divergence for the
rare characters where unidecode differs; tests pin OUR semantic.
"""

from __future__ import annotations

import re
import unicodedata

import pandas as pd
import pyarrow as pa

_NON_WORD_RE = re.compile(r"[^\w\s]")
# Latin-script supplement chars that NFKD alone cannot fold to ASCII.
_SUPPLEMENT = {
    ord("ø"): "o", ord("Ø"): "O",
    ord("æ"): "ae", ord("Æ"): "AE",
    ord("œ"): "oe", ord("Œ"): "OE",
    ord("ß"): "ss",
    ord("đ"): "d", ord("Đ"): "D",
    ord("ð"): "d", ord("Ð"): "D",
    ord("þ"): "th", ord("Þ"): "Th",
    ord("ł"): "l", ord("Ł"): "L",
    ord("ı"): "i",
}


def is_latin_char_text(text) -> bool:
    """True iff ``text`` is a str containing any char in U+0000..U+024F.

    This is the *reference's* gate (``build_db.py:10-16``). It counts
    ASCII whitespace/digits/punctuation, so a CJK string with spaces
    passes the gate \u2014 harmless there because unidecode romanizes CJK.
    Our folder drops non-Latin instead, so :func:`normalize_text` uses
    the stricter :func:`has_latin_letter` gate (documented divergence;
    tests pin it)."""
    if not isinstance(text, str):
        return False
    return any(ch <= "\u024f" for ch in text)


_LATIN_LETTER_RE = re.compile("[A-Za-z\u00c0-\u024f]")


def has_latin_letter(text) -> bool:
    """True iff ``text`` contains a Latin *letter* (the gate this
    engine pins for transliteration)."""
    return isinstance(text, str) and _LATIN_LETTER_RE.search(text) is not None


def ascii_fold(text: str) -> str:
    """Deterministic ASCII transliteration (NFKD + supplement table)."""
    text = text.translate(_SUPPLEMENT)
    decomposed = unicodedata.normalize("NFKD", text)
    return decomposed.encode("ascii", "ignore").decode("ascii")


def normalize_text(text):
    """Canonical text normalizer (gated-transliteration semantic).

    Non-str inputs (incl. None) pass through unchanged, matching the
    reference's defensive behavior.
    """
    if not isinstance(text, str):
        return text
    if has_latin_letter(text):
        text = ascii_fold(text)
    text = text.lower()
    text = _NON_WORD_RE.sub("", text)
    return text.strip()


def normalize_text_series(s: pd.Series) -> pd.Series:
    """Vectorized :func:`normalize_text` over a pandas string Series.

    Nulls stay null.  Round-4 fast path: rows that are PURE ASCII —
    the overwhelming majority of a web corpus — run entirely through
    Arrow C++ kernels (utf8_lower, RE2 replace, trim), creating zero
    Python string objects; this is bit-identical to the slow path
    because NFKD + ascii-encode is the identity on ASCII and RE2's
    ``[^\\w\\s]`` equals Python's over ASCII input (both reduce to
    ``[A-Za-z0-9_]`` / ``[ \\t\\n\\r\\f\\v]``).  Non-ASCII rows keep
    the pinned pandas/unicodedata semantics (equivalence pinned in
    tests/test_textnorm.py).
    """
    s = s.astype("string")
    arr = pa.Array.from_pandas(s, type=pa.string())
    out_arr = normalize_text_array(arr)
    return pd.Series(out_arr.to_pandas(), index=s.index).astype("string")


def _normalize_series_slow(s: pd.Series) -> pd.Series:
    """The original pandas/unicodedata path (non-ASCII rows only)."""
    s = s.astype("string")
    gate = s.str.contains(_LATIN_LETTER_RE, regex=True, na=False)
    out = s.copy()
    if gate.any():
        folded = (
            s[gate]
            .map(lambda t: t.translate(_SUPPLEMENT))
            .str.normalize("NFKD")
            .str.encode("ascii", "ignore")
            .str.decode("ascii")
        )
        out[gate] = folded
    out = out.str.lower().str.replace(_NON_WORD_RE, "", regex=True).str.strip()
    return out


def normalize_text_array(arr: pa.Array | pa.ChunkedArray) -> pa.Array:
    """Arrow-native :func:`normalize_text` (the hot path of the
    flagship's feature stage — see normalize_text_series docstring for
    the ASCII-fast-path equivalence argument)."""
    import numpy as np
    import pyarrow.compute as pc

    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if arr.type != pa.string() and arr.type != pa.large_string():
        arr = arr.cast(pa.string())
    n = len(arr)
    if n == 0:
        return arr
    ascii_mask = pc.fill_null(pc.string_is_ascii(arr), False)
    n_ascii = pc.sum(ascii_mask).as_py() or 0
    if n_ascii == n:
        fast_in = arr
    elif n_ascii == 0:
        s = arr.to_pandas()
        return pa.Array.from_pandas(_normalize_series_slow(s),
                                    type=pa.string())
    else:
        fast_in = arr.filter(ascii_mask)
    # pure-ASCII pipeline: three C++ passes, zero Python objects.
    # \x0b added because RE2's \s omits vertical tab while Python's
    # includes it — the class must keep every Python-\s char
    fast = pc.utf8_trim_whitespace(
        pc.replace_substring_regex(
            pc.utf8_lower(fast_in), pattern="[^\\w\\s\\x0b]",
            replacement=""))
    if n_ascii == n:
        return fast
    # stitch slow-path rows (non-ASCII or null) back in original order:
    # one take over [fast rows, slow rows], no Python object per row
    mask_np = ascii_mask.to_numpy(zero_copy_only=False)
    slow_in = arr.filter(pc.invert(ascii_mask))
    slow = pa.Array.from_pandas(
        _normalize_series_slow(slow_in.to_pandas()), type=pa.string())
    idx = np.empty(n, dtype=np.int64)
    idx[mask_np] = np.arange(n_ascii)
    idx[~mask_np] = np.arange(n_ascii, n)
    return pa.concat_arrays([fast.cast(pa.string()), slow]).take(idx)


def blocking_key_series(s: pd.Series) -> pd.Series:
    """``lower(trim(coalesce(x, '')))`` — the reference blocking-key
    derivation (``build_db.py:267``, reapplied at ``repository.py:308``)."""
    return s.astype("string").fillna("").str.strip().str.lower()


_WS_RE = re.compile(r"\s+")


def tokenize(text: str) -> list[str]:
    """Whitespace tokenization of an already-normalized string."""
    if not text:
        return []
    return _WS_RE.split(text.strip())
