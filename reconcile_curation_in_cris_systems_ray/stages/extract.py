"""HTML -> text extraction stage (the pipeline's stateful map stage).

Mirrors the reference's "load once, extract per record" pattern (Flair
model at ``query_db/analysis/entity_extraction.py:5-69``; pattern trie
at ``openalex-fast-field-parse/src/main.rs:400-436``): the parser is
constructed once per worker process in ``__init__`` and applied per
Arrow batch in ``__call__``.

Extraction contract (deterministic, pinned by tests): the text of a
page is the text content of body block elements ``h1..h6`` and ``p``
that are **not** descendants of ``nav/header/footer/aside/script/
style/noscript``, in document order, joined by ``"\\n"``, with HTML
entities unescaped.  ``<title>`` is ignored (body content only — a
trafilatura-style main-content rule).

Three implementations, one output (byte-identity pinned by the
differential and fuzz tests in ``tests/test_extract_and_corpus.py``):

- :func:`extract_html_text`, the stdlib ``HTMLParser`` reference: the
  oracle the other two are tested against, and
  ``HtmlTextExtractor(backend="stdlib")``;
- :func:`extract_html_block`, the block path: one numpy/RE2 pass over a
  whole block's html buffer, the engine's extract layer
  (``HtmlTextExtractor()``); it defers the pages it cannot vouch for;
- :func:`extract_html_text_fast`, the per-page scanner: the deferred
  pages.

Measured in process on a 1-CPU host (``scripts/extract_bench.py``,
``web_mix`` seed 1, 296-page blocks): ~119 µs/page for the oracle, ~39
for the scanner, ~11-15 for the block path, which defers no page of the
generated corpora.
"""

from __future__ import annotations

import re
from html.parser import HTMLParser

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_SKIP = {"nav", "header", "footer", "aside", "script", "style", "noscript"}
_KEEP = {"p", "h1", "h2", "h3", "h4", "h5", "h6"}


class _MainTextParser(HTMLParser):
    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.skip_depth = 0
        self.keep_depth = 0
        self.chunks: list[str] = []
        self.current: list[str] = []

    def handle_starttag(self, tag, attrs):
        if tag in _SKIP:
            self.skip_depth += 1
        elif tag in _KEEP and self.skip_depth == 0:
            if self.keep_depth == 0:
                self.current = []
            self.keep_depth += 1

    def handle_endtag(self, tag):
        if tag in _SKIP:
            self.skip_depth = max(0, self.skip_depth - 1)
        elif tag in _KEEP and self.skip_depth == 0 and self.keep_depth > 0:
            self.keep_depth -= 1
            if self.keep_depth == 0:
                text = "".join(self.current)
                if text:
                    self.chunks.append(text)

    def handle_data(self, data):
        if self.keep_depth > 0 and self.skip_depth == 0:
            self.current.append(data)


def extract_html_text(html: bytes | str) -> str:
    """Deterministic main-content text of one HTML document (stdlib
    ``HTMLParser`` reference implementation — the behavioral oracle the
    fast scanner below is differentially tested against)."""
    if isinstance(html, bytes):
        html = html.decode("utf-8", errors="replace")
    parser = _MainTextParser()
    parser.feed(html)
    parser.close()
    if parser.keep_depth > 0:  # unclosed keep element at EOF
        text = "".join(parser.current)
        if text:
            parser.chunks.append(text)
    return "\n".join(parser.chunks)


# --- fast scanner -----------------------------------------------------
# ``HTMLParser`` spends ~96% of extraction CPU in its generic regex
# tokenizer (goahead/parse_starttag/updatepos).  This scanner walks the
# document with ``str.find`` + two anchored regexes and implements the
# same extraction contract; byte-identity with ``extract_html_text`` is
# pinned by a differential test (corpus parity, handcrafted malformed
# cases, and a hypothesis fuzzer in ``tests/test_extract_and_corpus.py``).
# Measured ~3x faster than the oracle on corpus HTML (39 against 119
# µs/page).

# start tag: name, quote-aware attrs, optional self-closing slash
_START_RE = re.compile(
    r"<([a-zA-Z][^\t\n\r\f />\x00]*)"
    r"((?:\s+[^\s/>][^\s=/>]*"
    r"(?:\s*=\s*(?:\"[^\"]*\"|'[^']*'|(?![\"'])[^\s>]*))?)*)"
    r"\s*(/?)>")
_END_RE = re.compile(r"</\s*([a-zA-Z][-.a-zA-Z0-9:_]*)\s*>")
_COMMENT_CLOSE = re.compile(r"--\s*>")
_CDATA_TAGS = ("script", "style")  # HTMLParser CDATA_CONTENT_ELEMENTS


def extract_html_text_fast(html: bytes | str) -> str:
    """Fast path of :func:`extract_html_text` (same output, ~3x faster).

    Handles the constructs the stdlib parser handles on real pages:
    comments, declarations, processing instructions, quote-aware start
    tags, self-closing tags, script/style CDATA content, charref
    unescaping in kept text, stray ``<`` as data, unclosed keep element
    at EOF.  Any start/end tag the anchored regexes cannot parse is
    treated the way HTMLParser's tolerant scanner most commonly does
    (consume to the next ``>``); the differential test is the contract.
    """
    if isinstance(html, bytes):
        html = html.decode("utf-8", errors="replace")
    n = len(html)
    pos = 0
    skip = 0
    keep = 0
    chunks: list[str] = []
    current: list[str] = []
    find = html.find
    unescape = _unescape

    def emit_data(seg: str) -> None:
        if seg:
            current.append(unescape(seg) if "&" in seg else seg)

    def recover(lt: int) -> int:
        """HTMLParser's close() recovery for a construct with no
        terminator: flush ``html[lt:k]`` as data (k = just past the
        next '>', else up to the next '<', else lt+1) and RESUME
        normal parsing at k — later well-formed tags still count."""
        k = find(">", lt + 1)
        if k < 0:
            k2 = find("<", lt + 1)
            k = k2 if k2 >= 0 else lt + 1
        else:
            k += 1
        if keep and not skip:
            emit_data(html[lt:k])
        return k

    while pos < n:
        lt = find("<", pos)
        if lt < 0:
            if keep and not skip:
                emit_data(html[pos:])
            break
        if lt > pos and keep and not skip:
            emit_data(html[pos:lt])
        nxt = lt + 1
        if nxt >= n:
            # trailing lone '<' at EOF: flushed as data on close()
            if keep and not skip:
                emit_data("<")
            break
        c = html[nxt]
        if c == "/":
            m = _END_RE.match(html, lt)
            if m:
                tag = m.group(1).lower()
                pos = m.end()
                if tag in _SKIP:
                    if skip > 0:
                        skip -= 1
                elif tag in _KEEP and skip == 0 and keep > 0:
                    keep -= 1
                    if keep == 0:
                        text = "".join(current)
                        current = []
                        if text:
                            chunks.append(text)
            else:
                # end tag the anchored regex can't parse: HTMLParser's
                # tolerant behavior branches several ways here — defer
                # the whole document to the stdlib oracle (rare)
                return extract_html_text(html)
        elif c.isalpha():
            m = _START_RE.match(html, lt)
            if m:
                tag = m.group(1).lower()
                pos = m.end()
                self_closing = bool(m.group(3))
                if tag in _SKIP:
                    if not self_closing:
                        skip += 1
                    if tag in _CDATA_TAGS and not self_closing:
                        # raw content until the matching close tag
                        # (HTMLParser allows whitespace after '</' and
                        # skips non-matching close candidates as data)
                        close_re = re.compile(r"</\s*" + tag, re.I)
                        search_at = pos
                        pos = n  # unterminated cdata: rest is dropped
                        while True:
                            m3 = close_re.search(html, search_at)
                            if m3 is None:
                                break
                            m2 = _END_RE.match(html, m3.start())
                            if m2 and m2.group(1).lower() == tag:
                                pos = m2.end()
                                skip -= 1
                                break
                            search_at = m3.start() + 2
                elif tag in _KEEP and skip == 0:
                    if self_closing:
                        if keep == 0:
                            current = []
                        # start+end with no content: may close a group
                        if keep == 0:
                            text = "".join(current)
                            if text:
                                chunks.append(text)
                    else:
                        if keep == 0:
                            current = []
                        keep += 1
            else:
                # start tag the anchored regex can't parse (incomplete
                # at EOF, stray quotes, etc.): defer to the stdlib
                # oracle — its incomplete/malformed branches differ in
                # ways not worth replicating for rare inputs
                return extract_html_text(html)
        elif c == "!":
            if html.startswith("<!--", lt):
                # HTMLParser closes a comment on '--\s*>'
                m4 = _COMMENT_CLOSE.search(html, lt + 4)
                pos = m4.end() if m4 else recover(lt)
            elif html.startswith("<![", lt):
                # marked section (']]>' terminator, nested rules):
                # defer to the stdlib oracle (rare legacy construct)
                return extract_html_text(html)
            else:
                gt = find(">", lt)
                pos = gt + 1 if gt >= 0 else recover(lt)
        elif c == "?":
            gt = find(">", lt)
            pos = gt + 1 if gt >= 0 else recover(lt)
        else:
            # '<' followed by non-markup is data
            if keep and not skip:
                emit_data("<")
            pos = nxt
    if keep > 0:
        text = "".join(current)
        if text:
            chunks.append(text)
    return "\n".join(chunks)


def _unescape(s: str) -> str:
    from html import unescape

    return unescape(s)


# --- block path --------------------------------------------------------
# One pass over a whole block: every page's bytes lie back to back in the
# html column's Arrow data buffer, so tokens (``<`` positions), tag
# names, depths and the kept text are found with numpy over that buffer
# and one RE2 match over the tags that carry attributes -- no Python
# object per page or per tag.  It implements the scanner above on the
# pages it can vouch for, and hands every other page back as deferred
# (``extract_html_block``'s rules); byte-identity with
# ``extract_html_text`` is pinned by the block-level differential tests.

def _key(name: str) -> int:
    """A name packed little-endian into a uint64: the key a token's
    window (the 8 bytes after ``<`` or ``</``, lower-cased) is matched
    against."""
    return int.from_bytes(name.encode(), "little")


# a tag name's id is its index here, in the order of the keys
_NAMES = sorted(_SKIP | _KEEP, key=_key)
_KEYS = np.array([_key(n) for n in _NAMES], np.uint64)
_CDATA_IDS = [_NAMES.index(t) for t in _CDATA_TAGS]
# a token's role by its name id + 1 (id -1: a name outside _NAMES)
_IS_SKIP = np.array([False] + [n in _SKIP for n in _NAMES])
_IS_KEEP = np.array([False] + [n in _KEEP for n in _NAMES])
_IS_CDATA = np.array([False] + [n in _CDATA_TAGS for n in _NAMES])
_MASKS = np.array([(1 << (8 * k)) - 1 for k in range(9)], np.uint64)


def _byte_table(chars) -> np.ndarray:
    t = np.zeros(256, bool)
    t[list(chars)] = True
    return t


_ALPHA = _byte_table(range(65, 91)) | _byte_table(range(97, 123))
# _END_RE's name class; a start tag's name in the strict pattern too
_NAME_CHAR = _ALPHA | _byte_table(b"0123456789-.:_")
# bytes before a '>' that could let ``--\s*>`` close a comment there:
# whitespace in Python's sense (ASCII) or any byte of a non-ASCII char
_SPACEISH = _byte_table(b"\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f ") | \
    _byte_table(range(128, 256))
_ONES = np.uint64(0x0101010101010101)
# lower-cases the ASCII letters of a name, and maps no name byte that
# is not a letter or digit onto one (so such a name matches no key)
_TO_LOWER = np.uint64(0x2020202020202020)

# The strict tag pattern (RE2, byte semantics over a binary array): a
# subset of _START_RE | _END_RE on which Python's match ends at the
# first '>' and reads the same name: ASCII names, whitespace without
# \v, attribute names and unquoted values of printable ASCII, quoted
# values that hold no '<' or '>', unquoted values never empty.
_WS = r"[ \t\n\r\f]"
_TAG_NAME = r"[a-zA-Z][-.a-zA-Z0-9:_]*"
_ATTR = (r"[!#-&(-.0-;?-~]+(?:" + _WS + "*=" + _WS
         + r"""*(?:"[^"<>]*"|'[^'<>]*'|[!#-&(-;=?-~]+))?""")
_OPEN = "<" + _TAG_NAME + "(?:" + _WS + "+" + _ATTR + ")*" + _WS + "*"
_STRICT_TAG = f"^(?:{_OPEN}/?>|</{_WS}*{_TAG_NAME}{_WS}*>)$"
# a strict start tag ending in '/>' that also matches this one reads its
# '/' into an unquoted value (_START_RE's greedy value), so it is not
# self-closing: the grammar's one ambiguity
_STRICT_OPEN = f"^{_OPEN}>$"
_END_NAME = re.compile(rb"</[ \t\n\r\f]*([-.a-zA-Z0-9:_]+)")

_TEXT_TYPES = (pa.binary(), pa.string(), pa.large_binary(), pa.large_string())
# html bytes scanned per pass: the per-token temporaries come to a few
# bytes per html byte, so a large block is cut into passes
_PASS_BYTES = 8 << 20


def _gather(buf: np.ndarray, pos: np.ndarray, end: np.ndarray) -> np.ndarray:
    """``buf[pos]``, 0 where ``pos >= end`` (past the page)."""
    if not buf.size:
        return np.zeros(pos.size, np.uint8)
    return np.where(pos < end, buf[np.minimum(pos, buf.size - 1)], 0) \
        .astype(np.uint8)


def _windows(buf: np.ndarray, pos: np.ndarray, end: np.ndarray) -> np.ndarray:
    """The 8 bytes from each ``pos`` as unaligned little-endian uint64
    words, bytes at or past ``end`` zeroed."""
    n = buf.size
    tail = min(n, 8)
    pad = np.zeros(tail + 8, np.uint8)
    pad[:tail] = buf[n - tail:]
    out = np.ndarray((tail + 1,), "<u8", pad, 0, (1,))[
        np.clip(pos - (n - tail), 0, tail)]
    inner = pos <= n - 8
    if n >= 8 and inner.any():
        out[inner] = np.ndarray((n - 7,), "<u8", buf, 0, (1,))[pos[inner]]
    return out & _MASKS[np.clip(end - pos, 0, 8)]


def _name_len(w: np.ndarray) -> np.ndarray:
    """Per row of 8 window bytes, how many lead with name bytes: the
    lowest byte of the row's name-byte flags (as one uint64) that is 0,
    found as the exponent of its isolated low bit."""
    gap = ~np.take(_NAME_CHAR, w).view("<u8").ravel() & _ONES
    low = gap & (~gap + np.uint64(1))
    return np.where(gap == 0, 8, (np.frexp(low.astype(np.float64))[1] - 1)
                    >> 3)


def _ranges(data: pa.Buffer, lo: int, starts: np.ndarray, ends: np.ndarray,
            type_: pa.DataType) -> pa.Array:
    """The byte ranges ``[starts, ends)`` of ``data`` (shifted by
    ``lo``), sorted and disjoint, as the even rows of one array over
    ``data`` whose odd rows are the gaps between them: no copy."""
    o = np.empty(2 * starts.size, np.int64)
    o[0::2] = starts
    o[1::2] = ends
    o += lo
    return pa.Array.from_buffers(type_, o.size - 1,
                                 [None, pa.py_buffer(o), data])


def _match(data: pa.Buffer, lo: int, starts: np.ndarray, ends: np.ndarray,
           pattern: str) -> np.ndarray:
    """Whether RE2 ``pattern`` matches each of the ``_ranges``, read as
    bytes."""
    rows = _ranges(data, lo, starts, ends, pa.large_binary())
    return pc.match_substring_regex(rows, pattern) \
        .to_numpy(zero_copy_only=False)[0::2]


def _page_runs(page: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(first, run)`` of a nondecreasing page id per token: the index
    of each page's first token, and each token's page rank."""
    first = np.flatnonzero(np.r_[True, page[1:] != page[:-1]])
    run = np.repeat(np.arange(first.size), np.diff(np.r_[first, page.size]))
    return first, run


def _clamped_depth(delta: np.ndarray, first: np.ndarray,
                   run: np.ndarray) -> np.ndarray:
    """Per page (``_page_runs``), the running sum of ``delta`` held at 0
    from below: x = S - min(0, min S)."""
    if not delta.size:
        return delta
    s = np.cumsum(delta)
    s -= (s - delta)[first][run]
    # a decreasing per-page offset larger than any depth turns one
    # global running minimum into a per-page one
    big = 2 * delta.size + 2
    low = np.minimum.accumulate(s - run * big) + run * big
    return s - np.minimum(low, 0)


def _invalid_utf8(arr: pa.Array) -> np.ndarray:
    """Row indices of a binary array whose bytes are not UTF-8."""
    try:
        arr.cast(pa.large_string())
        return np.zeros(0, np.int64)
    except pa.ArrowInvalid:
        bad = []
        for i, v in enumerate(arr.to_pylist()):
            try:
                if v is not None:
                    v.decode("utf-8")
            except UnicodeDecodeError:
                bad.append(i)
        return np.array(bad, np.int64)


def _offsets(arr: pa.Array) -> np.ndarray:
    """The ``len(arr) + 1`` value offsets of a binary or string array."""
    large = arr.type in (pa.large_binary(), pa.large_string())
    return np.frombuffer(arr.buffers()[1], np.int64 if large else np.int32)[
        arr.offset:arr.offset + len(arr) + 1].astype(np.int64)


def _extract_pass(arr: pa.Array) -> tuple[pa.Array, np.ndarray]:
    """:func:`extract_html_block` over one binary/string array."""
    n = len(arr)
    offs = _offsets(arr)
    lo = int(offs[0])
    offs -= lo
    size = int(offs[-1])
    data = arr.buffers()[2]
    buf = np.frombuffer(data, np.uint8)[lo:lo + size] if size \
        else np.zeros(0, np.uint8)
    defer = np.zeros(n, bool)
    if arr.null_count:
        defer |= arr.is_null().to_numpy(zero_copy_only=False)
    if arr.type in (pa.binary(), pa.large_binary()):
        defer[_invalid_utf8(arr)] = True

    # --- tokens: every '<', its page, its first '>' and its class
    lt = np.flatnonzero(buf == 60)
    page = np.searchsorted(offs, lt, "right") - 1
    pend = offs[page + 1]
    gts = np.flatnonzero(buf == 62)
    gt = np.append(gts, size)[np.searchsorted(gts, lt)]
    nxt = np.append(lt[1:], size)
    closed = (gt < pend) & (gt < nxt)  # a '>' before the next '<'
    c = _gather(buf, lt + 1, pend)
    is_start = _ALPHA[c]
    is_end = c == 47
    is_bang = c == 33
    is_pi = c == 63

    # --- names from the window after '<' (start) or '</' (end)
    q = lt + 1 + is_end
    word = _windows(buf, q, pend)
    w = word.view(np.uint8).reshape(-1, 8)
    name_len = _name_len(w)
    key = (word | _TO_LOWER) & _MASKS[name_len]
    term = _gather(buf, q + name_len, pend)
    term2 = _gather(buf, q + name_len + 1, pend)
    at = np.minimum(np.searchsorted(_KEYS, key), _KEYS.size - 1)
    found = (_KEYS[at] == key) & (name_len > 0) & ~_NAME_CHAR[term]
    name = np.where(found, at, -1)

    # --- tags: bare ones from the window, the rest through RE2
    bare = (is_start & ((term == 62) | ((term == 47) & (term2 == 62)))) | \
        (is_end & _ALPHA[w[:, 0]] & (term == 62))
    selfclose = bare & is_start & (term == 47)
    valid = bare.copy()
    need = np.flatnonzero((is_start | is_end) & ~bare & closed)
    if need.size:
        ok = _match(data, lo, lt[need], gt[need] + 1, _STRICT_TAG)
        valid[need[ok]] = True
        slash = need[ok & is_start[need] & (buf[gt[need] - 1] == 47)]
        if slash.size:
            selfclose[slash] = ~_match(data, lo, lt[slash], gt[slash] + 1,
                                       _STRICT_OPEN)
        # an end tag with space before its name: read the name here
        for i in need[ok & is_end[need] & ~_ALPHA[w[need, 0]]]:
            tag = _END_NAME.match(buf[lt[i]:gt[i] + 1].tobytes()) \
                .group(1).lower().decode()
            name[i] = _NAMES.index(tag) if tag in _NAMES else -1
    is_tag = is_start | is_end

    # --- comments: closed by the first '-->' when no earlier '>' could
    # be the end of a '--\s*>'; declarations and PIs end at their '>'
    comment = is_bang & (w[:, 1] == 45) & (w[:, 2] == 45)
    marked = is_bang & (w[:, 1] == 91)
    tok_end = gt + 1
    bad = np.zeros(lt.size, bool)
    ci = np.flatnonzero(comment)
    if ci.size:
        g = gts[gts >= 2]
        dash = g[(buf[g - 1] == 45) & (buf[g - 2] == 45)]
        first = lt[ci] + 6
        close = np.append(dash, size)[np.searchsorted(dash, first)]
        g = gts[gts >= 1]
        sus = g[_SPACEISH[buf[g - 1]]]
        shut = (close < pend[ci]) & (np.searchsorted(sus, close)
                                     == np.searchsorted(sus, first))
        tok_end[ci] = np.where(shut, close + 1, pend[ci])
        bad[ci] = ~shut
    bad |= (is_tag & ~valid) | marked | \
        ((is_pi | (is_bang & ~comment & ~marked)) & ~closed) | (c >= 128)

    # --- script/style content: raw text up to the first strict end tag
    # of the same name; any other '</' in it might be one to Python
    cdata = np.flatnonzero(is_start & valid & ~selfclose
                           & _IS_CDATA[name + 1])
    op_end = tok_end.copy()
    if cdata.size:
        ends = np.flatnonzero(is_end & valid)
        loose = lt[is_end & ~valid]
        for cid in _CDATA_IDS:
            mine = cdata[name[cdata] == cid]
            shut = lt[ends[name[ends] == cid]]
            close = np.append(shut, size)[np.searchsorted(shut, gt[mine])]
            close = np.minimum(close, pend[mine])
            op_end[mine] = close
            bad[mine] |= np.searchsorted(loose, close) > \
                np.searchsorted(loose, gt[mine])
    # openers mask the tokens inside them; an opener inside another is
    # no opener, found in order on the rare page where openers nest
    op = np.sort(np.r_[ci, cdata])
    real_op = np.ones(op.size, bool)
    if op.size:
        cover = np.maximum.accumulate(op_end[op])
        nested = np.flatnonzero(lt[op[1:]] < cover[:-1]) + 1
        for p in np.unique(page[op[nested]]):
            reach = -1
            for k in np.flatnonzero(page[op] == p):
                real_op[k] = lt[op[k]] >= reach
                if real_op[k]:
                    reach = op_end[op[k]]
    op = op[real_op]
    k = np.searchsorted(lt[op], lt) - 1
    reach = np.maximum.accumulate(op_end[op])[np.maximum(k, 0)] \
        if op.size else np.zeros(lt.size, np.int64)
    real = (k < 0) | (lt >= reach)
    defer[page[real & bad]] = True

    # --- depths over the real tags, then the data after each
    s = np.flatnonzero(real & (is_tag | is_bang | is_pi))
    sp, sn = page[s], name[s]
    step = (is_start[s] & ~selfclose[s]).astype(np.int64) - is_end[s]
    runs = _page_runs(sp)
    skip = _clamped_depth(np.where(_IS_SKIP[sn + 1], step, 0), *runs)
    keep_d = np.where(_IS_KEEP[sn + 1] & (skip == 0), step, 0)
    keep = _clamped_depth(keep_d, *runs)
    chunk = np.cumsum((keep_d == 1) & (keep == 1))
    seg_lo = tok_end[s]
    same = np.r_[sp[1:] == sp[:-1], False]
    seg_hi = np.where(same, np.r_[lt[s][1:], 0], pend[s])
    e = np.flatnonzero((keep > 0) & (skip == 0) & (seg_hi > seg_lo)
                       & ~defer[sp])
    return _assemble(data, lo, defer, seg_lo[e], seg_hi[e], sp[e], chunk[e])


def _assemble(data: pa.Buffer, lo: int, defer: np.ndarray, starts, ends,
              pages, chunks) -> tuple[pa.Array, np.ndarray]:
    """The page texts from their kept segments ``[starts, ends)`` of
    ``data`` (shifted by ``lo``): one take copies the segments back to
    back, a chunk's segments are then one string with no copy, and one
    ``binary_join`` joins a page's chunks by '\\n'.  Pages whose text
    holds '&' (charrefs are unescaped per segment) join the deferred
    ones, which come out null."""
    if not starts.size:
        return pa.array(np.where(defer, None, ""), pa.string()), \
            np.flatnonzero(defer)
    segs = _ranges(data, lo, starts, ends, pa.large_string()) \
        .take(pa.array(np.arange(0, 2 * starts.size, 2)))
    at = np.frombuffer(segs.buffers()[1], np.int64)[:starts.size + 1]
    amp = np.flatnonzero(np.frombuffer(segs.buffers()[2], np.uint8,
                                       int(at[-1])) == 38)
    defer[pages[np.searchsorted(at, amp, "right") - 1]] = True
    first = np.flatnonzero(np.r_[True, chunks[1:] != chunks[:-1]])
    chunk_text = pa.Array.from_buffers(
        pa.large_string(), first.size,
        [None, pa.py_buffer(at[np.r_[first, starts.size]]), segs.buffers()[2]])
    per_page = np.zeros(defer.size + 1, np.int32)
    per_page[1:] = np.cumsum(np.bincount(pages[first], minlength=defer.size))
    texts = pc.binary_join(
        pa.ListArray.from_arrays(per_page, chunk_text, mask=pa.array(defer)),
        pa.scalar("\n", pa.large_string()))
    return texts.cast(pa.string()), np.flatnonzero(defer)


def extract_html_block(col: pa.Array | pa.ChunkedArray
                       ) -> tuple[pa.Array, np.ndarray]:
    """Extract every page of a block at once: ``(texts, deferred)``.

    ``texts`` holds :func:`extract_html_text` of each page (a string
    array, null at the ``deferred`` row indices), found in passes of at
    most ``_PASS_BYTES`` of html over the column's Arrow data buffer.
    A page is deferred, for the per-page scanner, when its html is null
    or not UTF-8, a ``<`` is followed by a non-ASCII byte, it has a
    ``<![`` section or a comment whose close the block path cannot
    prove, a tag fails the strict pattern, a ``<!...>`` or ``<?...>``
    span does not close before the next ``<`` in the page, script/style
    content holds a ``</`` that is not a strict end tag, or its text
    holds ``&``.
    """
    chunks = col.chunks if isinstance(col, pa.ChunkedArray) else [col]
    texts, deferred, base = [], [], 0
    for arr in chunks:
        if arr.type not in _TEXT_TYPES:  # e.g. a view type: page by page
            texts.append(pa.nulls(len(arr), pa.string()))
            deferred.append(base + np.arange(len(arr)))
            base += len(arr)
            continue
        offs = _offsets(arr)
        lo = 0
        while lo < len(arr):
            hi = max(lo + 1, int(np.searchsorted(
                offs, offs[lo] + _PASS_BYTES, "right")) - 1)
            t, d = _extract_pass(arr.slice(lo, hi - lo))
            texts.append(t)
            deferred.append(d + base + lo)
            lo = hi
        base += len(arr)
    if not texts:
        return pa.array([], pa.string()), np.zeros(0, np.int64)
    return pa.concat_arrays(texts), np.concatenate(deferred)


class HtmlTextExtractor:
    """Batch callable: html binary column -> extracted_text.

    The flagship runs one instance per worker process
    (``pipelines.reconcile._extract_task``); as an actor pool it is
    ``ds.map_batches(HtmlTextExtractor, batch_format="pyarrow",
    concurrency=n)``.

    ``backend="fast"`` (the default) extracts the batch with
    :func:`extract_html_block` and only its deferred pages with
    :func:`extract_html_text_fast`; ``"stdlib"`` runs the
    ``HTMLParser`` oracle on every page.  Outputs are byte-identical,
    pinned by the differential and fuzz tests in
    ``tests/test_extract_and_corpus.py``.

    Rows whose HTML fails to parse are quarantined in-band: the
    ``extract_error`` column is non-null and ``extracted_text`` is ''
    (reference keeps an ``import_errors`` side table,
    ``build_db.py:115-121``; callers can filter the error rows to a
    quarantine sink).
    """

    def __init__(self, html_col: str = "html", out_col: str = "extracted_text",
                 backend: str = "fast"):
        self.html_col = html_col
        self.out_col = out_col
        self.block = backend == "fast"
        self.scalar = extract_html_text_fast if self.block \
            else extract_html_text

    def __call__(self, batch: pa.Table) -> pa.Table:
        return self.extract(batch)[0]

    def extract(self, batch: pa.Table) -> tuple[pa.Table, int]:
        """``(the extracted batch, how many of its pages the block path
        deferred to the per-page scanner)``."""
        col = batch.column(self.html_col)
        if self.block:
            texts, deferred = extract_html_block(col)
        else:
            texts, deferred = pa.nulls(len(col), pa.string()), \
                np.arange(len(col))
        errors = pa.nulls(len(col), pa.string())
        if deferred.size:
            fixed: list[str] = []
            errs: list[str | None] = []
            for h in col.take(pa.array(deferred)).to_pylist():
                try:
                    fixed.append(self.scalar(h))
                    errs.append(None)
                except Exception as exc:  # quarantine, never fail the batch
                    fixed.append("")
                    errs.append(f"{type(exc).__name__}: {exc}")
            mask = np.zeros(len(col), bool)
            mask[deferred] = True
            texts = pc.replace_with_mask(texts, pa.array(mask),
                                         pa.array(fixed, pa.string()))
            if any(e is not None for e in errs):
                errors = pc.replace_with_mask(errors, pa.array(mask),
                                              pa.array(errs, pa.string()))
        batch = batch.drop_columns([self.html_col])
        batch = batch.append_column(self.out_col, texts)
        return (batch.append_column("extract_error", errors),
                int(deferred.size) if self.block else 0)
