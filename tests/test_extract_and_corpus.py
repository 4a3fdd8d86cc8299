"""Extraction byte-identity + corpus generator determinism (north-rule
invariant: byte-identical extracted text per url)."""
import numpy as np
import pyarrow as pa
import pytest

from reconcile_curation_in_cris_systems_ray.sources.corpus import (
    CorpusConfig, corpus_table, generate_family_rows, true_pairs,
)
from reconcile_curation_in_cris_systems_ray.stages.extract import (
    HtmlTextExtractor, extract_html_text,
)

CFG = CorpusConfig(n_families=30)

# hand-made pages the fast scanners must extract as the stdlib oracle does
MALFORMED = [
    "", "plain", "<P>Upper</P>", "<p>a<b>c</b>d</p>",
    "<script>var a = '<p>x</p>';</script><p>yes</p>",
    "<script src='x'/><p>ok</p>",
    "<p>a &amp; b &#65; &#x42; &unknown; &lt</p>",
    "<!-- <p>c</p> --><p>real</p>", "<!DOCTYPE html><p>x</p>",
    "<?php echo '<p>no</p>' ?><p>si</p>",
    "<p class=\"a>b\" id='c>d'>quoted</p>",
    "<p>unclosed keep", "<p>a < b</p>", "<p>a<3 b</p>",
    "<p/>text<p>real</p>", "<p >spacey</p >", "</ p>odd</p>",
    "<p>text</p", "<p>text<", "<p>a<b",
    "<SCRIPT>x</SCRIPT><p>y</p>", "<script>no close<p>q</p>",
    "<script>a</script  ><p>b</p>", "<script>a</ script><p>b</p>",
    "<p>nested <p>double</p> tail</p>",
    "<header><h1>skip</h1></header><h2>keep</h2>",
    "<p =weird>odd</p>", "<p disabled>boolattr</p>",
]


def test_extraction_byte_identity():
    tbl = corpus_table(CFG)
    htmls = tbl.column("html").to_pylist()
    texts = tbl.column("text").to_pylist()
    assert len(htmls) > 50
    for h, t in zip(htmls, texts):
        assert extract_html_text(h) == t  # byte-identical


def test_extractor_skips_boilerplate():
    html = (b"<html><head><title>T</title></head><body>"
            b"<nav><p>menu</p></nav><main><h1>Head</h1><p>body &amp; text</p>"
            b"</main><footer><p>c</p></footer></body></html>")
    assert extract_html_text(html) == "Head\nbody & text"


def test_extractor_batch_quarantine():
    batch = pa.table({
        "url": ["a", "b"],
        "html": [b"<p>ok</p>", None],
    })
    out = HtmlTextExtractor()(batch)
    texts = out.column("extracted_text").to_pylist()
    errs = out.column("extract_error").to_pylist()
    assert texts[0] == "ok" and errs[0] is None
    assert texts[1] == "" and errs[1] is not None


def test_corpus_deterministic_and_partition_independent():
    t1 = corpus_table(CFG)
    t2 = corpus_table(CFG)
    assert t1.equals(t2)
    # generating families in two arbitrary splits yields the same rows
    a = generate_family_rows(np.array([0, 5, 7]), CFG)
    b = generate_family_rows(np.array([5]), CFG)
    sel = a.filter(pa.compute.equal(a.column("cluster_id"), 5))
    assert sel.equals(b)


def test_corpus_has_skew_and_nonlatin():
    tbl = corpus_table(CorpusConfig(n_families=80))
    cids = tbl.column("cluster_id").to_pylist()
    assert cids.count(0) >= 40  # giant family
    assert "zh" in set(tbl.column("lang").to_pylist())
    assert len(true_pairs(tbl)) > 100


def test_field_trie_nested_arrays_and_wildcards():
    """M1 hard cases: array-index subfield paths (a[0].b[1].c),
    dynamic-key wildcard objects, terminal-with-children fallthrough.
    Ref: openalex main.rs:444-499, crossref main.rs:598-606."""
    from reconcile_curation_in_cris_systems_ray.stages.fields import (
        PatternTrie, extract_fields_from_doc, parse_field_specifications,
    )

    doc = {
        "a": [
            {"b": [{"c": 1}, {"c": 2}]},
            {"b": [{"c": 3}]},
        ],
        "rel": {"cites": [{"id": "x"}], "funds": [{"id": "y"}]},
        "top": {"mid": "leaf", "deep": {"k": True}},
    }
    trie = PatternTrie.build(parse_field_specifications(
        "a.b.c, rel.*.id, top.mid, top.deep"))
    rows = sorted(extract_fields_from_doc(doc, trie))
    assert rows == sorted([
        ("a.b.c", "a[0].b[0].c", "1"),
        ("a.b.c", "a[0].b[1].c", "2"),
        ("a.b.c", "a[1].b[0].c", "3"),
        ("rel.*.id", "rel.cites[0].id", "x"),
        ("rel.*.id", "rel.funds[0].id", "y"),
        ("top.mid", "top.mid", "leaf"),
        # nested leftover JSON-serialized, bools lowercased (ref
        # main.rs:453-462 stringly-typed rows)
        ("top.deep", "top.deep", '{"k":true}'),
    ])


def test_field_trie_array_of_scalars_and_missing_keys():
    from reconcile_curation_in_cris_systems_ray.stages.fields import (
        PatternTrie, extract_fields_from_doc, parse_field_specifications,
    )

    trie = PatternTrie.build(parse_field_specifications("ids, nope.x"))
    rows = extract_fields_from_doc({"ids": [10, 20], "other": 1}, trie)
    assert sorted(rows) == [("ids", "ids[0]", "10"), ("ids", "ids[1]", "20")]
    # top-level array documents traverse transparently too
    rows2 = extract_fields_from_doc([{"ids": [7]}], trie)
    assert rows2 == [("ids", "[0].ids[0]", "7")]


def test_fast_extractor_matches_stdlib_on_corpus():
    from reconcile_curation_in_cris_systems_ray.stages.extract import (
        extract_html_text_fast,
    )

    tbl = corpus_table(CorpusConfig(n_families=40))
    for h in tbl.column("html").to_pylist():
        assert extract_html_text_fast(h) == extract_html_text(h)


def test_fast_extractor_matches_stdlib_on_malformed():
    from reconcile_curation_in_cris_systems_ray.stages.extract import (
        extract_html_text_fast,
    )

    for h in MALFORMED:
        assert extract_html_text_fast(h) == extract_html_text(h), h


def test_fast_extractor_fuzz_differential():
    """Hypothesis fuzz: random tag soup from the relevant alphabet must
    extract byte-identically under both implementations."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from reconcile_curation_in_cris_systems_ray.stages.extract import (
        extract_html_text_fast,
    )

    frag = st.sampled_from([
        "<p>", "</p>", "<h1>", "</h1>", "<nav>", "</nav>", "<script>",
        "</script>", "<style>", "</style>", "<p/>", "<p >", "</ p>",
        "<!--", "-->", "<!x>", "<?y>", "<", ">", "&amp;", "&#65;", "&x",
        "text ", "a<b ", "5>4 ", "x='q>r'", '"', "'", " ", "\n",
        "<p class='z'>", "<div>", "</div>", "<span>", "</span>",
    ])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(frag, min_size=0, max_size=25))
    def run(parts):
        h = "".join(parts)
        assert extract_html_text_fast(h) == extract_html_text(h), repr(h)

    run()


# --- the block path: HtmlTextExtractor()(block) against each page -------

# cases the block path decides on its own or defers: a '/>' after an
# unquoted value, a quoted '>', a non-ASCII name, a start tag inside
# style content, \v in tags (one closes a script to Python), stray end
# tags, upper case, comments whose close it must prove, declarations
# holding '<'
BLOCK_CASES = [
    "<p a=b/>x", "<a x ='>'>y</a>", "<é>", "<script><style></script>",
    "<p\x0bclass=x>v</p>", "<p class=x\x0b>v</p>", "</nav></nav><p>k</p>",
    "<NAV><P>n</P></NAV><H1>Up</H1>", "<p a=b />sc</p>", "<p a= b/>x</p>",
    "<p a=/>x</p>", "<p a/>x</p>", "<p a='b'/>x</p>", "<p a=b= c/>x</p>",
    "<p a=>x</p>", "<p><!--->x--></p>", "<p><!---->y</p>",
    "<p>a<!-- b -- >c-->d</p>", "<p>a<!-- x　-->b</p>",
    "<![CDATA[x]]><p>c</p>", "<p>a<!x<y>b</p>", "<p>a<?x<y>b</p>",
    "<p>a<!-x>b</p>", "<p>a<!>b</p>", "<style><!--</style><p>q</p>",
    "<!--<script>--><p>w</p></script>", "<script>if(a</b)x</script><p>r</p>",
    "<script>x</script\x0b><p>a</p>",
    "<script>a</scripts></script><p>r</p>", "<p>x</p><", "<p>\x00nul</p>",
    "<noscript><p>n</p></noscript><p>m</p>", "<noscripts><p>n</p></noscripts>",
    "<h6>six</h6><h7>seven</h7>", "<my-el a=1>q</my-el><p>q</p>",
    "<p>é 中文</p>", "<p title=\"é\">t</p>", "<p title=é>t</p>",
    "<footer><p>f</p></footer><aside>a</aside><p>z</p>",
    "<p><script>s</script>after</p>", "<p>a<script/>b</p>",
    "<blockquote><p>bq</p></blockquote>", "<p class=\"a\"id=\"b\">x</p>",
    "<p\tclass='a'\n>x</p>", "<p class = 'a' >x</p>", "</p\t>x<p>y</p  >",
    "<p>a</p >b</p>",
]


def _block_matches_pages(pages, dtype=pa.binary()):
    """``HtmlTextExtractor()`` over ``pages`` as one block equals
    ``extract_html_text`` per page; returns the deferred count."""
    col = pa.array([p.encode() if isinstance(p, str) and dtype == pa.binary()
                    else p for p in pages], dtype)
    out, deferred = HtmlTextExtractor().extract(
        pa.table({"url": [str(i) for i in range(len(pages))], "html": col}))
    got = out.column("extracted_text").to_pylist()
    assert got == [extract_html_text(p) for p in pages]
    assert out.column("extract_error").null_count == len(pages)
    return deferred


def _shaped(workload: str) -> pa.Table:
    cfg = CorpusConfig(n_families=60, giant_family_variants=200) \
        if workload == "hot_cluster" else CorpusConfig(n_families=120)
    return corpus_table(cfg)


def test_block_extractor_matches_pages_on_corpora():
    """Blocks of 1, 7 and 296 pages of ``web_mix``- and
    ``hot_cluster``-shaped corpora extract page for page as the oracle
    does, with no page deferred."""
    for workload in ("web_mix", "hot_cluster"):
        pages = _shaped(workload).column("html").to_pylist()
        assert len(pages) >= 296
        for size in (1, 7, 296):
            blocks = [pages[i:i + size] for i in range(0, 296, size)][:3]
            for block in blocks:
                assert _block_matches_pages(block) == 0


def test_block_extractor_sliced_string_and_binary_columns():
    """A sliced column (non-zero Arrow offset) and string, binary and
    large-string html extract as the oracle does."""
    from reconcile_curation_in_cris_systems_ray.stages.extract import (
        extract_html_block,
    )

    pages = _shaped("web_mix").column("html").to_pylist()[:40]
    want = [extract_html_text(p) for p in pages]
    for dtype in (pa.binary(), pa.string(), pa.large_string()):
        col = pa.array([p.decode() if dtype != pa.binary() else p
                        for p in pages], dtype)
        for lo, n in ((0, 40), (13, 20), (39, 1), (40, 0)):
            texts, deferred = extract_html_block(col.slice(lo, n))
            assert deferred.size == 0
            assert texts.to_pylist() == want[lo:lo + n]
        chunked = pa.chunked_array([col.slice(0, 9), col.slice(9)])
        texts, deferred = extract_html_block(chunked)
        assert deferred.size == 0 and texts.to_pylist() == want


def test_block_extractor_matches_pages_on_malformed():
    """Every hand-made case, alone and all in one block; the block path
    defers some of them, never with a different text."""
    cases = MALFORMED + BLOCK_CASES
    deferred = sum(_block_matches_pages([h]) for h in cases)
    assert 0 < deferred < len(cases)
    assert _block_matches_pages(cases) == deferred
    assert _block_matches_pages(cases, pa.string()) == deferred


def test_block_extractor_fuzz_differential():
    """Hypothesis fuzz: blocks of random tag soup pages (attribute
    tags, upper case, non-ASCII, header/footer among the fragments)
    extract page for page as the oracle does."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    frag = st.sampled_from([
        "<p>", "</p>", "<h1>", "</h1>", "<nav>", "</nav>", "<script>",
        "</script>", "<style>", "</style>", "<p/>", "<p >", "</ p>",
        "<!--", "-->", "<!x>", "<?y>", "<", ">", "&amp;", "&#65;", "&x",
        "text ", "a<b ", "5>4 ", "x='q>r'", '"', "'", " ", "\n",
        "<p class='z'>", "<div>", "</div>", "<span>", "</span>",
        "<P>", "</P>", "<H2 id=a>", "</h2>", "<Header>", "</HEADER>",
        "<footer class=\"f\">", "</footer>", "<a href=\"/x\">", "</a>",
        "<a href=/x/>", "<p a=b/>", "é", "中", "<é>", "\x0b",
        "<p\x0b>", "<!---->", "<![CDATA[", "]]>", "--", "-- >",
        "<SCRIPT type=\"t\">", "</script >", "</ style>", "<aside>", "=",
    ])
    page = st.lists(frag, min_size=0, max_size=25).map("".join)

    @settings(max_examples=400, deadline=None)
    @given(st.lists(page, min_size=1, max_size=6))
    def run(pages):
        _block_matches_pages(pages)

    run()


def test_block_extractor_null_and_invalid_utf8_pages():
    """A null page is quarantined with today's message and an invalid
    UTF-8 page extracts as the oracle decodes it; both are deferred,
    and the pages around them are not."""
    from reconcile_curation_in_cris_systems_ray.stages.extract import (
        extract_html_text_fast,
    )

    bad = b"<p>caf\xe9 ok</p>"
    batch = pa.table({"url": ["a", "b", "c", "d"],
                      "html": [b"<p>one</p>", None, bad, b"<h1>two</h1>"]})
    out, deferred = HtmlTextExtractor().extract(batch)
    assert deferred == 2
    assert out.column("extracted_text").to_pylist() == \
        ["one", "", extract_html_text(bad), "two"]
    with pytest.raises(TypeError) as raised:
        extract_html_text_fast(None)
    assert out.column("extract_error").to_pylist() == \
        [None, f"TypeError: {raised.value}", None, None]


def test_block_extractor_passes_above_the_byte_cap(monkeypatch):
    """A block above the per-pass byte cap extracts in several passes,
    as the same pages do in one."""
    from reconcile_curation_in_cris_systems_ray.stages import extract

    col = _shaped("web_mix").column("html").combine_chunks().slice(0, 60)
    want, _ = extract.extract_html_block(col)
    passes = []
    run_pass = extract._extract_pass
    monkeypatch.setattr(extract, "_PASS_BYTES", 10_000)
    monkeypatch.setattr(extract, "_extract_pass",
                        lambda arr: passes.append(len(arr)) or run_pass(arr))
    got, deferred = extract.extract_html_block(col)
    assert len(passes) > 5 and sum(passes) == 60
    assert deferred.size == 0 and got.equals(want)
