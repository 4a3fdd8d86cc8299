"""Identifier canonicalization.

- :func:`extract_doi` reimplements the reference DOI cleaner
  (``query_db/utils.py:29-59``): strip wrapper chars, 11 URL/``doi:``
  prefixes, query strings and fragments, regex-validate, with a
  trailing-punctuation fallback.
- :func:`canonicalize_url` is the web-corpus analogue used by the
  north-rule pipeline (same slot as M8): scheme/host lowering, default
  port drop, tracking-param and fragment strip, trailing-slash collapse.
"""

from __future__ import annotations

import re


_DOI_URL_PREFIXES = [
    "https://doi.org/", "http://doi.org/", "https://dx.doi.org/",
    "http://dx.doi.org/", "https://www.doi.org/", "http://www.doi.org/",
    "doi.org/", "dx.doi.org/", "www.doi.org/", "doi:", "DOI:",
]
_DOI_RE = re.compile(r"^(10\.\d{4,}(?:\.\d+)?/[-._;()\/:a-zA-Z0-9]+)(?:\s|$)")


def extract_doi(text):
    """Canonicalize a dirty DOI string; None when not a DOI."""
    if not text or not isinstance(text, str):
        return None
    text = text.strip().strip("<>").strip('"').strip("'")
    text_lower = text.lower()
    for prefix in _DOI_URL_PREFIXES:
        if text_lower.startswith(prefix.lower()):
            text = text[len(prefix):]
            break
    if "?" in text:
        text = text.split("?")[0]
    if "#" in text:
        text = text.split("#")[0]
    text = text.strip()
    m = _DOI_RE.match(text)
    if m:
        return m.group(1).strip()
    if text.startswith("10.") and "/" in text:
        return text.rstrip(".,;:")
    return None


_TRACKING_PARAMS = {
    "utm_source", "utm_medium", "utm_campaign", "utm_term", "utm_content",
    "gclid", "fbclid", "ref", "sessionid",
}
_SCHEME_RE = re.compile(r"^(https?)://", re.I)


def canonicalize_url(url) -> str | None:
    """Deterministic URL canonical form for identity/tokenizing.

    lowercase scheme+host, drop default ports and fragments, drop known
    tracking query params (keeping the rest, order preserved), collapse
    a single trailing slash on a bare path.
    """
    if not url or not isinstance(url, str):
        return None
    url = url.strip()
    m = _SCHEME_RE.match(url)
    scheme = (m.group(1).lower() if m else "http")
    rest = url[m.end():] if m else url
    frag_split = rest.split("#", 1)[0]
    if "?" in frag_split:
        hostpath, query = frag_split.split("?", 1)
        kept = [
            kv for kv in query.split("&")
            if kv and kv.split("=", 1)[0].lower() not in _TRACKING_PARAMS
        ]
        query = "&".join(kept)
    else:
        hostpath, query = frag_split, ""
    if "/" in hostpath:
        host, path = hostpath.split("/", 1)
        path = "/" + path
    else:
        host, path = hostpath, ""
    host = host.lower()
    for port, sch in ((":80", "http"), (":443", "https")):
        if host.endswith(port) and scheme == sch:
            host = host[: -len(port)]
    if path in ("", "/"):
        path = "/"
    out = f"{scheme}://{host}{path}"
    if query:
        out += "?" + query
    return out


def url_tokens(url: str) -> list[str]:
    """Tokens of a canonical URL (host labels + path segments + params)."""
    if not url:
        return []
    u = _SCHEME_RE.sub("", url)
    return [t for t in re.split(r"[/\.\?\&\=\-_:#]+", u) if t]
