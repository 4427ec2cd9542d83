"""URL canonicalization — reference-exact semantics, pure functions.

Reference semantics reproduced here (cited file:line are in
/root/reference/cloud-crawler):

- ``key_for``: ``url.to_s.downcase.gsub("https",'http').gsub(/\\s+/,' ')``
  (lib/cloud-crawler/redis_page_store.rb:34-36,
  lib/cloud-crawler/redis_url_bloomfilter.rb:74-76) — the page-store /
  URL-seen key normalization: lowercase, every "https" substring → "http",
  whitespace runs → single space.
- ``to_absolute``: strip a trailing ``#anchor`` (regex ``#[a-zA-Z0-9_-]*$``),
  URI-decode + re-encode, resolve against ``<base href>`` or the page URL,
  and force an empty path to "/" (lib/cloud-crawler/page.rb:232-244).
- ``normalize_link``: empty path → "/" on a seed URL
  (lib/cloud-crawler/driver.rb:115-119).

These are pure string functions used both inside vectorized ``map_batches``
stages and by the single-threaded oracle, guaranteeing identical admission /
dedup keys in both.
"""

from __future__ import annotations

import re
from functools import lru_cache
from urllib.parse import quote, unquote, urljoin, urlsplit

_ANCHOR_RE = re.compile(r"#[a-zA-Z0-9_-]*$")
_WS_RE = re.compile(r"\s+")

# Characters Ruby's (obsolete) URI.encode leaves unescaped — the reserved +
# unreserved set. We control the synthetic-web URL charset, so this only needs
# to round-trip percent-encoding consistently between engine and oracle.
_SAFE = "/:?#[]@!$&'()*+,;=%~-._"


def strip_anchor(link: str) -> str:
    """Remove a trailing #fragment (only [a-zA-Z0-9_-]* at end-of-string),
    exactly like page.rb:236."""
    return _ANCHOR_RE.sub("", link)


def reencode(link: str) -> str:
    """URI.decode then URI.encode (page.rb:236) — normalizes percent-encoding."""
    return quote(unquote(link), safe=_SAFE)


def ensure_path(url: str) -> str:
    """Empty path → '/' (page.rb:241, driver.rb:115-119)."""
    parts = urlsplit(url)
    if parts.path == "" and parts.scheme in ("http", "https"):
        netloc_end = url.find(parts.netloc) + len(parts.netloc)
        return url[:netloc_end] + "/" + url[netloc_end:]
    return url


_ABS_FAST_RE = re.compile(
    r"^https?://[a-z0-9.\-]+(?::[0-9]+)?/[a-z0-9._~:/?=&+,;@!$'()*\-]*$"
)


# a plain relative reference: unreserved characters and '/', optionally a
# nonempty query, optionally a trailing #anchor that strip_anchor removes
# (group 1 is the reference without it); dot segments and "//" are
# excluded separately
_REL_FAST_RE = re.compile(
    r"^(/?[A-Za-z0-9_~\-][A-Za-z0-9._~\-/]*(?:\?[A-Za-z0-9._~=&\-]+)?)(?:#[A-Za-z0-9_\-]*)?$"
)
_PAGE_FAST_RE = re.compile(
    r"^(https?://[a-z0-9.\-]+(?::[0-9]+)?)/[A-Za-z0-9._~!$&'()*+,;=:@%/\-]*$"
)


@lru_cache(maxsize=4096)
def _join_prefixes(page_url: str) -> tuple[str, str] | None:
    """(authority, directory) of a page URL against which urljoin of a plain
    relative reference is string concatenation: lowercase scheme and host,
    no query or fragment, and no dot segments or empty segments in the
    path for urljoin to resolve. None for any other page URL."""
    m = _PAGE_FAST_RE.match(page_url)
    if m is None:
        return None
    auth = m.group(1)
    path = page_url[len(auth) :]
    if "//" in path or "/." in path:
        return None
    return auth, page_url[: page_url.rfind("/") + 1]


def to_absolute(link: str, page_url: str, base_url: str | None = None) -> str | None:
    """Absolutize *link* against *base_url* (from <base href>) or *page_url*.

    Returns None when the link is unparseable (reference: ``rescue next`` at
    page.rb:123).
    """
    if link is None:
        return None
    if _ABS_FAST_RE.match(link):
        # already absolute with a safe charset: anchor-strip, re-encode,
        # urljoin and ensure_path are all provably identity
        return link
    if base_url is None:
        m = _REL_FAST_RE.match(link)
        if m is not None and "/." not in link and "//" not in link:
            # plain relative reference against a clean page URL: anchor-strip
            # drops the trailing #anchor, re-encode is identity (safe
            # charset, no '%'), urljoin is a plain path merge (no dot or
            # empty segments), ensure_path is identity
            prefixes = _join_prefixes(page_url)
            if prefixes is not None:
                rel = m.group(1)
                return (prefixes[0] if rel[0] == "/" else prefixes[1]) + rel
    try:
        link = reencode(strip_anchor(str(link)))
        root = base_url if base_url else page_url
        absolute = urljoin(root, link)
        return ensure_path(absolute)
    except (ValueError, UnicodeError):
        return None


def key_for(url: str) -> str:
    """The URL-seen / page-store canonical key (redis_page_store.rb:34-36)."""
    return _WS_RE.sub(" ", str(url).lower().replace("https", "http"))


# Fast-path detector: URLs whose canonicalization is key_for's lowercasing
# and "https" → "http" replacement alone — http(s) scheme, host, nonempty
# path of unreserved/sub-delim chars, no fragment, no percent-escapes, no
# whitespace (anchor strip, re-encode and ensure_path leave them as they
# are). ASCII classes are spelled out: under re.IGNORECASE, [a-z] would
# also match four non-ASCII letters. Anything else takes the full chain.
_FAST_RE = re.compile(
    r"^[hH][tT][tT][pP][sS]?://[A-Za-z0-9.\-]+(?::[0-9]+)?/[A-Za-z0-9._~:/?=&+,;@!$'()*\-]*$"
)


def canonical_url(url: str) -> str:
    """Full canonicalization: anchor strip + re-encode + empty path fix +
    key normalization. Used for the seen-set, in-wave dedup, and doc_id."""
    url = str(url)
    if _FAST_RE.match(url):
        return url.lower().replace("https", "http")
    return key_for(ensure_path(reencode(strip_anchor(url))))


def canonical_urls(urls: list[str]) -> list[str]:
    """canonical_url over a list (the fast path inlined per row)."""
    fast = _FAST_RE.match
    return [u.lower().replace("https", "http") if fast(u) else canonical_url(u) for u in urls]


# port handled explicitly; ':' excluded from the terminator lookahead so a
# userinfo authority ("u:p@host") falls through to urlsplit
_HOST_FAST_RE2 = re.compile(r"^[a-z]+://([a-z0-9.\-]+)(?::[0-9]+)?(?=[/?#]|$)")


def host_of(url: str) -> str:
    """Lower-cased host (empty string when absent) — the politeness /
    domain-confinement key (page.rb:87-89, http.rb:219-240)."""
    m = _HOST_FAST_RE2.match(url)
    if m:
        return m.group(1)
    try:
        return (urlsplit(url).hostname or "").lower()
    except ValueError:
        return ""


def normalize_seed(url: str) -> str:
    """Driver-side seed normalization (driver.rb:115-119 + 187-189)."""
    return ensure_path(str(url))


def has_query(url: str) -> bool:
    """True when the URL carries a query string (dsl_core.rb:269-271)."""
    if "?" not in url:
        return False
    try:
        return urlsplit(url).query != ""
    except ValueError:
        return False


_USERINFO_RE = re.compile(r"^([a-zA-Z][a-zA-Z0-9+.\-]*://)([^/@?#]*@)")


def strip_userinfo(url: str) -> str:
    """Drop user:pass@ from the authority — servers never see credentials in
    the request URL (they travel as the Authorization header)."""
    return _USERINFO_RE.sub(r"\1", url)


def hosts_of(urls: list[str]) -> list[str]:
    return [host_of(u) for u in urls]  # host_of has the fast path inline


def path_of(url: str) -> str:
    """URL path component — skip_links_like patterns match the *path*
    (dsl_core.rb:277-279)."""
    try:
        return urlsplit(url).path
    except ValueError:
        return ""


# ---- crawl-trap skeleton (target-side addition; no reference analog — the
# reference's only trap defenses are depth_limit and skip_links_like) ----

_HEXRUN_RE = re.compile(r"\b[0-9a-f]{8,}\b")
_DIGITRUN_RE = re.compile(r"[0-9]+")


def url_skeleton(url: str) -> str:
    """Collapse a URL's variable parts into its generator 'shape': long hex
    runs (session ids, content hashes) → 'H', digit runs (dates, page
    numbers, object ids) → 'D', query string reduced to its sorted parameter
    NAMES. Calendar pagers, session-id mills and infinite facet grids emit
    unbounded URL sets that all share one skeleton — the per-(host, skeleton)
    budget caps them without touching legitimately distinct paths."""
    try:
        parts = urlsplit(url)
    except ValueError:
        return url.lower()
    path = _HEXRUN_RE.sub("H", parts.path.lower())
    path = _DIGITRUN_RE.sub("D", path)
    if parts.query:
        names = sorted({kv.split("=", 1)[0].lower() for kv in parts.query.split("&") if kv})
        return f"{path}?{','.join(names)}"
    return path


def trap_keys_of(urls: list[str]) -> list[str]:
    """host + US (\\x1f) + skeleton per URL. The separator keeps trap keys
    disjoint from the bare-hostname keyspace, so they can share the crawl's
    scheduled-count map (state shards + lineage 'sched') with the per-host
    budget — same commit, same resume restore. NEVER NUL: pandas' object
    hasher (shards_of routing, groupby factorization) compares C-string
    style and truncates at an embedded NUL (state/shards.py caution)."""
    return [f"{host_of(u)}\x1f{url_skeleton(u)}" for u in urls]
