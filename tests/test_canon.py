"""Canonicalization unit tests — cases mirror redis_page_store_spec.rb:47-77,
redis_url_bloomfilter_spec.rb:42-90, and page_spec.rb to_absolute behavior."""

from cloud_crawler_ray import canon


def test_key_for_lowercases_and_https():
    # redis_page_store_spec.rb: https key stored/fetched as http
    assert canon.key_for("https://Www.Example.COM/A/B") == "http://www.example.com/a/b"


def test_key_for_collapses_whitespace():
    assert canon.key_for("http://x.com/a b\t c") == "http://x.com/a b c"


def test_key_for_replaces_every_https_substring():
    # Ruby gsub replaces all occurrences, even mid-path
    assert canon.key_for("https://x.com/https/page") == "http://x.com/http/page"


def test_strip_anchor_only_trailing_simple_fragment():
    assert canon.strip_anchor("http://x.com/a#sec_1") == "http://x.com/a"
    assert canon.strip_anchor("http://x.com/a#sec one") == "http://x.com/a#sec one"  # space not in class
    assert canon.strip_anchor("http://x.com/a") == "http://x.com/a"


def test_to_absolute_relative_and_base():
    assert canon.to_absolute("b", "http://x.com/dir/a") == "http://x.com/dir/b"
    assert (
        canon.to_absolute("b", "http://x.com/dir/a", base_url="http://y.com/base/")
        == "http://y.com/base/b"
    )


def test_to_absolute_empty_path_becomes_slash():
    assert canon.to_absolute("http://x.com", "http://y.com/") == "http://x.com/"


def test_to_absolute_strips_fragment():
    assert canon.to_absolute("/p#frag", "http://x.com/a") == "http://x.com/p"


def test_to_absolute_percent_roundtrip():
    assert canon.to_absolute("/a%20b", "http://x.com/") == "http://x.com/a%20b"


def test_canonical_url_composed():
    assert canon.canonical_url("HTTPS://X.com/One#frag") == "http://x.com/one"
    assert canon.canonical_url("http://x.com") == "http://x.com/"


def test_host_and_query_and_path():
    assert canon.host_of("http://A.B.com:8080/x?q=1") == "a.b.com"
    assert canon.has_query("http://x.com/a?foo=1")
    assert not canon.has_query("http://x.com/a")
    assert canon.path_of("http://x.com/a/b?q=1") == "/a/b"


def test_normalize_seed():
    assert canon.normalize_seed("http://x.com") == "http://x.com/"
    assert canon.normalize_seed("http://x.com/a") == "http://x.com/a"


def _canonical_full(url: str) -> str:
    """canonical_url without its fast path: the whole reference chain."""
    return canon.key_for(canon.ensure_path(canon.reencode(canon.strip_anchor(url))))


def test_fastpath_parity_random_urls():
    """The regex fast paths must be bit-identical to the exact functions."""
    import random

    from urllib.parse import urlsplit

    rng = random.Random(9)
    hosts = ["www.example.com", "A.B.COM", "host0.example.com", "x.com:8080"]
    paths = ["/", "/a/b", "/p1?foo=1", "/A/B", "/a%20b", "/x#frag", "/https/page",
             "/a b", "", "/p.q-r_s~t", "/q?x=1&y=2"]
    schemes = ["http", "https", "HTTP"]
    urls = [f"{s}://{h}{p}" for s in schemes for h in hosts for p in paths]
    urls += ["not a url", "ftp://x/y", "//proto-relative/x"]
    for u in urls:
        # host_of fast path vs urlsplit truth
        try:
            slow = (urlsplit(u).hostname or "").lower()
        except ValueError:
            slow = ""
        assert canon.host_of(u) == slow, u
        # canonical_url / canonical_urls fast paths vs the full chain
        assert canon.canonical_url(u) == _canonical_full(u), u
        assert canon.canonical_urls([u]) == [_canonical_full(u)], u
        # has_query fast path
        try:
            q = urlsplit(u).query != ""
        except ValueError:
            q = False
        assert canon.has_query(u) == q, u


def _to_absolute_slow(link, page_url, base_url=None):
    """to_absolute with both regex fast paths defeated."""
    import re

    saved = canon._ABS_FAST_RE, canon._REL_FAST_RE
    canon._ABS_FAST_RE = canon._REL_FAST_RE = re.compile(r"(?!)")  # matches nothing
    try:
        return canon.to_absolute(link, page_url, base_url)
    finally:
        canon._ABS_FAST_RE, canon._REL_FAST_RE = saved


_PAGES = [
    "http://page.com/dir/", "http://page.com/dir/x", "http://page.com", "http://page.com/",
    "http://page.com:8080/a/b", "http://page.com/a//b/c", "http://page.com/a/../b",
    "http://page.com/a/./b", "http://page.com/x?q=1", "http://page.com/x#f",
    "HTTP://Page.com/a/b", "https://page.com/a;p/b;q", "http://page.com/a%20b/c",
    "http://page.com/.hidden/x", "http://page.com/a b/c",
]


def test_to_absolute_fastpath_parity():
    for page in _PAGES:
        for link in [
            "http://x.com/a", "https://y.com/b?q=1", "http://x.com/p#frag",
            "HTTP://X.com/a", "/rel", "rel/x", "http://x.com", "mailto:a@b",
            "p1", "P7", "p3#top", "p3#", "p3#a#b", "a//b", "/a//b", "//host/x",
            "./x", "../x", "a/./b", "a/../b", "a/.", "x.html", "~u", "-x", "_x",
            "p5?sort=asc", "p5?", "?q=1", "#top", "p?a=1&b=2#f", "p?a=/.", "a b",
            "a%20b", "A/B/C", "/", "", "p;x",
        ]:
            for base in (None, "http://base.com/b/"):
                fast = canon.to_absolute(link, page, base)
                assert fast == _to_absolute_slow(link, page, base), (link, page, base)


def test_to_absolute_fastpath_parity_property():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(_PAGES), st.text(alphabet="abAB09/._~-#?=&%: ", max_size=14))
    def check(page, link):
        assert canon.to_absolute(link, page) == _to_absolute_slow(link, page)

    check()


def test_userinfo_urls():
    u = "http://u:p@www.example.com/secret"
    assert canon.host_of(u) == "www.example.com"
    assert canon.strip_userinfo(u) == "http://www.example.com/secret"
    assert canon.strip_userinfo("http://x.com/a@b") == "http://x.com/a@b"  # @ in path kept
    assert canon.host_of("http://x.com:8080/a") == "x.com"


def test_canonical_url_idempotent_and_fastpath_consistent_property():
    """Property: canonical_url is idempotent (a canonicalized URL re-enters
    the frontier unchanged — the seen-set contract), and the vectorized
    canonical_urls agrees with the scalar path on every generated input."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    host = st.from_regex(r"[a-zA-Z0-9][a-zA-Z0-9.\-]{0,20}", fullmatch=True)
    path = st.from_regex(r"(/[a-zA-Z0-9._~ %\-]{0,12}){0,4}/?", fullmatch=True)
    query = st.one_of(st.just(""), st.from_regex(r"\?[a-zA-Z0-9=&]{0,12}", fullmatch=True))
    anchor = st.one_of(st.just(""), st.from_regex(r"#[a-zA-Z0-9_\-]{0,8}", fullmatch=True))
    scheme = st.sampled_from(["http://", "https://", "HTTP://"])
    urls = st.builds(lambda s, h, p, q, a: s + h + p + q + a, scheme, host, path, query, anchor)

    @settings(max_examples=300, deadline=None)
    @given(urls)
    def check(u):
        one = canon.canonical_url(u)
        assert one == _canonical_full(u), u
        assert canon.canonical_url(one) == one, (u, one)
        assert canon.canonical_urls([u]) == [one]

    check()
