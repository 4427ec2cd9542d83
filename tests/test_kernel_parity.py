"""Differential tests for the fetch path's fast kernels: each fast path is
checked against the general code it stands in for, so a speed-up cannot
change an output byte.

- robots admission vs a fresh ``RobotFileParser.can_fetch``;
- ``tokenize`` / ``scrub`` vs the ``\\s+`` regex they replaced;
- ``rolling_fingerprint`` / ``quality_counts`` vs their per-token loops.

The URL kernels' fast paths (``to_absolute``, ``canonical_url``) are
checked against their full chains in tests/test_canon.py.
"""

from __future__ import annotations

import re
import sys
import urllib.robotparser

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cloud_crawler_ray.canon as canon
from cloud_crawler_ray.extract import scrub
from cloud_crawler_ray.functions import text as T
from cloud_crawler_ray.oracle import LinkAdmission, SyntheticNet
from cloud_crawler_ray.spec import CrawlSpec

from tests import webs

_WS = re.compile(r"\s+")


# ---- robots admission ------------------------------------------------------

ROBOTS_BODIES = [
    "User-agent: *\nDisallow: /private",
    "User-agent: *\nDisallow: /",
    "",
    "User-agent: *\nAllow: /private/ok\nDisallow: /private\nDisallow: /p1?\n",
    "User-agent: cloud-crawler-ray\nDisallow: /mine\n\nUser-agent: *\nDisallow: /",
    "User-agent: otherbot\nDisallow: /\n\nUser-agent: *\nDisallow: /a%20b\nDisallow: /x;y",
    "User-agent: otherbot\nDisallow: /",
    "User-agent: *\nDisallow: /P\nDisallow: /q%3Fx\nDisallow: /%7Etilde",
    "User-agent: *\nDisallow: *\n",
]

HOST = "www.example.com"

LINKS = [
    f"http://{HOST}/p0", f"http://{HOST}/p1", f"http://{HOST}/private",
    f"http://{HOST}/private/p3", f"http://{HOST}/private/ok/x", f"http://{HOST}/privateer",
    f"http://{HOST}/p1#frag", f"http://{HOST}/private#x", f"http://{HOST}/P1",
    f"HTTP://WWW.EXAMPLE.COM/private/p1", f"https://{HOST}/private",
    f"http://{HOST}/p1?sort=asc", f"http://{HOST}/p1?", f"http://{HOST}/private?a=1&b=2",
    f"http://{HOST}?q=1", f"http://{HOST}", f"http://{HOST}/",
    f"http://{HOST}/a%20b", f"http://{HOST}/a b", f"http://{HOST}/%70rivate",
    f"http://{HOST}/private%2Fx", f"http://{HOST}/x;y", f"http://{HOST}/x;y/z",
    f"http://{HOST}//private", f"http://{HOST}/a//b", f"http://{HOST}:8080/private",
    f"http://{HOST}/~tilde", f"http://{HOST}/q?x", f"http://{HOST}/mine/page",
    f"http://{HOST}/p!$&'()*+,=:@", f"http://{HOST}/p?x=!$&'()*+,=:@/",
    f"http://u:p@{HOST}/private", f"http://[::1/private", f"http://{HOST}/\tprivate",
    f"http://{HOST}/café", "not a url", "", "/private", "mailto:x@y",
]


class _RobotsNet:
    def __init__(self, body: str):
        self.body = body

    def robots_for(self, host: str):
        rp = urllib.robotparser.RobotFileParser()
        rp.parse(self.body.splitlines())
        return rp


def _can_fetch(body: str, ua: str, link: str) -> bool:
    rp = urllib.robotparser.RobotFileParser()
    rp.parse(body.splitlines())
    try:
        return rp.can_fetch(ua, link)
    except Exception:
        return False  # LinkAdmission: robots errors disallow


@pytest.mark.parametrize("body", ROBOTS_BODIES)
def test_robots_verdicts_match_can_fetch(body):
    spec = CrawlSpec(obey_robots_txt=True)
    adm = LinkAdmission(spec, _RobotsNet(body))
    for link in LINKS * 2:  # the second pass reads the per-host rules
        assert adm.allowed_by_robots(link) == _can_fetch(body, spec.user_agent, link), (
            body, link,
        )


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(ROBOTS_BODIES),
    st.sampled_from(["http://", "https://", "HTTP://", "http:", ""]),
    st.sampled_from([HOST, "WWW.Example.com", "h:80", ""]),
    st.text(alphabet="/pPrivate%2f?#;=&:@ ~.-_!*", max_size=16),
)
def test_robots_verdicts_match_can_fetch_property(body, scheme, host, rest):
    spec = CrawlSpec(obey_robots_txt=True)
    link = scheme + host + rest
    adm = LinkAdmission(spec, _RobotsNet(body))
    assert adm.allowed_by_robots(link) == _can_fetch(body, spec.user_agent, link)


def test_robots_web_admission_matches_can_fetch():
    """The scenario web's robots plus link_dense-style link variants, through
    the SyntheticNet robots lookup the crawl uses."""
    web, _ = webs.robots_web()
    net = SyntheticNet(web)
    spec = CrawlSpec(obey_robots_txt=True)
    adm = LinkAdmission(spec, net)
    links = web.column("url").to_pylist()
    links += [u + "#top" for u in links] + [u.upper() for u in links]
    links += [u + "?sort=asc" for u in links] + [u.replace("/p", "/%70") for u in links]
    links += [f"http://{HOST}/private/p{i}" for i in range(5)]
    for link in links:
        rp = net.robots_for(canon.host_of(link))
        assert adm.allowed_by_robots(link) == rp.can_fetch(spec.user_agent, link), link


# ---- text kernels ----------------------------------------------------------


def _tokenize_regex(text: str) -> list[str]:
    return [t for t in _WS.split(text.lower()) if t]


def test_tokenize_matches_regex_on_every_space_code_point():
    spaces = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
    assert len(spaces) > 20
    for ch in spaces:
        for text in (f"a{ch}b", f"{ch}x{ch}{ch}Y{ch}", ch, f"q{ch}"):
            assert T.tokenize(text) == _tokenize_regex(text), hex(ord(ch))
            assert scrub(text) == _WS.sub(" ", text).strip(), hex(ord(ch))
    # and the whitespace sets agree over every code point
    for c in range(sys.maxunicode + 1):
        ch = chr(c)
        assert (_WS.fullmatch(ch) is not None) == ch.isspace(), hex(c)


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=60))
@example("The fox and a dog OF the town in Rome, to it! A café\u00a0Ünïcode\u2028line")
def test_text_kernels_match_reference_loops(text):
    assert T.tokenize(text) == _tokenize_regex(text)
    valid = text.encode("utf-8", "ignore").decode("utf-8", "ignore")
    assert scrub(text) == _WS.sub(" ", valid).strip()
    toks = _tokenize_regex(text)
    h = 0
    for tok in toks:
        h = (h * 1000003 + T._tok_hash(tok)) % (1 << 31)
    assert T.rolling_fingerprint(text) == h
    assert T.quality_counts(text) == {
        "n_chars": len(text),
        "n_tokens": len(toks),
        "n_stopwords": sum(1 for t in toks if t in T.STOPWORDS),
        "n_punct": sum(1 for ch in text if ch in T._PUNCT),
        "n_alpha": sum(1 for ch in text if ch.isalpha()),
    }


def test_rolling_fingerprint_cold_and_warm_cache():
    text = "The quick brown fox jumps over the lazy dog " * 5 + "unseen-token-xyz"
    T._TOKHASH_CACHE.clear()
    cold = T.rolling_fingerprint(text)
    warm = T.rolling_fingerprint(text)
    assert cold == warm
    h = 0
    for tok in _tokenize_regex(text):
        h = (h * 1000003 + T._tok_hash(tok)) % (1 << 31)
    assert cold == h
