"""Parse-extract fusion: HTML body → ordered interleaved spans + candidate links.

Reference semantics (lib/cloud-crawler in /root/reference/cloud-crawler):
- lazy Nokogiri parse gated on content type (page.rb:143-149, 185-195) —
  non-HTML/XML bodies yield no DOM, hence no spans/links;
- links = document-order ``//a[@href]``, absolutized via ``to_absolute``
  (anchor strip, decode/encode, <base href> resolution, empty path → "/"),
  unparseable hrefs skipped, de-duplicated keep-first (page.rb:97-136);
- anchor text per link with UTF-8 scrub (text_for, page.rb:104-113);
- <base href> from <head> applies to every link (page.rb:217-225).

The interleaved-span output (kind, text, media_ref, offset) is the
input_hint payload: text runs, <a> anchors (kind=link), <img> (kind=image)
and <video> (kind=video) tags in document order. This module is pure Python,
shared verbatim by the distributed extract stage (map_batches) and the
single-threaded oracle, so per-row span-sequence equality is by construction
— the distributed/oracle comparison then verifies orchestration (dedup,
ordering, seen-set, politeness), which is where parallelism can diverge.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from html.parser import HTMLParser

from .canon import to_absolute

_BASE_RE = re.compile(rb"<base\s+href=[\"']([^\"']+)[\"']", re.I)

HTML_TYPES = ("text/html", "application/xhtml+xml")
XML_TYPES = ("text/xml", "application/xml")
JSON_TYPES = ("application/json", "text/json")


def is_json_type(content_type: str) -> bool:
    ct = (content_type or "").split(";")[0].strip().lower()
    return ct in JSON_TYPES


def is_parseable(content_type: str) -> bool:
    ct = (content_type or "").split(";")[0].strip().lower()
    return ct in HTML_TYPES or ct in XML_TYPES or ct in JSON_TYPES


def scrub(text: str) -> str:
    """UTF-8 scrub + whitespace collapse (page.rb:109-113 iconv IGNORE).
    ASCII fast path: the encode/decode round-trip is identity for ASCII
    (and for any valid str — it only matters for exotic inputs)."""
    if not text.isascii():
        text = text.encode("utf-8", "ignore").decode("utf-8", "ignore")
    # str.split() splits on exactly the characters \s matches in a str
    # pattern, so this equals re.sub(r"\s+", " ", text).strip()
    return " ".join(text.split())


@dataclass
class Extraction:
    spans: list[tuple[str, str, str, int]] = field(default_factory=list)  # kind,text,media_ref,offset
    links: list[str] = field(default_factory=list)       # absolutized, doc order, uniq keep-first
    anchor_text: dict[str, str] = field(default_factory=dict)
    canonical: str = ""  # <link rel="canonical" href=...>, absolutized, keep-first
    noindex: bool = False      # <meta name="robots" content="...noindex...">
    nofollow_all: bool = False  # meta robots nofollow: ignore ALL links
    nofollow: set[str] = field(default_factory=set)  # hrefs with rel=nofollow


class _SpanParser(HTMLParser):
    """Single-pass walker: emits text runs, link/image/video spans in
    document order. Text inside <a> belongs to the link span (text_for)."""

    SKIP_CONTENT = {"script", "style", "title", "head"}

    def __init__(self, page_url: str, base_url: str | None):
        super().__init__(convert_charrefs=True)
        self.page_url = page_url
        self.base_url = base_url
        self.out = Extraction()
        self._text: list[str] = []
        self._in_a: str | None = None      # absolutized href while inside <a>
        self._a_text: list[str] = []
        self._skip_depth = 0

    def _flush_text(self) -> None:
        if not self._text:
            return
        txt = scrub("".join(self._text))
        self._text = []
        if txt:
            self._emit("text", txt, "")

    def _emit(self, kind: str, text: str, media_ref: str) -> None:
        self.out.spans.append((kind, text, media_ref, len(self.out.spans)))

    def handle_starttag(self, tag, attrs):
        if tag in self.SKIP_CONTENT:
            self._skip_depth += 1
            return
        d = dict(attrs)
        if tag == "a":
            href = d.get("href")
            if href:
                abs_url = to_absolute(href, self.page_url, self.base_url)
                self._flush_text()
                self._in_a = abs_url  # None if unparseable → swallow as text
                self._a_text = []
                rel = (d.get("rel") or "").lower()
                if abs_url and "nofollow" in rel.split():
                    self.out.nofollow.add(abs_url)
        elif tag in ("img", "video"):
            src = d.get("src")
            if src:
                abs_src = to_absolute(src, self.page_url, self.base_url)
                if abs_src:
                    self._flush_text()
                    self._emit("image" if tag == "img" else "video", "", abs_src)
        elif tag == "link":
            # rel=canonical declaration: first one wins (the convention
            # search engines apply to conflicting declarations)
            rel = (d.get("rel") or "").strip().lower()
            href = d.get("href")
            if rel == "canonical" and href and not self.out.canonical:
                abs_url = to_absolute(href, self.page_url, self.base_url)
                if abs_url:
                    self.out.canonical = abs_url
        elif tag == "meta":
            # <meta name="robots" content="noindex, nofollow"> — directive
            # tokens are comma-separated, case-insensitive
            if (d.get("name") or "").strip().lower() == "robots":
                directives = {
                    tok.strip() for tok in (d.get("content") or "").lower().split(",")
                }
                if "noindex" in directives or "none" in directives:
                    self.out.noindex = True
                if "nofollow" in directives or "none" in directives:
                    self.out.nofollow_all = True

    def handle_endtag(self, tag):
        if tag in self.SKIP_CONTENT:
            self._skip_depth = max(0, self._skip_depth - 1)
            return
        if tag == "a" and self._in_a is not None:
            atext = scrub("".join(self._a_text))
            url = self._in_a
            self._emit("link", atext, url)
            if url not in self.out.anchor_text:   # keep-first like @links.uniq!
                self.out.anchor_text[url] = atext
                self.out.links.append(url)
            self._in_a = None
            self._a_text = []

    def handle_data(self, data):
        if self._skip_depth:
            return
        if self._in_a is not None:
            self._a_text.append(data)
        else:
            self._text.append(data)

    def close(self):
        super().close()
        if self._in_a is not None:   # unclosed <a> at EOF
            self.handle_endtag("a")
        self._flush_text()


# ---- fast tag-stream tokenizer -------------------------------------------
# Drives the SAME _SpanParser handler as the stdlib HTMLParser (the span /
# link / skip-content logic is single-source), replacing only the per-char
# parsing machinery (which profiled at ~55% of extract time) with one regex
# scan. Equivalence with the stdlib tokenizer is pinned by a differential
# test over every scenario web plus edge-case bodies
# (tests/test_extract.py::test_fast_parser_matches_stdlib).

_MARKUP_RE = re.compile(
    r"<!--.*?-->|<!\[CDATA\[.*?\]\]>|<[!?][^>]*>"
    r"|<(/?)([a-zA-Z][a-zA-Z0-9]*)((?:\"[^\"]*\"|'[^']*'|[^>\"'])*)>",
    re.S,
)
_HREF_RE = re.compile(
    r"""\bhref\s*=\s*(?:"([^"]*)"|'([^']*)'|([^\s"'>]+))""", re.I
)
_SRC_RE = re.compile(r"""\bsrc\s*=\s*(?:"([^"]*)"|'([^']*)'|([^\s"'>]+))""", re.I)
_REL_RE = re.compile(r"""\brel\s*=\s*(?:"([^"]*)"|'([^']*)'|([^\s"'>]+))""", re.I)
_NAME_RE = re.compile(r"""\bname\s*=\s*(?:"([^"]*)"|'([^']*)'|([^\s"'>]+))""", re.I)
_CONTENT_RE = re.compile(
    r"""\bcontent\s*=\s*(?:"([^"]*)"|'([^']*)'|([^\s"'>]+))""", re.I
)


def _attr_from(attrs_str: str, rx: re.Pattern, name: str) -> list:
    found = rx.findall(attrs_str)
    if not found:
        return []
    # last occurrence wins (dict(attrs)); exactly one of the three value
    # forms matched, the other groups are empty
    dq, sq, bare = found[-1]
    val = dq or sq or bare
    if "&" in val:
        import html as _html

        val = _html.unescape(val)
    return [(name, val)]


_ATTR_TAIL_SPLIT = re.compile(r"[\s\"']")


def _is_self_closing(attrs_str: str) -> bool:
    """True only when a trailing '/' is a real self-closing marker. In the
    stdlib tokenizer a '/' glued to an UNQUOTED VALUE (`<a href=/docs/>`) is
    part of the value (attrfind's unquoted pattern eats '/'), but a '/'
    glued to a bare attribute NAME (`<a data-x/>`, `<a href='/q'data-y/>`)
    still self-closes. So: self-closing iff the slash follows whitespace, a
    quote, or nothing — or the token glued to it (after the last
    whitespace/quote) carries no '=' (bare name, not a value)."""
    s = attrs_str.rstrip()
    if not s.endswith("/"):
        return False
    if len(s) == 1 or s[-2] in " \t\n\r\"'":
        return True
    return "=" not in _ATTR_TAIL_SPLIT.split(s)[-1]


def _find_cdata_close(lower: str, tag: str, pos: int) -> int:
    """Index of the '</tag' that ends a script/style CDATA section (stdlib
    requires the name be followed by whitespace, '/', or '>'), or -1."""
    needle = "</" + tag
    while True:
        i = lower.find(needle, pos)
        if i == -1:
            return -1
        j = i + len(needle)
        if j >= len(lower) or lower[j] in " \t\n\r/>":
            return i
        pos = j


# tags the handler actually reacts to — forwarding anything else is a
# guaranteed no-op (handle_starttag ignores tags outside a/img/video and
# SKIP_CONTENT; handle_endtag outside a and SKIP_CONTENT)
_RELEVANT_START = frozenset(
    {"a", "img", "video", "link", "meta", "script", "style", "title", "head"}
)
_RELEVANT_END = frozenset({"a", "script", "style", "title", "head"})


def _fast_feed(handler: _SpanParser, text: str) -> None:
    import html as _html

    pos = 0
    lower: str | None = None
    search = _MARKUP_RE.search
    n = len(text)
    while pos < n:
        m = search(text, pos)
        if m is None:
            break
        start, end = m.span()
        if start > pos:
            data = text[pos:start]
            handler.handle_data(_html.unescape(data) if "&" in data else data)
        pos = end
        closing, name, attrs_str = m.groups()
        if not name:
            continue  # comment / doctype / processing instruction
        tag = name.lower()
        if closing:
            if tag in _RELEVANT_END:
                handler.handle_endtag(tag)
            continue
        if tag not in _RELEVANT_START:
            continue  # handler no-op either way; skip the call overhead
        if tag == "a":
            attrs = _attr_from(attrs_str, _HREF_RE, "href")
            # rel only when the substring appears — anchors are the hot
            # path and rel is rare, so the common case pays one `in` check
            if "rel" in attrs_str:
                attrs += _attr_from(attrs_str, _REL_RE, "rel")
        elif tag in ("img", "video"):
            attrs = _attr_from(attrs_str, _SRC_RE, "src")
        elif tag == "link":
            attrs = _attr_from(attrs_str, _REL_RE, "rel") + _attr_from(
                attrs_str, _HREF_RE, "href"
            )
        elif tag == "meta":
            attrs = _attr_from(attrs_str, _NAME_RE, "name") + _attr_from(
                attrs_str, _CONTENT_RE, "content"
            )
        else:
            attrs = []
        handler.handle_starttag(tag, attrs)
        if _is_self_closing(attrs_str):
            handler.handle_endtag(tag)  # self-closing (startendtag)
        elif tag in ("script", "style"):
            # CDATA mode (stdlib): raw content until the matching close
            # tag — nothing inside is markup
            if lower is None:
                lower = text.lower()
            close = _find_cdata_close(lower, tag, pos)
            if close == -1:
                pos = n  # unterminated: rest of document is script content
            else:
                handler.handle_endtag(tag)
                gt = text.find(">", close)
                pos = (gt + 1) if gt != -1 else n
    if pos < n:
        data = text[pos:]
        handler.handle_data(_html.unescape(data) if "&" in data else data)
    handler.close()


def find_base(body: bytes) -> str | None:
    """<head><base href> lookup (page.rb:217-225); empty href → None."""
    m = _BASE_RE.search(body)
    if m:
        href = m.group(1).decode("utf-8", "ignore").strip()
        return href or None
    return None


def extract_page(
    url: str, body: bytes, content_type: str, *, tokenizer: str = "fast"
) -> Extraction:
    """Full extraction for one fetched page. Non-parseable content types
    return an empty Extraction (doc is nil, page.rb:143-149).

    tokenizer="fast" (default) scans tags with one regex pass;
    tokenizer="stdlib" uses html.parser — both drive the same handler and
    are differentially tested equal."""
    if not is_parseable(content_type) or not body:
        return Extraction()
    if is_json_type(content_type):
        # BatchApiJob payload (batch_api_job.rb:33-104): a JSON API response
        # becomes one normalized (sorted-key, compact) span of kind "json" —
        # the doc-store sink projects it back out. Invalid JSON → no spans.
        import json

        try:
            doc = json.loads(body.decode("utf-8", "ignore"))
        except ValueError:
            return Extraction()
        ex = Extraction()
        ex.spans.append(
            ("json", json.dumps(doc, sort_keys=True, separators=(",", ":")), "", 0)
        )
        return ex
    base = find_base(body)
    parser = _SpanParser(url, base)
    text = body.decode("utf-8", "ignore")
    if tokenizer == "fast":
        _fast_feed(parser, text)  # close() included
    else:
        parser.feed(text)
        parser.close()
    return parser.out
