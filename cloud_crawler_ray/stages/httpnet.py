"""Real-socket HTTP network backend — the deployment twin of SyntheticNet.

The reference crawler actually speaks HTTP (http.rb:174-217 ``get_response``:
UA/referer headers, basic auth from URL userinfo, response timing, 3 retries
on Timeout/BadResponse/EOF; http.rb:219-240 per-host ``Net::HTTP`` connection
pool with keep-alive; http.rb:68-91,155-169 same-host redirect chain). This
module implements that surface on real sockets behind the SAME stage
interface the synthetic backend uses, so ``FetchExtract`` (stages/fetch.py)
runs unchanged against either:

- ``SyntheticNet``  — table lookup, virtual politeness clock (tests/bench)
- ``HttpNet``       — pooled ``http.client`` connections, wall-clock
  politeness (FetchExtract sleeps between same-host fetches when the net
  declares ``realtime = True``)

A net is "real" iff it exposes ``chain(url, depth, referer, redirect_limit,
cookie_header=, prior_etag=, user_agent=) -> list[FetchedPage]``; otherwise
FetchExtract falls back to ``oracle.fetch_chain(net, ...)``. Both backends
share ``robots_for(host)`` for link admission.

Distribution: an ``HttpNet`` instance is broadcast via ``ray.put`` exactly
like the web table; live sockets are actor-local (``__getstate__`` drops
them) and rebuilt lazily per worker — setup once per actor, reuse per batch.
"""

from __future__ import annotations

import base64
import http.client
import socket
import ssl
import time
import urllib.parse
import urllib.robotparser
import zlib

from ..canon import host_of
from ..oracle import MAX_HTTP_RETRIES, FetchedPage

# transient failures worth a retry (http.rb:211-216 rescues Timeout::Error,
# Net::HTTPBadResponse, EOFError); a refused/unresolvable connection is
# permanent and maps to the synthetic "connection refused" error page
_TRANSIENT = (
    socket.timeout,
    TimeoutError,
    ConnectionResetError,
    ConnectionAbortedError,
    BrokenPipeError,
    http.client.BadStatusLine,
    http.client.IncompleteRead,
    http.client.CannotSendRequest,
    http.client.ResponseNotReady,
    ssl.SSLEOFError,  # mid-stream TLS truncation == EOFError over the wire
    ssl.SSLZeroReturnError,
)
_REFUSED = (ConnectionRefusedError, socket.gaierror)


def _inflate(body: bytes, encoding: str) -> bytes:
    """Decode a Content-Encoding'd entity body (Net::HTTP auto-inflate
    analog). ``deflate`` on the wire is zlib-wrapped per RFC 9110, but some
    origins send raw DEFLATE streams — try both, like the browsers do. A
    gzip body may hold several members (RFC 1952 §2.2): each is decoded and
    the results concatenated, as gzip(1) does; bytes after a member that do
    not start another one are ignored, as zlib.decompress ignores them."""
    if encoding == "gzip":
        out = []
        while True:
            d = zlib.decompressobj(16 + zlib.MAX_WBITS)
            out.append(d.decompress(body))
            if not d.eof:
                raise zlib.error("incomplete or truncated gzip member")
            body = d.unused_data
            if body[:2] != b"\x1f\x8b":
                return b"".join(out)
    try:
        return zlib.decompress(body)
    except zlib.error:
        return zlib.decompress(body, -zlib.MAX_WBITS)


class HttpNet:
    """Per-host pooled HTTP/1.1 fetcher with the reference's retry model.

    Parameters
    ----------
    timeout: socket timeout per attempt, seconds (http.rb read_timeout).
    max_retries: retries after the first attempt (http.rb:211-216 → 3).
    port_map: optional host → port for URLs built from a bare host (robots
        fetches during link admission); loopback test servers live on
        ephemeral ports that ``host_of`` (port-stripping, the politeness
        key) cannot recover.
    tls_verify: certificate verification for https. The reference runs
        ``OpenSSL::SSL::VERIFY_NONE`` unconditionally (http.rb:188-190);
        False reproduces that, True enables full chain + hostname checks.
    ca_file: extra trust root (PEM) for ``tls_verify=True`` — a pinned
        self-signed cert in tests, a private CA in deployment.
    scheme_map: host → scheme ("https") for URLs built from a bare host
        (robots fetches); hosts not listed default to http.
    """

    realtime = True  # FetchExtract enforces wall-clock politeness spacing

    def __init__(
        self,
        timeout: float = 10.0,
        max_retries: int = MAX_HTTP_RETRIES,
        port_map: dict[str, int] | None = None,
        tls_verify: bool = False,
        ca_file: str | None = None,
        scheme_map: dict[str, str] | None = None,
    ):
        self.timeout = timeout
        self.max_retries = max_retries
        self.port_map = dict(port_map or {})
        self.tls_verify = tls_verify
        self.ca_file = ca_file
        self.scheme_map = dict(scheme_map or {})
        self._conns: dict[tuple, http.client.HTTPConnection] = {}
        self._ssl_ctx: ssl.SSLContext | None = None

    # live sockets / contexts never cross the ray.put boundary
    def __getstate__(self):
        d = self.__dict__.copy()
        d["_conns"] = {}
        d["_ssl_ctx"] = None
        return d

    def _tls_context(self) -> ssl.SSLContext:
        if self._ssl_ctx is None:
            if self.tls_verify:
                ctx = ssl.create_default_context(cafile=self.ca_file)
            else:
                # VERIFY_NONE semantics (http.rb:188-190): encrypt the
                # transport, trust any certificate
                ctx = ssl.create_default_context()
                ctx.check_hostname = False
                ctx.verify_mode = ssl.CERT_NONE
            self._ssl_ctx = ctx
        return self._ssl_ctx

    def close(self) -> None:
        for c in self._conns.values():
            try:
                c.close()
            except OSError:
                pass
        self._conns.clear()

    # ---- connection pool (http.rb:219-240) --------------------------------
    def _conn(self, scheme: str, host: str, port: int) -> http.client.HTTPConnection:
        key = (scheme, host, port)
        c = self._conns.get(key)
        if c is None:
            if scheme == "https":
                c = http.client.HTTPSConnection(
                    host, port, timeout=self.timeout, context=self._tls_context()
                )
            else:
                c = http.client.HTTPConnection(host, port, timeout=self.timeout)
            self._conns[key] = c
        return c

    def _drop(self, scheme: str, host: str, port: int) -> None:
        c = self._conns.pop((scheme, host, port), None)
        if c is not None:
            try:
                c.close()
            except OSError:
                pass

    # ---- single GET with retries (http.rb:174-217) ------------------------
    def _get(
        self,
        url: str,
        depth: int,
        referer: str,
        cookie_header: str,
        prior_etag: str,
        user_agent: str,
    ) -> FetchedPage:
        try:
            parts = urllib.parse.urlsplit(url)
        except ValueError:
            return FetchedPage(url, 0, b"", "", "", 0, depth, referer, error="bad url")
        host = parts.hostname or ""
        if not host:
            return FetchedPage(url, 0, b"", "", "", 0, depth, referer, error="bad url")
        port = parts.port or self.port_map.get(host) or (
            443 if parts.scheme == "https" else 80
        )
        path = parts.path or "/"
        if parts.query:
            path += "?" + parts.query
        headers = {
            "User-Agent": user_agent or "cloud-crawler-ray/0.1",
            # Net::HTTP advertises and auto-inflates these; the decode
            # happens below so spans/etags always see entity bytes
            "Accept-Encoding": "gzip, deflate",
        }
        if referer:
            headers["Referer"] = referer
        if cookie_header:
            headers["Cookie"] = cookie_header
        if prior_etag:
            headers["If-None-Match"] = prior_etag
        if parts.username is not None:
            # basic auth from URL userinfo (http.rb:191); credentials are a
            # request header, never part of the URL on the wire
            creds = f"{parts.username or ''}:{parts.password or ''}"
            headers["Authorization"] = "Basic " + base64.b64encode(
                creds.encode("utf-8")
            ).decode("ascii")

        clock_ms = 0
        max_attempts = self.max_retries + 1
        for attempt in range(max_attempts):
            t0 = time.perf_counter()
            try:
                conn = self._conn(parts.scheme, host, port)
                conn.request("GET", path, headers=headers)
                resp = conn.getresponse()
                body = resp.read()
            except _REFUSED:
                # permanent: nothing is listening / name does not resolve
                # (FakeWeb NetConnectNotAllowedError analog, http.rb:84-90)
                self._drop(parts.scheme, host, port)
                return FetchedPage(
                    url, 0, b"", "", "", 0, depth, referer,
                    error="connection refused",
                    clock_ms=clock_ms + int((time.perf_counter() - t0) * 1000),
                )
            except _TRANSIENT:
                # failed attempt still costs wall time on the politeness
                # clock; retry on a fresh connection (http.rb:211-216)
                self._drop(parts.scheme, host, port)
                clock_ms += int((time.perf_counter() - t0) * 1000)
                if attempt == max_attempts - 1:
                    return FetchedPage(
                        url, 0, b"", "", "", 0, depth, referer,
                        error="retries exhausted", clock_ms=clock_ms,
                    )
                continue
            except OSError as e:
                self._drop(parts.scheme, host, port)
                return FetchedPage(
                    url, 0, b"", "", "", 0, depth, referer,
                    error=f"connection error: {e.__class__.__name__}",
                    clock_ms=clock_ms + int((time.perf_counter() - t0) * 1000),
                )
            latency_ms = int((time.perf_counter() - t0) * 1000)
            clock_ms += latency_ms
            if resp.will_close:
                self._drop(parts.scheme, host, port)  # else it stays pooled
            encoding = (resp.getheader("Content-Encoding") or "").strip().lower()
            if body and encoding in ("gzip", "deflate"):
                try:
                    body = _inflate(body, encoding)
                except zlib.error:
                    # a body that claims an encoding it doesn't carry is a
                    # bad response, not a transport blip: surface it. The
                    # origin's framing is not to be trusted either, so its
                    # connection is not reused, whatever it announced
                    self._drop(parts.scheme, host, port)
                    return FetchedPage(
                        url, int(resp.status), b"", "", "", latency_ms, depth,
                        referer, error=f"bad content encoding: {encoding}",
                        clock_ms=clock_ms,
                    )
            ctype = (resp.getheader("Content-Type") or "").split(";")[0].strip()
            location = resp.getheader("Location") or ""
            redirect_to = (
                urllib.parse.urljoin(url, location) if location else ""
            )
            set_cookies = resp.msg.get_all("Set-Cookie") or []
            etag = resp.getheader("ETag") or ""
            if resp.status == 304:
                return FetchedPage(
                    url, 304, b"", ctype, "", latency_ms, depth, referer,
                    set_cookie=", ".join(set_cookies), clock_ms=clock_ms,
                    etag=etag or prior_etag, not_modified=True,
                )
            return FetchedPage(
                url,
                int(resp.status),
                body,
                ctype,
                redirect_to,
                latency_ms,
                depth,
                referer,
                set_cookie=", ".join(set_cookies),
                clock_ms=clock_ms,
                etag=etag,
            )
        raise AssertionError("unreachable")

    # ---- redirect chain (http.rb:68-91,155-169) ----------------------------
    def chain(
        self,
        url: str,
        depth: int,
        referer: str,
        redirect_limit: int,
        cookie_header: str = "",
        prior_etag: str = "",
        user_agent: str = "",
    ) -> list[FetchedPage]:
        """Fetch *url* following same-host redirects up to *redirect_limit*
        (off-host redirects are recorded but not followed, http.rb:245-247).
        ``prior_etag`` rides the FIRST hop only as If-None-Match — it
        validates the job URL's previous body, not a redirect target's."""
        pages: list[FetchedPage] = []
        cur = url
        for hop in range(redirect_limit + 1):
            page = self._get(
                cur, depth, referer, cookie_header,
                prior_etag if hop == 0 else "", user_agent,
            )
            pages.append(page)
            if 300 <= page.code < 400 and page.redirect_to:
                if host_of(page.redirect_to) != host_of(cur):
                    return pages
                cur = page.redirect_to
                continue
            return pages
        return pages

    # ---- chain-latency index interface (stages/politeness.py) -------------
    def get(self, url: str, default: int = 0) -> int:
        """A real network's latency is unknowable in advance: the virtual
        slot plan spaces same-host jobs by the politeness delay alone, and
        FetchExtract enforces the true spacing on the wall clock."""
        return default

    # ---- robots (dsl_core.rb:233-241; errors → parse([]) = allow) ----------
    def robots_for(self, host: str) -> urllib.robotparser.RobotFileParser:
        rp = urllib.robotparser.RobotFileParser()
        scheme = self.scheme_map.get(host, "http")
        page = self._get(f"{scheme}://{host}/robots.txt", 0, "", "", "", "")
        if page.fetched and page.code == 200:
            rp.parse(page.body.decode("utf-8", "ignore").splitlines())
        else:
            rp.parse([])  # unreachable or non-200 robots → allow all
        return rp
