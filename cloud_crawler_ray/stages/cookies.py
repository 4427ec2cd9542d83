"""Cookie store — reference parity for lib/cloud-crawler/cookie_store.rb.

Per-host jar: parse ``Set-Cookie`` response headers (cookie_store.rb:32-43),
merge (last write per cookie name wins, http.rb:196), emit a ``Cookie``
request header, and drop expired cookies (cookie_store.rb:45-56). Gated by
the ``accept_cookies`` option (dsl_front_end.rb:52).

Distribution note: a cookie jar is mutable cross-request state, so it is
made wave-synchronous, like the seen set. A request in wave N carries the
jar committed by waves < N: at each wave's commit the driver folds the
wave's Set-Cookie responses, in (seq, chain position) order, into one
``Cookie`` header per host (``merge_committed_header``), persists it in the
lineage marker and passes it to the next wave's fetchers as read-only
``cookie_hdrs``. Fetch is thus deterministic wherever it runs, and
cookie-dependent crawls need no stateful fetcher.
"""

from __future__ import annotations

from email.utils import parsedate_to_datetime
from http.cookies import SimpleCookie


class CookieStore:
    def __init__(self):
        self._jars: dict[str, dict[str, SimpleCookie]] = {}

    def merge(self, host: str, set_cookie_headers: list[str], now=None) -> None:
        jar = self._jars.setdefault(host, {})
        for header in set_cookie_headers:
            c = SimpleCookie()
            try:
                c.load(header)
            except Exception:
                continue
            for name, morsel in c.items():
                sc = SimpleCookie()
                sc[name] = morsel.value
                for attr in ("expires", "path", "max-age"):
                    if morsel[attr]:
                        sc[name][attr] = morsel[attr]
                jar[name] = sc

    def _expired(self, morsel, now) -> bool:
        exp = morsel["expires"]
        if not exp:
            return False
        try:
            return parsedate_to_datetime(exp) < now
        except (TypeError, ValueError):
            return False

    def cookie_header(self, host: str, now=None) -> str:
        """The ``Cookie:`` request-header value for *host* (expired cookies
        skipped — cookie_store.rb:45-56)."""
        import datetime

        now = now or datetime.datetime.now(datetime.timezone.utc)
        jar = self._jars.get(host, {})
        parts = []
        for name, sc in sorted(jar.items()):
            morsel = sc[name]
            if not self._expired(morsel, now):
                parts.append(f"{name}={morsel.value}")
        return "; ".join(parts)

    def clear(self) -> None:
        self._jars.clear()


LOGIN_STUB_BODY = b"<html><body><p>login required</p></body></html>"


def request_cookie_header(
    spec_cookies: dict[str, str] | None, committed_hdr: str, accept_cookies: bool
) -> str:
    """The ``Cookie:`` value for a request: initial opts cookies + the
    wave-committed jar for the host. Emitted unless the jar is empty or
    (not accept_cookies and no initial cookies) — http.rb:179."""
    if not (accept_cookies or spec_cookies):
        return ""
    parts = [f"{k}={v}" for k, v in sorted((spec_cookies or {}).items())]
    if committed_hdr:
        parts.append(committed_hdr)
    return "; ".join(parts)


def merge_committed_header(existing_hdr: str, set_cookies: list[str]) -> str:
    """Fold a wave's ordered Set-Cookie headers into a host's committed
    Cookie header (name=value pairs; last write per name wins,
    cookie_store.rb:45-56 to_s semantics)."""
    cs = CookieStore()
    if existing_hdr:
        cs.merge("h", [existing_hdr])
    cs.merge("h", set_cookies)
    return cs.cookie_header("h")


def header_has_pair(cookie_header: str, pair: str) -> bool:
    """True iff the request Cookie header carries the exact name=value pair."""
    return pair in {p.strip() for p in cookie_header.split(";") if p.strip()}
