"""In-process loopback HTTP server serving a WEB_SCHEMA table — the real-
socket twin of ``SyntheticNet``. Gives the fetch stage an actual origin to
speak to (ThreadingHTTPServer on 127.0.0.1, ephemeral port) with the same
semantics the synthetic lookup models: redirects, basic auth (401 without
credentials), Set-Cookie / cookie-gated bodies, transient failures (the
first ``fail_times`` requests per URL abort before any response — the
Timeout/BadResponse/EOF analog), ETag + If-None-Match → 304, robots.txt,
TLS (self-signed cert, the reference's VERIFY_NONE world),
Content-Encoding gzip/deflate transfer, and an origin that closes every
connection after its response without announcing it (``silent_close``)."""

from __future__ import annotations

import base64
import datetime
import socket
import ssl
import tempfile
import threading
import time
import zlib
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from cloud_crawler_ray.oracle import etag_of
from cloud_crawler_ray.stages.cookies import LOGIN_STUB_BODY, header_has_pair


def make_self_signed_cert() -> tuple[str, str]:
    """Write a throwaway self-signed cert+key for 127.0.0.1/localhost;
    returns (cert_path, key_path). Requires the ``cryptography`` wheel —
    callers skip TLS tests when it's absent."""
    from cryptography import x509
    from cryptography.hazmat.primitives import hashes, serialization
    from cryptography.hazmat.primitives.asymmetric import rsa
    from cryptography.x509.oid import NameOID

    key = rsa.generate_private_key(public_exponent=65537, key_size=2048)
    name = x509.Name([x509.NameAttribute(NameOID.COMMON_NAME, "127.0.0.1")])
    now = datetime.datetime(2026, 1, 1, tzinfo=datetime.timezone.utc)
    cert = (
        x509.CertificateBuilder()
        .subject_name(name)
        .issuer_name(name)
        .public_key(key.public_key())
        .serial_number(x509.random_serial_number())
        .not_valid_before(now)
        .not_valid_after(now + datetime.timedelta(days=3650))
        .add_extension(
            x509.SubjectAlternativeName(
                [
                    x509.DNSName("localhost"),
                    x509.IPAddress(__import__("ipaddress").ip_address("127.0.0.1")),
                ]
            ),
            critical=False,
        )
        .sign(key, hashes.SHA256())
    )
    cert_f = tempfile.NamedTemporaryFile(suffix=".pem", delete=False)
    cert_f.write(cert.public_bytes(serialization.Encoding.PEM))
    cert_f.close()
    key_f = tempfile.NamedTemporaryFile(suffix=".pem", delete=False)
    key_f.write(
        key.private_bytes(
            serialization.Encoding.PEM,
            serialization.PrivateFormat.TraditionalOpenSSL,
            serialization.NoEncryption(),
        )
    )
    key_f.close()
    return cert_f.name, key_f.name


class _SiteHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def log_message(self, *args):  # quiet
        pass

    def _respond(self, status: int, body: bytes, ctype: str, extra: dict) -> None:
        self.send_response(status)
        if ctype:
            self.send_header("Content-Type", ctype)
        for k, v in extra.items():
            self.send_header(k, v)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        if self.server.silent_close:
            self.close_connection = True  # no Connection: close was sent

    def _send_entity(self, status: int, body: bytes, ctype: str, extra: dict) -> None:
        """Entity send with optional transfer compression: when the server
        was built with ``compress=`` and the client advertised it, the 200
        body goes out gzip/deflate'd with Content-Encoding set. ETag/304
        logic upstream runs on entity bytes — compression is transfer-only."""
        srv = self.server
        enc = srv.compress
        if (
            enc
            and status == 200
            and body
            and enc in (self.headers.get("Accept-Encoding") or "")
        ):
            if enc == "gzip":
                # gzip_members > 1: the body split into that many gzip
                # members, concatenated (RFC 1952 §2.2)
                k = srv.gzip_members
                cuts = [len(body) * i // k for i in range(k + 1)]
                members = []
                for a, b in zip(cuts, cuts[1:]):
                    co = zlib.compressobj(6, zlib.DEFLATED, 16 + zlib.MAX_WBITS)
                    members.append(co.compress(body[a:b]) + co.flush())
                body = b"".join(members)
            else:  # deflate (zlib-wrapped per RFC 9110)
                body = zlib.compress(body, 6)
            extra = dict(extra, **{"Content-Encoding": enc})
        self._respond(status, body, ctype, extra)

    def do_GET(self):  # noqa: N802 (http.server API)
        srv = self.server
        url = f"{srv.scheme}://{srv.netloc}{self.path}"
        row = srv.rows.get(url)
        with srv.lock:
            srv.request_log.append((time.monotonic(), self.path, dict(self.headers)))
            fails = srv.fail_left.get(url, 0)
            if fails > 0:
                srv.fail_left[url] = fails - 1
                aborted = True
            else:
                aborted = False
        if aborted:
            # transient failure: abort before any status line — the client
            # sees RemoteDisconnected/BadStatusLine and retries
            self.close_connection = True
            try:
                self.connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            return
        if row is None:
            self._respond(404, b"not found", "text/plain", {})
            return
        if row["auth"]:
            expect = "Basic " + base64.b64encode(row["auth"].encode("utf-8")).decode("ascii")
            if self.headers.get("Authorization") != expect:
                self._respond(401, b"", "text/html", {})
                return
        body = row["body"]
        if row["require_cookie"] and not header_has_pair(
            self.headers.get("Cookie", ""), row["require_cookie"]
        ):
            body = LOGIN_STUB_BODY
        extra: dict[str, str] = {}
        if row["set_cookie"]:
            extra["Set-Cookie"] = row["set_cookie"]
        status = int(row["status"])
        if 300 <= status < 400 and row["redirect_to"]:
            extra["Location"] = row["redirect_to"]
        if status == 200:
            etag = etag_of(body, row["content_type"])
            extra["ETag"] = etag
            if self.headers.get("If-None-Match") == etag:
                self._respond(304, b"", row["content_type"], extra)
                return
        self._send_entity(status, body, row["content_type"], extra)


class SiteServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(
        self, tls: bool = False, compress: str | None = None, gzip_members: int = 1,
        silent_close: bool = False,
    ):
        super().__init__(("127.0.0.1", 0), _SiteHandler)
        self.scheme = "https" if tls else "http"
        self.compress = compress
        self.gzip_members = gzip_members
        self.silent_close = silent_close
        # released once per connection the server has closed
        self.conns_closed = threading.Semaphore(0)
        self.cert_file: str | None = None
        if tls:
            self.cert_file, key_file = make_self_signed_cert()
            ctx = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
            ctx.load_cert_chain(self.cert_file, key_file)
            self.socket = ctx.wrap_socket(self.socket, server_side=True)
        self.netloc = f"127.0.0.1:{self.server_address[1]}"
        self.rows: dict[str, dict] = {}
        self.fail_left: dict[str, int] = {}
        self.request_log: list[tuple[float, str, dict]] = []
        self.lock = threading.Lock()

    def handle_error(self, request, client_address):
        pass  # aborted-connection noise from the transient-failure model

    def shutdown_request(self, request):
        super().shutdown_request(request)
        self.conns_closed.release()

    def load(self, web) -> None:
        """Serve a WEB_SCHEMA pyarrow table (tests build it with the same
        FakePage/web_table helpers the synthetic oracle web uses)."""
        for row in web.to_pylist():
            self.rows[row["url"]] = row
            if row.get("fail_times"):
                self.fail_left[row["url"]] = int(row["fail_times"])

    def page_paths(self) -> list[tuple[float, str]]:
        with self.lock:
            return [(t, p) for t, p, _ in self.request_log if p != "/robots.txt"]


@contextmanager
def serve_site(
    tls: bool = False, compress: str | None = None, gzip_members: int = 1,
    silent_close: bool = False,
):
    """Yield a started SiteServer; the caller builds pages with
    ``host=server.netloc`` and ``server.load(web_table(pages, ...))``."""
    srv = SiteServer(
        tls=tls, compress=compress, gzip_members=gzip_members,
        silent_close=silent_close,
    )
    t = threading.Thread(target=srv.serve_forever, daemon=True)
    t.start()
    try:
        yield srv
    finally:
        srv.shutdown()
        srv.server_close()
