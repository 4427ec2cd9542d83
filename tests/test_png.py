"""Stdlib PNG codec (ops/png.py) + real-pixel media pipeline end-to-end.

Closes VERDICT r4 "What's missing" #3: production image decode had only a
PIL branch no wheel here satisfies. With ops/png.py, PNG payloads decode
for real in-sandbox — these tests pin the codec bit-exactly (round-trip
through every RFC 2083 filter, hand-built gray/palette/RGBA chunks) and
drive real pixels through the actor-pool feature/phash/thumbnail stages,
asserting the ``backend`` column reads "png-stdlib" and the outputs match
pixel math computed directly.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np
import pyarrow as pa
import pytest

from cloud_crawler_ray.ops.png import (
    decode_png, encode_png, is_png, luma, resize_area,
)

SIG = b"\x89PNG\r\n\x1a\n"


def _chunk(ctype: bytes, payload: bytes) -> bytes:
    body = ctype + payload
    return struct.pack(">I", len(payload)) + body + struct.pack(
        ">I", zlib.crc32(body) & 0xFFFFFFFF
    )


def _gradient(h=48, w=36):
    y, x = np.mgrid[0:h, 0:w]
    return np.stack(
        [(x * 6) % 256, (y * 5) % 256, ((x + y) * 3) % 256], axis=2
    ).astype(np.uint8)


@pytest.mark.parametrize("filter_type", [0, 1, 2, 3, 4])
def test_roundtrip_every_filter(filter_type):
    rng = np.random.default_rng(7 + filter_type)
    noise = rng.integers(0, 256, (23, 17, 3), dtype=np.uint8)
    for img in (noise, _gradient()):
        data = encode_png(img, filter_type=filter_type)
        assert is_png(data)
        assert np.array_equal(decode_png(data), img)


def test_decode_gray_palette_rgba():
    # grayscale 2x2 → replicated channels
    raw = b"\x00\x10\x20" + b"\x00\x30\x40"
    d = (
        SIG
        + _chunk(b"IHDR", struct.pack(">IIBBBBB", 2, 2, 8, 0, 0, 0, 0))
        + _chunk(b"IDAT", zlib.compress(raw))
        + _chunk(b"IEND", b"")
    )
    g = decode_png(d)
    assert g.shape == (2, 2, 3)
    assert g[0, 0, 0] == 0x10 and (g[0, 0] == 0x10).all() and g[1, 1, 1] == 0x40
    # palette 2x1
    plte = bytes([255, 0, 0, 0, 255, 0])
    d = (
        SIG
        + _chunk(b"IHDR", struct.pack(">IIBBBBB", 2, 1, 8, 3, 0, 0, 0))
        + _chunk(b"PLTE", plte)
        + _chunk(b"IDAT", zlib.compress(b"\x00\x00\x01"))
        + _chunk(b"IEND", b"")
    )
    p = decode_png(d)
    assert list(p[0, 0]) == [255, 0, 0] and list(p[0, 1]) == [0, 255, 0]
    # RGBA 1x1 → alpha dropped
    d = (
        SIG
        + _chunk(b"IHDR", struct.pack(">IIBBBBB", 1, 1, 8, 6, 0, 0, 0))
        + _chunk(b"IDAT", zlib.compress(b"\x00\x09\x08\x07\xff"))
        + _chunk(b"IEND", b"")
    )
    assert list(decode_png(d)[0, 0]) == [9, 8, 7]
    # gray+alpha 1x1
    d = (
        SIG
        + _chunk(b"IHDR", struct.pack(">IIBBBBB", 1, 1, 8, 4, 0, 0, 0))
        + _chunk(b"IDAT", zlib.compress(b"\x00\x55\xff"))
        + _chunk(b"IEND", b"")
    )
    assert list(decode_png(d)[0, 0]) == [0x55, 0x55, 0x55]


def test_decode_rejects_unsupported():
    with pytest.raises(ValueError):
        decode_png(b"GIF89a not a png")
    # interlaced header
    d = (
        SIG
        + _chunk(b"IHDR", struct.pack(">IIBBBBB", 1, 1, 8, 2, 0, 0, 1))
        + _chunk(b"IDAT", zlib.compress(b"\x00\x01\x02\x03"))
        + _chunk(b"IEND", b"")
    )
    with pytest.raises(ValueError):
        decode_png(d)
    # 16-bit depth
    d = (
        SIG
        + _chunk(b"IHDR", struct.pack(">IIBBBBB", 1, 1, 16, 2, 0, 0, 0))
        + _chunk(b"IDAT", zlib.compress(b"\x00" + b"\x01" * 6))
        + _chunk(b"IEND", b"")
    )
    with pytest.raises(ValueError):
        decode_png(d)


def _corrupt_pngs() -> dict[str, bytes]:
    iend = _chunk(b"IEND", b"")
    return {
        # IHDR cut short: 9 of its 13 bytes
        "truncated_ihdr": SIG + _chunk(b"IHDR", struct.pack(">IIB", 2, 2, 8)) + iend,
        # 2x1 palette image whose second pixel names entry 5 of a 2-entry PLTE
        "palette_index": (
            SIG
            + _chunk(b"IHDR", struct.pack(">IIBBBBB", 2, 1, 8, 3, 0, 0, 0))
            + _chunk(b"PLTE", bytes([255, 0, 0, 0, 255, 0]))
            + _chunk(b"IDAT", zlib.compress(b"\x00\x00\x05"))
            + iend
        ),
        # IDAT that is not a zlib stream
        "bad_idat": (
            SIG
            + _chunk(b"IHDR", struct.pack(">IIBBBBB", 1, 1, 8, 2, 0, 0, 0))
            + _chunk(b"IDAT", b"not zlib")
            + iend
        ),
    }


@pytest.mark.parametrize("name", ["truncated_ihdr", "palette_index", "bad_idat"])
def test_decode_corrupt_raises_value_error(name):
    with pytest.raises(ValueError):
        decode_png(_corrupt_pngs()[name])


@pytest.mark.parametrize("name", ["truncated_ihdr", "palette_index", "bad_idat"])
def test_backend_falls_back_on_corrupt_png(name):
    from cloud_crawler_ray.ops.multimodal import DecodeBackend

    be = DecodeBackend()
    if be._Image is not None:  # pragma: no cover - PIL absent here
        pytest.skip("PIL decodes images itself")
    payload = _corrupt_pngs()[name]
    assert be.decode(payload, "image")["backend"] == "fake"
    assert be._png_rgb(payload) is None


def test_resize_area_and_luma_pinned():
    img = _gradient(32, 32)
    small = resize_area(img, 8, 8)
    assert small.shape == (8, 8, 3)
    # box mean computed directly for one cell
    assert small[0, 0, 0] == img[0:4, 0:4, 0].astype(np.int64).mean().astype(int)
    const = np.full((10, 10, 3), 200, np.uint8)
    assert (resize_area(const, 3, 7) == 200).all()
    assert (resize_area(const, 25, 4) == 200).all()  # upscale
    lm = luma(np.full((2, 2, 3), 100, np.uint8))
    assert (lm == (299 * 100 + 587 * 100 + 114 * 100) // 1000).all()


def test_backend_decodes_real_png():
    from cloud_crawler_ray.ops.multimodal import DecodeBackend

    be = DecodeBackend()
    img = _gradient(40, 30)
    payload = encode_png(img)
    f = be.decode(payload, "image")
    if be._Image is not None:  # pragma: no cover - PIL absent here
        assert f["backend"] == "pil"
        return
    assert f["backend"] == "png-stdlib"
    assert (f["width"], f["height"]) == (30, 40)
    means = img.reshape(-1, 3).mean(axis=0)
    assert (f["mean_r"], f["mean_g"], f["mean_b"]) == tuple(int(m) for m in means)
    assert f["n_frames"] == 1
    # non-PNG bytes still fall back to the deterministic fake
    assert be.decode(b"\xff\xd8 jpeg-ish", "image")["backend"] == "fake"
    # luma grid runs real pixels
    grid, backend = be.luma_grid(payload, 8)
    assert backend == "png-stdlib" and grid.shape == (8, 8)
    expect = resize_area(luma(img)[:, :, None], 8, 8)[:, :, 0]
    assert np.array_equal(grid, expect.astype(np.float64))
    # thumbnail emits a real PNG of the resized pixels
    tb, backend = be.thumbnail(payload, 6, 9)
    assert backend == "png-stdlib"
    assert np.array_equal(decode_png(tb), resize_area(img, 6, 9))


def _media_ds(ray_session, payloads: dict[str, bytes]):
    import ray.data as rd

    rows = {
        "media_id": list(payloads),
        "doc_id": [f"d{i}" for i in range(len(payloads))],
        "kind": ["image"] * len(payloads),
        "media_ref": [f"/{m}.png" for m in payloads],
        "payload": list(payloads.values()),
        "content_type": ["image/png"] * len(payloads),
    }
    return rd.from_arrow(
        pa.table(
            rows,
            schema=pa.schema(
                [
                    ("media_id", pa.string()),
                    ("doc_id", pa.string()),
                    ("kind", pa.string()),
                    ("media_ref", pa.string()),
                    ("payload", pa.large_binary()),
                    ("content_type", pa.string()),
                ]
            ),
        )
    )


def test_media_pipeline_real_pixels_end_to_end(ray_session):
    """Real PNG payloads through the actor-pool feature, phash and resize
    stages: backend column says png-stdlib, dims/means/thumbnails match
    direct pixel math, and pHash puts a one-block edit near its original
    and an unrelated image far away."""
    from cloud_crawler_ray.ops.multimodal import (
        extract_media_features, media_phashes, phash64, resize_media,
    )
    from cloud_crawler_ray.ops.png import decode_png as dec

    base = _gradient(64, 48)
    near = base.copy()
    near[:4, :4] = 0  # tiny edit
    rng = np.random.default_rng(11)
    far = rng.integers(0, 256, (64, 48, 3), dtype=np.uint8)
    payloads = {
        "m_base": encode_png(base),
        "m_near": encode_png(near),
        "m_far": encode_png(far, filter_type=2),
        "m_fake": b"not an image at all",
    }
    media = _media_ds(ray_session, payloads)

    feats = {r["media_id"]: r for r in extract_media_features(media).take_all()}
    assert feats["m_base"]["backend"] == "png-stdlib"
    assert (feats["m_base"]["width"], feats["m_base"]["height"]) == (48, 64)
    assert feats["m_fake"]["backend"] == "fake"
    means = base.reshape(-1, 3).mean(axis=0)
    assert feats["m_base"]["mean_r"] == int(means[0])

    hashes = {r["media_id"]: r["phash"] for r in media_phashes(media).take_all()}
    d_near = bin(hashes["m_base"] ^ hashes["m_near"]).count("1")
    d_far = bin(hashes["m_base"] ^ hashes["m_far"]).count("1")
    assert d_near <= 8 < d_far, (d_near, d_far)

    resized = {r["media_id"]: r for r in resize_media(media, max_dim=16).take_all()}
    r = resized["m_base"]
    assert r["backend"] == "png-stdlib"
    got = dec(r["payload"])
    assert got.shape == (16, 12, 3)
    assert np.array_equal(got, resize_area(base, 12, 16))
