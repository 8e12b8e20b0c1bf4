"""Pure-numpy image codec: 8-bit grayscale BMP and PNG, stdlib-only
(zlib for PNG deflate/CRC). This is the REAL decode kernel behind
`multimodal.MediaDecoder` -- the container has no
PIL/cv2, so the engine carries its own minimal codec for the formats
its synthetic media uses; genuinely unsupported formats (JPEG, audio,
video containers) remain the loudly-stubbed boundary.

Both formats are implemented to spec for the grayscale-8 profile:

  * BMP: BITMAPINFOHEADER, 8bpp palette-indexed, 4-byte row padding,
    bottom-up (or top-down via negative height) row order; decode
    applies the palette (identity-gray palettes short-circuit, others
    map through an integer luma).
  * PNG: IHDR/IDAT/IEND chunks with CRC verification, color type 0
    bit depth 8, all five row filters on decode (encode emits filter
    0); inflate via zlib.

No Python-per-pixel loops on the common path: BMP rows and PNG
filter-0/up rows are numpy slices; PNG sub rows use a uint8
add-accumulate (mod-256 wrap is the spec); only the rare
average/paeth rows scan per pixel (their left-neighbor dependency is
inherently sequential).
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

_BMP_PALETTE = bytes(b for i in range(256) for b in (i, i, i, 0))


def encode_bmp_gray8(img: np.ndarray) -> bytes:
    """8-bit grayscale -> BMP bytes (palette-indexed, bottom-up)."""
    img = np.ascontiguousarray(img, dtype=np.uint8)
    h, w = img.shape
    stride = (w + 3) & ~3
    rows = np.zeros((h, stride), dtype=np.uint8)
    rows[:, :w] = img
    pix = rows[::-1].tobytes()                     # bottom-up
    offset = 14 + 40 + len(_BMP_PALETTE)
    header = struct.pack("<2sIHHI", b"BM", offset + len(pix), 0, 0, offset)
    dib = struct.pack("<IiiHHIIiiII", 40, w, h, 1, 8, 0, len(pix),
                      2835, 2835, 256, 0)
    return header + dib + _BMP_PALETTE + pix


def decode_bmp(payload: bytes) -> np.ndarray:
    """BMP bytes -> 8-bit grayscale array (8bpp palette profile)."""
    if payload[:2] != b"BM":
        raise ValueError("not a BMP payload")
    offset = struct.unpack_from("<I", payload, 10)[0]
    hdr_size = struct.unpack_from("<I", payload, 14)[0]
    if hdr_size < 40:
        raise NotImplementedError(f"BMP header size {hdr_size} unsupported")
    w, h = struct.unpack_from("<ii", payload, 18)
    bpp = struct.unpack_from("<H", payload, 28)[0]
    comp = struct.unpack_from("<I", payload, 30)[0]
    if bpp != 8 or comp != 0:
        raise NotImplementedError(
            f"only uncompressed 8bpp BMP decode implemented (got bpp={bpp},"
            f" compression={comp})")
    n_colors = struct.unpack_from("<I", payload, 46)[0] or 256
    pal = np.frombuffer(payload, dtype=np.uint8,
                        count=n_colors * 4, offset=14 + hdr_size)
    pal = pal.reshape(n_colors, 4)[:, :3]          # BGR
    top_down = h < 0
    h = abs(h)
    stride = (w + 3) & ~3
    pix = np.frombuffer(payload, dtype=np.uint8, count=stride * h,
                        offset=offset).reshape(h, stride)[:, :w]
    if not top_down:
        pix = pix[::-1]
    if bool((pal[:, 0] == pal[:, 1]).all() and (pal[:, 1] == pal[:, 2]).all()
            and (pal[:, 0] == np.arange(len(pal))).all()):
        return np.ascontiguousarray(pix)           # identity gray palette
    if int(pix.max(initial=0)) >= len(pal):
        # malformed: pixel indexes past the declared palette — fail
        # with the module's ValueError contract, not a raw IndexError
        raise ValueError(
            f"BMP pixel index {int(pix.max(initial=0))} >= palette "
            f"size {len(pal)}")
    luma = (pal.astype(np.uint32).sum(axis=1) // 3).astype(np.uint8)
    return luma[pix]


def _png_chunk(tag: bytes, data: bytes) -> bytes:
    return (struct.pack(">I", len(data)) + tag + data
            + struct.pack(">I", zlib.crc32(tag + data) & 0xFFFFFFFF))


_PNG_MAGIC = b"\x89PNG\r\n\x1a\n"


def encode_png_gray8(img: np.ndarray) -> bytes:
    """8-bit grayscale -> PNG bytes (color type 0, filter 0 rows)."""
    img = np.ascontiguousarray(img, dtype=np.uint8)
    h, w = img.shape
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 0, 0, 0, 0)
    raw = np.zeros((h, w + 1), dtype=np.uint8)
    raw[:, 1:] = img                               # filter byte 0 per row
    idat = zlib.compress(raw.tobytes(), 6)
    return (_PNG_MAGIC + _png_chunk(b"IHDR", ihdr)
            + _png_chunk(b"IDAT", idat) + _png_chunk(b"IEND", b""))


def decode_png(payload: bytes) -> np.ndarray:
    """PNG bytes -> 8-bit grayscale array (color type 0, bit depth 8;
    all five row filters)."""
    if payload[:8] != _PNG_MAGIC:
        raise ValueError("not a PNG payload")
    pos, w = 8, None
    idat = bytearray()
    while pos < len(payload):
        try:
            ln, tag = struct.unpack_from(">I4s", payload, pos)
            data = payload[pos + 8: pos + 8 + ln]
            crc = struct.unpack_from(">I", payload, pos + 8 + ln)[0]
        except struct.error as e:
            raise ValueError(f"truncated PNG chunk at offset {pos}") from e
        if zlib.crc32(tag + data) & 0xFFFFFFFF != crc:
            raise ValueError(f"PNG chunk {tag!r} CRC mismatch")
        if tag == b"IHDR":
            if len(data) != 13:
                raise ValueError(f"PNG IHDR length {len(data)} != 13")
            w, h, depth, ctype, comp, filt, interlace = \
                struct.unpack(">IIBBBBB", data)
            if (depth, ctype, comp, filt, interlace) != (8, 0, 0, 0, 0):
                raise NotImplementedError(
                    "only non-interlaced 8-bit grayscale PNG decode "
                    f"implemented (depth={depth}, color type={ctype}, "
                    f"interlace={interlace})")
        elif tag == b"IDAT":
            idat += data
        elif tag == b"IEND":
            break
        pos += 12 + ln
    if w is None:
        raise ValueError("PNG missing IHDR")
    try:
        raw = np.frombuffer(zlib.decompress(bytes(idat)), dtype=np.uint8)
    except zlib.error as e:
        raise ValueError("corrupt PNG IDAT stream") from e
    raw = raw.reshape(h, w + 1)
    out = np.zeros((h, w), dtype=np.uint8)
    prev = np.zeros(w, dtype=np.uint8)
    for y in range(h):
        f, row = int(raw[y, 0]), raw[y, 1:].copy()
        if f == 0:
            pass
        elif f == 1:                               # sub: cumsum mod 256
            row = np.add.accumulate(row, dtype=np.uint8)
        elif f == 2:                               # up
            row += prev
        elif f == 3:                               # average
            for x in range(w):
                left = int(row[x - 1]) if x else 0
                row[x] = (int(row[x]) + (left + int(prev[x])) // 2) % 256
        elif f == 4:                               # paeth
            for x in range(w):
                a = int(row[x - 1]) if x else 0
                b, c = int(prev[x]), (int(prev[x - 1]) if x else 0)
                p = a + b - c
                pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                pred = a if (pa <= pb and pa <= pc) else (b if pb <= pc else c)
                row[x] = (int(row[x]) + pred) % 256
        else:
            raise ValueError(f"PNG filter {f} invalid")
        out[y] = prev = row
    return out


def decode_image(payload: bytes) -> np.ndarray:
    """Sniff the magic bytes and decode (BMP or PNG grayscale-8)."""
    if payload[:2] == b"BM":
        return decode_bmp(payload)
    if payload[:8] == _PNG_MAGIC:
        return decode_png(payload)
    raise NotImplementedError(
        "unsupported image format (only BMP/PNG grayscale-8 decode is "
        "implemented; JPEG etc. need a codec library)")
