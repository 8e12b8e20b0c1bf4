"""Multimodal column plumbing: opaque binary payloads + typed metadata,
processed by actor-pool map_batches stages.

ALL THREE decode steps are REAL parsers of public formats: image rows
carry genuine BMP/PNG grayscale-8 payloads decoded by the pure-numpy
codec (`functions/imagecodec.py` -- the container has no PIL/cv2, so
the engine carries its own), audio rows carry genuine RIFF/WAVE PCM16
payloads parsed by `AudioFeatures` (`functions/audiocodec.py`), and
video rows carry genuine Y4M/YUV4MPEG2 payloads parsed by
`VideoFrameFeatures` (`functions/videocodec.py` -- the standard
UNCOMPRESSED interchange container; compressed codecs like H.264 need
an av library and fail loudly at the format check, never a silent
fake).

Schema:  media(media_id:int64, kind:string{image,audio,video},
               payload:binary, width:int32, height:int32, n_frames:int32)

Image pixels are a deterministic SQL-expressible function of the id:
``px[y, x] = (media_id*7 + y*5 + x*3) % 256`` -- so decode -> resize ->
feature values are value-checkable against a DuckDB oracle
(`media_image_features` / `media_image_resized`).

Scale notes: binary payloads dominate bytes, so stages run with SMALL
batch_size (payload bytes, not row count, size the batch) and the
decode pool is an actor pool (codec init once per actor).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data

KINDS = ("image", "audio", "video")
MEDIA_SCHEMA = pa.schema([
    pa.field("media_id", pa.int64()),
    pa.field("kind", pa.string()),
    pa.field("payload", pa.binary()),
    pa.field("width", pa.int32()),
    pa.field("height", pa.int32()),
    pa.field("n_frames", pa.int32()),
])


def synth_image(media_id: int, width: int, height: int) -> np.ndarray:
    """The deterministic pixel grid behind every synthetic image --
    mirrored literally by the SQL oracle."""
    y, x = np.mgrid[0:height, 0:width]
    return ((media_id * 7 + y * 5 + x * 3) % 256).astype(np.uint8)


def synth_video(media_id: int) -> tuple[np.ndarray, int]:
    """The deterministic luma frames behind every synthetic video row
    -- mirrored literally by the SQL oracle:
    ``px[f, y, x] = (media_id*11 + f*13 + y*5 + x*3) % 256`` over
    ``n_frames = media_id % 30 + 1`` frames of a fixed 16x12 grid
    (nominal width/height metadata stay per-row; the payload grid is
    normalized, as a thumbnail/proxy stream would be)."""
    n = media_id % 30 + 1
    f, y, x = np.mgrid[0:n, 0:12, 0:16]
    frames = ((media_id * 11 + f * 13 + y * 5 + x * 3) % 256) \
        .astype(np.uint8)
    return frames, 25


def synth_audio(media_id: int) -> tuple[np.ndarray, int]:
    """The deterministic PCM16 sample train behind every synthetic
    audio row -- mirrored literally by the SQL oracle:
    ``s[i] = (media_id*31 + i*17) % 65536 - 32768`` over
    ``n = media_id % 1500 + 64`` samples at
    ``rate = 8000 + ((media_id // 3) % 3) * 4000``."""
    n = media_id % 1500 + 64
    i = np.arange(n, dtype=np.int64)
    samples = ((media_id * 31 + i * 17) % 65536 - 32768).astype(np.int16)
    rate = 8000 + ((media_id // 3) % 3) * 4000
    return samples, rate


def synth_media_batch(t: pa.Table) -> pa.Table:
    """Deterministic media rows derived from documents. Image rows
    (media_id % 3 == 0) carry REAL encoded BMP/PNG payloads of the
    synth_image grid (alternating by id, exercising both decoders);
    audio rows (media_id % 3 == 1) carry REAL RIFF/WAVE PCM16 payloads
    of the synth_audio train; video rows (media_id % 3 == 2) carry REAL
    Y4M (YUV4MPEG2 Cmono) payloads of the synth_video frames."""
    from .audiocodec import encode_wav_pcm16
    from .imagecodec import encode_bmp_gray8, encode_png_gray8
    from .videocodec import encode_y4m_mono
    ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    widths = (ids % 64 + 8).astype(np.int32)
    heights = (ids % 48 + 8).astype(np.int32)
    kind, payload = [], []
    for i, mid in enumerate(ids):
        k = KINDS[int(mid) % 3]
        kind.append(k)
        if k == "image":
            img = synth_image(int(mid), int(widths[i]), int(heights[i]))
            enc = encode_bmp_gray8 if mid % 6 == 0 else encode_png_gray8
            payload.append(enc(img))
        elif k == "audio":
            payload.append(encode_wav_pcm16(*synth_audio(int(mid))))
        else:
            payload.append(encode_y4m_mono(*synth_video(int(mid))))
    return pa.table({
        "media_id": pa.array(ids, pa.int64()),
        "kind": pa.array(kind, pa.string()),
        "payload": pa.array(payload, pa.binary()),
        "width": pa.array(widths),
        "height": pa.array(heights),
        "n_frames": pa.array((ids % 30 + 1).astype(np.int32)),
    })


def media_dataset(sf_dir: str, kinds: tuple = KINDS) -> ray.data.Dataset:
    from ..sources.tables import read_table
    docs = read_table(sf_dir, "documents", ["doc_id"])
    ds = docs.map_batches(synth_media_batch, batch_format="pyarrow",
                          zero_copy_batch=True)
    if set(kinds) != set(KINDS):
        import pyarrow.compute as pc
        want = list(kinds)
        ds = ds.map_batches(
            lambda t: t.filter(pc.is_in(t["kind"], pa.array(want))),
            batch_format="pyarrow", zero_copy_batch=True)
    return ds


class MediaDecoder:
    """Actor-pool decode/feature-extract stage.

    __init__ (once per actor) binds the engine's pure-numpy BMP/PNG
    codec, which decodes image payloads; audio/video kinds FAIL LOUDLY
    (NotImplementedError) -- their real codecs are their own stages,
    never a silent fake. `self.decoded_batches` proves per-actor
    reuse.
    """

    def __init__(self):
        from .imagecodec import decode_image
        self._decode_image = decode_image          # codec bound once/actor
        self.decoded_batches = 0

    def _decode(self, kind: str, payload: bytes) -> np.ndarray:
        if kind != "image":
            raise NotImplementedError(
                f"MediaDecoder extracts PIXEL features; real {kind} "
                "payloads don't decode to a single pixel grid. Use "
                "the kind's own real codec stage (AudioFeatures / "
                "VideoFrameFeatures) -- filter to kind == 'image' here")
        return self._decode_image(payload)

    def __call__(self, batch: pa.Table) -> pa.Table:
        self.decoded_batches += 1
        ids = batch["media_id"].to_numpy(zero_copy_only=False)
        widths = batch["width"].to_numpy(zero_copy_only=False)
        heights = batch["height"].to_numpy(zero_copy_only=False)
        kinds = batch["kind"].to_pylist()
        payloads = batch["payload"].to_pylist()
        n = len(ids)
        means = np.empty(n, dtype=np.float64)
        stds = np.empty(n, dtype=np.float64)
        n_bytes = np.empty(n, dtype=np.int64)
        n_px = np.empty(n, dtype=np.int64)
        psum = np.empty(n, dtype=np.int64)
        pmin = np.empty(n, dtype=np.int64)
        pmax = np.empty(n, dtype=np.int64)
        for i, p in enumerate(payloads):   # per-item decode is inherent;
            img = self._decode(kinds[i], p)
            means[i] = float(img.mean())   # the kernel itself is numpy
            stds[i] = float(img.std())
            n_bytes[i] = len(p)
            n_px[i] = img.size
            psum[i] = int(img.sum(dtype=np.int64))
            pmin[i] = int(img.min())
            pmax[i] = int(img.max())
        return pa.table({
            "media_id": batch["media_id"],
            "kind": batch["kind"],
            "width": pa.array(widths.astype(np.int64)),
            "height": pa.array(heights.astype(np.int64)),
            "n_bytes": pa.array(n_bytes),
            "n_px": pa.array(n_px),
            "pixel_sum": pa.array(psum),
            "pixel_min": pa.array(pmin),
            "pixel_max": pa.array(pmax),
            "feat_mean": pa.array(np.round(means, 6)),
            "feat_std": pa.array(np.round(stds, 6)),
        })


class MediaResizer(MediaDecoder):
    """Actor-pool resize stage: decode -> nearest-neighbor resample to
    a fixed target grid -> re-emit as a binary column (the standard
    normalize-dimensions step before batched model inference). Reuses
    the decoder lifecycle (codec bound once per actor, same loud-fail
    guard for non-image kinds); the resample
    itself is one vectorized fancy-index per item, no Python pixel
    loops. Output payloads are target_w*target_h bytes, so downstream
    batches are uniformly sized -- the property batched inference
    needs."""

    def __init__(self, target_w: int = 16, target_h: int = 12):
        super().__init__()
        self.tw, self.th = int(target_w), int(target_h)

    def __call__(self, batch: pa.Table) -> pa.Table:
        self.decoded_batches += 1
        kinds = batch["kind"].to_pylist()
        payloads = batch["payload"].to_pylist()
        out = []
        checks = np.empty(len(payloads), dtype=np.int64)
        for i, p in enumerate(payloads):
            img = self._decode(kinds[i], p)
            # nearest-neighbor index grids (vectorized resample)
            yi = (np.arange(self.th) * img.shape[0]) // self.th
            xi = (np.arange(self.tw) * img.shape[1]) // self.tw
            r = img[np.ix_(yi, xi)]
            out.append(r.tobytes())
            checks[i] = int(r.sum(dtype=np.int64))
        return pa.table({
            "media_id": batch["media_id"],
            "kind": batch["kind"],
            "payload": pa.array(out, pa.binary()),
            "width": pa.array(np.full(len(out), self.tw, dtype=np.int32)),
            "height": pa.array(np.full(len(out), self.th, dtype=np.int32)),
            "pixel_sum": pa.array(checks),
        })


def media_image_features(sf_dir: str) -> ray.data.Dataset:
    """REAL-codec image pipeline: BMP/PNG payloads decode through the
    pure-numpy codec and emit integer pixel stats -- value-checkable in
    SQL because the pixel grid is (id*7 + y*5 + x*3) % 256."""
    media = media_dataset(sf_dir, kinds=("image",))
    feats = media.map_batches(
        MediaDecoder, batch_format="pyarrow", batch_size=512,
        concurrency=2, zero_copy_batch=True)
    return feats.select_columns(["media_id", "width", "height", "n_px",
                                 "pixel_sum", "pixel_min", "pixel_max"]) \
        .sort("media_id")


def media_image_resized(sf_dir: str, target_w: int = 16,
                        target_h: int = 12) -> ray.data.Dataset:
    """REAL-codec decode -> nearest-neighbor resize; the resized pixel
    sum is SQL-expressible ((ty*h)//th, (tx*w)//tw index math on the
    synthetic grid), so the whole decode->resize path is value-gated."""
    media = media_dataset(sf_dir, kinds=("image",))
    res = media.map_batches(
        MediaResizer, batch_format="pyarrow", batch_size=512,
        concurrency=2, zero_copy_batch=True,
        fn_constructor_kwargs=dict(target_w=target_w, target_h=target_h))
    return res.map_batches(
        lambda t: pa.table({
            "media_id": t["media_id"],
            "width": pa.compute.cast(t["width"], pa.int64()),
            "height": pa.compute.cast(t["height"], pa.int64()),
            "pixel_sum": t["pixel_sum"]}),
        batch_format="pyarrow", zero_copy_batch=True).sort("media_id")


class AudioFeatures:
    """Actor-pool REAL audio decode stage: RIFF/WAVE PCM16 payloads
    parse through the engine's pure-stdlib codec (`audiocodec.py`) and
    emit integer-exact sample stats -- value-checkable in SQL because
    the sample train is (id*31 + i*17) % 65536 - 32768. Codec bound
    once per actor; per-row decode is inherent (variable-length
    payloads), the stats kernels are numpy."""

    def __init__(self):
        from .audiocodec import decode_wav
        self._decode = decode_wav
        self.decoded_batches = 0

    def __call__(self, batch: pa.Table) -> pa.Table:
        self.decoded_batches += 1
        payloads = batch["payload"].to_pylist()
        n = len(payloads)
        n_samples = np.empty(n, dtype=np.int64)
        rates = np.empty(n, dtype=np.int64)
        peak = np.empty(n, dtype=np.int64)
        sum_abs = np.empty(n, dtype=np.int64)
        first = np.empty(n, dtype=np.int64)
        last = np.empty(n, dtype=np.int64)
        frames = np.empty(n, dtype=np.int64)
        for i, p in enumerate(payloads):
            s, rate = self._decode(p)
            frames[i] = s.shape[0]   # per-channel frame count
            if s.ndim > 1:           # multi-channel: stats over ALL
                s = s.reshape(-1)    # samples, interleaved frame order
            a = np.abs(s.astype(np.int64))
            n_samples[i] = len(s)
            rates[i] = rate
            peak[i] = int(a.max()) if len(s) else 0
            sum_abs[i] = int(a.sum())
            first[i] = int(s[0]) if len(s) else 0
            last[i] = int(s[-1]) if len(s) else 0
        return pa.table({
            "media_id": batch["media_id"],
            "n_samples": pa.array(n_samples),
            "sample_rate": pa.array(rates),
            "duration_us": pa.array(frames * 1_000_000 // rates),
            "peak_abs": pa.array(peak),
            "sum_abs": pa.array(sum_abs),
            "first_sample": pa.array(first),
            "last_sample": pa.array(last),
        })


def media_audio_features(sf_dir: str) -> ray.data.Dataset:
    """REAL-codec audio pipeline: WAV/PCM16 payloads decode through the
    pure-stdlib RIFF parser and emit integer sample stats (SQL oracle
    regenerates the deterministic sample train with generate_series)."""
    media = media_dataset(sf_dir, kinds=("audio",))
    feats = media.map_batches(
        AudioFeatures, batch_format="pyarrow", batch_size=512,
        concurrency=2, zero_copy_batch=True)
    return feats.sort("media_id")


class VideoFrameFeatures:
    """Actor-pool REAL video decode stage: Y4M payloads parse through
    the engine's pure-numpy container parser (`videocodec.py`), frames
    are SAMPLED (every k-th — the standard proxy/keyframe pattern) and
    each sampled frame emits integer-exact luma stats (flat_map shape:
    one output row per sampled frame)."""

    def __init__(self, every_k: int = 5):
        from .videocodec import decode_y4m
        self._decode = decode_y4m
        self.k = int(every_k)
        self.decoded_batches = 0

    def __call__(self, batch: pa.Table) -> pa.Table:
        self.decoded_batches += 1
        ids = batch["media_id"].to_numpy(zero_copy_only=False)
        payloads = batch["payload"].to_pylist()
        mid_out, fidx, nfr, fsum, fmin, fmax = [], [], [], [], [], []
        for i, p in enumerate(payloads):
            frames, _fps = self._decode(p)
            n = frames.shape[0]
            sampled = frames[::self.k]              # numpy slice, no copy
            s = sampled.reshape(sampled.shape[0], -1).astype(np.int64)
            mid_out.append(np.full(len(sampled), ids[i], np.int64))
            fidx.append(np.arange(len(sampled), dtype=np.int64) * self.k)
            nfr.append(np.full(len(sampled), n, np.int64))
            fsum.append(s.sum(axis=1))
            fmin.append(s.min(axis=1))
            fmax.append(s.max(axis=1))
        cat = (lambda xs: np.concatenate(xs) if xs
               else np.array([], np.int64))
        return pa.table({
            "media_id": pa.array(cat(mid_out)),
            "frame_idx": pa.array(cat(fidx)),
            "n_frames": pa.array(cat(nfr)),
            "frame_sum": pa.array(cat(fsum)),
            "frame_min": pa.array(cat(fmin)),
            "frame_max": pa.array(cat(fmax)),
        })


def media_video_frame_features(sf_dir: str) -> ray.data.Dataset:
    """REAL-codec video pipeline: Y4M payloads decode through the
    pure-numpy container parser, every 5th frame emits luma stats (SQL
    oracle regenerates the deterministic frame grid with range joins)."""
    media = media_dataset(sf_dir, kinds=("video",))
    feats = media.map_batches(
        VideoFrameFeatures, batch_format="pyarrow", batch_size=256,
        concurrency=2, zero_copy_batch=True)
    return feats.sort(["media_id", "frame_idx"])


def frame_sample_batch(t: pa.Table, every_k: int = 5) -> pa.Table:
    """Video frame sampling: one output row per sampled frame index
    (flat_map shape, vectorized via repeat/arange)."""
    vids = t.filter(pa.compute.equal(t["kind"], "video"))
    ids = vids["media_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    nf = vids["n_frames"].to_numpy(zero_copy_only=False).astype(np.int64)
    counts = (nf + every_k - 1) // every_k
    rep_ids = np.repeat(ids, counts)
    frame_idx = (np.concatenate([np.arange(c) for c in counts]) * every_k
                 if len(counts) else np.array([], dtype=np.int64))
    return pa.table({"media_id": pa.array(rep_ids, pa.int64()),
                     "frame_idx": pa.array(frame_idx.astype(np.int64))})


def video_frame_samples(sf_dir: str) -> ray.data.Dataset:
    media = media_dataset(sf_dir)
    return media.map_batches(frame_sample_batch, batch_format="pyarrow",
                             zero_copy_batch=True).sort(["media_id", "frame_idx"])
