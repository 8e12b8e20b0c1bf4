"""Tests for the training-data function layer: dedup sketches, text
stats, similarity search, multimodal plumbing. Controlled fixtures are
written as tmp parquet 'sf dirs' so every op runs through its real
Ray path."""

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from techtalk_data_pipeline_snowpark_ray.functions import (
    dedup, multimodal, similarity, textstats)

SF_TINY = "/root/testdata/sf0.001"


# -- fixtures --------------------------------------------------------------

def make_doc_dir(tmp_path, texts):
    d = tmp_path / "sf"
    d.mkdir(exist_ok=True)
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(["xx"] * len(texts)),
        "source": pa.array(["t"] * len(texts)),
        "n_chars": pa.array([len(t) if t is not None else 0
                             for t in texts], pa.int64()),
    }), d / "documents.parquet")
    return str(d)


def make_emb_dir(tmp_path, X, seed_labels=None):
    d = tmp_path / "sfe"
    d.mkdir(exist_ok=True)
    pq.write_table(pa.table({
        "vec_id": pa.array(range(len(X)), pa.int64()),
        "embedding": pa.array([list(map(float, r)) for r in X],
                              pa.list_(pa.float32())),
        "label": pa.array([0] * len(X), pa.int32()),
    }), d / "embeddings.parquet")
    return str(d)


# -- language id -----------------------------------------------------------

def test_lang_id_heuristic(tmp_path):
    texts = [
        "the cat sat on the mat and it was happy for a while",
        "le chat est dans la maison et les enfants sont dans le jardin",
        "el perro y los gatos son una familia que vive en la casa",
        "der hund und die katze sind ein team und das ist gut",
        "这是一个中文文档的例子 包含很多汉字内容 用于测试语言识别",
    ]
    out = textstats.lang_id(make_doc_dir(tmp_path, texts)).to_pandas() \
        .sort_values("doc_id")
    assert list(out["lang_pred"]) == ["en", "fr", "es", "de", "zh"]


# -- fingerprints ----------------------------------------------------------

def test_fingerprint_deterministic_and_distinct():
    s = pd.Series(["alpha beta", "alpha beta", "gamma delta", None])
    a = textstats.fingerprint_series(s)
    b = textstats.fingerprint_series(s)
    assert (a == b).all()
    assert a[0] == a[1] and a[0] != a[2]
    assert (a >= 0).all()          # int64-safe


def test_doc_fingerprint_dataset():
    out = textstats.doc_fingerprint(SF_TINY).to_pandas()
    assert len(out) == 500 and out["fp"].nunique() > 490


# -- minhash / jaccard -----------------------------------------------------

def _brute_pairs(texts, threshold):
    def sh(t):
        w = t.split()
        return set(" ".join(w[i:i + dedup.NGRAM]) for i in range(max(len(w) - dedup.NGRAM + 1, 1)))
    sets = [sh(t) for t in texts]
    out = set()
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            jac = len(sets[i] & sets[j]) / len(sets[i] | sets[j])
            if jac >= threshold:
                out.add((i, j))
    return out


def test_minhash_finds_planted_near_dups(tmp_path):
    rng = np.random.default_rng(5)
    vocab = [f"w{i}" for i in range(500)]
    texts = [" ".join(rng.choice(vocab, 40)) for _ in range(60)]
    # plant near-dups: copy with one word changed
    for i in range(5):
        words = texts[i].split()
        words[3] = "CHANGED"
        texts.append(" ".join(words))
    sf = make_doc_dir(tmp_path, texts)
    found = dedup.minhash_near_dup(sf)
    got = set(map(tuple, found[["id_a", "id_b"]].to_numpy()))
    want = _brute_pairs(texts, dedup.JACCARD_THRESHOLD)
    assert want, "fixture must contain near-dups"
    # verified candidates are exact-Jaccard filtered -> precision 1.0
    assert got.issubset(want | got) and all(p in want for p in got)
    # banded LSH at these params catches >=0.5-Jaccard pairs w.h.p.
    assert len(got & want) / len(want) >= 0.9


def test_minhash_on_real_documents_matches_brute():
    found = dedup.minhash_near_dup(SF_TINY)
    assert len(found) > 0            # the corpus has genuine near-dups
    # every reported pair is a true >=0.5-Jaccard pair by construction
    # (exact verification stage); spot-check one pair end-to-end
    docs = pq.read_table(f"{SF_TINY}/documents.parquet").to_pandas() \
        .set_index("doc_id")["text"]
    a, b = found.iloc[0][["id_a", "id_b"]]
    pairs = _brute_pairs([docs[a], docs[b]], dedup.JACCARD_THRESHOLD)
    assert (0, 1) in pairs


def test_exact_dedup_planted(tmp_path):
    texts = ["aaa bbb", "ccc ddd", "aaa bbb", "eee fff", "aaa bbb"]
    sf = make_doc_dir(tmp_path, texts)
    out = dedup.exact_dedup_documents(sf).to_pandas()
    assert len(out) == 3
    rep = out[out["doc_id"] == 0].iloc[0]
    assert rep["n_copies"] == 3


def test_simhash_near_dups_have_small_hamming(tmp_path):
    rng = np.random.default_rng(6)
    vocab = [f"w{i}" for i in range(300)]
    base = " ".join(rng.choice(vocab, 60))
    near = base.replace("w1 ", "w2 ") if "w1 " in base else base + " extra"
    far = " ".join(rng.choice(vocab, 60))
    sf = make_doc_dir(tmp_path, [base, near, far])
    out = dedup.simhash_documents(sf).to_pandas().sort_values("doc_id")
    h = out["simhash"].to_numpy().astype(np.uint64)
    d_near = bin(int(h[0] ^ h[1])).count("1")
    d_far = bin(int(h[0] ^ h[2])).count("1")
    assert d_near < d_far


# -- similarity ------------------------------------------------------------

def test_ann_brute_matches_numpy_oracle():
    got = similarity.ann_topk_cosine(SF_TINY)
    emb = pq.read_table(f"{SF_TINY}/embeddings.parquet").to_pandas()
    X = np.stack(emb["embedding"].to_numpy()).astype(np.float64)
    ids = emb["vec_id"].to_numpy()
    Q, C = X[ids < 5], X[ids >= 5]
    qids, cids = ids[ids < 5], ids[ids >= 5]
    S = np.round((C / np.linalg.norm(C, axis=1, keepdims=True))
                 @ (Q / np.linalg.norm(Q, axis=1, keepdims=True)).T, 6)
    want = []
    for j, qid in enumerate(qids):
        order = np.lexsort((cids, -S[:, j]))[:similarity.TOP_K]
        want += [(qid, cids[o]) for o in order]
    assert set(map(tuple, got.to_numpy())) == set(want)


def test_ann_lsh_subset_and_deterministic():
    a = similarity.ann_topk_lsh(SF_TINY)
    b = similarity.ann_topk_lsh(SF_TINY)
    pd.testing.assert_frame_equal(a, b)
    assert (a.groupby("query_id").size() <= similarity.TOP_K).all()
    brute = similarity.ann_topk_cosine(SF_TINY)
    recall = len(set(map(tuple, a.to_numpy())) & set(map(tuple, brute.to_numpy()))) \
        / len(brute)
    assert recall > 0.1            # approximate, but not garbage


def test_embedding_near_dup_planted(tmp_path):
    rng = np.random.default_rng(7)
    X = rng.standard_normal((40, 16)).astype(np.float32)
    X[30] = X[0] + rng.standard_normal(16).astype(np.float32) * 0.01  # near-dup
    sf = make_emb_dir(tmp_path, X)
    out = similarity.embedding_near_dup(sf, threshold=0.95, modulus=10)
    assert (0, 30) in set(map(tuple, out.to_numpy()))


# -- multimodal ------------------------------------------------------------

def test_multimodal_real_codec_images_and_loud_stub():
    """The real codec decodes image payloads (pure-numpy BMP/PNG) and
    fails LOUDLY on audio/video kinds -- both for the decoder and the
    resizer (the shared _decode guard: no silent fake-as-real)."""
    media = multimodal.media_dataset(SF_TINY).to_pandas()
    img_row = media[media["kind"] == "image"].iloc[0]
    aud = media[media["kind"] == "audio"].head(1)
    img_tbl = pa.Table.from_pandas(
        media[media["kind"] == "image"].head(3), preserve_index=False)
    aud_tbl = pa.Table.from_pandas(aud, preserve_index=False)
    dec = multimodal.MediaDecoder()
    feats = dec(img_tbl).to_pandas()
    mid, w, h = (int(img_row["media_id"]), int(img_row["width"]),
                 int(img_row["height"]))
    want = multimodal.synth_image(mid, w, h)
    r = feats[feats["media_id"] == mid].iloc[0]
    assert r["pixel_sum"] == int(want.sum(dtype=np.int64))
    assert r["n_px"] == want.size
    with pytest.raises(NotImplementedError, match="codec"):
        dec(aud_tbl)
    with pytest.raises(NotImplementedError, match="codec"):
        multimodal.MediaResizer()(aud_tbl)


def test_imagecodec_roundtrip_and_all_png_filters():
    import struct
    import zlib

    from techtalk_data_pipeline_snowpark_ray.functions import imagecodec as ic
    rng = np.random.default_rng(3)
    img = rng.integers(0, 256, size=(23, 17), dtype=np.uint8)
    assert (ic.decode_bmp(ic.encode_bmp_gray8(img)) == img).all()
    assert (ic.decode_png(ic.encode_png_gray8(img)) == img).all()
    assert (ic.decode_image(ic.encode_bmp_gray8(img)) == img).all()
    with pytest.raises(NotImplementedError, match="JPEG"):
        ic.decode_image(b"\xff\xd8\xff\xe0 fake jpeg")
    # hand-filter a PNG with every filter type; decode must invert all
    h, w = img.shape
    raw = np.zeros((h, w + 1), dtype=np.uint8)
    prev = np.zeros(w, dtype=np.int64)
    for y in range(h):
        f = y % 5
        raw[y, 0] = f
        cur = img[y].astype(np.int64)
        if f == 0:
            enc = cur
        elif f == 1:
            enc = cur.copy()
            enc[1:] = (cur[1:] - cur[:-1]) % 256
        elif f == 2:
            enc = (cur - prev) % 256
        elif f == 3:
            enc = np.empty(w, np.int64)
            for x in range(w):
                left = cur[x - 1] if x else 0
                enc[x] = (cur[x] - (left + prev[x]) // 2) % 256
        else:
            enc = np.empty(w, np.int64)
            for x in range(w):
                a = cur[x - 1] if x else 0
                b, c = prev[x], (prev[x - 1] if x else 0)
                p = a + b - c
                pa_, pb, pc_ = abs(p - a), abs(p - b), abs(p - c)
                pred = a if (pa_ <= pb and pa_ <= pc_) else \
                    (b if pb <= pc_ else c)
                enc[x] = (cur[x] - pred) % 256
        raw[y, 1:] = enc.astype(np.uint8)
        prev = cur
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 0, 0, 0, 0)
    png = (ic._PNG_MAGIC + ic._png_chunk(b"IHDR", ihdr)
           + ic._png_chunk(b"IDAT", zlib.compress(raw.tobytes()))
           + ic._png_chunk(b"IEND", b""))
    assert (ic.decode_png(png) == img).all()


def test_media_image_features_match_grid():
    """Real-codec pipeline end-to-end: every image's decoded stats must
    equal the synthetic grid's (both BMP and PNG ids)."""
    out = multimodal.media_image_features(SF_TINY).to_pandas()
    assert len(out) > 0
    for _, r in out.head(8).iterrows():
        want = multimodal.synth_image(int(r["media_id"]),
                                      int(r["width"]), int(r["height"]))
        assert r["pixel_sum"] == int(want.sum(dtype=np.int64))
        assert r["pixel_min"] == int(want.min())
        assert r["pixel_max"] == int(want.max())


def test_video_frame_sampling_counts():
    out = multimodal.video_frame_samples(SF_TINY).to_pandas()
    media = multimodal.media_dataset(SF_TINY).to_pandas()
    vids = media[media["kind"] == "video"]
    want = int(((vids["n_frames"] + 4) // 5).sum())
    assert len(out) == want
    assert (out["frame_idx"] % 5 == 0).all()


# -- join strategy chooser -------------------------------------------------

def test_auto_join_partitioned_path_equals_broadcast():
    import ray.data
    from techtalk_data_pipeline_snowpark_ray.stages.joins import (
        auto_join, broadcast_join)
    import pandas as pd
    left = ray.data.from_pandas(pd.DataFrame(
        {"k": list(range(500)) * 2, "v": range(1000)}))
    right = ray.data.from_pandas(pd.DataFrame(
        {"rk": range(500), "w": [i * 10 for i in range(500)]}))
    a = auto_join(left, right, on="k", right_on="rk",
                  broadcast_threshold_bytes=0,       # force partitioned
                  num_partitions=4).to_pandas()
    b = broadcast_join(left, right.to_pandas(), on="k",
                       right_on="rk").to_pandas()
    cols = sorted(set(a.columns) & set(b.columns))
    a2 = a[cols].sort_values(cols, ignore_index=True)
    b2 = b[cols].sort_values(cols, ignore_index=True)
    pd.testing.assert_frame_equal(a2, b2, check_dtype=False)


def test_auto_join_left_both_paths():
    """how='left' keeps unmatched left rows on BOTH strategies (the
    partitioned path must translate to Dataset.join's 'left_outer')."""
    import ray.data
    from techtalk_data_pipeline_snowpark_ray.stages.joins import auto_join
    import pandas as pd
    left = ray.data.from_pandas(pd.DataFrame(
        {"k": list(range(600)), "v": range(600)}))
    right = ray.data.from_pandas(pd.DataFrame(
        {"rk": range(0, 600, 2), "w": range(300)}))   # evens only
    for thresh, nparts in [(1 << 30, 4), (0, 4)]:     # broadcast, partitioned
        out = auto_join(left, right, on="k", right_on="rk", how="left",
                        broadcast_threshold_bytes=thresh,
                        num_partitions=nparts).to_pandas()
        assert len(out) == 600
        matched = out["w"].notna()
        assert matched.sum() == 300
        assert (out.loc[matched, "k"] % 2 == 0).all()


def test_broadcast_join_null_keys_sql_semantics():
    """Null join keys never match, on the acero fast path AND on the
    pandas fallback (pandas merge would match NaN==NaN, silently
    diverging from SQL / the oracles on whichever batches fall back)."""
    import ray.data
    from techtalk_data_pipeline_snowpark_ray.stages.joins import broadcast_join
    left = ray.data.from_pandas(pd.DataFrame(
        {"k": ["a", None, "b", None], "v": [1, 2, 3, 4]}))
    right = pd.DataFrame({"k": ["a", None], "w": [10, 20]})
    inner = broadcast_join(left, right, on="k").to_pandas()
    assert inner["v"].tolist() == [1]                 # null never matches
    lt = broadcast_join(left, right, on="k", how="left").to_pandas()
    assert len(lt) == 4
    assert lt.loc[lt["k"].isna(), "w"].isna().all()   # null-extended only
    # full-pandas fallback path (right table arrow conversion fails):
    # same null-key semantics as the acero path
    right_obj = pd.DataFrame({"k": ["a", None], "w": [10, 20],
                              "blob": [{1}, {2}]})    # sets defeat Arrow
    inner2 = broadcast_join(left, right_obj, on="k").to_pandas()
    assert inner2["v"].tolist() == [1]


def test_broadcast_semi_join_null_keys_and_loud_cast_failure():
    """Membership-filter null semantics (null keys in the SET are
    dropped — SQL IN; a null ROW value matches nothing, so semi drops
    it and anti keeps it), and an un-castable key set fails loudly
    instead of silently matching nothing."""
    import ray.data
    from techtalk_data_pipeline_snowpark_ray.stages import joins
    left = ray.data.from_arrow(pa.table(
        {"k": pa.array([1, 2, None], pa.int64()), "v": [10, 20, 30]}))
    out = joins.broadcast_semi_join(left, {1, None}, on="k").to_pandas()
    assert out["v"].tolist() == [10]
    anti = joins.broadcast_semi_join(left, {1, None}, on="k",
                                     anti=True).to_pandas()
    assert sorted(anti["v"].tolist()) == [20, 30]
    import ray.exceptions
    # string keys vs an int column: cross-family, loud
    with pytest.raises(ray.exceptions.RayTaskError, match="type famil"):
        joins.broadcast_semi_join(left, {"x"}, on="k").to_pandas()
    # same family but value-lossy cast (1.5 -> int64): loud too
    with pytest.raises(ray.exceptions.RayTaskError, match="not castable"):
        joins.broadcast_semi_join(left, {1.5}, on="k").to_pandas()
    # float NaN in the key set (what auto_semi_join's to_pandas_refs
    # materialization produces for a nullable-int right key column) is
    # a null-like too: dropped like None, never a TypeError
    nan = joins.broadcast_semi_join(left, {1.0, float("nan")},
                                    on="k").to_pandas()
    assert nan["v"].tolist() == [10]


def test_auto_semi_join_nullable_int_right_key():
    """End-to-end: a right side whose int key column contains a null
    (pandas materialization turns it into float64-with-NaN) must behave
    as SQL IN — null matches nothing — not crash in the value-set cast."""
    import ray.data
    from techtalk_data_pipeline_snowpark_ray.stages import joins
    left = ray.data.from_arrow(pa.table(
        {"k": pa.array([1, 2, 3, None], pa.int64()), "v": [10, 20, 30, 40]}))
    right = ray.data.from_arrow(pa.table(
        {"k": pa.array([1, 3, None], pa.int64())}))
    semi = joins.auto_semi_join(left, right, on="k").to_pandas()
    assert sorted(semi["v"].tolist()) == [10, 30]
    anti = joins.auto_semi_join(left, right, on="k", anti=True).to_pandas()
    assert sorted(anti["v"].tolist()) == [20, 40]


def test_bloom_semi_join_string_keys():
    """The Bloom path must support string keys (auto_semi_join routes
    ANY key set past the threshold to it — behavior used to flip from
    correct to crashed purely on data volume). String keys probe via
    the frozen sampled hash; the exact pass compares real values."""
    import ray.data
    from techtalk_data_pipeline_snowpark_ray.stages.joins import (
        bloom_semi_join)
    left = ray.data.from_arrow(pa.table({
        "k": pa.array(["a", "b", "c", None, "d"], pa.string()),
        "v": pa.array([1, 2, 3, 4, 5], pa.int64())}))
    right = ray.data.from_arrow(pa.table(
        {"rk": pa.array(["a", "c", None], pa.string())}))
    semi = bloom_semi_join(left, right, on="k", right_on="rk").to_pandas()
    assert sorted(semi["v"].tolist()) == [1, 3]
    anti = bloom_semi_join(left, right, on="k", right_on="rk",
                           anti=True).to_pandas()
    # null left key matches nothing -> kept by anti (SQL IN semantics)
    assert sorted(anti["v"].tolist()) == [2, 4, 5]


def test_bloom_semi_join_preserves_int64_payload_exactly():
    """Left payload columns must survive the exchange bit-exact: a
    nullable int64 payload (pandas float64 round-trips used to raise
    IntCastingNaNError) and values > 2^53 (float64 silently rounds
    them) both pass through the Arrow-native path unchanged."""
    import ray.data
    from techtalk_data_pipeline_snowpark_ray.stages.joins import (
        bloom_semi_join)
    big = (1 << 60) + 1
    left = ray.data.from_arrow(pa.table({
        "k": pa.array([1, 2, 3, 4], pa.int64()),
        "pay": pa.array([big, None, 7, big - 2], pa.int64())}))
    right = ray.data.from_arrow(pa.table(
        {"k": pa.array([1, 2, 4], pa.int64())}))
    out = bloom_semi_join(left, right, on="k").to_arrow_refs()
    import ray as _ray
    tbl = pa.concat_tables([t for t in _ray.get(out) if t.num_rows],
                           promote_options="default")
    got = dict(zip(tbl["k"].to_pylist(), tbl["pay"].to_pylist()))
    assert got == {1: big, 2: None, 4: big - 2}
    assert tbl.schema.field("pay").type == pa.int64()


def test_bloom_semi_join_rejects_bad_key_types():
    import pytest
    import ray.data
    import ray.exceptions
    from techtalk_data_pipeline_snowpark_ray.stages.joins import (
        bloom_semi_join)
    ints = ray.data.from_arrow(pa.table(
        {"k": pa.array([1, 2], pa.int64()), "v": [1, 2]}))
    strs = ray.data.from_arrow(pa.table(
        {"k": pa.array(["a", "b"], pa.string())}))
    with pytest.raises(TypeError, match="type famil"):
        bloom_semi_join(ints, strs, on="k")
    floats = ray.data.from_arrow(pa.table(
        {"k": pa.array([1.5, 2.5], pa.float64()), "v": [1, 2]}))
    fright = ray.data.from_arrow(pa.table(
        {"k": pa.array([1.5], pa.float64())}))
    with pytest.raises((TypeError, ray.exceptions.RayTaskError),
                       match="unsupported key type"):
        bloom_semi_join(floats, fright, on="k").to_pandas()


def test_bloom_semi_join_drops_right_keys_outside_left_type():
    """An int64 right key beyond the int32 left key's range can never
    match: it is dropped instead of failing the cast (and the join)."""
    import ray.data
    from techtalk_data_pipeline_snowpark_ray.stages.joins import (
        bloom_semi_join)
    left = ray.data.from_arrow(pa.table({
        "k": pa.array([1, 2, 3], pa.int32()),
        "v": pa.array([10, 20, 30], pa.int64())}))
    right = ray.data.from_arrow(pa.table(
        {"k": pa.array([2, 2 ** 40], pa.int64())}))
    semi = bloom_semi_join(left, right, on="k").to_pandas()
    assert semi["k"].tolist() == [2] and semi["v"].tolist() == [20]
    anti = bloom_semi_join(left, right, on="k", anti=True).to_pandas()
    assert sorted(anti["k"].tolist()) == [1, 3]


def test_exchange_all_empty_input_unions_cleanly():
    """An exchange whose every partition is input-empty returns a
    schema-less empty dataset — NOT one carrying the exchange INPUT
    schema (part column included, reduce-output columns absent), which
    would poison a downstream union (the bloom anti-join shape)."""
    import ray.data
    from techtalk_data_pipeline_snowpark_ray.stages.exchange import (
        exchange_map_groups)
    from techtalk_data_pipeline_snowpark_ray.stages.joins import (
        bloom_semi_join)
    empty = ray.data.from_pandas(pd.DataFrame(
        {"k": pd.Series(dtype="int64"), "_part": pd.Series(dtype="int64")}))
    out = exchange_map_groups(empty, "_part", 4,
                              lambda g: g.assign(extra=1))
    assert out.count() == 0
    typed = ray.data.from_items([{"k": 1, "v": 2}])
    assert typed.union(out).take_all() == [{"k": 1, "v": 2}]
    # end-to-end shape that hit this: anti join against an EMPTY right
    left = ray.data.from_pandas(pd.DataFrame(
        {"k": np.arange(10, dtype=np.int64), "v": np.arange(10)}))
    right = ray.data.from_pandas(pd.DataFrame(
        {"rk": pd.Series(dtype="int64")}))
    got = bloom_semi_join(left, right, on="k", right_on="rk",
                          anti=True).to_pandas()
    assert sorted(got["v"].tolist()) == list(range(10))


def test_customer_event_counts_left_semantics():
    """Segment totals must count zero-event customers (LEFT join)."""
    from techtalk_data_pipeline_snowpark_ray.pipelines import analytics
    out = analytics.customer_event_counts(SF_TINY)
    cust = pd.read_parquet(os.path.join(SF_TINY, "customer.parquet"),
                           columns=["c_custkey", "c_mktsegment"])
    ev = pd.read_parquet(os.path.join(SF_TINY, "events.parquet"),
                         columns=["user_id"])
    active = set(ev["user_id"].unique())
    want_total = cust.groupby("c_mktsegment").size()
    want_zero = cust[~cust["c_custkey"].isin(active)] \
        .groupby("c_mktsegment").size()
    for _, r in out.iterrows():
        assert r["n_customers"] == want_total.get(r["c_mktsegment"], 0)
        assert r["n_zero_event"] == want_zero.get(r["c_mktsegment"], 0)
    assert out["n_customers"].sum() == len(cust)


def test_bloom_filter_and_bloom_semi_join():
    import ray.data
    from techtalk_data_pipeline_snowpark_ray.stages.joins import (
        BloomFilter, bloom_semi_join, broadcast_semi_join)
    rng = np.random.default_rng(11)
    keys = rng.choice(100_000, size=5_000, replace=False).astype(np.int64)
    bf = BloomFilter.sized_for(len(keys))
    bf.add(keys)
    assert bf.might_contain(keys).all()          # no false negatives
    probe = rng.integers(200_000, 400_000, size=20_000).astype(np.int64)
    fp = bf.might_contain(probe).mean()
    assert fp < 0.05                              # ~1% expected at 10 bits/key
    # exact semi-join equality vs the frozenset path
    left = ray.data.from_pandas(pd.DataFrame({
        "k": rng.integers(0, 100_000, size=30_000).astype(np.int64),
        "v": np.arange(30_000)}))
    right = ray.data.from_pandas(pd.DataFrame({"rk": keys}))
    a = bloom_semi_join(left, right, on="k", right_on="rk").to_pandas()
    b = broadcast_semi_join(left, set(keys.tolist()), on="k").to_pandas()
    cols = ["k", "v"]
    # check_dtype=True: the union's null-fill must not leak float64
    # payload columns (or >2^53 precision loss) into the output
    pd.testing.assert_frame_equal(
        a[cols].sort_values(cols, ignore_index=True),
        b[cols].sort_values(cols, ignore_index=True))


def test_bloom_semi_join_reads_no_schema_of_an_unexecuted_plan(monkeypatch):
    """`Dataset.schema()` on an unexecuted plan re-runs it under
    `limit(1)`; cancelling that run can abort the Ray 2.49 driver. With
    that call made to raise, a semi and an anti join on LAZY inputs
    still run, and match broadcast_semi_join."""
    import ray.data
    from techtalk_data_pipeline_snowpark_ray.stages.joins import (
        bloom_semi_join, broadcast_semi_join)

    real_schema = ray.data.Dataset.schema

    def executed_only(self, fetch_if_missing=True):
        if not self._plan.has_computed_output():
            raise AssertionError("schema() of an unexecuted plan")
        return real_schema(self, fetch_if_missing)

    rng = np.random.default_rng(5)
    keys = rng.choice(2_000, size=300, replace=False).astype(np.int64)

    def lazy(df):
        return ray.data.from_pandas(df).map_batches(
            lambda b: b, batch_format="pyarrow")

    left = pd.DataFrame({"k": rng.integers(0, 2_000, 3_000).astype(np.int64),
                         "v": np.arange(3_000)})
    right = pd.DataFrame({"rk": keys})
    monkeypatch.setattr(ray.data.Dataset, "schema", executed_only)
    with pytest.raises(AssertionError, match="unexecuted"):
        lazy(left).schema()
    cols = ["k", "v"]
    for anti in (False, True):
        got = bloom_semi_join(lazy(left), lazy(right), on="k", right_on="rk",
                              anti=anti).to_pandas()
        want = broadcast_semi_join(ray.data.from_pandas(left),
                                   set(keys.tolist()), on="k",
                                   anti=anti).to_pandas()
        pd.testing.assert_frame_equal(
            got[cols].sort_values(cols, ignore_index=True),
            want[cols].sort_values(cols, ignore_index=True))


def test_ann_ivf_deterministic_and_decent_recall():
    brute = similarity.ann_topk_cosine(SF_TINY)
    for fn in (similarity.ann_topk_ivf, similarity.ann_topk_ivf_lloyd):
        a = fn(SF_TINY)
        b = fn(SF_TINY)
        pd.testing.assert_frame_equal(a, b)
        recall = len(set(map(tuple, a.to_numpy()))
                     & set(map(tuple, brute.to_numpy()))) / len(brute)
        # n_probe=4 of 16 cells on near-isotropic data (fixed
        # corpus-vector centroids and Lloyd-trained both)
        assert recall >= 0.3, fn.__name__


def test_embedding_near_dup_lsh_finds_planted_dups(tmp_path):
    rng = np.random.default_rng(13)
    X = rng.standard_normal((120, 32)).astype(np.float32)
    planted = [(3, 80), (10, 95), (40, 111)]
    for a, b in planted:
        X[b] = X[a] + rng.standard_normal(32).astype(np.float32) * 0.02
    sf = make_emb_dir(tmp_path, X)
    got = similarity.embedding_near_dup_lsh(sf, threshold=0.95)
    pairs = set(map(tuple, got.to_numpy()))
    assert set(planted) <= pairs                   # recall 1 on planted dups
    # precision 1 by construction: every reported pair is exact-verified
    Xn = X.astype(np.float64)
    Xn = Xn / np.linalg.norm(Xn, axis=1, keepdims=True)
    for a, b in pairs:
        assert round(float(Xn[a] @ Xn[b]), 6) >= 0.95


# -- deterministic sampling / splits ---------------------------------------

def test_md5_hash64_matches_duckdb():
    import duckdb
    from techtalk_data_pipeline_snowpark_ray.functions.textstats import md5_hash64
    con = duckdb.connect()
    for s in ["", "abc", "hello world", "42", "é漢字"]:
        want = con.sql("SELECT md5_number_lower(?)", params=[s]).fetchone()[0]
        assert md5_hash64(s) == want


def test_doc_split_deterministic_disjoint_and_sampled_subset():
    from techtalk_data_pipeline_snowpark_ray.functions import sampling
    a = sampling.doc_split(SF_TINY).to_pandas()
    b = sampling.doc_split(SF_TINY).to_pandas()
    pd.testing.assert_frame_equal(a, b)
    # full cover, label consistent with bucket
    assert set(a["split"]) <= {"train", "val", "test"}
    assert ((a["bucket"] < 90) == (a["split"] == "train")).all()
    # sample(10) subset-of sample(20) subset-of train universe
    import ray.data
    ds = ray.data.read_parquet(SF_TINY + "/documents.parquet",
                               columns=["doc_id"])
    s10 = set(sampling.doc_sample(ds, "doc_id", 10).to_pandas()["doc_id"])
    s20 = set(sampling.doc_sample(ds, "doc_id", 20).to_pandas()["doc_id"])
    assert s10 <= s20
    assert s20 <= set(a.loc[a["bucket"] < 20, "doc_id"])


def _mixture_dir(tmp_path):
    d = tmp_path / "sfm"
    d.mkdir(exist_ok=True)
    rows = [  # (lang, source, text)
        ("en", "web", "a b c d e f g h"),      # en: 12 tokens
        ("en", "web", "a b c"),
        ("en", "code", "x"),
        ("de", "web", "ein zwei drei"),        # de: 3 tokens
        ("fr", "web", ""),                     # fr: 0 tokens
    ]
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(rows)), pa.int64()),
        "text": pa.array([r[2] for r in rows], pa.string()),
        "lang": pa.array([r[0] for r in rows]),
        "source": pa.array([r[1] for r in rows]),
        "n_chars": pa.array([len(r[2]) for r in rows], pa.int64()),
    }), d / "documents.parquet")
    return str(d)


def test_mixture_weights_exact_composition(tmp_path):
    from techtalk_data_pipeline_snowpark_ray.functions import sampling
    got = sampling.mixture_weights(_mixture_dir(tmp_path))
    got = got.set_index(["source", "lang"])
    assert got.loc[("web", "en"), "n_docs"] == 2
    assert got.loc[("web", "en"), "n_tokens"] == 11
    assert got.loc[("code", "en"), "n_tokens"] == 1
    assert got.loc[("web", "fr"), "n_tokens"] == 0
    # shares: fixed-point floor-divide of exact integers (total 15)
    assert got.loc[("web", "en"), "share_ppm"] == 11 * 1_000_000 // 15
    assert got["share_ppm"].sum() <= 1_000_000
    # T=2 flattening raises the rare group's relative weight
    rel_t1 = got.loc[("web", "de"), "share_ppm"] / \
        max(got.loc[("web", "en"), "share_ppm"], 1)
    rel_t2 = got.loc[("web", "de"), "w_t2_ppm"] / \
        max(got.loc[("web", "en"), "w_t2_ppm"], 1)
    assert rel_t2 > rel_t1


def test_resample_epochs_plan(tmp_path):
    from techtalk_data_pipeline_snowpark_ray.functions import sampling
    sf = _mixture_dir(tmp_path)
    got = sampling.resample_epochs(sf).to_pandas()
    # en = 12 tokens (max); de = 3 -> 12//3 = 4 epochs; fr = 0 tokens
    # -> 1 epoch (zero-token langs are never multiplied)
    per = got.groupby("doc_id")["epoch"].agg(["size", "max"])
    assert per.loc[0, "size"] == 1 and per.loc[3, "size"] == 4
    assert per.loc[3, "max"] == 3
    assert per.loc[4, "size"] == 1
    assert (got.groupby("doc_id")["epoch"].apply(
        lambda s: list(s) == list(range(len(s))))).all()
    # deterministic across runs
    again = sampling.resample_epochs(sf).to_pandas()
    pd.testing.assert_frame_equal(got, again)


# -- as-of join / top-k per group / quantiles vs local brute force ---------

def test_asof_join_matches_bruteforce():
    from techtalk_data_pipeline_snowpark_ray.pipelines import analytics
    got = analytics.events_asof_latest_order(SF_TINY).to_pandas()
    ev = pd.read_parquet(SF_TINY + "/events.parquet",
                         columns=["event_id", "user_id", "ts"])
    orders = pd.read_parquet(
        SF_TINY + "/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"])
    orders["ats"] = pd.to_datetime(orders["o_orderdate"]).astype("datetime64[us]")
    want = {}
    by_user = dict(tuple(orders.groupby("o_custkey")))
    for e in ev.itertuples():
        og = by_user.get(e.user_id)
        if og is None:
            continue
        cand = og[og["ats"] <= e.ts]
        if cand.empty:
            continue
        top = cand.sort_values(["ats", "o_orderkey"]).iloc[-1]
        want[e.event_id] = int(top["o_orderkey"])
    got_map = dict(zip(got["event_id"], got["o_orderkey"]))
    assert got_map == want


def test_topk_per_user_and_quantiles_match_pandas():
    from techtalk_data_pipeline_snowpark_ray.pipelines import analytics
    ev = pd.read_parquet(SF_TINY + "/events.parquet",
                         columns=["user_id", "event_id", "event_type", "value"])
    ev["value_c"] = np.floor(ev["value"] * 100 + 0.5).astype("int64")

    got = analytics.top_events_per_user(SF_TINY).to_pandas()
    want = (ev.sort_values(["value_c", "event_id"], ascending=[False, True])
              .groupby("user_id", sort=False).head(3))
    assert (set(map(tuple, got[["user_id", "event_id"]].to_numpy()))
            == set(map(tuple, want[["user_id", "event_id"]].to_numpy())))

    q = analytics.value_quantiles(SF_TINY)
    for r in q.itertuples():
        vals = np.sort(ev.loc[ev["event_type"] == r.event_type, "value_c"].to_numpy())
        p = int(r.p[1:]) / 100.0
        idx = max(0, int(np.ceil(p * len(vals))) - 1)
        assert r.q_value_c == vals[idx], (r.event_type, r.p)


def test_simhash_md5_and_xx64_modes_both_deterministic():
    a = dedup.simhash_documents(SF_TINY, token_hash="md5").to_pandas()
    b = dedup.simhash_documents(SF_TINY, token_hash="md5").to_pandas()
    pd.testing.assert_frame_equal(a, b)
    c = dedup.simhash_documents(SF_TINY, token_hash="xx64").to_pandas()
    assert len(c) == len(a)
    # identical docs agree under either token hash
    texts = pd.read_parquet(SF_TINY + "/documents.parquet",
                            columns=["doc_id", "text"])
    for df in (a, c):
        m = texts.merge(df, on="doc_id")
        groups = m.groupby("text")["simhash"].nunique()
        assert (groups == 1).all()


def test_pack_documents_invariants():
    from techtalk_data_pipeline_snowpark_ray.functions import packing
    got = packing.pack_documents(SF_TINY, budget=512).to_pandas()
    docs = pd.read_parquet(SF_TINY + "/documents.parquet", columns=["doc_id"])
    assert set(got["doc_id"]) == set(docs["doc_id"])   # every doc assigned
    # within a partition, bins are the prefix-sum layout: in doc_id
    # order bins are non-decreasing and each bin's exclusive prefix
    # stays under budget (overflow bounded by one straddling doc)
    for _part, g in got.groupby("part"):
        g = g.sort_values("doc_id", ignore_index=True)
        assert g["bin"].is_monotonic_increasing
        prefix = g["n_tokens"].cumsum() - g["n_tokens"]
        assert ((prefix // 512) == g["bin"]).all()


def test_winnow_fingerprints_detects_shared_substring(tmp_path):
    """Winnowing guarantee: any shared token run of >= k+w-1 (=6)
    tokens yields at least one shared selected fingerprint; disjoint
    docs share none."""
    shared_run = "alpha beta gamma delta epsilon zeta"     # 6 tokens
    texts = ["intro words here " + shared_run + " tail one",
             shared_run + " completely different ending part",
             "unrelated tokens q w e r t y u i o p",
             "ab"]                                          # < k tokens
    sf = make_doc_dir(tmp_path, texts)
    got = dedup.winnow_fingerprints(sf).to_pandas().set_index("doc_id")
    assert got.loc[0, "shared"] == 1 and got.loc[1, "shared"] == 1
    assert got.loc[2, "shared"] == 0
    assert 3 not in got.index                  # too short: no grams
    assert (got["n_shared_fp"] <= got["n_fp"]).all()
    # selection actually compresses: fewer fingerprints than grams
    n_grams0 = len(texts[0].split()) - 2
    assert got.loc[0, "n_fp"] < n_grams0


def test_chunk_documents_windows(tmp_path):
    from techtalk_data_pipeline_snowpark_ray.functions import packing
    toks = [f"w{i}" for i in range(10)]
    texts = [" ".join(toks),       # 10 tokens: chunks [0,6) and [4,10)
             "a b c",              # 3 tokens: one chunk
             "",                   # empty: no chunks
             " ".join(f"x{i}" for i in range(7))]  # 7: [0,6), [4,7)
    sf = make_doc_dir(tmp_path, texts)
    got = packing.chunk_documents(sf, chunk=6, overlap=2).to_pandas()
    g0 = got[got["doc_id"] == 0]
    assert g0["chunk_idx"].tolist() == [0, 1]
    assert g0["chunk_text"].tolist() == [" ".join(toks[0:6]),
                                         " ".join(toks[4:10])]
    assert g0["tok_start"].tolist() == [0, 4]
    assert g0["tok_end"].tolist() == [6, 10]
    assert got[got["doc_id"] == 1]["chunk_text"].tolist() == ["a b c"]
    assert 2 not in set(got["doc_id"])            # empty doc drops out
    g3 = got[got["doc_id"] == 3]
    assert g3["tok_end"].tolist() == [6, 7]       # trailing partial window
    # every token index covered; consecutive windows overlap by 2
    assert (g3["tok_start"].iloc[1] == g3["tok_end"].iloc[0] - 2)


def test_exchange_map_groups_equals_dataset_groupby():
    """The raw hash exchange must be semantically identical to
    groupby(part).map_groups for any reduce (modulo row order)."""
    import ray.data
    from techtalk_data_pipeline_snowpark_ray.stages.exchange import (
        exchange_map_groups)

    rng = np.random.default_rng(5)
    nparts = 7
    df = pd.DataFrame({
        "k": rng.integers(0, 40, size=2000).astype(np.int64),
        "v": rng.integers(0, 1000, size=2000).astype(np.int64)})
    df["part"] = (df["k"].to_numpy().astype(np.uint64)
                  % np.uint64(nparts)).astype(np.int32)

    def reduce_fn(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("k", sort=False, as_index=False)["v"].sum()
        return out[out["v"] % 3 != 0]          # non-trivial filter too

    chunks = [df.iloc[i::5].reset_index(drop=True) for i in range(5)]
    ds = ray.data.from_pandas(chunks)
    a = exchange_map_groups(ds, "part", nparts, reduce_fn).to_pandas()
    b = ds.groupby("part", num_partitions=nparts) \
          .map_groups(lambda g: reduce_fn(g.drop(columns=["part"])),
                      batch_format="pandas").to_pandas()
    cols = ["k", "v"]
    # check_dtype=True: the union's null-fill must not leak float64
    # payload columns (or >2^53 precision loss) into the output
    pd.testing.assert_frame_equal(
        a[cols].sort_values(cols, ignore_index=True),
        b[cols].sort_values(cols, ignore_index=True))
    # empty partitions are skipped, not materialized as empty blocks
    small = df[df["part"] == 2]
    dss = ray.data.from_pandas(small.reset_index(drop=True))
    c = exchange_map_groups(dss, "part", nparts, reduce_fn).to_pandas()
    pd.testing.assert_frame_equal(
        c[cols].sort_values(cols, ignore_index=True),
        reduce_fn(small.drop(columns=["part"]))[cols]
            .sort_values(cols, ignore_index=True),
        check_dtype=False)


def test_cluster_pairs_union_find():
    pairs = pd.DataFrame({"id_a": [1, 2, 5, 8, 9],
                          "id_b": [2, 3, 6, 9, 1]})
    got = dedup.cluster_pairs(pairs)
    want = {1: 1, 2: 1, 3: 1, 5: 5, 6: 5, 8: 1, 9: 1}
    assert dict(zip(got["doc_id"], got["cluster_rep"])) == want
    # empty graph
    assert dedup.cluster_pairs(pd.DataFrame({"id_a": [], "id_b": []})).empty


def test_cluster_pairs_distributed_matches_union_find():
    """The large-star/small-star hash-exchange path computes the same
    (doc_id, cluster_rep) mapping as driver union-find on random
    graphs and on the pathological shapes (max-diameter chain, star,
    disjoint cliques)."""
    rng = np.random.default_rng(7)
    cases = []
    for n_nodes, n_edges in [(30, 25), (200, 300), (500, 150)]:
        a = rng.integers(0, n_nodes, n_edges)
        b = rng.integers(0, n_nodes, n_edges)
        keep = a != b
        cases.append(pd.DataFrame({
            "id_a": np.minimum(a, b)[keep],
            "id_b": np.maximum(a, b)[keep]}).drop_duplicates())
    cases.append(pd.DataFrame({"id_a": np.arange(0, 99),
                               "id_b": np.arange(1, 100)}))   # chain
    cases.append(pd.DataFrame({"id_a": np.zeros(40, dtype=np.int64),
                               "id_b": np.arange(1, 41)}))    # star
    for pairs in cases:
        want = dedup.cluster_pairs(pairs)
        got = dedup.cluster_pairs_distributed(pairs, num_partitions=4)
        pd.testing.assert_frame_equal(got, want)


def test_cluster_pairs_distributed_accepts_dataset():
    """A fully-streamed caller can hand the edge set over as a Dataset
    and it never lands on the driver."""
    import ray.data
    pairs = pd.DataFrame({"id_a": [1, 2, 5], "id_b": [2, 3, 6]})
    want = dedup.cluster_pairs(pairs)
    got = dedup.cluster_pairs_distributed(
        ray.data.from_pandas(pairs), num_partitions=2)
    pd.testing.assert_frame_equal(got, want)


def test_cluster_pairs_gate_engages_distributed(monkeypatch):
    """Past CC_DISTRIBUTED_PAIRS (forced to 0) cluster_pairs routes
    through the distributed path with identical results."""
    monkeypatch.setattr(dedup, "CC_DISTRIBUTED_PAIRS", 0)
    pairs = pd.DataFrame({"id_a": [1, 2, 5, 8, 9],
                          "id_b": [2, 3, 6, 9, 1]})
    got = dedup.cluster_pairs(pairs)
    want = {1: 1, 2: 1, 3: 1, 5: 5, 6: 5, 8: 1, 9: 1}
    assert dict(zip(got["doc_id"], got["cluster_rep"])) == want
    assert got["doc_id"].dtype == np.int64
    assert dedup.cluster_pairs(pd.DataFrame({"id_a": [], "id_b": []})).empty


def test_clean_text_value_matches_duckdb_on_unicode_edges():
    import duckdb
    from techtalk_data_pipeline_snowpark_ray.functions.textstats import (
        clean_text_value)
    con = duckdb.connect()
    sql = r"""SELECT regexp_replace(
        trim(translate(nfc_normalize(?),
                       'ABCDEFGHIJKLMNOPQRSTUVWXYZ',
                       'abcdefghijklmnopqrstuvwxyz'),
             ' ' || chr(9) || chr(13) || chr(10) || chr(12) || chr(11)),
        '[ ' || chr(9) || chr(13) || chr(10) || chr(12) || chr(11) || ']+',
        ' ', 'g')"""
    cases = ["Héllo   Wörld\t!", "  á b  ", "ＡＢＣ ﬁn",
             "Ligne insécable", "İstanbul STRASSE ẞ", "ΣΙΣΥΦΟΣ σ",
             "x\r\ny \f z\v", "", "   ", "á vs á"]
    for s in cases:
        want = con.sql(sql, params=[s]).fetchone()[0]
        assert clean_text_value(s) == want, repr(s)


def test_quantile_digest_rank_error_bound():
    """Mergeable sketch: any-order merges give quantiles within ~2%
    RANK error of exact on 100k lognormal values (the unbounded-domain
    alternative to the exact histogram quantiles)."""
    import ray.data
    from techtalk_data_pipeline_snowpark_ray.functions.sketches import (
        QuantileDigest, sketch_column)

    rng = np.random.default_rng(7)
    vals = rng.lognormal(0, 1.5, size=100_000)
    exact = np.sort(vals)

    # pure merge associativity on raw digests
    chunks = np.array_split(vals, 37)
    d = QuantileDigest.from_values(chunks[0])
    for c in chunks[1:]:
        d = d.merge(QuantileDigest.from_values(c))
    for p in (0.1, 0.25, 0.5, 0.75, 0.9, 0.99):
        est = d.quantile(p)
        rank = np.searchsorted(exact, est) / len(exact)
        assert abs(rank - p) < 0.02, (p, rank)

    # through the Dataset path
    ds = ray.data.from_pandas([pd.DataFrame({"v": c}) for c in chunks[:8]])
    d2 = sketch_column(ds, "v")
    sub = np.sort(np.concatenate(chunks[:8]))
    for p in (0.5, 0.9):
        rank = np.searchsorted(sub, d2.quantile(p)) / len(sub)
        assert abs(rank - p) < 0.02, (p, rank)


def test_hyperloglog_accuracy_and_merge():
    import ray.data
    from techtalk_data_pipeline_snowpark_ray.functions.sketches import (
        HyperLogLog, hll_column)

    keys = np.arange(200_000, dtype=np.int64) * 7919 + 13
    h = HyperLogLog(p=12)
    h.add(keys)
    est = h.count()
    assert abs(est - 200_000) / 200_000 < 0.05, est
    # merge associativity + retry idempotency (re-adding is free)
    parts = np.array_split(keys, 9)
    m = HyperLogLog(p=12)
    for c in parts:
        hh = HyperLogLog(p=12)
        hh.add(c)
        hh.add(c[: len(c) // 2])          # duplicate re-delivery
        m.merge(hh)
    assert m.count() == est
    # Dataset path
    ds = ray.data.from_pandas(
        [pd.DataFrame({"k": c}) for c in parts[:4]])
    d = hll_column(ds, "k")
    sub = sum(len(c) for c in parts[:4])
    assert abs(d.count() - sub) / sub < 0.05


# -- repetition / redaction / decontamination -------------------------------

def test_doc_repetition_brute_force(tmp_path):
    texts = ["a b a b a b", "x y z", "", "solo", "q q q q"]
    sf = make_doc_dir(tmp_path, texts)
    got = textstats.doc_repetition(sf).to_pandas()
    assert got["doc_id"].tolist() == [0, 1, 2, 3, 4]
    assert got["n_tokens"].tolist() == [6, 3, 0, 1, 4]
    assert got["n_distinct_tokens"].tolist() == [2, 3, 0, 1, 1]
    assert got["n_bigrams"].tolist() == [5, 2, 0, 0, 3]
    # "a b" x3 vs "b a" x2; all "q q"
    assert got["top_bigram_n"].tolist() == [3, 1, 0, 0, 3]
    assert (got["top_bigram_n"] <= got["n_bigrams"]).all()
    assert (got["n_distinct_tokens"] <= got["n_tokens"]).all()


def test_redact_pii_scrubs_planted_and_organic(tmp_path):
    texts = ["mail me at alice.smith+x@corp.example.org now", "clean text"]
    sf = make_doc_dir(tmp_path, texts)
    got = textstats.redact_pii(sf).to_pandas()
    # organic email in doc 0 + planted email/phone in every doc
    assert got["n_redacted"].tolist() == [3, 2]
    assert not got["redacted"].str.contains("@").any()
    assert not got["redacted"].str.contains(r"\+1-555-[0-9]", regex=True).any()
    assert got["redacted"].str.count("<EMAIL>").tolist() == [2, 1]
    assert got["redacted"].str.count("<PHONE>").tolist() == [1, 1]


def test_decontaminate_planted_overlap(tmp_path):
    # doc 0 (bench, doc_id % 10 == 0) shares its full 5-gram window with
    # doc 11; docs 12/13 are clean; doc 1 too short for any 5-gram
    bench = "alpha beta gamma delta epsilon zeta"
    texts = [bench, "tiny doc"] + ["f" + str(i) for i in range(2, 11)]
    texts += [""] * 0
    sf_texts = list(texts)
    sf_texts += ["prefix alpha beta gamma delta epsilon suffix",  # doc 11: hit
                 "one two three four five six seven",              # doc 12
                 "eight nine ten eleven twelve"]                   # doc 13
    sf = make_doc_dir(tmp_path, sf_texts)
    got = dedup.decontaminate(sf).to_pandas().set_index("doc_id")
    assert 0 not in got.index and 10 not in got.index   # bench excluded
    assert got.loc[11, "n_hit"] == 1 and got.loc[11, "contaminated"] == 1
    assert got.loc[11, "n_grams"] == 3                   # 7 tokens -> 3 grams
    assert got.loc[12, "n_hit"] == 0 and got.loc[12, "contaminated"] == 0
    assert got.loc[1, "n_grams"] == 0 and got.loc[1, "contaminated"] == 0


def test_misra_gries_guarantee_and_merge():
    from techtalk_data_pipeline_snowpark_ray.functions.sketches import (
        MisraGries, heavy_hitters_column)
    rng = np.random.default_rng(7)
    # zipf-ish stream: a few heavy keys + long uniform tail
    heavy = np.repeat(np.arange(5), 4000)              # 4000 each
    tail = rng.integers(100, 5000, size=30_000)
    stream = rng.permutation(np.concatenate([heavy, tail]))
    n, k = len(stream), 64
    exact = pd.Series(stream).value_counts()

    mg = MisraGries(k)
    for chunk in np.array_split(stream, 7):
        mg.add(chunk)
    got = mg.to_frame().set_index("key")["count_lo"]
    # guarantee: every key with count > n/(k+1) is present, and
    # reported counts under-estimate by at most n/(k+1)
    thresh = n / (k + 1)
    for key, c in exact.items():
        if c > thresh:
            assert key in got.index, key
        if key in got.index:
            assert got[key] <= c <= got[key] + thresh

    # split-merge equals the same guarantee (and same n)
    a, b = MisraGries(k), MisraGries(k)
    a.add(stream[: n // 2]); b.add(stream[n // 2:])
    m = a.merge(b)
    assert m.n == n
    for key, c in exact.items():
        if c > 2 * thresh:   # merge pays one extra trim's slack
            assert key in m.counts

    # distributed path over the documents table (lang column hashes)
    import ray.data
    ds = ray.data.read_parquet(SF_TINY + "/documents.parquet",
                               columns=["doc_id"])
    hh = heavy_hitters_column(ds.map_batches(
        lambda t: pd.DataFrame({"m": t["doc_id"].to_pandas() % 7}),
        batch_format="pyarrow"), "m", k=8)
    docs = pd.read_parquet(SF_TINY + "/documents.parquet",
                           columns=["doc_id"])
    truth = (docs["doc_id"] % 7).value_counts()
    nn = len(docs)
    for key, c in truth.items():
        assert key in set(hh["key"])                  # 7 keys, k=8
        lo = int(hh.set_index("key").loc[key, "count_lo"])
        assert lo <= c <= lo + nn / 9 + 1


def test_sample_per_stratum_balanced_monotone(tmp_path):
    from techtalk_data_pipeline_snowpark_ray.functions import sampling
    got = sampling.sample_per_stratum(SF_TINY, k=10)
    # balanced: exactly 10 per language (every lang has >= 10 docs)
    assert (got.groupby("lang").size() == 10).all()
    assert (got.groupby("lang")["rank"].max() == 9).all()
    # monotone: k=5 selection is a prefix of k=10
    small = sampling.sample_per_stratum(SF_TINY, k=5)
    big_prefix = got[got["rank"] < 5].reset_index(drop=True)
    pd.testing.assert_frame_equal(small, big_prefix)
    # deterministic across runs
    again = sampling.sample_per_stratum(SF_TINY, k=10)
    pd.testing.assert_frame_equal(got, again)


def test_lm_novelty_boilerplate_vs_novel(tmp_path):
    # corpus dominated by one repeated phrase; doc 3 is pure novel text
    boiler = "the quick brown fox " * 10
    texts = [boiler, boiler, boiler, "zebra xylophone quartz jumble vex"]
    sf = make_doc_dir(tmp_path, texts)
    got = textstats.lm_novelty(sf, k=4).to_pandas().set_index("doc_id")
    assert (got["n_known"] <= got["n_bigrams"]).all()
    # boilerplate docs: mostly known bigrams -> low novelty
    assert got.loc[0, "novelty_ppm"] < 500_000
    # the novel doc shares no bigram with the top-4 -> full novelty
    assert got.loc[3, "n_known"] == 0
    assert got.loc[3, "novelty_ppm"] == 1_000_000


def test_cdc_turn_windows_invariants():
    from techtalk_data_pipeline_snowpark_ray.pipelines import cdc_queries
    got = cdc_queries.cdc_turn_windows(SF_TINY).to_pandas()
    rend = cdc_queries.cdc_render_transcripts(SF_TINY).to_pandas() \
        .set_index("conv_id")
    assert set(got["conv_id"]) == set(rend.index)   # every conv windowed
    per = got.groupby("conv_id")
    # window_idx dense from 0; window sizes <= w; last window ends at
    # the conversation's last turn
    assert (per["window_idx"].apply(
        lambda s: list(s) == list(range(len(s))))).all()
    assert (got["n_window_turns"] <= 4).all()
    assert (got["turn_lo"] <= got["turn_hi"]).all()
    n_turns = rend["n_turns"]
    expect_win = np.maximum(1, -((n_turns - 2) // -2))
    assert per.size().sort_index().equals(expect_win.sort_index())
    # rendered window lines are a contiguous slice of the transcript
    row = got.iloc[0]
    assert row["window_text"] in rend.loc[row["conv_id"], "transcript"]


def test_semantic_decontaminate_planted(tmp_path):
    rng = np.random.default_rng(11)
    X = rng.standard_normal((40, 16)).astype(np.float32)
    X[13] = X[10] * 1.5          # vec 13 ~ identical direction to eval vec 10
    X[27] = -X[20]               # vec 27 anti-parallel to eval vec 20
    sf = make_emb_dir(tmp_path, X)
    got = similarity.semantic_decontaminate(sf, threshold=0.9) \
        .to_pandas().set_index("vec_id")
    assert 10 not in got.index and 0 not in got.index   # eval excluded
    assert got.loc[13, "nearest_eval_id"] == 10
    assert got.loc[13, "contaminated"] == 1
    assert got.loc[27, "contaminated"] == 0             # cos = -1
    assert (got["nearest_eval_id"] % 10 == 0).all()


def test_profile_table_nullable_int_column(tmp_path):
    """Nullable int64 columns: exact distinct must not double-count a
    value across null-bearing and null-free batches, and min/max must
    include batches that carry nulls."""
    from techtalk_data_pipeline_snowpark_ray.functions.profile import (
        profile_table)
    d = tmp_path / "sfp"
    d.mkdir()
    # two row groups -> two batches: one with a null, one without;
    # value 7 appears in both
    t = pa.table({
        "doc_id": pa.array(range(8), pa.int64()),
        "v": pa.array([7, None, 3, 1, 7, 9, 7, 5], pa.int64()),
    })
    pq.write_table(t, d / "documents.parquet", row_group_size=4)
    got = profile_table(str(d), "documents").set_index(["col", "stat"])
    assert got.loc[("v", "distinct"), "value"] == 5   # {7,3,1,9,5}
    assert got.loc[("v", "min"), "value"] == 1        # lives in null batch
    assert got.loc[("v", "max"), "value"] == 9
    assert got.loc[("v", "nulls"), "value"] == 1


def test_exchange_rejects_out_of_range_part():
    """A part value outside [0, num_partitions) must raise, not drop
    rows silently (groupby(part).map_groups would have processed it)."""
    import ray.data
    from techtalk_data_pipeline_snowpark_ray.stages.exchange import (
        exchange_map_groups)
    df = pd.DataFrame({"part": np.array([0, 1, 5], dtype=np.int32),
                       "v": np.arange(3, dtype=np.int64)})
    ds = ray.data.from_pandas(df)
    with pytest.raises(Exception, match="outside"):
        exchange_map_groups(ds, "part", 4, lambda g: g).to_pandas()


def test_heavy_hitters_empty_trim_keeps_batch_total():
    """A batch whose Misra-Gries trim empties the summary must still
    contribute its item count to merged.n (the error bound's n)."""
    import ray.data
    from techtalk_data_pipeline_snowpark_ray.functions.sketches import (
        heavy_hitters_column)
    # k+1 distinct keys with equal counts: dec equals every count, the
    # trimmed per-batch summary is empty
    k = 3
    vals = np.repeat(np.arange(k + 1, dtype=np.int64), 5)
    ds = ray.data.from_pandas(pd.DataFrame({"x": vals}))
    got = heavy_hitters_column(ds, "x", k=k)
    # the summary may legitimately be empty, but the bound's n must be
    # the full stream: every key's true count (5) must satisfy
    # count_lo <= 5 <= count_lo + n/(k+1) with n = 20 -> slack 5
    lo = got.set_index("key")["count_lo"] if len(got) else pd.Series(dtype="int64")
    for key in range(k + 1):
        lo_k = int(lo.get(key, 0))
        assert lo_k <= 5 <= lo_k + len(vals) / (k + 1)


def test_profile_all_null_int_column_emits_min_max(tmp_path):
    """SQL MIN/MAX of an all-null column emit NULL-valued rows; the
    engine must emit matching (null) min/max rows, not drop them."""
    from techtalk_data_pipeline_snowpark_ray.functions.profile import (
        profile_table)
    d = tmp_path / "sfnull"
    d.mkdir()
    t = pa.table({
        "doc_id": pa.array(range(4), pa.int64()),
        "v": pa.array([None] * 4, pa.int64()),
    })
    pq.write_table(t, d / "documents.parquet")
    got = profile_table(str(d), "documents").set_index(["col", "stat"])
    assert ("v", "min") in got.index and ("v", "max") in got.index
    assert pd.isna(got.loc[("v", "min"), "value"])
    assert pd.isna(got.loc[("v", "max"), "value"])
    assert got.loc[("v", "nulls"), "value"] == 4
    # normal columns keep exact int values through the nullable cast
    assert got.loc[("doc_id", "min"), "value"] == 0
    assert got.loc[("doc_id", "max"), "value"] == 3


def test_cdc_render_null_payload_renders_empty():
    """A partial update upserting an absent key leaves unset columns
    null; rendering must emit '' for them (the '\\n'.join used to raise
    TypeError on NaN while the SQL string_agg silently skipped lines)."""
    import ray.data
    from techtalk_data_pipeline_snowpark_ray.pipelines import cdc_queries
    ts = pd.Timestamp("2024-01-01")
    ch = pd.DataFrame({
        "lsn": np.array([1, 2], dtype=np.int64),
        "op": ["update", "insert"],
        "conv_id": ["conv-x", "conv-x"],
        "turn_idx": np.array([0, 1], dtype=np.int64),
        "role": ["user", "assistant"],
        "text": [None, "hello"],
        "tool": [None, None],
        "ts": [ts, ts],
    })
    got = cdc_queries.cdc_render_transcripts(
        SF_TINY, changes=ray.data.from_pandas(ch)).to_pandas()
    assert len(got) == 1
    assert got.loc[0, "n_turns"] == 2
    assert got.loc[0, "transcript"] == "user: \nassistant: hello"


def test_routed_pair_verify_distributes_and_is_exact():
    """pairverify: payload rows must reach exactly the partitions of
    their pairs and every pair must be verified exactly once."""
    import ray.data
    from techtalk_data_pipeline_snowpark_ray.stages.pairverify import (
        assign_pair_parts, routed_pair_verify)
    pairs = pd.DataFrame({"id_a": np.array([1, 1, 2, 7], dtype=np.int64),
                          "id_b": np.array([4, 9, 4, 8], dtype=np.int64)})
    # payload: value per id; a pair verifies iff values sum even
    items = pd.DataFrame({"id": np.arange(10, dtype=np.int64),
                          "val": np.arange(10, dtype=np.int64) * 3})
    chunks = [items.iloc[i::3].reset_index(drop=True) for i in range(3)]
    ds = ray.data.from_pandas(chunks)
    calls = []

    def verify_fn(payload, sub):
        vals = payload.drop_duplicates("id").set_index("id")["val"]
        s = vals.loc[sub["id_a"]].to_numpy() + vals.loc[sub["id_b"]].to_numpy()
        return sub[s % 2 == 0]

    got = routed_pair_verify(pairs, ds, "id", verify_fn, num_partitions=4)
    want = pairs[(pairs["id_a"] * 3 + pairs["id_b"] * 3) % 2 == 0] \
        .sort_values(["id_a", "id_b"], ignore_index=True)
    pd.testing.assert_frame_equal(got.reset_index(drop=True), want)
    # each pair lands in exactly one partition; ids needed by several
    # pairs are needed in <= their pair count partitions
    p, nd_ids, nd_parts = assign_pair_parts(pairs, 4)
    assert len(p) == 4 and p["part"].between(0, 3).all()
    nd_counts = pd.Series(nd_ids).value_counts().sort_index()
    deg = pd.concat([pairs["id_a"], pairs["id_b"]]).value_counts().sort_index()
    assert (nd_counts <= deg.reindex(nd_counts.index)).all()


def test_embedding_near_dup_planted_is_exact_pair_set():
    """The self-validating planted mode returns exactly the planted
    pairs (exact copies -> LSH recall 1; background < threshold)."""
    from techtalk_data_pipeline_snowpark_ray.functions.similarity import (
        PLANT_OFFSET, embedding_near_dup_planted)
    got = embedding_near_dup_planted(SF_TINY)
    ids = pd.read_parquet(SF_TINY + "/embeddings.parquet",
                          columns=["vec_id"])["vec_id"]
    want = ids[ids % 50 == 0].sort_values().to_numpy()
    assert got["id_a"].to_numpy().tolist() == want.tolist()
    assert (got["id_b"].to_numpy() == want + PLANT_OFFSET).all()


def test_auto_semi_join_gates_and_anti_bloom_exact():
    """auto_semi_join must pick broadcast under the key threshold and
    the Bloom path above it, with EXACT results for both polarities on
    both paths (anti via Bloom: negatives pass through, positives get
    the exact membership drop)."""
    import ray.data
    from techtalk_data_pipeline_snowpark_ray.stages import joins
    rng = np.random.default_rng(23)
    keys = rng.choice(50_000, size=3_000, replace=False).astype(np.int64)
    left_df = pd.DataFrame({
        "k": rng.integers(0, 50_000, size=20_000).astype(np.int64),
        "v": np.arange(20_000)})
    left = ray.data.from_pandas(left_df)
    right = ray.data.from_pandas(pd.DataFrame({"rk": keys}))
    ks = set(keys.tolist())
    want_semi = left_df[left_df["k"].isin(ks)]
    want_anti = left_df[~left_df["k"].isin(ks)]
    cols = ["k", "v"]

    def runs(threshold):
        out = {}
        for anti, want in [(False, want_semi), (True, want_anti)]:
            got = joins.auto_semi_join(
                left, right, on="k", right_on="rk", anti=anti,
                broadcast_threshold_keys=threshold).to_pandas()
            pd.testing.assert_frame_equal(
                got[cols].sort_values(cols, ignore_index=True),
                want[cols].sort_values(cols, ignore_index=True))
            out[anti] = joins.LAST_SEMI_JOIN_PATH
        return out

    assert runs(threshold=1_000_000) == {False: "broadcast", True: "broadcast"}
    # force the at-scale path the way auto_join's partitioned path is
    assert runs(threshold=10) == {False: "bloom", True: "bloom"}


def test_small_groupby_cardinality_guard_engages():
    """A high-cardinality key must flip small_groupby's merge from the
    driver to the routed exchange, with identical results."""
    import ray.data
    from techtalk_data_pipeline_snowpark_ray.pipelines import analytics
    rng = np.random.default_rng(31)
    df = pd.DataFrame({"k": rng.integers(0, 5_000, size=30_000).astype(np.int64),
                       "v": rng.integers(0, 100, size=30_000).astype(np.int64)})
    chunks = [df.iloc[i::6].reset_index(drop=True) for i in range(6)]
    ds = ray.data.from_pandas(chunks)
    spec = {"n": ("v", "count"), "sum_v": ("v", "sum"), "max_v": ("v", "max")}
    want = df.groupby("k", as_index=False).agg(
        n=("v", "size"), sum_v=("v", "sum"), max_v=("v", "max"))

    a = analytics.small_groupby(ds, "k", spec)
    assert analytics.LAST_GROUPBY_PATH == "driver"
    b = analytics.small_groupby(ds, "k", spec, driver_merge_max_rows=10)
    assert analytics.LAST_GROUPBY_PATH == "exchange"
    for got in (a, b):
        got = got.sort_values("k", ignore_index=True).astype("int64")
        pd.testing.assert_frame_equal(
            got, want.sort_values("k", ignore_index=True).astype("int64"))


def test_exact_dedup_incremental_planted(tmp_path):
    """New docs (odd ids) report membership against the committed
    corpus (even ids); null text never matches (SQL equality)."""
    texts = ["alpha", "beta", "alpha", "gamma", None, None,
             "beta", "delta"]
    #         0:old   1:new   2:old    3:new   4:old 5:new  6:old 7:new
    sf = make_doc_dir(tmp_path, [t if t is not None else None for t in texts])
    got = dedup.exact_dedup_incremental(sf).to_pandas() \
        .sort_values("doc_id", ignore_index=True)
    assert got["doc_id"].tolist() == [1, 3, 5, 7]
    by = got.set_index("doc_id")
    assert by.loc[1, "is_dup"] == 1 and by.loc[1, "dup_of"] == 6  # 'beta'
    assert by.loc[7, "is_dup"] == 0            # 'delta' novel
    assert by.loc[3, "is_dup"] == 0            # 'gamma' novel
    assert by.loc[5, "is_dup"] == 0 and pd.isna(by.loc[5, "dup_of"])  # null


def test_pack_documents_null_text_counts_zero(tmp_path):
    """A NULL text doc packs as 0 tokens — it must not poison the
    partition's prefix-sum with NaN and crash the bin cast."""
    from techtalk_data_pipeline_snowpark_ray.functions import packing
    sf = make_doc_dir(tmp_path, ["one two three", None, "four five"])
    got = packing.pack_documents(sf, budget=4).to_pandas() \
        .set_index("doc_id")
    assert int(got.loc[1, "n_tokens"]) == 0
    assert got["bin"].notna().all()
    assert int(got.loc[0, "n_tokens"]) == 3
    assert int(got.loc[2, "n_tokens"]) == 2


def test_stack_respects_slices_and_rejects_nulls_ragged():
    """_stack must honor the batch's slice offset (Ray blocks are often
    slices — `.values` reads the WHOLE buffer and misaligns every
    vector) and fail loudly on null or ragged embedding rows instead of
    silently producing garbage cosines."""
    from techtalk_data_pipeline_snowpark_ray.functions.similarity import _stack
    full = pa.table({
        "vec_id": pa.array([0, 1, 2, 3], pa.int64()),
        "embedding": pa.array([[0., 1.], [2., 3.], [4., 5.], [6., 7.]],
                              pa.list_(pa.float64()))})
    ids, X = _stack(full.slice(1, 2))
    assert ids.tolist() == [1, 2]
    assert X.tolist() == [[2., 3.], [4., 5.]]

    nulls = pa.table({
        "vec_id": pa.array([0, 1], pa.int64()),
        "embedding": pa.array([[0., 1.], None], pa.list_(pa.float64()))})
    with pytest.raises(ValueError, match="null embedding"):
        _stack(nulls)

    ragged = pa.table({
        "vec_id": pa.array([0, 1], pa.int64()),
        "embedding": pa.array([[0., 1., 2.], [3.]],
                              pa.list_(pa.float64()))})
    with pytest.raises(ValueError, match="ragged"):
        _stack(ragged)

    empty = full.slice(0, 0)
    ids0, X0 = _stack(empty)
    assert len(ids0) == 0 and X0.shape[0] == 0


def test_simhash_vocab_cap_bounds_memory(monkeypatch):
    """The md5 token-vocab memo must stay bounded in a long-lived
    worker (it is a pure cache — resetting it never changes hashes)."""
    from techtalk_data_pipeline_snowpark_ray.functions.dedup import SimHasher
    monkeypatch.setattr(SimHasher, "VOCAB_CAP", 8)
    h = SimHasher("md5")
    b1 = pd.DataFrame({"doc_id": [0, 1],
                       "text": ["a b c d e", "f g h i j"]})
    out1 = h(b1)
    assert len(h._vocab) <= 8
    # a fresh hasher (empty memo) produces identical simhashes
    assert out1.equals(SimHasher("md5")(b1))


def test_quarantine_names_distinct_for_distinct_batches(tmp_path):
    """Two bad batches differing ONLY in turn_idx must write two dead-
    letter files — a name hash over a partial column set let one
    os.replace the other, silently discarding dead letters."""
    import glob
    from techtalk_data_pipeline_snowpark_ray.stages.validate import (
        ChangeValidator)
    qdir = str(tmp_path / "q")
    v = ChangeValidator("quarantine", qdir, txn_id="t1")

    def bad_batch(turn):
        return pa.table({
            "conv_id": pa.array([""], pa.string()),     # empty key: bad
            "turn_idx": pa.array([turn], pa.int64()),
            "op": pa.array(["insert"], pa.string()),
            "lsn": pa.array([5], pa.int64())})

    v(bad_batch(1))
    v(bad_batch(2))
    files = glob.glob(os.path.join(qdir, "dead-*.parquet"))
    assert len(files) == 2
    # re-running the SAME batch stays exactly-once (same name rewrites)
    v(bad_batch(2))
    assert len(glob.glob(os.path.join(qdir, "dead-*.parquet"))) == 2


def test_mixture_weights_uses_exact_int_arithmetic(tmp_path):
    """Weights are exact integer floor-divides (Python ints — numpy
    int64 would wrap silently past ~9.2e12 tokens per group)."""
    from techtalk_data_pipeline_snowpark_ray.functions import sampling
    sf = make_doc_dir(tmp_path, ["a b c", "d e", "f"])
    got = sampling.mixture_weights(sf)
    assert int(got["share_ppm"].sum()) <= 1_000_000
    tot = int(got["n_tokens"].sum())
    for _, r in got.iterrows():
        assert int(r["share_ppm"]) == (int(r["n_tokens"]) * 1_000_000) // tot


def test_audiocodec_roundtrip_and_loud_fail():
    import struct

    from techtalk_data_pipeline_snowpark_ray.functions import audiocodec as ac
    rng = np.random.default_rng(5)
    mono = rng.integers(-32768, 32768, size=301, dtype=np.int16)
    s, rate = ac.decode_wav(ac.encode_wav_pcm16(mono, 16000))
    assert rate == 16000 and (s == mono).all()
    stereo = rng.integers(-32768, 32768, size=(40, 2), dtype=np.int16)
    s2, r2 = ac.decode_wav(ac.encode_wav_pcm16(stereo, 44100))
    assert r2 == 44100 and s2.shape == (40, 2) and (s2 == stereo).all()
    # foreign-writer layout: an extra LIST chunk before data must skip
    enc = bytearray(ac.encode_wav_pcm16(mono, 8000))
    extra = b"LIST" + struct.pack("<I", 4) + b"INFO"
    patched = bytes(enc[:36]) + extra + bytes(enc[36:])
    patched = patched[:4] + struct.pack("<I", len(patched) - 8) + patched[8:]
    s3, r3 = ac.decode_wav(patched)
    assert r3 == 8000 and (s3 == mono).all()
    with pytest.raises(ValueError, match="RIFF"):
        ac.decode_wav(b"not-audio-at-all")
    # 8-bit / non-PCM formats fail loudly, never mis-parse
    bad = bytearray(ac.encode_wav_pcm16(mono, 8000))
    struct.pack_into("<H", bad, 34, 8)     # bits-per-sample field
    with pytest.raises(ValueError, match="16-bit PCM"):
        ac.decode_wav(bytes(bad))


def test_media_audio_features_real_decode_exact():
    """The WAV pipeline's stats must equal a direct recompute of the
    deterministic sample train (the same function the SQL oracle
    regenerates)."""
    out = multimodal.media_audio_features(SF_TINY).to_pandas()
    assert len(out) > 0
    for _, r in out.head(5).iterrows():
        mid = int(r["media_id"])
        want, rate = multimodal.synth_audio(mid)
        a = np.abs(want.astype(np.int64))
        assert r["n_samples"] == len(want)
        assert r["sample_rate"] == rate
        assert r["duration_us"] == len(want) * 1_000_000 // rate
        assert r["peak_abs"] == int(a.max())
        assert r["sum_abs"] == int(a.sum())
        assert r["first_sample"] == int(want[0])
        assert r["last_sample"] == int(want[-1])


def test_videocodec_roundtrip_and_loud_fail():
    from techtalk_data_pipeline_snowpark_ray.functions import videocodec as vc
    rng = np.random.default_rng(9)
    frames = rng.integers(0, 256, size=(7, 12, 16), dtype=np.uint8)
    dec, fps = vc.decode_y4m(vc.encode_y4m_mono(frames, fps=30))
    assert fps == 30 and dec.shape == (7, 12, 16) and (dec == frames).all()
    # 420 layout from a foreign writer: luma comes back, chroma skipped
    head = b"YUV4MPEG2 W4 H2 F25:1 Ip A1:1 C420jpeg XYSCSS=420JPEG\n"
    luma = bytes(range(8))
    chroma = b"\x80" * (2 * (2 * 1))
    p = head + b"FRAME\n" + luma + chroma + b"FRAME\n" + luma + chroma
    d2, _ = vc.decode_y4m(p)
    assert d2.shape == (2, 2, 4) and bytes(d2[0].ravel()) == luma
    with pytest.raises(ValueError, match="YUV4MPEG2"):
        vc.decode_y4m(b"RIFF....nope")
    with pytest.raises(ValueError, match="colorspace"):
        vc.decode_y4m(b"YUV4MPEG2 W4 H2 C444\nFRAME\n" + bytes(24))
    with pytest.raises(ValueError, match="truncated"):
        vc.decode_y4m(vc.encode_y4m_mono(frames)[:-5])


def test_media_video_frame_features_real_decode_exact():
    out = multimodal.media_video_frame_features(SF_TINY).to_pandas()
    assert len(out) > 0
    mid = int(out["media_id"].iloc[0])
    frames, _fps = multimodal.synth_video(mid)
    mine = out[out["media_id"] == mid].sort_values("frame_idx")
    assert list(mine["frame_idx"]) == list(range(0, frames.shape[0], 5))
    for _, r in mine.iterrows():
        f = frames[int(r["frame_idx"])].astype(np.int64)
        assert r["n_frames"] == frames.shape[0]
        assert r["frame_sum"] == int(f.sum())
        assert r["frame_min"] == int(f.min())
        assert r["frame_max"] == int(f.max())


def test_ann_actor_pool_survives_actor_kill(tmp_path):
    """Restart-safety of the ANN actor pools (ray#53727 class of
    failure): ctor args ride in the actor-creation task spec by VALUE
    (never ObjectRefs), so a killed actor restarts cleanly and the job
    completes with the same result. One pool actor os._exit()s on its
    first batch; the pipeline must still produce ann_topk_lsh's exact
    output."""
    import os

    marker = tmp_path / "killed-once"

    class KillOnceLsh(similarity.LshTopK):
        def __call__(self, batch):
            try:
                with open(marker, "x"):
                    pass
            except FileExistsError:
                return super().__call__(batch)
            os._exit(1)        # simulated node/actor loss, first batch only

    q_ids, Q = similarity._query_matrix(SF_TINY)
    import numpy as np
    rng = np.random.default_rng(97)
    H = rng.standard_normal((Q.shape[1], 4))
    parts = similarity._emb(SF_TINY).map_batches(
        KillOnceLsh, batch_format="pyarrow", batch_size=64, concurrency=2,
        fn_constructor_kwargs=dict(q_ref=(q_ids, Q), k=similarity.TOP_K,
                                   planes_ref=H),
        zero_copy_batch=True).to_pandas()
    got = similarity._merge_topk(parts, similarity.TOP_K)
    assert marker.exists()                       # the kill really fired
    want = similarity.ann_topk_lsh(SF_TINY)
    pd.testing.assert_frame_equal(got, want)


def test_auto_join_right_always_partitioned():
    """how='right' cannot broadcast — a per-batch right-outer merge
    would emit unmatched RIGHT rows once per left batch instead of once
    globally. auto_join must route it to the partitioned path even when
    the right side is under the broadcast threshold, and broadcast_join
    must refuse it loudly rather than crash inside acero."""
    import ray.data
    from techtalk_data_pipeline_snowpark_ray.stages.joins import (
        auto_join, broadcast_join)
    left = ray.data.from_pandas(pd.DataFrame(
        {"k": list(range(600)), "v": range(600)}))
    right = ray.data.from_pandas(pd.DataFrame(
        {"rk": list(range(900)), "w": range(900)}))  # 300 unmatched
    out = auto_join(left, right, on="k", right_on="rk", how="right",
                    num_partitions=2).to_pandas()
    assert len(out) == 900                  # every right row exactly once
    assert out["v"].notna().sum() == 600
    with pytest.raises(ValueError, match="broadcast_join supports"):
        broadcast_join(left, right.to_pandas(), on="k", right_on="rk",
                       how="right")


def test_broadcast_semi_join_cross_family_loud():
    """Int keys against a STRING column must fail loudly: Arrow would
    cast 1 -> '1' and silently match numeric-looking strings where a
    type-strict IN matches nothing (anti mode would silently DROP rows
    it should always keep)."""
    import ray.data
    import ray.exceptions
    from techtalk_data_pipeline_snowpark_ray.stages import joins
    left = ray.data.from_arrow(pa.table(
        {"k": pa.array(["1", "2", "x"], pa.string()), "v": [10, 20, 30]}))
    with pytest.raises(ray.exceptions.RayTaskError, match="type famil"):
        joins.broadcast_semi_join(left, {1, 2}, on="k").to_pandas()
    with pytest.raises(ray.exceptions.RayTaskError, match="type famil"):
        joins.broadcast_semi_join(left, {1, 2}, on="k",
                                  anti=True).to_pandas()
