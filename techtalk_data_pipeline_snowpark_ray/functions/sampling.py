"""Deterministic sampling / dataset splitting for training-data
pipelines.

The split decision is a PURE FUNCTION of the record key -- bucket =
portable_hash64(key) % n_buckets -- so it is:

  * reproducible across runs, engines and cluster shapes (no RNG state,
    no coordination; the driver oracle re-derives it in SQL via DuckDB's
    ``md5_number_lower``);
  * stable under re-partitioning: a document keeps its split when data
    moves, which is the property a 100-TB train/val split actually
    needs (resumable jobs must not reshuffle membership);
  * embarrassingly parallel: one stateless ``map_batches`` stage, zero
    shuffle, zero driver state.

This is the hash-mod split every large-scale corpus pipeline uses for
held-out sets; stratified variants just salt the key with the stratum.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd

import ray.data

from .textstats import md5_hash64_series

#: default split layout: 100 hash buckets -> 90 train / 5 val / 5 test
SPLIT_BUCKETS = 100
SPLIT_EDGES = (("train", 90), ("val", 95), ("test", 100))


def assign_split(keys: pd.Series, buckets: int = SPLIT_BUCKETS,
                 edges=SPLIT_EDGES) -> tuple[np.ndarray, np.ndarray]:
    """(bucket, split-label) per key -- vectorized except the inherent
    per-string digest. Keys are hashed as their decimal-string form so
    any engine can reproduce the bucket from the stored key alone."""
    b = (md5_hash64_series(keys.astype(str)) % np.uint64(buckets)) \
        .astype(np.int64)
    lab = np.empty(len(b), dtype=object)
    lo = 0
    for name, hi in edges:
        lab[(b >= lo) & (b < hi)] = name
        lo = hi
    return b, lab


def doc_split(sf_dir: str) -> ray.data.Dataset:
    """Train/val/test assignment for every document: one stateless
    zero-shuffle pass; (doc_id, bucket, split) per row."""
    from ..sources.tables import read_table
    ds = read_table(sf_dir, "documents", ["doc_id"])

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        bucket, split = assign_split(batch["doc_id"])
        return pd.DataFrame({"doc_id": batch["doc_id"],
                             "bucket": bucket, "split": split})

    return ds.map_batches(f, batch_format="pandas").sort("doc_id")


def doc_split_stratified(sf_dir: str) -> ray.data.Dataset:
    """Stratified split: the hash key is salted with the stratum
    (language), so each language's documents split 90/5/5
    INDEPENDENTLY -- per-stratum proportions hold even when strata are
    wildly imbalanced (the failure mode of unstratified hash splits on
    multilingual corpora). Same determinism/portability properties as
    doc_split."""
    from ..sources.tables import read_table
    ds = read_table(sf_dir, "documents", ["doc_id", "lang"])

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        salted = batch["lang"].fillna("") + ":" + batch["doc_id"].astype(str)
        bucket, split = assign_split(salted)
        return pd.DataFrame({"doc_id": batch["doc_id"],
                             "lang": batch["lang"],
                             "bucket": bucket, "split": split})

    return ds.map_batches(f, batch_format="pandas").sort("doc_id")


def doc_sample(ds: ray.data.Dataset, key_col: str, pct: int,
               buckets: int = SPLIT_BUCKETS) -> ray.data.Dataset:
    """Deterministic pct% sample of any Dataset by key-hash bucket:
    filter-in-place (no shuffle, no materialization), reproducible and
    disjoint-composable (pct=10 is a subset of pct=20)."""

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        b = md5_hash64_series(batch[key_col].astype(str)) \
            % np.uint64(buckets)
        return batch[b < pct]

    return ds.map_batches(f, batch_format="pandas")


#: fixed-size per-stratum sample: docs kept per language
STRATUM_K = 10


def sample_per_stratum(sf_dir: str, k: int = STRATUM_K) -> pd.DataFrame:
    """Fixed-size balanced subset: the k documents with the SMALLEST
    salted key hash per language -- the deterministic stand-in for
    "uniformly sample k per stratum" that needs no RNG state: the
    hash order is a fixed random-looking permutation, so the selection
    is reproducible, engine-portable (DuckDB re-derives it), stable
    under re-partitioning, and monotone (k=10 is a superset of k=5).
    This is how balanced eval sets are cut from wildly imbalanced
    corpora (doc_split keeps proportions; this equalizes counts).

    Scale shape: each batch prunes to <= k rows per stratum
    (vectorized groupby-head over hash order), so the driver merge
    sees O(batches x strata x k) tiny partials -- the bounded-
    cardinality combiner discipline; text never leaves its batch.
    Output: (doc_id, lang, rank) with rank 0..k-1 in hash order."""
    from ..sources.tables import read_table
    ds = read_table(sf_dir, "documents", ["doc_id", "lang"])

    def prune(b: pd.DataFrame) -> pd.DataFrame:
        h = md5_hash64_series(b["lang"].fillna("") + ":"
                              + b["doc_id"].astype(str))
        part = pd.DataFrame({"doc_id": b["doc_id"], "lang": b["lang"],
                             "h": h})
        part = part.sort_values(["h", "doc_id"], kind="stable")
        return part.groupby("lang", sort=False, dropna=False).head(k)

    parts = ds.map_batches(prune, batch_format="pandas",
                           batch_size=8192).to_pandas()
    parts = parts.sort_values(["h", "doc_id"], kind="stable")
    out = parts.groupby("lang", sort=False, dropna=False).head(k).copy()
    out["rank"] = out.groupby("lang", sort=False, dropna=False) \
        .cumcount().astype(np.int64)
    return out[["doc_id", "lang", "rank"]] \
        .sort_values(["lang", "rank"], ignore_index=True)


# -- corpus composition: mixture weights + deterministic up-sampling --------

#: fixed-point scale for mixture shares (parts per million)
PPM = 1_000_000


def _group_token_partials(sf_dir: str) -> pd.DataFrame:
    """(source, lang, n_docs, n_tokens) -- the bounded-cardinality
    combiner shape: each batch reduces to <= n_sources x n_langs partial
    rows, the driver merges the tiny partials. Token = whitespace run
    (same TOKEN_RE unit as textstats.token_counts)."""
    from ..sources.tables import read_table
    ds = read_table(sf_dir, "documents", ["text", "lang", "source"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        n = b["text"].fillna("").str.count(r"\S+").astype(np.int64)
        g = pd.DataFrame({"source": b["source"], "lang": b["lang"],
                          "n_tokens": n}) \
            .groupby(["source", "lang"], sort=False, dropna=False)
        out = g.agg(n_docs=("n_tokens", "size"),
                    n_tokens=("n_tokens", "sum")).reset_index()
        return out.astype({"n_docs": np.int64, "n_tokens": np.int64})

    parts = ds.map_batches(partial, batch_format="pandas",
                           batch_size=8192).to_pandas()
    return parts.groupby(["source", "lang"], as_index=False,
                         dropna=False)[["n_docs", "n_tokens"]].sum()


def mixture_weights(sf_dir: str) -> pd.DataFrame:
    """Corpus-mixture sampling weights per (source, lang) group -- the
    composition table every multi-source training run starts from.
    Emits exact token/doc counts plus two fixed-point weight columns:

      * ``share_ppm``  -- proportional-to-tokens share (temperature 1),
      * ``w_t2_ppm``   -- temperature-2 flattened share, the standard
        rare-source up-weighting (multilingual-T5 style w_g propto
        count_g^(1/T)); T=2 keeps the whole computation bit-exact
        across engines: IEEE sqrt and a single integer floor-divide are
        both exactly specified, so the DuckDB oracle reproduces every
        value (general T is the same stage with pow(count, 1/T) and a
        tolerance check instead).

    Scale shape: one streamed combiner pass (O(sources x langs) rows per
    batch to the driver; group cardinality is bounded by construction),
    then arithmetic on the tiny composition table. Text never leaves
    its batch; no shuffle."""
    g = _group_token_partials(sf_dir)
    # Python-int arithmetic on the tiny composition table: n_tokens *
    # PPM overflows int64 at ~9.2e12 tokens per group (~40 TB of text
    # — inside this engine's design envelope), and numpy would WRAP
    # silently; arbitrary-precision ints keep the floor-divide exact
    # (DuckDB's HUGEINT oracle arithmetic matches bit-for-bit)
    # a zero total (no tokens anywhere) gives every group a zero share
    # rather than a division by zero
    def shares(col: pd.Series) -> np.ndarray:
        tot = int(col.sum())
        return np.fromiter(((int(v) * PPM) // tot if tot else 0
                            for v in col), dtype=np.int64, count=len(col))

    g["share_ppm"] = shares(g["n_tokens"])
    g["sqrt_tokens"] = np.floor(
        np.sqrt(g["n_tokens"].to_numpy(np.float64))).astype(np.int64)
    g["w_t2_ppm"] = shares(g["sqrt_tokens"])
    return g.sort_values(["source", "lang"], ignore_index=True)


#: cap on the per-language epoch multiplier (repeating any slice too
#: many times degrades models faster than it balances them)
EPOCH_CAP = 4


def resample_epochs(sf_dir: str, cap: int = EPOCH_CAP) -> ray.data.Dataset:
    """Deterministic up-sampling plan: every document of an
    under-represented language is repeated ``n_epochs`` times (epoch =
    0..n-1), where n = clamp(1..cap, max_lang_tokens // lang_tokens) --
    the integer-epoch equalization used when a run wants roughly equal
    token budgets per language without fractional sampling RNG.

    Two passes, no shuffle: (1) the bounded per-lang token combiner
    (O(langs) rows to the driver) fixes the epoch table; (2) a streamed
    map_batches repeats rows vectorized (np.repeat + arange) -- the
    flat-map shape. The epoch table is a plain closure constant (a few
    langs), not even worth a ray.put. Deterministic: no RNG anywhere,
    re-runs and resumes emit identical plans."""
    from ..sources.tables import read_table

    lt = _group_token_partials(sf_dir).groupby(
        "lang", dropna=False)["n_tokens"].sum()
    epochs = {lang: int(min(cap, max(1, int(lt.max()) // int(t))))
              if t > 0 else 1  # zero-token lang: nothing to balance
              for lang, t in lt.items()}

    ds = read_table(sf_dir, "documents", ["doc_id", "lang"])

    def repeat(b: pd.DataFrame) -> pd.DataFrame:
        r = b["lang"].map(epochs).fillna(1).astype(np.int64).to_numpy()
        idx = np.repeat(np.arange(len(b)), r)
        ends = np.cumsum(r)
        epoch = np.arange(ends[-1]) - np.repeat(ends - r, r) \
            if len(b) else np.empty(0, np.int64)
        out = b.iloc[idx].reset_index(drop=True)
        out["epoch"] = epoch.astype(np.int64)
        return out

    return ds.map_batches(repeat, batch_format="pandas",
                          batch_size=8192).sort(["doc_id", "epoch"])
