"""Similarity search over the embeddings table (list<float> column).

  * `ann_topk_cosine`  -- brute-force cosine top-k: the query matrix is
    broadcast once (ray.put, fetched in actor __init__), each batch
    does one float64 matmul, emits its local top-k, and the driver
    merges the tiny per-batch winners. O(corpus) compute, O(batches*k)
    driver traffic.
  * `ann_topk_lsh`     -- scale path: random-hyperplane LSH; only
    candidates sharing a query's bucket are scored.
  * `embedding_near_dup` -- cosine near-duplicate pairs on a
    deterministic subset (embedding-space dedup).

Float parity with the DuckDB oracle: similarities are computed in
float64 (duckdb: CAST(embedding AS DOUBLE[])) and rounded to 6 decimals
BEFORE ranking/thresholding on both sides, with vec_id tiebreak, so
last-bit FP differences cannot flip results.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from ..stages.exchange import block_refs

TOP_K = 10
N_QUERIES = 5
NEAR_DUP_THRESHOLD = 0.35
NEAR_DUP_MODULUS = 10


def _emb(sf_dir: str) -> ray.data.Dataset:
    from ..sources.tables import read_table
    return read_table(sf_dir, "embeddings", ["vec_id", "embedding"])


def _stack(batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    ids = batch["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    if len(ids) == 0:
        # callers early-return on len(ids) == 0 without touching X
        return ids, np.empty((0, 0), dtype=np.float64)
    flat = batch["embedding"].combine_chunks()
    if isinstance(flat, pa.ListArray):
        # `.values` would be WRONG here twice over: it ignores the
        # array's slice offset (Ray blocks are often slices) and null
        # slots contribute no values, so a blind reshape silently
        # misaligns every row's vector. flatten() respects both; nulls
        # and ragged rows fail loudly instead of producing garbage.
        if flat.null_count:
            raise ValueError(
                f"{flat.null_count} null embedding rows; filter or "
                f"impute them before the similarity stages")
        lens = np.unique(pc.list_value_length(flat)
                         .to_numpy(zero_copy_only=False))
        if len(lens) > 1:
            raise ValueError(
                f"ragged embedding lists (lengths {lens[:5].tolist()}"
                f"...); vectors must share one dimension")
        X = flat.flatten().to_numpy(zero_copy_only=False) \
            .astype(np.float64, copy=False).reshape(len(ids), -1)
    else:
        X = np.stack(batch["embedding"].to_pandas().to_numpy()) \
            .astype(np.float64)
    return ids, X


def _cosine(X: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """cos(x, q) = dot / (|x| |q|), float64, rounded to 6 decimals."""
    num = X @ Q.T
    den = np.linalg.norm(X, axis=1, keepdims=True) * np.linalg.norm(Q, axis=1)
    return np.round(num / den, 6)


def _resolve(x):
    """Accept a broadcast ObjectRef or the raw value. Actor POOLS must
    be constructed with raw values, never refs: a user ObjectRef in
    `fn_constructor_kwargs` makes actor RESTART depend on that ref
    still being resolvable (ray#53727) — a node loss after the ref's
    creating scope exits turns into a dead pipeline instead of a
    restart. The query/centroid/plane matrices here are KB-sized, so
    they ride inside the serialized UDF closure for free; refs remain
    supported for the task-based paths where the driver provably pins
    them. (Ray Data 2.49 still logs one `core_worker.cc:2246` line per
    driver process for ANY callable-class pool — even with zero ctor
    kwargs — because its own MapTransformer ctor arg lives in the
    object store; that ref is driver-owned and pinned for the job's
    lifetime, and restart-through-kill is pinned green by
    tests/test_functions.py::test_ann_actor_pool_survives_actor_kill.)
    """
    return ray.get(x) if isinstance(x, ray.ObjectRef) else x


class BatchTopK:
    """Actor: holds the broadcast query matrix; per batch emits its
    local top-k (query_id, vec_id, sim) rows."""

    def __init__(self, q_ref, k: int):
        self.q_ids, self.Q = _resolve(q_ref)
        self.k = k

    def __call__(self, batch: pa.Table) -> pd.DataFrame:
        ids, X = _stack(batch)
        keep = ids >= N_QUERIES
        ids, X = ids[keep], X[keep]
        if len(ids) == 0:
            return pd.DataFrame({"query_id": pd.Series(dtype="int64"),
                                 "vec_id": pd.Series(dtype="int64"),
                                 "sim": pd.Series(dtype="float64")})
        S = _cosine(X, self.Q)                      # [n, n_queries]
        rows = []
        for j, qid in enumerate(self.q_ids):
            order = np.lexsort((ids, -S[:, j]))[: self.k]
            rows.append(pd.DataFrame({"query_id": qid, "vec_id": ids[order],
                                      "sim": S[order, j]}))
        return pd.concat(rows, ignore_index=True)


def _query_matrix(sf_dir: str) -> tuple[np.ndarray, np.ndarray]:
    t = _emb(sf_dir).map_batches(
        lambda b: b.filter(pc.less(b["vec_id"], N_QUERIES)),
        batch_format="pyarrow", zero_copy_batch=True).take_all()
    df = pd.DataFrame(t).sort_values("vec_id")
    return (df["vec_id"].to_numpy(dtype=np.int64),
            np.stack(df["embedding"].to_numpy()).astype(np.float64))



def _merge_topk(parts: pd.DataFrame, k: int) -> pd.DataFrame:
    """Driver-side merge of per-batch top-k partials: exact global
    top-k per query (ties -> smaller vec_id), typed-empty on no rows.
    Shared by the brute/LSH/IVF variants so the tie-break and the
    empty-result guard cannot drift between them."""
    out = []
    for qid, g in parts.groupby("query_id"):
        order = np.lexsort((g["vec_id"].to_numpy(), -g["sim"].to_numpy()))[:k]
        out.append(pd.DataFrame({"query_id": np.int64(qid),
                                 "vec_id": g["vec_id"].to_numpy()[order]}))
    if not out:
        return pd.DataFrame({"query_id": pd.Series(dtype="int64"),
                             "vec_id": pd.Series(dtype="int64")})
    return (pd.concat(out, ignore_index=True)
              .sort_values(["query_id", "vec_id"], ignore_index=True))

def ann_topk_cosine(sf_dir: str, k: int = TOP_K) -> pd.DataFrame:
    q_ref = ray.put(_query_matrix(sf_dir))

    # task-based: ray.get of the broadcast matrix is a zero-copy mmap
    # of the plasma buffer, so per-batch construction costs nothing and
    # the warm worker pool is reused without actor-spawn latency
    def topk_batch(batch: pa.Table) -> pd.DataFrame:
        return BatchTopK(q_ref, k)(batch)

    parts = _emb(sf_dir).map_batches(
        topk_batch, batch_format="pyarrow", batch_size=8192,
        zero_copy_batch=True).to_pandas()
    return _merge_topk(parts, k)


#: fixed-point scale for exact distributed vector aggregates: float32
#: inputs widened to float64 then scaled -> int64 sums are
#: order-independent, so Ray partials equal the SQL oracle bit-for-bit
CENTROID_SCALE = 1 << 20


def label_centroids(sf_dir: str) -> pd.DataFrame:
    """Grouped VECTOR aggregate: per-label embedding centroid as exact
    fixed-point sums. Each batch folds to one partial row per (label)
    -- bounded cardinality, so partials merge on the driver like any
    dimension aggregate -- and the output is long-form (label, dim,
    sum_c, n): mean = sum_c / (n * CENTROID_SCALE), reconstructable
    and exactly comparable across engines."""
    from ..sources.tables import read_table
    ds = read_table(sf_dir, "embeddings", ["embedding", "label"])

    def partial(batch: pa.Table) -> pd.DataFrame:
        labels = batch["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        flat = batch["embedding"].combine_chunks()
        X = np.asarray(flat.values, dtype=np.float64).reshape(len(labels), -1)
        S = np.floor(X * CENTROID_SCALE + 0.5).astype(np.int64)
        codes, uniq = np.unique(labels, return_inverse=True)
        sums = np.zeros((len(codes), S.shape[1]), dtype=np.int64)
        np.add.at(sums, uniq, S)
        n = np.bincount(uniq, minlength=len(codes)).astype(np.int64)
        dim = S.shape[1]
        return pd.DataFrame({
            "label": np.repeat(codes, dim),
            "dim": np.tile(np.arange(dim, dtype=np.int64), len(codes)),
            "sum_c": sums.ravel(),
            "n": np.repeat(n, dim)})

    parts = ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True).to_pandas()
    out = parts.groupby(["label", "dim"], sort=True, as_index=False) \
               .agg(sum_c=("sum_c", "sum"), n=("n", "sum"))
    return out.sort_values(["label", "dim"], ignore_index=True)


class LshTopK(BatchTopK):
    """Approximate variant: random-hyperplane signatures; a candidate is
    scored only when it shares its bucket with the query (multi-probe =
    exact bucket here; widen by flipping bits for higher recall)."""

    def __init__(self, q_ref, k: int, planes_ref):
        super().__init__(q_ref, k)
        self.H = _resolve(planes_ref)                      # [dim, n_planes]
        self.q_sig = (self.Q @ self.H > 0)

    def __call__(self, batch: pa.Table) -> pd.DataFrame:
        ids, X = _stack(batch)
        keep = ids >= N_QUERIES
        ids, X = ids[keep], X[keep]
        empty = pd.DataFrame({"query_id": pd.Series(dtype="int64"),
                              "vec_id": pd.Series(dtype="int64"),
                              "sim": pd.Series(dtype="float64")})
        if len(ids) == 0:
            return empty
        sig = X @ self.H > 0                               # [n, n_planes]
        rows = [empty]
        for j, qid in enumerate(self.q_ids):
            cand = (sig == self.q_sig[j]).all(axis=1)
            if not cand.any():
                continue
            S = _cosine(X[cand], self.Q[j:j + 1])[:, 0]
            cids = ids[cand]
            order = np.lexsort((cids, -S))[: self.k]
            rows.append(pd.DataFrame({"query_id": qid, "vec_id": cids[order],
                                      "sim": S[order]}))
        return pd.concat(rows, ignore_index=True)


def ann_topk_lsh(sf_dir: str, k: int = TOP_K, n_planes: int = 4) -> pd.DataFrame:
    q_ids, Q = _query_matrix(sf_dir)
    rng = np.random.default_rng(97)
    H = rng.standard_normal((Q.shape[1], n_planes))
    # ctor args by VALUE (KB-scale): no user ObjectRef has to outlive
    # this scope for an actor restart (see _resolve). Ray Data still
    # puts the pool's constructor arguments in the object store and
    # logs one `core_worker.cc:2246` line per driver for it
    parts = _emb(sf_dir).map_batches(
        LshTopK, batch_format="pyarrow", batch_size=8192, concurrency=2,
        fn_constructor_kwargs=dict(q_ref=(q_ids, Q), k=k, planes_ref=H),
        zero_copy_batch=True).to_pandas()
    return _merge_topk(parts, k)


@ray.remote
def _block_pair_sims(a_tbl: pa.Table, b_tbl: pa.Table, same: bool,
                     threshold: float) -> pd.DataFrame:
    """Exact cosine pairs above threshold between two embedding blocks
    (upper triangle when the blocks are the same). Runs as a Ray task:
    only the matching pairs return to the driver."""
    if a_tbl.num_rows == 0 or b_tbl.num_rows == 0:
        return pd.DataFrame({"id_a": pd.Series(dtype="int64"),
                             "id_b": pd.Series(dtype="int64")})
    ids_a, Xa = _stack(a_tbl)
    if same:
        ids_b, Xb = ids_a, Xa
    else:
        ids_b, Xb = _stack(b_tbl)
    S = _cosine(Xa, Xb)
    if same:
        ii, jj = np.triu_indices(len(ids_a), 1)
        mask = S[ii, jj] > threshold
        a, b = ids_a[ii[mask]], ids_b[jj[mask]]
    else:
        ii, jj = np.nonzero(S > threshold)
        # cross-block ids are unordered relative to each other
        a = np.minimum(ids_a[ii], ids_b[jj])
        b = np.maximum(ids_a[ii], ids_b[jj])
    return pd.DataFrame({"id_a": a.astype(np.int64),
                         "id_b": b.astype(np.int64)})


class IvfTopK(BatchTopK):
    """IVF (inverted-file) ANN: vectors quantize to their nearest
    coarse centroid; a query scores ONLY vectors whose cell is among
    its `n_probe` nearest cells. The centroid matrix is broadcast once;
    per batch the cell assignment is one matmul. This is the classic
    scale path when hyperplane LSH prunes too weakly (near-isotropic
    corpora).

    Determinism for the SQL mirror: assignment and probe lists use
    6-decimal-rounded cosine with cell-index tie-break (argmax takes
    the FIRST maximal cell), matching the oracle's ROW_NUMBER order."""

    def __init__(self, q_ref, k: int, centroids_ref, n_probe: int):
        super().__init__(q_ref, k)
        self.C = _resolve(centroids_ref)                 # [n_cells, dim]
        Cn = self.C / np.linalg.norm(self.C, axis=1, keepdims=True)
        qn = self.Q / np.linalg.norm(self.Q, axis=1, keepdims=True)
        # each query's probe list: its n_probe nearest cells (rounded
        # sims, ties -> smaller cell index)
        sims = np.round(qn @ Cn.T, 6)
        n_cells = Cn.shape[0]
        self.q_cells = np.stack([
            np.lexsort((np.arange(n_cells), -sims[j]))[:n_probe]
            for j in range(len(qn))])
        self._Cn = Cn

    def __call__(self, batch: pa.Table) -> pd.DataFrame:
        ids, X = _stack(batch)
        keep = ids >= N_QUERIES
        ids, X = ids[keep], X[keep]
        empty = pd.DataFrame({"query_id": pd.Series(dtype="int64"),
                              "vec_id": pd.Series(dtype="int64"),
                              "sim": pd.Series(dtype="float64")})
        if len(ids) == 0:
            return empty
        Xn = X / np.linalg.norm(X, axis=1, keepdims=True)
        # rounded sims; argmax = first maximum = smaller cell on ties
        cell = np.argmax(np.round(Xn @ self._Cn.T, 6), axis=1)   # [n]
        rows = [empty]
        for j, qid in enumerate(self.q_ids):
            cand = np.isin(cell, self.q_cells[j])
            if not cand.any():
                continue
            S = _cosine(X[cand], self.Q[j:j + 1])[:, 0]
            cids = ids[cand]
            order = np.lexsort((cids, -S))[: self.k]
            rows.append(pd.DataFrame({"query_id": qid, "vec_id": cids[order],
                                      "sim": S[order]}))
        return pd.concat(rows, ignore_index=True)


def _train_centroids(sf_dir: str, n_cells: int, sample_rows: int = 4096,
                     iters: int = 10, seed: int = 53) -> np.ndarray:
    """Seeded Lloyd iterations over a deterministic corpus sample (the
    sample is bounded, so the driver-side training is O(sample);
    assignment of the full corpus stays distributed)."""
    def sample(b: pa.Table) -> pa.Table:
        ids = b["vec_id"].to_numpy(zero_copy_only=False)
        return b.filter(pa.array((ids >= N_QUERIES)
                                 & (ids < N_QUERIES + sample_rows)))

    t = _emb(sf_dir).map_batches(sample, batch_format="pyarrow",
                                 zero_copy_batch=True).take_all()
    # take_all's block order is nondeterministic across runs; canonical
    # vec_id order makes the seeded init (and float mean order) stable
    df = pd.DataFrame(t).sort_values("vec_id", ignore_index=True)
    X = np.stack(df["embedding"].to_numpy()).astype(np.float64)
    rng = np.random.default_rng(seed)
    C = X[rng.choice(len(X), size=min(n_cells, len(X)), replace=False)]
    for _ in range(iters):
        Cn = C / np.linalg.norm(C, axis=1, keepdims=True)
        Xn = X / np.linalg.norm(X, axis=1, keepdims=True)
        a = np.argmax(Xn @ Cn.T, axis=1)
        for c in range(len(C)):
            m = a == c
            if m.any():
                C[c] = X[m].mean(axis=0)
    return C


def _fixed_centroids(sf_dir: str, n_cells: int) -> np.ndarray:
    """Deterministic non-trained coarse centroids: the first `n_cells`
    corpus vectors after the queries (vec_id in [N_QUERIES, N_QUERIES +
    n_cells)). Being actual table rows, the quantizer is expressible in
    SQL over the same parquet -- which makes the WHOLE approximate IVF
    result value-oracle-checkable (the driver gate). Lloyd-trained
    centroids (`_train_centroids` / `ann_topk_ivf_lloyd`) quantize
    tighter when oracle-exactness can be traded for recall."""
    def pick(b: pa.Table) -> pa.Table:
        ids = b["vec_id"].to_numpy(zero_copy_only=False)
        return b.filter(pa.array((ids >= N_QUERIES)
                                 & (ids < N_QUERIES + n_cells)))

    t = _emb(sf_dir).map_batches(pick, batch_format="pyarrow",
                                 zero_copy_batch=True).take_all()
    df = pd.DataFrame(t).sort_values("vec_id", ignore_index=True)
    return np.stack(df["embedding"].to_numpy()).astype(np.float64)


def ann_topk_ivf(sf_dir: str, k: int = TOP_K, n_cells: int = 16,
                 n_probe: int = 4) -> pd.DataFrame:
    """Approximate top-k via IVF coarse quantization over FIXED
    corpus-vector centroids (see IvfTopK / _fixed_centroids): fully
    deterministic and mirrored 1:1 by the DuckDB oracle, so the
    approximation itself is hash-gated by the driver."""
    q_ids, Q = _query_matrix(sf_dir)
    C = _fixed_centroids(sf_dir, n_cells)
    # ctor args by VALUE (KB-scale): no user ObjectRef has to outlive
    # this scope for an actor restart (see _resolve). Ray Data still
    # puts the pool's constructor arguments in the object store and
    # logs one `core_worker.cc:2246` line per driver for it
    parts = _emb(sf_dir).map_batches(
        IvfTopK, batch_format="pyarrow", batch_size=8192, concurrency=2,
        fn_constructor_kwargs=dict(q_ref=(q_ids, Q), k=k, centroids_ref=C,
                                   n_probe=n_probe),
        zero_copy_batch=True).to_pandas()
    return _merge_topk(parts, k)


def ann_topk_ivf_lloyd(sf_dir: str, k: int = TOP_K, n_cells: int = 16,
                       n_probe: int = 4) -> pd.DataFrame:
    """IVF over seeded-Lloyd-trained centroids (the offline-training
    scale path; deterministic but not SQL-expressible -- recall vs the
    brute oracle is pytest-gated)."""
    q_ids, Q = _query_matrix(sf_dir)
    C = _train_centroids(sf_dir, n_cells)
    parts = _emb(sf_dir).map_batches(
        IvfTopK, batch_format="pyarrow", batch_size=8192, concurrency=2,
        fn_constructor_kwargs=dict(q_ref=(q_ids, Q), k=k, centroids_ref=C,
                                   n_probe=n_probe),
        zero_copy_batch=True).to_pandas()
    return _merge_topk(parts, k)


#: planted-duplicate id offset for the self-validating near-dup query
PLANT_OFFSET = 1_000_000


def embedding_near_dup_lsh(sf_dir: str, threshold: float = 0.9,
                           n_bands: int = 16, band_planes: int = 8,
                           modulus: int = 1,
                           plant_dup_mod: int = 0) -> pd.DataFrame:
    """Near-duplicate pairs at a GENUINE duplicate threshold (cos >=
    ~0.9) via banded hyperplane LSH -- the bucketed scale path promised
    by `embedding_near_dup`'s docstring:

      signature -> B bands of R planes -> co-partition by (band, sig)
      -> per-partition vectorized pair emission (the minhash shape)
      -> exact-cosine verification of candidates only.

    Recall at cos s per band is (1 - acos(s)/pi)^R: with R=8/B=16
    that's >0.999 at s=0.95 and ~0.43 per band at s=0.9 (misses
    ~1-(1-0.43^1)^16 ~ 1e-4). Background pairs (s~0.16 here) become
    candidates at ~13%, so this prunes ~8x -- hyperplane LSH is the
    honest-but-weak pruner on near-isotropic vectors; IVF cells
    (`ann_topk_ivf`) quantize harder when recall can be traded.

    ``plant_dup_mod``: when set, plants an EXACT duplicate of every
    vector with ``vec_id % plant_dup_mod == 0`` at id ``vec_id +
    PLANT_OFFSET``. Identical vectors share every band signature by
    construction, so recall on the planted pairs is exactly 1 (not
    w.h.p.) and the result is value-oracle-checkable in SQL -- the
    self-validating mode used by the driver gate."""
    rng = np.random.default_rng(271)

    def subset(b: pa.Table) -> pa.Table:
        if modulus > 1:
            ids = b["vec_id"].to_numpy(zero_copy_only=False)
            b = b.filter(pa.array(ids % modulus == 0))
        if plant_dup_mod:
            ids = b["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            m = ids % plant_dup_mod == 0
            dup = b.filter(pa.array(m))
            i = dup.schema.get_field_index("vec_id")
            dup = dup.set_column(i, "vec_id",
                                 pa.array(ids[m] + PLANT_OFFSET, pa.int64()))
            b = pa.concat_tables([b, dup])
        return b

    sub = _emb(sf_dir).map_batches(subset, batch_format="pyarrow",
                                   zero_copy_batch=True).materialize()
    first = sub.take(1)
    if not first:
        # empty subset (modulus filtered everything / empty table):
        # typed empty pair frame, like every other empty path here
        return pd.DataFrame({"id_a": pd.Series(dtype="int64"),
                             "id_b": pd.Series(dtype="int64")})
    dim = len(first[0]["embedding"])
    H = rng.standard_normal((dim, n_bands * band_planes))
    h_ref = ray.put(H)
    nparts = 16

    def band_rows(b: pa.Table) -> pd.DataFrame:
        from ..stages.joins import fetch_broadcast
        ids, X = _stack(b)
        if len(ids) == 0:
            return pd.DataFrame({"vec_id": pd.Series(dtype="int64"),
                                 "band_id": pd.Series(dtype="int32"),
                                 "sig": pd.Series(dtype="int64"),
                                 "part": pd.Series(dtype="int32")})
        Hh = fetch_broadcast(h_ref)
        bits = (X @ Hh > 0).reshape(len(ids), n_bands, band_planes)
        sig = np.zeros((len(ids), n_bands), dtype=np.int64)
        for r in range(band_planes):
            sig = sig * 2 + bits[:, :, r]
        band = np.tile(np.arange(n_bands, dtype=np.int32), len(ids))
        out = pd.DataFrame({"vec_id": np.repeat(ids, n_bands),
                            "band_id": band, "sig": sig.ravel()})
        out["part"] = ((out["sig"].to_numpy().astype(np.uint64)
                        * np.uint64(0x9E3779B97F4A7C15)
                        + out["band_id"].to_numpy().astype(np.uint64))
                       % np.uint64(nparts)).astype(np.int32)
        return out

    def emit_pairs(part: pd.DataFrame) -> pd.DataFrame:
        if part.empty:
            return pd.DataFrame({"id_a": pd.Series(dtype="int64"),
                                 "id_b": pd.Series(dtype="int64")})
        mm = part.drop_duplicates(["band_id", "sig", "vec_id"]) \
                 .sort_values(["band_id", "sig", "vec_id"], ignore_index=True)
        mix = (mm["band_id"].to_numpy().astype(np.int64) * np.int64(1_000_003)
               ^ mm["sig"].to_numpy().astype(np.int64))
        codes = pd.factorize(mix)[0]
        ids = mm["vec_id"].to_numpy(dtype=np.int64)
        sizes = np.bincount(codes)
        starts = np.zeros(len(sizes), dtype=np.int64)
        np.cumsum(sizes[:-1], out=starts[1:])
        out = []
        from ..functions.dedup import MAX_BUCKET_PAIRS
        for g in np.flatnonzero(sizes > 1):
            u = ids[starts[g]: starts[g] + sizes[g]]
            if len(u) > MAX_BUCKET_PAIRS:
                # mega-bucket (heavily duplicated cluster): all-pairs
                # is O(n^2); star-pair against the min id instead --
                # transitive verification still links the cluster
                # (same cap rule as dedup._partition_pairs)
                u = np.sort(u)
                out.append(pd.DataFrame({"id_a": u[0], "id_b": u[1:]}))
                continue
            iu = np.triu_indices(len(u), 1)
            out.append(pd.DataFrame({"id_a": u[iu[0]], "id_b": u[iu[1]]}))
        if not out:
            return pd.DataFrame({"id_a": pd.Series(dtype="int64"),
                                 "id_b": pd.Series(dtype="int64")})
        return pd.concat(out, ignore_index=True)

    from ..stages.exchange import exchange_map_groups
    band_ds = sub.map_batches(band_rows, batch_format="pyarrow",
                              zero_copy_batch=True)
    cand = exchange_map_groups(band_ds, "part", nparts,
                               emit_pairs).to_pandas()
    if cand.empty:
        return pd.DataFrame({"id_a": pd.Series(dtype="int64"),
                             "id_b": pd.Series(dtype="int64")})
    cand = cand.drop_duplicates(ignore_index=True)

    # exact-cosine verification, distributed: candidate embedding rows
    # route to exactly the partitions of the pairs that reference them
    # (stages/pairverify.py) -- embeddings move object store -> object
    # store; the driver only ever holds the candidate pair id list
    from ..stages.pairverify import routed_pair_verify
    cand_ids = np.unique(np.concatenate([cand["id_a"], cand["id_b"]]))
    ids_ref = ray.put(cand_ids.astype(np.int64))   # sorted array: isin is vectorized

    def fetch(b: pa.Table) -> pa.Table:
        from ..stages.joins import fetch_broadcast
        ids = b["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = np.isin(ids, fetch_broadcast(ids_ref))
        # stay ARROW end-to-end: the list<float> embedding column routes
        # through the exchange natively (a pandas object column of
        # ndarrays breaks Ray's cross-block schema unification)
        return b.select(["vec_id", "embedding"]).filter(pa.array(keep))

    items = sub.map_batches(fetch, batch_format="pyarrow",
                            zero_copy_batch=True)

    def verify_fn(payload: pd.DataFrame, pairs: pd.DataFrame) -> pd.DataFrame:
        payload = payload.drop_duplicates("vec_id")
        idx = {int(v): i for i, v in enumerate(payload["vec_id"])}
        E = np.stack([np.asarray(e, dtype=np.float64)
                      for e in payload["embedding"]])
        ia = pairs["id_a"].map(idx).to_numpy()
        ib = pairs["id_b"].map(idx).to_numpy()
        a, b2 = E[ia], E[ib]
        s = np.round((a * b2).sum(axis=1)
                     / (np.linalg.norm(a, axis=1)
                        * np.linalg.norm(b2, axis=1)), 6)
        return pairs[s > threshold]     # strict >: parity with the exact

    out = routed_pair_verify(cand, items, "vec_id", verify_fn,
                             num_partitions=nparts)
    if not len(out):
        return pd.DataFrame({"id_a": pd.Series(dtype="int64"),
                             "id_b": pd.Series(dtype="int64")})
    return out.sort_values(["id_a", "id_b"], ignore_index=True)


def embedding_near_dup_planted(sf_dir: str) -> pd.DataFrame:
    """Driver-gated self-validating variant of `embedding_near_dup_lsh`:
    exact duplicates planted at vec_id % 50 == 0 (copies at vec_id +
    PLANT_OFFSET) are the ONLY genuine near-dups in the synthetic corpus
    (measured background max cos ~0.48 << 0.9 threshold), so the result
    is exactly the planted pair set -- SQL-expressible -- while the full
    banded-LSH + distributed exact-cosine verify machinery runs for
    real. band_planes=16 keeps buckets tiny at any sf (identical vectors
    co-bucket regardless), so the mega-bucket star cap never engages on
    the planted pairs."""
    return embedding_near_dup_lsh(sf_dir, threshold=0.9, n_bands=8,
                                  band_planes=16, plant_dup_mod=50)


def embedding_near_dup(sf_dir: str, threshold: float = NEAR_DUP_THRESHOLD,
                       modulus: int = NEAR_DUP_MODULUS) -> pd.DataFrame:
    """Cosine near-duplicate pairs on the vec_id % modulus == 0 subset.

    Distributed exact all-pairs via block decomposition: the filtered
    subset's Arrow blocks stay in the object store (`block_refs`,
    nothing is collected to the driver) and one Ray task per block pair
    computes the O(rows_a x rows_b) similarity tile, returning only
    matching pairs. Work is O(n^2/cluster) and per-task memory is one
    tile -- the scale shape for thresholds that sit inside the corpus'
    background similarity (as here: 0.35 on near-isotropic vectors),
    where any bucketing prune necessarily loses recall. With a genuine
    duplicate threshold (cos >~ 0.9) the LSH-bucketed path
    (`LshTopK`-style hyperplane signatures + per-bucket pairs, the
    minhash_near_dup shape) prunes safely instead.

    Raw Ray tasks are justified here: a blockwise cross product isn't
    expressible as a Dataset stage (every block must meet every other)."""
    def subset(b: pa.Table) -> pa.Table:
        ids = b["vec_id"].to_numpy(zero_copy_only=False)
        return b.filter(pa.array(ids % modulus == 0))

    sub = _emb(sf_dir).map_batches(subset, batch_format="pyarrow",
                                   zero_copy_batch=True)
    refs = block_refs(sub)
    futures = [_block_pair_sims.remote(refs[i], refs[j], i == j, threshold)
               for i in range(len(refs)) for j in range(i, len(refs))]
    parts = [p for p in ray.get(futures) if len(p)]
    if not parts:
        return pd.DataFrame({"id_a": pd.Series(dtype="int64"),
                             "id_b": pd.Series(dtype="int64")})
    return pd.concat(parts, ignore_index=True).sort_values(
        ["id_a", "id_b"], ignore_index=True)


def semantic_decontaminate(sf_dir: str, bench_mod: int = 10,
                           threshold: float = NEAR_DUP_THRESHOLD) -> pd.DataFrame:
    """Embedding-space benchmark decontamination -- the semantic
    complement of `dedup.decontaminate` (n-gram overlap): vectors with
    ``vec_id % bench_mod == 0`` act as the held-out eval set; every
    training vector reports its NEAREST eval vector (argmax cosine,
    ties -> smaller eval id on 6-decimal-rounded sims) and whether
    that similarity crosses the contamination threshold. The argmax
    attribution keeps the check substantive even when nothing crosses
    the threshold.

    Scale shape: identical to `dedup.decontaminate` -- the eval side
    is fixed-size by construction, so its matrix broadcasts once
    (ray.put, zero-copy fetch per worker) and the training pass is a
    single streamed per-batch matmul; no shuffle, no join, vectors
    never leave their batch."""
    def eval_rows(batch: pa.Table) -> pa.Table:
        ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(ids % bench_mod == 0))

    # distributed filter: only the fixed-size eval side reaches the
    # driver (the full table never transits it)
    ev = block_refs(_emb(sf_dir).map_batches(eval_rows,
                                             batch_format="pyarrow",
                                             zero_copy_batch=True))
    parts = [_stack(t) for t in ray.get(ev) if t.num_rows]
    if not parts:
        raise ValueError(
            f"no vectors satisfy vec_id % {bench_mod} == 0: empty eval "
            "set, nothing to decontaminate against")
    ev_ids = np.concatenate([i for i, _ in parts])
    order = np.argsort(ev_ids, kind="stable")
    ev_ids = ev_ids[order]
    ev_ref = ray.put((ev_ids,
                      np.concatenate([x for _, x in parts])[order]))

    def score(batch: pa.Table) -> pd.DataFrame:
        from ..stages.joins import fetch_broadcast
        eids, E = fetch_broadcast(ev_ref)
        ids, X = _stack(batch)
        m = ids % bench_mod != 0
        ids, X = ids[m], X[m]
        if not len(ids):
            return pd.DataFrame({"vec_id": np.empty(0, np.int64),
                                 "nearest_eval_id": np.empty(0, np.int64),
                                 "contaminated": np.empty(0, np.int64)})
        S = _cosine(X, E)                       # rounded to 6 decimals
        # argmax with smaller-eval-id tie-break: eids ascending, so the
        # FIRST maximal column wins
        best = S.argmax(axis=1)
        mx = S[np.arange(len(ids)), best]
        return pd.DataFrame({"vec_id": ids,
                             "nearest_eval_id": eids[best],
                             "contaminated": (mx > threshold)
                             .astype(np.int64)})

    return _emb(sf_dir).map_batches(score, batch_format="pyarrow",
                                    batch_size=8192,
                                    zero_copy_batch=True).sort("vec_id")
