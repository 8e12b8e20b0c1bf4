"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship CDC replay on sf0.001; ``queries()`` maps
every implemented operator/pipeline from SURVEY.md §2 (plus the
training-data extensions) to a callable over an sf_dir;
``oracle_sql()`` gives the DuckDB-equivalent SQL for the value-hash
correctness gate. Only one entry is rows-only (genuinely
non-SQL-expressible): the Lloyd-trained IVF variant (recall
pytest-gated; the seeded-LSH and fixed-centroid-IVF ANN queries are
value-gated via 1:1 SQL mirrors of the approximation). Everything
else -- including the real-codec media queries, the sketches
(portable md5 fingerprint/SimHash), splits, packing, curation, and
all CDC paths -- is value-hash-checked.

Ray is initialised by the driver BEFORE this module is imported: no
ray.init()/ray.shutdown() here or in the library.

Float-parity rule: queries never emit floats produced by float SUMs;
money/value aggregates go through cents = floor(x*100+0.5)::int64
(functions/numeric.py) so distributed Ray sums equal DuckDB's exactly,
and the few emitted doubles are single divisions of exact integers.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Callable
from typing import Any

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

_CENTS = "CAST(FLOOR(({x}) * 100 + 0.5) AS BIGINT)"


def _c(x: str) -> str:
    return _CENTS.format(x=x)


def _lsh_plane_values(dim: int = 64, n_planes: int = 4) -> str:
    """The ann_topk_lsh hyperplane matrix (same seeded rng as the
    engine) as SQL VALUES literals -- repr round-trips float64 exactly,
    so the oracle's signatures equal the engine's bit for bit."""
    import numpy as np
    H = np.random.default_rng(97).standard_normal((dim, n_planes))
    return ",".join(f"({i},{j},{H[i, j]!r})"
                    for i in range(dim) for j in range(n_planes))


def _ann_centroid_values() -> str:
    """The ivf_index centroid matrix (matview.ann_centroids is the one
    source of truth) as (cell, DOUBLE[]) VALUES literals."""
    from techtalk_data_pipeline_snowpark_ray.pipelines.matview import (
        ann_centroids)
    C = ann_centroids()
    return ",\n".join(
        "({}, [{}])".format(i, ", ".join(repr(float(v)) for v in C[i]))
        for i in range(len(C)))


def _ann_query_literal() -> str:
    from techtalk_data_pipeline_snowpark_ray.pipelines.matview import (
        ANN_QUERY)
    return "[" + ", ".join(repr(float(v)) for v in ANN_QUERY) + "]"


#: the ivf_index embedding in SQL: counts of each digit '0'..'9'
_ANN_EMBED_SQL = ", ".join(
    f"CAST(length(text) - length(replace(text, '{d}', '')) AS DOUBLE)"
    for d in range(10))


def _curation_pipeline(sf_dir: str) -> Any:
    from techtalk_data_pipeline_snowpark_ray.pipelines.curation import curation_pipeline
    return curation_pipeline(sf_dir)


def _profile_documents(sf_dir: str) -> Any:
    from techtalk_data_pipeline_snowpark_ray.functions.profile import profile_table
    return profile_table(sf_dir, "documents")


def entry() -> Any:
    """Flagship pipeline: full CDC engine replay (WAL tail -> merge-apply
    -> atomic commit -> LWW snapshot) of a change stream derived from
    sf0.001 events."""
    from techtalk_data_pipeline_snowpark_ray.pipelines import cdc_queries
    return cdc_queries.cdc_apply_full("/root/testdata/sf0.001")


def queries() -> dict[str, Callable[[str], Any]]:
    from techtalk_data_pipeline_snowpark_ray.pipelines import analytics, cdc_queries
    from techtalk_data_pipeline_snowpark_ray.functions import (
        dedup, multimodal, packing, sampling, similarity, textstats)

    return {
        # --- CDC engine (SURVEY §2.5 U1-U7, §2.1 S7/S8, §2.3 ST2/ST3) ---
        "cdc_apply_full": cdc_queries.cdc_apply_full,
        "cdc_exactly_once": cdc_queries.cdc_exactly_once,
        "cdc_out_of_order": cdc_queries.cdc_out_of_order,
        "cdc_schema_evolution": cdc_queries.cdc_schema_evolution,
        "cdc_derived_conv_stats": cdc_queries.cdc_derived_conv_stats,
        "cdc_derived_role_stats": cdc_queries.cdc_derived_role_stats,
        "cdc_conditional_crud": cdc_queries.cdc_conditional_crud,
        "cdc_prefix_merge": cdc_queries.cdc_prefix_merge,
        "cdc_render_transcripts": cdc_queries.cdc_render_transcripts,
        "cdc_turn_windows": cdc_queries.cdc_turn_windows,
        "cdc_tool_call_stats": cdc_queries.cdc_tool_call_stats,
        "cdc_matview_conv_stats": cdc_queries.cdc_matview_conv_stats,
        "cdc_matview_role_stats": cdc_queries.cdc_matview_role_stats,
        "cdc_matview_hourly_activity":
            cdc_queries.cdc_matview_hourly_activity,
        "cdc_matview_role_tool_stats":
            cdc_queries.cdc_matview_role_tool_stats,
        "cdc_point_lookup": cdc_queries.cdc_point_lookup,
        "cdc_time_travel": cdc_queries.cdc_time_travel,
        "cdc_changefeed_delta": cdc_queries.cdc_changefeed_delta,
        "cdc_rollback_restore": cdc_queries.cdc_rollback_restore,
        "cdc_rollback_rewind": cdc_queries.cdc_rollback_rewind,
        "cdc_clone_divergence": cdc_queries.cdc_clone_divergence,
        "cdc_token_index": cdc_queries.cdc_token_index,
        "cdc_token_search": cdc_queries.cdc_token_search,
        "cdc_erase_conversation": cdc_queries.cdc_erase_conversation,
        "cdc_token_search_bool": cdc_queries.cdc_token_search_bool,
        "cdc_ann_search": cdc_queries.cdc_ann_search,
        "cdc_hybrid_search": cdc_queries.cdc_hybrid_search,
        "cdc_join_matview_drift": cdc_queries.cdc_join_matview_drift,
        "cdc_export_roundtrip": cdc_queries.cdc_export_roundtrip,
        "cdc_replicated_table": cdc_queries.cdc_replicated_table,
        "ingest_json_staged": cdc_queries.ingest_json_staged,
        "curation_pipeline": _curation_pipeline,
        # --- derived analytics (SURVEY §2.2/2.4/2.6/2.7) ---
        "q1_pricing_summary": analytics.q1_pricing_summary,
        "dq_overpaid_orders": analytics.dq_overpaid_orders,
        "urgent_orders_by_nation": analytics.urgent_orders_by_nation,
        "top_segments_last7d": analytics.top_segments_last7d,
        "derived_key_join": analytics.derived_key_join,
        "crud_filter_dedup": analytics.crud_filter_dedup,
        "union_tag": analytics.union_tag,
        "events_tumbling_window": analytics.events_tumbling_window,
        "events_hopping_window": analytics.events_hopping_window,
        "events_distinct_users": analytics.events_distinct_users,
        "events_sessionize": analytics.events_sessionize,
        "props_json_extract": analytics.props_json_extract,
        "events_semi_join": analytics.events_semi_join,
        "events_anti_join": analytics.events_anti_join,
        "events_funnel": analytics.events_funnel,
        "events_retention": analytics.events_retention,
        "events_asof_latest_order": analytics.events_asof_latest_order,
        "events_window_join": analytics.events_window_join,
        "top_events_per_user": analytics.top_events_per_user,
        "user_running_total": analytics.user_running_total,
        "events_weekday_pivot": analytics.events_weekday_pivot,
        "customer_event_counts": analytics.customer_event_counts,
        "user_journeys": analytics.user_journeys,
        "user_moving_sum": analytics.user_moving_sum,
        "nation_customer_supplier_counts": analytics.nation_customer_supplier_counts,
        "users_view_purchase_setops": analytics.users_view_purchase_setops,
        "orders_rollup": analytics.orders_rollup,
        "vocab_top_terms": textstats.vocab_top_terms,
        "bigram_counts": textstats.bigram_counts,
        "lm_novelty": textstats.lm_novelty,
        "tfidf_top_terms": textstats.tfidf_top_terms,
        "profile_documents": _profile_documents,
        "value_quantiles": analytics.value_quantiles,
        "top10_expensive_orders": analytics.top10_expensive_orders,
        # --- training-data ops (dedup / text / similarity) ---
        "token_counts": textstats.token_counts,
        "bpe_token_counts": textstats.bpe_token_counts,
        "doc_quality": textstats.doc_quality,
        "clean_text": textstats.clean_text,
        "lang_id": textstats.lang_id,
        "doc_fingerprint": textstats.doc_fingerprint,      # portable md5 mode
        "doc_split": sampling.doc_split,
        "doc_split_stratified": sampling.doc_split_stratified,
        "mixture_weights": sampling.mixture_weights,
        "sample_per_stratum": sampling.sample_per_stratum,
        "resample_epochs": sampling.resample_epochs,
        "pack_documents": packing.pack_documents,
        "chunk_documents": packing.chunk_documents,
        "doc_repetition": textstats.doc_repetition,
        "redact_pii": textstats.redact_pii,
        "decontaminate": dedup.decontaminate,
        "exact_dedup_documents": dedup.exact_dedup_documents,
        "exact_dedup_incremental": dedup.exact_dedup_incremental,
        "minhash_dedup_apply": dedup.minhash_dedup_apply,
        "minhash_near_dup": dedup.minhash_near_dup,
        "winnow_fingerprints": dedup.winnow_fingerprints,
        "minhash_dedup_clusters": dedup.minhash_dedup_clusters,
        "simhash_documents": dedup.simhash_documents,      # portable md5 mode
        "ngram_jaccard_pairs": dedup.ngram_jaccard_pairs,
        "ann_topk_cosine": similarity.ann_topk_cosine,
        "label_centroids": similarity.label_centroids,
        "embedding_near_dup": similarity.embedding_near_dup,
        "embedding_near_dup_lsh": similarity.embedding_near_dup_planted,
        "semantic_decontaminate": similarity.semantic_decontaminate,
        # approximate ANN, value-gated: the deterministic approximation
        # is mirrored 1:1 in SQL (seeded hyperplane literals / fixed
        # corpus-vector IVF centroids)
        "ann_topk_lsh": similarity.ann_topk_lsh,
        "ann_topk_ivf": similarity.ann_topk_ivf,
        "ann_topk_ivf_lloyd": similarity.ann_topk_ivf_lloyd,  # rows-only
        # --- multimodal: REAL pure-numpy BMP/PNG, WAV and Y4M codecs
        # (value-gated) ---
        "media_image_features": multimodal.media_image_features,
        "media_image_resized": multimodal.media_image_resized,
        "media_audio_features": multimodal.media_audio_features,
        "media_video_frame_features":
            multimodal.media_video_frame_features,
        "video_frame_samples": multimodal.video_frame_samples,
    }


# ---------------------------------------------------------------------------
# DuckDB oracles
# ---------------------------------------------------------------------------

_CDC_CH = """
    SELECT event_id AS lsn,
           CASE WHEN event_id % 10 < 6 THEN 'insert'
                WHEN event_id % 10 < 9 THEN 'update'
                ELSE 'delete' END AS op,
           'conv-' || CAST(user_id % 200 AS VARCHAR) AS conv_id,
           CAST((event_id * 7 + user_id) % 40 AS BIGINT) AS turn_idx,
           CASE CAST(event_id % 4 AS INTEGER) WHEN 0 THEN 'user' WHEN 1 THEN 'assistant'
                WHEN 2 THEN 'system' ELSE 'tool' END AS role,
           'txt-' || CAST(event_id AS VARCHAR) AS text,
           'tool-' || CAST(event_id % 7 AS VARCHAR) AS tool,
           ts
    FROM events
"""

_CDC_FINAL = f"""
WITH ch AS ({_CDC_CH}),
ranked AS (
  SELECT *, ROW_NUMBER() OVER (PARTITION BY conv_id, turn_idx ORDER BY lsn DESC) AS rn
  FROM ch
)
SELECT conv_id, turn_idx, role, text, tool, ts, CAST(NULL AS VARCHAR) AS model
FROM ranked WHERE rn = 1 AND op <> 'delete'
ORDER BY conv_id, turn_idx
"""

_CDC_EVOLUTION = f"""
WITH thr AS (SELECT MAX(event_id) // 2 AS t FROM events),
ch AS (
  SELECT event_id AS lsn,
         CASE WHEN event_id % 10 < 6 THEN 'insert'
              WHEN event_id % 10 < 9 THEN 'update'
              ELSE 'delete' END AS op,
         'conv-' || CAST(user_id % 200 AS VARCHAR) AS conv_id,
         CAST((event_id * 7 + user_id) % 40 AS INTEGER) AS turn_idx,
         CASE CAST(event_id % 4 AS INTEGER) WHEN 0 THEN 'user' WHEN 1 THEN 'assistant'
              WHEN 2 THEN 'system' ELSE 'tool' END AS role,
         'txt-' || CAST(event_id AS VARCHAR) AS text,
         'tool-' || CAST(event_id % 7 AS VARCHAR) AS tool,
         ts,
         CASE WHEN event_id >= (SELECT t FROM thr)
              THEN 'm-' || CAST(event_id % 3 AS VARCHAR) END AS model
  FROM events
),
ranked AS (
  SELECT *, ROW_NUMBER() OVER (PARTITION BY conv_id, turn_idx ORDER BY lsn DESC) AS rn
  FROM ch
)
SELECT conv_id, turn_idx, role, text, tool, ts, model
FROM ranked WHERE rn = 1 AND op <> 'delete'
ORDER BY conv_id, turn_idx
"""


# brute-force word-bigram Jaccard pairs (the sketch-free definition of
# near-duplicate); {where} restricts the doc subset. Shingling parity
# with functions/dedup.py:shingle_frame: whitespace split, bigrams for
# >=2 words, the single word for 1-word docs, "" for empty docs.
_JACCARD_PAIRS_SQL = r"""
WITH d AS (
  SELECT doc_id,
         regexp_split_to_array(trim(coalesce(text, '')), '\s+') AS ws
  FROM documents WHERE {where}
),
g AS (
  SELECT doc_id,
         CASE WHEN len(ws) >= 2 THEN list_distinct(
                  list_transform(range(1, len(ws)), i -> ws[i] || ' ' || ws[i + 1]))
              ELSE [ws[1]] END AS sh
  FROM d
)
SELECT a.doc_id AS id_a, b.doc_id AS id_b
FROM g a JOIN g b ON a.doc_id < b.doc_id
WHERE len(list_intersect(a.sh, b.sh)) * 1.0
      / len(list_distinct(a.sh || b.sh)) >= 0.5
ORDER BY id_a, id_b
"""

# heuristic language-ID parity with functions/textstats.py:LangId --
# same regexes (RE2 on both sides), same tie order (en > fr > es > de,
# pandas idxmax first-max semantics), same CJK-ratio override.
_LANG_ID_SQL = r"""
WITH s AS (
  SELECT doc_id,
    len(regexp_extract_all(coalesce(text, ''), '[一-鿿぀-ヿ]')) * 1.0
      / GREATEST(length(coalesce(text, '')), 1) AS cjk,
    len(regexp_extract_all(lower(coalesce(text, '')),
        '\b(the|and|of|to|in|is|that|for|with|was)\b')) AS c_en,
    len(regexp_extract_all(lower(coalesce(text, '')),
        '\b(le|la|les|et|des|une|est|dans|pour|que)\b')) AS c_fr,
    len(regexp_extract_all(lower(coalesce(text, '')),
        '\b(el|los|las|una|es|que|por|con|para|como)\b')) AS c_es,
    len(regexp_extract_all(lower(coalesce(text, '')),
        '\b(der|die|das|und|ist|ein|nicht|mit|auf|von)\b')) AS c_de
  FROM documents
)
SELECT doc_id,
  CASE WHEN cjk > 0.2 THEN 'zh'
       WHEN GREATEST(c_en, c_fr, c_es, c_de) = 0 THEN 'unknown'
       WHEN c_en >= c_fr AND c_en >= c_es AND c_en >= c_de THEN 'en'
       WHEN c_fr >= c_es AND c_fr >= c_de THEN 'fr'
       WHEN c_es >= c_de THEN 'es'
       ELSE 'de' END AS lang_pred
FROM s ORDER BY doc_id
"""


# conditional-CRUD oracle: per-key last event, then the two control
# ops applied in lsn order against the *state at their position* --
# C1 flags rows committed before it; C2 deletes current-'system' rows
# committed before it (a C1-flagged row escapes C2 even if it was
# 'system' before C1).
_CDC_CONDITIONAL = f"""
WITH ch AS ({_CDC_CH}),
mx AS (SELECT MAX(event_id) AS m FROM events),
ranked AS (
  SELECT *, ROW_NUMBER() OVER (PARTITION BY conv_id, turn_idx ORDER BY lsn DESC) AS rn
  FROM ch
),
base AS (
  SELECT conv_id, turn_idx, role, text, tool, ts, lsn
  FROM ranked WHERE rn = 1 AND op <> 'delete'
),
s1 AS (
  SELECT conv_id, turn_idx,
         CASE WHEN lsn < (SELECT m // 3 FROM mx) AND text LIKE 'txt-7%'
              THEN 'flagged' ELSE role END AS role,
         text, tool, ts, lsn
  FROM base
)
SELECT conv_id, turn_idx, role, text, tool, ts, CAST(NULL AS VARCHAR) AS model
FROM s1
WHERE NOT (lsn < (SELECT 2 * m // 3 FROM mx) AND role = 'system')
ORDER BY conv_id, turn_idx
"""

# prefix-merge oracle: the LWW fold keyed on the DERIVED key
# substr(conv_id, 1, 6) -- the reference's merge-on-substring shape.
_CDC_PREFIX = f"""
WITH ch0 AS ({_CDC_CH}),
ch AS (SELECT lsn, op, substr(conv_id, 1, 6) AS conv_id, turn_idx,
              role, text, tool, ts FROM ch0),
ranked AS (
  SELECT *, ROW_NUMBER() OVER (PARTITION BY conv_id, turn_idx ORDER BY lsn DESC) AS rn
  FROM ch
)
SELECT conv_id, turn_idx, role, text, tool, ts, CAST(NULL AS VARCHAR) AS model
FROM ranked WHERE rn = 1 AND op <> 'delete'
ORDER BY conv_id, turn_idx
"""


def oracle_sql() -> dict[str, str]:
    qty_c = _c("l_quantity")
    base_c = _c("l_extendedprice")
    disc_c = _c("l_extendedprice * (1 - l_discount)")
    tot_c = _c("o_totalprice")
    val_c = _c("value")

    return {
        "cdc_apply_full": _CDC_FINAL,
        # export round-trip: written-then-reread snapshot == resolve
        "cdc_export_roundtrip": _CDC_FINAL,
        # replicated table B == full resolve (v1 schema: no model,
        # int32 turn_idx)
        "cdc_replicated_table": f"""
            WITH ch AS ({_CDC_CH}),
            ranked AS (
              SELECT *, ROW_NUMBER() OVER (PARTITION BY conv_id, turn_idx
                                           ORDER BY lsn DESC) AS rn
              FROM ch
            )
            SELECT conv_id, CAST(turn_idx AS INTEGER) AS turn_idx,
                   role, text, tool, ts
            FROM ranked WHERE rn = 1 AND op <> 'delete'
            ORDER BY conv_id, turn_idx
        """,
        "cdc_exactly_once": _CDC_FINAL,   # duplicates must not change it
        "cdc_out_of_order": _CDC_FINAL,   # order must not change it
        "cdc_schema_evolution": _CDC_EVOLUTION,
        "cdc_derived_role_stats": f"""
            WITH ch AS ({_CDC_CH})
            SELECT role, COUNT(*) AS n_events,
                   CAST(MAX(lsn) AS BIGINT) AS max_lsn
            FROM ch WHERE op <> 'delete'
            GROUP BY role ORDER BY role
        """,
        "cdc_conditional_crud": _CDC_CONDITIONAL,
        "cdc_render_transcripts": f"""
            WITH ch AS ({_CDC_CH}),
            ranked AS (
              SELECT *, ROW_NUMBER() OVER (PARTITION BY conv_id, turn_idx
                                           ORDER BY lsn DESC) AS rn
              FROM ch
            ),
            fin AS (
              SELECT conv_id, turn_idx, role, text
              FROM ranked WHERE rn = 1 AND op <> 'delete'
            )
            SELECT conv_id, CAST(COUNT(*) AS BIGINT) AS n_turns,
                   string_agg(COALESCE(role, '') || ': ' ||
                              COALESCE(text, ''), chr(10)
                              ORDER BY turn_idx) AS transcript
            FROM fin GROUP BY conv_id ORDER BY conv_id
        """,
        # sliding w=4/stride=2 turn windows over the resolved table;
        # positions are post-fold ordinals, trailing windows only while
        # they add uncovered turns (n_win = max(1, ceil((n-2)/2)))
        "cdc_turn_windows": f"""
            WITH ch AS ({_CDC_CH}),
            ranked AS (
              SELECT *, ROW_NUMBER() OVER (PARTITION BY conv_id, turn_idx
                                           ORDER BY lsn DESC) AS rn
              FROM ch
            ),
            fin AS (
              SELECT conv_id, turn_idx, role, text
              FROM ranked WHERE rn = 1 AND op <> 'delete'
            ),
            agg AS (
              SELECT conv_id,
                     array_agg(COALESCE(role, '') || ': ' ||
                               COALESCE(text, '') ORDER BY turn_idx)
                       AS lines,
                     array_agg(turn_idx ORDER BY turn_idx) AS turns,
                     CAST(COUNT(*) AS BIGINT) AS n
              FROM fin GROUP BY conv_id),
            wn AS (
              SELECT *, greatest(1, CAST(ceil(CAST(n - 2 AS DOUBLE) / 2)
                                         AS BIGINT)) AS n_win
              FROM agg)
            SELECT conv_id, CAST(u.k AS BIGINT) AS window_idx,
                   CAST(turns[u.k * 2 + 1] AS BIGINT) AS turn_lo,
                   CAST(turns[least(u.k * 2 + 4, n)] AS BIGINT) AS turn_hi,
                   CAST(least(u.k * 2 + 4, n) - u.k * 2 AS BIGINT)
                     AS n_window_turns,
                   array_to_string(lines[u.k * 2 + 1 : least(u.k * 2 + 4, n)],
                                   chr(10)) AS window_text
            FROM wn CROSS JOIN UNNEST(range(wn.n_win)) AS u(k)
            ORDER BY conv_id, window_idx
        """,
        "cdc_prefix_merge": _CDC_PREFIX,
        # point-lookup serving path: one conversation's final turns
        "cdc_point_lookup": f"""
            WITH ch AS ({_CDC_CH}),
            ranked AS (
              SELECT *, ROW_NUMBER() OVER (PARTITION BY conv_id, turn_idx
                                           ORDER BY lsn DESC) AS rn
              FROM ch
            )
            SELECT conv_id, turn_idx, role, text, tool, ts,
                   CAST(NULL AS VARCHAR) AS model
            FROM ranked WHERE rn = 1 AND op <> 'delete'
              AND conv_id = 'conv-42'
            ORDER BY conv_id, turn_idx
        """,
        # agent-telemetry rollup over the RESOLVED table: per tool, the
        # final-state turn count and distinct conversations using it
        "cdc_tool_call_stats": f"""
            WITH ch AS ({_CDC_CH}),
            ranked AS (
              SELECT *, ROW_NUMBER() OVER (PARTITION BY conv_id, turn_idx
                                           ORDER BY lsn DESC) AS rn
              FROM ch
            ),
            fin AS (
              SELECT conv_id, tool FROM ranked
              WHERE rn = 1 AND op <> 'delete' AND tool IS NOT NULL
            )
            SELECT tool, COUNT(*) AS n_turns,
                   CAST(COUNT(DISTINCT conv_id) AS BIGINT) AS n_convs
            FROM fin GROUP BY tool ORDER BY tool
        """,
        "cdc_derived_conv_stats": f"""
            WITH ch AS ({_CDC_CH})
            SELECT conv_id, COUNT(*) AS n_events,
                   CAST(MAX(lsn) AS BIGINT) AS max_lsn
            FROM ch GROUP BY conv_id ORDER BY conv_id
        """,
        # incrementally-maintained matview over the RESOLVED state:
        # live-turn count / tool turns / text chars / max turn per conv
        "cdc_matview_conv_stats": f"""
            WITH ch AS ({_CDC_CH}),
            ranked AS (
              SELECT *, ROW_NUMBER() OVER (PARTITION BY conv_id, turn_idx
                                           ORDER BY lsn DESC) AS rn
              FROM ch
            ),
            fin AS (
              SELECT conv_id, turn_idx, text, tool
              FROM ranked WHERE rn = 1 AND op <> 'delete'
            )
            SELECT conv_id, COUNT(*) AS n_turns,
                   CAST(COUNT(tool) AS BIGINT) AS n_tool_turns,
                   CAST(SUM(COALESCE(length(text), 0)) AS BIGINT)
                     AS text_chars,
                   CAST(MAX(turn_idx) AS BIGINT) AS max_turn_idx
            FROM fin GROUP BY conv_id ORDER BY conv_id
        """,
        # grouped matview (non-key grouping, bucket-partial merge):
        # per-role live stats over the resolved state
        "cdc_matview_role_stats": f"""
            WITH ch AS ({_CDC_CH}),
            ranked AS (
              SELECT *, ROW_NUMBER() OVER (PARTITION BY conv_id, turn_idx
                                           ORDER BY lsn DESC) AS rn
              FROM ch
            ),
            fin AS (
              SELECT role, turn_idx, text
              FROM ranked WHERE rn = 1 AND op <> 'delete'
            )
            SELECT role, COUNT(*) AS n_turns,
                   CAST(SUM(COALESCE(length(text), 0)) AS BIGINT)
                     AS text_chars,
                   CAST(MAX(turn_idx) AS BIGINT) AS max_turn_idx
            FROM fin WHERE role IS NOT NULL
            GROUP BY role ORDER BY role
        """,
        # windowed grouped matview: event-time tumbling (1h) aggregate
        # over the resolved state; n_convs is a distinct count made
        # distributive by bucket-exclusive conversation partitioning
        "cdc_matview_hourly_activity": f"""
            WITH ch AS ({_CDC_CH}),
            ranked AS (
              SELECT *, ROW_NUMBER() OVER (PARTITION BY conv_id, turn_idx
                                           ORDER BY lsn DESC) AS rn
              FROM ch
            ),
            fin AS (
              SELECT conv_id, turn_idx, ts
              FROM ranked WHERE rn = 1 AND op <> 'delete'
            )
            SELECT date_trunc('hour', ts) AS window_start,
                   CAST(COUNT(DISTINCT conv_id) AS BIGINT) AS n_convs,
                   CAST(COUNT(*) AS BIGINT) AS n_turns,
                   CAST(MAX(turn_idx) AS BIGINT) AS max_turn_idx
            FROM fin WHERE ts IS NOT NULL
            GROUP BY 1 ORDER BY 1
        """,
        # multi-column grouped matview ((role, tool) pair; NULL tool is
        # a real group — deleted turns drop, non-tool turns group as
        # NULL, mirrored by SQL's null-preserving GROUP BY)
        "cdc_matview_role_tool_stats": f"""
            WITH ch AS ({_CDC_CH}),
            ranked AS (
              SELECT *, ROW_NUMBER() OVER (PARTITION BY conv_id, turn_idx
                                           ORDER BY lsn DESC) AS rn
              FROM ch
            ),
            fin AS (
              SELECT role, tool
              FROM ranked WHERE rn = 1 AND op <> 'delete'
            )
            SELECT role, tool, CAST(COUNT(*) AS BIGINT) AS n_turns
            FROM fin WHERE role IS NOT NULL
            GROUP BY role, tool ORDER BY role, tool
        """,
        # time travel: the table AS OF the phase-1 commit (phase split
        # at the deterministic lsn cutoff max(event_id)//2)
        "cdc_time_travel": f"""
            WITH ch AS ({_CDC_CH}),
            ph1 AS (
              SELECT * FROM ch
              WHERE lsn <= (SELECT MAX(event_id) // 2 FROM events)
            ),
            ranked AS (
              SELECT *, ROW_NUMBER() OVER (PARTITION BY conv_id, turn_idx
                                           ORDER BY lsn DESC) AS rn
              FROM ph1
            )
            SELECT conv_id, CAST(turn_idx AS INTEGER) AS turn_idx,
                   role, text, tool, ts
            FROM ranked WHERE rn = 1 AND op <> 'delete'
            ORDER BY conv_id, turn_idx
        """,
        # physical erasure: the resolved table minus the erased key
        # (the engine asserts in-code that bytes actually left every
        # referenced file and the WAL)
        "cdc_erase_conversation": f"""
            WITH ch AS ({_CDC_CH}),
            ranked AS (
              SELECT *, ROW_NUMBER() OVER (PARTITION BY conv_id, turn_idx
                                           ORDER BY lsn DESC) AS rn
              FROM ch
            )
            SELECT conv_id, turn_idx, role, text, tool, ts,
                   CAST(NULL AS VARCHAR) AS model
            FROM ranked
            WHERE rn = 1 AND op <> 'delete' AND conv_id <> 'conv-0'
            ORDER BY conv_id, turn_idx
        """,
        # inverted text index (grouped matview): token -> occurrence
        # count + distinct-conversation count over the resolved state;
        # regexp_split_to_array is RE2, bit-identical to the engine's
        # split_pattern_regex tokenizer
        "cdc_token_index": f"""
            WITH ch AS ({_CDC_CH}),
            ranked AS (
              SELECT *, ROW_NUMBER() OVER (PARTITION BY conv_id, turn_idx
                                           ORDER BY lsn DESC) AS rn
              FROM ch
            ),
            fin AS (
              SELECT conv_id, text
              FROM ranked WHERE rn = 1 AND op <> 'delete'
            ),
            tok AS (
              SELECT conv_id,
                     unnest(regexp_split_to_array(lower(text),
                                                  '[^a-z0-9]+')) AS token
              FROM fin
            )
            SELECT token, CAST(COUNT(*) AS BIGINT) AS n_hits,
                   CAST(COUNT(DISTINCT conv_id) AS BIGINT) AS n_convs
            FROM tok WHERE token <> ''
            GROUP BY token ORDER BY token
        """,
        # index-pruned search for the 10 largest numeric tokens; each
        # live row's text is 'txt-<winning lsn>', so numeric tokens
        # are 1:1 with live rows and the result is the top-10 rows by
        # numeric text suffix
        "cdc_token_search": f"""
            WITH ch AS ({_CDC_CH}),
            ranked AS (
              SELECT *, ROW_NUMBER() OVER (PARTITION BY conv_id, turn_idx
                                           ORDER BY lsn DESC) AS rn
              FROM ch
            ),
            fin AS (
              SELECT conv_id, CAST(turn_idx AS INTEGER) AS turn_idx,
                     role, text, tool, ts
              FROM ranked WHERE rn = 1 AND op <> 'delete'
            )
            SELECT * FROM fin
            ORDER BY CAST(substr(text, 5) AS BIGINT) DESC
            LIMIT 10
        """,
        # hybrid search: candidates = the ten largest-numeric-token
        # rows (token-index pruned+verified, 1:1 with live rows),
        # ranked by rounded cosine of the digit-count embedding vs the
        # fixed query, top 5
        "cdc_hybrid_search": f"""
            WITH ch AS ({_CDC_CH}),
            ranked AS (
              SELECT *, ROW_NUMBER() OVER (PARTITION BY conv_id, turn_idx
                                           ORDER BY lsn DESC) AS rn
              FROM ch
            ),
            fin AS (
              SELECT conv_id, CAST(turn_idx AS INTEGER) AS turn_idx,
                     role, text, tool, ts
              FROM ranked WHERE rn = 1 AND op <> 'delete'
            ),
            cand AS (
              SELECT * FROM fin
              ORDER BY CAST(substr(text, 5) AS BIGINT) DESC
              LIMIT 10
            ),
            scored AS (
              SELECT *, ROW_NUMBER() OVER (
                ORDER BY ROUND(list_cosine_similarity(
                           {_ann_query_literal()},
                           [{_ANN_EMBED_SQL}]), 6) DESC,
                         conv_id, turn_idx) AS rk
              FROM cand
            )
            SELECT conv_id, turn_idx, role, text, tool, ts
            FROM scored WHERE rk <= 5
            ORDER BY conv_id, turn_idx
        """,
        # ANN search over the CDC table via the IVF grouped matview:
        # embeddings are digit-count vectors of the live texts, cells
        # assign by rounded cosine to the inlined centroid matrix
        # (matview.ann_centroids — repr round-trips float64 exactly),
        # the fixed query probes its 4 nearest cells, candidates rank
        # by exact rounded cosine, top-10
        "cdc_ann_search": f"""
            WITH ch AS ({_CDC_CH}),
            ranked AS (
              SELECT *, ROW_NUMBER() OVER (PARTITION BY conv_id, turn_idx
                                           ORDER BY lsn DESC) AS rn
              FROM ch
            ),
            fin AS (
              SELECT conv_id, CAST(turn_idx AS BIGINT) AS turn_idx, text
              FROM ranked
              WHERE rn = 1 AND op <> 'delete' AND text IS NOT NULL
            ),
            emb AS (
              SELECT conv_id, turn_idx, [{_ANN_EMBED_SQL}] AS e
              FROM fin
            ),
            emb2 AS (SELECT * FROM emb WHERE list_sum(e) > 0),
            cent AS (SELECT * FROM (VALUES {_ann_centroid_values()})
                     AS t(cell, cemb)),
            asg AS (
              SELECT emb2.conv_id, emb2.turn_idx, cent.cell,
                     ROW_NUMBER() OVER (
                       PARTITION BY emb2.conv_id, emb2.turn_idx
                       ORDER BY ROUND(list_cosine_similarity(
                                        emb2.e, cent.cemb), 6) DESC,
                                cent.cell) AS rn
              FROM emb2 CROSS JOIN cent
            ),
            cellof AS (SELECT conv_id, turn_idx, cell
                       FROM asg WHERE rn = 1),
            probes AS (
              SELECT cell FROM (
                SELECT cell, ROW_NUMBER() OVER (
                  ORDER BY ROUND(list_cosine_similarity(
                             {_ann_query_literal()}, cemb), 6) DESC,
                           cell) AS rn
                FROM cent
              ) WHERE rn <= 4
            ),
            cand AS (
              SELECT e.conv_id, e.turn_idx, e.e
              FROM emb2 e JOIN cellof c USING (conv_id, turn_idx)
              WHERE c.cell IN (SELECT cell FROM probes)
            ),
            top AS (
              SELECT conv_id, turn_idx,
                     ROW_NUMBER() OVER (
                       ORDER BY ROUND(list_cosine_similarity(
                                  {_ann_query_literal()}, e), 6) DESC,
                                conv_id, turn_idx) AS rk
              FROM cand
            )
            SELECT conv_id, turn_idx FROM top WHERE rk <= 10
            ORDER BY conv_id, turn_idx
        """,
        # cross-table join matview: table A = full stream fold, table
        # B = even-lsn shadow fold, FULL OUTER per conversation with
        # both sides' live stats and the drift
        "cdc_join_matview_drift": f"""
            WITH ch AS ({_CDC_CH}),
            fa AS (
              SELECT conv_id, text FROM (
                SELECT *, ROW_NUMBER() OVER (
                    PARTITION BY conv_id, turn_idx
                    ORDER BY lsn DESC) AS rn
                FROM ch
              ) WHERE rn = 1 AND op <> 'delete'
            ),
            fb AS (
              SELECT conv_id, text FROM (
                SELECT *, ROW_NUMBER() OVER (
                    PARTITION BY conv_id, turn_idx
                    ORDER BY lsn DESC) AS rn
                FROM ch WHERE lsn % 2 = 0
              ) WHERE rn = 1 AND op <> 'delete'
            ),
            sa AS (SELECT conv_id, COUNT(*) AS n_turns_a,
                          SUM(length(text)) AS chars_a
                   FROM fa GROUP BY conv_id),
            sb AS (SELECT conv_id, COUNT(*) AS n_turns_b,
                          SUM(length(text)) AS chars_b
                   FROM fb GROUP BY conv_id)
            SELECT COALESCE(sa.conv_id, sb.conv_id) AS conv_id,
                   CAST(COALESCE(n_turns_a, 0) AS BIGINT) AS n_turns_a,
                   CAST(COALESCE(chars_a, 0) AS BIGINT) AS chars_a,
                   CAST(COALESCE(n_turns_b, 0) AS BIGINT) AS n_turns_b,
                   CAST(COALESCE(chars_b, 0) AS BIGINT) AS chars_b,
                   CAST(COALESCE(n_turns_a, 0) - COALESCE(n_turns_b, 0)
                        AS BIGINT) AS turn_diff
            FROM sa FULL OUTER JOIN sb ON sa.conv_id = sb.conv_id
            ORDER BY 1
        """,
        # boolean index search ('txt' AND any of the 5 largest numeric
        # tokens = the top-5 rows by numeric text suffix)
        "cdc_token_search_bool": f"""
            WITH ch AS ({_CDC_CH}),
            ranked AS (
              SELECT *, ROW_NUMBER() OVER (PARTITION BY conv_id, turn_idx
                                           ORDER BY lsn DESC) AS rn
              FROM ch
            ),
            fin AS (
              SELECT conv_id, CAST(turn_idx AS INTEGER) AS turn_idx,
                     role, text, tool, ts
              FROM ranked WHERE rn = 1 AND op <> 'delete'
            )
            SELECT * FROM fin
            ORDER BY CAST(substr(text, 5) AS BIGINT) DESC
            LIMIT 5
        """,
        # rollback (restore): the table after rolling back to the
        # phase-1 commit = the phase-1 resolved state (and the engine
        # asserts in-code that the kept offset does NOT re-consume)
        "cdc_rollback_restore": f"""
            WITH ch AS ({_CDC_CH}),
            ph1 AS (
              SELECT * FROM ch
              WHERE lsn <= (SELECT MAX(event_id) // 2 FROM events)
            ),
            ranked AS (
              SELECT *, ROW_NUMBER() OVER (PARTITION BY conv_id, turn_idx
                                           ORDER BY lsn DESC) AS rn
              FROM ph1
            )
            SELECT conv_id, CAST(turn_idx AS INTEGER) AS turn_idx,
                   role, text, tool, ts
            FROM ranked WHERE rn = 1 AND op <> 'delete'
            ORDER BY conv_id, turn_idx
        """,
        # rollback (rewind): offset rewinds with the content, the next
        # tick re-consumes phase 2, and the idempotent LWW fold
        # converges back to the FULL-stream resolved state
        "cdc_rollback_rewind": f"""
            WITH ch AS ({_CDC_CH}),
            ranked AS (
              SELECT *, ROW_NUMBER() OVER (PARTITION BY conv_id, turn_idx
                                           ORDER BY lsn DESC) AS rn
              FROM ch
            )
            SELECT conv_id, CAST(turn_idx AS INTEGER) AS turn_idx,
                   role, text, tool, ts
            FROM ranked WHERE rn = 1 AND op <> 'delete'
            ORDER BY conv_id, turn_idx
        """,
        # zero-copy clone forked at phase 1, then fed phase 2 from the
        # shared WAL: the diverged clone holds the full-stream state
        # (the engine asserts in-code the source stayed at phase 1)
        "cdc_clone_divergence": f"""
            WITH ch AS ({_CDC_CH}),
            ranked AS (
              SELECT *, ROW_NUMBER() OVER (PARTITION BY conv_id, turn_idx
                                           ORDER BY lsn DESC) AS rn
              FROM ch
            )
            SELECT conv_id, CAST(turn_idx AS INTEGER) AS turn_idx,
                   role, text, tool, ts
            FROM ranked WHERE rn = 1 AND op <> 'delete'
            ORDER BY conv_id, turn_idx
        """,
        # changefeed: collapsed change records of the phase-2 window,
        # one row per touched key with (op, lsn); op mirrors the fold:
        # delete if the last event deletes, full if an insert outlives
        # the last delete, else partial (update with no base in-window)
        "cdc_changefeed_delta": f"""
            WITH ch AS ({_CDC_CH}),
            ph2 AS (
              SELECT * FROM ch
              WHERE lsn > (SELECT MAX(event_id) // 2 FROM events)
            ),
            k AS (
              SELECT conv_id, turn_idx, MAX(lsn) AS lsn,
                     MAX(CASE WHEN op = 'delete' THEN lsn
                              ELSE -1 END) AS del_lsn,
                     MAX(CASE WHEN op = 'insert' THEN lsn
                              ELSE -1 END) AS ins_lsn
              FROM ph2 GROUP BY conv_id, turn_idx
            )
            SELECT p.conv_id, CAST(p.turn_idx AS INTEGER) AS turn_idx,
                   p.lsn,
                   CASE WHEN p.op = 'delete' THEN 'delete'
                        WHEN k.ins_lsn > k.del_lsn THEN 'full'
                        ELSE 'partial' END AS op,
                   CASE WHEN p.op = 'delete' THEN NULL
                        ELSE p.role END AS role,
                   CASE WHEN p.op = 'delete' THEN NULL
                        ELSE p.text END AS text,
                   CASE WHEN p.op = 'delete' THEN NULL
                        ELSE p.tool END AS tool,
                   p.ts
            FROM ph2 p JOIN k
              ON p.conv_id = k.conv_id AND p.turn_idx = k.turn_idx
             AND p.lsn = k.lsn
            ORDER BY p.conv_id, p.turn_idx
        """,
        "ingest_json_staged": f"""
            SELECT event_id, user_id, event_type,
                   {val_c} AS value_c, ts
            FROM events ORDER BY event_id
        """,
        "q1_pricing_summary": f"""
            SELECT l_returnflag, l_linestatus,
                   CAST(SUM({qty_c}) AS BIGINT) AS sum_qty_c,
                   CAST(SUM({base_c}) AS BIGINT) AS sum_base_c,
                   CAST(SUM({disc_c}) AS BIGINT) AS sum_disc_c,
                   COUNT(*) AS count_order,
                   (CAST(CAST(SUM({qty_c}) AS BIGINT) AS DOUBLE) / 100.0)
                     / CAST(COUNT(*) AS DOUBLE) AS avg_qty
            FROM lineitem
            WHERE l_shipdate < TIMESTAMP '1997-01-01'
            GROUP BY l_returnflag, l_linestatus
            ORDER BY l_returnflag, l_linestatus
        """,
        "dq_overpaid_orders": f"""
            WITH rev AS (
              SELECT l_orderkey AS o_orderkey,
                     CAST(SUM({disc_c}) AS BIGINT) AS rev_c
              FROM lineitem GROUP BY l_orderkey
            )
            SELECT r.o_orderkey, r.rev_c, {tot_c} AS tot_c
            FROM rev r JOIN orders o ON o.o_orderkey = r.o_orderkey
            WHERE r.rev_c > {tot_c}
            ORDER BY r.o_orderkey
        """,
        "urgent_orders_by_nation": f"""
            SELECT n_name, COUNT(*) AS n_orders,
                   CAST(SUM({tot_c}) AS BIGINT) AS sum_tot_c
            FROM orders
            JOIN customer ON c_custkey = o_custkey
            JOIN nation ON n_nationkey = c_nationkey
            WHERE o_orderpriority = '1-URGENT'
            GROUP BY n_name ORDER BY n_orders DESC, n_name
        """,
        "top_segments_last7d": f"""
            WITH mx AS (SELECT MAX(ts) AS hi FROM events),
            w AS (
              SELECT user_id, {val_c} AS value_c
              FROM events, mx WHERE ts > hi - INTERVAL 7 DAY AND ts <= hi
            )
            SELECT c_mktsegment, COUNT(*) AS n_events,
                   CAST(SUM(value_c) AS BIGINT) AS sum_value_c,
                   (CAST(CAST(SUM(value_c) AS BIGINT) AS DOUBLE) / 100.0)
                     / CAST(COUNT(*) AS DOUBLE) AS avg_value
            FROM w JOIN customer ON c_custkey = user_id
            GROUP BY c_mktsegment ORDER BY n_events DESC, c_mktsegment
        """,
        "derived_key_join": """
            WITH c AS (SELECT UPPER(regexp_extract(c_name, '(.)$', 1)) AS k FROM customer),
                 n AS (SELECT UPPER(regexp_extract(n_name, '(.)$', 1)) AS k FROM nation)
            SELECT c.k AS k, COUNT(*) AS n_pairs
            FROM c JOIN n ON c.k = n.k
            GROUP BY c.k ORDER BY k
        """,
        "crud_filter_dedup": """
            SELECT p_brand, CAST(MIN(p_partkey) AS BIGINT) AS p_partkey
            FROM part
            WHERE (p_type LIKE '%ECONOMY%' OR p_type LIKE '%SMALL%')
              AND lower(p_name) LIKE 'b%'
            GROUP BY p_brand ORDER BY p_brand
        """,
        "union_tag": """
            SELECT 'region' AS src, r_name AS name FROM region
            UNION ALL
            SELECT 'nation' AS src, n_name AS name FROM nation
        """,
        "events_tumbling_window": f"""
            SELECT event_type, date_trunc('hour', ts) AS hour,
                   COUNT(*) AS n, CAST(SUM({val_c}) AS BIGINT) AS sum_value_c
            FROM events GROUP BY event_type, date_trunc('hour', ts)
            ORDER BY event_type, hour
        """,
        "events_hopping_window": f"""
            SELECT time_bucket(INTERVAL 30 MINUTE, ts)
                     - i * INTERVAL 30 MINUTE AS window_start,
                   event_type, COUNT(*) AS n,
                   CAST(SUM({val_c}) AS BIGINT) AS sum_value_c
            FROM events CROSS JOIN UNNEST([0, 1]) AS t(i)
            GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "events_distinct_users": """
            SELECT event_type,
                   CAST(COUNT(DISTINCT user_id) AS BIGINT) AS n_users
            FROM events GROUP BY event_type ORDER BY event_type
        """,
        "events_sessionize": """
            WITH d AS (
              SELECT user_id,
                     ts - LAG(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS gap
              FROM events
            )
            SELECT user_id,
                   CAST(SUM(CASE WHEN gap IS NULL OR gap > INTERVAL 30 MINUTE
                                 THEN 1 ELSE 0 END) AS BIGINT) AS n_sessions,
                   COUNT(*) AS n_events
            FROM d GROUP BY user_id ORDER BY user_id
        """,
        "events_semi_join": """
            SELECT event_type, COUNT(*) AS n
            FROM events
            WHERE user_id IN (SELECT o_custkey FROM orders
                              WHERE o_orderpriority = '1-URGENT')
            GROUP BY event_type ORDER BY event_type
        """,
        "events_anti_join": """
            SELECT event_type, COUNT(*) AS n
            FROM events
            WHERE user_id NOT IN (SELECT o_custkey FROM orders
                                  WHERE o_orderpriority = '1-URGENT')
            GROUP BY event_type ORDER BY event_type
        """,
        "events_retention": """
            WITH w AS (SELECT user_id, date_trunc('week', ts) AS week
                       FROM events),
            c AS (SELECT user_id, week,
                         MIN(week) OVER (PARTITION BY user_id) AS cohort
                  FROM w),
            d AS (SELECT DISTINCT user_id, cohort,
                         CAST(date_diff('day', cohort, week) // 7 AS BIGINT)
                           AS weeks_since
                  FROM c)
            SELECT CAST(cohort AS TIMESTAMP) AS cohort_week, weeks_since,
                   COUNT(*) AS n_users
            FROM d GROUP BY cohort, weeks_since
            ORDER BY cohort_week, weeks_since
        """,
        "events_funnel": """
            WITH v AS (
              SELECT user_id, ts, event_id,
                     ROW_NUMBER() OVER (PARTITION BY user_id
                                        ORDER BY ts, event_id) AS rn
              FROM events WHERE event_type = 'view'),
            s1 AS (SELECT user_id, ts AS t, event_id AS e FROM v WHERE rn = 1),
            c AS (
              SELECT e.user_id, e.ts, e.event_id,
                     ROW_NUMBER() OVER (PARTITION BY e.user_id
                                        ORDER BY e.ts, e.event_id) AS rn
              FROM events e JOIN s1 ON s1.user_id = e.user_id
              WHERE e.event_type = 'click'
                AND (e.ts, e.event_id) > (s1.t, s1.e)),
            s2 AS (SELECT user_id, ts AS t, event_id AS e FROM c WHERE rn = 1),
            p AS (
              SELECT e.user_id, e.ts, e.event_id,
                     ROW_NUMBER() OVER (PARTITION BY e.user_id
                                        ORDER BY e.ts, e.event_id) AS rn
              FROM events e JOIN s2 ON s2.user_id = e.user_id
              WHERE e.event_type = 'purchase'
                AND (e.ts, e.event_id) > (s2.t, s2.e)),
            s3 AS (SELECT user_id FROM p WHERE rn = 1)
            SELECT CAST(1 AS BIGINT) AS step, COUNT(*) AS n_users FROM s1
            UNION ALL SELECT CAST(2 AS BIGINT), COUNT(*) FROM s2
            UNION ALL SELECT CAST(3 AS BIGINT), COUNT(*) FROM s3
            ORDER BY step
        """,
        "events_asof_latest_order": """
            WITH j AS (
              SELECT e.event_id, o.o_orderkey,
                     ROW_NUMBER() OVER (
                       PARTITION BY e.event_id
                       ORDER BY o.o_orderdate DESC, o.o_orderkey DESC) AS rn
              FROM events e JOIN orders o
                ON o.o_custkey = e.user_id
               AND CAST(o.o_orderdate AS TIMESTAMP) <= e.ts
            )
            SELECT event_id, o_orderkey FROM j WHERE rn = 1
            ORDER BY event_id
        """,
        "events_window_join": """
            SELECT v.user_id, COUNT(*) AS n_pairs
            FROM events v JOIN events p
              ON p.user_id = v.user_id
             AND p.ts >= v.ts AND p.ts < v.ts + INTERVAL 24 HOUR
            WHERE v.event_type = 'view' AND p.event_type = 'purchase'
            GROUP BY v.user_id ORDER BY v.user_id
        """,
        "top_events_per_user": f"""
            WITH r AS (
              SELECT user_id, event_id, {val_c} AS value_c,
                     ROW_NUMBER() OVER (
                       PARTITION BY user_id
                       ORDER BY {val_c} DESC, event_id) AS rn
              FROM events)
            SELECT user_id, event_id, value_c FROM r WHERE rn <= 3
            ORDER BY user_id, event_id
        """,
        "user_journeys": """
            WITH r AS (
              SELECT user_id, event_type,
                     ROW_NUMBER() OVER (PARTITION BY user_id
                                        ORDER BY ts, event_id) AS rn
              FROM events)
            SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_steps,
                   string_agg(event_type, '>' ORDER BY rn) AS journey
            FROM r WHERE rn <= 20
            GROUP BY user_id ORDER BY user_id
        """,
        "user_moving_sum": f"""
            SELECT user_id, event_id,
                   CAST(SUM({val_c}) OVER (
                        PARTITION BY user_id ORDER BY ts, event_id
                        ROWS BETWEEN 2 PRECEDING AND CURRENT ROW)
                        AS BIGINT) AS moving_c
            FROM events ORDER BY event_id
        """,
        "nation_customer_supplier_counts": """
            WITH c AS (SELECT c_nationkey AS nk, COUNT(*) AS n_cust
                       FROM customer WHERE c_acctbal < -900 GROUP BY 1),
                 s AS (SELECT s_nationkey AS nk, COUNT(*) AS n_supp
                       FROM supplier WHERE s_acctbal < 0 GROUP BY 1)
            SELECT CAST(COALESCE(c.nk, s.nk) AS BIGINT) AS n_nationkey,
                   CAST(COALESCE(n_cust, 0) AS BIGINT) AS n_cust,
                   CAST(COALESCE(n_supp, 0) AS BIGINT) AS n_supp
            FROM c FULL OUTER JOIN s ON c.nk = s.nk
            ORDER BY n_nationkey
        """,
        "users_view_purchase_setops": """
            WITH v AS (SELECT DISTINCT user_id FROM events
                       WHERE event_type = 'view'),
                 p AS (SELECT DISTINCT user_id FROM events
                       WHERE event_type = 'purchase')
            SELECT 'both' AS set_op, CAST(COUNT(*) AS BIGINT) AS n_users
            FROM (SELECT user_id FROM v INTERSECT SELECT user_id FROM p)
            UNION ALL SELECT 'purchase_only', COUNT(*)
            FROM (SELECT user_id FROM p EXCEPT SELECT user_id FROM v)
            UNION ALL SELECT 'view_only', COUNT(*)
            FROM (SELECT user_id FROM v EXCEPT SELECT user_id FROM p)
            ORDER BY set_op
        """,
        "events_weekday_pivot": """
            SELECT event_type,
                   """ + ", ".join(
                       f"CAST(SUM(CASE WHEN isodow(ts) - 1 = {d} THEN 1 "
                       f"ELSE 0 END) AS BIGINT) AS n_d{d}"
                       for d in range(7)) + """
            FROM events GROUP BY event_type ORDER BY event_type
        """,
        "orders_rollup": f"""
            SELECT o_orderstatus, o_orderpriority,
                   CAST(COUNT(*) AS BIGINT) AS n_orders,
                   CAST(SUM({_CENTS.format(x='o_totalprice')}) AS BIGINT)
                     AS sum_total_c
            FROM orders
            GROUP BY ROLLUP (o_orderstatus, o_orderpriority)
            ORDER BY o_orderstatus NULLS FIRST, o_orderpriority NULLS FIRST
        """,
        "customer_event_counts": """
            SELECT c.c_mktsegment,
                   CAST(COUNT(*) AS BIGINT) AS n_customers,
                   CAST(SUM(CASE WHEN e.n_events IS NULL THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_zero_event
            FROM customer c
            LEFT JOIN (SELECT user_id, COUNT(*) AS n_events
                       FROM events GROUP BY user_id) e
              ON c.c_custkey = e.user_id
            GROUP BY c.c_mktsegment ORDER BY c.c_mktsegment
        """,
        "profile_documents": " UNION ALL ".join(
            part for c, is_int in [("doc_id", True), ("lang", False),
                                   ("n_chars", True), ("source", False),
                                   ("text", False)]
            for part in ([
                f"SELECT '{c}' AS col, 'count' AS stat, "
                f"CAST(COUNT(*) AS BIGINT) AS value FROM documents",
                f"SELECT '{c}', 'distinct', CAST(COUNT(DISTINCT {c}) AS BIGINT) "
                f"FROM documents",
                f"SELECT '{c}', 'nulls', CAST(COUNT(*) - COUNT({c}) AS BIGINT) "
                f"FROM documents",
            ] + ([f"SELECT '{c}', 'max', CAST(MAX({c}) AS BIGINT) FROM documents",
                  f"SELECT '{c}', 'min', CAST(MIN({c}) AS BIGINT) FROM documents"]
                 if is_int else []))
        ) + " ORDER BY col, stat",
        # exact-integer tf-idf ranking: score = tf*N*1e6 // df (float
        # idf logs avoided -- ln() is not bit-portable; ordering is)
        "tfidf_top_terms": r"""
            WITH t AS (
              SELECT doc_id,
                     unnest(regexp_split_to_array(trim(coalesce(text, '')),
                                                  '\s+')) AS term
              FROM documents),
            tf AS (SELECT doc_id, term, COUNT(*) AS tf FROM t
                   WHERE term <> '' GROUP BY doc_id, term),
            df AS (SELECT term, COUNT(*) AS df FROM tf GROUP BY term),
            s AS (SELECT tf.doc_id, tf.term,
                         tf.tf * (SELECT COUNT(*) FROM documents)
                           * 1000000 // df.df AS score_q
                  FROM tf JOIN df USING (term)),
            r AS (SELECT *, ROW_NUMBER() OVER (
                      PARTITION BY doc_id
                      ORDER BY score_q DESC, term) AS rn FROM s)
            SELECT doc_id, term, CAST(score_q AS BIGINT) AS score_q
            FROM r WHERE rn <= 3 ORDER BY doc_id, term
        """,
        "vocab_top_terms": r"""
            WITH t AS (
              SELECT DISTINCT doc_id,
                     unnest(regexp_split_to_array(trim(coalesce(text, '')),
                                                  '\s+')) AS tok
              FROM documents),
            df AS (SELECT tok, COUNT(*) AS df FROM t
                   WHERE tok <> '' GROUP BY tok)
            SELECT tok, df FROM df ORDER BY df DESC, tok LIMIT 50
        """,
        # LM novelty: fraction of a doc's bigrams outside the corpus
        # top-50 bigram table (integer-exact perplexity stand-in)
        "lm_novelty": r"""
            WITH toks AS (
              SELECT doc_id,
                     regexp_extract_all(coalesce(text, ''), '\S+') AS ws
              FROM documents),
            g AS (
              SELECT doc_id, unnest(list_transform(range(1, len(ws)),
                            i -> ws[i] || ' ' || ws[i + 1])) AS bigram
              FROM toks WHERE len(ws) >= 2),
            cnt AS (SELECT bigram, COUNT(*) AS n FROM g GROUP BY bigram),
            top AS (SELECT bigram FROM cnt ORDER BY n DESC, bigram LIMIT 50),
            per AS (
              SELECT g.doc_id, CAST(COUNT(*) AS BIGINT) AS n_bigrams,
                     CAST(SUM(CASE WHEN t.bigram IS NOT NULL
                              THEN 1 ELSE 0 END) AS BIGINT) AS n_known
              FROM g LEFT JOIN top t USING (bigram) GROUP BY g.doc_id)
            SELECT d.doc_id,
                   coalesce(p.n_bigrams, 0) AS n_bigrams,
                   coalesce(p.n_known, 0) AS n_known,
                   CAST(CASE WHEN coalesce(p.n_bigrams, 0) = 0 THEN 0
                        ELSE (p.n_bigrams - p.n_known) * 1000000
                             // p.n_bigrams END AS BIGINT) AS novelty_ppm
            FROM documents d LEFT JOIN per p USING (doc_id)
            ORDER BY d.doc_id
        """,
        "bigram_counts": r"""
            WITH d AS (
              SELECT regexp_split_to_array(trim(coalesce(text, '')),
                                           '\s+') AS ws
              FROM documents),
            g AS (
              SELECT unnest(list_transform(range(1, len(ws)),
                            i -> ws[i] || ' ' || ws[i + 1])) AS bigram
              FROM d WHERE len(ws) >= 2)
            SELECT bigram, CAST(COUNT(*) AS BIGINT) AS n
            FROM g GROUP BY bigram ORDER BY n DESC, bigram LIMIT 50
        """,
        "user_running_total": f"""
            SELECT user_id, event_id, {val_c} AS value_c,
                   CAST(SUM({val_c}) OVER (PARTITION BY user_id
                                           ORDER BY event_id
                                           ROWS UNBOUNDED PRECEDING)
                        AS BIGINT) AS running_c
            FROM events ORDER BY event_id
        """,
        "value_quantiles": "".join(
            ("UNION ALL" if i else "")
            + f"""
            SELECT event_type, 'p{lab}' AS p,
                   CAST(quantile_disc({val_c}, {p}) AS BIGINT) AS q_value_c
            FROM events GROUP BY event_type
            """
            for i, (lab, p) in enumerate(
                [(25, 0.25), (50, 0.5), (75, 0.75), (90, 0.9), (99, 0.99)])
        ) + " ORDER BY event_type, p",
        "top10_expensive_orders": f"""
            SELECT o_orderkey, {_c('o_totalprice')} AS tot_c
            FROM orders
            ORDER BY tot_c DESC, o_orderkey
            LIMIT 10
        """,
        "props_json_extract": """
            SELECT event_type, COUNT(*) AS n,
                   CAST(SUM(CAST(regexp_extract(props, '[0-9]+') AS BIGINT)) AS BIGINT) AS sum_k,
                   CAST(MAX(CAST(regexp_extract(props, '[0-9]+') AS BIGINT)) AS BIGINT) AS max_k
            FROM events GROUP BY event_type ORDER BY event_type
        """,
        "token_counts": r"""
            SELECT doc_id, CAST(length(regexp_extract_all(text, '\S+')) AS BIGINT) AS n_tokens
            FROM documents ORDER BY doc_id
        """,
        # same RE2 pattern as functions.textstats.BPE_RE (bit-portable)
        "bpe_token_counts": r"""
            SELECT doc_id,
                   CAST(length(regexp_extract_all(text,
                     '''(?:[sdmt]|ll|ve|re)| ?[\p{L}]+| ?[\p{N}]+| ?[^\s\p{L}\p{N}]+'))
                     AS BIGINT) AS n_pretokens
            FROM documents ORDER BY doc_id
        """,
        "doc_quality": r"""
            SELECT doc_id,
                   CAST(length(text) AS BIGINT) AS n_chars,
                   CAST(length(regexp_extract_all(text, '\S+')) AS BIGINT) AS n_tokens,
                   CAST(length(regexp_extract_all(text, '[.,!?;:]')) AS BIGINT) AS n_punct,
                   CAST(length(regexp_extract_all(text,
                     '\b(the|and|of|to|in|is|that|for|with|was)\b')) AS BIGINT) AS n_stopwords
            FROM documents ORDER BY doc_id
        """,
        # NFC + ASCII-lower + ASCII-whitespace canon (unicode CASEFOLD
        # is deliberately avoided: it differs across engines)
        "clean_text": r"""
            WITH c AS (
              SELECT doc_id,
                regexp_replace(
                  trim(translate(nfc_normalize(coalesce(text, '')),
                                 'ABCDEFGHIJKLMNOPQRSTUVWXYZ',
                                 'abcdefghijklmnopqrstuvwxyz'),
                       ' ' || chr(9) || chr(13) || chr(10) || chr(12) || chr(11)),
                  '[ ' || chr(9) || chr(13) || chr(10) || chr(12) || chr(11) || ']+',
                  ' ', 'g') AS clean
              FROM documents)
            SELECT doc_id, clean, CAST(length(clean) AS BIGINT) AS n_chars
            FROM c ORDER BY doc_id
        """,
        # Gopher-style repetition signals: exact integer numerator/
        # denominator pairs of the classic repetition-filter ratios
        "doc_repetition": r"""
            WITH toks AS (
              SELECT doc_id,
                     regexp_extract_all(coalesce(text, ''), '\S+') AS ws
              FROM documents),
            base AS (
              SELECT doc_id,
                     CAST(len(ws) AS BIGINT) AS n_tokens,
                     CAST(len(list_distinct(ws)) AS BIGINT) AS n_distinct_tokens
              FROM toks),
            g AS (
              SELECT doc_id, unnest(list_transform(range(1, len(ws)),
                            i -> ws[i] || ' ' || ws[i + 1])) AS bigram
              FROM toks WHERE len(ws) >= 2),
            bg AS (
              SELECT doc_id, CAST(SUM(c) AS BIGINT) AS n_bigrams,
                     CAST(MAX(c) AS BIGINT) AS top_bigram_n
              FROM (SELECT doc_id, bigram, COUNT(*) AS c FROM g
                    GROUP BY doc_id, bigram)
              GROUP BY doc_id)
            SELECT b.doc_id, b.n_tokens, b.n_distinct_tokens,
                   coalesce(bg.n_bigrams, 0) AS n_bigrams,
                   coalesce(bg.top_bigram_n, 0) AS top_bigram_n
            FROM base b LEFT JOIN bg USING (doc_id) ORDER BY b.doc_id
        """,
        # planted-PII redaction: the synthetic corpus has no organic
        # PII, so both sides derive one email + one phone from doc_id
        # before redacting -- the redacted string is compared byte-exact
        "redact_pii": r"""
            WITH aug AS (
              SELECT doc_id,
                     coalesce(text, '') || ' contact user'
                       || CAST(doc_id AS VARCHAR) || '@example.com call +1-555-'
                       || lpad(CAST(doc_id % 10000 AS VARCHAR), 4, '0') AS t
              FROM documents)
            SELECT doc_id,
                   regexp_replace(
                     regexp_replace(t,
                       '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}',
                       '<EMAIL>', 'g'),
                     '\+1-555-[0-9]{4}', '<PHONE>', 'g') AS redacted,
                   CAST(length(regexp_extract_all(t,
                          '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}'))
                        + length(regexp_extract_all(
                            regexp_replace(t,
                              '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}',
                              '<EMAIL>', 'g'),
                            '\+1-555-[0-9]{4}'))
                        AS BIGINT) AS n_redacted
            FROM aug ORDER BY doc_id
        """,
        # benchmark decontamination: docs with doc_id % 10 == 0 are the
        # held-out set; training docs count DISTINCT 5-gram overlap
        "decontaminate": r"""
            WITH toks AS (
              SELECT doc_id,
                     regexp_extract_all(coalesce(text, ''), '\S+') AS ws
              FROM documents),
            g AS (
              SELECT DISTINCT doc_id, gram FROM (
                SELECT doc_id, unnest(list_transform(range(1, len(ws) - 3),
                       i -> ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2]
                            || ' ' || ws[i+3] || ' ' || ws[i+4])) AS gram
                FROM toks WHERE len(ws) >= 5)),
            bench AS (SELECT DISTINCT gram FROM g WHERE doc_id % 10 = 0),
            hits AS (
              SELECT g.doc_id, CAST(COUNT(*) AS BIGINT) AS n_grams,
                     CAST(SUM(CASE WHEN b.gram IS NOT NULL
                              THEN 1 ELSE 0 END) AS BIGINT) AS n_hit
              FROM g LEFT JOIN bench b USING (gram)
              WHERE g.doc_id % 10 <> 0 GROUP BY g.doc_id)
            SELECT d.doc_id, coalesce(h.n_grams, 0) AS n_grams,
                   coalesce(h.n_hit, 0) AS n_hit,
                   CAST(coalesce(h.n_hit, 0) > 0 AS BIGINT) AS contaminated
            FROM documents d LEFT JOIN hits h ON d.doc_id = h.doc_id
            WHERE d.doc_id % 10 <> 0 ORDER BY d.doc_id
        """,
        # MOSS-style winnowing: per-window MIN over word-3-gram md5
        # hashes (window=4), distinct selected values per doc, then the
        # cross-doc document frequency of each fingerprint
        "winnow_fingerprints": r"""
            WITH toks AS (
              SELECT doc_id,
                     regexp_extract_all(coalesce(text, ''), '\S+') AS ws
              FROM documents),
            g AS (
              SELECT doc_id, CAST(t.i AS BIGINT) AS pos,
                     md5_number_lower(ws[t.i] || ' ' || ws[t.i + 1]
                                      || ' ' || ws[t.i + 2]) AS h,
                     CAST(len(ws) - 2 AS BIGINT) AS n_grams
              FROM toks
              CROSS JOIN UNNEST(range(1, len(ws) - 1)) AS t(i)
              WHERE len(ws) >= 3),
            wm AS (
              SELECT doc_id, pos, n_grams,
                     MIN(h) OVER (PARTITION BY doc_id ORDER BY pos
                                  ROWS BETWEEN CURRENT ROW
                                  AND 3 FOLLOWING) AS fp
              FROM g),
            sel AS (
              SELECT DISTINCT doc_id, fp FROM wm
              WHERE pos <= greatest(n_grams - 4, 0) + 1),
            fpc AS (SELECT fp, COUNT(*) AS nd FROM sel GROUP BY fp),
            per AS (
              SELECT s.doc_id, CAST(COUNT(*) AS BIGINT) AS n_fp,
                     CAST(SUM(CASE WHEN f.nd >= 2 THEN 1 ELSE 0 END)
                          AS BIGINT) AS n_shared_fp
              FROM sel s JOIN fpc f USING (fp) GROUP BY s.doc_id)
            SELECT doc_id, n_fp, n_shared_fp,
                   CAST(n_shared_fp > 0 AS BIGINT) AS shared
            FROM per ORDER BY doc_id
        """,
        "exact_dedup_documents": """
            SELECT MIN(doc_id) AS doc_id, COUNT(*) AS n_copies
            FROM documents GROUP BY text ORDER BY doc_id
        """,
        # streaming-ingest dedup: even doc_ids are the committed
        # corpus, odd ones the incoming delta; NULL text never matches
        # (SQL equality), mirrored by the engine's -1 sentinel routing
        "exact_dedup_incremental": """
            WITH old AS (SELECT text, MIN(doc_id) AS dup_of
                         FROM documents
                         WHERE doc_id % 2 = 0 AND text IS NOT NULL
                         GROUP BY text)
            SELECT n.doc_id,
                   CAST(o.dup_of IS NOT NULL AS BIGINT) AS is_dup,
                   o.dup_of
            FROM documents n LEFT JOIN old o ON n.text = o.text
            WHERE n.doc_id % 2 = 1
            ORDER BY n.doc_id
        """,
        "ann_topk_cosine": """
            WITH q AS (SELECT vec_id AS query_id, CAST(embedding AS DOUBLE[]) AS qe
                       FROM embeddings WHERE vec_id < 5),
                 c AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS e
                       FROM embeddings WHERE vec_id >= 5),
            sims AS (
              SELECT q.query_id, c.vec_id,
                     ROUND(list_cosine_similarity(q.qe, c.e), 6) AS sim,
                     ROW_NUMBER() OVER (PARTITION BY q.query_id
                                        ORDER BY ROUND(list_cosine_similarity(q.qe, c.e), 6) DESC,
                                                 c.vec_id) AS rk
              FROM q CROSS JOIN c
            )
            SELECT query_id, vec_id FROM sims WHERE rk <= 10
            ORDER BY query_id, vec_id
        """,
        "label_centroids": """
            SELECT CAST(label AS BIGINT) AS label, d.d AS dim,
                   CAST(SUM(CAST(FLOOR(CAST(embedding[d.d + 1] AS DOUBLE)
                                       * 1048576 + 0.5) AS BIGINT))
                        AS BIGINT) AS sum_c,
                   COUNT(*) AS n
            FROM embeddings
            CROSS JOIN (SELECT unnest(range(64)) AS d) d
            GROUP BY label, d.d ORDER BY label, dim
        """,
        # semantic decontamination: vec_id % 10 == 0 is the eval set;
        # every training vector reports its nearest eval vector
        # (argmax on 6-dp-rounded cosine, ties -> smaller eval id) and
        # a threshold-crossing flag
        "semantic_decontaminate": """
            WITH e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v
                       FROM embeddings),
            ev AS (SELECT * FROM e WHERE vec_id % 10 = 0),
            tr AS (SELECT * FROM e WHERE vec_id % 10 <> 0),
            sims AS (
              SELECT tr.vec_id, ev.vec_id AS eval_id,
                     ROUND(list_cosine_similarity(tr.v, ev.v), 6) AS s
              FROM tr CROSS JOIN ev),
            best AS (
              SELECT vec_id, eval_id, s,
                     ROW_NUMBER() OVER (PARTITION BY vec_id
                                        ORDER BY s DESC, eval_id) AS rn
              FROM sims)
            SELECT vec_id, CAST(eval_id AS BIGINT) AS nearest_eval_id,
                   CAST(s > 0.35 AS BIGINT) AS contaminated
            FROM best WHERE rn = 1 ORDER BY vec_id
        """,
        "embedding_near_dup": """
            WITH s AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS e
                       FROM embeddings WHERE vec_id % 10 = 0)
            SELECT a.vec_id AS id_a, b.vec_id AS id_b
            FROM s a JOIN s b ON a.vec_id < b.vec_id
            WHERE ROUND(list_cosine_similarity(a.e, b.e), 6) > 0.35
            ORDER BY id_a, id_b
        """,
        # self-validating LSH near-dup: the engine plants an EXACT copy
        # of every vec_id % 50 == 0 vector at vec_id + 1_000_000;
        # identical vectors co-bucket in every band, so LSH recall on
        # the planted pairs is exactly 1, and the corpus background
        # (max cos ~0.48) cannot pass the 0.9 exact-cosine verify --
        # the result IS the planted set
        "embedding_near_dup_lsh": """
            SELECT CAST(vec_id AS BIGINT) AS id_a,
                   CAST(vec_id + 1000000 AS BIGINT) AS id_b
            FROM embeddings WHERE vec_id % 50 = 0
            ORDER BY id_a, id_b
        """,
        # minhash LSH + exact verify finds exactly the pairs with bigram
        # Jaccard >= 0.5: at these corpora every true pair has J >= 0.96,
        # where the R=3/B=21 banding's miss probability is < 1e-12 -- and
        # the minhash permutations are seed-fixed, so the outcome is
        # deterministic. The oracle is the brute-force definition.
        "minhash_near_dup": _JACCARD_PAIRS_SQL.format(where="TRUE"),
        # connected components over the (verified) near-dup pairs:
        # recursive min-label reachability, rep = component min doc_id
        "minhash_dedup_clusters": f"""
            WITH RECURSIVE pairs AS ({_JACCARD_PAIRS_SQL.format(where="TRUE")}),
            n0 AS (SELECT DISTINCT x AS node FROM
                   (SELECT id_a AS x FROM pairs
                    UNION ALL SELECT id_b FROM pairs)),
            edges AS (SELECT id_a AS a, id_b AS b FROM pairs
                      UNION SELECT id_b, id_a FROM pairs),
            reach(node, r) AS (
              SELECT node, node FROM n0
              UNION
              SELECT e.a, r.r FROM edges e JOIN reach r ON e.b = r.node
            )
            SELECT node AS doc_id, MIN(r) AS cluster_rep
            FROM reach GROUP BY node ORDER BY doc_id
        """,
        "ngram_jaccard_pairs": _JACCARD_PAIRS_SQL.format(
            where="doc_id % 2 = 0"),
        # the dedup ACTION: survivors = docs that are not a
        # non-representative member of a near-dup cluster
        "minhash_dedup_apply": f"""
            WITH RECURSIVE pairs AS ({_JACCARD_PAIRS_SQL.format(where="TRUE")}),
            n0 AS (SELECT DISTINCT x AS node FROM
                   (SELECT id_a AS x FROM pairs
                    UNION ALL SELECT id_b FROM pairs)),
            edges AS (SELECT id_a AS a, id_b AS b FROM pairs
                      UNION SELECT id_b, id_a FROM pairs),
            reach(node, r) AS (
              SELECT node, node FROM n0
              UNION
              SELECT e.a, r.r FROM edges e JOIN reach r ON e.b = r.node
            ),
            clus AS (SELECT node AS doc_id, MIN(r) AS rep
                     FROM reach GROUP BY node)
            SELECT d.doc_id, d.n_chars
            FROM documents d LEFT JOIN clus c ON d.doc_id = c.doc_id
            WHERE c.doc_id IS NULL OR c.rep = d.doc_id
            ORDER BY d.doc_id
        """,
        "lang_id": _LANG_ID_SQL,
        # portable md5-derived 64-bit hash: engine's md5_hash64() is
        # bit-identical to DuckDB md5_number_lower(), making the
        # fingerprint, the SimHash sketch and the train/val/test split
        # value-verifiable across engines (not just rows-counted)
        "doc_fingerprint": """
            SELECT doc_id,
                   CAST(md5_number_lower(coalesce(text, '')) >> 1 AS BIGINT) AS fp
            FROM documents ORDER BY doc_id
        """,
        "simhash_documents": r"""
            WITH d AS (
              SELECT doc_id,
                     regexp_split_to_array(trim(coalesce(text, '')), '\s+') AS ws
              FROM documents),
            t AS (SELECT doc_id, unnest(ws) AS tok FROM d),
            h AS (SELECT doc_id, md5_number_lower(tok) AS th FROM t),
            b AS (SELECT unnest(range(64)) AS b),
            bits AS (
              SELECT doc_id, b.b AS b,
                     SUM(CASE WHEN (th >> CAST(b.b AS INTEGER)) & 1 = 1
                              THEN 1 ELSE -1 END) AS v
              FROM h CROSS JOIN b GROUP BY doc_id, b.b)
            SELECT doc_id,
                   CAST(SUM(CASE WHEN v > 0
                            THEN CAST(1 AS UBIGINT) << CAST(b AS INTEGER)
                            ELSE 0 END) >> 1 AS BIGINT) AS simhash
            FROM bits GROUP BY doc_id ORDER BY doc_id
        """,
        # the composite curation pipeline: quality gate + lang gate +
        # exact dedup representative + deterministic split, one SQL
        "curation_pipeline": r"""
            WITH s AS (
              SELECT doc_id, text,
                CAST(length(regexp_extract_all(text, '\S+')) AS BIGINT)
                  AS n_tokens,
                len(regexp_extract_all(coalesce(text, ''), '[一-鿿぀-ヿ]')) * 1.0
                  / GREATEST(length(coalesce(text, '')), 1) AS cjk,
                len(regexp_extract_all(lower(coalesce(text, '')),
                    '\b(the|and|of|to|in|is|that|for|with|was)\b')) AS c_en,
                len(regexp_extract_all(lower(coalesce(text, '')),
                    '\b(le|la|les|et|des|une|est|dans|pour|que)\b')) AS c_fr,
                len(regexp_extract_all(lower(coalesce(text, '')),
                    '\b(el|los|las|una|es|que|por|con|para|como)\b')) AS c_es,
                len(regexp_extract_all(lower(coalesce(text, '')),
                    '\b(der|die|das|und|ist|ein|nicht|mit|auf|von)\b')) AS c_de
              FROM documents),
            l AS (
              SELECT doc_id, text, n_tokens,
                CASE WHEN cjk > 0.2 THEN 'zh'
                     WHEN GREATEST(c_en, c_fr, c_es, c_de) = 0 THEN 'unknown'
                     WHEN c_en >= c_fr AND c_en >= c_es AND c_en >= c_de THEN 'en'
                     WHEN c_fr >= c_es AND c_fr >= c_de THEN 'fr'
                     WHEN c_es >= c_de THEN 'es'
                     ELSE 'de' END AS lang_pred
              FROM s),
            f AS (SELECT doc_id, text, n_tokens FROM l
                  WHERE lang_pred = 'en' AND n_tokens BETWEEN 20 AND 80),
            r AS (SELECT MIN(doc_id) AS doc_id FROM f GROUP BY text),
            b AS (
              SELECT f.doc_id, f.n_tokens,
                     CAST(md5_number_lower(CAST(f.doc_id AS VARCHAR)) % 100
                          AS BIGINT) AS bucket
              FROM f JOIN r ON f.doc_id = r.doc_id)
            SELECT doc_id, n_tokens, bucket,
                   CASE WHEN bucket < 90 THEN 'train'
                        WHEN bucket < 95 THEN 'val'
                        ELSE 'test' END AS split
            FROM b ORDER BY doc_id
        """,
        "doc_split_stratified": """
            WITH b AS (
              SELECT doc_id, lang,
                     CAST(md5_number_lower(coalesce(lang, '') || ':' ||
                                           CAST(doc_id AS VARCHAR)) % 100
                          AS BIGINT) AS bucket
              FROM documents)
            SELECT doc_id, lang, bucket,
                   CASE WHEN bucket < 90 THEN 'train'
                        WHEN bucket < 95 THEN 'val'
                        ELSE 'test' END AS split
            FROM b ORDER BY doc_id
        """,
        # corpus-mixture composition: exact integer counts + fixed-point
        # (ppm) weights; T=2 flattening via IEEE sqrt + floor, both
        # exactly specified so the comparison is bit-exact
        "mixture_weights": r"""
            WITH t AS (
              SELECT source, lang,
                     CAST(len(regexp_extract_all(coalesce(text, ''), '\S+'))
                          AS BIGINT) AS n
              FROM documents),
            g AS (
              SELECT source, lang, CAST(COUNT(*) AS BIGINT) AS n_docs,
                     CAST(SUM(n) AS BIGINT) AS n_tokens
              FROM t GROUP BY source, lang),
            s AS (
              SELECT *, CAST(floor(sqrt(CAST(n_tokens AS DOUBLE)))
                             AS BIGINT) AS sqrt_tokens
              FROM g)
            SELECT source, lang, n_docs, n_tokens,
                   CAST(n_tokens * 1000000 //
                        (SELECT SUM(n_tokens) FROM s) AS BIGINT) AS share_ppm,
                   sqrt_tokens,
                   CAST(sqrt_tokens * 1000000 //
                        (SELECT SUM(sqrt_tokens) FROM s) AS BIGINT) AS w_t2_ppm
            FROM s ORDER BY source, lang
        """,
        # fixed-size balanced subset: k smallest salted-hash docs per
        # language, rank in hash order (ties -> doc_id, unreachable
        # for md5-64 but pinned in both engines)
        "sample_per_stratum": r"""
            WITH h AS (
              SELECT doc_id, lang,
                     md5_number_lower(coalesce(lang, '') || ':' ||
                                      CAST(doc_id AS VARCHAR)) AS hv
              FROM documents),
            r AS (
              SELECT doc_id, lang,
                     CAST(ROW_NUMBER() OVER (PARTITION BY lang
                          ORDER BY hv, doc_id) - 1 AS BIGINT) AS rank
              FROM h)
            SELECT doc_id, lang, rank FROM r
            WHERE rank < 10 ORDER BY lang, rank
        """,
        # deterministic per-language epoch up-sampling plan:
        # n_epochs = clamp(1..4, max_lang_tokens // lang_tokens)
        "resample_epochs": r"""
            WITH t AS (
              SELECT doc_id, lang,
                     CAST(len(regexp_extract_all(coalesce(text, ''), '\S+'))
                          AS BIGINT) AS n
              FROM documents),
            lt AS (SELECT lang, SUM(n) AS tot FROM t GROUP BY lang),
            r AS (
              SELECT lang,
                     CAST(least(4, greatest(1,
                          (SELECT MAX(tot) FROM lt) // tot)) AS BIGINT)
                       AS n_epochs
              FROM lt)
            SELECT t.doc_id, t.lang, CAST(u.e AS BIGINT) AS epoch
            FROM t LEFT JOIN r USING (lang)
            CROSS JOIN UNNEST(range(coalesce(r.n_epochs, 1))) AS u(e)
            ORDER BY t.doc_id, epoch
        """,
        "pack_documents": r"""
            WITH t AS (
              SELECT doc_id,
                     CAST(length(regexp_extract_all(text, '\S+')) AS BIGINT)
                       AS n_tokens,
                     CAST(md5_number_lower(CAST(doc_id AS VARCHAR)) % 8
                          AS BIGINT) AS part
              FROM documents),
            c AS (
              SELECT doc_id, part, n_tokens,
                     SUM(n_tokens) OVER (PARTITION BY part ORDER BY doc_id
                                         ROWS UNBOUNDED PRECEDING)
                       - n_tokens AS prefix
              FROM t)
            SELECT doc_id, part, n_tokens,
                   CAST(prefix // 2048 AS BIGINT) AS bin
            FROM c ORDER BY doc_id
        """,
        # overlapping context-window chunking: windows start every
        # stride=48 tokens; trailing windows only while they add
        # uncovered tokens; chunk_text = tokens joined by one space
        "chunk_documents": r"""
            WITH t AS (
              SELECT doc_id,
                     regexp_extract_all(coalesce(text, ''), '\S+') AS ws,
                     CAST(len(regexp_extract_all(coalesce(text, ''), '\S+'))
                          AS BIGINT) AS n
              FROM documents),
            c AS (
              SELECT doc_id, ws, n,
                     greatest(1, CAST(ceil(CAST(n - 16 AS DOUBLE) / 48)
                                      AS BIGINT)) AS n_chunks
              FROM t WHERE n > 0)
            SELECT doc_id, CAST(u.k AS BIGINT) AS chunk_idx,
                   CAST(u.k * 48 AS BIGINT) AS tok_start,
                   CAST(least(u.k * 48 + 64, n) AS BIGINT) AS tok_end,
                   array_to_string(ws[u.k * 48 + 1 : least(u.k * 48 + 64, n)],
                                   ' ') AS chunk_text
            FROM c CROSS JOIN UNNEST(range(c.n_chunks)) AS u(k)
            ORDER BY doc_id, chunk_idx
        """,
        "doc_split": """
            WITH b AS (
              SELECT doc_id,
                     CAST(md5_number_lower(CAST(doc_id AS VARCHAR)) % 100
                          AS BIGINT) AS bucket
              FROM documents)
            SELECT doc_id, bucket,
                   CASE WHEN bucket < 90 THEN 'train'
                        WHEN bucket < 95 THEN 'val'
                        ELSE 'test' END AS split
            FROM b ORDER BY doc_id
        """,
        "video_frame_samples": """
            SELECT doc_id AS media_id, CAST(f AS BIGINT) AS frame_idx
            FROM documents
            CROSS JOIN UNNEST(range(0, CAST(doc_id % 30 + 1 AS BIGINT), 5)) AS t(f)
            WHERE doc_id % 3 = 2
            ORDER BY media_id, frame_idx
        """,
        # REAL-codec image decode: payloads are genuine BMP/PNG of the
        # deterministic grid px[y,x] = (id*7 + y*5 + x*3) % 256, so the
        # decoded stats are the grid's stats, literally mirrored here
        "media_image_features": """
            WITH xs AS (SELECT unnest(range(72)) AS x),
                 ys AS (SELECT unnest(range(56)) AS y),
            px AS (
              SELECT d.doc_id AS media_id,
                     CAST(d.doc_id % 64 + 8 AS BIGINT) AS width,
                     CAST(d.doc_id % 48 + 8 AS BIGINT) AS height,
                     (d.doc_id * 7 + ys.y * 5 + xs.x * 3) % 256 AS v
              FROM documents d
              JOIN ys ON ys.y < d.doc_id % 48 + 8
              JOIN xs ON xs.x < d.doc_id % 64 + 8
              WHERE d.doc_id % 3 = 0)
            SELECT media_id, width, height,
                   COUNT(*) AS n_px,
                   CAST(SUM(v) AS BIGINT) AS pixel_sum,
                   CAST(MIN(v) AS BIGINT) AS pixel_min,
                   CAST(MAX(v) AS BIGINT) AS pixel_max
            FROM px GROUP BY media_id, width, height ORDER BY media_id
        """,
        # REAL WAV/PCM16 decode: the oracle regenerates the
        # deterministic sample train s[i] = (id*31 + i*17) % 65536
        # - 32768 with generate_series and recomputes the stats
        "media_audio_features": """
            WITH m AS (
              SELECT doc_id AS media_id,
                     doc_id % 1500 + 64 AS n_samples,
                     8000 + ((doc_id // 3) % 3) * 4000 AS sample_rate
              FROM documents WHERE doc_id % 3 = 1
            ),
            g AS (SELECT unnest(range(1564)) AS i),
            s AS (
              SELECT m.media_id,
                     ((m.media_id * 31 + g.i * 17) % 65536) - 32768 AS v
              FROM m JOIN g ON g.i < m.n_samples
            )
            SELECT m.media_id,
                   CAST(m.n_samples AS BIGINT) AS n_samples,
                   CAST(m.sample_rate AS BIGINT) AS sample_rate,
                   CAST(m.n_samples * 1000000 // m.sample_rate AS BIGINT)
                     AS duration_us,
                   CAST(MAX(ABS(s.v)) AS BIGINT) AS peak_abs,
                   CAST(SUM(ABS(s.v)) AS BIGINT) AS sum_abs,
                   CAST(((m.media_id * 31) % 65536) - 32768 AS BIGINT)
                     AS first_sample,
                   CAST(((m.media_id * 31 + (m.n_samples - 1) * 17)
                         % 65536) - 32768 AS BIGINT) AS last_sample
            FROM m JOIN s ON s.media_id = m.media_id
            GROUP BY m.media_id, m.n_samples, m.sample_rate
            ORDER BY m.media_id
        """,
        # REAL Y4M decode: the oracle regenerates the deterministic
        # luma grid px[f,y,x] = (id*11 + f*13 + y*5 + x*3) % 256 for
        # the sampled frames (every 5th) with range joins
        "media_video_frame_features": """
            WITH m AS (
              SELECT doc_id AS media_id, doc_id % 30 + 1 AS n_frames
              FROM documents WHERE doc_id % 3 = 2
            ),
            fr AS (SELECT unnest(range(30)) AS f),
            ys AS (SELECT unnest(range(12)) AS y),
            xs AS (SELECT unnest(range(16)) AS x),
            px AS (
              SELECT m.media_id, fr.f, m.n_frames,
                     (m.media_id * 11 + fr.f * 13 + ys.y * 5
                      + xs.x * 3) % 256 AS v
              FROM m
              JOIN fr ON fr.f < m.n_frames AND fr.f % 5 = 0
              CROSS JOIN ys CROSS JOIN xs
            )
            SELECT media_id, CAST(f AS BIGINT) AS frame_idx,
                   CAST(n_frames AS BIGINT) AS n_frames,
                   CAST(SUM(v) AS BIGINT) AS frame_sum,
                   CAST(MIN(v) AS BIGINT) AS frame_min,
                   CAST(MAX(v) AS BIGINT) AS frame_max
            FROM px GROUP BY media_id, f, n_frames
            ORDER BY media_id, frame_idx
        """,
        # decode -> nearest-neighbor resize to 16x12: resized[ty,tx] =
        # grid((ty*h)//12, (tx*w)//16) -- the index math in SQL
        "media_image_resized": """
            WITH txs AS (SELECT unnest(range(16)) AS tx),
                 tys AS (SELECT unnest(range(12)) AS ty)
            SELECT d.doc_id AS media_id,
                   CAST(16 AS BIGINT) AS width,
                   CAST(12 AS BIGINT) AS height,
                   CAST(SUM((d.doc_id * 7
                             + ((tys.ty * (d.doc_id % 48 + 8)) // 12) * 5
                             + ((txs.tx * (d.doc_id % 64 + 8)) // 16) * 3)
                            % 256) AS BIGINT) AS pixel_sum
            FROM documents d CROSS JOIN txs CROSS JOIN tys
            WHERE d.doc_id % 3 = 0
            GROUP BY d.doc_id ORDER BY media_id
        """,
        # approximate ANN, value-gated anyway: the approximation itself
        # is deterministic and mirrored 1:1 in SQL -- hyperplane
        # signatures from the same seeded plane matrix (embedded as
        # literals below), IVF cells from fixed corpus-vector centroids
        "ann_topk_lsh": f"""
            WITH h(i, j, v) AS (VALUES {_lsh_plane_values()}),
            e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS emb
                  FROM embeddings),
            bits AS (
              SELECT e.vec_id, h.j,
                     CASE WHEN SUM(e.emb[h.i + 1] * h.v) > 0
                          THEN 1 ELSE 0 END AS b
              FROM e CROSS JOIN h GROUP BY e.vec_id, h.j),
            sig AS (SELECT vec_id, CAST(SUM(b * (1 << j)) AS BIGINT) AS s
                    FROM bits GROUP BY vec_id),
            q AS (SELECT e.vec_id AS query_id, e.emb AS qe, s.s AS qs
                  FROM e JOIN sig s USING (vec_id) WHERE e.vec_id < 5),
            c AS (SELECT e.vec_id, e.emb, s.s
                  FROM e JOIN sig s USING (vec_id) WHERE e.vec_id >= 5),
            ranked AS (
              SELECT q.query_id, c.vec_id,
                     ROW_NUMBER() OVER (PARTITION BY q.query_id
                       ORDER BY ROUND(list_cosine_similarity(q.qe, c.emb),
                                      6) DESC, c.vec_id) AS rk
              FROM q JOIN c ON c.s = q.qs)
            SELECT query_id, vec_id FROM ranked WHERE rk <= 10
            ORDER BY query_id, vec_id
        """,
        "ann_topk_ivf": """
            WITH e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS emb
                       FROM embeddings),
            cent AS (SELECT vec_id - 5 AS cell, emb AS cemb
                     FROM e WHERE vec_id >= 5 AND vec_id < 21),
            asg AS (
              SELECT e.vec_id, cent.cell,
                     ROW_NUMBER() OVER (PARTITION BY e.vec_id
                       ORDER BY ROUND(list_cosine_similarity(e.emb,
                                                             cent.cemb),
                                      6) DESC, cent.cell) AS rn
              FROM e CROSS JOIN cent),
            cellof AS (SELECT vec_id, cell FROM asg WHERE rn = 1),
            probes AS (SELECT vec_id AS query_id, cell FROM asg
                       WHERE vec_id < 5 AND rn <= 4),
            q AS (SELECT vec_id AS query_id, emb AS qe FROM e
                  WHERE vec_id < 5),
            cand AS (
              SELECT p.query_id, co.vec_id
              FROM probes p JOIN cellof co ON co.cell = p.cell
              WHERE co.vec_id >= 5),
            ranked AS (
              SELECT cand.query_id, cand.vec_id,
                     ROW_NUMBER() OVER (PARTITION BY cand.query_id
                       ORDER BY ROUND(list_cosine_similarity(q.qe, e.emb),
                                      6) DESC, cand.vec_id) AS rk
              FROM cand JOIN q ON q.query_id = cand.query_id
                        JOIN e ON e.vec_id = cand.vec_id)
            SELECT query_id, vec_id FROM ranked WHERE rk <= 10
            ORDER BY query_id, vec_id
        """,
        # rows-only (non-SQL-expressible): ann_topk_ivf_lloyd-style
        # trained quantizers (recall pytest-gated)
    }
