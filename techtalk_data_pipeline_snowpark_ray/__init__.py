"""Ray-Data-native CDC / incremental-ingest engine.

A from-scratch re-creation of the *capabilities* of
``scalabreseGD/techtalk-data-pipeline-snowpark`` (a Snowpark/Snowflake
CDC demo: table streams -> merge upserts -> transactional commit ->
derived analytics) on ``ray.data.Dataset`` pipelines over zero-copy
Arrow batches.

Core data flow (one "tick" = one consumed change-stream delta):

    WAL segments (Parquet, lsn-range named)          # stream on TABLE/STAGE
      -> list new segments, group into lsn intervals #   SnowflakeUtils.scala:46-66
      -> one plain Ray task per group (DirectApplier):
           scan -> normalize (schema-registry cast)  # jsonToFields, Implicits.scala:13-26
           -> partition (bucket = hash conv_id)      # [design: Snowflake micro-partitions]
           -> LWW fold (fold_table)                  # merge, SnowflakeUtilsOld.scala:84-109
           -> one sorted delta run + view partials
      -> batch-interval check, then atomic manifest  # executeInTransaction,
         publish (files + offset)                    #   SnowflakeUtils.scala:36-45,68-81

Compaction folds the delta runs into per-bucket bases as a separate
step. Last-writer-wins resolution is one associative fold,
:func:`techtalk_data_pipeline_snowpark_ray.stages.apply.fold_table`:
the apply stage calls it directly, and compaction, snapshot and point
reads, views and queries call it through
:func:`techtalk_data_pipeline_snowpark_ray.stages.controls.resolve_with_controls`.
Its pandas twin in the same module is kept only as the test oracle.
"""

__version__ = "0.1.0"
