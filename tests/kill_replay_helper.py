"""Subprocess helper for the SIGKILL crash-resume test: start a replay
in a fresh Ray session and let the parent kill the process mid-flight.
Run as: python tests/kill_replay_helper.py <table_dir> <wal_dir>."""
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import ray  # noqa: E402

ray.init(address="local", num_cpus=2, include_dashboard=False,
         logging_level="ERROR")
import ray.data  # noqa: E402

ray.data.DataContext.get_current().enable_progress_bars = False

from techtalk_data_pipeline_snowpark_ray.config import EngineConfig  # noqa: E402
from techtalk_data_pipeline_snowpark_ray.pipelines import ingest  # noqa: E402

table_dir, wal_dir = sys.argv[1], sys.argv[2]
# one apply task per 2,000-row WAL segment: run files land one by one
# long before the tick's single publish, so a kill at the first run
# file is mid-tick (with one task, the gap between its run file and the
# publish is a few ms)
cfg = EngineConfig(table_dir=table_dir, wal_dir=wal_dir, num_buckets=4,
                   direct_batch_rows=2_000)
print("STARTING", flush=True)
ingest.run_loop(cfg, stop_when_idle=True)
print("FINISHED", flush=True)
