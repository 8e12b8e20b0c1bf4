import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

import pytest  # noqa: E402
import ray  # noqa: E402


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    """One Ray session for the whole pytest run (per TESTDATA contract)."""
    ray.init(address="local", num_cpus=4, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    yield
    ray.shutdown()


@pytest.fixture()
def tmp_engine(tmp_path):
    """Fresh EngineConfig rooted in a pytest tmp dir."""
    from techtalk_data_pipeline_snowpark_ray.config import EngineConfig
    cfg = EngineConfig(table_dir=str(tmp_path / "table"),
                       wal_dir=str(tmp_path / "wal"),
                       num_buckets=4)
    cfg.ensure_dirs()
    return cfg


SF_TINY = "/root/testdata/sf0.001"
SF_SMALL = "/root/testdata/sf0.01"


@pytest.fixture(scope="session")
def sf_tiny():
    return SF_TINY
