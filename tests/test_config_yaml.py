"""YAML config loading (reference parity: the reference indirects
every object name through one editable YAML — ``ConfigUtils.scala:
24-84``, ``conf.yml:8-42``). `EngineConfig.from_yaml` + the `--conf`
CLI flag make that ergonomic real here."""

import ast
import dataclasses
import json
import pathlib

import pytest
import yaml

import techtalk_data_pipeline_snowpark_ray as pkg
from techtalk_data_pipeline_snowpark_ray.config import EngineConfig
from techtalk_data_pipeline_snowpark_ray.sources.generate import (
    GenSpec, write_wal)


def test_yaml_round_trip_all_fields(tmp_path):
    """Every dataclass field survives dump -> from_yaml, including
    tuple coercion for the view lists and kebab-case keys."""
    cfg = EngineConfig(table_dir=str(tmp_path / "t"),
                       wal_dir=str(tmp_path / "w"),
                       num_buckets=7, apply_mode="direct",
                       matviews=("conv_live_stats", "token_index"),
                       derived_views=("conv_stats",),
                       gc_min_age_s=120.5, auto_compact_runs=9)
    d = {k.replace("_", "-"): v for k, v in dataclasses.asdict(cfg).items()}
    d["matviews"] = list(d["matviews"])          # YAML has lists, not tuples
    d["derived-views"] = list(d["derived-views"])
    p = tmp_path / "conf.yml"
    p.write_text(yaml.safe_dump(d))
    got = EngineConfig.from_yaml(str(p))
    assert got == cfg


def test_yaml_unknown_key_fails_loudly(tmp_path):
    p = tmp_path / "conf.yml"
    p.write_text("table-dir: /tmp/x\nnum-bukkets: 8\n")
    with pytest.raises(ValueError, match="num_bukkets"):
        EngineConfig.from_yaml(str(p))
    p.write_text("- just\n- a list\n")
    with pytest.raises(ValueError, match="mapping"):
        EngineConfig.from_yaml(str(p))


def test_shuffle_apply_mode_rejected(tmp_path):
    """Shuffle mode was removed: asking for it fails loudly, from code
    and from YAML, and its old knobs are unknown keys."""
    with pytest.raises(ValueError, match="shuffle mode was removed"):
        EngineConfig(apply_mode="shuffle")
    p = tmp_path / "conf.yml"
    p.write_text("table-dir: /tmp/x\napply-mode: shuffle\n")
    with pytest.raises(ValueError, match="shuffle mode was removed"):
        EngineConfig.from_yaml(str(p))
    p.write_text("table-dir: /tmp/x\nhot-key-threshold: 200\n")
    with pytest.raises(ValueError, match="unknown config key"):
        EngineConfig.from_yaml(str(p))


def test_removed_salting_keys_are_unknown(tmp_path):
    """Compaction folds one task per bucket; the hot-bucket salting
    knobs are gone, so a file that still names them fails loudly."""
    p = tmp_path / "conf.yml"
    for line in ("salt-factor: 4", "compact-salt-rows: 1500000"):
        p.write_text(f"table-dir: /tmp/x\n{line}\n")
        with pytest.raises(ValueError, match="unknown config key"):
            EngineConfig.from_yaml(str(p))


#: fields no package code reads, each with the reason it stays
UNREAD_FIELDS = {
    # validated in EngineConfig.__post_init__ only; the frozen perfbench
    # harness still passes it, so it goes with that harness's next change
    "apply_mode": "perfbench pins apply_mode='direct'",
}


def test_every_config_field_is_read():
    """Every EngineConfig field is read as an attribute somewhere in the
    package outside config.py: a field nothing reads is a dead knob."""
    root = pathlib.Path(pkg.__file__).parent
    read = set()
    for path in root.rglob("*.py"):
        if path.name == "config.py" and path.parent == root:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    fields = {f.name for f in dataclasses.fields(EngineConfig)}
    assert set(UNREAD_FIELDS) <= fields
    assert fields - read == set(UNREAD_FIELDS)


def test_shipped_example_config_parses():
    cfg = EngineConfig.from_yaml("conf.example.yml")
    assert cfg.apply_mode == "direct"
    assert "token_index" in cfg.matviews
    assert cfg.gc_min_age_s > 0          # safe-GC default documented there


def test_cli_tick_driven_entirely_from_yaml(tmp_path, capsys):
    """A replay tick configured ONLY by --conf: directories, bucket
    count and the per-tick matview all come from the file; an explicit
    CLI flag still overrides its key."""
    from techtalk_data_pipeline_snowpark_ray.__main__ import main
    from techtalk_data_pipeline_snowpark_ray.pipelines import matview

    conf = tmp_path / "conf.yml"
    conf.write_text(yaml.safe_dump({
        "table-dir": str(tmp_path / "t"),
        "wal-dir": str(tmp_path / "w"),
        "num-buckets": 4,
        "apply-mode": "direct",
        "matviews": ["role_live_stats"],
    }))
    write_wal(GenSpec(n_events=600, n_conversations=20, seed=5),
              str(tmp_path / "w"), segment_rows=300)
    assert main(["--conf", str(conf), "replay", "--stop-when-idle"]) == 0
    r = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert r["events"] > 0 and r["version"] is not None
    cfg = EngineConfig.from_yaml(str(conf))
    assert matview.read_grouped_matview(cfg, "role_live_stats").count() > 0

    # explicit flag overrides the YAML key: same conf, new table dir
    assert main(["--conf", str(conf), "--table-dir", str(tmp_path / "t2"),
                 "replay", "--stop-when-idle"]) == 0
    r2 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert r2["events"] == r["events"]


def test_cli_rejects_unknown_matview_from_yaml(tmp_path):
    from techtalk_data_pipeline_snowpark_ray.__main__ import main

    conf = tmp_path / "conf.yml"
    conf.write_text(yaml.safe_dump({
        "table-dir": str(tmp_path / "t"),
        "wal-dir": str(tmp_path / "w"),
        "matviews": ["role_live_stat"],      # typo'd view name
    }))
    with pytest.raises(SystemExit, match="unknown matview"):
        main(["--conf", str(conf), "replay", "--stop-when-idle"])


def test_yaml_scalar_view_name_coerces_and_bad_type_rejected(tmp_path):
    p = tmp_path / "conf.yml"
    p.write_text("matviews: conv_live_stats\n")      # scalar, no list
    assert EngineConfig.from_yaml(str(p)).matviews == ("conv_live_stats",)
    p.write_text("derived-views: 7\n")
    with pytest.raises(ValueError, match="derived_views must be a list"):
        EngineConfig.from_yaml(str(p))


def test_cli_rejects_unknown_derived_view_from_yaml(tmp_path):
    from techtalk_data_pipeline_snowpark_ray.__main__ import main

    conf = tmp_path / "conf.yml"
    conf.write_text(yaml.safe_dump({
        "table-dir": str(tmp_path / "t"),
        "wal-dir": str(tmp_path / "w"),
        "derived-views": ["conv_stat"],      # typo'd sink name
    }))
    with pytest.raises(SystemExit, match="unknown derived view"):
        main(["--conf", str(conf), "replay", "--stop-when-idle"])


def test_readme_quickstart_demo(tmp_path):
    """The README quick-start commands run as published — modulo ONE
    substitution: the documented shared scratch dir is remapped into
    tmp_path so concurrent suite runs can't rmtree each other's WAL
    mid-test. Asserts the demo's JSON summary — two tables ingested,
    the join view populated, the fan-in analytics computed — and that
    a second identical run drains (exactly-once) instead of
    duplicating."""
    import re
    import subprocess
    import os

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    readme = open(os.path.join(repo, "README.md")).read()
    m = re.search(r"### Quick start.*?```bash\n(.*?)```", readme, re.S)
    assert m, "README quick-start bash block missing"
    cmd = m.group(1).strip()
    assert "demo" in cmd
    assert "/tmp/ttdps-demo" in cmd, \
        "README demo scratch dir changed; update this remap"
    cmd = cmd.replace("/tmp/ttdps-demo", str(tmp_path / "ttdps-demo"))
    env = dict(os.environ)

    def run():
        out = subprocess.run(["bash", "-c", cmd], env=env, cwd=repo,
                             capture_output=True, text=True, timeout=570)
        assert out.returncode == 0, out.stderr[-2000:]
        lines = [ln for ln in out.stdout.strip().splitlines() if ln.strip()]
        return json.loads(lines[-1])

    first = run()
    assert first["events_applied"] == {"a": 4000, "b": 2000}
    assert first["rows"]["a"] > 0 and first["rows"]["b"] > 0
    assert first["drift_rows"] > 0
    assert {r["role"] for r in first["role_totals"]} == {
        "assistant", "system", "tool", "user"}
    assert sum(r["n_turns"] for r in first["role_totals"]) \
        == first["rows"]["a"] + first["rows"]["b"]
    again = run()                         # identical re-run: drained
    assert again["events_applied"] == {"a": 0, "b": 0}
    assert again["rows"] == first["rows"]
    assert again["role_totals"] == first["role_totals"]
