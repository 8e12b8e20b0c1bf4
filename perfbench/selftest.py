#!/usr/bin/env python3
"""Smoke-sized self-test of the benchmark. From the checkout root:

    python3 perfbench/selftest.py

Checks that
1. every metric BENCHMARK.json names is emitted with its unit, by every
   workload, untraced and traced;
2. a corrupted expectation is reported as a failed operation;
3. traced spans nest, so every self time is >= 0 (on a synthetic trace
   and on each traced run's dump);
4. without the engine package next to it, the benchmark exits non-zero
   without printing a result.
Exits non-zero on the first failed check. Takes a few minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import workloads as wl  # noqa: E402
from perfbench.run import STATE_DIR, WORKLOADS, cache_key  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402

SEED = 990_001
SECONDS = "2"


def bench(workload: str, trace: int, cwd: str = ROOT,
          expect_ok: bool = True) -> tuple[int, dict | None]:
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(SEED),
           "--seconds", SECONDS, "--trace", str(trace), "--size", "smoke"]
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                       timeout=600)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if expect_ok and (p.returncode != 0 or result is None):
        sys.stderr.write(p.stderr[-4000:])
        fail(f"{workload} trace={trace} exited {p.returncode}")
    return p.returncode, result


def fail(msg: str) -> None:
    print(f"selftest: FAIL {msg}", flush=True)
    sys.exit(1)


def check_metrics(result: dict, wanted: dict[str, str], what: str) -> None:
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{what}: result keys {sorted(result)}")
    got = result["metrics"]
    if set(got) != set(wanted):
        fail(f"{what}: metrics differ: {sorted(set(got) ^ set(wanted))}")
    for name, unit in wanted.items():
        m = got[name]
        if m.get("unit") != unit or not isinstance(m.get("value"), float):
            fail(f"{what}: {name} = {m}, want a float in {unit}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        fail(f"{what}: correct={result['correct']} "
             f"failed={result['failed']} attempted={result['attempted']}")


def check_spans(spans: list[dict], what: str) -> None:
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        if s["self"] < 0:
            fail(f"{what}: span {s['name']} has self time {s['self']}")
        p = by_id.get(s["parent"]) if s["parent"] is not None else None
        if p is not None and (s["start"] < p["start"] or s["end"] > p["end"]):
            fail(f"{what}: span {s['name']} leaves its parent {p['name']}")


def synthetic_trace() -> None:
    t = Tracer()
    with t.span("root"):
        with t.span("a"):
            time.sleep(0.01)
        with t.span("b"):
            with t.span("c"):
                time.sleep(0.01)
    root, a, b, c = t.spans
    if t.nesting_errors():
        fail(f"synthetic trace: {t.nesting_errors()}")
    if not (0 <= t.self_time(root) < root.duration
            and abs(t.self_time(b) - (b.duration - c.duration)) < 1e-9
            and c.parent == b.id and c.root == root.id):
        fail("synthetic trace: self times or parents are wrong")
    # a child that outlives its parent must be caught
    c.end = b.end + 1.0
    if not t.nesting_errors():
        fail("synthetic trace: a child leaving its parent went unnoticed")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        fail("BENCHMARK.json workloads differ from run.py's")

    synthetic_trace()
    print("selftest: synthetic trace nests", flush=True)

    for w in WORKLOADS:
        for trace, wanted in ((0, e2e), (1, layers)):
            _, result = bench(w, trace)
            check_metrics(result, wanted, f"{w} trace={trace}")
            if trace:
                with open(os.path.join(STATE_DIR,
                                       f"trace-{w}-s{SEED}.json")) as f:
                    check_spans(json.load(f), f"{w} trace dump")
            print(f"selftest: {w} trace={trace} emits every metric", flush=True)

    # corrupt the cached oracle digest of the untraced bulk replay's WAL
    cache = os.path.join(STATE_DIR, "cache")
    entry = cache_key("bulk_replay", "smoke", SEED, wl.phases(
        "bulk_replay", wl.SIZES["smoke"], float(SECONDS), False))
    meta = [f for f in os.listdir(os.path.join(cache, entry))
            if f.startswith("expected-") and f.endswith(".json")][0]
    path = os.path.join(cache, entry, meta)
    with open(path) as f:
        rec = json.load(f)
    rec["digest"] = "0" * 64
    with open(path, "w") as f:
        json.dump(rec, f)
    try:
        _, result = bench("bulk_replay", 0, expect_ok=False)
        if result is None or result["correct"] or result["failed"] < 1:
            fail(f"corrupted expectation not reported: {result}")
    finally:
        shutil.rmtree(os.path.join(cache, entry), ignore_errors=True)
    print("selftest: a corrupted expectation is a failure", flush=True)

    bare = os.path.join(STATE_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        rc, result = bench("bulk_replay", 0, cwd=bare, expect_ok=False)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if rc == 0 or result is not None:
        fail(f"without the engine: exit {rc}, result {result}")
    print("selftest: without the engine it fails without a result",
          flush=True)
    print("selftest: OK", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
