"""Host facts, the Ray session, and the run's process tree."""

from __future__ import annotations

import hashlib
import logging
import os
import signal
import subprocess
import sys
import time

#: the object store stays small: inputs are a few hundred MB at most
OBJECT_STORE_BYTES = 256 << 20
#: AF_UNIX socket paths are limited to 107 bytes; Ray puts its sockets
#: ~62 bytes below the temp dir (session_<date>_<pid>/sockets/...)
MAX_RAY_TEMP_DIR = 45


def nproc() -> int:
    """Processors available, as coreutils `nproc` reports them: an
    OMP_NUM_THREADS limit wins over the affinity mask."""
    cpus = len(os.sched_getaffinity(0))
    try:
        return max(1, min(cpus, int(os.environ.get("OMP_NUM_THREADS", ""))))
    except ValueError:
        return cpus


def calibrate(seconds: float = 0.25) -> float:
    """Single-process CPU probe: millions of busy-loop iterations per
    second. Recorded with every reading, since a shared host's capacity
    changes with co-tenant load."""
    t0 = time.perf_counter()
    end, x = t0 + seconds, 0
    while time.perf_counter() < end:
        x += 1
    return round(x / (time.perf_counter() - t0) / 1e6, 3)


def source_id(root: str, package: str) -> str:
    """The git sha of the checkout when it is a git work tree, else a
    digest of the package's Python sources."""
    if os.path.exists(os.path.join(root, ".git")):
        try:
            out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    pkg = os.path.join(root, package)
    for d, dirs, files in sorted(os.walk(pkg)):
        dirs.sort()
        for f in sorted(files):
            if f.endswith(".py"):
                with open(os.path.join(d, f), "rb") as fh:
                    h.update(f.encode() + fh.read())
    return "src-" + h.hexdigest()[:16]


def facts(root: str, package: str, seed: int) -> dict:
    import numpy
    import pandas
    import pyarrow
    import ray
    return {"nproc": nproc(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "calibration_miters_per_s": calibrate(),
            "ray": ray.__version__, "pyarrow": pyarrow.__version__,
            "pandas": pandas.__version__, "numpy": numpy.__version__,
            "python": sys.version.split()[0],
            "source": source_id(root, package), "seed": seed}


def start_ray(root: str) -> None:
    """One local Ray session sized to the host. The package must
    already be on PYTHONPATH so workers can import it."""
    import ray
    from ray.data import DataContext

    kw = dict(address="local", num_cpus=nproc(), include_dashboard=False,
              logging_level="ERROR", log_to_driver=False,
              object_store_memory=OBJECT_STORE_BYTES)
    tmp = os.path.join(root, ".perfbench", "ray")
    if len(tmp) <= MAX_RAY_TEMP_DIR:
        kw["_temp_dir"] = tmp
    ray.init(**kw)
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)


def cpu_times() -> list[int]:
    """The host's aggregate CPU tick counters from /proc/stat."""
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:]]


def steal_share(before: list[int], after: list[int]) -> float:
    """Share of host CPU time the hypervisor stole between two
    `cpu_times` readings (field 8 of /proc/stat's cpu line)."""
    d = [b - a for a, b in zip(before, after)]
    return d[7] / sum(d) if sum(d) else 0.0


def _children_map() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue                      # exited while we listed
        # field 4 (ppid) follows the parenthesised command name
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        kids.setdefault(ppid, []).append(int(name))
    return kids


def descendants(pid: int) -> list[int]:
    kids = _children_map()
    out, todo = [], list(kids.get(pid, []))
    while todo:
        p = todo.pop()
        out.append(p)
        todo += kids.get(p, [])
    return out


def _status_kb(pid: int, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_peak_rss_mb() -> float:
    """Sum of VmHWM (peak resident set) over this process and every
    live descendant: the driver plus the Ray processes it started.
    Shared pages count once per process that touched them."""
    pids = [os.getpid(), *descendants(os.getpid())]
    return sum(_status_kb(p, "VmHWM") for p in pids) / 1024.0


def reap(timeout: float = 10.0) -> None:
    """Stop every process this run started and wait until each ended."""
    pids = descendants(os.getpid())
    for sig in (signal.SIGTERM, signal.SIGKILL):
        for p in pids:
            try:
                os.kill(p, sig)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            for p in pids:
                try:
                    os.waitpid(p, os.WNOHANG)   # reap our own children
                except ChildProcessError:
                    pass
            pids = [p for p in pids if os.path.exists(f"/proc/{p}")
                    and not _is_zombie(p)]
            if not pids:
                return
            time.sleep(0.05)


def _is_zombie(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] == "Z"
    except OSError:
        return True
