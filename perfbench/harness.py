"""Ray session, memory sampling and per-job timeouts for the benchmark."""

from __future__ import annotations

import os
import threading
import traceback
from collections import defaultdict

import ray
from ray.data import DataContext

# The inputs are a few MB; a small object store keeps the benchmark's memory
# footprint small on a shared host.
OBJECT_STORE_BYTES = 256 << 20
# Ray puts AF_UNIX sockets (at most 107 bytes of path) up to 64 bytes below
# its temp dir: "/session_YYYY-MM-DD_HH-MM-SS_ffffff_<pid of <= 7 digits>"
# plus "/sockets/plasma_store".
_MAX_SOCKET_PATH = 107
_SOCKET_SUFFIX = 64


def start_ray(cpus: int, temp_dir: str) -> None:
    """A local Ray cluster of ``cpus`` CPUs whose session files go under
    ``temp_dir``, or under Ray's default when that path is too long for
    Ray's socket files."""
    temp_dir = os.path.abspath(temp_dir)
    if len(temp_dir) + _SOCKET_SUFFIX > _MAX_SOCKET_PATH:
        temp_dir = None
    ray.init(address="local", num_cpus=cpus, include_dashboard=False,
             logging_level="ERROR", object_store_memory=OBJECT_STORE_BYTES,
             _temp_dir=temp_dir)
    DataContext.get_current().enable_progress_bars = False


@ray.remote
def _import_program() -> None:
    import document_text_extraction_ray.pipelines.extract_pipeline  # noqa: F401
    import document_text_extraction_ray.pipelines.training_data  # noqa: F401


def warm_worker() -> None:
    """Start a Ray worker and import the program in it."""
    ray.get(_import_program.remote())


_PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")


def _read(path: str) -> bytes | None:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError:   # the process exited
        return None


def _descendants(root: int) -> list:
    children = defaultdict(list)
    for name in os.listdir("/proc"):
        stat = _read(f"/proc/{name}/stat") if name.isdigit() else None
        if stat:
            # "pid (comm) state ppid ..."; comm may hold spaces and parens.
            children[int(stat.rsplit(b")", 1)[1].split()[1])].append(int(name))
    out, todo = [], [root]
    while todo:
        kids = children[todo.pop()]
        out.extend(kids)
        todo.extend(kids)
    return out


_TICKS_PER_S = os.sysconf("SC_CLK_TCK")


def tree_cpu_s() -> float:
    """CPU seconds (user + system) used so far by this process and every
    process under it (the Ray cluster it started)."""
    me = os.getpid()
    total = 0
    for pid in [me] + _descendants(me):
        stat = _read(f"/proc/{pid}/stat")
        if stat:
            fields = stat.rsplit(b")", 1)[1].split()
            total += int(fields[11]) + int(fields[12])   # utime, stime
    return total / _TICKS_PER_S


def _rss_bytes(pid: int) -> int:
    statm = _read(f"/proc/{pid}/statm")
    return int(statm.split()[1]) * _PAGE_BYTES if statm else 0


def _is_ray_worker(pid: int) -> bool:
    cmd = _read(f"/proc/{pid}/cmdline") or b""
    return cmd.startswith(b"ray::") or b"default_worker.py" in cmd


class PeakRss:
    """Peak summed RSS (MiB) of this process and its Ray worker processes,
    sampled from /proc every ``interval`` seconds by a thread while the
    context is open."""

    def __init__(self, interval: float = 0.2):
        self.interval = interval
        self.peak_mb = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def sample(self) -> None:
        me = os.getpid()
        total = _rss_bytes(me) + sum(
            _rss_bytes(pid) for pid in _descendants(me) if _is_ray_worker(pid))
        self.peak_mb = max(self.peak_mb, total / (1 << 20))

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()

    def __enter__(self) -> "PeakRss":
        self.sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.sample()


TIMED_OUT = "timed out"


def call_with_timeout(fn, timeout_s: float) -> str | None:
    """Run ``fn()`` in a daemon thread for at most ``timeout_s`` seconds.

    Returns None on success, ``TIMED_OUT`` when the call is still running
    (the caller must then stop Ray, which unblocks the thread), or the
    error's traceback."""
    result = {}

    def target():
        try:
            fn()
        except Exception:   # a failed job is a counted failure, not a crash
            result["error"] = traceback.format_exc()

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout_s)
    if thread.is_alive():
        return TIMED_OUT
    return result.get("error")
