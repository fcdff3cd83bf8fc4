"""Run a child Python process that may start Ray, so that a timeout leaves
no process behind.

``subprocess.run(..., timeout=...)`` kills only the child it started.  A
child that called ``ray.init`` has started a raylet, a GCS server, workers
and agents of its own, and some of them outlive a killed driver.  Here the
child leads its own process group, which Ray's processes stay in, and the
whole group is killed when the timeout expires.
"""

from __future__ import annotations

import os
import signal
import subprocess
import time


def _group_running(pgid: int) -> bool:
    """True while a process of group ``pgid`` has not yet exited (a zombie
    has exited; it only awaits reaping by a parent that may never come)."""
    for name in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{name}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        state, _, pgrp = stat[stat.rindex(")") + 2:].split()[:3]
        if state != "Z" and int(pgrp) == pgid:
            return True
    return False


def _kill_group(pgid: int) -> None:
    """SIGKILL the group, then wait (up to 10 s) until its processes have
    exited: a signalled process dies asynchronously, and a big one (the
    raylet unmapping its object store) can outlive the call by a while."""
    os.killpg(pgid, signal.SIGKILL)
    deadline = time.monotonic() + 10
    while _group_running(pgid) and time.monotonic() < deadline:
        time.sleep(0.05)


def run_child(args, timeout: float, kill_when=None,
              **kwargs) -> subprocess.CompletedProcess:
    """``subprocess.run(args, capture_output=True, text=True, check=True,
    timeout=timeout, **kwargs)`` with the child in its own session, whose
    process group is killed when the timeout expires; it returns or raises
    only once every process of that group has exited.

    ``kill_when``, a function of no arguments polled every 10 ms while the
    child runs, kills the group with SIGKILL as soon as it returns true;
    the result then carries the child's return code (-9) instead of
    raising."""
    deadline = time.monotonic() + timeout
    with subprocess.Popen(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, start_new_session=True, **kwargs) as proc:
        while True:
            left = deadline - time.monotonic()
            try:
                out, err = proc.communicate(
                    timeout=left if kill_when is None else min(left, 0.01))
                break
            except subprocess.TimeoutExpired:
                killed = kill_when is not None and kill_when()
                if killed or time.monotonic() >= deadline:
                    _kill_group(proc.pid)
                    out, err = proc.communicate()
                    if killed:
                        return subprocess.CompletedProcess(
                            args, proc.returncode, out, err)
                    raise subprocess.TimeoutExpired(args, timeout, out,
                                                    err) from None
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, args, out, err)
    return subprocess.CompletedProcess(args, proc.returncode, out, err)
