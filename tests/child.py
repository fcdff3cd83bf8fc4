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


def run_child(args, timeout: float, **kwargs) -> subprocess.CompletedProcess:
    """``subprocess.run(args, capture_output=True, text=True, check=True,
    timeout=timeout, **kwargs)`` with the child in its own session, whose
    process group is killed when the timeout expires."""
    with subprocess.Popen(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, start_new_session=True, **kwargs) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            out, err = proc.communicate()
            raise subprocess.TimeoutExpired(args, timeout, out, err) from None
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, args, out, err)
    return subprocess.CompletedProcess(args, proc.returncode, out, err)
