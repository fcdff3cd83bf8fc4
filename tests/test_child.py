"""The child-process helper: a child that hangs after ``ray.init`` leaves
no process behind once its timeout expires."""

import json
import os
import subprocess
import sys

import pytest

from child import run_child

# Prints {pid: name} of every process descending from the child (read from
# /proc while Ray runs), then hangs.
_HANG_AFTER_RAY_INIT = """
import json, os, time
import ray
ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR")
ray.get(ray.remote(lambda: 0).remote())  # a worker is running too
kids = {}
for name in filter(str.isdigit, os.listdir("/proc")):
    try:
        stat = open(f"/proc/{name}/stat").read()
        kids.setdefault(int(stat[stat.rindex(")") + 2:].split()[1]), []).append(
            (int(name), open(f"/proc/{name}/comm").read().strip()))
    except OSError:
        pass
tree, todo = {}, [os.getpid()]
while todo:
    for pid, comm in kids.get(todo.pop(), []):
        tree[pid] = comm
        todo.append(pid)
print(json.dumps(tree), flush=True)
time.sleep(600)
"""


def _alive(pid: int) -> bool:
    """True while ``pid`` runs (a zombie has exited; it only awaits reaping)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            stat = fh.read()
    except OSError:
        return False
    return stat[stat.rindex(")") + 2] != "Z"


def test_timeout_kills_every_descendant():
    with pytest.raises(subprocess.TimeoutExpired) as info:
        run_child([sys.executable, "-c", _HANG_AFTER_RAY_INIT], timeout=30)
    child = info.value
    lines = (child.stdout or "").strip().splitlines()
    assert lines, f"the child never reported its processes: {child.stderr}"
    tree = {int(pid): name for pid, name in json.loads(lines[-1]).items()}
    assert {"raylet", "gcs_server"} <= set(tree.values()), tree
    assert not [(p, n) for p, n in tree.items() if _alive(p)]
