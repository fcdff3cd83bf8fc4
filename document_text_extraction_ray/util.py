"""Small shared utilities."""

from __future__ import annotations


def stabilize_fsspec_http() -> None:
    """Make ``fsspec.implementations.http`` importable even without aiohttp.

    Ray's ``_is_http_filesystem`` runs ``from fsspec.implementations.http
    import HTTPFileSystem`` on every read/write path resolution, catching only
    ModuleNotFoundError.  With aiohttp absent the import fails every time, and
    two threads resolving paths concurrently race on the half-initialized
    module — the loser gets a plain ImportError that Ray does NOT catch
    (observed crashing concurrent partition pipelines).  Installing a sentinel
    module makes the import succeed once and stay cached; the isinstance
    check against the sentinel class is correctly always False."""
    try:
        import fsspec.implementations.http  # noqa: F401
        return
    except ImportError:
        pass
    import sys
    import types

    mod = types.ModuleType("fsspec.implementations.http")

    class HTTPFileSystem:  # sentinel only — aiohttp absent => no http fs exists
        pass

    mod.HTTPFileSystem = HTTPFileSystem
    sys.modules["fsspec.implementations.http"] = mod


def ray_cpus() -> int:
    """The CPU count of the Ray cluster this process is connected to (at
    least 1): what the known-domain exchange splits its ranges by and what
    ``sources.corpus.read_corpus`` sizes its read tasks by."""
    import ray

    return max(1, int(ray.cluster_resources().get("CPU", 1)))


def pool_size(requested: int | None = None, headroom: int = 2) -> int:
    """Clamp an actor-pool size so it can never reserve every cluster CPU.

    A pool sized >= total CPUs starves the upstream read / downstream write
    tasks (observed as a full pipeline deadlock on a 4-CPU session).  Always
    leave ``headroom`` CPUs for the stateless stages."""
    import ray

    total = ray_cpus() if ray.is_initialized() else 4
    cap = max(1, total - headroom)
    if requested is None:
        return cap
    return max(1, min(requested, cap))


def materialize_compact(ds, target_block_mb: int = 8):
    """Materialize a Dataset, then DEFRAGMENT it if (and only if) it came
    out row-scarce: a small table behind a parallel reader arrives as
    dozens of near-empty blocks (a 64-way SplitBlocks read of a tiny
    parquet = 6-row blocks), and every downstream exchange then pays
    per-block fixed cost — measured 52 s/round on a 437-row pointer map,
    ~1 s once coalesced.  The check reads only materialized METADATA
    (num_blocks / size_bytes), so a large, healthy dataset passes through
    with zero extra work; the repartition fires only when the block count
    is >2x what ``target_block_mb``-sized blocks would need.  Use this
    wherever an iterative / multi-consumer stage materializes a
    map-bounded side table."""
    mat = ds.materialize()
    n_blocks = mat.num_blocks()
    size = mat.size_bytes() or 0
    target = max(1, int(-(-size // (target_block_mb << 20))))
    if n_blocks > 2 * target:
        return mat.repartition(target).materialize()
    return mat


def explain_stats(ds_or_stats):
    """Summarize ``Dataset.stats()`` into one dict per operator — the
    iterate-on-``ds.stats()`` loop as a helper: (operator, wall_s,
    tasks, rows_out) in plan order.  ``rows_out`` is the LAST
    suboperator's output-rows total (the operator's actual output);
    ``wall_s`` is the "executed in" wall when Ray reports one.

    Tolerant by design: missing fields stay None rather than raising, so
    a Ray version reshuffling the text degrades to partial summaries,
    not crashes."""
    import re

    s = ds_or_stats if isinstance(ds_or_stats, str) else ds_or_stats.stats()
    ops = []
    cur = None
    for raw in s.splitlines():
        line = raw.strip()
        m = re.match(r"Operator (\d+) (.+?)(?::| ->)", line)
        if m and not line.startswith("*"):
            cur = {"operator": m.group(2), "wall_s": None,
                   "tasks": None, "rows_out": None}
            ops.append(cur)
            mw = re.search(r"executed in ([\d.]+)s", line)
            if mw:
                cur["wall_s"] = float(mw.group(1))
            mt = re.search(r"(\d+) tasks executed", line)
            if mt:
                cur["tasks"] = int(mt.group(1))
            continue
        if cur is None:
            continue
        mt = re.search(r"(\d+) tasks executed", line)
        if mt and cur["tasks"] is None:
            cur["tasks"] = int(mt.group(1))
        mr = re.match(r"\* Output num rows per block:.*?(\d+) total", line)
        if mr:
            cur["rows_out"] = int(mr.group(1))  # last suboperator wins
    return ops
