"""One bucket exchange over a known key domain: the shuffle behind every
operator that first tags its rows with an int bucket id in ``[0, n)`` (a
key hash, a url-hash bucket, a merge part) and then folds each bucket.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..util import ray_cpus


def range_boundaries(n_buckets: int) -> list:
    """Sort boundaries splitting the bucket domain ``[0, n_buckets)`` into
    R = min(n_buckets, Ray CPU count) contiguous ranges."""
    r = max(1, min(n_buckets, ray_cpus()))
    if r == 1:
        return [n_buckets]  # an empty list would make Ray sample instead
    return [i * n_buckets // r for i in range(1, r)]


def range_exchange(ds, col: str, n_buckets: int):
    """``ds`` range-shuffled on an int ``col`` whose values lie in
    ``[0, n_buckets)``: one sort on fixed boundaries (``range_boundaries``;
    no sampling stage), so each reduce block holds one contiguous range of
    buckets, sorted by ``col``.

    Scale contract: R = min(n_buckets, Ray CPUs) reduce tasks, so with
    hash-balanced buckets a task holds about 1/R of the exchanged rows (all
    of a bucket's rows always meet in one task).  Raising ``n_buckets``
    past the CPU count does not shrink a task; more CPUs do.  A value
    outside the domain only unbalances the ranges (keys past the last
    boundary land in the last one), never splits a bucket.  A range that
    gets no rows yields an empty block that carries no schema."""
    return ds.sort(col, boundaries=range_boundaries(n_buckets))


def bucket_runs(keys: np.ndarray, col: str) -> list:
    """Start offsets of the runs of equal ``keys`` in a block of
    ``range_exchange``, then ``len(keys)``; raises if the block is not
    sorted by ``col``."""
    steps = np.diff(keys)
    if (steps < 0).any():
        raise ValueError(f"range_exchange: a block is not sorted by {col}")
    return [0, *(np.flatnonzero(steps) + 1).tolist(), len(keys)]


def bucket_exchange(ds, col: str, n_buckets: int, fn, batch_format: str):
    """``ds.groupby(col).map_groups(fn, batch_format=...)`` for an int
    ``col`` whose values lie in ``[0, n_buckets)``: one ``range_exchange``,
    then ``fn`` once per bucket run, in ``batch_format``, bucket column
    included.  Scale contract: ``range_exchange``.  A range that gets no
    rows is passed on by Ray without calling ``fn``, so the dataset's
    schema is the fold's.  Empty fold results are dropped (see
    ``per_range``)."""
    from ray.data.block import BlockAccessor

    def per_range(block):
        acc = BlockAccessor.for_block(block)
        starts = bucket_runs(acc.to_numpy(col), col)
        kept = False
        for a, b in zip(starts, starts[1:]):
            run = BlockAccessor.for_block(acc.slice(a, b, copy=False))
            out = fn(run.to_batch_format(batch_format))
            if len(out):
                kept = True
                yield out
        if not kept:
            # One empty pandas block turns every later sort that meets it
            # to pandas, where typed-null ints become floats; a range that
            # folds to nothing leaves one empty Arrow block with the
            # fold's columns instead.
            yield out if isinstance(out, pa.Table) else \
                pa.Table.from_pandas(out, preserve_index=False)

    return range_exchange(ds, col, n_buckets).map_batches(
        per_range, batch_size=None, batch_format=None)
