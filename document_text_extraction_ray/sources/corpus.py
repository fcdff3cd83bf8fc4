"""Corpus sources: Parquet readers + Ray-distributed synthetic generation.

The synthetic corpus (FIXTURES.md §1) is generated *inside* Ray tasks — the
generator is per-row seeded, so sharded generation is bit-identical to
single-process generation regardless of block layout.
"""

from __future__ import annotations

import html as _html
import itertools
import os

import pyarrow as pa
import pyarrow.parquet as pq
import ray.data

from .. import schema as S
from ..util import ray_cpus
from .synth import EPOCH_US, synth_page


def _parquet_files(paths) -> list | None:
    """The files a Parquet read of ``paths`` (a directory, a file or a list
    of them) opens, skipping names that start with ``.`` or ``_`` as
    pyarrow's discovery does; None when a path is not a local file or
    directory (a URI, a glob, a missing path)."""
    files = []
    for path in [paths] if isinstance(paths, str) else paths:
        if os.path.isfile(path):
            files.append(path)
        elif os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs[:] = [d for d in dirs if not d.startswith((".", "_"))]
                files += [os.path.join(root, n) for n in names
                          if not n.startswith((".", "_"))]
        else:
            return None
    return files


def _read_tasks(paths, block_target: int | None = None,
                groups: list | None = None) -> int | None:
    """The read-task count ``read_corpus`` asks Ray for, or None for Ray's
    own plan: one task per Ray CPU when there are at least that many input
    files and they decode to no more than the block target (``block_target``,
    default ``DataContext.target_max_block_size``) per file on average.
    With ``groups``, the fewest tasks, at least one per CPU, that no group
    straddles (``_group_cut``).

    Then no task reads part of a file, so Ray inserts no ``SplitBlocks`` and
    the read fuses with the maps after it, in one wave of tasks; Ray's plan
    (aim at 200 blocks but none under 1 MiB, and at least two per CPU)
    would cut a small corpus into several tasks per CPU, each paying Ray's
    per-task cost.  Ray keeps its plan when there are fewer files than CPUs
    (only its split of a file can use every CPU then), when the input
    passes one block target per file (its split keeps giant rows apart; a
    smaller target, the sharded job's ``target_block_mb``, reaches this
    sooner), when a path cannot be listed, or when no Ray session is up."""
    if not ray.is_initialized():
        return None
    files = _parquet_files(paths)
    cpus = ray_cpus()
    if files is None or len(files) < cpus:
        return None
    target = (block_target
              or ray.data.DataContext.get_current().target_max_block_size)
    if target and _uncompressed_bytes(files) > len(files) * target:
        return None
    return cpus if groups is None else _group_cut(groups, cpus)


def _group_cut(groups: list, least: int) -> int:
    """The fewest read tasks, at least ``least``, such that no task reads
    files of two groups (``groups``: sizes of consecutive runs of the file
    list).  Ray deals the n files to N tasks as ``np.array_split`` does:
    the first n % N tasks get one file more.  N = n, one file per task,
    always cuts at every group boundary."""
    n = sum(groups)
    bounds = list(itertools.accumulate(groups))[:-1]
    for tasks in range(max(least, len(groups)), n):
        size, extra = divmod(n, tasks)
        big = extra * (size + 1)        # the files of the larger tasks
        if all(b % (size + 1) == 0 if b <= big else (b - big) % size == 0
               for b in bounds):
            return tasks
    return n


def _uncompressed_bytes(files) -> int:
    """The decoded size of ``files``' row groups, from their Parquet
    footers: the size the read's blocks hold and Ray's block target is
    measured against, which compression hides on disk."""
    total = 0
    for f in files:
        md = pq.read_metadata(f)
        total += sum(md.row_group(i).total_byte_size
                     for i in range(md.num_row_groups))
    return total


def read_corpus(paths, columns=None, *, include_paths: bool = False,
                block_target: int | None = None,
                groups: list | None = None) -> ray.data.Dataset:
    """Read Parquet from a directory, a file or a list of files in
    ``_read_tasks(paths)`` tasks, pruning columns at the read (never load
    `html` for a stage that only needs `text`).  The one sized reader of
    the extraction path: the jobs, the committed-table read and the CLI
    all read through it.

    ``include_paths`` adds Ray's ``path`` column (the file a row came
    from).  ``block_target`` (bytes) is this Dataset's own block target:
    it sizes the read plan, and it is set on the Dataset's context, which
    Ray plans the read split and sizes every fused map's output blocks
    from, so the process-global ``DataContext`` is left alone.

    ``groups`` (sizes of consecutive runs of the list ``paths``) keeps
    every read task within one run, so the tasks' outputs can be committed
    run by run as the tasks end.  A sized read cuts the files at the run
    boundaries (``_group_cut``); where Ray's own plan stands because there
    are fewer files than CPUs or the files pass the block target, it reads
    one file per task anyway (it asks for at least two tasks per CPU and
    at least one per block target)."""
    ds = ray.data.read_parquet(
        paths, columns=columns, include_paths=include_paths,
        override_num_blocks=_read_tasks(paths, block_target, groups))
    if block_target is not None:
        ds.context.target_max_block_size = block_target
    return ds


def _rows_to_corpus_table(rows, include_golden: bool) -> pa.Table:
    cols = {
        "url": pa.array([r["url"] for r in rows], type=pa.string()),
        "warc_ts": pa.array([r["warc_ts"] for r in rows], type=pa.timestamp("us")),
        "html": pa.array([r["html"] for r in rows], type=pa.large_binary()),
        "text": pa.array([r["text"] for r in rows], type=pa.large_string()),
        "lang": pa.array([r["lang"] for r in rows], type=pa.string()),
    }
    if include_golden:
        cols["expected_text"] = pa.array(
            [r["expected_text"] for r in rows], type=pa.large_string()
        )
        cols["expected_spans"] = pa.array(
            [r["expected_spans"] for r in rows], type=pa.large_list(S.SPAN_TYPE)
        )
        cols["expected_fields"] = pa.array(
            [r["expected_fields"] for r in rows], type=S.FIELDS_TYPE
        )
    return pa.table(cols)


def synth_corpus_dataset(
    n: int, seed: int = 42, include_golden: bool = False
) -> ray.data.Dataset:
    """Distributed deterministic corpus generation: range(n) -> pages."""

    def build(batch: pa.Table) -> pa.Table:
        rows = [synth_page(int(i), seed) for i in batch.column("id").to_pylist()]
        return _rows_to_corpus_table(rows, include_golden)

    return ray.data.range(n).map_batches(
        build, batch_format="pyarrow", batch_size=256
    )


def synth_corpus_table(n: int, seed: int = 42, include_golden: bool = True) -> pa.Table:
    """Single-process generation (tests / golden fixtures)."""
    return _rows_to_corpus_table([synth_page(i, seed) for i in range(n)], include_golden)


def materialize_corpus_parquet(n: int, seed: int = 42, base_dir: str = "/tmp/dte_corpus",
                               shard_rows: int = 2000) -> str:
    """Generate (once, cached by n/seed) a corpus Parquet dir for benchmarks.

    Written via Ray so generation itself is parallel; one file per shard so a
    later read parallelizes.
    """
    out = os.path.join(base_dir, f"n{n}_seed{seed}")
    marker = os.path.join(out, "_SUCCESS")
    if os.path.exists(marker):
        return out
    os.makedirs(out, exist_ok=True)
    ds = synth_corpus_dataset(n, seed)
    ds.repartition(max(1, n // shard_rows)).write_parquet(out)
    with open(marker, "w") as f:
        f.write("ok")
    return out


# --- Wrapping the driver's `documents` table into corpus shape -------------

_DOC_PREFIX = "https://docs.example/"


def wrap_documents_batch(batch: pa.Table) -> pa.Table:
    """Deterministically wrap testdata `documents` rows into Common-Crawl-style
    pages: the document text becomes the single main-content block, surrounded
    by boilerplate. The expected extraction of such a page is exactly the
    whitespace-normalized document text (SQL oracle:
    ``regexp_replace(trim(text), '\\s+', ' ', 'g')``)."""
    rows = []
    for doc_id, text, lang in zip(
        batch.column("doc_id").to_pylist(),
        batch.column("text").to_pylist(),
        batch.column("lang").to_pylist(),
    ):
        body = _html.escape(text or "")
        html = (
            "<!DOCTYPE html>\n<html>\n<head><title>Doc "
            f"{doc_id}</title></head>\n<body>\n"
            '<nav><a href="/">Home page</a> <a href="/about">About this site</a></nav>\n'
            f"<main><article>\n<p>{body}</p>\n</article></main>\n"
            "<footer><p>autogenerated footer text</p></footer>\n"
            "</body>\n</html>\n"
        ).encode("utf-8")
        rows.append(
            {
                "url": f"{_DOC_PREFIX}{doc_id}",
                "warc_ts": EPOCH_US + int(doc_id) * 137_000_000,
                "html": html,
                "text": text or "",
                "lang": lang or "",
            }
        )
    return _rows_to_corpus_table(rows, include_golden=False)


def corpus_from_documents(sf_dir: str) -> ray.data.Dataset:
    """`documents.parquet` -> corpus-shaped Dataset (url, warc_ts, html, text, lang)."""
    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text", "lang"],
    )
    return docs.map_batches(wrap_documents_batch, batch_format="pyarrow")


def write_golden_parquet(n: int, seed: int, path: str) -> str:
    """Golden outputs table for fixture tests (single-process oracle)."""
    t = synth_corpus_table(n, seed, include_golden=True)
    golden = t.select(["url", "expected_text", "expected_spans", "expected_fields"])
    pq.write_table(golden, path)
    return path
