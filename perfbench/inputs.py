"""Seeded benchmark inputs: a Common-Crawl-style corpus as Parquet shards plus
the golden text of every page.

Pages come from the program's ``synth_page``, which records each page's golden
main text while it builds the html.  The program only ever sees the Parquet
shards; the golden text stays with the benchmark.

Two input properties are pinned instead of left to chance, because they set
how much work a job does and so how much its wall time varies from seed to
seed:

* the giant-page tail is exactly ``GIANT_SHARE`` of the original pages
  (``synth_page`` draws it at random, so candidate pages are taken in index
  order until both the giant and the regular quota are full);
* a duplicated corpus holds exactly ``round(n * dup_share)`` byte-identical
  copies of seeded originals, under new urls that sort both before and after
  the original's url, so "the minimum url survives" is really tested.

Generated inputs are cached on disk per (workload, size, seed); a cache hit
costs one Parquet read of the golden table.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
from dataclasses import dataclass

import pyarrow as pa
import pyarrow.parquet as pq

from document_text_extraction_ray import schema as S
from document_text_extraction_ray.sources.synth import synth_page

GIANT_SHARE = 0.01
# Regular synth pages have at most 14 main blocks, giant ones at least 61.
GIANT_MIN_BLOCKS = 40
# Rows per Parquet shard.  A shard decodes to about 0.5 MiB, so Ray's read
# planner (at least 1 MiB per block) never splits a shard into more blocks.
# Near 1 MiB per shard the split factor flips from seed to seed, which moves
# docs/s by ~30%.
SHARD_ROWS = 100
GOLDEN_FILE = "golden.parquet"
CORPUS_DIR = "corpus"


def text_digest(text: str) -> bytes:
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).digest()


@dataclass(frozen=True)
class Corpus:
    """One generated input: the Parquet shards the program reads, and the
    golden extracted text per url that the output checks compare against."""

    path: str       # directory of corpus shards
    files: tuple    # the shard files, sorted
    golden: dict    # url -> golden extracted text

    @property
    def n_docs(self) -> int:
        return len(self.golden)

    @property
    def input_bytes(self) -> int:
        return sum(os.path.getsize(f) for f in self.files)


def _pages(n: int, seed: int) -> list:
    """``n`` synth pages of ``seed`` with exactly ``round(n * GIANT_SHARE)``
    giant pages, in index order."""
    giants_left = round(n * GIANT_SHARE)
    regular_left = n - giants_left
    pages = []
    i = 0
    while giants_left or regular_left:
        page = synth_page(i, seed)
        i += 1
        if len(page["expected_spans"]) > GIANT_MIN_BLOCKS:
            if giants_left:
                giants_left -= 1
                pages.append(page)
        elif regular_left:
            regular_left -= 1
            pages.append(page)
    return pages


def _copy_url(src_url: str, j: int) -> str:
    # Even copies sort before every synth url ("https://a..." < "https://s..."),
    # odd copies right after their original.
    if j % 2 == 0:
        return f"https://archive.example/copy{j}/{src_url.rsplit('/', 1)[-1]}"
    return f"{src_url}?copy={j}"


def build_rows(n: int, seed: int, dup_share: float = 0.0) -> list:
    """The corpus rows of one input, in their on-disk order.  Each row is a
    ``synth_page`` dict; duplicate rows share the original's html and golden
    text under a new url."""
    n_dups = round(n * dup_share)
    rows = _pages(n - n_dups, seed)
    rng = random.Random(f"perfbench:{seed}")
    for j in range(n_dups):
        src = rng.choice(rows[: n - n_dups])
        rows.append({**src, "url": _copy_url(src["url"], j)})
    rng.shuffle(rows)
    return rows


def _write(rows: list, out: str) -> None:
    corpus_dir = os.path.join(out, CORPUS_DIR)
    os.makedirs(corpus_dir)
    table = pa.Table.from_pylist(
        [{k: r[k] for k in S.CORPUS_SCHEMA.names} for r in rows],
        schema=S.CORPUS_SCHEMA,
    )
    for k, start in enumerate(range(0, len(rows), SHARD_ROWS)):
        pq.write_table(table.slice(start, SHARD_ROWS),
                       os.path.join(corpus_dir, f"part-{k:05d}.parquet"))
    pq.write_table(
        pa.table({
            "url": [r["url"] for r in rows],
            "expected_text": pa.array([r["expected_text"] for r in rows],
                                      pa.large_string()),
        }),
        os.path.join(out, GOLDEN_FILE),
    )


def load_or_generate(cache_root: str, workload: str, n: int, seed: int,
                     dup_share: float = 0.0) -> Corpus:
    """The input of (workload, n, seed), generated on first use and cached
    under ``cache_root``.  A partly written cache entry is never visible:
    generation writes to a temporary directory and renames it into place."""
    out = os.path.join(cache_root, f"{workload}-n{n}-s{seed}-r{SHARD_ROWS}")
    if not os.path.isdir(out):
        tmp = f"{out}.tmp{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        _write(build_rows(n, seed, dup_share), tmp)
        os.rename(tmp, out)
    corpus_dir = os.path.join(out, CORPUS_DIR)
    golden = pq.read_table(os.path.join(out, GOLDEN_FILE))
    return Corpus(
        path=corpus_dir,
        files=tuple(sorted(
            os.path.join(corpus_dir, f) for f in os.listdir(corpus_dir)
        )),
        golden=dict(zip(golden.column("url").to_pylist(),
                        golden.column("expected_text").to_pylist())),
    )
