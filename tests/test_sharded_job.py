"""The sharded extraction job as one Dataset execution: plan, batch size,
manifests from in-task stats, read projection, retries and failures,
kill-resume, per-Dataset block target and the ``summary`` CLI."""

import itertools
import json
import os
import sys
import threading

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray
import ray.data
from ray.data._internal.execution.streaming_executor import StreamingExecutor

from child import run_child
from document_text_extraction_ray.pipelines import extract_pipeline
from document_text_extraction_ray.pipelines.extract_pipeline import (
    run_sharded_extraction_job,
)
from document_text_extraction_ray.sources import corpus
from document_text_extraction_ray.sources.corpus import synth_corpus_table
from document_text_extraction_ray.stages.extract import extract_batch
from document_text_extraction_ray.state import checkpoint as ckpt

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _corpus(tmp_path, n_files, rows_per_file=30, name="c", seed=42,
            transform=None):
    """``n_files`` Parquet files of synth pages; returns (dir, golden)."""
    pages = synth_corpus_table(n_files * rows_per_file, seed=seed)
    golden = dict(zip(pages.column("url").to_pylist(),
                      pages.column("expected_text").to_pylist()))
    pages = pages.select(["url", "warc_ts", "html", "text", "lang"])
    corpus_dir = tmp_path / name
    corpus_dir.mkdir()
    for k in range(n_files):
        t = pages.slice(k * rows_per_file, rows_per_file)
        if transform is not None:
            t = transform(k, t)
        pq.write_table(t, str(corpus_dir / f"f{k:02d}.parquet"))
    return str(corpus_dir), golden


def _committed_text(out_dir) -> dict:
    t = ckpt.read_committed_table(out_dir, columns=["url", "extracted_text"])
    urls = t.column("url").to_pylist()
    assert len(set(urls)) == len(urls)
    return dict(zip(urls, t.column("extracted_text").to_pylist()))


def _part_files(out_dir) -> dict:
    """part -> paths of its committed files."""
    return {m["part"]: [os.path.join(out_dir, f"part={m['part']}", f)
                        for f in m["files"]]
            for m in ckpt.read_manifests(out_dir)}


@pytest.fixture
def executions(monkeypatch):
    """Names of the physical plans run by ``StreamingExecutor.execute``."""
    plans = []
    execute = StreamingExecutor.execute

    def counted(self, dag, *args, **kwargs):
        plans.append(dag.name)
        return execute(self, dag, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    return plans


def test_one_execution_one_file_per_partition_at_one_cpu(
        tmp_path, monkeypatch, executions):
    """At one Ray CPU the job is one execution of one fused operator, and
    each 8-file partition commits as one file of one row group: the read
    task's rows reach the write as one batch.  The manifest counts come
    from the stats rows, and ``part_stats`` is never called."""
    corpus_dir, golden = _corpus(tmp_path, 16)
    out_dir = str(tmp_path / "out")
    monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": 1})
    monkeypatch.setattr(ckpt, "part_stats", None)
    s = run_sharded_extraction_job(corpus_dir, out_dir, run_id="r1")
    assert s == {"committed": 2, "skipped": 0, "rows": 480, "partitions": 2,
                 "failed": []}
    assert executions == ["ReadParquet->MapBatches(_tag_inputs)"
                          "->MapBatches(_extract_tagged)"
                          "->MapBatches(stage_parts)"]
    assert _committed_text(out_dir) == golden
    for m in ckpt.read_manifests(out_dir):
        (path,) = _part_files(out_dir)[m["part"]]
        md = pq.read_metadata(path)
        assert md.num_row_groups == 1 and md.num_rows == m["row_count"] == 240
        t = pq.read_table(path, columns=["status", "n_chars", "html_bytes"])
        assert m["ok_count"] == 240 and m["error_count"] == 0
        assert m["total_chars"] == sum(t.column("n_chars").to_pylist())
        assert m["html_bytes"] == sum(t.column("html_bytes").to_pylist())
        assert m["error_classes"] == {}
        assert len(m["input_files"]) == 8
    assert not os.path.exists(os.path.join(out_dir, ckpt.STAGING_DIR))


def test_one_execution_at_four_cpus(tmp_path, executions):
    """At 4 CPUs the 8 files are read in 4 tasks, so each of the two
    partitions commits one file per task that read it."""
    corpus_dir, golden = _corpus(tmp_path, 8)
    out_dir = str(tmp_path / "out")
    s = run_sharded_extraction_job(corpus_dir, out_dir, run_id="r1",
                                   files_per_partition=4, with_fields=False)
    assert s["committed"] == 2 and s["rows"] == 240
    assert len(executions) == 1
    assert _committed_text(out_dir) == golden
    assert sorted(len(f) for f in _part_files(out_dir).values()) == [2, 2]


@pytest.mark.parametrize("shape", ["extra_column", "no_lang", "mixed_lang"])
def test_read_projection(tmp_path, monkeypatch, shape):
    """The read asks only for ``url``, ``warc_ts``, ``html`` and, when every
    file has it, ``lang``; a corpus with an extra column, one without
    ``lang`` and one where only some files have it all commit golden
    text."""
    def transform(k, t):
        if shape == "extra_column":
            return t.append_column("extra", pa.array([k] * t.num_rows))
        if shape == "no_lang" or k % 2:
            return t.drop_columns(["lang"])
        return t

    corpus_dir, golden = _corpus(tmp_path, 4, transform=transform)
    read_columns = []
    read_corpus = extract_pipeline.read_corpus

    def recorded(paths, columns=None, **kwargs):
        read_columns.append(columns)
        return read_corpus(paths, columns=columns, **kwargs)

    monkeypatch.setattr(extract_pipeline, "read_corpus", recorded)
    out_dir = str(tmp_path / "out")
    run_sharded_extraction_job(corpus_dir, out_dir, run_id="r1",
                               with_fields=False)
    assert read_columns == [{
        "extra_column": ["url", "warc_ts", "html", "lang"],
        "no_lang": ["url", "warc_ts", "html"],
        "mixed_lang": None,
    }[shape]]
    assert _committed_text(out_dir) == golden
    want_lang = {}
    for f in sorted(os.listdir(corpus_dir)):
        t = pq.read_table(os.path.join(corpus_dir, f))
        langs = (t.column("lang").to_pylist() if "lang" in t.column_names
                 else [""] * t.num_rows)
        want_lang.update(zip(t.column("url").to_pylist(), langs))
    t = ckpt.read_committed_table(out_dir, columns=["url", "lang"])
    assert dict(zip(t.column("url").to_pylist(),
                    t.column("lang").to_pylist())) == want_lang


def _tagged_batch(n=6):
    pages = synth_corpus_table(n, seed=5)
    out = extract_batch(pages, with_fields=False)
    return (out.append_column("part", pa.array([3] * n, pa.int32()))
            .append_column("file", pa.array([0] * (n // 2) + [1] * (n - n // 2),
                                            pa.int32())))


def _recrawled(batch):
    """``batch`` with every page fetched one second later: same urls,
    other rows."""
    ts = batch.column("warc_ts")
    later = pc.add(ts.cast(pa.int64()), 1_000_000).cast(ts.type)
    return batch.set_column(batch.schema.get_field_index("warc_ts"),
                            "warc_ts", later)


def test_stage_parts_names_files_by_their_rows(tmp_path):
    """A retried task rewrites the same file under the same name; a batch
    of other rows gets another name, also when it holds the same urls
    from the same input file (a recrawl).  Files hold the extracted
    columns only, in one row group."""
    batch = _tagged_batch()
    first = ckpt.stage_parts(batch, str(tmp_path)).to_pylist()
    again = ckpt.stage_parts(batch, str(tmp_path)).to_pylist()
    assert first == again and len(first) == 1
    other = ckpt.stage_parts(batch.slice(0, 5), str(tmp_path)).to_pylist()
    assert other[0]["file"] != first[0]["file"]
    recrawl = ckpt.stage_parts(_recrawled(batch), str(tmp_path)).to_pylist()
    assert recrawl[0]["file"] not in (first[0]["file"], other[0]["file"])
    assert len(os.listdir(tmp_path / "part=3")) == 3
    path = tmp_path / "part=3" / first[0]["file"]
    md = pq.read_metadata(str(path))
    assert md.num_row_groups == 1 and md.num_rows == 6
    assert "part" not in md.schema.names and "file" not in md.schema.names
    assert first[0]["row_count"] == 6 and first[0]["ok_count"] == 6


def test_ledger_ignores_a_resent_stats_row(tmp_path):
    """A stats row sent again after a task retry is neither counted twice
    nor lets its partition commit twice; a partition commits only when
    its footers' row count has reported."""
    out_dir = str(tmp_path / "out")
    ckpt.sweep_staging(out_dir)
    ledger = ckpt.PartLedger(out_dir, "r1", "v")
    batch = _tagged_batch()
    rows = ckpt.stage_parts(batch.slice(0, 3), ledger.staging).to_pylist()
    rows += ckpt.stage_parts(batch.slice(3), ledger.staging).to_pylist()
    ledger.expect(3, ["a.parquet", "b.parquet"], 6)
    ledger.expect(4, ["c.parquet"], 0)            # empty: commits at once
    assert ledger.committed == {4: 0}
    ledger.report(rows[0])
    ledger.report(rows[0])                        # resent after a retry
    assert 3 in ledger.pending and ledger.pending[3]["row_count"] == 3
    ledger.report(rows[1])
    ledger.report(rows[1])                        # after the commit
    assert ledger.committed == {4: 0, 3: 6} and not ledger.pending
    (m,) = [m for m in ckpt.read_manifests(out_dir) if m["part"] == 3]
    assert m["row_count"] == 6 and sorted(m["files"]) == \
        sorted(r["file"] for r in rows)
    assert len(ckpt.read_committed_table(out_dir, columns=["url"])) == 6


def test_ledger_commits_two_batches_of_one_file_with_the_same_urls(
        tmp_path):
    """Two batches from one input file that hold the same urls but other
    rows (a page recrawled at another ``warc_ts``) are two files and two
    stats rows: the partition reaches its footers' count and keeps both."""
    out_dir = str(tmp_path / "out")
    ckpt.sweep_staging(out_dir)
    ledger = ckpt.PartLedger(out_dir, "r1", "v")
    batch = _tagged_batch().slice(0, 3)           # all from file 0
    rows = ckpt.stage_parts(batch, ledger.staging).to_pylist()
    rows += ckpt.stage_parts(_recrawled(batch), ledger.staging).to_pylist()
    ledger.expect(3, ["a.parquet"], 6)
    for row in rows:
        ledger.report(row)
    assert ledger.committed == {3: 6}
    t = ckpt.read_committed_table(out_dir, columns=["url", "warc_ts"])
    assert t.num_rows == 6 and len(set(t.column("url").to_pylist())) == 3
    assert len(set(t.column("warc_ts").to_pylist())) == 6


def test_identical_rows_in_two_batches_both_commit(tmp_path):
    """A file holding the same giant page twice (same url, ``warc_ts`` and
    html) under a 1 MiB block target reaches the write as two batches of
    identical rows; their files still get two names, so both rows commit
    and the partition meets its footers' count."""
    def twice(k, t):
        page = t.slice(0, 1).to_pydict()
        page["html"] = [page["html"][0] + b" " * (1536 * 1024)]
        return pa.concat_tables([pa.table(page, schema=t.schema)] * 2)

    corpus_dir, _ = _corpus(tmp_path, 1, rows_per_file=1, transform=twice)
    out_dir = str(tmp_path / "out")
    s = run_sharded_extraction_job(corpus_dir, out_dir, run_id="r1",
                                   with_fields=False, target_block_mb=1)
    assert s["committed"] == 1 and s["rows"] == 2 and s["failed"] == []
    (files,) = _part_files(out_dir).values()
    assert len(files) == 2
    t = ckpt.read_committed_table(out_dir, columns=["url"])
    assert t.num_rows == 2 and len(set(t.column("url").to_pylist())) == 1


@pytest.mark.parametrize("groups,least", [
    ([8, 8, 4], 1), ([8, 8], 1), ([4, 4], 4), ([8] * 5 + [3], 4),
    ([5, 3], 1), ([1, 1, 1], 2), ([3], 8),
])
def test_group_cut_keeps_every_read_task_within_a_group(groups, least):
    """``_group_cut`` asks for the fewest tasks, at least ``least`` (when
    there are that many files), that Ray's even split of the file list
    cuts at every group boundary."""
    tasks = corpus._group_cut(groups, least)
    n = sum(groups)
    assert min(least, n) <= tasks <= n
    ends = set(itertools.accumulate(
        len(c) for c in np.array_split(np.arange(n), tasks)))
    assert set(itertools.accumulate(groups)) <= ends
    for fewer in range(max(least, len(groups)), tasks):
        ends = set(itertools.accumulate(
            len(c) for c in np.array_split(np.arange(n), fewer)))
        assert not set(itertools.accumulate(groups)) <= ends


def _corrupt_data_pages(path):
    """Keep the footer (so its row count reads), garble the first page."""
    data = bytearray(path.read_bytes())
    data[4:260] = b"\xff" * 256
    path.write_bytes(bytes(data))


def test_read_failure_fails_every_uncommitted_partition(tmp_path):
    """A file whose footer reads but whose pages do not fails inside the
    one execution: every partition not committed by then is reported
    failed, none is committed twice, and a rerun with the file mended
    commits exactly those."""
    corpus_dir, golden = _corpus(tmp_path, 4)
    bad = tmp_path / "c" / "f02.parquet"
    good = bad.read_bytes()
    _corrupt_data_pages(bad)
    assert pq.read_metadata(str(bad)).num_rows == 30
    out_dir = str(tmp_path / "out")
    s1 = run_sharded_extraction_job(corpus_dir, out_dir, run_id="r1",
                                    files_per_partition=1, with_fields=False,
                                    skip_failed_partitions=True)
    failed = sorted(f["part"] for f in s1["failed"])
    assert 2 in failed
    assert s1["committed"] + len(failed) == 4
    assert sorted(ckpt.committed_keys(out_dir, "part")) == \
        sorted(set(range(4)) - set(failed))
    with pytest.raises(Exception):
        run_sharded_extraction_job(corpus_dir, str(tmp_path / "o2"),
                                   run_id="r1", files_per_partition=1,
                                   with_fields=False)
    bad.write_bytes(good)
    s2 = run_sharded_extraction_job(corpus_dir, out_dir, run_id="r2",
                                    files_per_partition=1, with_fields=False)
    assert s2["committed"] == len(failed) and s2["failed"] == []
    assert _committed_text(out_dir) == golden


_ONE_CPU_JOB = r"""
import json, sys
import ray
ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from document_text_extraction_ray.pipelines.extract_pipeline import (
    run_sharded_extraction_job)
print(json.dumps(run_sharded_extraction_job(
    sys.argv[1], sys.argv[2], run_id=sys.argv[3], with_fields=False)))
ray.shutdown()
"""


def test_kill_resume_converges(tmp_path):
    """A one-CPU job with the default partitions and block target,
    SIGKILLed once its first partition manifest exists, keeps that
    partition and leaves the rest uncommitted: each read task reads one
    partition's files, so partitions commit one after another.  A rerun
    under a new run_id converges to one row per url with golden text and
    no staging left."""
    corpus_dir, golden = _corpus(tmp_path, 32, rows_per_file=60)
    out_dir = str(tmp_path / "out")
    mdir = os.path.join(out_dir, ckpt.MANIFEST_DIR)

    def first_manifest():
        return os.path.isdir(mdir) and any(
            n.startswith("part=") and n.endswith(".json")
            for n in os.listdir(mdir))

    def job(run_id, **kwargs):
        return run_child([sys.executable, "-c", _ONE_CPU_JOB, corpus_dir,
                          out_dir, run_id], timeout=180, cwd=ROOT,
                         env={**os.environ, "PYTHONPATH": ROOT}, **kwargs)

    assert job("r1", kill_when=first_manifest).returncode == -9
    at_kill = ckpt.committed_keys(out_dir, "part")
    assert 1 <= len(at_kill) < 4
    # The first commit came before the last partition was even written.
    staged = os.path.join(out_dir, ckpt.STAGING_DIR, "r1")
    written = at_kill | ({int(d.split("=")[1]) for d in os.listdir(staged)}
                         if os.path.isdir(staged) else set())
    assert len(written) < 4
    summary = json.loads(job("r2").stdout.strip().splitlines()[-1])
    assert summary["skipped"] >= len(at_kill)
    assert summary["committed"] + summary["skipped"] == 4
    assert _committed_text(out_dir) == golden
    staging = os.path.join(out_dir, ckpt.STAGING_DIR)
    assert not os.path.exists(staging) or not os.listdir(staging)


def _layout(out_dir) -> list:
    """Sorted row counts of the committed files."""
    return sorted(pq.read_metadata(f).num_rows
                  for files in _part_files(out_dir).values() for f in files)


def test_block_targets_of_concurrent_jobs_stay_apart(tmp_path):
    """Two sharded jobs with different ``target_block_mb``, run from one
    driver in two threads, each lay out their files as when run alone, and
    the global DataContext is left as it was: the target lives on each
    job's own Dataset context."""
    corpus_dir, golden = _corpus(tmp_path, 4, rows_per_file=300)
    ctx = ray.data.DataContext.get_current()
    before = ctx.target_max_block_size
    targets = {"default": None, "small": 1}

    def run(name, tag):
        out_dir = str(tmp_path / f"{tag}-{name}")
        run_sharded_extraction_job(corpus_dir, out_dir, run_id=tag,
                                   with_fields=False,
                                   target_block_mb=targets[name])
        return out_dir

    alone = {name: _layout(run(name, "alone")) for name in targets}
    assert alone["default"] != alone["small"]
    threads = [threading.Thread(target=run, args=(name, "together"))
               for name in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for name in targets:
        out_dir = str(tmp_path / f"together-{name}")
        assert _layout(out_dir) == alone[name]
        assert _committed_text(out_dir) == golden
    assert ctx.target_max_block_size == before


def test_summary_reports_partitions_and_error_classes(tmp_path):
    """``summary`` reads per-partition rows and errors, html bytes and the
    top error classes from the manifests alone (the output files are
    deleted first)."""
    def poison(k, t):
        if k != 1:
            return t
        html = t.column("html").to_pylist()
        html[0] = None
        return t.set_column(t.schema.get_field_index("html"), "html",
                            pa.array(html, pa.large_binary()))

    corpus_dir, _ = _corpus(tmp_path, 2, transform=poison)
    out_dir = str(tmp_path / "out")
    run_sharded_extraction_job(corpus_dir, out_dir, run_id="r1",
                               files_per_partition=1, with_fields=False)
    manifests = {m["part"]: m for m in ckpt.read_manifests(out_dir)}
    assert manifests[1]["error_classes"] == {"TypeError": 1}
    for f in ckpt.committed_files(out_dir):
        os.remove(f)
    r = run_child([sys.executable, "-m", "document_text_extraction_ray",
                   "summary", "--out", out_dir], timeout=120, cwd=ROOT)
    d = json.loads(r.stdout.strip().splitlines()[-1])
    assert d["rows"] == 60 and d["errors"] == 1 and d["parts_committed"] == 2
    assert [(p["part"], p["rows"], p["errors"]) for p in d["partitions"]] == \
        [(0, 30, 0), (1, 30, 1)]
    assert d["partitions"][0]["html_bytes"] == manifests[0]["html_bytes"] > 0
    assert d["top_error_classes"] == [["TypeError", 1]]
