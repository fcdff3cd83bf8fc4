"""End-to-end: Ray pipeline output is byte-identical per url to the
single-process golden oracle; checkpointed writes resume correctly."""

import glob
import os
import zlib

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray
import ray.data

from document_text_extraction_ray import schema as S
from document_text_extraction_ray.pipelines.extract_pipeline import (
    extract_dataset,
    run_extraction_job,
    run_sharded_extraction_job,
    status_summary,
)
from document_text_extraction_ray.sources import corpus
from document_text_extraction_ray.sources.corpus import (
    corpus_from_documents,
    read_corpus,
    synth_corpus_dataset,
    synth_corpus_table,
)
from document_text_extraction_ray.stages.extract import extract_batch
from document_text_extraction_ray.state import checkpoint as ckpt
from document_text_extraction_ray.util import explain_stats

N = 300


@pytest.fixture(scope="module")
def golden():
    t = synth_corpus_table(N, seed=42, include_golden=True)
    return {
        u: (txt, sp, fl)
        for u, txt, sp, fl in zip(
            t.column("url").to_pylist(),
            t.column("expected_text").to_pylist(),
            t.column("expected_spans").to_pylist(),
            t.column("expected_fields").to_pylist(),
        )
    }


def test_ray_pipeline_matches_golden(golden):
    corpus = synth_corpus_dataset(N, seed=42)
    extracted = extract_dataset(corpus, n_buckets=8)
    out = extracted.to_pandas()
    assert len(out) == N
    assert set(out["status"]) == {"ok"}
    for _, row in out.iterrows():
        exp_text, exp_spans, exp_fields = golden[row["url"]]
        assert row["extracted_text"] == exp_text          # byte-identical per url
        got_spans = [(s["start"], s["end"], s["kind"]) for s in row["spans"]]
        assert got_spans == [(s["start"], s["end"], s["kind"]) for s in exp_spans]
        got_fields = {k: list(v) for k, v in row["fields"].items()}
        assert got_fields == {k: list(v) for k, v in exp_fields.items()}


def test_extracted_schema_declared(golden):
    corpus = synth_corpus_dataset(32, seed=42)
    ds = extract_dataset(corpus, n_buckets=8, with_fields=False)
    assert ds.schema().base_schema.equals(S.EXTRACTED_SCHEMA)


def _n_file_corpus(tmp_path, n_files, n=80):
    corpus_dir = str(tmp_path / "c")
    synth_corpus_dataset(n, seed=42).repartition(n_files).write_parquet(
        corpus_dir)
    return corpus_dir, sorted(glob.glob(os.path.join(corpus_dir, "*.parquet")))


def _plan(ds):
    """(operator, tasks) of each operator of an executed ``ds``."""
    return [(o["operator"], o["tasks"])
            for o in explain_stats(extract_dataset(ds).materialize())]


def test_extract_fuses_with_read(tmp_path):
    """The extraction map runs in the read's tasks (no batch_size boundary),
    and ``read_corpus`` runs one such task per Ray CPU: 8 files at 4 CPUs
    give 4 tasks."""
    corpus_dir, _ = _n_file_corpus(tmp_path, 8)
    ((op, tasks),) = _plan(read_corpus(corpus_dir))
    assert op.startswith("ReadParquet->")
    assert op.endswith("->MapBatches(extract_batch)")
    assert tasks == 4


def test_read_corpus_fewer_files_than_cpus_keeps_ray_plan(tmp_path):
    corpus_dir, _ = _n_file_corpus(tmp_path, 2)
    assert corpus._read_tasks(corpus_dir) is None
    assert _plan(read_corpus(corpus_dir)) == \
        _plan(ray.data.read_parquet(corpus_dir))


def test_read_corpus_one_cpu_one_task(tmp_path, monkeypatch):
    corpus_dir, _ = _n_file_corpus(tmp_path, 8)
    monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": 1})
    ((_, tasks),) = _plan(read_corpus(corpus_dir))
    assert tasks == 1


def test_read_corpus_past_block_target_keeps_ray_plan(tmp_path, monkeypatch):
    """Input that decodes to more than one block target per file goes to
    Ray's plan, which splits the files (the ``target_block_mb`` skew
    defence), so a smaller target raises the task count.  The decoded size
    counts, not the compressed bytes on disk."""
    corpus_dir, files = _n_file_corpus(tmp_path, 8)
    target = corpus._uncompressed_bytes(files) // 8 - 8
    assert sum(os.path.getsize(f) for f in files) <= 8 * target
    ctx = ray.data.DataContext.get_current()
    monkeypatch.setattr(ctx, "target_max_block_size", target)
    assert corpus._read_tasks(corpus_dir) is None
    plan = _plan(read_corpus(corpus_dir))
    assert plan == _plan(ray.data.read_parquet(corpus_dir))
    assert sum(tasks for _, tasks in plan) > 4


def test_read_corpus_list_directory_or_file(tmp_path):
    corpus_dir, files = _n_file_corpus(tmp_path, 8)
    assert read_corpus(corpus_dir, columns=["url"]).count() == 80
    assert read_corpus(files[:5], columns=["url"]).count() == \
        sum(pq.read_metadata(f).num_rows for f in files[:5])
    assert read_corpus(files[0]).columns() == \
        ["url", "warc_ts", "html", "text", "lang"]
    assert corpus._read_tasks(files[:5]) == 4
    assert corpus._read_tasks(files[0]) is None       # 1 file, 4 CPUs
    assert corpus._read_tasks(str(tmp_path / "missing")) is None


@pytest.mark.parametrize("sharded", [False, True])
def test_sized_read_jobs_match_golden(tmp_path, golden, sharded):
    """Both jobs over an 8-file corpus, read in 4 sized tasks, commit the
    golden text of every url."""
    corpus_dir = str(tmp_path / "c")
    synth_corpus_dataset(N, seed=42).repartition(8).write_parquet(corpus_dir)
    out_dir = str(tmp_path / "out")
    if sharded:
        run_sharded_extraction_job(corpus_dir, out_dir, run_id="r1",
                                   with_fields=False)
    else:
        run_extraction_job(read_corpus(corpus_dir), out_dir, run_id="r1",
                           input_path=corpus_dir, n_buckets=8,
                           with_fields=False)
    t = ckpt.read_committed_table(out_dir, columns=["url", "extracted_text"])
    got = dict(zip(t.column("url").to_pylist(),
                   t.column("extracted_text").to_pylist()))
    assert got == {u: g[0] for u, g in golden.items()}


def test_poison_row_yields_error_status():
    batch = pa.table(
        {
            "url": pa.array(["https://x/1", "https://x/2"]),
            "warc_ts": pa.array([0, 0], type=pa.timestamp("us")),
            "html": pa.array([None, b"<p>good row content here</p>"],
                             type=pa.large_binary()),
            "text": pa.array(["", ""], type=pa.large_string()),
            "lang": pa.array(["en", "en"]),
        }
    )
    out = extract_batch(batch, with_fields=False)
    assert out.column("status").to_pylist() == ["error", "ok"]
    assert out.column("extracted_text").to_pylist()[1] == "good row content here"

    from document_text_extraction_ray.functions.fields import extract_all_fields

    out = extract_batch(batch, with_fields=True)
    assert out.column("status").to_pylist() == ["error", "ok"]
    assert out.column("fields").to_pylist()[0] == extract_all_fields("")


def test_status_summary():
    corpus = synth_corpus_dataset(64, seed=42)
    summary = status_summary(extract_dataset(corpus, with_fields=False)).to_pandas()
    assert summary.loc[summary["status"] == "ok", "count()"].iloc[0] == 64


def test_checkpoint_resume(tmp_path):
    out_dir = str(tmp_path / "out")
    corpus = synth_corpus_dataset(200, seed=42)

    s1 = run_extraction_job(corpus, out_dir, run_id="r1", input_path="synth:200",
                            n_buckets=8, with_fields=False)
    assert s1["committed"] == 8 and s1["rows"] == 200

    # Simulate a crashed second run: drop two manifests (their data dirs stay —
    # manifests are the source of truth, so those buckets count as uncommitted).
    removed = sorted(ckpt.committed_keys(out_dir, "bucket"))[:2]
    for b in removed:
        os.remove(os.path.join(out_dir, ckpt.MANIFEST_DIR, f"bucket={b}.json"))

    s2 = run_extraction_job(corpus, out_dir, run_id="r2", input_path="synth:200",
                            n_buckets=8, with_fields=False)
    assert s2["committed"] == 2 and s2["skipped"] == 0

    # Final table: exactly one row per url, equal to a fresh full run.
    table = ckpt.read_committed_table(out_dir, columns=["url", "n_chars", "status"])
    assert table.num_rows == 200
    assert len(set(table.column("url").to_pylist())) == 200

    # Third run is a no-op (all buckets committed -> zero rows staged).
    s3 = run_extraction_job(corpus, out_dir, run_id="r3", input_path="synth:200",
                            n_buckets=8, with_fields=False)
    assert s3["committed"] == 0 and s3["rows"] == 0

    manifests = ckpt.read_manifests(out_dir)
    assert len(manifests) == 8
    assert all(m["extractor_version"] for m in manifests)
    assert sum(m["row_count"] for m in manifests) == 200


def _four_file_corpus(tmp_path, n=120):
    corpus_dir = str(tmp_path / "c")
    synth_corpus_dataset(n, seed=42).repartition(4).write_parquet(corpus_dir)
    return corpus_dir


@pytest.mark.parametrize("n_buckets", [7, 2])
def test_bucketed_sink_range_edges(tmp_path, n_buckets):
    """At 4 CPUs, 7 buckets do not split evenly into 4 ranges and 2 buckets
    cap the range count at 2; either way every bucket is one committed
    file holding exactly its crc32(url) % n_buckets rows."""
    corpus_dir = _four_file_corpus(tmp_path)
    out_dir = str(tmp_path / "out")
    s = run_extraction_job(read_corpus(corpus_dir), out_dir, run_id="r1",
                           input_path=corpus_dir, n_buckets=n_buckets,
                           with_fields=False)
    assert s == {"committed": n_buckets, "skipped": 0, "rows": 120}
    urls = []
    for m in ckpt.read_manifests(out_dir):
        assert m["files"] == [f"bucket={m['bucket']}/part-00000.parquet"]
        t = pq.read_table(os.path.join(out_dir, m["files"][0]),
                          columns=["url"], partitioning=None)
        assert t.num_rows == m["row_count"]
        got = t.column("url").to_pylist()
        assert all(zlib.crc32(u.encode("utf-8")) % n_buckets == m["bucket"]
                   for u in got)
        urls += got
    assert len(set(urls)) == len(urls) == 120


def _sort_each_block(self, key, descending=False, boundaries=None):
    return self.map_batches(lambda b: b.sort_by(key), batch_size=None,
                            batch_format="pyarrow")


@pytest.mark.parametrize("fake_sort,error", [
    (lambda self, key, descending=False, boundaries=None: self,
     "not sorted by bucket"),
    (_sort_each_block, "more than one piece"),
])
def test_bucket_in_two_pieces_fails_loud(tmp_path, monkeypatch, fake_sort,
                                         error):
    """Without the range shuffle, a bucket reaches the write step in pieces
    that would overwrite each other's part-00000: the unsorted block is
    refused in the write task, and per-block sorted blocks by the driver,
    and neither commits a manifest."""
    corpus_dir = _four_file_corpus(tmp_path)
    out_dir = str(tmp_path / "out")
    monkeypatch.setattr(ray.data.Dataset, "sort", fake_sort)
    with pytest.raises(Exception, match=error):
        run_extraction_job(read_corpus(corpus_dir), out_dir, run_id="r1",
                           input_path=corpus_dir, n_buckets=8,
                           with_fields=False)
    assert not glob.glob(os.path.join(out_dir, ckpt.MANIFEST_DIR,
                                      "bucket=*.json"))


def test_corpus_from_documents_normalizes_text():
    sf_dir = "/root/testdata/sf0.001"
    corpus = corpus_from_documents(sf_dir)
    extracted = extract_dataset(corpus, with_fields=False).to_pandas()
    docs = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    ).to_pandas()
    expected = {
        f"https://docs.example/{d}": " ".join(t.split())
        for d, t in zip(docs["doc_id"], docs["text"])
    }
    assert len(extracted) == len(docs)
    for _, row in extracted.iterrows():
        assert row["extracted_text"] == expected[row["url"]]


def test_sharded_job_resume(tmp_path):
    """No-shuffle sharded sink: per-input-file-partition commit + resume."""
    corpus_dir = str(tmp_path / "corpus")
    synth_corpus_dataset(300, seed=42).repartition(6).write_parquet(corpus_dir)
    out_dir = str(tmp_path / "out")

    s1 = run_sharded_extraction_job(corpus_dir, out_dir, run_id="r1",
                                    files_per_partition=2, with_fields=False)
    assert s1["rows"] == 300 and s1["committed"] == s1["partitions"]

    # Drop one partition manifest -> only that partition reprocesses.
    parts = sorted(ckpt.committed_keys(out_dir, "part"))
    os.remove(os.path.join(out_dir, ckpt.MANIFEST_DIR, f"part={parts[0]}.json"))
    s2 = run_sharded_extraction_job(corpus_dir, out_dir, run_id="r2",
                                    files_per_partition=2, with_fields=False)
    assert s2["committed"] == 1 and s2["skipped"] == len(parts) - 1

    table = ckpt.read_committed_table(out_dir, columns=["url"])
    assert table.num_rows == 300
    assert len(set(table.column("url").to_pylist())) == 300

    s3 = run_sharded_extraction_job(corpus_dir, out_dir, run_id="r3",
                                    files_per_partition=2, with_fields=False)
    assert s3["committed"] == 0 and s3["skipped"] == s3["partitions"]


def test_committed_output_feeds_downstream_ops(tmp_path):
    """Composability: the checkpointed table is itself a corpus for the
    downstream operators (manifest-driven read -> text stats -> dedup)."""
    from document_text_extraction_ray.stages.dedup import exact_dedup_ids
    from document_text_extraction_ray.stages.textstats import text_stats

    out_dir = str(tmp_path / "out")
    corpus = synth_corpus_dataset(150, seed=42)
    run_extraction_job(corpus, out_dir, run_id="r1", input_path="synth:150",
                       n_buckets=4, with_fields=False)
    committed = ckpt.read_committed_dataset(
        out_dir, columns=["url", "extracted_text", "n_chars"]
    )
    stats = text_stats(committed, text_column="extracted_text",
                       concurrency=1).to_pandas()
    assert len(stats) == 150
    assert (stats["n_tokens_ws"] > 0).all()
    kept = exact_dedup_ids(committed, "extracted_text", "url")
    assert kept.count() == 150  # synth pages are all distinct


def test_giant_document_safe():
    """A multi-MB page streams through the pipeline without failure and with
    correct extraction (wide-record safety: large_* types, batch sizing)."""
    big_para = "word " * 400_000  # ~2 MB of text
    html = (
        "<html><body><article><p>" + big_para.strip() + "</p></article>"
        "<footer>small footer here</footer></body></html>"
    ).encode()
    corpus = ray.data.from_arrow(
        pa.Table.from_pylist(
            [{"url": "https://big/1", "warc_ts": 0, "html": html,
              "text": "", "lang": "en"}],
            schema=pa.schema(
                [("url", pa.string()), ("warc_ts", pa.timestamp("us")),
                 ("html", pa.large_binary()), ("text", pa.large_string()),
                 ("lang", pa.string())]
            ),
        )
    )
    out = extract_dataset(corpus, with_fields=False).to_pandas()
    assert out["status"][0] == "ok"
    assert out["n_chars"][0] == len(big_para.strip())
    assert out["extracted_text"][0] == big_para.strip()


def test_cli_surface(tmp_path):
    """The __main__ CLI: synth is importable-level tested via its functions;
    here just the argument wiring + summary on an existing output dir."""
    import json
    import sys

    from child import run_child

    corpus_dir = str(tmp_path / "c")
    synth_corpus_dataset(60, seed=42).repartition(2).write_parquet(corpus_dir)
    out_dir = str(tmp_path / "o")
    run_sharded_extraction_job(corpus_dir, out_dir, run_id="r1",
                               files_per_partition=2, with_fields=False)
    r = run_child(
        [sys.executable, "-m", "document_text_extraction_ray", "summary",
         "--out", out_dir], timeout=120,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    d = json.loads(r.stdout.strip().splitlines()[-1])
    assert d["rows"] == 60 and d["errors"] == 0
    assert d["buckets_committed"] == 0 and d["parts_committed"] == 1


def test_cli_dedup(tmp_path):
    """``python -m document_text_extraction_ray dedup`` on a parquet file
    with three planted near-copies prints the kept count and the count of
    clustered ids (each copy and its original)."""
    import json
    import sys

    from child import run_child

    pages = synth_corpus_table(12, seed=42, include_golden=False)
    urls, texts = pages.column("url").to_pylist(), \
        pages.column("text").to_pylist()
    urls += [u + "?copy" for u in urls[:3]]
    texts += [t + " one short closing note" for t in texts[:3]]
    path = str(tmp_path / "docs.parquet")
    pq.write_table(pa.table({"url": urls, "text": texts}), path)
    r = run_child(
        [sys.executable, "-m", "document_text_extraction_ray",
         "--num-cpus", "1", "dedup", "--input", path, "--text-col", "text"],
        timeout=180,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    assert json.loads(r.stdout.strip().splitlines()[-1]) == \
        {"kept": 12, "in_clusters": 6}


def test_sharded_job_skips_corrupt_partition(tmp_path):
    """A corrupt input FILE fails only its partition; the rest commit, and a
    rerun (with the file fixed) completes exactly the failed partition."""
    corpus_dir = tmp_path / "corpus"
    synth_corpus_dataset(120, seed=42).repartition(4).write_parquet(str(corpus_dir))
    files = sorted(corpus_dir.glob("*.parquet"))
    good_bytes = files[1].read_bytes()
    files[1].write_bytes(b"not a parquet file at all")
    out_dir = str(tmp_path / "out")

    s1 = run_sharded_extraction_job(str(corpus_dir), out_dir, run_id="r1",
                                    files_per_partition=1, with_fields=False,
                                    skip_failed_partitions=True)
    assert len(s1["failed"]) == 1 and s1["failed"][0]["part"] == 1
    assert s1["committed"] == 3

    files[1].write_bytes(good_bytes)  # "re-fetch" the bad file
    s2 = run_sharded_extraction_job(str(corpus_dir), out_dir, run_id="r2",
                                    files_per_partition=1, with_fields=False)
    assert s2["committed"] == 1 and s2["skipped"] == 3
    table = pq.read_table(ckpt.committed_files(out_dir),
                          columns=["url"], partitioning=None)
    assert table.num_rows == 120


@pytest.mark.parametrize("unit", ["bucket", "part"])
def test_rerun_sweeps_own_run_staging(tmp_path, unit):
    """A crashed run's staging under the SAME run_id (a resume with
    ``--resume-run-id``) is swept, never committed with the rerun."""
    corpus_dir = str(tmp_path / "c")
    synth_corpus_dataset(60, seed=42).repartition(2).write_parquet(corpus_dir)
    out_dir = str(tmp_path / "o")

    def run():
        if unit == "bucket":
            run_extraction_job(read_corpus(corpus_dir), out_dir, run_id="r1",
                               input_path=corpus_dir, n_buckets=2,
                               with_fields=False)
        else:
            run_sharded_extraction_job(corpus_dir, out_dir, run_id="r1",
                                       files_per_partition=1,
                                       with_fields=False)

    run()
    os.remove(os.path.join(out_dir, ckpt.MANIFEST_DIR, f"{unit}=0.json"))
    stale = os.path.join(out_dir, ckpt.STAGING_DIR, "r1", f"{unit}=0")
    os.makedirs(stale)
    pq.write_table(pa.table({"url": ["https://stale/1"]}),
                   os.path.join(stale, "stale.parquet"))
    run()

    assert not any("stale.parquet" in files for _, _, files in os.walk(out_dir))
    assert not any(f.endswith("stale.parquet")
                   for f in ckpt.committed_files(out_dir))
    urls = ckpt.read_committed_table(out_dir, columns=["url"]).column("url")
    assert len(urls) == 60 and len(set(urls.to_pylist())) == 60


def test_two_runs_identical_output(tmp_path):
    """Determinism under parallel execution: two independent runs over the
    same corpus produce identical tables (row-order-insensitive)."""
    corpus_dir = str(tmp_path / "c")
    synth_corpus_dataset(250, seed=42).repartition(5).write_parquet(corpus_dir)

    frames = []
    for run in ("a", "b"):
        out_dir = str(tmp_path / f"out_{run}")
        run_sharded_extraction_job(corpus_dir, out_dir, run_id=run,
                                   files_per_partition=2, with_fields=True)
        t = pq.read_table(ckpt.committed_files(out_dir), partitioning=None)
        df = t.select(
            ["url", "extracted_text", "title", "n_blocks", "n_chars", "bucket"]
        ).to_pandas().sort_values("url").reset_index(drop=True)
        frames.append(df)
    import pandas as pd

    pd.testing.assert_frame_equal(frames[0], frames[1])


def test_empty_corpus_jobs(tmp_path):
    """Empty inputs: zero partitions, zero rows, no crashes."""
    empty_dir = tmp_path / "empty"
    empty_dir.mkdir()
    s = run_sharded_extraction_job(str(empty_dir), str(tmp_path / "out"),
                                   run_id="r1")
    assert s["partitions"] == 0 and s["rows"] == 0

    # Empty (0-row) dataset through the extraction stage.
    schema = pa.schema(
        [("url", pa.string()), ("warc_ts", pa.timestamp("us")),
         ("html", pa.large_binary()), ("text", pa.large_string()),
         ("lang", pa.string())]
    )
    empty_ds = ray.data.from_arrow(pa.Table.from_pylist([], schema=schema))
    out = extract_dataset(empty_ds, with_fields=False).to_pandas()
    assert len(out) == 0


def test_explain_stats_summarizes_operators():
    """explain_stats parses ds.stats() into plan-ordered operator rows
    with tasks and output rows; tolerant of missing fields."""
    import ray.data as rd

    from document_text_extraction_ray.util import explain_stats

    ds = (rd.range(500).map_batches(lambda t: t, batch_format="pyarrow")
          .groupby("id").count())
    ds.to_pandas()
    ops = explain_stats(ds)
    assert len(ops) >= 2
    names = [o["operator"] for o in ops]
    assert any("Aggregate" in n for n in names)
    total_rows = [o["rows_out"] for o in ops if o["rows_out"] is not None]
    assert 500 in total_rows
    # parser never raises on arbitrary text
    assert explain_stats("not a stats string") == []
