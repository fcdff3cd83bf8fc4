"""Per-layer metrics of one workload, from a traced pass that runs after the
untraced jobs (so tracing never touches the end-to-end numbers).

(a) Kernel pass: in the benchmark's own process, on one core, over the same
    input shards, each call into the program's public functions is a span:
    Parquet decode, ``extract_page``, ``extract_all_fields`` and each field
    extractor, the two text-statistics gates, ``extract_batch`` (with the
    workload's ``with_fields``), Parquet encode, and ``part_stats`` and
    ``commit_part`` per partition of input files.
(b) Stage-barrier Ray run: the public pipeline calls, materialized after
    each call: read, extract, then the bucketed sink's resume filter and
    ``write_bucketed``, then the curation gate and exact dedup.  Each barrier
    records its wall time, its output rows and, from ``util.explain_stats``,
    the tasks of the operators it added.  On ``sharded_fields`` the read and
    extract barriers follow ``run_sharded_extraction_job``'s own execution:
    one read/extract barrier pair per partition of input files, then the
    partition's ``write_parquet``, ``part_stats`` and ``commit_part``, one
    partition at a time (the job overlaps two).  Its other barriers run on
    the whole corpus, materialized outside any barrier.
(c) Ray-overhead probe: an identity ``map_batches`` over the materialized
    input blocks (the pattern of Ray's own map_batches benchmark), which
    prices the framework's per-block cost without any kernel.

Every layer is measured on every workload's input, so every metric is a
measurement on every workload.  A layer that the workload's job does not run
(``fields.*`` on ``bucketed_text``, the bucketed sink on ``sharded_fields``)
reports its standalone cost on that input; the job's own layers are
``JOB_STAGES`` and ``extract_batch`` with the job's ``with_fields``.

Derived metrics:
  * ``extract.arrow_build_us_per_doc`` = extract_batch with extract_page and
    extract_all_fields replaced by lookups of their results: the self time
    of the batch wrapper (column decode, row lists, Arrow arrays).  Taken
    as batch - page - fields it would be a difference of noisy timings
    about a hundred times its size;
  * ``extract_pipeline.ray_share`` = (end-to-end docs/s per Ray CPU) /
    (kernel docs/s on one core), where the kernel is decode + extract_batch
    + encode;
  * ``trace_overhead_share`` = wall of the job's own barriers and sinks
    (``JOB_STAGES``) / median wall of the untraced jobs.

Spans are kept in memory and written as JSON lines when the pass ends.
"""

from __future__ import annotations

import inspect
import json
import os
import shutil
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import pyarrow.parquet as pq
import ray.data

from document_text_extraction_ray.functions import fields as F
from document_text_extraction_ray.functions import textstats as T
from document_text_extraction_ray.functions.html_extract import extract_page
from document_text_extraction_ray.pipelines.extract_pipeline import (
    extract_dataset,
    run_sharded_extraction_job,
)
from document_text_extraction_ray.pipelines.training_data import (
    exact_dedup_survivors,
    quality_lang_gate,
)
from document_text_extraction_ray.sources.corpus import read_corpus
from document_text_extraction_ray.stages import extract as E
from document_text_extraction_ray.stages.extract import (
    EXTRACTOR_VERSION,
    extract_batch,
)
from document_text_extraction_ray.state import checkpoint as ckpt
from document_text_extraction_ray.util import explain_stats

import jobs

# Extractors in the order extract_all_fields runs them; each gets the
# lowercased text it would share, so its cost is its own scan.
FIELD_EXTRACTORS = {
    "emails": lambda text, low: F.extract_emails(text),
    "phones": lambda text, low: F.extract_phones(text),
    "linkedin": lambda text, low: F.extract_linkedin(text, _low=low),
    "github": lambda text, low: F.extract_github(text, _low=low),
    "skills": lambda text, low: F.extract_skills(text, _low=low),
    "education": lambda text, low: F.extract_education(text, _low=low),
}
BARRIERS = ("read", "extract", "resume_filter", "gate", "dedup")
# The barriers (and sinks) each workload's job runs, in order.
JOB_STAGES = {
    "sharded_fields": ("read", "extract", "write_extracted", "part_stats",
                       "commit_part"),
    "bucketed_text": ("read", "extract", "resume_filter", "write_bucketed"),
    "curate_dups": ("read", "extract", "gate", "dedup", "write_survivors"),
}

PER_LAYER_UNITS = {
    "setup.ray_init_s": "s",
    "sources.parquet_decode_us_per_doc": "us",
    "html_extract.extract_page_us_per_doc": "us",
    "html_extract.blocks_per_doc": "count",
    "fields.extract_all_fields_us_per_doc": "us",
    **{f"fields.{k}_us_per_doc": "us" for k in FIELD_EXTRACTORS},
    **{f"fields.{k}.hit_ratio": "share" for k in FIELD_EXTRACTORS},
    "extract.extract_batch_us_per_doc": "us",
    "extract.arrow_build_us_per_doc": "us",
    "checkpoint.parquet_encode_us_per_doc": "us",
    "checkpoint.part_stats_ms_per_part": "ms",
    "checkpoint.commit_part_ms_per_part": "ms",
    "checkpoint.write_bucketed_s": "s",
    **{f"ray.{b}.{k}": u for b in BARRIERS
       for k, u in (("wall_s", "s"), ("tasks", "count"),
                    ("rows_out", "count"))},
    "textstats.quality_score_us_per_doc": "us",
    "textstats.detect_language_us_per_doc": "us",
    "training_data.gate_pass_ratio": "share",
    "dedup.exact_dedup_s": "s",
    "dedup.removed_ratio": "share",
    "extract_pipeline.ray_share": "share",
    "extract_pipeline.identity_map_us_per_doc": "us",
    "trace_overhead_share": "share",
}


class Tracer:
    """Spans kept in memory: (id, parent id, name, start ns, end ns)."""

    def __init__(self):
        self.spans = []
        self.total_ns = defaultdict(int)
        self._open = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._open[-1] if self._open else None
        self._open.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._open.pop()
            self.spans[sid] = (sid, parent, name, start, end)
            self.total_ns[name] += end - start

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def us(self, name: str) -> float:
        return self.total_ns[name] / 1e3

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start_ns": start, "end_ns": end}) + "\n")


def _hit(result) -> bool:
    return any(result.values()) if isinstance(result, dict) else bool(result)


@contextmanager
def _kernels_replaced_by(pages: dict, fields: dict):
    """Within the block, ``extract_batch`` looks up the ``extract_page`` and
    ``extract_all_fields`` results of its rows instead of computing them."""
    saved = E.extract_page, F.extract_all_fields
    E.extract_page = lambda html, config=None: pages[html]
    F.extract_all_fields = fields.__getitem__
    try:
        yield
    finally:
        E.extract_page, F.extract_all_fields = saved


def _partitions(corpus) -> list:
    """The input-file partitions of ``run_sharded_extraction_job`` with its
    default ``files_per_partition``."""
    per_part = inspect.signature(run_sharded_extraction_job).parameters[
        "files_per_partition"].default
    return [list(corpus.files[i:i + per_part])
            for i in range(0, len(corpus.files), per_part)]


def kernel_pass(workload: str, corpus, tracer: Tracer, scratch: str) -> dict:
    """(a): single-core calls into the public per-doc and per-batch functions."""
    with_fields = workload != "bucketed_text"
    out_dir = os.path.join(scratch, "committed")
    os.makedirs(os.path.join(out_dir, ckpt.MANIFEST_DIR))
    hits = Counter()
    n = blocks = 0
    parts = _partitions(corpus)
    for pid, files in enumerate(parts):
        staged = os.path.join(scratch, "staged", f"part={pid}")
        os.makedirs(staged)
        for k, path in enumerate(files):
            table = tracer.call("sources.parquet_decode", pq.read_table, path)
            pages, fields = {}, {}
            for html in table.column("html").to_pylist():
                page = pages[html] = tracer.call(
                    "html_extract.extract_page", extract_page, html)
                n += 1
                blocks += page["n_blocks"]
                text = page["text"]
                fields[text] = tracer.call("fields.extract_all_fields",
                                           F.extract_all_fields, text)
                low = text.lower()
                for name, fn in FIELD_EXTRACTORS.items():
                    hits[name] += _hit(
                        tracer.call(f"fields.{name}", fn, text, low))
                tracer.call("textstats.quality_score", T.quality_score, text)
                tracer.call("textstats.detect_language", T.detect_language,
                            text)
            out = tracer.call("extract.extract_batch", extract_batch, table,
                              with_fields=with_fields)
            with _kernels_replaced_by(pages, fields):
                tracer.call("extract.arrow_build", extract_batch, table,
                            with_fields=with_fields)
            tracer.call("checkpoint.parquet_encode", pq.write_table, out,
                        os.path.join(staged, f"part-{k:05d}.parquet"))
        stats = tracer.call("checkpoint.part_stats", ckpt.part_stats, staged)
        tracer.call("checkpoint.commit_part", ckpt.commit_part, out_dir,
                    "trace", pid, staged, {"part": pid, **stats})

    def per_doc(name):
        return tracer.us(name) / n

    m = {
        "sources.parquet_decode_us_per_doc": per_doc("sources.parquet_decode"),
        "html_extract.extract_page_us_per_doc":
            per_doc("html_extract.extract_page"),
        "html_extract.blocks_per_doc": blocks / n,
        "fields.extract_all_fields_us_per_doc":
            per_doc("fields.extract_all_fields"),
        "extract.extract_batch_us_per_doc": per_doc("extract.extract_batch"),
        "extract.arrow_build_us_per_doc": per_doc("extract.arrow_build"),
        "checkpoint.parquet_encode_us_per_doc":
            per_doc("checkpoint.parquet_encode"),
        "textstats.quality_score_us_per_doc":
            per_doc("textstats.quality_score"),
        "textstats.detect_language_us_per_doc":
            per_doc("textstats.detect_language"),
        "checkpoint.part_stats_ms_per_part":
            tracer.us("checkpoint.part_stats") / 1e3 / len(parts),
        "checkpoint.commit_part_ms_per_part":
            tracer.us("checkpoint.commit_part") / 1e3 / len(parts),
    }
    for name in FIELD_EXTRACTORS:
        m[f"fields.{name}_us_per_doc"] = per_doc(f"fields.{name}")
        m[f"fields.{name}.hit_ratio"] = hits[name] / n
    return m


def _identity(batch):
    return batch


class _Barriers:
    """Materializes each stage of a pipeline and records what it executed.
    A barrier or sink run more than once (once per partition) adds up."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.metrics = defaultdict(float)
        self.wall_s = defaultdict(float)

    def __call__(self, name: str, ds, parent=None):
        """Materialize ``ds``, which extends the materialized ``parent``."""
        with self.tracer.span(f"ray.{name}"):
            t0 = time.perf_counter()
            mat = ds.materialize()
            wall = time.perf_counter() - t0
        ops = explain_stats(mat)
        added = ops[len(explain_stats(parent)) if parent is not None else 0:]
        self.wall_s[name] += wall
        self.metrics[f"ray.{name}.wall_s"] += wall
        self.metrics[f"ray.{name}.tasks"] += sum(
            op["tasks"] or 0 for op in added)
        self.metrics[f"ray.{name}.rows_out"] += mat.count()
        return mat

    def timed(self, name: str, fn, *args, **kwargs):
        """Run a stage that returns no Dataset (a sink or commit step);
        returns its result."""
        t0 = time.perf_counter()
        result = self.tracer.call(name, fn, *args, **kwargs)
        self.wall_s[name] += time.perf_counter() - t0
        return result


def _sharded_job(barrier: _Barriers, corpus, out_dir: str) -> None:
    """``run_sharded_extraction_job``'s execution with a barrier after each
    call: per partition, read, extract, write, ``part_stats`` and
    ``commit_part``."""
    os.makedirs(os.path.join(out_dir, ckpt.MANIFEST_DIR))
    for pid, files in enumerate(_partitions(corpus)):
        read = barrier("read", ray.data.read_parquet(files))
        extracted = barrier("extract", extract_dataset(read), parent=read)
        staged = os.path.join(out_dir, ckpt.STAGING_DIR, f"part={pid}")
        barrier.timed("write_extracted", extracted.write_parquet, staged)
        stats = barrier.timed("part_stats", ckpt.part_stats, staged)
        barrier.timed("commit_part", ckpt.commit_part, out_dir, "trace", pid,
                      staged, {"part": pid, **stats})


def barrier_run(workload: str, corpus, tracer: Tracer, scratch: str) -> tuple:
    """(b) and (c).  Returns (metrics, wall of the job's own stages)."""
    barrier = _Barriers(tracer)
    out = os.path.join(scratch, "{}")
    if workload == "sharded_fields":
        _sharded_job(barrier, corpus, out.format("sharded"))
        # The whole-corpus input of the stages this job does not run.
        with tracer.span("whole_corpus_input"):
            read = read_corpus(corpus.path).materialize()
            extracted = extract_dataset(read).materialize()
    else:
        read = barrier("read", read_corpus(corpus.path))
        extracted = barrier("extract", extract_dataset(
            read, with_fields=workload != "bucketed_text"), parent=read)
    m = {}
    with tracer.span("extract_pipeline.identity_map"):
        t0 = time.perf_counter()
        read.map_batches(_identity, batch_format="pyarrow").materialize()
        m["extract_pipeline.identity_map_us_per_doc"] = (
            (time.perf_counter() - t0) * 1e6 / corpus.n_docs)
    resumed = barrier("resume_filter", extracted.map_batches(
        ckpt.make_resume_filter(out.format("bucketed")),
        batch_format="pyarrow"), parent=extracted)
    barrier.timed("write_bucketed", ckpt.write_bucketed, resumed,
                  out.format("bucketed"), run_id="trace",
                  input_path=corpus.path, extractor_version=EXTRACTOR_VERSION)
    m["checkpoint.write_bucketed_s"] = barrier.wall_s["write_bucketed"]
    gated = barrier("gate", quality_lang_gate(
        extracted.filter(expr="status == 'ok'"), min_chars=jobs.MIN_CHARS,
        min_score=jobs.MIN_SCORE, allowed=jobs.LANGS), parent=extracted)
    deduped = barrier("dedup", exact_dedup_survivors(gated), parent=gated)
    if workload == "curate_dups":
        barrier.timed("write_survivors", deduped.write_parquet,
                      out.format("survivors"))
    n_gated = barrier.metrics["ray.gate.rows_out"]
    m["training_data.gate_pass_ratio"] = n_gated / corpus.n_docs
    m["dedup.exact_dedup_s"] = barrier.metrics["ray.dedup.wall_s"]
    m["dedup.removed_ratio"] = (
        1 - barrier.metrics["ray.dedup.rows_out"] / n_gated)
    m.update(barrier.metrics)
    return m, sum(barrier.wall_s[s] for s in JOB_STAGES[workload])


def traced_run(workload, corpus, records, setups, cpus: int, trace_dir: str,
               seed: int) -> dict:
    """Every per-layer metric of ``workload`` (except ``error_share``, which
    the caller adds), in the ``{"value", "unit"}`` form of the result line."""
    tracer = Tracer()
    scratch = os.path.join(trace_dir, f"scratch-{workload.name}")
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        with tracer.span("kernel_pass"):
            kernel = kernel_pass(workload.name, corpus, tracer,
                                 os.path.join(scratch, "kernel"))
        with tracer.span("barrier_run"):
            staged_run, traced_wall = barrier_run(
                workload.name, corpus, tracer, os.path.join(scratch, "ray"))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(trace_dir, exist_ok=True)
    tracer.write(os.path.join(trace_dir, f"{workload.name}-s{seed}.jsonl"))

    job_wall = statistics.median(r["wall_s"] for r in records)
    kernel_us = (kernel["sources.parquet_decode_us_per_doc"]
                 + kernel["extract.extract_batch_us_per_doc"]
                 + kernel["checkpoint.parquet_encode_us_per_doc"])
    values = dict(kernel)
    values.update(staged_run)
    values["setup.ray_init_s"] = statistics.median(i for _, i in setups)
    values["extract_pipeline.ray_share"] = (
        corpus.n_docs / job_wall / cpus) / (1e6 / kernel_us)
    values["trace_overhead_share"] = traced_wall / job_wall
    return {k: {"value": values[k], "unit": u}
            for k, u in PER_LAYER_UNITS.items()}
