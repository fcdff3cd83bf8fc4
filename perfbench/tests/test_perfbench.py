"""Self-tests of the benchmark: generator, output checks, traced pass, CLI.

    python3 -m pytest perfbench/tests -q

Tiny inputs; one Ray session (one CPU) for the module.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, ROOT]
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (ROOT, BENCH_DIR, os.environ.get("PYTHONPATH")) if p)

import harness  # noqa: E402
import inputs  # noqa: E402
import jobs  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402

TINY = {"sharded_fields": 240, "bucketed_text": 150, "curate_dups": 200}


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    import ray

    path = str(tmp_path_factory.mktemp("pb"))
    harness.start_ray(1, path)
    yield path
    ray.shutdown()


@pytest.fixture(scope="module")
def outputs(work):
    """workload -> (corpus, committed output dir) of one tiny job each."""
    done = {}
    for name, n in TINY.items():
        w = jobs.WORKLOADS[name]
        corpus = inputs.load_or_generate(os.path.join(work, "in"), name, n, 3,
                                         w.dup_share)
        out = os.path.join(work, "out", name)
        w.run(corpus, out, "t0")
        done[name] = (corpus, out)
    return done


def test_inputs_are_seeded_with_pinned_tail_and_copies():
    a = inputs.build_rows(300, seed=5, dup_share=0.2)
    assert [r["html"] for r in a] == [
        r["html"] for r in inputs.build_rows(300, seed=5, dup_share=0.2)]
    assert [r["url"] for r in a] != [
        r["url"] for r in inputs.build_rows(300, seed=6, dup_share=0.2)]
    assert len({r["url"] for r in a}) == 300
    originals = [r for r in a if "copy" not in r["url"]]
    assert len(originals) == 240
    giants = [r for r in originals
              if len(r["expected_spans"]) > inputs.GIANT_MIN_BLOCKS]
    assert len(giants) == round(240 * inputs.GIANT_SHARE)
    by_html = {r["html"]: r["url"] for r in originals}
    copies = [r for r in a if "copy" in r["url"]]
    assert all(r["html"] in by_html for r in copies)
    assert any(r["url"] < by_html[r["html"]] for r in copies)
    assert any(r["url"] > by_html[r["html"]] for r in copies)


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_job_passes_checks(outputs, name):
    corpus, out = outputs[name]
    outcome = jobs.WORKLOADS[name].check(corpus, out)
    assert outcome.ok, outcome.problems
    assert outcome.rows > 0 and outcome.out_bytes > 0
    if name != "curate_dups":
        assert outcome.rows == corpus.n_docs


def _data_files(out: str) -> list:
    return sorted(os.path.join(d, f) for d, _, fs in os.walk(out)
                  for f in fs if f.endswith(".parquet"))


def _flip_byte(table: pa.Table) -> pa.Table:
    texts = table.column("extracted_text").to_pylist()
    k = next(i for i, t in enumerate(texts) if t)
    texts[k] = chr(ord(texts[k][0]) ^ 1) + texts[k][1:]
    i = table.column_names.index("extracted_text")
    return table.set_column(i, table.field(i),
                            pa.array(texts, table.field(i).type))


def _drop_row(table: pa.Table) -> pa.Table:
    return table.slice(1)


@pytest.mark.parametrize("corrupt", [_flip_byte, _drop_row])
@pytest.mark.parametrize("name", sorted(TINY))
def test_corrupted_output_fails_checks(outputs, work, name, corrupt):
    corpus, out = outputs[name]
    bad = os.path.join(work, "bad", f"{name}-{corrupt.__name__}")
    shutil.copytree(out, bad)
    victim = next(f for f in _data_files(bad)
                  if pq.read_metadata(f).num_rows > 0)
    pq.write_table(corrupt(pq.read_table(victim, partitioning=None)), victim)
    outcome = jobs.WORKLOADS[name].check(corpus, bad)
    assert not outcome.ok
    assert outcome.error_rows + outcome.missing_rows >= 1


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_reports_every_layer_metric(outputs, work, name):
    corpus, _ = outputs[name]
    records = [{"wall_s": 1.0}]
    got = layers.traced_run(jobs.WORKLOADS[name], corpus, records,
                            [(2.0, 1.0)], 1, os.path.join(work, "trace"), 3)
    assert set(got) == set(layers.PER_LAYER_UNITS)
    assert os.path.getsize(os.path.join(work, "trace", f"{name}-s3.jsonl"))
    values = {k: v["value"] for k, v in got.items()}
    # Every timing is a measurement on every workload: none reads a
    # constant 0 because the workload's job skips that layer.
    times = [v for v in got.values() if v["unit"] in ("s", "ms", "us")]
    assert all(v["value"] > 0 for v in times)
    assert (values["extract.arrow_build_us_per_doc"]
            < values["extract.extract_batch_us_per_doc"])
    assert all(values[f"fields.{k}.hit_ratio"] > 0
               for k in layers.FIELD_EXTRACTORS)
    assert 0 < values["training_data.gate_pass_ratio"] < 1
    assert (values["dedup.removed_ratio"] > 0) == (name == "curate_dups")
    assert values["ray.extract.rows_out"] == corpus.n_docs
    assert values["extract_pipeline.ray_share"] > 0


def test_stalled_job_counts_as_failed(outputs, monkeypatch):
    import time

    corpus, _ = outputs["bucketed_text"]
    stall = jobs.Workload("stall", corpus.n_docs, 0.0,
                          lambda *a: time.sleep(3), jobs.check_committed)
    monkeypatch.setattr(run, "JOB_TIMEOUT_S", 0.2)
    records, stalled = run.closed_loop(stall, corpus, 10.0)
    assert stalled and len(records) == 1
    assert not records[0]["outcome"].ok
    assert records[0]["outcome"].missing_rows == corpus.n_docs


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} <= set(jobs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        **layers.PER_LAYER_UNITS, "error_share": "share"}


def _cli(cwd: str, *extra) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bucketed_text",
         "--seed", "1", "--seconds", "1", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})


def test_cli_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = _cli(str(tmp_path))
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_cli_prints_the_result_line():
    done = _cli(ROOT, "--docs", "100")
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())
