"""CLI entry points — the reference's per-script main() runners
(grid_detector_v4.py:420-451, llm_approach/1_batch.py:287-315,
parse_cv_docling.py:242-258) re-expressed as one driver:

    python -m document_text_extraction_ray extract --input DIR --out DIR [--resume-run-id ID]
    python -m document_text_extraction_ray synth   --n 10000 --out DIR
    python -m document_text_extraction_ray dedup   --input DIR --text-col extracted_text --id-col url
    python -m document_text_extraction_ray summary --out DIR

Owns its Ray session (the library never calls ray.init).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import uuid


def _init_ray(num_cpus: int | None):
    import ray

    ray.init(
        address="local",
        num_cpus=num_cpus,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    return ray


def cmd_extract(args):
    ray = _init_ray(args.num_cpus)
    from .pipelines.extract_pipeline import run_sharded_extraction_job

    run_id = args.resume_run_id or f"cli-{uuid.uuid4().hex[:8]}"
    summary = run_sharded_extraction_job(
        args.input, args.out, run_id=run_id,
        files_per_partition=args.files_per_partition,
        with_fields=not args.no_fields,
    )
    print(json.dumps({"run_id": run_id, **summary}))
    ray.shutdown()


def cmd_synth(args):
    ray = _init_ray(args.num_cpus)
    from .sources.corpus import materialize_corpus_parquet

    path = materialize_corpus_parquet(args.n, seed=args.seed,
                                      base_dir=args.out)
    print(json.dumps({"corpus": path, "n": args.n, "seed": args.seed}))
    ray.shutdown()


def cmd_dedup(args):
    ray = _init_ray(args.num_cpus)
    from .sources.corpus import read_corpus
    from .stages.dedup import minhash_dedup

    ds = read_corpus(args.input, columns=[args.id_col, args.text_col])
    kept, labels = minhash_dedup(ds, args.text_col, args.id_col)
    print(json.dumps({"kept": kept.count(), "in_clusters": labels.count()}))
    ray.shutdown()


def cmd_summary(args):
    """Totals over every manifest, then one row per committed bucket unit
    (first and last bucket, bucket count, rows, errors, html bytes) and
    per committed partition (rows, errors, html bytes), and the most
    frequent error classes, read from the manifests alone."""
    import collections

    from .state import checkpoint as ckpt

    manifests = ckpt.read_manifests(args.out)
    rows = sum(m.get("row_count", 0) for m in manifests)
    ok = sum(m.get("ok_count", 0) for m in manifests)
    classes = collections.Counter()
    for m in manifests:
        classes.update(m.get("error_classes", {}))
    print(json.dumps({
        "buckets_committed": len(ckpt.committed_keys(args.out, "bucket")),
        "parts_committed": len(ckpt.committed_keys(args.out, "part")),
        "rows": rows, "ok": ok, "errors": rows - ok,
        "bucket_units": [
            {"first": m["buckets"][0]["bucket"],
             "last": m["buckets"][-1]["bucket"],
             "buckets": len(m["buckets"]), "rows": m["row_count"],
             "errors": m["error_count"], "html_bytes": m["html_bytes"]}
            for m in manifests if "buckets" in m
        ],
        "partitions": [
            {"part": m["part"], "rows": m["row_count"],
             "errors": m["error_count"], "html_bytes": m.get("html_bytes")}
            for m in manifests if "part" in m
        ],
        "top_error_classes": classes.most_common(5),
    }))


def main(argv=None):
    p = argparse.ArgumentParser(prog="document_text_extraction_ray")
    p.add_argument("--num-cpus", type=int, default=None)
    sub = p.add_subparsers(dest="cmd", required=True)

    e = sub.add_parser("extract", help="resumable extraction job")
    e.add_argument("--input", required=True)
    e.add_argument("--out", required=True)
    e.add_argument("--resume-run-id", default=None)
    e.add_argument("--files-per-partition", type=int, default=25)
    e.add_argument("--no-fields", action="store_true")
    e.set_defaults(fn=cmd_extract)

    s = sub.add_parser("synth", help="generate deterministic corpus parquet")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--seed", type=int, default=42)
    s.add_argument("--out", default="/tmp/dte_corpus")
    s.set_defaults(fn=cmd_synth)

    d = sub.add_parser("dedup", help="MinHash near-dedup a parquet table")
    d.add_argument("--input", required=True)
    d.add_argument("--text-col", default="extracted_text")
    d.add_argument("--id-col", default="url")
    d.set_defaults(fn=cmd_dedup)

    m = sub.add_parser("summary", help="lineage summary of an output dir")
    m.add_argument("--out", required=True)
    m.set_defaults(fn=cmd_summary)

    args = p.parse_args(argv)
    args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
