"""End-to-end training-data pipeline composition over a synthetic corpus with
planted exact and near duplicates."""

import html as _html

import pyarrow as pa
import ray.data

from document_text_extraction_ray.pipelines.training_data import prepare_training_data
from document_text_extraction_ray.sources.corpus import synth_corpus_dataset


def _page(url: str, body_text: str) -> dict:
    html = (
        "<html><body><nav><a href='/'>Home page link</a></nav>"
        f"<article><p>{_html.escape(body_text)}</p></article>"
        "<footer>footer text here</footer></body></html>"
    ).encode()
    return {"url": url, "warc_ts": 0, "html": html, "text": body_text, "lang": "en"}


GOOD = (
    "the quick brown fox jumps over the lazy dog and then the dog chases it "
    "back across the wide green field while the sun is setting slowly behind "
    "the old stone bridge near the quiet village"
)


def test_prepare_training_data_pipeline():
    rows = [
        _page("https://a/1", GOOD),
        _page("https://a/2", GOOD),                              # exact dup of 1
        _page("https://a/3", GOOD.replace("quiet", "sleepy")),   # near dup of 1
        _page("https://a/4", "tiny"),                            # fails length gate
        _page("https://a/5", "der hund und die katze sind nicht im haus und "
                             "der tag ist lang und die nacht ist kurz und alles "
                             "ist ruhig im alten dorf hinter dem wald"),  # non-en
    ]
    schema = pa.schema(
        [("url", pa.string()), ("warc_ts", pa.timestamp("us")),
         ("html", pa.large_binary()), ("text", pa.large_string()),
         ("lang", pa.string())]
    )
    table = pa.Table.from_pylist(rows, schema=schema)
    corpus = ray.data.from_arrow(table)

    out, report = prepare_training_data(corpus, min_chars=80, min_score=0.2)
    df = out.to_pandas()
    # Only url /1 survives: /2 exact-dup, /3 near-dup, /4 short, /5 German.
    assert sorted(df["url"]) == ["https://a/1"]
    assert report["near_dup_cluster_ids"] >= 2


def test_prepare_training_data_on_synth_corpus():
    corpus = synth_corpus_dataset(120, seed=42)
    out, _ = prepare_training_data(corpus, min_chars=40, min_score=0.0,
                                   langs=("en", "und"), near_dedup=False)
    df = out.to_pandas()
    assert 0 < len(df) <= 120
    assert (df["quality_score"] >= 0).all()
    assert set(df["pred_lang"]) <= {"en", "und"}


def test_prepare_training_data_curation_gates():
    """Repetition filter, decontamination, and PII redaction compose into
    the pipeline as row-local gates."""
    from document_text_extraction_ray.stages.curation import word_ngrams

    repeat = ("spam spam spam spam spam spam spam spam spam spam spam spam "
              "spam spam spam spam spam spam spam spam spam spam spam spam")
    leaky = GOOD  # shares 3-grams with the 'benchmark'
    clean = ("a completely different story about seven ships that sailed the "
             "northern sea for many long months carrying salt and iron to the "
             "far harbors and the people who waited there for them to return")
    pii = (clean.replace("story", "story by bob@example.com at 415-555-1234"))
    rows = [
        _page("https://b/1", repeat),
        _page("https://b/2", leaky),
        _page("https://b/3", pii),
    ]
    schema = pa.schema(
        [("url", pa.string()), ("warc_ts", pa.timestamp("us")),
         ("html", pa.large_binary()), ("text", pa.large_string()),
         ("lang", pa.string())]
    )
    corpus = ray.data.from_arrow(pa.Table.from_pylist(rows, schema=schema))
    bench = set(word_ngrams(GOOD, 3))

    out, _ = prepare_training_data(
        corpus, min_chars=40, min_score=0.0, langs=("en", "und"),
        near_dedup=False, max_dup_frac_e4=5000, bench_grams=bench,
        redact=True,
    )
    df = out.to_pandas()
    # repeat (dup-2-gram frac ~95%) and leaky (shares benchmark grams) drop;
    # the PII doc survives with its email/phone masked.
    assert sorted(df["url"]) == ["https://b/3"]
    text = df.iloc[0]["extracted_text"]
    assert "<EMAIL>" in text and "bob@example.com" not in text
    assert "<PHONE>" in text and "415-555-1234" not in text


def test_prepare_training_data_line_dedup_gate():
    """line_dedup=True rewrites extracted_text before the content-hash
    dedup: two docs sharing a boilerplate line diverge only in their
    unique lines afterwards; the shared line survives once (min url)."""
    rows = [
        _page("https://a/1", GOOD),
        _page("https://a/2", GOOD.replace("quiet", "sleepy")),
    ]
    schema = pa.schema(
        [("url", pa.string()), ("warc_ts", pa.timestamp("us")),
         ("html", pa.large_binary()), ("text", pa.large_string()),
         ("lang", pa.string())]
    )
    corpus = ray.data.from_arrow(pa.Table.from_pylist(rows, schema=schema))
    out, _ = prepare_training_data(corpus, min_chars=40, min_score=0.0,
                                   near_dedup=False, line_dedup=True)
    df = out.to_pandas().set_index("url").sort_index()
    assert len(df) == 2
    # single-line docs: the whole text is one "line"; they differ, so both
    # survive line dedup intact and exact dedup keeps both
    assert df.loc["https://a/1", "extracted_text"].startswith("the quick")


def test_prepare_training_data_substring_dedup_gate():
    """substring_dedup_k strips the copy-pasted span from the later doc,
    then exact dedup keeps both (they are no longer identical texts)."""
    rows = [
        _page("https://a/1", GOOD),
        _page("https://a/2", "totally different opening words here " + GOOD),
    ]
    schema = pa.schema(
        [("url", pa.string()), ("warc_ts", pa.timestamp("us")),
         ("html", pa.large_binary()), ("text", pa.large_string()),
         ("lang", pa.string())]
    )
    corpus = ray.data.from_arrow(pa.Table.from_pylist(rows, schema=schema))
    out, _ = prepare_training_data(corpus, min_chars=10, min_score=0.0,
                                   near_dedup=False, substring_dedup_k=8)
    df = out.to_pandas().set_index("url").sort_index()
    assert len(df) == 2
    # /1 is the first occurrence of every shared window -> intact
    assert df.loc["https://a/1", "extracted_text"].split()[:4] == \
        ["the", "quick", "brown", "fox"]
    # /2 lost the whole copied GOOD span, keeping only its unique opening
    assert df.loc["https://a/2", "extracted_text"].split()[:4] == \
        ["totally", "different", "opening", "words"]
    assert "lazy" not in df.loc["https://a/2", "extracted_text"]


_NEAR_DEDUP_ONE_CPU = """
import json
import pyarrow as pa
import ray
ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from document_text_extraction_ray.pipelines.training_data import (
    prepare_training_data)
from document_text_extraction_ray.sources.corpus import synth_corpus_table

pages = synth_corpus_table(40, seed=42, include_golden=False)
# Near-duplicates of three pages: one short paragraph added to each
# article, so exact dedup keeps them and MinHash must pair them.
copies = pages.slice(0, 3)
copies = copies.set_column(0, "url", pa.array(
    [u + "?copy" for u in copies.column("url").to_pylist()], pa.string()))
copies = copies.set_column(2, "html", pa.array(
    [h.replace(b"</article>", b"<p>one short closing note</p></article>", 1)
     for h in copies.column("html").to_pylist()], pa.large_binary()))
corpus = ray.data.from_arrow(pa.concat_tables([pages, copies]))
out, report = prepare_training_data(corpus, min_chars=40, min_score=0.0,
                                    langs=("en", "und"))
print(json.dumps({"rows": out.count(), **report}))
ray.shutdown()
"""


def test_prepare_training_data_near_dedup_at_one_cpu():
    """The default near-dedup plan finishes on a one-CPU Ray cluster: its
    joins run on the bucket exchange, not on Ray's hash-shuffle join,
    whose aggregator actors never finish at ``num_cpus=1``."""
    import json
    import os
    import sys

    from child import run_child

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    r = run_child(
        [sys.executable, "-c", _NEAR_DEDUP_ONE_CPU], timeout=180, cwd=root,
        env={**os.environ, "PYTHONPATH": root},
    )
    d = json.loads(r.stdout.strip().splitlines()[-1])
    # 43 pages in; the three copies are removed, each pair labels 2 nodes.
    assert d == {"rows": 40, "near_dup_cluster_ids": 6}
