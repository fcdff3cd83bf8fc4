"""Corpus-curation operators for training-data pipelines: per-domain
quotas, benchmark decontamination (n-gram overlap), and intra-document
repetition signals (duplicate-n-gram fractions in the style of the Gopher
quality rules).

These are the cross-corpus hygiene steps a web-scale pipeline runs after
extraction (the reference's per-document guards, M17, stop at single-doc
length checks — approach4_v1.py:199-200; these extend the same in-band
filter policy to corpus level).

Scale notes:
  * ``cap_per_key`` shuffles once on the key; each group fold keeps at most
    ``cap`` rows, so the output is bounded by cap x n_keys regardless of
    skew (a hot domain shrinks at its own reducer, nothing else waits).
  * ``ngram_contamination`` broadcasts the BENCHMARK n-gram set — eval
    suites are tiny next to the corpus, so this is the canonical
    broadcast-small-side semi-join: ``ray.put`` once, each batch filters
    locally, no shuffle ever touches the corpus.
  * ``repetition_stats`` is an embarrassingly parallel per-row kernel.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa

WORD_RE = re.compile(r"[a-z0-9]+")


def word_ngrams(text: str, n: int) -> list:
    """Lowercase word n-grams, tokenized as [a-z0-9]+ runs — the same
    token definition the SQL oracles reconstruct with regexp_extract_all."""
    w = WORD_RE.findall(text.lower())
    return [" ".join(w[i:i + n]) for i in range(len(w) - n + 1)]


def cap_per_key(ds, key_column: str, order_column: str, cap: int,
                rank_column: str = "rn"):
    """Per-key quota sampling: keep the first ``cap`` rows of each key
    group ordered by ``order_column`` (ties impossible for unique ids),
    appending their 1-based in-group rank.

    The web-pipeline use is per-domain caps — bounding any one domain's
    share of the training mix.  Equivalent SQL: ROW_NUMBER() OVER
    (PARTITION BY key ORDER BY order) <= cap."""

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(order_column, kind="mergesort").head(cap).copy()
        g[rank_column] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g

    from .aggregate import bucketed_map_groups

    return bucketed_map_groups(ds, key_column, fold)


def benchmark_ngram_set(bench_ds, text_column: str = "text", n: int = 3) -> set:
    """Distinct word n-grams of a (small) benchmark dataset, collected on
    the driver.  Streaming iter_batches — nothing but the gram set is held;
    sized for eval suites (MBs), not corpora."""
    grams: set = set()
    for b in bench_ds.select_columns([text_column]).iter_batches(
        batch_format="pyarrow"
    ):
        for t in b.column(text_column).to_pylist():
            grams.update(word_ngrams(t or "", n))
    return grams


def ngram_contamination(ds, bench_grams: set, text_column: str = "text",
                        n: int = 3, out_column: str = "n_shared_grams"):
    """Benchmark-decontamination scan: append the count of DISTINCT word
    n-grams each document shares with the benchmark set.  Training docs
    with ``out_column`` > 0 are contaminated (they leak eval content) and
    are dropped by the caller's filter.

    The gram set is broadcast once (``ray.put``); Ray caches the
    deserialized object per worker, so batches pay a dict lookup, not a
    reship."""
    import ray

    ref = ray.put(frozenset(bench_grams))

    def scan(t: pa.Table) -> pa.Table:
        grams = ray.get(ref)
        shared = [
            len(set(word_ngrams(x or "", n)) & grams)
            for x in t.column(text_column).to_pylist()
        ]
        return t.append_column(out_column, pa.array(shared, pa.int64()))

    return ds.map_batches(scan, batch_format="pyarrow")


def redact_pii(ds, text_column: str = "text",
               out_column: str = "redacted_text"):
    """PII redaction over the text column: emails -> ``<EMAIL>`` then each
    reference phone pattern (fields.PHONE_RES, applied in order) ->
    ``<PHONE>``.  Conservative: the per-match length>=7 filter of the
    EXTRACTOR is intentionally not applied when redacting (over-redacting a
    short digit run is safe; leaking a phone number is not).  Appends
    ``n_emails`` / ``n_phones`` counted from the redacted output (sentinel
    occurrences — the same count SQL reconstructs).  Pure per-row kernel,
    no shuffle; regexes compiled at import."""
    from ..functions.fields import EMAIL_RE, PHONE_RES

    def scrub(t: pa.Table) -> pa.Table:
        outs = []
        for x in t.column(text_column).to_pylist():
            s = EMAIL_RE.sub("<EMAIL>", x or "")
            for pat in PHONE_RES:
                s = pat.sub("<PHONE>", s)
            outs.append(s)
        t = t.append_column(out_column, pa.array(outs, pa.large_string()))
        t = t.append_column("n_emails", pa.array(
            [s.count("<EMAIL>") for s in outs], pa.int64()))
        return t.append_column("n_phones", pa.array(
            [s.count("<PHONE>") for s in outs], pa.int64()))

    return ds.map_batches(scrub, batch_format="pyarrow")


def repetition_stats(ds, text_column: str = "text", n: int = 2):
    """Intra-document repetition features (Gopher-style duplicate-n-gram
    signal): total n-grams, distinct n-grams, and the duplicate fraction
    as a fixed-point e4 integer (half-away rounding, matching SQL ROUND).

    Word-soup spam and boilerplate loops score high; the caller gates on
    ``dup_ngram_frac_e4``.  Pure per-row kernel, no shuffle."""

    def feats(t: pa.Table) -> pa.Table:
        n_grams, n_distinct, frac = [], [], []
        for x in t.column(text_column).to_pylist():
            gs = word_ngrams(x or "", n)
            total, uniq = len(gs), len(set(gs))
            n_grams.append(total)
            n_distinct.append(uniq)
            frac.append(
                0 if total == 0
                else int(np.floor((total - uniq) * 10000.0 / total + 0.5))
            )
        t = t.append_column("n_ngrams", pa.array(n_grams, pa.int64()))
        t = t.append_column("n_distinct_ngrams", pa.array(n_distinct, pa.int64()))
        return t.append_column("dup_ngram_frac_e4", pa.array(frac, pa.int64()))

    return ds.map_batches(feats, batch_format="pyarrow")


def normalize_text(ds, text_column: str = "text",
                   out_column: str = "norm_text"):
    """Unicode + whitespace normalization — the canonical first transform
    after extraction in a web-text pipeline (decomposed accents, stray
    control bytes and ragged whitespace otherwise defeat every downstream
    exact/line/n-gram dedup key).  Pure vectorized Arrow kernels; each rule
    is regex-expressible so the chain has an exact DuckDB replay
    (``normalize_text`` query oracle).

    Rules, in order:
      1. Unicode NFC (e + COMBINING ACUTE -> é);
      2. control characters stripped except tab/newline
         (``[\\x00-\\x08\\x0b-\\x1f\\x7f]``);
      3. runs of spaces/tabs collapsed to one space;
      4. spaces trimmed around newlines;
      5. runs of 3+ newlines collapsed to a blank line;
      6. leading/trailing whitespace trimmed."""

    def kernel(t: pa.Table) -> pa.Table:
        import unicodedata

        import numpy as np
        import pyarrow.compute as pc

        s = pc.fill_null(t.column(text_column).cast(pa.string()), "")
        if isinstance(s, pa.ChunkedArray):
            s = s.combine_chunks()
        # NFC: this pyarrow's utf8_normalize does NOT canonically compose
        # (e + U+0301 stays two codepoints — verified), so rows that need
        # it go through unicodedata.  The vectorized byte-vs-codepoint
        # length check skips the Python path entirely for pure-ASCII rows
        # — the overwhelming majority of web text batches.
        nonascii = pc.not_equal(pc.binary_length(s), pc.utf8_length(s))
        if pc.any(nonascii).as_py():
            vals = np.asarray(s.to_pylist(), dtype=object)
            for i in np.nonzero(nonascii.to_numpy(zero_copy_only=False))[0]:
                vals[i] = unicodedata.normalize("NFC", vals[i])
            s = pa.array(vals, pa.string())
        s = pc.replace_substring_regex(s, r"[\x00-\x08\x0b-\x1f\x7f]", "")
        s = pc.replace_substring_regex(s, r"[ \t]+", " ")
        s = pc.replace_substring_regex(s, r" *\n *", "\n")
        s = pc.replace_substring_regex(s, r"\n{3,}", "\n\n")
        s = pc.replace_substring_regex(s, r"^\s+|\s+$", "")
        t = t.append_column(out_column, s)
        return t.append_column("n_chars_norm",
                               pc.utf8_length(s).cast(pa.int64()))

    return ds.map_batches(kernel, batch_format="pyarrow")


# SQL replay of normalize_text's rule chain, kept next to the kernel.
def normalize_sql(text_expr: str) -> str:
    return f"""
        regexp_replace(regexp_replace(regexp_replace(regexp_replace(
            regexp_replace(nfc_normalize({text_expr}),
                '[\\x00-\\x08\\x0b-\\x1f\\x7f]', '', 'g'),
            '[ \\t]+', ' ', 'g'),
            ' *\\n *', chr(10), 'g'),
            '\\n{{3,}}', chr(10) || chr(10), 'g'),
            '^\\s+|\\s+$', '', 'g')
    """


def gopher_rules(ds, text_column: str = "text"):
    """Gopher-style document quality rules (Rae et al. 2021, the public
    rule family behind most web-text quality gates) as one fully
    vectorized Arrow pass — no per-row Python, zero shuffles.

    Emits integer-exact features (e2/e4 fixed-point, floor division — so
    the SQL oracle replays them bit for bit) plus one flag per rule and
    the combined gate:
      r_words     50 <= word count <= 100k
      r_wlen      3 <= mean word length <= 10
      r_symbol    (# + ellipsis) / words < 0.1
      r_bullet    bullet-started lines / lines < 0.9
      r_ellipsis  ellipsis-ended lines / lines < 0.3
      r_alpha     words containing a letter / words > 0.8
      r_stop      >= 2 stopword hits (the/and/of/to/a/in/is/that/it/for)
    """
    import numpy as np
    import pyarrow.compute as pc

    stop_re = r"(?i)\b(the|and|of|to|a|in|is|that|it|for)\b"

    def kernel(t: pa.Table) -> pa.Table:
        s = pc.fill_null(t.column(text_column).cast(pa.string()), "")

        def cnt(pat):
            return pc.count_substring_regex(s, pat).cast(pa.int64()) \
                     .to_numpy(zero_copy_only=False)

        n_words = cnt(r"\S+")
        n_ws = cnt(r"\s")
        n_chars = pc.utf8_length(s).cast(pa.int64()) \
                    .to_numpy(zero_copy_only=False)
        n_sym = (pc.count_substring(s, "#").cast(pa.int64())
                   .to_numpy(zero_copy_only=False)
                 + pc.count_substring(s, "...").cast(pa.int64())
                     .to_numpy(zero_copy_only=False))
        n_lines = cnt(r"\n") + 1
        n_bullet = cnt(r"(?m)^[-*•] ")
        n_ell_end = cnt(r"(?m)\.\.\.$")
        n_alpha = cnt(r"\S*[A-Za-z]\S*")
        n_stop = cnt(stop_re)

        w = np.maximum(n_words, 1)  # guard: empty docs fail r_words anyway
        mean_wlen_e2 = 100 * (n_chars - n_ws) // w
        symbol_e4 = 10000 * n_sym // w
        bullet_e4 = 10000 * n_bullet // n_lines
        ellipsis_e4 = 10000 * n_ell_end // n_lines
        alpha_e4 = 10000 * n_alpha // w

        r_words = (n_words >= 50) & (n_words <= 100_000)
        r_wlen = (mean_wlen_e2 >= 300) & (mean_wlen_e2 <= 1000)
        r_symbol = symbol_e4 < 1000
        r_bullet = bullet_e4 < 9000
        r_ellipsis = ellipsis_e4 < 3000
        r_alpha = alpha_e4 > 8000
        r_stop = n_stop >= 2
        passes = (r_words & r_wlen & r_symbol & r_bullet & r_ellipsis
                  & r_alpha & r_stop)

        cols = {
            "n_words": n_words, "mean_wlen_e2": mean_wlen_e2,
            "symbol_e4": symbol_e4, "bullet_e4": bullet_e4,
            "ellipsis_e4": ellipsis_e4, "alpha_e4": alpha_e4,
            "n_stop": n_stop,
            "r_words": r_words, "r_wlen": r_wlen, "r_symbol": r_symbol,
            "r_bullet": r_bullet, "r_ellipsis": r_ellipsis,
            "r_alpha": r_alpha, "r_stop": r_stop, "pass_gopher": passes,
        }
        for name, arr in cols.items():
            typ = pa.bool_() if arr.dtype == bool else pa.int64()
            t = t.append_column(name, pa.array(arr, typ))
        return t

    return ds.map_batches(kernel, batch_format="pyarrow")


def c4_filters(ds, text_column: str = "text",
               badword_re: str = r"(?i)\b(porn|xxx)\b"):
    """C4-style cleaning rules (Raffel et al. 2020, the public rule set
    behind the C4 corpus) — line-level keep rules plus page-level drop
    flags, one batch-local vectorized pass, zero shuffles:

    Line kept iff (after whitespace trim):
      * ends in terminal punctuation (``. ! ? "``);
      * has >= 5 words;
      * does not mention "javascript" (case-insensitive).
    Page flags (on the ORIGINAL text):
      * ``has_lorem``   — "lorem ipsum" (case-insensitive);
      * ``has_brace``   — a curly bracket (code, not prose);
      * ``has_badword`` — the word-boundary blocklist regex
        (``badword_re``; default a 2-token stand-in for the public
        LDNOOBW list — pass the real list's regex in production).
    ``pass_c4`` = no page flag and >= 3 surviving lines (the paper's
    >= 3-sentence rule; a kept line ends in terminal punctuation, so kept
    lines ARE sentence-ish units).

    Emits (clean_text = kept trimmed lines joined by newline, n_lines,
    n_lines_kept, has_lorem, has_brace, has_badword, pass_c4).  Every rule
    is regex-expressible, so the ``c4_filters`` query has an exact DuckDB
    replay."""
    import pyarrow.compute as pc

    def kernel(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        s = pc.fill_null(t.column(text_column).cast(pa.string()), "")
        lines_list = pc.split_pattern(s, "\n")
        n_docs = t.num_rows
        n_lines = pc.list_value_length(lines_list).to_numpy().astype(np.int64)
        flat = pc.list_flatten(lines_list)
        parent = pc.list_parent_indices(lines_list).to_numpy()
        trimmed = pc.replace_substring_regex(flat, r"^\s+|\s+$", "")
        nwords = pc.count_substring_regex(trimmed, r"\S+") \
                   .to_numpy(zero_copy_only=False)
        term = pc.match_substring_regex(trimmed, r'[.!?"]$') \
                 .to_numpy(zero_copy_only=False)
        js = pc.match_substring_regex(trimmed, r"(?i)javascript") \
               .to_numpy(zero_copy_only=False)
        keep = term & (nwords >= 5) & ~js

        kept_parent = parent[keep]
        n_kept = np.bincount(kept_parent, minlength=n_docs).astype(np.int64)
        joined = pd.Series(
            np.asarray(trimmed.to_pylist(), dtype=object)[keep]
        ).groupby(kept_parent, sort=True).agg("\n".join)
        clean = np.full(n_docs, "", dtype=object)
        clean[joined.index.to_numpy()] = joined.to_numpy()

        lorem = pc.match_substring_regex(s, r"(?i)lorem ipsum") \
                  .to_numpy(zero_copy_only=False)
        brace = pc.match_substring(s, "{").to_numpy(zero_copy_only=False)
        bad = pc.match_substring_regex(s, badword_re) \
                .to_numpy(zero_copy_only=False)
        passes = ~lorem & ~brace & ~bad & (n_kept >= 3)

        t = t.append_column("clean_text", pa.array(clean, pa.large_string()))
        t = t.append_column("n_lines", pa.array(n_lines, pa.int64()))
        t = t.append_column("n_lines_kept", pa.array(n_kept, pa.int64()))
        for name, arr in [("has_lorem", lorem), ("has_brace", brace),
                          ("has_badword", bad), ("pass_c4", passes)]:
            t = t.append_column(name, pa.array(arr, pa.bool_()))
        return t

    return ds.map_batches(kernel, batch_format="pyarrow")


def url_dedup(ds, url_column: str = "url", id_column: str = "doc_id",
              n_buckets: int = 32):
    """URL-level dedup on the canonical URL (the first dedup a CC-style
    crawl pipeline runs — before any content hashing): canonicalize
    (``functions/urlnorm.py``: scheme/host case, www, default ports,
    slashes, tracking params, fragments), then keep the smallest id per
    canonical form.

    Physical plan: pure-Arrow per-batch partial (group_by canon -> min id,
    count) so only one row per (batch, canon) crosses the wire, then one
    bucketed combine — the ``pre_aggregated_sum`` shape with min/count.
    Returns (canon_url, keep_doc, n_dups)."""
    from ..functions.urlnorm import canonicalize_urls
    from .aggregate import bucketed_combine

    canon = canonicalize_urls(
        ds.select_columns([id_column, url_column]), url_column, "canon_url"
    )

    def partial(t: pa.Table) -> pa.Table:
        g = t.group_by("canon_url").aggregate(
            [(id_column, "min"), ([], "count_all")]
        )
        return pa.table({
            "canon_url": g.column("canon_url"),
            "partial_min": g.column(f"{id_column}_min"),
            "partial_n": g.column("count_all"),
        })

    partials = canon.map_batches(partial, batch_format="pyarrow")

    def combine(t: pa.Table) -> pa.Table:
        g = t.group_by("canon_url").aggregate(
            [("partial_min", "min"), ("partial_n", "sum")]
        )
        return pa.table({
            "canon_url": g.column("canon_url"),
            "keep_doc": g.column("partial_min_min"),
            "n_dups": g.column("partial_n_sum"),
        })

    return bucketed_combine(partials, "canon_url", combine, n_buckets)


def line_dedup(ds, text_column: str = "text", id_column: str = "doc_id",
               n_buckets: int = 32, separator: str = "\n"):
    """Corpus-wide LINE-level deduplication (the CCNet / RefinedWeb line
    dedup): every line that occurs anywhere else in the corpus is dropped
    except its FIRST occurrence — first = smallest (doc id, line index) —
    and documents are reassembled from their surviving lines in order.

    Boilerplate that survives main-content extraction (cookie banners, nav
    footers, share buttons) repeats across millions of pages; dropping
    repeated lines corpus-wide is a standard step between extraction and
    document-level dedup in public web-text pipelines.

    Physical plan — two bucketed exchanges, no join, no broadcast, no
    driver collection, skew-bounded:
      1. explode docs into (doc, idx, line) rows (embarrassingly parallel);
      2. exchange on hash(line): the bucket holds EVERY occurrence of each
         of its lines, so one stable sort + duplicated() marks the single
         (min doc, min idx) survivor per line in place — each row comes
         out tagged keep/drop, no survivor table, no join-back;
      3. exchange on hash(doc): reassemble each doc from its kept lines in
         idx order; kept/total counts fall out of the same pass.
    A hot line (the empty string, "Accept cookies") is bounded at its own
    reducer — nothing else waits on it.  (A first version emitted a
    survivor table and hash-joined it back on the line: the join operator
    alone cost more remote wall than both exchanges carrying the text —
    marking in place deletes that third exchange.)

    Returns (id_column, dedup_text, n_lines_total, n_lines_kept) with one
    row per input document (documents whose every line lost are kept with
    empty text).

    Every stage is vectorized at bucket granularity: the explode is pure
    pyarrow kernels (split_pattern/list_flatten/list_parent_indices), and
    the two folds are whole-bucket sort + drop_duplicates / groupby-agg
    passes via ``bucketed_fold`` — a per-group fold here would construct
    one tiny frame per DISTINCT LINE (measured 13.4 s -> the vectorized
    plan's 4 s at sf0.1/32cpu; the line exchange dominates either way at
    scale, the fold must not).

    ``separator`` picks the dedup unit: the default newline gives line
    dedup; ``"\\n\\n"`` gives RefinedWeb-style PARAGRAPH dedup (same
    exchanges, paragraph-sized keys)."""
    import numpy as np
    import pyarrow.compute as pc

    from .aggregate import bucketed_fold

    def explode(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        txt = pc.fill_null(t.column(text_column), "")
        lines_list = pc.split_pattern(txt, separator)
        lens = pc.list_value_length(lines_list).to_numpy().astype(np.int64)
        total = int(lens.sum())
        # 1-based index within each doc, matching SQL generate_subscripts.
        idx = np.arange(total, dtype=np.int64) \
            - np.repeat(np.cumsum(lens) - lens, lens) + 1
        return pa.table({
            id_column: pc.take(t.column(id_column),
                               pc.list_parent_indices(lines_list)),
            "idx": pa.array(idx, pa.int64()),
            # plain string, not large_string: the marked rows come back
            # from a pandas fold as string and the exchanges must agree on
            # key width.  Single lines never approach the 2 GB chunk bound
            # at sane block sizes.
            "line": pc.list_flatten(lines_list).cast(pa.string()),
        })

    exploded = ds.select_columns([id_column, text_column]).map_batches(
        explode, batch_format="pyarrow"
    )

    def mark_first(g: pd.DataFrame) -> pd.DataFrame:
        # Stable sort + duplicated(keep="first") IS the (min doc, min idx)
        # rule — the bucket is key-complete for each of its lines.
        g = g.sort_values([id_column, "idx"], kind="mergesort")
        return g.assign(__keep=~g.duplicated("line", keep="first"))

    marked = bucketed_fold(exploded, "line", mark_first,
                           n_buckets=n_buckets)

    def reassemble(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([id_column, "idx"], kind="mergesort")
        keep = g["__keep"].to_numpy()
        agg = g.groupby(id_column, sort=False).agg(
            n_lines_total=("idx", "size"), n_lines_kept=("__keep", "sum"))
        texts = g.loc[keep].groupby(id_column, sort=False)["line"] \
                 .agg(separator.join)
        out = agg.join(texts.rename("dedup_text")).reset_index()
        out["dedup_text"] = out["dedup_text"].fillna("")
        out["n_lines_total"] = out["n_lines_total"].astype("int64")
        out["n_lines_kept"] = out["n_lines_kept"].astype("int64")
        return out[[id_column, "dedup_text", "n_lines_total",
                    "n_lines_kept"]]

    return bucketed_fold(marked, id_column, reassemble, n_buckets=n_buckets)


def boilerplate_removal(ds, text_column: str = "text",
                        id_column: str = "doc_id",
                        group_column: str = "source", min_docs: int = 2,
                        n_buckets: int = 32, separator: str = "\n"):
    """Per-domain BOILERPLATE line removal (the CCNet / RefinedWeb sibling
    of ``line_dedup`` with different semantics): a line that occurs in at
    least ``min_docs`` DISTINCT documents of the SAME ``group_column``
    (domain / source) is boilerplate — nav bars, cookie banners, footers —
    and EVERY occurrence is dropped, including the first.  ``line_dedup``
    keeps one global copy of a repeated line; this keeps none, and only
    counts repetition within a domain (a line shared by two different
    domains is content, not template).

    Physical plan — the ``line_dedup`` shape, two bucketed exchanges,
    join-free, no broadcast, no driver collection:
      1. explode docs into (doc, domain, idx, line) rows (row-local);
      2. exchange on hash((domain, line)): the bucket holds every
         occurrence of each of its (domain, line) keys, so one vectorized
         ``groupby(...).transform('nunique')`` marks rows in place —
         keep = the line appears in fewer than ``min_docs`` docs of that
         domain.  A hot template line is bounded at its own reducer.
      3. exchange on hash(doc): reassemble surviving lines in idx order.

    Returns (id_column, clean_text, n_lines_total, n_lines_kept), one row
    per input document (a fully-templated document survives with empty
    text).  Hash-exactly SQL-replayable: COUNT(DISTINCT doc) per
    (domain, line) then FILTER in an ordered string_agg."""
    import pyarrow.compute as pc

    from .aggregate import bucketed_fold

    def explode(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        txt = pc.fill_null(t.column(text_column), "")
        lines_list = pc.split_pattern(txt, separator)
        lens = pc.list_value_length(lines_list).to_numpy().astype(np.int64)
        total = int(lens.sum())
        idx = np.arange(total, dtype=np.int64) \
            - np.repeat(np.cumsum(lens) - lens, lens) + 1
        parents = pc.list_parent_indices(lines_list)
        return pa.table({
            id_column: pc.take(t.column(id_column), parents),
            group_column: pc.take(t.column(group_column), parents),
            "idx": pa.array(idx, pa.int64()),
            "line": pc.list_flatten(lines_list).cast(pa.string()),
        })

    exploded = ds.select_columns(
        [id_column, group_column, text_column]
    ).map_batches(explode, batch_format="pyarrow")

    def mark(g: pd.DataFrame) -> pd.DataFrame:
        # Bucket is key-complete per (domain, line): the distinct-doc
        # count per key is exact inside it.
        nd = g.groupby([group_column, "line"], sort=False)[id_column] \
              .transform("nunique")
        return g.assign(__keep=nd.to_numpy() < min_docs)

    marked = bucketed_fold(exploded, [group_column, "line"], mark,
                           n_buckets=n_buckets)

    def reassemble(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([id_column, "idx"], kind="mergesort")
        keep = g["__keep"].to_numpy()
        agg = g.groupby(id_column, sort=False).agg(
            n_lines_total=("idx", "size"), n_lines_kept=("__keep", "sum"))
        texts = g.loc[keep].groupby(id_column, sort=False)["line"] \
                 .agg(separator.join)
        out = agg.join(texts.rename("clean_text")).reset_index()
        out["clean_text"] = out["clean_text"].fillna("")
        out["n_lines_total"] = out["n_lines_total"].astype("int64")
        out["n_lines_kept"] = out["n_lines_kept"].astype("int64")
        return out[[id_column, "clean_text", "n_lines_total",
                    "n_lines_kept"]]

    return bucketed_fold(
        marked.map_batches(
            lambda t: t.drop_columns([group_column]),
            batch_format="pyarrow",
        ),
        id_column, reassemble, n_buckets=n_buckets)


def chunk_documents(ds, id_column: str = "doc_id",
                    text_column: str = "text", chunk_tokens: int = 128,
                    overlap_tokens: int = 16):
    """Sliding-window document CHUNKING (the RAG / context-window prep
    step): each document explodes into overlapping windows of
    ``chunk_tokens`` whitespace tokens advancing by ``stride =
    chunk_tokens - overlap_tokens``; the last window starts at the final
    stride position whose predecessor did not already cover the document
    (no sub-overlap tail fragments).  Empty documents emit zero chunks.

    Row-local flat explode — zero shuffles; output rows carry (doc id,
    chunk_id, n_tokens, chunk text).  Hash-exactly SQL-replayable
    (regexp token split + list_slice over generate_series)."""
    if overlap_tokens >= chunk_tokens:
        raise ValueError("overlap_tokens must be < chunk_tokens")
    stride = chunk_tokens - overlap_tokens

    def explode(t: pa.Table) -> pa.Table:
        ids, cidx, ntok, chunks = [], [], [], []
        for doc_id, text in zip(t.column(id_column).to_pylist(),
                                t.column(text_column).to_pylist()):
            toks = (text or "").split()
            n = len(toks)
            if n == 0:
                continue
            start, k = 0, 0
            while True:
                window = toks[start:start + chunk_tokens]
                ids.append(doc_id)
                cidx.append(k)
                ntok.append(len(window))
                chunks.append(" ".join(window))
                if start + chunk_tokens >= n:
                    break
                start += stride
                k += 1
        return pa.table({
            id_column: pa.array(ids, t.schema.field(id_column).type),
            "chunk_id": pa.array(cidx, pa.int64()),
            "n_tokens": pa.array(ntok, pa.int64()),
            "chunk": pa.array(chunks, pa.string()),
        })

    return ds.select_columns([id_column, text_column]).map_batches(
        explode, batch_format="pyarrow")


def greedy_coverage_select(docs, k: int = 4, text_column: str = "text",
                           id_column: str = "doc_id"):
    """Greedy maximum-coverage corpus selection (the submodular
    data-selection step: pick the k documents that together cover the
    most distinct vocabulary — facility-location-style diverse-subset
    curation).  Greedy is the canonical (1 - 1/e)-approximation; ties
    break to the smallest doc_id, so the selection is deterministic and
    SQL-replayable round by round.

    Plan: k passes over the corpus.  Each pass broadcasts the covered
    term set (ray.put — it grows by at most one doc's vocabulary per
    round) into a map_batches that reduces every BATCH to its single
    best candidate row (doc_id, gain, and that candidate's uncovered
    terms — only per-batch winners carry a term payload); the driver
    folds the tiny per-batch winner table.  Documents with zero
    uncovered terms never become candidates, so selection stops early
    on exhausted corpora.  Coverage units are word BIGRAMS over the
    lexicon tokenizer (``[a-z0-9]+`` on lowered text) — unigram
    vocabularies saturate after one template-heavy document.

    Returns a pandas DataFrame (rank, doc_id, new_terms) — rank is
    1-based selection order."""
    import ray

    from .lexicon import _tokens

    thin = docs.select_columns([id_column, text_column]).materialize()
    selected = []
    covered: frozenset = frozenset()

    for rank in range(1, k + 1):
        covered_ref = ray.put(covered)

        def best_of_batch(t: pa.Table) -> pa.Table:
            cov = ray.get(covered_ref)
            best = None
            for doc_id, text in zip(t.column(id_column).to_pylist(),
                                    t.column(text_column).to_pylist()):
                toks = _tokens(text)
                grams = (f"{a} {b}" for a, b in zip(toks, toks[1:]))
                new = frozenset(grams) - cov
                gain = len(new)
                if gain == 0:
                    continue
                key = (-gain, doc_id)
                if best is None or key < best[0]:
                    best = (key, doc_id, gain, new)
            if best is None:
                return pa.table({id_column: pa.array([], pa.int64()),
                                 "gain": pa.array([], pa.int64()),
                                 "terms": pa.array([], pa.list_(pa.string()))})
            return pa.table({
                id_column: pa.array([best[1]], pa.int64()),
                "gain": pa.array([best[2]], pa.int64()),
                "terms": pa.array([sorted(best[3])],
                                  pa.list_(pa.string()))})

        winners = thin.map_batches(
            best_of_batch, batch_format="pyarrow").to_pandas()
        if winners.empty:
            break
        winners = winners.sort_values(
            ["gain", id_column], ascending=[False, True],
            kind="mergesort")
        top = winners.iloc[0]
        selected.append((rank, int(top[id_column]), int(top["gain"])))
        covered = covered | frozenset(top["terms"])

    return pd.DataFrame(selected,
                        columns=["rank", id_column, "new_terms"])


def novelty_scores(ds, id_column: str = "doc_id", text_column: str = "text",
                   n: int = 3, n_buckets: int = 32):
    """Per-document NOVELTY: how many of a doc's distinct word-n-gram
    shingles appear for the FIRST time in that doc (owner = corpus-wide
    min doc id per shingle) — the dataset-freshness / redundancy signal a
    training-data curator reads before adding a crawl snapshot (a doc
    whose shingles all have earlier owners adds nothing the corpus lacks).

    Plan: distinct (doc, shingle-hash) pairs exploded row-locally and
    MATERIALIZED ONCE (two consumers — the diamond-dependency pattern);
    totals per doc are one count exchange; owners are one shingle-bucketed
    min fold whose output is (owner_doc) rows — shingle-bounded, never
    wider than the explode — counted per doc; one final hash join stitches
    (doc, n_shingles, n_novel), left side filling 0 for docs that own
    nothing.  Tokenization is the curation convention ([a-z0-9]+ runs,
    md5_u64 = DuckDB md5_number_lower) so the whole statistic is
    SQL-replayable."""
    import pyarrow.compute as pc

    from ..functions import textstats as T
    from .aggregate import bucketed_fold, pre_aggregated_count
    from .join import partitioned_hash_join

    def explode(t: pa.Table) -> pa.Table:
        ids, hs = [], []
        for d, txt in zip(t.column(id_column).to_pylist(),
                          t.column(text_column).to_pylist()):
            for g in set(word_ngrams(txt or "", n)):
                ids.append(d)
                hs.append(T.md5_u64(g))
        return pa.table({id_column: pa.array(ids, pa.int64()),
                         "h": pa.array(hs, pa.uint64())})

    pairs = ds.select_columns([id_column, text_column]) \
        .map_batches(explode, batch_format="pyarrow").materialize()

    totals = pre_aggregated_count(pairs, id_column, n_buckets=n_buckets,
                                  alias="n_shingles")

    def owner_fold(g: pd.DataFrame) -> pd.DataFrame:
        own = g.groupby("h", sort=False)[id_column].min()
        return pd.DataFrame({id_column: own.to_numpy(np.int64)})

    owners = bucketed_fold(pairs, "h", owner_fold, n_buckets=n_buckets)
    novel = pre_aggregated_count(owners, id_column, n_buckets=n_buckets,
                                 alias="n_novel")

    id_t = pa.int64()
    joined = partitioned_hash_join(
        totals, novel, on=id_column, how="left", n_buckets=n_buckets,
        left_schema=pa.schema([(id_column, id_t), ("n_shingles", id_t)]),
        right_schema=pa.schema([(id_column, id_t), ("n_novel", id_t)]))

    def finish(t: pa.Table) -> pa.Table:
        return t.set_column(2, "n_novel", pc.coalesce(
            t.column("n_novel"), pa.scalar(0, pa.int64())))

    return joined.map_batches(finish, batch_format="pyarrow")


# ------------------------------------------------------------- robots policy

def robots_filter(ds, rules, url_column: str = "url",
                  id_column: str = "doc_id"):
    """Robots-exclusion-protocol crawl-policy filter: per-host
    allow/disallow PATH-PREFIX rules, resolved per URL with the REP
    precedence Google documents — the LONGEST matching prefix wins, and
    on equal length ``allow`` beats ``disallow``; a URL whose host has no
    matching rule is allowed (the implicit ``Allow: /``).

    ``rules`` is a list of ``(host, prefix, allow)`` triples.  A robots
    rule set is POLICY-shaped (O(hosts), kilobytes against a 100-TB
    corpus), so it is captured once in the task closure — the canonical
    broadcast-small-side plan; the corpus never shuffles.  Matching is
    one vectorized numpy pass PER RULE over each batch (rules iterate,
    rows never do): rules are pre-sorted ascending by ``(len(prefix),
    allow)`` and each pass overwrites the running best where it matches,
    so the final value is the max-precedence rule without any per-row
    argmax.

    Output: ``(id, allowed, rule_len)`` — ``rule_len`` is the matched
    prefix length (0 = no rule matched, implicit allow).  Extends the
    reference's per-document in-band guards (approach4_v1.py:199-200) to
    crawl-policy enforcement; no reference counterpart."""
    # Precedence sort: later passes overwrite earlier ones, so ascending
    # (len, allow) leaves the longest prefix — allow on ties — in place.
    ordered = sorted(rules, key=lambda r: (len(r[1]), r[2]))
    _URL = re.compile(r"^[a-z][a-z0-9+.-]*://([^/?#]+)([^?#]*)")

    def match(t: pa.Table) -> pa.Table:
        urls = t.column(url_column).to_pylist()
        hosts = np.empty(len(urls), dtype=object)
        paths = np.empty(len(urls), dtype=object)
        for i, u in enumerate(urls):
            m = _URL.match(u or "")
            hosts[i] = m.group(1) if m else ""
            paths[i] = (m.group(2) or "/") if m else ""
        allowed = np.ones(len(urls), dtype=np.int64)
        rule_len = np.zeros(len(urls), dtype=np.int64)
        for host, prefix, allow in ordered:
            hm = hosts == host
            if not hm.any():
                continue
            pm = np.array([p.startswith(prefix) for p in paths],
                          dtype=bool) & hm
            allowed[pm] = int(allow)
            rule_len[pm] = len(prefix)
        return pa.table({id_column: t.column(id_column),
                         "allowed": pa.array(allowed, pa.int64()),
                         "rule_len": pa.array(rule_len, pa.int64())})

    return ds.select_columns([id_column, url_column]) \
        .map_batches(match, batch_format="pyarrow")


def filter_threshold_sweep(ds, thresholds, text_column: str = "text",
                           label_column: str = "lang",
                           pos_label: str = "en", n_buckets: int = 4):
    """Quality-filter calibration sweep: confusion-matrix counts
    (tp/fp/fn/tn) of the rule "keep documents with >= t distinct tokens"
    against a reference label, for every candidate threshold t — the
    precision/recall table a curator reads before freezing a filter
    cutoff.  All counts are exact integers (ratios are the consumer's
    division, so the statistic stays hash-checkable).

    One vectorized pass computes the score and label per batch; the
    partial is ``len(thresholds)`` rows per batch (never row-shaped on
    the wire), combined by one tiny bucketed exchange on threshold."""
    from .aggregate import bucketed_combine

    ths = np.asarray(sorted(thresholds), dtype=np.int64)

    def partial(t: pa.Table) -> pa.Table:
        pos = (t.column(label_column).to_pandas()
               .fillna("").to_numpy() == pos_label)
        score = np.fromiter(
            (len(set(WORD_RE.findall((txt or "").lower())))
             for txt in t.column(text_column).to_pylist()),
            dtype=np.int64, count=t.num_rows)
        keep = score[None, :] >= ths[:, None]
        tp = (keep & pos[None, :]).sum(axis=1)
        fp = (keep & ~pos[None, :]).sum(axis=1)
        fn = (~keep & pos[None, :]).sum(axis=1)
        tn = (~keep & ~pos[None, :]).sum(axis=1)
        return pa.table({"threshold": pa.array(ths, pa.int64()),
                         "tp": pa.array(tp, pa.int64()),
                         "fp": pa.array(fp, pa.int64()),
                         "fn": pa.array(fn, pa.int64()),
                         "tn": pa.array(tn, pa.int64())})

    partials = ds.select_columns([text_column, label_column]) \
        .map_batches(partial, batch_format="pyarrow")

    def combine(t: pa.Table) -> pa.Table:
        g = t.group_by("threshold").aggregate(
            [("tp", "sum"), ("fp", "sum"), ("fn", "sum"), ("tn", "sum")])
        return pa.table({"threshold": g.column("threshold"),
                         "tp": g.column("tp_sum"), "fp": g.column("fp_sum"),
                         "fn": g.column("fn_sum"), "tn": g.column("tn_sum")})

    return bucketed_combine(partials, "threshold", combine,
                            n_buckets=n_buckets)


def crawl_schedule(ds, host_col: str = "host", delay_map=None,
                   default_delay_ms: int = 500, order_cols=None,
                   descending=None, n_buckets: int = 32):
    """Per-host crawl-politeness scheduling: within each host, rows are
    ranked by priority (``order_cols`` / ``descending``, with the LAST
    order column as the deterministic tie-break) and fetch slot r is
    dispatched at ``r * delay(host)`` ms — the frontier-scheduling step a
    polite fetcher runs after URL dedup, honoring per-host Crawl-delay.

    ``delay_map`` is the robots-policy side: policy-sized (hosts with an
    explicit Crawl-delay), so it rides the task closure like
    ``robots_filter``'s rule list — never a shuffle side; unknown hosts
    fall back to ``default_delay_ms``.

    Plan: ONE host-bucketed exchange; the whole-bucket fold is a single
    vectorized sort + cumcount (no per-key Python).  Integer slots and
    millisecond offsets — hash-exact ROW_NUMBER oracle."""
    from .aggregate import bucketed_fold

    delay_map = dict(delay_map or {})
    order_cols = list(order_cols or [])
    descending = list(descending if descending is not None
                      else [True] * len(order_cols))

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([host_col, *order_cols],
                          ascending=[True, *[not d for d in descending]],
                          kind="mergesort")
        slot = g.groupby(host_col, sort=False).cumcount()
        delays = g[host_col].map(
            lambda h: delay_map.get(h, default_delay_ms))
        out = g.copy()
        out["slot"] = slot.astype("int64")
        out["fetch_at_ms"] = (slot * delays).astype("int64")
        return out

    return bucketed_fold(ds, host_col, fold, n_buckets=n_buckets)
