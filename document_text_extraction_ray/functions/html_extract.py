"""Main-content extraction from HTML bytes: tokenizer -> DOM-lite -> block
scoring (text/link density + tag/class blocklists) -> reading-order assembly.

This is the web-native analogue of the reference's layout pipeline: the
"threshold-ratio + min-size + blocklist" parameter style mirrors the density
thresholds of the histogram detector (/root/reference/grid_detector_v4.py:274-286),
the reading-order fold mirrors the docling body-children walk
(/root/reference/parse_cv_docling.py:91-210) and the block->column y-sort
(/root/reference/new_approaches/final.py:71-104).  Semantics are
trafilatura/jusText-style boilerplate stripping from the public literature.

Everything is pure Python/bytes — deterministic, byte-offset accurate, and
shared verbatim between the golden oracle and the Ray map_batches UDF.

Span convention: for each kept block we emit byte offsets into the ORIGINAL
``html`` bytes.  When a block is exactly the inner content of one block
element (the common case: ``<p>...</p>``), the span is
(end-of-opening-tag, start-of-closing-tag).  When text sits directly inside a
container mixed with other block elements, the span falls back to
(first-text-token-start, last-text-token-end).

Tokenizer.  ``extract_blocks`` makes one ``_TOKEN_RE.findall`` pass; each
match is ``(text_before, markup, slash, name, attrs, stop)`` and Python only
runs the block state machine over those tuples.  The markup alternatives
keep the precedence of a hand-written ``<``/``>`` scanner: a comment runs to
``-->`` or the end of input; other ``<!``/``<?`` markup to the first ``>``;
a raw-text element (SKIP_CONTENT_TAGS) swallows its content up to the
literal, case-insensitive ``</name>`` unless its name goes on (``<scriptx>``)
or its open tag is self-closing (``<script/>``), both of which are
transparent tags; anything else up to the first ``>`` is a tag; a ``<``
with no later ``>`` ends the scan.  The state machine is exact because:

* byte offsets are the running sum of the token lengths, and the matches
  tile the input, so every span is an offset into the original bytes;
* one dict maps raw name bytes to ``(lowercased tag, kind)``, the same name
  and class a ``[a-zA-Z][a-zA-Z0-9]*`` match plus the tag sets give;
* an ASCII-whitespace text token is appended as ``" "`` without decoding:
  blocks are normalized with ``" ".join(raw.split())``, which maps any
  whitespace run to one space;
* the governing element is the innermost open block element when the block
  is flushed: the stack only changes at a block open or a matched close,
  and both flush the current block first, so it is the stack at the block's
  first text;
* inside a dropped subtree no class attribute is parsed and only the
  outermost dropped element is recorded: a nested element's own verdict
  cannot show while its dropped ancestor is open, and closing the ancestor
  pops it too;
* "clean" (the governing element holds one uninterrupted text run) is a
  counter of block opens and mid-element flushes, compared with its value
  when the element was opened.
"""

from __future__ import annotations

import html as _html
import re as _re
from dataclasses import dataclass

# Tag-name parser (replaces a per-character isspace scan — profiled hot).
_TAGNAME_RE = _re.compile(rb"[a-zA-Z][a-zA-Z0-9]*")
# Decoded/lowered tag-name cache: few distinct tags per corpus, hit ~always.
_TAG_CACHE: dict = {}
# Whole-body cache for attribute-less tag bodies (`p`, `li`, `div`, …) —
# the dominant case; one dict hit replaces regex match + group + slice.
_BODY_CACHE: dict = {}


def _tag_name(body: bytes):
    """(tag_str, attrs_bytes) for an opening/closing tag body.

    For the scanners other than ``extract_blocks`` (outlinks, tables, head
    meta, publish date): their comment and raw-text rules differ from
    ``_TOKEN_RE``'s, so they keep their own loops."""
    hit = _BODY_CACHE.get(body)
    if hit is not None:
        return hit, b""
    m = _TAGNAME_RE.match(body)
    if m is None:
        return "", body
    raw = m.group(0)
    end = m.end()
    tag = _TAG_CACHE.get(raw)
    if tag is None:
        tag = raw.decode("ascii", "replace").lower()
        if len(_TAG_CACHE) < 4096:  # bound the cache against adversarial input
            _TAG_CACHE[raw] = tag
    if end == len(body):
        if len(_BODY_CACHE) < 4096:
            _BODY_CACHE[body] = tag
        return tag, b""
    return tag, body[end:]


# Tags whose open/close delimits a text block (flush boundary).
BLOCK_TAGS = frozenset(
    """html head body main article section div p h1 h2 h3 h4 h5 h6 ul ol li
    table thead tbody tfoot tr td th blockquote pre nav header footer aside
    figure figcaption form fieldset dl dt dd details summary address
    caption""".split()
)

# Subtrees whose text is never main content.
DROP_SUBTREE_TAGS = frozenset("head nav aside header footer form".split())

# Content skipped wholesale (raw-text elements).
SKIP_CONTENT_TAGS = frozenset("script style noscript template svg iframe textarea".split())

# Void elements: no closing tag ever.
VOID_TAGS = frozenset("br img hr meta link input area base col embed source track wbr".split())

# A class attribute containing any of these tokens drops the whole subtree.
BLOCKLIST_CLASS_TOKENS = frozenset(
    """sidebar footer header nav navbar menu ad ads advert advertisement banner
    cookie consent share social related comment comments breadcrumb pagination
    promo popup modal subscribe newsletter widget hidden""".split()
)

# True invisibility only (used for the permissive `visible_text` pass).
_INVISIBLE_ONLY = frozenset({"head"})
_NO_CLASSES: frozenset = frozenset()


@dataclass(frozen=True)
class ExtractConfig:
    """Tunable thresholds, in the style of grid_detector_v4.py:274-286
    (fixed ratio-style constants, never adaptive)."""

    min_chars: int = 10            # blocks shorter than this (normalized) are boilerplate crumbs
    max_link_density: float = 0.4  # blocks with more anchor text than this are navigation
    joiner: str = "\n\n"           # reading-order block separator in extracted_text


DEFAULT_CONFIG = ExtractConfig()


def _parse_class_attr(tag_body: bytes) -> frozenset:
    """Extract lowercase class tokens from the attribute region of an open tag."""
    idx = tag_body.find(b"class")
    if idx < 0:
        return _NO_CLASSES
    rest = tag_body[idx + 5:].lstrip()
    if not rest.startswith(b"="):
        return _NO_CLASSES
    rest = rest[1:].lstrip()
    if rest[:1] in (b'"', b"'"):
        quote = rest[:1]
        end = rest.find(quote, 1)
        val = rest[1:end] if end > 0 else rest[1:]
    else:
        end = 0
        while end < len(rest) and not rest[end:end + 1].isspace():
            end += 1
        val = rest[:end]
    try:
        return frozenset(val.decode("utf-8", "replace").lower().split())
    except Exception:
        return _NO_CLASSES


# One match per token: (text_before, markup, slash, name, attrs, stop); the
# alternatives and their order are set out in the module docstring.  `stop`
# takes the rest of the input: a tail with no `>` is scanned once, not once
# per `<` in it.  The lookahead on the raw-text names' first letters lets
# most tags skip the raw-text alternatives at once.
_SKIP_NAMES = sorted(name.encode() for name in SKIP_CONTENT_TAGS)
_RAW_TEXT = (
    rb"(?i:(?=[" + bytes(sorted({t[0] for t in _SKIP_NAMES})) + rb"])(?:"
    + b"|".join(t + rb"(?![a-zA-Z0-9])[^>]*(?<!/)>.*?(?:</" + t + rb">|\Z)"
                for t in _SKIP_NAMES)
    + rb"))"
)
_TOKEN_RE = _re.compile(
    rb"([^<]*)(?:(<(?:!--.*?(?:-->|\Z)|[!?][^>]*>?|" + _RAW_TEXT
    + rb"|(/?)([a-zA-Z][a-zA-Z0-9]*|)([^>]*)>))|(<.*)|\Z)",
    _re.S,
)

# What a tag does to the block state machine.  Raw-text elements only reach
# the generic alternative when self-closing (or as closing tags), and void
# tags other than <br>/<hr> do nothing, so both are transparent.
_INLINE, _BLOCK, _A, _TITLE, _BR, _HR = range(6)
_OTHER_KINDS = {"a": _A, "title": _TITLE, "br": _BR, "hr": _HR}
# Raw tag-name bytes -> (lowercased tag, kind).
_TAG_KINDS: dict = {}


def _tag_kind(raw: bytes):
    tag = raw.decode("ascii").lower()
    kind = _BLOCK if tag in BLOCK_TAGS else _OTHER_KINDS.get(tag, _INLINE)
    if len(_TAG_KINDS) < 4096:  # bound the cache against adversarial input
        _TAG_KINDS[raw] = (tag, kind)
    return tag, kind


def extract_blocks(
    html_bytes: bytes,
    config: ExtractConfig = DEFAULT_CONFIG,
    drop_subtree_tags: frozenset = DROP_SUBTREE_TAGS,
    blocklist_class_tokens: frozenset = BLOCKLIST_CLASS_TOKENS,
):
    """Tokenize ``html_bytes`` and return the kept main-content blocks in
    reading (document) order.

    Returns a list of dicts ``{text, start, end, kind, n_chars, link_density}``
    where (start, end) are byte offsets into ``html_bytes`` (span convention in
    the module docstring) and ``kind`` is the governing element's tag name.
    """
    min_chars = config.min_chars
    max_link_density = config.max_link_density
    unescape = _html.unescape
    tag_kinds = _TAG_KINDS
    # Open block elements, innermost last: (tag, open_end, seq at open).
    # ``seq`` counts block opens and mid-element flushes, so an element is
    # clean (its inner content so far is one uninterrupted text run) while
    # ``seq`` still equals the value it was opened with.
    stack: list = []
    seq = 0
    dropped_at = -1       # stack index of the outermost dropped element, or -1
    link_depth = 0        # >0 => inside <a>
    in_title = False      # inside the first <title> element (captured even
    title_parts: list = []  # though <head> is a dropped subtree)
    title_done = False
    kept: list = []
    # The current block.  ``parts`` is empty whenever ``dropped_at >= 0``.
    parts: list = []      # unescaped text pieces, raw whitespace
    n_chars = 0           # sum of stripped piece lengths
    link_chars = 0        # chars contributed inside <a>
    first_start = -1      # byte span of the block's non-whitespace text
    last_end = -1

    def flush(close_start: int = -1, clean: bool = False):
        # The governing element is the innermost open block element: the
        # stack cannot change between a block's first text and its flush.
        # ``clean``: ``close_start`` closes the governing element, which
        # stayed clean, so the span is its inner content.
        nonlocal parts, n_chars, link_chars, first_start, last_end
        text = " ".join("".join(parts).split())
        if text:
            density = link_chars / n_chars if n_chars else 0.0
            if len(text) >= min_chars and density <= max_link_density:
                if clean:
                    start, end = stack[-1][1], close_start
                else:
                    start, end = first_start, last_end
                kept.append(
                    {
                        "text": text,
                        "start": start,
                        "end": end,
                        "kind": stack[-1][0] if stack else "text",
                        "n_chars": len(text),
                        "link_density": density,
                    }
                )
        parts = []
        n_chars = link_chars = 0
        first_start = last_end = -1

    pos = 0
    for text, markup, slash, name, attrs, stop in _TOKEN_RE.findall(html_bytes):
        if text:
            end = pos + len(text)
            if in_title:
                title_parts.append(unescape(text.decode("utf-8", "replace")))
            if dropped_at < 0:
                if text.isspace():
                    parts.append(" ")
                else:
                    piece = text.decode("utf-8", "replace")
                    if "&" in piece:  # else html.unescape returns it as is
                        piece = unescape(piece)
                    parts.append(piece)
                    stripped_len = len(piece.strip())
                    if stripped_len:
                        if first_start < 0:
                            first_start = pos
                        last_end = end
                        n_chars += stripped_len
                        if link_depth:
                            link_chars += stripped_len
            pos = end
        if not name:
            if stop:
                break
            pos += len(markup)
            continue
        tag_end = pos + len(markup)
        hit = tag_kinds.get(name)
        tag, kind = hit if hit is not None else _tag_kind(name)

        if slash:
            if kind == _BLOCK:
                d = len(stack) - 1
                while d >= 0 and stack[d][0] != tag:
                    d -= 1
                if d >= 0:
                    if parts:
                        flush(pos, d == len(stack) - 1 and stack[d][2] == seq)
                    del stack[d:]
                    if dropped_at >= d:
                        dropped_at = -1
            elif kind == _A:
                if link_depth > 0:
                    link_depth -= 1
            elif kind == _TITLE:
                if in_title:
                    in_title = False
                    title_done = True
        elif kind == _BLOCK:
            if parts:
                flush()
            seq += 1
            # A self-closing block element opens and closes at once.
            if not attrs.endswith(b"/"):
                if dropped_at < 0 and (
                    tag in drop_subtree_tags
                    or (attrs and not _parse_class_attr(attrs).isdisjoint(
                        blocklist_class_tokens))
                ):
                    dropped_at = len(stack)
                stack.append((tag, tag_end, seq))
        elif kind == _A:
            link_depth += 1
        elif kind == _TITLE:
            if not title_done:
                in_title = True
        elif dropped_at < 0:
            if kind == _BR:
                parts.append("\n")
            elif kind == _HR and parts:
                seq += 1
                flush()
        pos = tag_end

    if parts:
        flush()
    title = " ".join("".join(title_parts).split())
    return kept, title


def extract_main_text(html_bytes: bytes, config: ExtractConfig = DEFAULT_CONFIG):
    """Extract main content from one page.

    Returns ``(extracted_text, spans)`` where spans is a list of
    ``(start, end, kind)`` tuples of byte offsets into ``html_bytes``.
    Reading order is document order, mirroring the within-document-only
    ordering contract of the reference (SURVEY.md §2.10).
    """
    blocks, _ = extract_blocks(html_bytes, config)
    text = config.joiner.join(b["text"] for b in blocks)
    spans = [(b["start"], b["end"], b["kind"]) for b in blocks]
    return text, spans


def extract_page(html_bytes: bytes, config: ExtractConfig = DEFAULT_CONFIG) -> dict:
    """Full page extraction: main text, spans, and the <title> (captured even
    though <head> is invisible for block purposes)."""
    blocks, title = extract_blocks(html_bytes, config)
    return {
        "text": config.joiner.join(b["text"] for b in blocks),
        "spans": [(b["start"], b["end"], b["kind"]) for b in blocks],
        "title": title,
        "n_blocks": len(blocks),
    }


def visible_text(html_bytes: bytes, joiner: str = "\n\n") -> str:
    """Full visible text (boilerplate included) — the ``text`` corpus column.

    Same tokenizer, but keeps every block regardless of density/blocklists;
    only <script>/<style>/comments/<head> remain invisible.
    """
    permissive = ExtractConfig(min_chars=1, max_link_density=1.0, joiner=joiner)
    blocks, _ = extract_blocks(
        html_bytes,
        permissive,
        drop_subtree_tags=_INVISIBLE_ONLY,
        blocklist_class_tokens=_NO_CLASSES,
    )
    return joiner.join(b["text"] for b in blocks)


_HREF_RE = _re.compile(
    rb"""href\s*=\s*(?:"([^"]*)"|'([^']*)'|([^\s>]+))""", _re.I)


def extract_outlinks(
    html_bytes: bytes,
    drop_subtree_tags: frozenset = DROP_SUBTREE_TAGS,
    blocklist_class_tokens: frozenset = BLOCKLIST_CLASS_TOKENS,
) -> list:
    """MAIN-CONTENT outlinks in document order: every ``<a href>`` whose
    anchor sits OUTSIDE dropped subtrees (nav/header/footer/aside/form +
    class-blocklisted containers) — the link-graph feed (pagerank, crawl
    frontier) with the extractor's boilerplate judgment applied, so menu
    and footer link farms never enter the graph.  Shares the module's
    tag primitives (``_tag_name``, ``_parse_class_attr``, the same
    blocklists as ``extract_blocks``); hrefs are entity-unescaped,
    otherwise verbatim (resolution against the base url is the caller's
    policy)."""
    n = len(html_bytes)
    pos = 0
    stack: list = []                    # (tag, dropped)
    drop_depth = 0
    lower = None
    links: list = []
    while True:
        lt = html_bytes.find(b"<", pos)
        if lt < 0:
            break
        gt = html_bytes.find(b">", lt + 1)
        if gt < 0:
            break
        body = html_bytes[lt + 1:gt]
        pos = gt + 1
        if body.startswith(b"!--"):
            end = html_bytes.find(b"-->", lt)
            pos = end + 3 if end >= 0 else n
            continue
        if body[:1] in (b"!", b"?"):
            continue
        if body.startswith(b"/"):
            tag, _ = _tag_name(body[1:])
            for i in range(len(stack) - 1, -1, -1):
                if stack[i][0] == tag:
                    while len(stack) > i:
                        _t, dropped = stack.pop()
                        if dropped:
                            drop_depth -= 1
                    break
            continue
        tag, _attrs = _tag_name(body)
        if tag in SKIP_CONTENT_TAGS:
            if lower is None:
                lower = html_bytes.lower()
            end = lower.find(b"</" + tag.encode("ascii"), pos)
            if end < 0:
                break
            close_gt = lower.find(b">", end)
            pos = close_gt + 1 if close_gt >= 0 else n
            continue
        if tag == "a" and drop_depth == 0:
            m = _HREF_RE.search(body)
            if m:
                href = next(g for g in m.groups() if g is not None)
                links.append(
                    _html.unescape(href.decode("utf-8", "replace")))
        if tag and tag not in VOID_TAGS and not body.endswith(b"/"):
            dropped = (tag in drop_subtree_tags
                       or bool(_parse_class_attr(body)
                               & blocklist_class_tokens))
            stack.append((tag, dropped))
            if dropped:
                drop_depth += 1
    return links


def extract_outlinks_text(
    html_bytes: bytes,
    drop_subtree_tags: frozenset = DROP_SUBTREE_TAGS,
    blocklist_class_tokens: frozenset = BLOCKLIST_CLASS_TOKENS,
) -> list:
    """MAIN-CONTENT ``(href, anchor_text)`` pairs in document order — the
    anchor-text feed (per-target anchor aggregation is the classic web
    ranking / training-caption signal the bare link graph cannot give).
    Same boilerplate judgment as ``extract_outlinks`` (nav/header/footer
    and class-blocklisted subtrees never contribute), same tag
    primitives; anchor text is entity-unescaped and whitespace-normalized
    (inner markup like ``<b>`` contributes its text).  A new ``<a>``
    implicitly closes an unclosed one (HTML5 parser behaviour)."""
    n = len(html_bytes)
    pos = 0
    stack: list = []                    # (tag, dropped)
    drop_depth = 0
    lower = None
    out: list = []
    cur_href = None
    cur_parts: list = []

    def flush():
        nonlocal cur_href, cur_parts
        if cur_href is not None:
            text = " ".join(
                _html.unescape(b"".join(cur_parts)
                               .decode("utf-8", "replace")).split())
            out.append((cur_href, text))
        cur_href = None
        cur_parts = []

    while True:
        lt = html_bytes.find(b"<", pos)
        if lt < 0:
            break
        if cur_href is not None and drop_depth == 0 and lt > pos:
            cur_parts.append(html_bytes[pos:lt])
        gt = html_bytes.find(b">", lt + 1)
        if gt < 0:
            break
        body = html_bytes[lt + 1:gt]
        pos = gt + 1
        if body.startswith(b"!--"):
            end = html_bytes.find(b"-->", lt)
            pos = end + 3 if end >= 0 else n
            continue
        if body[:1] in (b"!", b"?"):
            continue
        if body.startswith(b"/"):
            tag, _ = _tag_name(body[1:])
            if tag == "a":
                flush()
            for i in range(len(stack) - 1, -1, -1):
                if stack[i][0] == tag:
                    while len(stack) > i:
                        _t, dropped = stack.pop()
                        if dropped:
                            drop_depth -= 1
                    break
            continue
        tag, _attrs = _tag_name(body)
        if tag in SKIP_CONTENT_TAGS:
            if lower is None:
                lower = html_bytes.lower()
            end = lower.find(b"</" + tag.encode("ascii"), pos)
            if end < 0:
                break
            close_gt = lower.find(b">", end)
            pos = close_gt + 1 if close_gt >= 0 else n
            continue
        if tag == "a":
            flush()
            if drop_depth == 0:
                m = _HREF_RE.search(body)
                if m:
                    href = next(g for g in m.groups() if g is not None)
                    cur_href = _html.unescape(
                        href.decode("utf-8", "replace"))
        if tag and tag not in VOID_TAGS and not body.endswith(b"/"):
            dropped = (tag in drop_subtree_tags
                       or bool(_parse_class_attr(body)
                               & blocklist_class_tokens))
            stack.append((tag, dropped))
            if dropped:
                drop_depth += 1
    flush()
    return out


_ATTR_RE = _re.compile(
    rb"""([a-zA-Z][a-zA-Z0-9_:-]*)\s*=\s*(?:"([^"]*)"|'([^']*)'|([^\s>]+))""")


def _parse_attrs(body: bytes) -> dict:
    """All ``name="value"`` attributes of a tag body, names lowercased,
    values entity-unescaped."""
    attrs = {}
    for m in _ATTR_RE.finditer(body):
        name = m.group(1).decode("ascii", "replace").lower()
        val = next(g for g in m.groups()[1:] if g is not None)
        attrs[name] = _html.unescape(val.decode("utf-8", "replace"))
    return attrs


def extract_head_meta(html_bytes: bytes) -> dict:
    """Document ``<head>`` metadata: ``title`` (text content,
    whitespace-normalized), ``description`` / ``robots`` (``<meta
    name=...>``), ``og_title`` / ``og_description`` (``<meta
    property="og:...">``), and ``canonical`` (``<link rel="canonical"
    href>``) — the SEO/provenance block a web-corpus pipeline reads
    before dedup (canonical-URL clustering) and curation (noindex
    filtering).  Missing entries are None; the FIRST occurrence wins
    (browser behaviour); scanning stops at ``</head>`` or the first
    ``<body>``."""
    meta = {"title": None, "description": None, "robots": None,
            "og_title": None, "og_description": None, "canonical": None}
    n = len(html_bytes)
    pos = 0
    while True:
        lt = html_bytes.find(b"<", pos)
        if lt < 0:
            break
        gt = html_bytes.find(b">", lt + 1)
        if gt < 0:
            break
        body = html_bytes[lt + 1:gt]
        pos = gt + 1
        if body.startswith(b"!--"):
            end = html_bytes.find(b"-->", lt)
            pos = end + 3 if end >= 0 else n
            continue
        if body[:1] in (b"!", b"?"):
            continue
        closing = body.startswith(b"/")
        tag, _ = _tag_name(body[1:] if closing else body)
        if closing:
            if tag == "head":
                break
            continue
        if tag == "body":
            break
        if tag == "title":
            end = html_bytes.lower().find(b"</title", pos)
            if end >= 0 and meta["title"] is None:
                meta["title"] = " ".join(
                    _html.unescape(html_bytes[pos:end]
                                   .decode("utf-8", "replace")).split())
                close_gt = html_bytes.find(b">", end)
                pos = close_gt + 1 if close_gt >= 0 else n
            continue
        if tag == "meta":
            attrs = _parse_attrs(body)
            content = attrs.get("content")
            if content is None:
                continue
            name = (attrs.get("name") or "").lower()
            prop = (attrs.get("property") or "").lower()
            if name == "description" and meta["description"] is None:
                meta["description"] = content
            elif name == "robots" and meta["robots"] is None:
                meta["robots"] = content
            elif prop == "og:title" and meta["og_title"] is None:
                meta["og_title"] = content
            elif prop == "og:description" and meta["og_description"] is None:
                meta["og_description"] = content
            continue
        if tag == "link":
            attrs = _parse_attrs(body)
            rel = (attrs.get("rel") or "").lower()
            if rel == "canonical" and meta["canonical"] is None:
                meta["canonical"] = attrs.get("href")
    return meta


_LINK_TAG_RE = _re.compile(rb"<link\b([^>]*?)/?>", _re.I)


def extract_hreflang(html_bytes: bytes) -> list:
    """``<link rel="alternate" hreflang=... href=...>`` pairs in document
    order — the translation-cluster declaration a multilingual web corpus
    reads to group a page with its language variants (dedup across
    translations, per-language coverage accounting).  ``x-default`` rides
    through as its own lang code; rel values other than ``alternate``
    (canonical, stylesheet, next/prev) are filtered, not
    position-guessed.  Attribute parsing reuses the head scanner's
    entity-unescaping attr kernel."""
    out = []
    for m in _LINK_TAG_RE.finditer(html_bytes):
        attrs = _parse_attrs(m.group(1))
        if (attrs.get("rel") or "").lower() != "alternate":
            continue
        lang = (attrs.get("hreflang") or "").strip()
        href = (attrs.get("href") or "").strip()
        if lang and href:
            out.append((lang, href))
    return out


_JSONLD_SCRIPT_RE = _re.compile(
    rb'<script[^>]*type\s*=\s*["\']application/ld\+json["\'][^>]*>(.*?)'
    rb"</script\s*>",
    _re.S | _re.I)


def _iter_jsonld_nodes(obj):
    """Walk a JSON-LD value to its node objects: lists flatten, an
    ``@graph`` container yields its members (schema.org publishers wrap
    multiple entities in one block that way), plain dicts yield
    themselves."""
    if isinstance(obj, list):
        for item in obj:
            yield from _iter_jsonld_nodes(item)
    elif isinstance(obj, dict):
        if "@graph" in obj:
            yield from _iter_jsonld_nodes(obj["@graph"])
        else:
            yield obj


def extract_jsonld_article(html_bytes: bytes) -> dict:
    """schema.org structured-data extraction: scan every
    ``<script type="application/ld+json">`` block, JSON-parse it (script
    content is raw JSON — no entity decoding, unlike attribute values),
    walk ``@graph`` containers, and return the FIRST ``@type: Article``
    node's fields plus block accounting.  Malformed JSON blocks are
    counted but skipped (real pages ship broken JSON-LD constantly);
    non-Article nodes (BreadcrumbList, WebSite, Organization) are
    type-filtered, never position-guessed.  ``author`` accepts both the
    ``{"@type": "Person", "name": ...}`` object shape and a bare string.

    Returns {n_blocks, n_parsed, headline, date_published, author} with
    '' for absent fields."""
    import json as _json

    out = {"n_blocks": 0, "n_parsed": 0, "headline": "",
           "date_published": "", "author": ""}
    found = False
    for m in _JSONLD_SCRIPT_RE.finditer(html_bytes):
        out["n_blocks"] += 1
        try:
            obj = _json.loads(m.group(1).decode("utf-8", "replace"))
        except ValueError:
            continue
        out["n_parsed"] += 1
        if found:
            continue
        for node in _iter_jsonld_nodes(obj):
            if node.get("@type") != "Article":
                continue
            out["headline"] = str(node.get("headline") or "")
            out["date_published"] = str(node.get("datePublished") or "")
            author = node.get("author")
            if isinstance(author, dict):
                out["author"] = str(author.get("name") or "")
            elif author is not None:
                out["author"] = str(author)
            found = True
            break
    return out


def extract_tables(html_bytes: bytes) -> list:
    """All ``<table>`` cell texts in document order as flat rows
    ``(table_idx, row_idx, col_idx, text)`` — the structured-data
    extraction surface (infoboxes, spec sheets, schedules) the
    main-text pass deliberately flattens.

    Contracts: ``table_idx`` numbers ``<table>`` opens per document;
    a NESTED table gets its own index and its text stays OUT of the
    enclosing cell (only text at the cell's own level accumulates);
    ``row_idx``/``col_idx`` count ``<tr>`` and ``<td>``/``<th>`` opens
    within their table (a cell before any ``<tr>`` lands in row 0).
    Cell text is entity-unescaped and whitespace-normalized exactly
    like ``extract_blocks`` (`" ".join(raw.split())`); empty cells
    emit with text "".  Raw-text elements (script/style/...) are
    skipped wholesale like everywhere else in this module."""
    n = len(html_bytes)
    pos = 0
    lower = None
    out: list = []
    tstack: list = []     # [table_idx, row_idx, col_idx, parts|None]
    next_idx = 0

    def emit_cell(t):
        if t[3] is not None:
            raw = "".join(t[3])
            out.append((t[0], max(t[1], 0), t[2], " ".join(raw.split())))
            t[3] = None

    while True:
        lt = html_bytes.find(b"<", pos)
        if lt < 0:
            break
        if tstack and tstack[-1][3] is not None and lt > pos:
            tstack[-1][3].append(
                _html.unescape(html_bytes[pos:lt].decode("utf-8", "replace")))
        gt = html_bytes.find(b">", lt + 1)
        if gt < 0:
            break
        body = html_bytes[lt + 1:gt]
        pos = gt + 1
        if body.startswith(b"!--"):
            end = html_bytes.find(b"-->", lt)
            pos = end + 3 if end >= 0 else n
            continue
        if body[:1] in (b"!", b"?"):
            continue
        if body.startswith(b"/"):
            tag, _ = _tag_name(body[1:])
            if not tstack:
                continue
            t = tstack[-1]
            if tag in ("td", "th", "tr"):
                emit_cell(t)
            elif tag == "table":
                emit_cell(t)
                tstack.pop()
            continue
        tag, _attrs = _tag_name(body)
        if tag in SKIP_CONTENT_TAGS:
            if lower is None:
                lower = html_bytes.lower()
            end = lower.find(b"</" + tag.encode("ascii"), pos)
            pos = end if end >= 0 else n
            continue
        if tag == "table":
            tstack.append([next_idx, -1, -1, None])
            next_idx += 1
        elif tstack:
            t = tstack[-1]
            if tag == "tr":
                emit_cell(t)
                t[1] += 1
                t[2] = -1
            elif tag in ("td", "th"):
                emit_cell(t)
                t[2] += 1
                t[3] = []
    while tstack:
        emit_cell(tstack.pop())
    return out


_META_DATE_PROPS = ("article:published_time", "og:article:published_time")
_META_DATE_NAMES = ("date", "datepublished", "article.published")
_ISO_DATE_RE = _re.compile(r"^(\d{4})-(\d{2})-(\d{2})")
_URL_DATE_RE = _re.compile(r"/((?:19|20)\d{2})/(\d{1,2})/(\d{1,2})(?:/|$)")


def _valid_date(y: int, m: int, d: int):
    if 1 <= m <= 12 and 1 <= d <= 31:
        return f"{y:04d}-{m:02d}-{d:02d}"
    return None


def extract_publish_date(html_bytes: bytes, url: str = "") -> tuple:
    """Publish-date extraction, the trafilatura/htmldate priority ladder:
    (1) ``<meta property="article:published_time">`` (or the common
    name= variants), (2) the first ``<time datetime=...>`` element,
    (3) a ``/YYYY/MM/DD/`` URL path segment.  Returns
    ``(iso_date | None, method)`` with method in
    ``meta | time | url | none``; month/day ranges are validated so junk
    attributes fall through the ladder instead of poisoning the column."""
    time_date = None
    n = len(html_bytes)
    pos = 0
    while True:
        lt = html_bytes.find(b"<", pos)
        if lt < 0:
            break
        gt = html_bytes.find(b">", lt + 1)
        if gt < 0:
            break
        body = html_bytes[lt + 1:gt]
        pos = gt + 1
        if body.startswith(b"!--"):
            end = html_bytes.find(b"-->", lt)
            pos = end + 3 if end >= 0 else n
            continue
        if body[:1] in (b"!", b"?", b"/"):
            continue
        tag, _ = _tag_name(body)
        if tag == "meta":
            attrs = _parse_attrs(body)
            content = attrs.get("content")
            if not content:
                continue
            prop = (attrs.get("property") or "").lower()
            name = (attrs.get("name") or "").lower()
            if prop in _META_DATE_PROPS or name in _META_DATE_NAMES:
                m = _ISO_DATE_RE.match(content.strip())
                if m:
                    d = _valid_date(*(int(g) for g in m.groups()))
                    if d:
                        return d, "meta"
        elif tag == "time" and time_date is None:
            attrs = _parse_attrs(body)
            dt = attrs.get("datetime")
            if dt:
                m = _ISO_DATE_RE.match(dt.strip())
                if m:
                    time_date = _valid_date(*(int(g) for g in m.groups()))
    if time_date:
        return time_date, "time"
    m = _URL_DATE_RE.search(url or "")
    if m:
        d = _valid_date(*(int(g) for g in m.groups()))
        if d:
            return d, "url"
    return None, "none"
