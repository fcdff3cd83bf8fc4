"""Unit tests for the HTML extraction kernel (tokenizer, scoring, spans)."""

import html as _html

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from document_text_extraction_ray.functions.html_extract import (
    _INVISIBLE_ONLY,
    _NO_CLASSES,
    BLOCK_TAGS,
    BLOCKLIST_CLASS_TOKENS,
    DEFAULT_CONFIG,
    DROP_SUBTREE_TAGS,
    SKIP_CONTENT_TAGS,
    VOID_TAGS,
    ExtractConfig,
    _parse_class_attr,
    _tag_name,
    extract_blocks,
    extract_main_text,
    visible_text,
)


def test_basic_paragraph_kept():
    html = b"<html><body><p>This is the main content paragraph.</p></body></html>"
    text, spans = extract_main_text(html)
    assert text == "This is the main content paragraph."
    s, e, kind = spans[0]
    assert kind == "p"
    assert html[s:e] == b"This is the main content paragraph."


def test_nav_and_footer_dropped():
    html = (
        b"<body><nav><a href='/'>Home sweet home</a></nav>"
        b"<p>Real content stays here fine.</p>"
        b"<footer>Copyright two thousand twenty five</footer></body>"
    )
    text, _ = extract_main_text(html)
    assert text == "Real content stays here fine."


def test_class_blocklist_drops_subtree():
    html = (
        b'<body><div class="sidebar"><p>Sidebar junk text long enough.</p></div>'
        b"<p>Main body paragraph content.</p></body>"
    )
    text, _ = extract_main_text(html)
    assert text == "Main body paragraph content."


def test_link_density_drops_linkbar():
    html = (
        b'<body><div><a href="/a">Link number one</a> <a href="/b">Link number two</a></div>'
        b"<p>Actual article body text goes on and on.</p></body>"
    )
    text, _ = extract_main_text(html)
    assert text == "Actual article body text goes on and on."


def test_low_link_density_kept():
    html = (
        b"<body><p>A long paragraph of text that happens to contain "
        b'<a href="/x">one link</a> but is mostly prose and so it stays.</p></body>'
    )
    text, _ = extract_main_text(html)
    assert "one link" in text
    assert text.startswith("A long paragraph")


def test_min_chars_drops_crumbs():
    html = b"<body><p>(c) MMXX</p><p>This paragraph is long enough to keep.</p></body>"
    text, _ = extract_main_text(html)
    assert text == "This paragraph is long enough to keep."


def test_script_style_comment_head_invisible():
    html = (
        b"<html><head><title>Page title text here</title>"
        b"<style>p { color: red; }</style></head>"
        b"<body><script>var x = '<p>fake</p>';</script>"
        b"<!-- <p>commented out</p> -->"
        b"<p>Only this visible paragraph counts.</p></body></html>"
    )
    text, _ = extract_main_text(html)
    assert text == "Only this visible paragraph counts."
    assert visible_text(html) == "Only this visible paragraph counts."


def test_entities_unescaped():
    html = b"<body><p>Tom &amp; Jerry &lt;3 &quot;cartoons&quot; forever.</p></body>"
    text, _ = extract_main_text(html)
    assert text == 'Tom & Jerry <3 "cartoons" forever.'


def test_whitespace_normalized():
    html = b"<body><p>\n   spaced \t\t out\n\n words   here okay\n</p></body>"
    text, _ = extract_main_text(html)
    assert text == "spaced out words here okay"


def test_inline_tags_transparent():
    html = b"<body><p>Some <b>bold</b> and <i>italic</i> inline words here.</p></body>"
    text, _ = extract_main_text(html)
    assert text == "Some bold and italic inline words here."


def test_br_becomes_whitespace():
    html = b"<body><p>line one here<br>line two there</p></body>"
    text, _ = extract_main_text(html)
    assert text == "line one here line two there"


def test_span_inner_content_clean_element():
    html = b"<body>\n<p>\n  padded inner content here\n</p>\n</body>"
    _, spans = extract_main_text(html)
    s, e, _ = spans[0]
    # Span is exactly the inner content of the <p> element.
    assert html[s - 3: s] == b"<p>"
    assert html[e: e + 4] == b"</p>"


def test_span_fallback_mixed_container():
    # Text directly in a div that also holds a <p>: fallback to text-run span.
    html = b"<body><div><p>first paragraph of content</p>trailing text run also long</div></body>"
    text, spans = extract_main_text(html)
    assert text == "first paragraph of content\n\ntrailing text run also long"
    s, e, _ = spans[1]
    assert html[s:e] == b"trailing text run also long"


def test_reading_order_two_columns():
    html = (
        b"<body><table><tr>"
        b"<td><p>left column first para</p><p>left column second para</p></td>"
        b"<td><p>right column only para</p></td>"
        b"</tr></table></body>"
    )
    text, _ = extract_main_text(html)
    assert text.split("\n\n") == [
        "left column first para",
        "left column second para",
        "right column only para",
    ]


def test_unbalanced_html_tolerated():
    html = b"<body><div><p>unclosed paragraph keeps its text anyway</div></body>"
    text, _ = extract_main_text(html)
    assert text == "unclosed paragraph keeps its text anyway"


def test_config_thresholds_respected():
    html = b"<body><p>tiny</p><p>a block of twenty-five chars plus</p></body>"
    strict = ExtractConfig(min_chars=100)
    text, _ = extract_main_text(html, strict)
    assert text == ""


def test_blocks_metadata():
    html = b"<body><p>paragraph with enough characters</p></body>"
    blocks, _ = extract_blocks(html)
    assert blocks[0]["n_chars"] == len("paragraph with enough characters")
    assert blocks[0]["link_density"] == 0.0


def test_utf8_multibyte_spans():
    para = "Füße über Straße — größer ähnlich".encode()
    html = b"<body><p>" + _html.escape("Füße über Straße — größer ähnlich").encode() + b"</p></body>"
    text, spans = extract_main_text(html)
    assert text == "Füße über Straße — größer ähnlich"
    s, e, _ = spans[0]
    assert _html.unescape(html[s:e].decode()) == "Füße über Straße — größer ähnlich"
    assert para  # byte-offset slicing stayed on char boundaries


def test_title_extraction():
    from document_text_extraction_ray.functions.html_extract import extract_page

    html = (b"<html><head><title>My  Page &amp; Title</title></head>"
            b"<body><p>body paragraph content here</p></body></html>")
    page = extract_page(html)
    assert page["title"] == "My Page & Title"
    assert page["text"] == "body paragraph content here"
    # no title -> empty string; only the FIRST title counts
    assert extract_page(b"<p>no title anywhere here</p>")["title"] == ""
    two = b"<title>first one</title><title>second</title><p>content text here</p>"
    assert extract_page(two)["title"] == "first one"


def test_extract_outlinks_boilerplate_and_rawtext_exclusion():
    """Outlinks: nav/footer/class-blocked containers and script content
    excluded; entities unescaped; single/double/bare-quoted hrefs all
    parsed; document order preserved."""
    from document_text_extraction_ray.functions.html_extract import (
        extract_outlinks,
    )

    h = (b"<html><head><title>t</title></head><body>"
         b'<nav><a href="/menu">m</a></nav>'
         b'<div class="sidebar"><a href="/side">s</a></div>'
         b"<main><p>a <a href=\"https://x.com/?a=1&amp;b=2\">L</a>"
         b" b <a href='/single'>S</a> c <a href=/bare>B</a></p>"
         b"<script>document.write('<a href=\"/js\">x</a>')</script>"
         b"<!-- <a href=\"/comment\">c</a> -->"
         b"</main><footer><a href=\"/foot\">f</a></footer></body></html>")
    assert extract_outlinks(h) == [
        "https://x.com/?a=1&b=2", "/single", "/bare"]

    # anchors with no href are skipped; void/self-closing tags don't
    # corrupt the stack
    h2 = (b"<body><p><a name=\"anchor\">no-href</a><br>"
          b"<img src=\"i.png\"/><a href=\"/ok\">k</a></p></body>")
    assert extract_outlinks(h2) == ["/ok"]


def test_extract_tables_cells_nesting_and_script():
    from document_text_extraction_ray.functions.html_extract import (
        extract_tables,
    )

    html = (b"<html><body><p>noise</p>"
            b"<table><tr><th>a&amp;b</th><th> c  d </th></tr>"
            b"<tr><td>1</td><td></td></tr></table>"
            b"<table><tr><td>outer <table><tr><td>inner</td></tr></table>"
            b"</td><td>2</td></tr></table>"
            b"<script>var x = '<table><tr><td>fake</td></tr></table>';"
            b"</script></body></html>")
    rows = sorted(extract_tables(html))
    assert rows == [
        (0, 0, 0, "a&b"), (0, 0, 1, "c d"),
        (0, 1, 0, "1"), (0, 1, 1, ""),
        (1, 0, 0, "outer"), (1, 0, 1, "2"),
        (2, 0, 0, "inner"),
    ]


def test_extract_tables_unclosed_and_rowless():
    from document_text_extraction_ray.functions.html_extract import (
        extract_tables,
    )

    # cell before any <tr> lands in row 0; unclosed table still emits
    assert extract_tables(b"<table><td>x</td>") == [(0, 0, 0, "x")]
    assert extract_tables(b"no tables here") == []


def test_extract_outlinks_text_anchors_and_boilerplate():
    """(href, anchor) pairs: boilerplate judgment matches extract_outlinks;
    inner markup contributes text; whitespace normalized; entities
    unescaped; an unclosed <a> is implicitly closed by the next one."""
    from document_text_extraction_ray.functions.html_extract import (
        extract_outlinks,
        extract_outlinks_text,
    )

    h = (b"<html><head><title>t</title></head><body>"
         b'<nav><a href="/menu">menu text</a></nav>'
         b"<main><p>x <a href=\"https://a.com/1\">First <b>bold</b>"
         b" anchor</a> y <a href='/two'>two\n  lines &amp; more</a>"
         b'<a href="/three">un-closed <a href="/four">four</a></p>'
         b"<script>var s='<a href=\"/js\">j</a>';</script></main>"
         b'<footer><a href="/foot">foot</a></footer></body></html>')
    pairs = extract_outlinks_text(h)
    assert pairs == [
        ("https://a.com/1", "First bold anchor"),
        ("/two", "two lines & more"),
        ("/three", "un-closed"),
        ("/four", "four"),
    ]
    # href list identical to the bare extractor's judgment
    assert [p[0] for p in pairs] == extract_outlinks(h)
    # anchor spanning a dropped subtree boundary never leaks nav text
    assert extract_outlinks_text(
        b'<body><div class="sidebar"><a href="/s">s</a></div>'
        b'<p><a href="/k">keep</a></p></body>') == [("/k", "keep")]


def test_extract_head_meta_fields_and_first_wins():
    from document_text_extraction_ray.functions.html_extract import (
        extract_head_meta,
    )

    h = (b"<html><head><title> A &amp; B </title>"
         b'<meta name="description" content="first desc">'
         b'<meta name="description" content="second desc">'
         b'<meta property="og:title" content="OGT">'
         b'<meta property="og:description" content="OGD">'
         b'<meta name="robots" content="noindex, nofollow">'
         b'<link rel="canonical" href="https://e.com/c?x=1&amp;y=2">'
         b"</head><body>"
         b'<meta name="description" content="body meta ignored? no - '
         b'scanning stops at body">'
         b"</body></html>")
    m = extract_head_meta(h)
    assert m == {
        "title": "A & B",
        "description": "first desc",
        "robots": "noindex, nofollow",
        "og_title": "OGT",
        "og_description": "OGD",
        "canonical": "https://e.com/c?x=1&y=2",
    }
    # everything optional; scanning stops at </head>
    m2 = extract_head_meta(
        b"<head><title>t</title></head>"
        b'<meta name="description" content="after head">')
    assert m2["title"] == "t" and m2["description"] is None


def test_publish_date_ladder_and_validation():
    from document_text_extraction_ray.functions.html_extract import (
        extract_publish_date)

    # meta beats time beats url
    html = (b'<html><head>'
            b'<meta property="article:published_time" content="2023-04-07">'
            b'</head><body><time datetime="2022-01-01">x</time></body>')
    assert extract_publish_date(html, "https://x/2020/01/02/s") \
        == ("2023-04-07", "meta")
    assert extract_publish_date(
        b'<html><body><time datetime="2022-01-01">x</time></body>',
        "https://x/2020/01/02/s") == ("2022-01-01", "time")
    assert extract_publish_date(b"<html></html>",
                                "https://x/2020/1/2/s") \
        == ("2020-01-02", "url")
    # invalid month falls through the ladder; commented-out meta ignored
    assert extract_publish_date(
        b'<html><meta name="date" content="2023-13-01">'
        b'<!-- <time datetime="2021-01-01"> --></html>',
        "nope") == (None, "none")


# ---------------------------------------------------------------------------
# Differential test: the token-regex ``extract_blocks`` against the
# per-token scanner it replaced, kept here verbatim as the oracle.


class _Block:
    """One candidate text block accumulated between block-tag boundaries.

    Plain __slots__ class (not a dataclass): one is constructed per flush
    — ~34/page — and the dataclass-generated __init__ showed up in the
    kernel profile."""

    __slots__ = ("parts", "n_chars", "link_chars", "gov_depth", "gov_tag",
                 "gov_open_end", "first_text_start", "last_text_end")

    def __init__(self):
        self.parts = []        # unescaped text pieces, raw whitespace
        self.n_chars = 0       # sum of stripped piece lengths
        self.link_chars = 0    # chars contributed inside <a>
        self.gov_depth = -1    # stack depth of governing block element
        self.gov_tag = ""
        self.gov_open_end = -1  # byte offset just after governing open tag
        self.first_text_start = -1
        self.last_text_end = -1


def oracle_extract_blocks(
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
    n = len(html_bytes)
    pos = 0
    lower_cache = None  # lazily lowercased copy, only if raw-text elements appear
    # Stack entries are mutable lists: [tag, dropped, open_end, clean].
    # clean == True while the element's inner content so far is a single
    # uninterrupted text run (no nested block elements, no mid-element flush).
    stack: list = []
    drop_depth = 0        # >0 => inside a dropped subtree
    link_depth = 0        # >0 => inside <a>
    in_title = False      # inside the first <title> element (captured even
    title_parts: list = []  # though <head> is a dropped subtree)
    title_done = False
    kept: list = []
    cur = _Block()

    def flush(close_tag_start: int = -1, closing_depth: int = -1, gov_clean: bool = False):
        nonlocal cur
        if cur.parts:
            raw = "".join(cur.parts)
            text = " ".join(raw.split())
            if text:
                density = cur.link_chars / cur.n_chars if cur.n_chars else 0.0
                if len(text) >= config.min_chars and density <= config.max_link_density:
                    if (
                        close_tag_start >= 0
                        and closing_depth == cur.gov_depth
                        and cur.gov_open_end >= 0
                        and gov_clean
                    ):
                        start, end = cur.gov_open_end, close_tag_start
                    else:
                        start, end = cur.first_text_start, cur.last_text_end
                    kept.append(
                        {
                            "text": text,
                            "start": start,
                            "end": end,
                            "kind": cur.gov_tag or "text",
                            "n_chars": len(text),
                            "link_density": density,
                        }
                    )
            cur = _Block()
        elif cur.gov_depth != -1:
            cur = _Block()

    def mark_all_unclean():
        for entry in stack:
            entry[3] = False

    while pos < n:
        lt = html_bytes.find(b"<", pos)
        if lt < 0:
            lt = n
        if lt > pos:
            # Text token between tags.
            if in_title and not title_done:
                title_parts.append(
                    _html.unescape(html_bytes[pos:lt].decode("utf-8", "replace"))
                )
            if drop_depth == 0:
                piece = _html.unescape(html_bytes[pos:lt].decode("utf-8", "replace"))
                if cur.gov_depth == -1:
                    # Governing element = innermost open block element.
                    for d in range(len(stack) - 1, -1, -1):
                        if stack[d][0] in BLOCK_TAGS:
                            cur.gov_depth = d
                            cur.gov_tag = stack[d][0]
                            cur.gov_open_end = stack[d][2]
                            break
                stripped_len = len(piece.strip())
                if stripped_len:
                    if cur.first_text_start < 0:
                        cur.first_text_start = pos
                    cur.last_text_end = lt
                cur.parts.append(piece)
                cur.n_chars += stripped_len
                if link_depth > 0:
                    cur.link_chars += stripped_len
            pos = lt
            continue
        if lt >= n:
            break
        # Tag token starting at lt.
        second = html_bytes[lt + 1] if lt + 1 < n else 0
        if second == 33 or second == 63:  # b'!' / b'?'
            if html_bytes.startswith(b"<!--", lt):
                end = html_bytes.find(b"-->", lt + 4)
                pos = (end + 3) if end >= 0 else n
                continue
            gt_ = html_bytes.find(b">", lt)
            pos = (gt_ + 1) if gt_ >= 0 else n
            continue
        gt_ = html_bytes.find(b">", lt)
        if gt_ < 0:
            break
        tag_end = gt_ + 1
        body = html_bytes[lt + 1: gt_]
        closing = second == 47  # b'/'
        if closing:
            body = body[1:]
        self_closing = body.endswith(b"/")
        if self_closing:
            body = body[:-1]
        tag, attrs = _tag_name(body)

        if closing:
            if tag == "title":
                if in_title:
                    in_title = False
                    title_done = True
            elif tag == "a":
                if link_depth > 0:
                    link_depth -= 1
            elif tag in BLOCK_TAGS:
                match = -1
                for d in range(len(stack) - 1, -1, -1):
                    if stack[d][0] == tag:
                        match = d
                        break
                if match >= 0:
                    if drop_depth == 0:
                        flush(close_tag_start=lt, closing_depth=match,
                              gov_clean=stack[match][3])
                    while len(stack) > match:
                        popped = stack.pop()
                        if popped[1]:
                            drop_depth -= 1
            pos = tag_end
            continue

        # Opening tag.
        if tag in SKIP_CONTENT_TAGS and not self_closing:
            close_pat = b"</" + tag.encode() + b">"
            if lower_cache is None:
                lower_cache = html_bytes.lower()
            end = lower_cache.find(close_pat, tag_end)
            pos = (end + len(close_pat)) if end >= 0 else n
            continue
        if tag == "a":
            link_depth += 1
            pos = tag_end
            continue
        if tag == "title" and not title_done:
            in_title = True
            pos = tag_end
            continue
        if tag in VOID_TAGS:
            if drop_depth == 0:
                if tag == "br":
                    cur.parts.append("\n")
                elif tag == "hr":
                    if cur.parts:
                        mark_all_unclean()
                    flush()
            pos = tag_end
            continue
        if tag in BLOCK_TAGS:
            if drop_depth == 0:
                flush()
            mark_all_unclean()
            classes = _parse_class_attr(attrs)
            dropped = (
                tag in drop_subtree_tags
                or not classes.isdisjoint(blocklist_class_tokens)
            )
            stack.append([tag, dropped, tag_end, True])
            if dropped:
                drop_depth += 1
            if self_closing:
                popped = stack.pop()
                if popped[1]:
                    drop_depth -= 1
            pos = tag_end
            continue
        # Inline / unknown tag: transparent.
        pos = tag_end

    flush()
    title = " ".join("".join(title_parts).split())
    return kept, title


_PERMISSIVE = ExtractConfig(min_chars=1, max_link_density=1.0)


def _assert_same_as_oracle(html: bytes):
    assert extract_blocks(html) == oracle_extract_blocks(html)
    # visible_text's permissive configuration.
    assert extract_blocks(
        html, _PERMISSIVE, _INVISIBLE_ONLY, _NO_CLASSES
    ) == oracle_extract_blocks(html, _PERMISSIVE, _INVISIBLE_ONLY, _NO_CLASSES)


_TOKENS = [
    b"<", b">", b"/", b"!", b"?", b"-", b"<!--", b"-->", b"<!-->", b"<!-", b"<?x",
    b"<!DOCTYPE html>", b"<<", b"< p>", b"</ p>", b"<//p>", b"</p/>", b"</>", b"<>",
    b"<p>", b"</p>", b"<P>", b"</P >", b"<p/>", b"<div>", b"</div>", b"<DIV>",
    b"<div class='nav'>", b"<div class=ad>", b'<div class="x sidebar">',
    b"<div class=sidebar/>", b"<div class=sidebar />", b"<section class=", b"class=",
    b"<nav>", b"</nav>", b"<head>", b"</head>", b"<footer>", b"</footer>",
    b"<ul>", b"</ul>", b"<li>", b"</li>", b"<table>", b"<td>", b"</td>", b"</table>",
    b"<script>", b"</script>", b"<SCRIPT>", b"</Script>", b"<script/>", b"<script />",
    b"<scriptx>", b"<script type=x>", b"<style>", b"</style >", b"</style>",
    b"<noscript>", b"</noscript>", b"<textarea>", b"</TEXTAREA>", b"<svg", b"<svg>",
    b"</svg>", b"<iframe/>", b"<template>", b"</template>",
    b"<a href=x>", b"<a/>", b"</a>", b"<b>", b"</b>", b"<span>", b"<img src=x>",
    b"<br>", b"<br/>", b"</br>", b"<hr>", b"<hr/>", b"<title>", b"</title>", b"<TITLE>",
    b" ", b"\n", b"\t", b"\x0b", b"\x1c", b"\xa0", b"&nbsp;", b"&amp;", b"&#32;",
    b"\xc3\xa9", b"\xff", b"x", b"word", b"some longer words here", b'"', b"'", b"=",
]

_html_docs = st.lists(
    st.sampled_from(_TOKENS) | st.binary(max_size=3), max_size=40
).map(b"".join)


@settings(max_examples=400, deadline=None)
@given(_html_docs)
def test_extract_blocks_matches_oracle_on_adversarial_tokens(html):
    _assert_same_as_oracle(html)


_FIXED_CASES = {
    "lone_lt": b"<body><p>before the stop here</p><p>cut short right here < off text",
    "lone_lt_at_end": b"<p>text that ends in a bracket <",
    "unterminated_comment": b"<p>kept paragraph text</p><!-- <p>hidden for ever</p>",
    "comment_open_close": b"<p>first paragraph here</p><!--><p>in the comment</p>-->"
                          b"<p>after the comment text</p>",
    "script_mixed_case": b"<p>visible text before</p><SCRIPT>var a = '<p>no</p>';"
                         b"</Script><p>visible text after</p>",
    "script_self_closing": b"<div><script/>transparent script tag text</div>",
    "script_prefix_name": b"<div><scriptx>this is not raw text</scriptx></div>",
    "nbsp_only": b"<p>&nbsp;</p><p>&nbsp; &nbsp;</p><p>real text in a block</p>",
    "file_separator": b"<p>\x1c</p><div>\x1c words after a separator</div>",
    "self_closing_blocklisted": b"<div>text before the tag<div class=sidebar/>"
                                b"text after the tag</div>",
    "misnested_in_nav": b"<body><nav><ul><li>menu entry</div></p></ul>nav text"
                        b"</nav><p>main text after nav</p></body>",
    "hr_br_in_dropped": b"<div><p>kept text one here<nav>drop<hr>ped<br>x</nav>"
                        b"still the same block</p></div>",
    "stray_anchor_close": b"<p></a>text after a stray anchor close</p>",
    "dropped_inside_dropped": b"<nav><div class=ad>inner ad text</div>text still inside"
                              b" the nav</nav><footer><nav>x</nav>footer text"
                              b"</footer><p>main paragraph text</p>",
    "second_title": b"<html><head><title>first title</title></head><body>"
                    b"<title>second title in the body text</title>"
                    b"<p>paragraph content here</p></body></html>",
}


@pytest.mark.parametrize("name", sorted(_FIXED_CASES))
def test_extract_blocks_matches_oracle_fixed_cases(name):
    _assert_same_as_oracle(_FIXED_CASES[name])


def test_extract_blocks_fixed_case_outputs():
    def texts(html):
        return [b["text"] for b in extract_blocks(html)[0]]

    assert texts(_FIXED_CASES["lone_lt"]) == ["before the stop here",
                                             "cut short right here"]
    assert texts(_FIXED_CASES["script_mixed_case"]) == [
        "visible text before", "visible text after"]
    assert texts(_FIXED_CASES["script_self_closing"]) == [
        "transparent script tag text"]
    assert texts(_FIXED_CASES["script_prefix_name"]) == [
        "this is not raw text"]
    assert texts(_FIXED_CASES["self_closing_blocklisted"]) == [
        "text before the tag", "text after the tag"]
    assert texts(_FIXED_CASES["comment_open_close"]) == [
        "first paragraph here", "after the comment text"]
    assert texts(_FIXED_CASES["dropped_inside_dropped"]) == [
        "main paragraph text"]
    blocks, title = extract_blocks(_FIXED_CASES["second_title"])
    assert title == "first title"
    assert [b["text"] for b in blocks] == [
        "second title in the body text", "paragraph content here"]


def test_extract_blocks_matches_oracle_on_synth_pages():
    from document_text_extraction_ray.sources.synth import synth_page

    for i in range(200):
        _assert_same_as_oracle(synth_page(i, seed=7)["html"])
