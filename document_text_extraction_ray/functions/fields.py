r"""Field extractors M1-M13 (SURVEY.md §2.2): pure ``text -> value`` functions
with the reference's exact regex/keyword semantics.

Parity notes (reference file:line):
  - emails            /root/reference/approach4_v1.py:48-49
  - phones            /root/reference/approach4_v1.py:51-65
  - linkedin/github   /root/reference/approach4_v1.py:69-73
  - name (positional) /root/reference/approach4_v2.py:27-37
  - name (shape)      /root/reference/parse_cv_docling.py:57-66
  - address           /root/reference/approach4_v2.py:70-85
  - skills (keyword)  /root/reference/approach4_v1.py:85-109
  - skills (split)    /root/reference/parse_cv_docling.py:74-81
  - education         /root/reference/approach4_v1.py:111-127, approach4_v2.py:122-162
  - experience        /root/reference/approach4_v1.py:129-147
  - date-like         /root/reference/parse_cv_docling.py:68-72
  - sections          /root/reference/new_approaches/final.py:120-186
  - GPA               /root/reference/approach4_v2.py:150-155 style

One deliberate deviation: the reference uses ``list(set(...))`` whose order is
process-dependent; we use ``sorted(set(...))`` everywhere (the deterministic
ordering the reference itself uses for skills, parse_cv_docling.py:81), so
output is byte-stable under Ray's parallel, retry-prone execution.
All regexes are compiled once at import (module constants) so map_batches
tasks pay no per-batch compile cost.

Prefilters.  Every expensive pattern sits behind a cheap test that the
pattern itself implies: a guard may skip a scan, or start it later, only
where no match can exist, so output is identical to running each pattern
over the whole text.  Starting a scan later uses ``findall(text, pos)``,
which still lets ``\b`` and look-behinds see the characters before
``pos``; ``endpos`` truncates the string as the pattern sees it, so it is
used only where the character at ``endpos - 1`` cannot lie inside any
match: every match, and the ``\b`` after it, then ends before ``endpos``.
Per extractor:

  - emails: every match holds exactly one '@', its local part is a run of
    ``[A-Za-z0-9._%+-]`` ending at that '@', and its host and TLD are a run
    of ``[A-Za-z0-9.|-]`` after it.  So no match starts before the local
    run of the first '@' or ends after the host run of the last one; the
    scan covers that window plus the one character the final ``\b`` reads.
  - phones: patterns 1-3 need three consecutive digits, pattern 3 ten, and
    pattern 1 sits one '(' before them, so each scan starts at the first
    such run.  Pattern 0 needs a '+'.  The runs are found with one
    ``bytes.find`` over the ASCII bytes with digits mapped to b"0"; that
    fast path holds only for ASCII text because ``\d`` also matches
    non-ASCII digits (e.g. '٣'), which fall back to a ``\d{3}`` search.
  - skills: a keyword can only occur if each of its characters occurs and
    every shorter keyword inside it ('java' in 'javascript', 'sql' in
    'mysql', 'go' in 'django') occurs; the per-character presence set is
    computed once and shared by all 50 keywords.  A surviving keyword is
    still tested as a plain substring, so overlapping hits keep counting.
  - degrees: ``DEGREE_RES[0]`` groups its alternatives by first letter,
    keeping their order within each letter, and tests the leading ``\b`` as
    ``(?<!\w.)`` after that letter, which lets ``re`` skip to candidate
    letters; ``DEGREE_RES[1]`` runs only where 'graduate' occurs (every
    alternative contains it).  GPA starts at the first 'gpa': a match at the
    'c' of 'cgpa' captures the same number as the one at its 'g'.
  - linkedin/github: the literal host prefix must occur.

Batch path.  ``batch_fields(texts)`` returns ``extract_all_fields`` of every
text as one ``S.FIELDS_TYPE`` array; the extraction stage calls it once per
Arrow batch.  Only ASCII rows take the fast path, since on other text the
engines part ways (Python's ``str.lower`` maps KELVIN SIGN to 'k', 'İ' to
two code points; ``\d``/``\w``/``\s`` are Unicode classes in both, with
different tables); every other row calls ``extract_all_fields``, which
stays the definition (the golden generator and per-document callers use
it too).  ASCII rows go through one polars ``select``: ``str.extract_all``
on the Rust ``regex`` crate for emails, the four phone patterns,
linkedin, github, both degree patterns and GPA, and one overlapping
Aho-Corasick ``str.extract_many`` over the 50 skill keywords (every
occurrence of every keyword, so nested keywords count as ``kw in low``
does).  One Arrow sort by (field, row, value) then de-duplicates and
orders every list at once; phones are stripped and length-filtered, GPA
keeps its number, skills are title-cased, all in Arrow.  Dialect notes:
  - ``\s``: Python's reads [\t-\r\x1c-\x20] on ASCII text, Rust's lacks
    \x1c-\x1f, so the batch patterns spell the class out and phones strip
    the same set ('555\x1c123\x1c4567' is a phone, 'b.\x1fsc' a degree);
  - ``\b``, ``\d``, ``\w``: ``(?-u)`` makes Rust's ASCII, which is what
    Python's are on ASCII text;
  - ``DEGREE_RES[0]``'s look-behind (Rust has none) is written back as its
    plain leading ``\b`` form, the one the per-document form is
    equivalence-tested against.
A match is the whole pattern: for the degree patterns that equals
``findall``'s group (their ``\b`` are empty); GPA's number is the match
without its 'gpa:'/'cgpa ' prefix.  polars is imported on the first batch
that needs fields, never at module import, with its thread pool first set
to the Ray task's CPU allotment (one thread in a 1-CPU map task).  The
per-document prefilters above stay for the per-document callers.
"""

from __future__ import annotations

import functools
import math
import os
import re
import sys

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .. import schema as S

EMAIL_RE = re.compile(r"\b[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Z|a-z]{2,}\b")

PHONE_RES = [
    re.compile(r"\+\d{1,3}[-.\s]?\d{1,4}[-.\s]?\d{1,4}[-.\s]?\d{1,9}"),  # international
    re.compile(r"\(\d{3}\)[-.\s]?\d{3}[-.\s]?\d{4}"),                    # (123) 456-7890
    re.compile(r"\d{3}[-.\s]?\d{3}[-.\s]?\d{4}"),                        # 123-456-7890
    re.compile(r"\d{10,}"),                                               # bare digits
]

LINKEDIN_RE = re.compile(r"linkedin\.com/in/[\w-]+")
GITHUB_RE = re.compile(r"github\.com/[\w-]+")

NAME_LINE_RE = re.compile(r"^[A-Za-z\s]+$")
NAME_WORD_RE = re.compile(r"^[A-Za-z'.\-]+$")
SECTION_KEYWORDS = (
    "experience", "education", "skills", "projects", "summary",
    "referees", "references",
)

SKILL_KEYWORDS = [
    "python", "java", "javascript", "react", "nodejs", "sql", "mysql",
    "postgresql", "mongodb", "docker", "kubernetes", "aws", "azure",
    "git", "html", "css", "angular", "vue", "django", "flask",
    "machine learning", "data analysis", "excel", "tableau", "powerbi",
    "c++", "c#", "php", "ruby", "swift", "kotlin", "go", "rust",
    "tensorflow", "pytorch", "pandas", "numpy", "scikit-learn",
    "jenkins", "ci/cd", "agile", "scrum", "jira", "confluence",
    "linux", "windows", "macos", "bash", "powershell",
]

SKILL_SPLIT_RE = re.compile(r"[,\|/•;]+")
SKILL_TOKEN_RE = re.compile(r"^[A-Za-z0-9\.\+#\-\s]+$")

# Case-sensitive patterns applied to text.lower(): identical match set to the
# reference's IGNORECASE originals (matches are lowercased anyway), but ~2x
# faster (no per-char case folding) and the lowered string is shared across
# extractors in extract_all_fields.
DEGREE_RES = [
    re.compile(
        r"(b(?<!\w.)(?:achelor|\.?\s*[a-z]+)"
        r"|m(?<!\w.)(?:aster|\.?\s*[a-z]+)"
        r"|p(?<!\w.)(?:hd|h\.?\s*d\.?)"
        r"|d(?<!\w.)(?:octorate|iploma)"
        r"|c(?<!\w.)ertificate)\b"
    ),
    re.compile(r"\b(undergraduate|graduate|postgraduate)\b"),
]
GPA_RE = re.compile(r"(?:gpa|cgpa)[:\s]*([0-9]\.[0-9]+)")
INSTITUTION_RE = re.compile(r"\b(?:University|Institute|College) of [A-Z][A-Za-z ]+")

EXPERIENCE_RES = [
    re.compile(r"(\d+)[\s\-\+]*year[s]?[\s]*(?:of\s)?(?:experience|exp)", re.IGNORECASE),
    re.compile(r"(\d+)[\s\-\+]*yr[s]?[\s]*(?:of\s)?(?:experience|exp)", re.IGNORECASE),
    re.compile(r"experience[:\s]*(\d+)[\s]*year[s]?", re.IGNORECASE),
    re.compile(r"(\d+)[\s]*year[s]?[\s]*experience", re.IGNORECASE),
]

DATE_YEAR_RE = re.compile(r"\b(19|20)\d{2}\b")
MONTH_TOKENS = (
    "jan", "feb", "mar", "apr", "may", "jun",
    "jul", "aug", "sep", "oct", "nov", "dec",
)

SECTION_CANON = {
    "summary": ("summary", "objective", "profile", "about"),
    "experience": ("experience", "employment", "work history", "career"),
    "education": ("education", "academic", "qualification"),
    "skills": ("skills", "technologies", "tech stack", "competencies"),
    "projects": ("projects", "portfolio"),
    "certifications": ("certifications", "certificates", "licenses"),
    "references": ("references", "referees"),
    "contact": ("contact", "personal details"),
}


_EMAIL_LOCAL_CHARS = frozenset(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789._%+-")
_EMAIL_HOST_RUN_RE = re.compile(r"[A-Za-z0-9.\-|]*")


def extract_emails(text: str) -> list:
    """M1 — approach4_v1.py:48-49, scanning only the window that can hold a
    match (module docstring)."""
    last = text.rfind("@")
    if last < 0:
        return []
    start = text.find("@")
    while start and text[start - 1] in _EMAIL_LOCAL_CHARS:
        start -= 1
    end = _EMAIL_HOST_RUN_RE.match(text, last + 1).end() + 1
    return sorted(set(EMAIL_RE.findall(text, start, end)))


# ASCII digit -> b"0", every other byte -> b" ": a run of n digits becomes
# b"0" * n, found by one bytes.find.
_DIGITS_TO_ZERO = bytes(48 if 48 <= b <= 57 else 32 for b in range(256))
_RUN3_RE = re.compile(r"\d{3}")


def _digit_runs(text: str) -> tuple:
    """Start of the first run of 3 digits and a lower bound on the start of
    the first run of 10 (-1 when there is no run of 3)."""
    if text.isascii():
        zeros = text.encode("ascii").translate(_DIGITS_TO_ZERO)
        run3 = zeros.find(b"000")
        return run3, zeros.find(b"0000000000", run3) if run3 >= 0 else -1
    m = _RUN3_RE.search(text)  # \d also matches non-ASCII digits
    return (m.start(), m.start()) if m else (-1, -1)


def extract_phones(text: str) -> list:
    """M2 — approach4_v1.py:51-65 (4 alternative patterns, len>=7 filter)."""
    phones = PHONE_RES[0].findall(text) if "+" in text else []
    run3, run10 = _digit_runs(text)
    if run3 >= 0:
        phones += PHONE_RES[1].findall(text, max(run3 - 1, 0))
        phones += PHONE_RES[2].findall(text, run3)
        if run10 >= 0:
            phones += PHONE_RES[3].findall(text, run10)
    return sorted({p.strip() for p in phones if len(p.strip()) >= 7})


def extract_linkedin(text: str, _low: str | None = None) -> list:
    """M3 — approach4_v1.py:69-70 (match on lowercased text).  Guard is
    regex-implied ('linkedin' literal prefix)."""
    low = _low if _low is not None else text.lower()
    if "linkedin" not in low:
        return []
    return sorted(set(LINKEDIN_RE.findall(low)))


def extract_github(text: str, _low: str | None = None) -> list:
    """M3 — approach4_v1.py:72-73.  Guard is regex-implied."""
    low = _low if _low is not None else text.lower()
    if "github" not in low:
        return []
    return sorted(set(GITHUB_RE.findall(low)))


def extract_name(text: str) -> str:
    """M4 — approach4_v2.py:27-37: first 5 lines, 5<len<50, no @/+, letters+spaces."""
    for line in text.split("\n")[:5]:
        line = line.strip()
        if 5 < len(line) < 50 and "@" not in line and "+" not in line:
            if NAME_LINE_RE.match(line):
                return line
    return ""


def likely_name(text: str) -> bool:
    """M5 — parse_cv_docling.py:57-66."""
    t = text.strip()
    if not t or len(t) > 60:
        return False
    words = t.split()
    if not (2 <= len(words) <= 5):
        return False
    if any(k in t.lower() for k in SECTION_KEYWORDS):
        return False
    return all(NAME_WORD_RE.match(w) for w in words)


def extract_address(text: str) -> str:
    """M6 — approach4_v2.py:70-85: scan first 10 lines for address markers."""
    for line in text.split("\n")[:10]:
        if any(k in line.lower() for k in ("contact details:", "address:")):
            address_parts = []
            for part in line.split(","):
                part = part.strip()
                if "@" not in part and "+" not in part and "contact" not in part.lower():
                    if len(part) > 3:
                        address_parts.append(part)
            return ", ".join(address_parts)
    return ""


# (keyword, its characters, the shorter keywords inside it), shortest first
# so every inner keyword is decided before its container.
_SKILL_PLAN = [
    (k, frozenset(k), frozenset(j for j in SKILL_KEYWORDS if j != k and j in k))
    for k in sorted(SKILL_KEYWORDS, key=len)
]
_SKILL_CHARS = frozenset("".join(SKILL_KEYWORDS))


def extract_skills(text: str, _low: str | None = None) -> list:
    """M7 — approach4_v1.py:85-109: substring match against fixed vocabulary,
    title-cased output. Vocabulary is a module constant => naturally broadcast
    (captured once in the task closure, never re-shipped per batch)."""
    low = _low if _low is not None else text.lower()
    present = {c for c in _SKILL_CHARS if c in low}
    found = set()
    for kw, chars, inner in _SKILL_PLAN:
        if chars <= present and inner <= found and kw in low:
            found.add(kw)
    return sorted({s.title() for s in found})


def split_skills(items) -> list:
    """M8 — parse_cv_docling.py:74-81."""
    skills = []
    for item in items:
        for part in SKILL_SPLIT_RE.split(item):
            s = part.strip()
            if 2 <= len(s) <= 40 and SKILL_TOKEN_RE.match(s):
                skills.append(s)
    return sorted(set(skills))


def extract_education(text: str, _low: str | None = None) -> dict:
    """M9 — approach4_v1.py:111-127 degrees + institution/GPA regex family
    (approach4_v2.py:122-162)."""
    low = _low if _low is not None else text.lower()
    insts = (sorted(set(INSTITUTION_RE.findall(text)))
             if ("University" in text or "Institute" in text
                 or "College" in text) else [])
    return {
        "degrees": _degrees(low),
        "institutions": insts,
        "gpa": _gpa(low),
    }


def _degrees(low: str) -> list:
    degrees = set(DEGREE_RES[0].findall(low))
    if "graduate" in low:
        degrees.update(DEGREE_RES[1].findall(low))
    return sorted(degrees)


def _gpa(low: str) -> list:
    i = low.find("gpa")
    return [] if i < 0 else sorted(set(GPA_RE.findall(low, i)))


def extract_experience_years(text: str) -> list:
    """M10 — approach4_v1.py:129-147."""
    years = []
    for pat in EXPERIENCE_RES:
        years.extend(pat.findall(text))
    return sorted(set(years))


def is_date_like(text: str) -> bool:
    """M13 — parse_cv_docling.py:68-72."""
    t = text.lower()
    if DATE_YEAR_RE.search(t):
        return True
    return any(m in t for m in MONTH_TOKENS)


def _is_section_header(line: str) -> bool:
    """new_approaches/final.py:120-140 style: short keyword line or ALL-CAPS."""
    s = line.strip()
    if not s or len(s) >= 50:
        return False
    low = s.lower()
    for names in SECTION_CANON.values():
        if any(k in low for k in names):
            return True
    return s.isupper() and len(s.split()) <= 3


def _normalize_section_name(line: str) -> str:
    low = line.strip().lower()
    for canon, names in SECTION_CANON.items():
        if any(k in low for k in names):
            return canon
    return "other"


def segment_sections(text: str) -> list:
    """M12 — new_approaches/final.py:120-186: split text into named sections.

    Returns an ordered ``[(name, body)]`` list (Arrow: list<struct<name,body>>).
    """
    sections = []
    current_name = "preamble"
    current_lines: list = []
    for line in text.split("\n"):
        if _is_section_header(line):
            if current_lines:
                sections.append((current_name, "\n".join(current_lines).strip()))
            current_name = _normalize_section_name(line)
            current_lines = []
        else:
            current_lines.append(line)
    if current_lines:
        sections.append((current_name, "\n".join(current_lines).strip()))
    return [(n, b) for n, b in sections if b]


def chunk_paragraphs(text: str, min_chunk: int = 20,
                     target: int = 100, min_fallback: int = 15) -> list:
    """M14 — cv_doclayout_extractor.py:47-105: split on blank lines keeping
    chunks > ``min_chunk`` chars; fallback greedy line-merge into ~``target``
    char chunks keeping > ``min_fallback``."""
    chunks = [c.strip() for c in re.split(r"\n\s*\n", text) if len(c.strip()) > min_chunk]
    if chunks:
        return chunks
    out, buf = [], ""
    for line in text.split("\n"):
        line = line.strip()
        if not line:
            continue
        buf = (buf + " " + line).strip()
        if len(buf) >= target:
            out.append(buf)
            buf = ""
    if buf and len(buf) > min_fallback:
        out.append(buf)
    return out


def extract_all_fields(text: str) -> dict:
    """Run the full field-extraction suite over one document's text.

    Output shape mirrors FIXTURES.md §1.2 ``expected_fields``.
    """
    low = text.lower()  # shared across the lowercase-matching extractors
    return {
        "emails": extract_emails(text),
        "phones": extract_phones(text),
        "linkedin": extract_linkedin(text, _low=low),
        "github": extract_github(text, _low=low),
        "skills": extract_skills(text, _low=low),
        "degrees": _degrees(low),
        "gpa": _gpa(low),
    }


# --- Batch kernel (module docstring, "Batch path") -------------------------

# Python's ``\s`` on ASCII text (module docstring, dialect notes).
_ASCII_WS = "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f "


def _ascii_dialect(pattern: str) -> str:
    return "(?-u)" + pattern.replace(r"\s", r"[\t-\r\x1c-\x20]")


# DEGREE_RES[0] with its leading \b written out: Rust has no look-behind.
_DEGREE0_PLAIN = (r"\b(bachelor|master|phd|doctorate|diploma|certificate"
                  r"|b\.?\s*[a-z]+|m\.?\s*[a-z]+|ph\.?\s*d\.?)\b")
# (output field, scan the lowered text?, pattern) per extract_all scan; a
# match is the whole pattern, which equals findall's group 1 for the
# degrees (their \b are empty) and holds GPA's number after a prefix of
# 'cgpa:' and whitespace.  Skills come from one Aho-Corasick scan.
_BATCH_SCANS = [
    ("emails", False, EMAIL_RE.pattern),
    *(("phones", False, p.pattern) for p in PHONE_RES),
    ("linkedin", True, LINKEDIN_RE.pattern),
    ("github", True, GITHUB_RE.pattern),
    ("degrees", True, _DEGREE0_PLAIN),
    ("degrees", True, DEGREE_RES[1].pattern),
    ("gpa", True, GPA_RE.pattern),
]
_SCAN_NAMES = [name for name, _, _ in _BATCH_SCANS] + ["skills"]
# Each scan's place in FIELDS_TYPE, and per field its scans' span
# (a field's scans are adjacent).
_SCAN_FIELD = np.array([S.FIELDS_TYPE.get_field_index(name)
                        for name in _SCAN_NAMES])
_FIELD_SCANS = [
    (name, _SCAN_NAMES.index(name),
     _SCAN_NAMES.index(name) + _SCAN_NAMES.count(name))
    for name in dict.fromkeys(_SCAN_NAMES)
]
_GPA_PREFIX = "cgpa:" + _ASCII_WS
_SKILL_KEYWORDS_ARR = pa.array(SKILL_KEYWORDS)
_SKILL_TITLES_ARR = pa.array([k.title() for k in SKILL_KEYWORDS],
                             pa.large_string())


def _polars():
    """polars, imported on first use; in a Ray task its thread pool is first
    sized to the task's CPUs, so a 1-CPU map task runs it on one thread."""
    if "polars" not in sys.modules:
        ray = sys.modules.get("ray")
        if (ray is not None and ray.is_initialized()
                and ray.get_runtime_context().worker.mode == ray.WORKER_MODE):
            cpus = ray.get_runtime_context().get_assigned_resources().get(
                "CPU", 0)
            os.environ["POLARS_MAX_THREADS"] = str(max(1, math.ceil(cpus)))
    import polars

    return polars


@functools.cache
def _batch_select() -> list:
    """The polars expressions of one batch pass, built once per process."""
    pl = _polars()
    text, low = pl.col("text"), pl.col("low")
    scans = [(low if lowered else text).str.extract_all(
        _ascii_dialect(pattern)).alias(str(i))
        for i, (_, lowered, pattern) in enumerate(_BATCH_SCANS)]
    return scans + [low.str.extract_many(
        SKILL_KEYWORDS, overlapping=True).alias("skills")]


def _ascii_batch_fields(texts: pa.Array) -> pa.StructArray:
    """``extract_all_fields`` of every row of an all-ASCII, null-free
    large_string array: one polars select, then one Arrow sort that orders
    and de-duplicates the matches of all rows and fields at once."""
    pl = _polars()
    n = len(texts)
    scans = pl.DataFrame({"text": pl.Series(texts)}).with_columns(
        low=pl.col("text").str.to_lowercase()).select(_batch_select()).to_arrow()
    # Scan j's match lists are rows j*n .. (j+1)*n - 1 of ``lists``.
    lists = pa.concat_arrays([chunk for column in scans.columns
                              for chunk in column.chunks])
    scan, row = np.divmod(pc.list_parent_indices(lists).to_numpy(), n)
    key = _SCAN_FIELD[scan] * n + row  # sorts by field, then by row
    found = pc.list_flatten(lists)
    starts = lists.offsets.to_numpy()[::n]  # scan j's matches: starts[j:j+2]
    values = []
    for name, first, end in _FIELD_SCANS:
        value = found.slice(starts[first], starts[end] - starts[first])
        if name == "phones":
            value = pc.utf8_trim(value, _ASCII_WS)
            value = pc.if_else(pc.greater_equal(pc.utf8_length(value), 7),
                               value, None)
        elif name == "gpa":
            value = pc.utf8_ltrim(value, _GPA_PREFIX)
        elif name == "skills":
            value = _SKILL_TITLES_ARR.take(
                pc.index_in(value, value_set=_SKILL_KEYWORDS_ARR))
        values.append(value)
    table = pa.table({"key": key, "value": pa.concat_arrays(values)})
    table = table.filter(pc.is_valid(table.column("value")))
    table = table.take(pc.sort_indices(
        table, [("key", "ascending"), ("value", "ascending")]))
    key = table.column("key").to_numpy()
    value = table.column("value").combine_chunks()
    # Sorted, so a repeat sits right after its first occurrence.
    repeat = np.zeros(len(key), dtype=bool)
    repeat[1:] = ((key[1:] == key[:-1])
                  & pc.equal(value[1:], value[:-1]).to_numpy(
                      zero_copy_only=False))
    key, value = key[~repeat], value.filter(pa.array(~repeat))
    value = value.cast(pa.string())
    n_fields = S.FIELDS_TYPE.num_fields
    offsets = np.zeros((n_fields, n + 1), dtype=np.int32)
    np.cumsum(np.bincount(key, minlength=n_fields * n).reshape(n_fields, n),
              axis=1, out=offsets[:, 1:])
    columns, start = [], 0
    for field_offsets in offsets:
        columns.append(pa.ListArray.from_arrays(
            pa.array(field_offsets), value.slice(start, field_offsets[-1])))
        start += field_offsets[-1]
    return pa.StructArray.from_arrays(columns, fields=list(S.FIELDS_TYPE))


def batch_fields(texts) -> pa.StructArray:
    """``extract_all_fields`` of every text, as one ``S.FIELDS_TYPE`` array.

    ``texts`` is a list of str or an Arrow string array; a null text reads
    as "".  ASCII rows run through ``_ascii_batch_fields``; every other row
    calls ``extract_all_fields``, which stays the definition."""
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    elif not isinstance(texts, pa.Array):
        texts = pa.array(texts, pa.large_string())
    if not len(texts):
        return pa.array([], S.FIELDS_TYPE)
    texts = texts.cast(pa.large_string()).fill_null("")
    is_ascii = pc.string_is_ascii(texts).to_numpy(zero_copy_only=False)
    if is_ascii.all():
        return _ascii_batch_fields(texts)
    rows = [np.flatnonzero(~is_ascii)]
    parts = [pa.array([extract_all_fields(t) for t in texts.take(rows[0])
                       .to_pylist()], S.FIELDS_TYPE)]
    if is_ascii.any():
        rows.append(np.flatnonzero(is_ascii))
        parts.append(_ascii_batch_fields(texts.take(rows[1])))
    # ``parts`` holds the rows in the order ``rows`` lists them; taking the
    # inverse of that permutation puts every row back in place.
    return pa.concat_arrays(parts).take(np.argsort(np.concatenate(rows)))


def extract_projects(text: str, limit: int = 5) -> list:
    """M11 — approach4_v2.py:195-218: stateful scan of the projects section.

    Entering on a short line containing 'projects'; 'tech stack' lines flush
    the accumulated project and are kept verbatim; other non-indented lines
    accumulate; capped at ``limit`` entries."""
    projects: list = []
    in_projects = False
    current = ""
    for line in text.split("\n"):
        if "projects" in line.lower() and len(line.strip()) < 20:
            in_projects = True
            continue
        if not in_projects:
            continue
        if "tech stack" in line.lower():
            if current:
                projects.append(current.strip())
            current = ""
            projects.append(line.strip())
        elif line.strip() and not line.startswith(" " * 8):
            current += " " + line.strip()
    # NOTE: a trailing accumulated project with no following 'tech stack'
    # line is DISCARDED — faithful to the reference (approach4_v2.py:218
    # returns without flushing current_project).
    return projects[:limit]
