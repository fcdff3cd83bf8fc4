"""Unit tests for field extractors M1-M13 — reference regex semantics
(file:line cites in functions/fields.py docstrings)."""

import re

from hypothesis import example, given, settings
from hypothesis import strategies as st

from document_text_extraction_ray.functions import fields as F


def test_emails():
    t = "Contact me at john.doe+cv@example-mail.co.uk or admin@test.io today"
    assert F.extract_emails(t) == ["admin@test.io", "john.doe+cv@example-mail.co.uk"]
    assert F.extract_emails("no emails here") == []


def test_phones():
    t = "Call +1-555-123-4567 or (071) is wrong but 555-123-9999 works"
    out = F.extract_phones(t)
    assert "+1-555-123-4567" in out
    assert "555-123-9999" in out
    # len>=7 filter drops short fragments
    assert all(len(p) >= 7 for p in out)


def test_linkedin_github():
    t = "See LinkedIn.com/in/Jane-Doe and GITHUB.com/janedoe42 now"
    assert F.extract_linkedin(t) == ["linkedin.com/in/jane-doe"]
    assert F.extract_github(t) == ["github.com/janedoe42"]


def test_name_positional():
    t = "John Michael Smith\nSoftware Engineer\njohn@x.com"
    assert F.extract_name(t) == "John Michael Smith"
    assert F.extract_name("a\nb\nc\nd\ne\nJohn Smith") == ""  # beyond 5 lines


def test_likely_name():
    assert F.likely_name("Jane O'Brien-Smith")
    assert not F.likely_name("Jane")                # 1 word
    assert not F.likely_name("Work Experience")     # section keyword
    assert not F.likely_name("x " * 40)             # too long


def test_address():
    t = "John Smith\nAddress: 42 Elm Street, Springfield, IL 62704\nmore"
    out = F.extract_address(t)
    assert "42 Elm Street" in out and "Springfield" in out


def test_skills_substring_vocab():
    t = "Experienced in Python, Docker and machine learning pipelines"
    out = F.extract_skills(t)
    assert "Python" in out and "Docker" in out and "Machine Learning" in out
    assert out == sorted(out)


def test_split_skills():
    out = F.split_skills(["Python, Java | C++ • SQL; a"])
    assert out == ["C++", "Java", "Python", "SQL"]  # 'a' too short, sorted+dedup


def test_education():
    t = "Bachelor of Science, University of Somewhere, GPA: 3.72"
    edu = F.extract_education(t)
    assert "bachelor" in edu["degrees"]
    assert edu["institutions"] == ["University of Somewhere"]
    assert edu["gpa"] == ["3.72"]


def test_experience_years():
    assert F.extract_experience_years("over 5 years of experience in x") == ["5"]
    assert F.extract_experience_years("experience: 12 years") == ["12"]


def test_date_like():
    assert F.is_date_like("March 2019 - present")
    assert F.is_date_like("2021")
    assert not F.is_date_like("no time tokens")


def test_segment_sections():
    t = "John Smith\nintro line\nWORK EXPERIENCE\nacme corp\nEducation\nuni x"
    sections = F.segment_sections(t)
    names = [n for n, _ in sections]
    assert names == ["preamble", "experience", "education"]
    assert sections[1][1] == "acme corp"


def test_chunk_paragraphs():
    t = "first paragraph long enough to keep\n\nsecond paragraph also long enough"
    assert len(F.chunk_paragraphs(t)) == 2
    # fallback greedy merge
    t2 = "\n".join(["short line"] * 20)
    chunks = F.chunk_paragraphs(t2)
    assert chunks and all(len(c) >= 100 or c == chunks[-1] for c in chunks)


def test_extract_all_fields_shape():
    out = F.extract_all_fields("jane@x.io knows python, GPA: 3.5, Bachelor deg")
    assert set(out) == {"emails", "phones", "linkedin", "github", "skills", "degrees", "gpa"}
    assert out["emails"] == ["jane@x.io"]


# --- Equivalence of the prefiltered extractors with the literal formulas ---
#
# The oracle below is the extractors' original form: every pattern scanned
# over the whole text with no guard.  The shipped extractors skip or shorten
# scans where a match cannot exist; they must return the same values.

_O_EMAIL = re.compile(r"\b[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Z|a-z]{2,}\b")
_O_PHONES = [
    re.compile(r"\+\d{1,3}[-.\s]?\d{1,4}[-.\s]?\d{1,4}[-.\s]?\d{1,9}"),
    re.compile(r"\(\d{3}\)[-.\s]?\d{3}[-.\s]?\d{4}"),
    re.compile(r"\d{3}[-.\s]?\d{3}[-.\s]?\d{4}"),
    re.compile(r"\d{10,}"),
]
_O_LINKEDIN = re.compile(r"linkedin\.com/in/[\w-]+")
_O_GITHUB = re.compile(r"github\.com/[\w-]+")
_O_DEGREES = [
    re.compile(r"\b(bachelor|master|phd|doctorate|diploma|certificate"
               r"|b\.?\s*[a-z]+|m\.?\s*[a-z]+|ph\.?\s*d\.?)\b"),
    re.compile(r"\b(undergraduate|graduate|postgraduate)\b"),
]
_O_GPA = re.compile(r"(?:gpa|cgpa)[:\s]*([0-9]\.[0-9]+)")
_O_INSTITUTION = re.compile(
    r"\b(?:University|Institute|College) of [A-Z][A-Za-z ]+")


def _oracle(text: str) -> dict:
    low = text.lower()
    phones = [p.strip() for pat in _O_PHONES for p in pat.findall(text)]
    degrees = {d for pat in _O_DEGREES for d in pat.findall(low)}
    return {
        "emails": sorted(set(_O_EMAIL.findall(text))),
        "phones": sorted({p for p in phones if len(p) >= 7}),
        "linkedin": sorted(set(_O_LINKEDIN.findall(low))),
        "github": sorted(set(_O_GITHUB.findall(low))),
        "skills": sorted({s.title() for s in F.SKILL_KEYWORDS if s in low}),
        "degrees": sorted(degrees),
        "institutions": sorted(set(_O_INSTITUTION.findall(text))),
        "gpa": sorted(set(_O_GPA.findall(low))),
    }


def _shipped(text: str) -> dict:
    edu = F.extract_education(text)
    return {
        "emails": F.extract_emails(text),
        "phones": F.extract_phones(text),
        "linkedin": F.extract_linkedin(text),
        "github": F.extract_github(text),
        "skills": F.extract_skills(text),
        **edu,
    }


# Characters and fragments aimed at each guard: digits (ASCII and Arabic-
# Indic), phone punctuation, '@' and the email classes including '|', a
# non-ASCII word character, and keyword pieces that overlap or nest.
_ATOMS = list("ab@.-_%+|()0123456789 \n\t:/#cdgimoprstuxBMPU\u00e9\u0663\u00a0") + [
    "java", "script", "sql", "my", "postgre", "go", "django", "mongo", "db",
    "linux", "c++", "c#", "ci/cd", "machine learning", "bachelor", "master",
    "phd", "ph.d.", "b.sc", "m. tech", "graduate", "under", "post", "gpa",
    "cgpa", "University of X", "linkedin.com/in/", "github.com/", "x.com",
    "@e.org", "123", "4567", "(123) 456-7890", "+44 ", "\u0663\u0664\u0665",
    ".co|uk", "A|b",
]
_TEXTS = st.lists(st.sampled_from(_ATOMS), max_size=40).map("".join)


@settings(max_examples=400, deadline=None)
@given(_TEXTS)
@example("\u0663\u0664\u0665-555-1234")               # non-ASCII \d
@example("call +\u0661 555 123 4567 now")
@example("x@y.co|uk and a@b.c|d")                     # '|' in the TLD class
@example("me@site.com\u00e9 and you@site.org\u00e9")  # non-ASCII word char after TLD
@example("\u00e9bachelor \u00e9master m.sc")          # ... and before a degree
@example("a@b@c.com, x@y.z@w.org, @@q@r.io")          # chained '@'
@example("mysqlinux javascript djangox mongodb")     # overlapping skills
@example("(123) 456-7890 and 12345678901234 and 123456789")
@example("123-4567890123")                            # 10-run behind a match
@example("phd.x ph.d.x b.sc. m  tech")                # order within a letter
@example("a graduate, postgraduate or undergraduate.")
@example("GPA: 3.9, cgpa 3.75, xgpa:2.5")
@example("555\x1c123\x1c4567")                        # \x1c is \s in Python
@example("b.\x1fsc")
@example("")
def test_extractors_match_literal_formulas(text):
    want = _oracle(text)
    assert _shipped(text) == want
    del want["institutions"]
    assert F.extract_all_fields(text) == want


def test_literal_oracle_cases_hit():
    """The fixed traps exercise the guards they target, not empty outputs."""
    out = _oracle("\u0663\u0664\u0665-555-1234 mysqlinux a@b@c.com \u00e9bachelor")
    assert out["phones"] == ["\u0663\u0664\u0665-555-1234"]
    assert out["skills"] == ["Linux", "Mysql", "Sql"]
    assert out["emails"] == ["b@c.com"]
    assert "bachelor" not in out["degrees"]
    assert _shipped("x@y.co|uk")["emails"] == ["x@y.co|uk"]


# --- The batch kernel against the same oracle ------------------------------
#
# ``batch_fields`` runs ASCII rows on polars' Rust regex and Aho-Corasick
# kernels and hands the rest to ``extract_all_fields``.  The extra atoms are
# ASCII characters Rust's ``\s`` misses (\x1c-\x1f) and non-ASCII ones whose
# case mapping or class differs between engines: KELVIN SIGN (lowers to
# 'k'), 'İ' (lowers to two code points), '²' (a digit to Python's
# ``str.isdigit`` but not ``\d``) and a combining mark.

_ASCII_ATOMS = [a for a in _ATOMS if a.isascii()] + list("\x1c\x1d\x1e\x1f")
_ALL_ATOMS = _ATOMS + list("\x1c\x1d\x1e\x1f\u212a\u0130\u00b2\u0301")
_ROWS = st.one_of(
    st.lists(st.sampled_from(_ASCII_ATOMS), max_size=40).map("".join),
    st.lists(st.sampled_from(_ALL_ATOMS), max_size=40).map("".join),
    st.none(), st.just(""))
_BATCHES = st.sampled_from([1, 2, 150]).flatmap(
    lambda n: st.lists(_ROWS, min_size=n, max_size=n))
_FIXED = [
    "\u0663\u0664\u0665-555-1234", "call +\u0661 555 123 4567 now",
    "x@y.co|uk and a@b.c|d", "me@site.com\u00e9 and you@site.org\u00e9",
    "\u00e9bachelor \u00e9master m.sc", "a@b@c.com, x@y.z@w.org, @@q@r.io",
    "mysqlinux javascript djangox mongodb",
    "(123) 456-7890 and 12345678901234 and 123456789", "123-4567890123",
    "phd.x ph.d.x b.sc. m  tech", "a graduate, postgraduate or undergraduate.",
    "GPA: 3.9, cgpa 3.75, xgpa:2.5", "555\x1c123\x1c4567", "b.\x1fsc", "",
]


@settings(max_examples=200, deadline=None)
@given(_BATCHES)
@example(["\u0663\u0664\u0665-555-1234"])
@example(["call +\u0661 555 123 4567 now"])
@example(["x@y.co|uk and a@b.c|d"])
@example(["me@site.com\u00e9 and you@site.org\u00e9"])
@example(["\u00e9bachelor \u00e9master m.sc"])
@example(["a@b@c.com, x@y.z@w.org, @@q@r.io"])
@example(["mysqlinux javascript djangox mongodb"])
@example(["(123) 456-7890 and 12345678901234 and 123456789"])
@example(["123-4567890123"])
@example(["phd.x ph.d.x b.sc. m  tech"])
@example(["a graduate, postgraduate or undergraduate."])
@example(["GPA: 3.9, cgpa 3.75, xgpa:2.5"])
@example(["555\x1c123\x1c4567"])                      # Rust's \s misses \x1c
@example(["b.\x1fsc"])                                 # ... and \x1f
@example([""])
@example([None, ""])
@example(_FIXED)                                      # ASCII and not, one batch
def test_batch_fields_match_literal_formulas(batch):
    got = F.batch_fields(batch)
    assert got.type == F.S.FIELDS_TYPE
    want = []
    for text in batch:
        row = _oracle(text or "")
        del row["institutions"]
        want.append(row)
    assert got.to_pylist() == want


def test_batch_fields_takes_arrow_and_keeps_row_order():
    """A chunked Arrow column reads like the list of its values; ASCII and
    non-ASCII rows come back in their input positions."""
    import pyarrow as pa

    texts = ["a@b.io python", "caf\u00e9 java", None, "ph.d. gpa 3.5", "\u212a8s"]
    want = [F.extract_all_fields(t or "") for t in texts]
    assert F.batch_fields(texts).to_pylist() == want
    column = pa.chunked_array([texts[:2], texts[2:]], pa.string())
    assert F.batch_fields(column).to_pylist() == want
    assert F.batch_fields([]).to_pylist() == []
