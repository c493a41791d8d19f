import dataclasses
import random
import time
import unicodedata

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from helpers import examples
from oracles import (_brute_artifact_line_indices, _line_key, brute_clean_document, brute_lcs,
                     brute_normalize)

from savanna import textnorm
from savanna.textnorm import (
    _PAGE_NUMBER_KEYS,
    _PAGE_NUMBER_RE,
    CleanReport,
    _count_controls,
    _Family,
    _artifact_line_indices,
    clean_document,
    corpus_profile,
    metric_profile,
    normalize,
)


class TestNormalize:
    def test_metric_profile_example(self):
        assert normalize("  Ku,  lw'okubanza! ", metric_profile()) == "ku lwokubanza"

    def test_fixed_point(self):
        assert normalize("abc", metric_profile()) == "abc"

    def test_control_char_removed(self):
        assert normalize("A\x00B", corpus_profile()) == "AB"
        assert normalize("A\x00B", metric_profile()) == "ab"

    def test_newlines_become_spaces_not_joins(self):
        assert normalize("omwana\nomuto", corpus_profile()) == "omwana omuto"

    def test_diacritics_preserved(self):
        text = "Ekyálo kyâffe ŋŋenda ũmwe"
        out = normalize(text, metric_profile())
        for ch in "áâŋũ":
            assert ch in out

    def test_punctuation_categories_stripped(self):
        # Pc Pd Ps Pe Pi Pf Po samples
        assert normalize("a_b-c(d)e«f»g'h", metric_profile()) == "abcdefgh"

    def test_removal_exposes_composition(self):
        # ZWSP (Cf) between a base and a combining mark, and a ring above
        # that only composes once "W" is lowercased.
        assert normalize("e\u200b\u0301", corpus_profile()) == "\u00e9"
        assert normalize("W\u030a", metric_profile()) == "\u1e98"


PROFILES = [metric_profile(), corpus_profile()]


@pytest.mark.parametrize("profile", PROFILES, ids=["metric", "corpus"])
def test_every_bmp_code_point_matches_oracle(profile):
    mismatches = []
    for cp in range(0x10000):
        if 0xD800 <= cp <= 0xDFFF:
            continue
        ch = chr(cp)
        for text in (ch, f"A{ch}\u0301 b"):
            if normalize(text, profile) != brute_normalize(text, profile):
                mismatches.append(text)
    assert mismatches == []


def test_printable_line_normalizes_to_nfc_of_its_collapsed_text():
    # clean_document's shortcut for a printable line: no Cc/Cf character to
    # delete, and spaces, the only whitespace, touch no composition.
    mismatches = []
    for cp in range(0x10000):
        ch = chr(cp)
        for line in (ch, f"  A{ch}\u0301  b{ch}\u0327 ", f"{ch} \u0301"):
            if line.isprintable() and normalize(line, corpus_profile()) != unicodedata.normalize(
                    "NFC", " ".join(line.split())):
                mismatches.append(line)
    assert mismatches == []


def test_page_number_lines_have_page_number_keys():
    # Each BMP code point in each slot of "page 12": every line the pattern
    # matches has one of the keys that _artifact_line_indices tries it on.
    matched, wrong = set(), []
    for cp in range(0x10000):
        for slot in range(len("page 12")):
            line = "page 12"[:slot] + chr(cp) + "page 12"[slot + 1:]
            if _PAGE_NUMBER_RE.match(line):
                matched.add(line)
                if _line_key(line) not in _PAGE_NUMBER_KEYS:
                    wrong.append(line)
    assert wrong == []
    assert {"Page 12", "pAge 12", "page\u00a012", "page\u300012", "page \u06632"} <= matched


def test_count_controls_matches_category_on_every_code_point():
    # What normalize deletes: Cc/Cf characters except the whitespace controls.
    wrong = [cp for cp in range(0x110000) if _count_controls(chr(cp)) != (
        unicodedata.category(chr(cp)) in ("Cc", "Cf") and chr(cp) not in "\t\n\r\x0b\x0c")]
    assert wrong == []


# Not printable, so the corpus profile classifies them, but not Cc/Cf, so
# they are kept: no-break space (Zs), line separator (Zl), private use (Co),
# a lone surrogate (Cs) and unassigned code points in and above the BMP (Cn).
@pytest.mark.parametrize("ch", ["\u00a0", "\u2028", "\ue000", "\ud800", "\u0378", "\U000e0080"])
def test_corpus_profile_keeps_unprintable_non_controls(ch):
    for text in (ch, f"a{ch}b", f"A{ch}\u0301 b\x00c", f"\t{ch}\u200b{ch}"):
        assert normalize(text, corpus_profile()) == brute_normalize(text, corpus_profile())


# Characters that interact with one of normalize's steps: NFD marks that
# compose with a neighbour, Cf characters that sit between a base and its
# mark, case mappings that expose or create marks, punctuation that NFC
# rewrites, controls that str.split treats as whitespace, line separators,
# the whitespace controls themselves, Ugandan-orthography letters and
# astral characters.
ADVERSARIAL_ALPHABET = [
    "a", "e", "o", "E", "W", "w", "i", "I", " ", "  ",
    "\u0300", "\u0301", "\u0302", "\u0303", "\u0308", "\u030a", "\u0327",
    "\u200b", "\u200d", "\u00ad", "\ufeff", "\u2060",
    "\u0130", "\u037e", ";", ",", "'", "-", "\u00ab",
    "\x00", "\x1c", "\x1f", "\x85", "\x7f", "\u2028", "\u2029", "\u00a0", "\u2000",
    "\t", "\x0b", "\x0c", "\r", "\n",
    "\u025b", "\u014b", "\u0254", "\u0190", "\u014a", "\u0186",
    "\U0001d400", "\U0001f600", "\U00010400", "\U0001d15e", "\U000e0001",
]

adversarial_text = st.lists(st.sampled_from(ADVERSARIAL_ALPHABET), max_size=40).map("".join)


@st.composite
def unicode_text(draw):
    return draw(st.text(max_size=80))


class TestNormalizeProperties:
    @settings(max_examples=examples(10))
    @given(adversarial_text, st.sampled_from(PROFILES))
    def test_adversarial_matches_oracle_and_is_fixed_point(self, text, profile):
        out = normalize(text, profile)
        assert out == brute_normalize(text, profile)
        assert normalize(out, profile) == out

    @settings(max_examples=examples(3))
    @given(unicode_text())
    def test_idempotent_metric(self, text):
        once = normalize(text, metric_profile())
        assert normalize(once, metric_profile()) == once

    @settings(max_examples=examples(3))
    @given(unicode_text())
    def test_idempotent_corpus(self, text):
        once = normalize(text, corpus_profile())
        assert normalize(once, corpus_profile()) == once

    @settings(max_examples=examples(2))
    @given(unicode_text())
    def test_no_control_chars_in_output(self, text):
        out = normalize(text, metric_profile())
        assert all(unicodedata.category(c) not in ("Cc", "Cf") for c in out)

    @settings(max_examples=examples(2))
    @given(unicode_text())
    def test_whitespace_collapsed(self, text):
        out = normalize(text, metric_profile())
        assert "  " not in out
        assert out == out.strip()


class TestCleanDocument:
    def test_empty_input(self):
        text, report = clean_document("")
        assert text == ""
        assert report == CleanReport(0, 0)

    def test_noop_text(self):
        raw = "omwana omuto agenda\n\nmu kibuga ekinene"
        text, report = clean_document(raw)
        assert text == raw
        assert report.artifacts_removed == 0

    def test_page_numbers_dropped(self):
        raw = "first paragraph here\n12\nsecond paragraph here\nPage 3\nthird one"
        text, report = clean_document(raw)
        assert "12" not in text
        assert "Page 3" not in text
        assert report.artifacts_removed == 2

    def test_repeated_header_family_dropped(self):
        body_lines = [
            "the farmer planted maize before the first rains came",
            "market prices for beans rose sharply in the dry season",
            "children walked to the village school along the river path",
            "a nurse explained how to store the vaccine safely",
            "the council discussed repairs to the old borehole pump",
            "fishermen returned at dawn with a small catch of tilapia",
        ]
        headers = [f"LUGANDA GRAMMAR - PAGE {n}" for n in (12, 13, 14, 15)]
        lines = []
        for body, header in zip(body_lines, headers + ["", ""]):
            lines.append(body)
            if header:
                lines.append(header)
        raw = "\n".join(lines)
        text, report = clean_document(raw)
        assert "LUGANDA GRAMMAR" not in text
        assert report.artifacts_removed == 4
        for body in body_lines:
            assert body in text

    def test_two_occurrences_not_dropped(self):
        raw = "a header line\nbody text one\na header line\nbody text two"
        text, report = clean_document(raw)
        assert report.artifacts_removed == 0
        assert text.count("a header line") == 2

    def test_counts_consistent(self):
        raw = "hello\x00world\n42\nmore text"
        text, report = clean_document(raw)
        assert report.control_removed == 1
        assert report.artifacts_removed == 1

    def test_whitespace_controls_are_not_counted_as_removed(self):
        # normalize keeps the tab and the form feed as separators and deletes the ZWSP.
        text, report = clean_document("a\tb\x0cc\u200bd")
        assert text == "a b cd"
        assert report.control_removed == 1

    def test_blank_runs_collapse(self):
        raw = "para one\n\n\n\npara two"
        text, _ = clean_document(raw)
        assert text == "para one\n\npara two"


# Lines that stress the recurring-line key and matcher.  Casefolding (ß
# and SS, U+0130) and whitespace variants fold to one key; lines that
# differ only in their digits, ASCII or not, share one too.  Long lines
# make long bit vectors.
_LONG_LINE = "omwana omuto agenda mu kibuga ekinene " * 6
RECURRING_LINES = [
    "STRASSE DER EINHEIT - SEITE", "straße der einheit - seite", "Straße  der\tEinheit - Seite ",
    "\u0130STANBUL HEADER", "i\u0307stanbul header", "istanbul header",
    "ab" * 100, "ab" * 100 + "c", _LONG_LINE, _LONG_LINE.upper(), "", "  ",
    "row 12 345", "ROW 7 0", "row \u0663\u0664 \u0967",
]


def _artifacts(lines: list[str]) -> set[int]:
    """``_artifact_line_indices`` given the collapsed lines, as
    ``clean_document`` gives them."""
    return _artifact_line_indices(lines, [" ".join(line.split()) for line in lines])


def _edited(base: str, edits: list[tuple[int, str]]) -> str:
    """``base`` with one-character substitutions, deletions and insertions."""
    chars = list(base)
    for position, replacement in edits:
        chars[position % len(chars)] = replacement
    return "".join(chars)


recurring_line = st.one_of(
    st.sampled_from(RECURRING_LINES),
    # Distinct lines that share an opening, with lengths on both sides of
    # the 2/3 length bound and similarities near 0.8.
    st.text("ab ", max_size=30).map(lambda tail: "Running ti" + tail),
    st.builds(_edited, st.sampled_from(["running title chapter one", _LONG_LINE, "ab" * 100]),
              st.lists(st.tuples(st.integers(0, 300), st.sampled_from(["", "x", "xy", "A"])),
                       max_size=6)),
)
# Page structure: a form feed starts a page, alone, at the start of a line
# or inside it; a page-number line (one also holding a form feed) ends one.
page_line = st.one_of(
    recurring_line,
    recurring_line.map(lambda line: "\x0c" + line),
    st.just("\x0c"),
    st.just("running\x0ctitle chapter one"),
    st.sampled_from(["12", "  Page 7 ", "page\x0c3", "\u0663\u0664", "12345"]),
)


document_line = st.one_of(
    st.just(""),
    st.just("   "),
    st.just("\t\x00"),
    st.integers(0, 9999).map(str),
    st.integers(0, 9999).map(lambda n: f"  Page {n} "),
    st.sampled_from(["RUNNING TITLE - CHAPTER 1", "RUNNING TITLE - CHAPTER 2"]),
    adversarial_text,
    page_line,
)


@settings(max_examples=examples(3), deadline=None)
@given(st.lists(document_line, max_size=25).map("\n".join))
# Printable lines, which take the NFC shortcut, beside unprintable ones: a
# Cc control, NEL and the line separator (whitespace to str.split), an en
# quad and a no-break space (Zs), and NFD lines whose marks compose.
@example("a\x1cb\nEkya\u0301lo  kya\u0302ffe\n\x85\nhead\n\u2028x\nhead\ne\u0301 \u0301\nhead")
@example("Page\u00a07\nPage 7\n\u2000Page 8\n  o\u0303  \u0327c\n\x0cPage\u00a09\u2000")
@example("LUGANDA 1\n\x0cLUGANDA\u00a02\nbody\n\x0cLUGANDA 3\x1c\nA\u030a\u0301\n\x0cLUGANDA\u20004")
def test_clean_document_matches_oracle(raw):
    text, report = clean_document(raw)
    expected_text, expected_report = brute_clean_document(raw)
    assert text == expected_text
    assert dataclasses.asdict(report) == expected_report


@settings(max_examples=examples(3), deadline=None)
@given(st.lists(page_line, max_size=40))
@example(["ab" * 100] * 3)
@example([_LONG_LINE] * 3 + [_LONG_LINE.upper()])
@example(["straße der einheit", "STRASSE DER EINHEIT", "Strasse  der einheit\t"])
@example(["head one", "body", "1", "head onf", "body two", "2", "x", "\x0chead ome"])
def test_recurring_lines_match_oracle(lines):
    assert _artifacts(lines) == _brute_artifact_line_indices(lines)


# Casefolded text the LCS sees: combining marks, Ugandan-orthography
# letters (ɛ ŋ ɔ and their capitals, which casefold to them), astral
# characters and spaces, short and at 200 characters or more.
_LCS_ALPHABET = ["a", "b", "e", "o", " ", "\u0301", "\u0308", "\u025b", "\u014b", "\u0254",
                 "\u0190", "\u014a", "\u0186", "\u00df", "\U0001d400", "\U0001f600", "\U00010400"]
folded_text = st.one_of(
    st.lists(st.sampled_from(_LCS_ALPHABET), max_size=40),
    st.lists(st.sampled_from(_LCS_ALPHABET), min_size=200, max_size=240),
).map(lambda chars: "".join(chars).casefold())


@settings(max_examples=examples(1.5), deadline=None)
@given(folded_text, folded_text)
@example("", "")
@example("", "abc")
@example("abc", "")
@example("ab" * 100, "ba" * 100)
def test_bit_vector_lcs_matches_oracle(a, b):
    assert _Family(b)._lcs(a) == brute_lcs(a, b)


_OPENING = "Awo Yesu n'agamba"


def _book(n_lines: int, heads: list[str] | None = None) -> list[str]:
    """An OCR'd book of seeded words: pages of 38 lines, each opening with
    a form feed and its running head (``heads[page]`` if given, else the
    title and page number), then body lines, every seventh of which opens
    with one phrase, blank lines, and a page number."""
    rng = random.Random(7)
    lexicon = ["".join(rng.choice("abdefgiklmnoprstuwyz\u014b\u025b\u0254") for _ in range(rng.randint(2, 8)))
               for _ in range(400)]
    lines: list[str] = []
    page = 0
    while len(lines) < n_lines:
        lines.append(("\x0c" if page else "") + (heads[page] if heads else f"EBYAFAAYO BYA LUGANDA {page + 1}"))
        for k in range(36):
            words = " ".join(rng.choice(lexicon) for _ in range(rng.randint(8, 12)))
            lines.append("" if k % 9 == 8 else f"{_OPENING} {words}" if k % 7 == 3 else words)
        lines.append(rng.choice((f"{page + 1}", f"Page {page + 1}", f"  {page + 1} ")))
        page += 1
    return lines[:n_lines]


def _heads(lines: list[str]) -> set[int]:
    return {idx for idx, line in enumerate(lines) if idx == 0 or line.startswith("\x0c")}


def test_noisy_running_heads_are_dropped():
    # One substituted character per noisy head, on either side of the tenth.
    heads = ["LUGANDA GRAMMAR - CHAPTER ONE"] * 9
    for page, (position, ch) in enumerate([(2, "C"), (9, "H"), (12, "N"), (26, "E")], start=1):
        heads[2 * page] = heads[2 * page][:position] + ch + heads[2 * page][position + 1:]
    lines = _book(9 * 38, heads)
    page_numbers = {idx for idx, line in enumerate(lines) if idx % 38 == 37}
    assert _artifacts(lines) == _heads(lines) | page_numbers
    text, report = clean_document("\n".join(lines))
    assert "CHAPTER" not in text and "LUCANDA" not in text
    assert report.artifacts_removed == 18


def test_headerless_formulaic_document_keeps_every_line():
    # Distinct lines that share an opening and draw from ten words.
    rng = random.Random(3)
    lexicon = ["omwana", "agenda", "mu", "kibuga", "ekinene", "nnyo", "era", "yagamba", "nti", "bwe"]
    lines = list(dict.fromkeys(f"{_OPENING} " + " ".join(rng.choice(lexicon) for _ in range(rng.randint(8, 14)))
                               for _ in range(2100)))[:2000]
    assert len(lines) == 2000
    started = time.perf_counter()
    text, report = clean_document("\n".join(lines))
    elapsed = time.perf_counter() - started
    assert report.artifacts_removed == 0 and text.split("\n") == lines
    assert elapsed < 2.0  # linear cleaning takes about 0.02 s


@pytest.mark.parametrize("n_lines", [1000, 2000, 4000, 8000])
def test_book_costs_a_few_lcs_runs_per_page_edge(monkeypatch, n_lines):
    calls = []
    lcs = _Family._lcs
    monkeypatch.setattr(_Family, "_lcs", lambda family, key: calls.append(key) or lcs(family, key))
    lines = _book(n_lines)
    found = _artifacts(lines)
    pages = len(_heads(lines))
    page_numbers = {idx for idx, line in enumerate(lines) if idx % 38 == 37}
    assert found == _heads(lines) | page_numbers
    assert len(calls) <= 5 * 2 * pages  # an edge meets at most five live families


class _Counting:
    """A compiled pattern whose ``sub`` and ``match`` calls are counted."""

    def __init__(self, pattern):
        self.pattern = pattern
        self.calls = []

    def sub(self, *args):
        self.calls.append("sub")
        return self.pattern.sub(*args)

    def match(self, line):
        self.calls.append(line)
        return self.pattern.match(line)


def test_printable_book_folds_its_keys_once_and_skips_normalize(monkeypatch):
    digits, page_numbers = _Counting(textnorm._DIGITS_RE), _Counting(textnorm._PAGE_NUMBER_RE)
    normalized = []
    monkeypatch.setattr(textnorm, "_DIGITS_RE", digits)
    monkeypatch.setattr(textnorm, "_PAGE_NUMBER_RE", page_numbers)
    monkeypatch.setattr(textnorm, "normalize", lambda line, profile: normalized.append(line))
    lines = [line.lstrip("\x0c") for line in _book(1000)]
    assert all(line.isprintable() for line in lines)
    text, report = clean_document("\n".join(lines))
    assert normalized == []
    assert digits.calls == ["sub"]  # one substitution for the whole document
    # Only the page-number lines, one a page, are tried against the pattern.
    assert page_numbers.calls == [line for idx, line in enumerate(lines) if idx % 38 == 37]
    assert (text, dataclasses.asdict(report)) == brute_clean_document("\n".join(lines))
