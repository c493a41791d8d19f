import dataclasses
import difflib
import random
import unicodedata

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import _brute_recurring_line_indices, brute_clean_document, brute_lcs, brute_normalize

from savanna.textnorm import (
    CleanReport,
    _count_controls,
    _Family,
    _recurring_line_indices,
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


def test_count_controls_matches_category_on_every_code_point():
    wrong = [cp for cp in range(0x110000)
             if _count_controls(chr(cp)) != (unicodedata.category(chr(cp)) in ("Cc", "Cf"))]
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
    @settings(max_examples=1000)
    @given(adversarial_text, st.sampled_from(PROFILES))
    def test_adversarial_matches_oracle_and_is_fixed_point(self, text, profile):
        out = normalize(text, profile)
        assert out == brute_normalize(text, profile)
        assert normalize(out, profile) == out

    @settings(max_examples=300)
    @given(unicode_text())
    def test_idempotent_metric(self, text):
        once = normalize(text, metric_profile())
        assert normalize(once, metric_profile()) == once

    @settings(max_examples=300)
    @given(unicode_text())
    def test_idempotent_corpus(self, text):
        once = normalize(text, corpus_profile())
        assert normalize(once, corpus_profile()) == once

    @settings(max_examples=200)
    @given(unicode_text())
    def test_no_control_chars_in_output(self, text):
        out = normalize(text, metric_profile())
        assert all(unicodedata.category(c) not in ("Cc", "Cf") for c in out)

    @settings(max_examples=200)
    @given(unicode_text())
    def test_whitespace_collapsed(self, text):
        out = normalize(text, metric_profile())
        assert "  " not in out
        assert out == out.strip()


class TestCleanDocument:
    def test_empty_input(self):
        text, report = clean_document("", corpus_profile())
        assert text == ""
        assert report == CleanReport(0, 0, 0, 0)

    def test_noop_text(self):
        raw = "omwana omuto agenda\n\nmu kibuga ekinene"
        text, report = clean_document(raw, corpus_profile())
        assert text == raw
        assert report.artifacts_removed == 0
        assert report.chars_out == len(raw)

    def test_page_numbers_dropped(self):
        raw = "first paragraph here\n12\nsecond paragraph here\nPage 3\nthird one"
        text, report = clean_document(raw, corpus_profile())
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
        text, report = clean_document(raw, corpus_profile())
        assert "LUGANDA GRAMMAR" not in text
        assert report.artifacts_removed == 4
        for body in body_lines:
            assert body in text

    def test_two_occurrences_not_dropped(self):
        raw = "a header line\nbody text one\na header line\nbody text two"
        text, report = clean_document(raw, corpus_profile())
        assert report.artifacts_removed == 0
        assert text.count("a header line") == 2

    def test_counts_consistent(self):
        raw = "hello\x00world\n42\nmore text"
        text, report = clean_document(raw, corpus_profile())
        assert report.chars_in == len(raw)
        assert report.chars_out == len(text)
        assert report.chars_out <= report.chars_in
        assert report.control_removed == 1
        assert report.artifacts_removed == 1

    def test_blank_runs_collapse(self):
        raw = "para one\n\n\n\npara two"
        text, _ = clean_document(raw, corpus_profile())
        assert text == "para one\n\npara two"


document_line = st.one_of(
    st.just(""),
    st.just("   "),
    st.just("\t\x00"),
    st.integers(0, 9999).map(str),
    st.integers(0, 9999).map(lambda n: f"  Page {n} "),
    st.sampled_from(["RUNNING TITLE - CHAPTER 1", "RUNNING TITLE - CHAPTER 2"]),
    adversarial_text,
)


@settings(max_examples=300)
@given(st.lists(document_line, max_size=25).map("\n".join), st.sampled_from(PROFILES))
def test_clean_document_matches_oracle(raw, profile):
    text, report = clean_document(raw, profile)
    expected_text, expected_report = brute_clean_document(raw, profile)
    assert text == expected_text
    assert dataclasses.asdict(report) == expected_report


# Lines that stress the recurring-line matcher.  Casefolding (ß and SS,
# U+0130) and whitespace variants fold to one text.  Lines of 200 or more
# characters are where difflib's autojunk heuristic drops the frequent
# characters of the representative; "ab" * 100 has no other kind.
_LONG_LINE = "omwana omuto agenda mu kibuga ekinene " * 6
RECURRING_LINES = [
    "STRASSE DER EINHEIT - SEITE", "straße der einheit - seite", "Straße  der\tEinheit - Seite ",
    "\u0130STANBUL HEADER", "i\u0307stanbul header", "istanbul header",
    "ab" * 100, "ab" * 100 + "c", _LONG_LINE, _LONG_LINE.upper(), "", "  ",
]


def _edited(base: str, edits: list[tuple[int, str]]) -> str:
    """``base`` with one-character substitutions, deletions and insertions."""
    chars = list(base)
    for position, replacement in edits:
        chars[position % len(chars)] = replacement
    return "".join(chars)


recurring_line = st.one_of(
    st.sampled_from(RECURRING_LINES),
    # Many distinct lines in one 10-character prefix bucket, with lengths on
    # both sides of the 2/3 length bound and ratios near 0.8.
    st.text("ab ", max_size=30).map(lambda tail: "Running ti" + tail),
    st.builds(_edited, st.sampled_from(["running title chapter one", _LONG_LINE, "ab" * 100]),
              st.lists(st.tuples(st.integers(0, 300), st.sampled_from(["", "x", "xy", "A"])),
                       max_size=6)),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(recurring_line, max_size=40))
@example(["ab" * 100] * 3)
@example([_LONG_LINE] * 3 + [_LONG_LINE.upper()])
@example(["straße der einheit", "STRASSE DER EINHEIT", "Strasse  der einheit\t"])
def test_recurring_lines_match_oracle(lines):
    assert _recurring_line_indices(lines) == _brute_recurring_line_indices(lines)



# Casefolded text the LCS sees: combining marks, Ugandan-orthography
# letters (ɛ ŋ ɔ and their capitals, which casefold to them), astral
# characters and spaces, short and at the 200 characters where autojunk
# starts to apply.
_LCS_ALPHABET = ["a", "b", "e", "o", " ", "\u0301", "\u0308", "\u025b", "\u014b", "\u0254",
                 "\u0190", "\u014a", "\u0186", "\u00df", "\U0001d400", "\U0001f600", "\U00010400"]
folded_text = st.one_of(
    st.lists(st.sampled_from(_LCS_ALPHABET), max_size=40),
    st.lists(st.sampled_from(_LCS_ALPHABET), min_size=200, max_size=240),
).map(lambda chars: "".join(chars).casefold())


@settings(max_examples=150, deadline=None)
@given(folded_text, folded_text)
@example("", "")
@example("", "abc")
@example("abc", "")
@example("ab" * 100, "ba" * 100)
def test_bit_vector_lcs_matches_oracle(a, b):
    assert _Family(b)._lcs(a) == brute_lcs(a, b)


@settings(max_examples=300, deadline=None)
@given(recurring_line, recurring_line)
def test_lcs_bound_is_never_below_ratio(a, b):
    # The lines as the matcher sees them: whitespace collapsed, casefolded.
    a, b = (" ".join(line.split()).casefold() for line in (a, b))
    assume(a and b)
    ratio = difflib.SequenceMatcher(None, a, b).ratio()
    assert 2.0 * _Family(b)._lcs(a) / (len(a) + len(b)) >= ratio


def _formulaic_document() -> list[str]:
    """Sixty lines in one prefix bucket: body lines open with one phrase and
    go on with seeded words, and every tenth line is a running head."""
    rng = random.Random(11)
    lexicon = ["".join(rng.choice("abdefgiklmnoprstuwyz\u014b\u025b\u0254") for _ in range(rng.randint(2, 8)))
               for _ in range(120)]
    return [f"Awo Yesu n'agamba - essuula {n // 10 + 1}" if n % 10 == 0 else
            "Awo Yesu n'agamba " + " ".join(rng.choice(lexicon) for _ in range(rng.randint(8, 14)))
            for n in range(60)]


def test_lcs_bound_leaves_ratio_only_admitting_calls(monkeypatch):
    # Without the bound, most of these lines reach ratio and fail it; with
    # it, ratio runs only for the running heads it admits.
    ratios = []
    ratio = difflib.SequenceMatcher.ratio
    monkeypatch.setattr(difflib.SequenceMatcher, "ratio",
                        lambda self: ratios.append(ratio(self)) or ratios[-1])
    monkeypatch.setattr(difflib.SequenceMatcher, "quick_ratio",
                        lambda self: pytest.fail("quick_ratio called"))
    lines = _formulaic_document()
    found = _recurring_line_indices(lines)
    monkeypatch.undo()
    assert ratios and min(ratios) >= 0.8
    assert found == _brute_recurring_line_indices(lines) == set(range(0, 60, 10))
