import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import examples
from oracles import brute_bleu, brute_chrf, brute_edit_distance, brute_ngram_statistics
from savanna.metrics import (
    _bleu_tokens,
    _chrf_statistics,
    _common_affixes,
    _matches_and_totals,
    _shared_runs,
    aggregate,
    bleu,
    cer,
    chrf,
    edit_distance,
    wer,
)

metric_text = st.text(alphabet="abcdefgh ", max_size=60)

# Adversarial Unicode: NFD combining marks, Ugandan-orthography letters,
# astral-plane characters and several kinds of whitespace.  Few symbols, so
# matches are frequent and carries run across whole bit vectors.
UNICODE_ALPHABET = "ab\u0301\u0303\u0327ɛŋɔ\U0001F600\U00010348 \t\n\u00a0\u3000"
# Lengths drawn uniformly from 0-150 (hypothesis alone favours short values),
# so the bit vectors often span several machine words and int digits.
lengths = st.integers(min_value=0, max_value=150)
unicode_text = lengths.flatmap(
    lambda n: st.text(alphabet=UNICODE_ALPHABET, min_size=n, max_size=n))
unicode_tokens = lengths.flatmap(
    lambda n: st.lists(st.sampled_from(["a", "ɛ", "ŋɔ", "a\u0301", "\U0001F600", "b"]),
                       min_size=n, max_size=n))


@st.composite
def near_copies(draw, elements, max_size=60, max_edits=3):
    """(hypothesis, reference): a reference over ``elements`` and a copy of it
    with 0 to ``max_edits`` insertions, deletions or substitutions, in either
    order.  Few symbols, so the two sides share long prefixes and suffixes."""
    ref = draw(st.lists(st.sampled_from(elements), max_size=max_size))
    hyp = list(ref)
    for _ in range(draw(st.integers(0, max_edits))):
        i = draw(st.integers(0, len(hyp)))
        edit = draw(st.sampled_from(["insert", "delete", "substitute"]))
        if edit == "insert":
            hyp.insert(i, draw(st.sampled_from(elements)))
        elif i < len(hyp):
            if edit == "delete":
                del hyp[i]
            else:
                hyp[i] = draw(st.sampled_from(elements))
    return (ref, hyp) if draw(st.booleans()) else (hyp, ref)


near_char_pairs = near_copies(["a", "b", "\u0301"])
near_token_pairs = near_copies(["a", "ɛ", "ŋɔ"])
# Words of 1-6 characters from a tiny vocabulary: words repeat, so a run can
# pair with several places on the other side, and runs of two or more words
# pass the 10 characters that chrF's shared-run trim cuts beyond.
near_word_pairs = near_copies(["a", "ɛŋ", "bcd", "a\u0301b", "efgh", "ijklm", "ŋɔpqrs"],
                              max_size=80, max_edits=6)

# Sides whose shared prefix and suffix the trimming must get right: identical
# sides, sides that differ at either end, one side a prefix or a suffix of the
# other, periodic sides whose prefix and suffix could overlap, middles shorter
# than the order, and empty sides.
AFFIX_CASES = [
    ("abcabc", "abcabc"), ("xab", "yab"), ("abx", "aby"), ("ab", "cd"),
    ("abc", "abcab"), ("cab", "abcab"), ("abcab", "ab"),
    ("aaaa", "aaaaaa"), ("abab", "ababab"), ("ababab", "abab"), ("aaaaaaa", "aaaaaaaa"),
    ("abcdefXghijkl", "abcdefYghijkl"), ("abcdefghijkl", "abcdefXghijkl"),
    ("abcdefgh", "abcdeXfgh"), ("aaaaaaabaaaaaaa", "aaaaaaaaaaaaaa"),
    ("", ""), ("", "abc"), ("abc", ""),
]


def assert_common_affixes(a, b):
    """The prefix and suffix are shared, longest, and do not overlap."""
    p, s = _common_affixes(a, b)
    shorter = min(len(a), len(b))
    assert p + s <= shorter
    assert a[:p] == b[:p] and a[len(a) - s:] == b[len(b) - s:]
    assert p == shorter or a[p] != b[p]
    assert p + s == shorter or a[len(a) - s - 1] != b[len(b) - s - 1]


class TestCommonAffixes:
    @pytest.mark.parametrize("a, b", AFFIX_CASES)
    def test_cases(self, a, b):
        assert_common_affixes(a, b)
        assert_common_affixes(list(a), list(b))

    @given(near_char_pairs)
    def test_near_copies(self, pair):
        hyp, ref = pair
        assert_common_affixes(hyp, ref)
        assert_common_affixes("".join(hyp), "".join(ref))


class TestTrimmedCounting:
    """The counter and the edit distance against the oracles on sides that
    share most of their text, where the common-affix trimming does most."""

    @pytest.mark.parametrize("max_n", range(1, 7))
    @given(pair=near_char_pairs)
    def test_ngram_statistics_on_characters(self, max_n, pair):
        hyp, ref = pair
        assert _matches_and_totals("".join(hyp), "".join(ref), max_n) == \
            brute_ngram_statistics(hyp, ref, max_n)

    @pytest.mark.parametrize("max_n", range(1, 7))
    @given(pair=near_token_pairs)
    def test_ngram_statistics_on_tokens(self, max_n, pair):
        hyp, ref = pair
        assert _matches_and_totals(_bleu_tokens(" ".join(hyp)), _bleu_tokens(" ".join(ref)),
                                   max_n) == brute_ngram_statistics(hyp, ref, max_n)

    @given(near_char_pairs)
    def test_edit_distance_on_strings(self, pair):
        hyp, ref = "".join(pair[0]), "".join(pair[1])
        assert edit_distance(hyp, ref) == brute_edit_distance(hyp, ref)

    @given(near_token_pairs)
    def test_edit_distance_on_tokens(self, pair):
        assert edit_distance(*pair) == brute_edit_distance(*pair)

    @pytest.mark.parametrize("hyp, ref", AFFIX_CASES)
    def test_cases(self, hyp, ref):
        for max_n in range(1, 7):
            expected = brute_ngram_statistics(list(hyp), list(ref), max_n)
            assert _matches_and_totals(hyp, ref, max_n) == expected
            assert _matches_and_totals(_bleu_tokens(" ".join(hyp)), _bleu_tokens(" ".join(ref)),
                                       max_n) == expected
        assert edit_distance(hyp, ref) == brute_edit_distance(hyp, ref)
        assert edit_distance(list(hyp), list(ref)) == brute_edit_distance(hyp, ref)
        assert chrf(hyp, ref) == pytest.approx(brute_chrf(hyp, ref), abs=1e-12)
        assert bleu(" ".join(hyp), " ".join(ref)) == \
            pytest.approx(brute_bleu(" ".join(hyp), " ".join(ref)), abs=1e-9)


def assert_chrf_exact(hyp: str, ref: str):
    """chrF's per-order statistics equal the oracle's on the characters of
    the two sides, spaces removed, and so does its score.  Each shared run
    is equal on both sides, longer than 10 characters, and after the last."""
    hyp_words, ref_words = hyp.split(), ref.split()
    i_end = j_end = 0
    for i, j, n in _shared_runs(hyp_words, ref_words, 10):
        assert i >= i_end and j >= j_end and n >= 1
        assert hyp_words[i:i + n] == ref_words[j:j + n]
        assert len("".join(hyp_words[i:i + n])) > 10
        i_end, j_end = i + n, j + n
    hyp_chars = [c for c in hyp if not c.isspace()]
    ref_chars = [c for c in ref if not c.isspace()]
    assert _chrf_statistics(hyp, ref) == brute_ngram_statistics(hyp_chars, ref_chars, 6)
    assert chrf(hyp, ref) == pytest.approx(brute_chrf(hyp, ref), abs=1e-12)


# Sides whose shared word runs chrF must cut exactly: runs at the start, at
# the end and at both; runs adjacent on one side; runs of exactly 10 and 11
# characters; a run that also occurs elsewhere; one side equal to a run of
# the other; tabs and newlines between words; empty sides.
SHARED_RUN_CASES = [
    ("abcdef ghijkl X mn", "abcdef ghijkl Y op"),
    ("mn X abcdef ghijkl", "op Y abcdef ghijkl"),
    ("abcdef ghijkl X mnopqr stuvw", "abcdef ghijkl Y mnopqr stuvw"),
    ("abcdef ghijkl mnopqr stuvwx", "mnopqr stuvwx Q abcdef ghijkl"),
    ("abcdef ghijkl mnopqr stuvwx", "abcdef ghijkl Q mnopqr stuvwx"),
    ("X abcde fghij Y", "Z abcde fghij W"),
    ("X abcde fghijk Y", "Z abcde fghijk W"),
    ("X abcdef ghijkl Y", "abcdef ghijkl Z abcdef ghijkl"),
    ("abcdef ghijkl Z abcdef ghijkl", "X abcdef ghijkl Y"),
    ("abcdef ghijkl", "Q abcdef ghijkl R"),
    ("Q abcdef ghijkl R", "abcdef ghijkl"),
    ("abcdef ghijkl", "abcdef ghijkl"),
    ("abc\tdefgh\nijklm X\n", "abc defgh ijklm Y"),
    ("P abc\tdefgh\n\nijklm", "Q abc defgh\tijklm"),
    ("", ""), ("", "abcdef ghijkl"), ("abcdef ghijkl", ""),
]


class TestSharedRuns:
    """chrF's cut of the word runs the two sides share, against the oracles."""

    @pytest.mark.parametrize("hyp, ref", SHARED_RUN_CASES)
    def test_cases(self, hyp, ref):
        assert_chrf_exact(hyp, ref)
        assert_chrf_exact(ref, hyp)

    def test_runs_cut_at_more_than_10_characters(self):
        assert _shared_runs("X abcde fghij Y".split(), "Z abcde fghij W".split(), 10) == []
        assert _shared_runs("X abcde fghijk Y".split(), "Z abcde fghijk W".split(), 10) == \
            [(1, 1, 2)]

    def test_runs_found_off_the_diagonal(self):
        hyp = "abcdef ghijkl mnopqr stuvwx".split()
        assert _shared_runs(hyp, "Q R abcdef ghijkl S mnopqr stuvwx".split(), 10) == \
            [(0, 2, 2), (2, 5, 2)]
        assert _shared_runs(hyp, "mnopqr stuvwx Q abcdef ghijkl".split(), 10) == [(0, 3, 2)]

    @given(near_word_pairs)
    def test_near_copies(self, pair):
        assert_chrf_exact(" ".join(pair[0]), " ".join(pair[1]))


def eval_like_pairs(seed: int, count: int, words_per_pair: int):
    """(hypothesis, reference) pairs: a reference with ~15% word errors as hypothesis."""
    rng = random.Random(seed)
    letters = "abdefgikmnoprstuwyzɛŋɔ"
    lexicon = ["".join(rng.choice(letters) + rng.choice(["", "\u0301", "\u0300"])
                       for _ in range(rng.randint(1, 8))) for _ in range(200)]
    pairs = []
    for _ in range(count):
        ref = [rng.choice(lexicon) for _ in range(words_per_pair)]
        hyp = []
        for word in ref:
            roll = rng.random()
            if roll < 0.05:
                continue
            hyp.append(rng.choice(lexicon) if roll < 0.10 else word)
            if roll > 0.95:
                hyp.append(rng.choice(lexicon))
        pairs.append((" ".join(hyp), " ".join(ref)))
    return pairs


class TestChrf:
    def test_identical(self):
        assert chrf("abc", "abc") == 1.0

    def test_empty_hypothesis(self):
        assert chrf("", "abc") == 0.0

    def test_empty_reference(self):
        assert chrf("abc", "") == 0.0

    def test_both_empty(self):
        assert chrf("", "") == 1.0

    def test_against_brute_force_fixture(self):
        # frozen from the independent oracle
        expected = brute_chrf("abcd", "abce")
        assert chrf("abcd", "abce") == pytest.approx(expected, abs=1e-12)
        assert chrf("abcd", "abce") == pytest.approx(0.4791666666666667, abs=1e-12)

    def test_spaces_excluded_from_ngrams(self):
        assert chrf("ab cd", "abcd") == 1.0

    @settings(max_examples=examples(3))
    @given(metric_text, metric_text)
    def test_matches_oracle(self, hyp, ref):
        assert chrf(hyp, ref) == pytest.approx(brute_chrf(hyp, ref), abs=1e-9)

    @settings(max_examples=examples(2))
    @given(metric_text, metric_text)
    def test_range(self, hyp, ref):
        assert 0.0 <= chrf(hyp, ref) <= 1.0

    @settings(max_examples=examples(1.5))
    @given(unicode_text, unicode_text)
    def test_matches_oracle_on_unicode(self, hyp, ref):
        assert chrf(hyp, ref) == pytest.approx(brute_chrf(hyp, ref), abs=1e-9)

    @pytest.mark.parametrize("max_n", range(1, 9))
    @settings(max_examples=examples(0.6))
    @given(hyp=unicode_text, ref=unicode_text)
    # periodic, so clipping changes the matches at every order
    @example(hyp="aɛ\u0301ŋ\U0001F600" * 6, ref="aɛ\u0301ŋ\U0001F600" * 3)
    def test_matches_oracle_at_every_order(self, max_n, hyp, ref):
        """The per-order counter on characters, as chrF calls it."""
        assert _matches_and_totals(hyp, ref, max_n) == \
            brute_ngram_statistics(list(hyp), list(ref), max_n)

    @staticmethod
    def assert_statistics_exact(pairs):
        for hyp, ref in pairs:
            assert_chrf_exact(hyp, ref)

    def test_statistics_exact_on_eval_like_pairs(self):
        self.assert_statistics_exact(eval_like_pairs(seed=3, count=60, words_per_pair=25))

    def test_statistics_exact_on_document_pairs(self):
        """Units of 120 words (about 950 characters), longer than a document eval unit."""
        self.assert_statistics_exact(eval_like_pairs(seed=6, count=8, words_per_pair=120))


class TestBleu:
    def test_identical(self):
        assert bleu("the cat sat", "the cat sat") == 100.0

    def test_clipped_unigram(self):
        clipped, totals, _ = _matches_and_totals(_bleu_tokens("the the the the"),
                                                 _bleu_tokens("the cat"), 4)
        assert (clipped[0], totals[0]) == (1, 4)

    def test_empty_hypothesis(self):
        assert bleu("", "the cat") == 0.0

    @settings(max_examples=examples(3))
    @given(metric_text, metric_text)
    def test_matches_oracle(self, hyp, ref):
        got = bleu(hyp, ref)
        assert got == pytest.approx(brute_bleu(hyp, ref), abs=1e-9)
        assert 0.0 <= got <= 100.0

    @settings(max_examples=examples(1.5))
    @given(metric_text.filter(lambda t: t.split()), metric_text)
    def test_monotone_degradation(self, ref, hyp):
        """Appending a non-matching token never increases clipped counts."""
        before_clipped, before_totals, _ = _matches_and_totals(
            _bleu_tokens(hyp), _bleu_tokens(ref), 4)
        after_clipped, after_totals, _ = _matches_and_totals(
            _bleu_tokens((hyp + " zzz").strip()), _bleu_tokens(ref), 4)
        assert all(a >= b for a, b in zip(after_clipped, before_clipped))
        # clipped counts never grow faster than totals
        assert all(a - b <= ta - tb for a, b, ta, tb in
                   zip(after_clipped, before_clipped, after_totals, before_totals))

    @settings(max_examples=examples(1.5))
    @given(unicode_text, unicode_text)
    def test_matches_oracle_on_unicode(self, hyp, ref):
        assert bleu(hyp, ref) == pytest.approx(brute_bleu(hyp, ref), abs=1e-9)

    @pytest.mark.parametrize("max_n", range(1, 9))
    @settings(max_examples=examples(0.6))
    @given(hyp=unicode_tokens, ref=unicode_tokens)
    @example(hyp=["a", "ɛ", "ŋɔ"] * 6, ref=["a", "ɛ", "ŋɔ"] * 3)
    def test_matches_oracle_at_every_order(self, max_n, hyp, ref):
        """The per-order counter on tokens, encoded as BLEU encodes them."""
        assert _matches_and_totals(_bleu_tokens(" ".join(hyp)), _bleu_tokens(" ".join(ref)),
                                   max_n) == brute_ngram_statistics(hyp, ref, max_n)

    def test_token_grams_do_not_collide(self):
        """Token pairs that concatenate to the same string are different bigrams."""
        assert _matches_and_totals(_bleu_tokens("ab c"), _bleu_tokens("a bc"), 2)[0] == [0, 0]
        self.assert_statistics_exact([("ab c", "a bc"), ("x ab c y", "x a bc y"),
                                      ("ab c ab c", "abc a bc")])

    @staticmethod
    def assert_statistics_exact(pairs):
        for hyp, ref in pairs:
            assert _matches_and_totals(_bleu_tokens(hyp), _bleu_tokens(ref), 4) == \
                brute_ngram_statistics(hyp.split(), ref.split(), 4)

    def test_statistics_exact_on_eval_like_pairs(self):
        self.assert_statistics_exact(eval_like_pairs(seed=4, count=60, words_per_pair=25))

    def test_statistics_exact_on_document_pairs(self):
        """Units of 120 words (about 950 characters), longer than a document eval unit."""
        self.assert_statistics_exact(eval_like_pairs(seed=7, count=8, words_per_pair=120))


class TestErrorRates:
    def test_cer_trivial(self):
        assert cer("abc", "abc") == 0.0

    def test_cer_substitution(self):
        assert cer("abd", "abc") == pytest.approx(1 / 3)

    def test_cer_empty_hypothesis(self):
        assert cer("", "abc") == 1.0

    def test_cer_empty_reference(self):
        with pytest.raises(ValueError, match="undefined denominator"):
            cer("abc", "")

    def test_wer_trivial(self):
        assert wer("a b c", "a b c") == 0.0

    def test_wer_substitution(self):
        assert wer("a x c", "a b c") == pytest.approx(1 / 3)

    def test_wer_insertion(self):
        assert wer("a b c d", "a b c") == pytest.approx(1 / 3)

    def test_wer_empty_reference(self):
        with pytest.raises(ValueError, match="undefined denominator"):
            wer("a b", "   ")

    @settings(max_examples=examples(3))
    @given(st.text(alphabet="abcd ", max_size=40), st.text(alphabet="abcd ", max_size=40))
    def test_edit_distance_matches_oracle(self, a, b):
        assert edit_distance(a, b) == brute_edit_distance(a, b)

    @settings(max_examples=examples(1.5))
    @given(unicode_text, unicode_text)
    def test_edit_distance_matches_oracle_on_unicode(self, a, b):
        assert edit_distance(a, b) == brute_edit_distance(a, b)

    @settings(max_examples=examples(1.5))
    @given(unicode_tokens, unicode_tokens)
    def test_edit_distance_matches_oracle_on_tokens(self, a, b):
        assert edit_distance(a, b) == brute_edit_distance(a, b)

    @settings(max_examples=examples(1.5))
    @given(unicode_text, unicode_text)
    def test_edit_distance_symmetric(self, a, b):
        assert edit_distance(a, b) == edit_distance(b, a)

    def test_edit_distance_long_pair(self):
        # ~1,000 chars: the bit vectors span many machine words
        rng = random.Random(7)
        ref = "".join(rng.choice(UNICODE_ALPHABET) for _ in range(1000))
        hyp = "".join(c if rng.random() > 0.1 else rng.choice(UNICODE_ALPHABET)
                      for c in ref if rng.random() > 0.05)
        assert edit_distance(hyp, ref) == brute_edit_distance(hyp, ref)

    def test_error_rates_on_eval_like_pairs(self):
        for hyp, ref in eval_like_pairs(seed=5, count=30, words_per_pair=25):
            assert cer(hyp, ref) == brute_edit_distance(hyp, ref) / len(ref)
            ref_tokens = ref.split()
            assert wer(hyp, ref) == brute_edit_distance(hyp.split(), ref_tokens) / len(ref_tokens)

    def test_cer_may_exceed_one(self):
        assert cer("aaaaaaaa", "b") == 8.0


class TestAggregate:
    def test_mean_of_sentences(self):
        assert aggregate([0.2, 0.4, 0.6]) == pytest.approx(0.4)

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            aggregate([])

    def test_published_mean_chrf_column(self):
        """Mean of the per-language chrF column for the strongest model."""
        from savanna.leaderboard import published_reference_data

        data = published_reference_data()
        column = [entry["chrf"] for entry in data.scores["sunflower-32b"]["xx-eng"].values()]
        assert len(column) == 31
        assert aggregate(column) == pytest.approx(0.435, abs=0.0005)
