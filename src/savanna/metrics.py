"""Reference implementations of chrF, BLEU, CER and WER.

All scoring functions expect inputs already normalized with the metric
profile from :mod:`savanna.textnorm`.  The configuration is fixed, as in
the published tables: chrF over character orders 1-6 with beta=2 (Popović
2015), add-one smoothed sentence BLEU-4, and a direction's score is the
mean of its sentence scores (sacreBLEU conventions, Post 2018).

chrF and BLEU count one n-gram order at a time.  Each side is a sequence
of strings: chrF's characters, or BLEU's tokens each with a trailing space.
An order's grams are the previous order's grams concatenated with the next
element, so every gram is a string whose hash Python caches, and the
counting runs in C.  Tokens hold no whitespace, so the trailing space keeps
concatenated token grams apart.  CER and WER use the bit-parallel
Levenshtein distance of Myers 1999 ("A fast bit-vector algorithm for
approximate string matching based on dynamic programming") in Hyyrö's
global-distance form, so the elements it compares must be hashable.

Every metric first trims the common prefix and suffix of its two sides, as
diff algorithms do (Myers 1986), and adds back what the trimmed part would
have counted, so the results are exact.  Edit distance is unchanged by a
shared affix.  chrF and BLEU keep ``max_n - 1`` shared elements next to the
middle: each trimmed gram then lies wholly inside the shared affix, so it
appears at the same place on both sides and adds one match and one gram to
each side's total, at every order.

chrF also cuts the inside of every word run the two sides share, keeping
``CHRF_ORDER - 1`` characters at each end of a run longer than twice that
and joining what is left.  A removed gram lies wholly inside the run, so
the same gram goes from both sides, and a gram across a join is made of
kept characters, so it is the same on both sides.  Each order thus loses
one gram per removed character from both totals and from the clipped
matches, and adds them back, so the statistics are exact.  The affix trim
runs on what is left,
so a run at an end of both sides keeps context on its inner side only.
CER, WER and BLEU keep the affix trim only.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from operator import add
from typing import Sequence

CHRF_ORDER = 6
CHRF_BETA = 2.0
BLEU_ORDER = 4


@dataclass
class SentenceScores:
    chrf: float
    bleu: float
    cer: float
    wer: float


def _common_affixes(a: Sequence, b: Sequence) -> tuple[int, int]:
    """Lengths ``(p, s)`` of the longest common prefix of ``a`` and ``b`` and
    of the longest common suffix of what follows it, so that
    ``p + s <= min(len(a), len(b))``.

    Each run is found by bisecting on slice equality, so the comparisons run
    in C and a long shared run costs a few slices, not a loop per element.
    """
    la, lb = len(a), len(b)
    n = la if la < lb else lb
    p = 0
    if n and a[0] == b[0]:
        p, hi = 1, n + 1  # a[:p] == b[:p], and the common prefix is shorter than hi
        while hi - p > 1:
            mid = (p + hi) // 2
            if a[p:mid] == b[p:mid]:
                p = mid
            else:
                hi = mid
    n -= p
    s = 0
    if n and a[la - 1] == b[lb - 1]:
        s, hi = 1, n + 1  # the same, counted from the ends
        while hi - s > 1:
            mid = (s + hi) // 2
            if a[la - mid:la - s] == b[lb - mid:lb - s]:
                s = mid
            else:
                hi = mid
    return p, s


def _shared_runs(a: Sequence[str], b: Sequence[str],
                 min_chars: int) -> list[tuple[int, int, int]]:
    """Runs ``a[i:i + n] == b[j:j + n]`` of non-empty words, as ``(i, j, n)``,
    each joining more than ``min_chars`` characters.  They increase in both
    ``i`` and ``j``, so no two overlap on either side.

    A greedy scan of ``a``: each word is looked up in ``b`` on the diagonal
    of the last lookup, where substitutions leave it, else at its first
    occurrence in ``b`` if that follows the last run.  The run through the
    two is extended both ways, back to the last run at most, and kept if it
    is long enough.

    Cost: linear in the words.  A kept run moves the scan past its end, and
    one that is not kept holds at most ``min_chars`` words, since each word
    has a character, so a word starts at most ``min_chars + 2`` comparisons.
    """
    first = dict(zip(reversed(b), range(len(b) - 1, -1, -1)))  # each word's first position
    runs = []
    la, lb = len(a), len(b)
    i_min = j_min = i = 0  # a[i_min:] and b[j_min:] follow the last run
    d = 0  # the diagonal of the last lookup, j - i
    while i < la:
        word = a[i]
        if i + d >= lb or b[i + d] != word:
            j = first.get(word, -1)
            if j < j_min:
                i += 1
                continue
            d = j - i
        start, end = i, i + 1
        while start > i_min and start + d > j_min and a[start - 1] == b[start - 1 + d]:
            start -= 1
        while end < la and end + d < lb and a[end] == b[end + d]:
            end += 1
        if sum(map(len, a[start:end])) > min_chars:
            runs.append((start, start + d, end - start))
            i = i_min = end
            j_min = end + d
        else:
            i += 1
    return runs


def _matches_and_totals(hyp: Sequence[str], ref: Sequence[str], max_n: int,
                        cut: int = 0) -> tuple[list[int], list[int], list[int]]:
    """Per-order clipped matches and hypothesis/reference n-gram totals, with
    ``cut`` grams per order that were removed from both sides as matches.

    The elements must be strings that no concatenation of others can equal
    (single characters, or tokens ending in a separator they never hold).
    Only the middles between the shared affixes, less ``max_n - 1`` elements
    of context on each side, are counted; each of the ``k`` trimmed grams per
    order is a match on both sides.
    """
    p, s = _common_affixes(hyp, ref)
    p = p - max_n + 1 if p >= max_n else 0
    s = s - max_n + 1 if s >= max_n else 0
    k = p + s
    if k:
        hyp = hyp[p:len(hyp) - s]
        ref = ref[p:len(ref) - s]
    k += cut
    matched, hyp_total, ref_total = [], [], []
    hyp_grams, ref_grams = hyp, ref
    for n in range(1, max_n + 1):
        if n > 1:
            hyp_grams = list(map(add, hyp_grams, hyp[n - 1:]))
            ref_grams = list(map(add, ref_grams, ref[n - 1:]))
        ref_count_of = Counter(ref_grams).get
        order_matched = 0
        for gram, count in Counter(hyp_grams).items():
            ref_count = ref_count_of(gram)
            if ref_count:
                # a conditional, not min(): the builtin call costs more than the comparison
                order_matched += count if count < ref_count else ref_count
        matched.append(order_matched + k)
        hyp_total.append(len(hyp_grams) + k)
        ref_total.append(len(ref_grams) + k)
    return matched, hyp_total, ref_total


def _chrf_statistics(hypothesis: str, reference: str) -> tuple[list[int], list[int], list[int]]:
    """chrF's per-order clipped matches and totals over the characters of
    both sides, spaces removed.  The inside of each long word run the two
    share is cut, keeping ``CHRF_ORDER - 1`` characters at each end."""
    hyp_words, ref_words = hypothesis.split(), reference.split()
    context = CHRF_ORDER - 1
    hyp_parts, ref_parts = [], []
    i0 = j0 = cut = 0
    for i, j, n in _shared_runs(hyp_words, ref_words, 2 * context):
        run = "".join(hyp_words[i:i + n])
        kept = run[:context] + run[-context:]
        hyp_parts += "".join(hyp_words[i0:i]), kept
        ref_parts += "".join(ref_words[j0:j]), kept
        cut += len(run) - 2 * context
        i0, j0 = i + n, j + n
    hyp_parts.append("".join(hyp_words[i0:]))
    ref_parts.append("".join(ref_words[j0:]))
    return _matches_and_totals("".join(hyp_parts), "".join(ref_parts), CHRF_ORDER, cut)


def _bleu_tokens(text: str) -> list[str]:
    """Whitespace tokens, each with a trailing space so that their concatenations stay apart."""
    return [token + " " for token in text.split()]


def chrf(hypothesis: str, reference: str) -> float:
    """Character n-gram F-score in [0, 1]; 1 when both sides are empty, 0 when one is."""
    matched, hyp_total, ref_total = _chrf_statistics(hypothesis, reference)
    precisions, recalls = [], []
    for m, h, r in zip(matched, hyp_total, ref_total):
        if r == 0:
            continue  # orders with no reference n-grams are skipped
        precisions.append(m / h if h > 0 else 0.0)
        recalls.append(m / r)
    if not precisions:
        # No reference n-grams at any order: both sides empty scores 1.
        return 1.0 if sum(hyp_total) == 0 else 0.0
    p = sum(precisions) / len(precisions)
    r = sum(recalls) / len(recalls)
    if p + r == 0.0:
        return 0.0
    b2 = CHRF_BETA * CHRF_BETA
    return (1 + b2) * p * r / (b2 * p + r)


def bleu(hypothesis: str, reference: str) -> float:
    """Sentence BLEU in [0, 100], adding one to the counts of orders 2 and up."""
    hyp_tokens = _bleu_tokens(hypothesis)
    if not hyp_tokens:
        return 0.0
    ref_tokens = _bleu_tokens(reference)
    clipped, totals, _ = _matches_and_totals(hyp_tokens, ref_tokens, BLEU_ORDER)
    log_sum = 0.0
    for n, (matches, total) in enumerate(zip(clipped, totals), start=1):
        if n >= 2:
            p = (matches + 1) / (total + 1)
        else:
            p = matches / total  # the unigram total is the hypothesis length, so not 0
        if p == 0.0:
            return 0.0
        log_sum += math.log(p)
    geo_mean = math.exp(log_sum / BLEU_ORDER)
    bp = math.exp(min(0.0, 1.0 - len(ref_tokens) / len(hyp_tokens)))
    return 100.0 * geo_mean * bp


def edit_distance(a: Sequence, b: Sequence) -> int:
    """Levenshtein distance with unit costs; elements must be hashable.

    Myers' bit-vector recurrence in Hyyrö's global form: one Python int per
    symbol marks its positions in the shorter sequence, and each element of
    the longer one updates the vertical +1/-1 delta vectors of the whole
    column at once.  Row 0 of the DP matrix is ``j``, so the distance is
    the last column's row-0 value, ``len(a)``, plus its +1 deltas less its
    -1 deltas.

    The common prefix and suffix are trimmed first: an optimal alignment
    matches them element for element (Myers 1986), so only the differing
    middles reach the recurrence.
    """
    p, s = _common_affixes(a, b)
    if p or s:
        a = a[p:len(a) - s]
        b = b[p:len(b) - s]
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    peq: dict = {}
    bit = 1
    for y in b:
        peq[y] = peq.get(y, 0) | bit
        bit <<= 1
    mask = bit - 1
    pv, mv = mask, 0
    for x in a:
        eq = peq.get(x, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (mask ^ (xh | pv))
        mh = pv & xh
        ph = (ph << 1) | 1  # row 0 of the matrix grows by 1 per column
        pv = ((mh << 1) | (mask ^ (xv | ph))) & mask
        mv = ph & xv
    return len(a) + pv.bit_count() - mv.bit_count()


def cer(hypothesis: str, reference: str) -> float:
    """Character error rate: edit distance over reference length (may exceed 1)."""
    if len(reference) == 0:
        raise ValueError("undefined denominator: empty reference")
    return edit_distance(hypothesis, reference) / len(reference)


def wer(hypothesis: str, reference: str) -> float:
    """Word error rate over whitespace-separated tokens."""
    ref_tokens = reference.split()
    if not ref_tokens:
        raise ValueError("undefined denominator: reference has no tokens")
    return edit_distance(hypothesis.split(), ref_tokens) / len(ref_tokens)


def aggregate(values: Sequence[float]) -> float:
    """Arithmetic mean of per-sentence scores."""
    if len(values) == 0:
        raise ValueError("cannot aggregate an empty list")
    return sum(values) / len(values)
