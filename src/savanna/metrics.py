"""Reference implementations of chrF, BLEU, CER and WER.

All scoring functions expect inputs already normalized with the metric
profile from :mod:`savanna.textnorm`.  The configuration is fixed, as in
the published tables: chrF over character orders 1-6 with beta=2 (Popović
2015), add-one smoothed sentence BLEU-4, and a direction's score is the
mean of its sentence scores (sacreBLEU conventions, Post 2018).  chrF and
BLEU also have a sufficient-statistics form, which ``corpus_chrf`` and
``corpus_bleu`` pool into one corpus score.

chrF and BLEU count the n-grams of every order in one pass per side, as
sacreBLEU does.  CER and WER use the bit-parallel Levenshtein distance of
Myers 1999 ("A fast bit-vector algorithm for approximate string matching
based on dynamic programming") in Hyyrö's global-distance form, so the
elements it compares must be hashable.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

CHRF_ORDER = 6
CHRF_BETA = 2.0
BLEU_ORDER = 4


@dataclass
class ChrfStatistics:
    """Per-order (matched, hypothesis total, reference total) counts."""

    matched: list[int]
    hyp_total: list[int]
    ref_total: list[int]

    def add(self, other: "ChrfStatistics") -> None:
        for i in range(len(self.matched)):
            self.matched[i] += other.matched[i]
            self.hyp_total[i] += other.hyp_total[i]
            self.ref_total[i] += other.ref_total[i]


@dataclass
class BleuStatistics:
    """Clipped match and total counts per order, plus lengths."""

    clipped: list[int]
    totals: list[int]
    hyp_len: int
    ref_len: int

    def add(self, other: "BleuStatistics") -> None:
        for i in range(len(self.clipped)):
            self.clipped[i] += other.clipped[i]
            self.totals[i] += other.totals[i]
        self.hyp_len += other.hyp_len
        self.ref_len += other.ref_len


@dataclass
class SentenceScores:
    chrf: float
    bleu: float
    cer: float
    wer: float


def _ngram_counts(seq: Sequence, max_n: int) -> Counter:
    """Every n-gram of orders 1..max_n, keyed by the gram, whose length is its order."""
    return Counter([seq[i : i + n] for n in range(1, max_n + 1) for i in range(len(seq) - n + 1)])


def _matches_and_totals(hyp: Sequence, ref: Sequence, max_n: int) -> tuple[list[int], list[int], list[int]]:
    """Per-order clipped matches and hypothesis/reference n-gram totals."""
    ref_counts = _ngram_counts(ref, max_n)
    matched = [0] * max_n
    for gram, count in _ngram_counts(hyp, max_n).items():
        ref_count = ref_counts.get(gram)
        if ref_count:
            matched[len(gram) - 1] += min(count, ref_count)
    hyp_total = [max(0, len(hyp) - n + 1) for n in range(1, max_n + 1)]
    ref_total = [max(0, len(ref) - n + 1) for n in range(1, max_n + 1)]
    return matched, hyp_total, ref_total


def chrf_statistics(hypothesis: str, reference: str) -> ChrfStatistics:
    # spaces never participate in n-grams
    hyp_chars = "".join(hypothesis.split())
    ref_chars = "".join(reference.split())
    return ChrfStatistics(*_matches_and_totals(hyp_chars, ref_chars, CHRF_ORDER))


def chrf_from_statistics(stats: ChrfStatistics) -> float:
    precisions, recalls = [], []
    for m, h, r in zip(stats.matched, stats.hyp_total, stats.ref_total):
        if r == 0:
            continue  # orders with no reference n-grams are skipped
        precisions.append(m / h if h > 0 else 0.0)
        recalls.append(m / r)
    if not precisions:
        # No reference n-grams at any order: both sides empty scores 1.
        return 1.0 if sum(stats.hyp_total) == 0 else 0.0
    p = sum(precisions) / len(precisions)
    r = sum(recalls) / len(recalls)
    if p + r == 0.0:
        return 0.0
    b2 = CHRF_BETA * CHRF_BETA
    return (1 + b2) * p * r / (b2 * p + r)


def chrf(hypothesis: str, reference: str) -> float:
    """Character n-gram F-score in [0, 1]; 1 when both sides are empty, 0 when one is."""
    return chrf_from_statistics(chrf_statistics(hypothesis, reference))


def bleu_statistics(hypothesis: str, reference: str) -> BleuStatistics:
    hyp_tokens = tuple(hypothesis.split())
    ref_tokens = tuple(reference.split())
    clipped, totals, _ = _matches_and_totals(hyp_tokens, ref_tokens, BLEU_ORDER)
    return BleuStatistics(clipped, totals, len(hyp_tokens), len(ref_tokens))


def bleu_from_statistics(stats: BleuStatistics, smooth: bool) -> float:
    """BLEU in [0, 100]; ``smooth`` adds one to the counts of orders 2 and up."""
    if stats.hyp_len == 0:
        return 0.0
    log_sum = 0.0
    for n, (clipped, total) in enumerate(zip(stats.clipped, stats.totals), start=1):
        if smooth and n >= 2:
            p = (clipped + 1) / (total + 1)
        else:
            p = clipped / total if total > 0 else 0.0
        if p == 0.0:
            return 0.0
        log_sum += math.log(p)
    geo_mean = math.exp(log_sum / len(stats.clipped))
    bp = math.exp(min(0.0, 1.0 - stats.ref_len / stats.hyp_len))
    return 100.0 * geo_mean * bp


def bleu(hypothesis: str, reference: str) -> float:
    """Sentence BLEU in [0, 100], add-one smoothed."""
    return bleu_from_statistics(bleu_statistics(hypothesis, reference), smooth=True)


def edit_distance(a: Sequence, b: Sequence) -> int:
    """Levenshtein distance with unit costs; elements must be hashable.

    Myers' bit-vector recurrence in Hyyrö's global form: one Python int per
    symbol marks its positions in the shorter sequence, and each element of
    the longer one updates the vertical +1/-1 delta vectors of the whole
    column at once.  ``score`` follows the last row of the DP matrix.
    """
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
    last = bit >> 1
    pv, mv, score = mask, 0, len(b)
    for x in a:
        eq = peq.get(x, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (mask ^ (xh | pv))
        mh = pv & xh
        if ph & last:
            score += 1
        elif mh & last:
            score -= 1
        ph = (ph << 1) | 1  # row 0 of the matrix grows by 1 per column
        pv = ((mh << 1) | (mask ^ (xv | ph))) & mask
        mv = ph & xv
    return score


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


def corpus_chrf(stats: Iterable[ChrfStatistics]) -> float:
    pooled = None
    for s in stats:
        if pooled is None:
            pooled = ChrfStatistics(list(s.matched), list(s.hyp_total), list(s.ref_total))
        else:
            pooled.add(s)
    if pooled is None:
        raise ValueError("cannot aggregate an empty list")
    return chrf_from_statistics(pooled)


def corpus_bleu(stats: Iterable[BleuStatistics]) -> float:
    pooled = None
    for s in stats:
        if pooled is None:
            pooled = BleuStatistics(list(s.clipped), list(s.totals), s.hyp_len, s.ref_len)
        else:
            pooled.add(s)
    if pooled is None:
        raise ValueError("cannot aggregate an empty list")
    return bleu_from_statistics(pooled, smooth=False)


def aggregate(values: Sequence[float]) -> float:
    """Arithmetic mean of per-sentence scores."""
    if len(values) == 0:
        raise ValueError("cannot aggregate an empty list")
    return sum(values) / len(values)
