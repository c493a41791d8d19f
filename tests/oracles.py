"""Independent brute-force oracles used to cross-check the main implementations.

These deliberately avoid sharing code with the package: n-grams are
enumerated into plain dicts, edit distance uses a full Wagner-Fischer
matrix, and the F-score arithmetic is written out longhand.
"""

from __future__ import annotations

import math


def _ngram_dict(seq, n):
    counts = {}
    for i in range(len(seq) - n + 1):
        gram = tuple(seq[i : i + n])
        counts[gram] = counts.get(gram, 0) + 1
    return counts


def brute_chrf(hypothesis: str, reference: str, max_n: int = 6, beta: float = 2.0) -> float:
    hyp = [c for c in hypothesis if not c.isspace()]
    ref = [c for c in reference if not c.isspace()]
    if not hyp and not ref:
        return 1.0
    if not hyp or not ref:
        return 0.0
    precisions, recalls = [], []
    for n in range(1, max_n + 1):
        hyp_grams = _ngram_dict(hyp, n)
        ref_grams = _ngram_dict(ref, n)
        total_ref = sum(ref_grams.values())
        if total_ref == 0:
            continue
        total_hyp = sum(hyp_grams.values())
        overlap = 0
        for gram, count in hyp_grams.items():
            if gram in ref_grams:
                overlap += count if count < ref_grams[gram] else ref_grams[gram]
        precisions.append(overlap / total_hyp if total_hyp else 0.0)
        recalls.append(overlap / total_ref)
    p = sum(precisions) / len(precisions)
    r = sum(recalls) / len(recalls)
    if p + r == 0:
        return 0.0
    return (1 + beta ** 2) * p * r / (beta ** 2 * p + r)


def brute_bleu(hypothesis: str, reference: str, max_n: int = 4,
               add_one_smoothing: bool = True) -> float:
    hyp = hypothesis.split()
    ref = reference.split()
    if not hyp:
        return 0.0
    log_precisions = []
    for n in range(1, max_n + 1):
        hyp_grams = _ngram_dict(hyp, n)
        ref_grams = _ngram_dict(ref, n)
        total = sum(hyp_grams.values())
        overlap = 0
        for gram, count in hyp_grams.items():
            if gram in ref_grams:
                overlap += min(count, ref_grams[gram])
        if add_one_smoothing and n >= 2:
            p = (overlap + 1) / (total + 1)
        else:
            p = overlap / total if total else 0.0
        if p == 0:
            return 0.0
        log_precisions.append(math.log(p))
    score = math.exp(sum(log_precisions) / max_n)
    if len(hyp) < len(ref):
        score *= math.exp(1 - len(ref) / len(hyp))
    return 100.0 * score


def brute_edit_distance(a, b) -> int:
    """Full-matrix Wagner-Fischer, independent of the two-row implementation."""
    rows, cols = len(a) + 1, len(b) + 1
    d = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        d[i][0] = i
    for j in range(cols):
        d[0][j] = j
    for i in range(1, rows):
        for j in range(1, cols):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1, d[i - 1][j - 1] + cost)
    return d[-1][-1]


def brute_ngram_statistics(hyp, ref, max_n):
    """Per-order (clipped matches, hypothesis total, reference total), one dict per order."""
    matched, hyp_total, ref_total = [], [], []
    for n in range(1, max_n + 1):
        hyp_grams = _ngram_dict(hyp, n)
        ref_grams = _ngram_dict(ref, n)
        matched.append(sum(min(c, ref_grams[g]) for g, c in hyp_grams.items() if g in ref_grams))
        hyp_total.append(sum(hyp_grams.values()))
        ref_total.append(sum(ref_grams.values()))
    return matched, hyp_total, ref_total
