"""Walk through the translation metrics on a handful of Luganda examples.

Shows sentence-level chrF/BLEU/CER/WER, how normalization affects scoring,
and the difference between mean-of-sentences and pooled corpus aggregation.
"""

from savanna.metrics import (
    aggregate,
    bleu,
    bleu_statistics,
    cer,
    chrf,
    chrf_statistics,
    corpus_bleu,
    corpus_chrf,
    wer,
)
from savanna.textnorm import metric_profile, normalize


def main():
    pairs = [
        ("the child goes to town", "the child goes to town"),
        ("the child walks to town", "the child goes to town"),
        ("a boy went to the city", "the child goes to town"),
        ("", "the child goes to town"),
    ]

    print("sentence-level scores (hypothesis vs reference)")
    print(f"{'hypothesis':<26} {'chrF':>7} {'BLEU':>8} {'CER':>6} {'WER':>6}")
    for hyp, ref in pairs:
        print(f"{hyp or '<empty>':<26} {chrf(hyp, ref):>7.4f} {bleu(hyp, ref):>8.3f} "
              f"{cer(hyp, ref):>6.3f} {wer(hyp, ref):>6.3f}")

    # scoring is done on normalized text: case and punctuation do not count
    profile = metric_profile()
    raw_hyp, raw_ref = "  Omwana, agenda mu Kibuga! ", "omwana agenda mu kibuga"
    print("\nnormalization before scoring")
    print(f"  raw hypothesis: {raw_hyp!r}")
    print(f"  normalized:     {normalize(raw_hyp, profile)!r}")
    print(f"  chrF vs {raw_ref!r}: {chrf(normalize(raw_hyp, profile), raw_ref):.4f}")

    # mean of sentence scores (what eval reports) vs scores of pooled counts
    scored = [(h, r) for h, r in pairs if h]
    print("\nmean of sentences vs pooled corpus")
    mean_chrf = aggregate([chrf(h, r) for h, r in scored])
    pooled_chrf = corpus_chrf(chrf_statistics(h, r) for h, r in scored)
    print(f"  chrF mean of sentences: {mean_chrf:.4f}")
    print(f"  chrF pooled corpus:     {pooled_chrf:.4f}")
    mean_bleu = aggregate([bleu(h, r) for h, r in scored])
    pooled_bleu = corpus_bleu(bleu_statistics(h, r) for h, r in scored)
    print(f"  BLEU mean of sentences: {mean_bleu:.3f}")
    print(f"  BLEU pooled corpus:     {pooled_bleu:.3f}")


if __name__ == "__main__":
    main()
