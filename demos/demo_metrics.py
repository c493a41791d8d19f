"""Walk through the translation metrics on a handful of Luganda examples.

Shows sentence-level chrF/BLEU/CER/WER, how normalization affects scoring,
and how eval turns sentence scores into one score per direction.
"""

from savanna.metrics import aggregate, bleu, cer, chrf, wer
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

    # a direction's score is the mean of its sentence scores, as eval reports it
    print("\ndirection score: mean of sentence scores")
    print(f"  chrF: {aggregate([chrf(h, r) for h, r in pairs]):.4f}")
    print(f"  BLEU: {aggregate([bleu(h, r) for h, r in pairs]):.3f}")


if __name__ == "__main__":
    main()
