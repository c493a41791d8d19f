"""Evaluate against the echo stub, rescore offline, and build leaderboards.

Writes a synthetic 20x5 suite as CSV, loads it, runs it through the
reference-echo client (a live HttpCompletionClient drops in the same way),
shows the persisted run log, and renders the published reference
leaderboard with winner counts.
"""

import csv
import tempfile
from pathlib import Path

from savanna.evalharness import (
    N_CATEGORIES,
    SENTENCES_PER_CATEGORY,
    ReferenceEchoClient,
    load_suite,
    rescore_run_log,
    run_translation_eval,
)
from savanna.leaderboard import (
    XX_TO_ENG,
    make_leaderboard,
    published_reference_data,
    winner_counts,
)


def write_suite(path: Path, languages: tuple[str, ...]) -> None:
    """A suite of synthetic sentences, one per cell of the 20x5 grid, in the
    CSV layout that load_suite reads."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["category_id", "sent_index", "english", *languages])
        for cat in range(1, N_CATEGORIES + 1):
            for idx in range(SENTENCES_PER_CATEGORY):
                english = f"category {cat} sentence {idx}: the market by the river"
                writer.writerow([cat, idx, english, *(f"{lang} c{cat} s{idx} akatale ku mugga"
                                                      for lang in languages)])


def main():
    with tempfile.TemporaryDirectory() as tmp:
        write_suite(Path(tmp) / "suite.csv", ("aaa", "bbb"))
        suite = load_suite(Path(tmp) / "suite.csv")
        suite.validate(full=True)
        print(f"suite: {len(suite.items)} items in {', '.join(sorted(suite.languages))}")

        log = Path(tmp) / "run_log.jsonl"
        report = run_translation_eval(
            suite, ReferenceEchoClient(suite),
            directions=[("aaa", "eng"), ("eng", "aaa")],
            run_log_path=log,
        )
        print("\necho run")
        for d in report.directions:
            agg = d.aggregates
            print(f"  {d.direction[0]}->{d.direction[1]}: chrF {agg.chrf:.3f}, "
                  f"BLEU {agg.bleu:.1f}, CER {agg.cer:.3f}, WER {agg.wer:.3f} "
                  f"({d.evaluated} items, {d.failed} failed)")

        offline = rescore_run_log(log, suite)
        print(f"  offline rescore byte-identical: {offline.to_json() == report.to_json()}")
        print(f"  run log: {sum(1 for _ in open(log)) - 1} records persisted")

    # published reference scores for the six models over 31 languages
    data = published_reference_data()
    print("\npublished leaderboard, xx->eng chrF means")
    for model in data.models():
        print(f"  {model:<16} {data.mean(model, XX_TO_ENG, 'chrf'):.4f}")

    counts = winner_counts(
        data, ["sunflower-14b", "gemini-2.5-pro", "gpt-4o", "deepseek-chat", "grok-3"])
    print("\nbidirectional chrF winner counts (14B vs external models)")
    for model, n in sorted(counts.items(), key=lambda kv: -kv[1]):
        print(f"  {model:<16} {n:>2} of 31 languages")

    report = make_leaderboard(data)
    print("\nmean table (markdown)")
    print(report["mean_table.md"])


if __name__ == "__main__":
    main()
