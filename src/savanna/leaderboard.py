"""Leaderboard construction: mean tables, per-language tables, winner counts.

Scores are held at full precision as ``scores[model][direction][lang][metric]``
with directions ``"xx-eng"`` and ``"eng-xx"``; tables are rendered with
3-decimal rounding.  Models are ranked by chrF.  Reference score tables for
six published models are shipped as CSV fixtures under ``savanna/data``.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from . import jsonio
from .evalharness import EvalRunReport

XX_TO_ENG = "xx-eng"
ENG_TO_XX = "eng-xx"
DIRECTIONS = (XX_TO_ENG, ENG_TO_XX)
METRICS = ("chrf", "bleu", "cer", "wer")
REPORT_FILES = ("mean_table.md", f"per_language_{XX_TO_ENG}.md", f"per_language_{ENG_TO_XX}.md",
                "winner_counts.json", "chart.csv")


@dataclass
class LeaderboardData:
    # scores[model][direction][lang][metric] -> float
    scores: dict[str, dict[str, dict[str, dict[str, float]]]] = field(default_factory=dict)
    language_names: dict[str, str] = field(default_factory=dict)

    def add_score(self, model: str, direction: str, lang: str, metric: str,
                  value: float) -> None:
        self.scores.setdefault(model, {}).setdefault(direction, {}).setdefault(lang, {})[
            metric
        ] = value

    def models(self) -> list[str]:
        return list(self.scores)

    def languages(self) -> list[str]:
        langs: set[str] = set()
        for per_direction in self.scores.values():
            for per_lang in per_direction.values():
                langs.update(per_lang)
        return sorted(langs)

    def validate_consistency(self) -> None:
        """All models must cover the same languages in each direction."""
        reference: dict[str, set[str]] = {}
        for model, per_direction in self.scores.items():
            for direction, per_lang in per_direction.items():
                langs = set(per_lang)
                if direction not in reference:
                    reference[direction] = langs
                elif reference[direction] != langs:
                    raise ValueError(
                        f"model {model!r} covers different languages in {direction} "
                        f"than the other reports"
                    )

    def mean(self, model: str, direction: str, metric: str) -> float:
        per_lang = self.scores[model][direction]
        values = [entry[metric] for entry in per_lang.values() if metric in entry]
        if not values:
            raise ValueError(f"no {metric} scores for {model} {direction}")
        return sum(values) / len(values)

    def covers_both_directions(self) -> bool:
        """Every model has chrF for every language in both directions."""
        langs = self.languages()
        return all("chrf" in self.scores[model].get(direction, {}).get(lang, {})
                   for model in self.models() for direction in DIRECTIONS
                   for lang in langs)

    def bidirectional_mean(self, model: str, lang: str) -> float:
        return (self.scores[model][XX_TO_ENG][lang]["chrf"]
                + self.scores[model][ENG_TO_XX][lang]["chrf"]) / 2


def load_score_csv(data: LeaderboardData, path: Path | resources.abc.Traversable,
                   direction: str, metric: str) -> None:
    """Load a per-language score table (columns: lang, language, one column
    per model) into ``data``.  The header must have the first two, every row
    as many cells as the header, and every score must be a finite number."""
    with path.open(encoding="utf-8", newline="") as f, jsonio.naming_bad_utf8(path):
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: file is empty; expected a header row")
        if len(header) < 2:
            raise ValueError(f"{path}: lacks columns: expected lang, language, "
                             "then one column per model")
        models = header[2:]
        for row in reader:
            try:
                if len(row) != len(header):
                    raise ValueError(f"{len(row)} cells, header has {len(header)}")
                lang, lang_name = row[0], row[1]
                data.language_names[lang] = lang_name
                for model, value in zip(models, row[2:]):
                    if not math.isfinite(score := float(value)):
                        raise ValueError(f"score of {model} for {lang} is {value!r}, not finite")
                    data.add_score(model, direction, lang, metric, score)
            except ValueError as exc:
                raise ValueError(f"{path}:{reader.line_num}: {exc}") from exc


def published_reference_data() -> LeaderboardData:
    """Scores of the six published models over the 31 evaluation languages."""
    data = LeaderboardData()
    pkg = resources.files("savanna.data")
    load_score_csv(data, pkg.joinpath("chrf_xx_to_eng.csv"), XX_TO_ENG, "chrf")
    load_score_csv(data, pkg.joinpath("chrf_eng_to_xx.csv"), ENG_TO_XX, "chrf")
    load_score_csv(data, pkg.joinpath("bleu_xx_to_eng.csv"), XX_TO_ENG, "bleu")
    return data


def add_run_report(data: LeaderboardData, model: str, report: EvalRunReport) -> None:
    """Fold one evaluation run's per-direction aggregates into the board.

    A direction with no scored unit has no aggregates and adds no score.
    """
    for result in report.directions:
        agg = result.aggregates
        if agg is None:
            continue
        src, tgt = result.direction
        if tgt == "eng":
            direction, lang = XX_TO_ENG, src
        else:
            direction, lang = ENG_TO_XX, tgt
        for metric in METRICS:
            data.add_score(model, direction, lang, metric, getattr(agg, metric))


def winner_counts(data: LeaderboardData, models: list[str] | None = None) -> dict[str, int]:
    """Per-model count of languages with the best bidirectional mean chrF.

    Ties are resolved by flagging every maximal model as a winner.
    """
    models = models or data.models()
    counts = {m: 0 for m in models}
    for lang in data.languages():
        values = {m: data.bidirectional_mean(m, lang) for m in models}
        best = max(values.values())
        for m, v in values.items():
            if v == best:
                counts[m] += 1
    return counts


def mean_table_markdown(data: LeaderboardData) -> str:
    """Mean-score table: one row per model, chrF/BLEU for both directions."""
    lines = [
        "| Model | xx->eng chrF | xx->eng BLEU | eng->xx chrF | eng->xx BLEU |",
        "|---|---|---|---|---|",
    ]
    for model in data.models():
        row = [model]
        for direction in DIRECTIONS:
            for metric in ("chrf", "bleu"):
                try:
                    value = data.mean(model, direction, metric)
                    row.append(f"{value:.3f}")
                except (KeyError, ValueError):
                    row.append("-")
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines) + "\n"


def per_language_table_markdown(data: LeaderboardData, direction: str) -> str:
    """Per-language chrF table of the languages scored in ``direction``, with
    the best score per row flagged in bold."""
    models = [m for m in data.models() if direction in data.scores[m]]
    lines = ["| Code | Language | " + " | ".join(models) + " |",
             "|" + "---|" * (len(models) + 2)]
    for lang in sorted(data.scores[models[0]][direction]):
        values = {m: data.scores[m][direction][lang]["chrf"] for m in models}
        best = max(values.values())
        row = [lang, data.language_names.get(lang, lang)]
        for m in models:
            cell = f"{values[m]:.3f}"
            if values[m] == best:
                cell = f"**{cell}**"
            row.append(cell)
        lines.append("| " + " | ".join(row) + " |")
    means = [f"**{data.mean(m, direction, 'chrf'):.3f}**" for m in models]
    lines.append("| | Mean | " + " | ".join(means) + " |")
    return "\n".join(lines) + "\n"


def bidirectional_chart_csv(data: LeaderboardData) -> str:
    """CSV of mean bidirectional chrF per language per model (chart data)."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["language", "model", "mean_bidirectional_chrf"])
    for lang in data.languages():
        for model in data.models():
            writer.writerow([lang, model, f"{data.bidirectional_mean(model, lang):.6f}"])
    return out.getvalue()


def make_leaderboard(data: LeaderboardData, winner_models: list[str] | None = None) -> dict:
    """The report of a populated score board: the text of each of its
    ``REPORT_FILES`` by name.  The winner counts and the chart, which rank
    bidirectional means, are made only when every model has chrF for every
    language in both directions.  Each of ``winner_models`` must be a model
    with scores, and each score of a language in a direction must include
    chrF, the metric models are ranked by."""
    for i, model in enumerate(winner_models or []):
        if model not in data.scores:
            raise ValueError(f"winner_models[{i}] is {model!r}, a model with no scores")
    for model, per_direction in data.scores.items():
        for direction, per_lang in per_direction.items():
            for lang, metrics in per_lang.items():
                if "chrf" not in metrics:
                    raise ValueError(f"model {model!r} has {direction} scores for {lang} but no "
                                     f"chrf, the metric models are ranked by")
    data.validate_consistency()
    report = {"mean_table.md": mean_table_markdown(data)}
    for direction in DIRECTIONS:
        if any(direction in d for d in data.scores.values()):
            report[f"per_language_{direction}.md"] = per_language_table_markdown(data, direction)
    if data.covers_both_directions():
        report["winner_counts.json"] = jsonio.dumps(winner_counts(data, winner_models))
        report["chart.csv"] = bidirectional_chart_csv(data)
    return report
