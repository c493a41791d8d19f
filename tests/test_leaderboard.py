import pytest
from helpers import FlakyClient, synthetic_suite

from savanna import jsonio
from savanna.evalharness import (
    ReferenceEchoClient,
    run_translation_eval,
)
from savanna.leaderboard import (
    ENG_TO_XX,
    REPORT_FILES,
    XX_TO_ENG,
    LeaderboardData,
    add_run_report,
    bidirectional_chart_csv,
    load_score_csv,
    make_leaderboard,
    mean_table_markdown,
    per_language_table_markdown,
    published_reference_data,
    winner_counts,
)

NON_SUNFLOWER = ["gemini-2.5-pro", "gpt-4o", "deepseek-chat", "grok-3"]


@pytest.fixture(scope="module")
def published():
    return published_reference_data()


class TestPublishedData:
    def test_coverage(self, published):
        assert len(published.models()) == 6
        assert len(published.languages()) == 31
        published.validate_consistency()

    def test_language_names_attached(self, published):
        assert published.language_names["lug"] == "Luganda"
        assert published.language_names["ach"] == "Acholi"

    def test_mean_chrf_xx_eng(self, published):
        expected = {
            "sunflower-32b": 0.4349, "sunflower-14b": 0.4187,
            "gemini-2.5-pro": 0.4078, "gpt-4o": 0.3536,
            "deepseek-chat": 0.3082, "grok-3": 0.3466,
        }
        for model, value in expected.items():
            assert published.mean(model, XX_TO_ENG, "chrf") == pytest.approx(value, abs=0.0005)

    def test_mean_chrf_eng_xx(self, published):
        expected = {
            "sunflower-32b": 0.3572, "sunflower-14b": 0.3663,
            "gemini-2.5-pro": 0.3006, "gpt-4o": 0.2353,
            "deepseek-chat": 0.2373, "grok-3": 0.2472,
        }
        for model, value in expected.items():
            assert published.mean(model, ENG_TO_XX, "chrf") == pytest.approx(value, abs=0.0005)

    def test_mean_bleu_xx_eng(self, published):
        expected = {
            "sunflower-32b": 20.6252, "sunflower-14b": 19.6129,
            "gemini-2.5-pro": 18.5595, "gpt-4o": 14.8496,
            "deepseek-chat": 11.2595, "grok-3": 13.5082,
        }
        for model, value in expected.items():
            assert published.mean(model, XX_TO_ENG, "bleu") == pytest.approx(value, abs=0.0005)

    def test_winner_count_14b_vs_external(self, published):
        counts = winner_counts(published, ["sunflower-14b"] + NON_SUNFLOWER)
        assert counts["sunflower-14b"] == 24
        assert sum(counts.values()) == 31  # no ties at fixture precision

    def test_winner_count_all_models(self, published):
        counts = winner_counts(published)
        assert counts["sunflower-32b"] + counts["sunflower-14b"] == 25
        assert sum(counts.values()) == 31


class TestBoardOps:
    def small_board(self):
        data = LeaderboardData()
        for lang, a, b in (("aaa", 0.5, 0.3), ("bbb", 0.2, 0.6)):
            data.add_score("m1", XX_TO_ENG, lang, "chrf", a)
            data.add_score("m1", ENG_TO_XX, lang, "chrf", a)
            data.add_score("m2", XX_TO_ENG, lang, "chrf", b)
            data.add_score("m2", ENG_TO_XX, lang, "chrf", b)
        return data

    def test_mean_and_bidirectional(self):
        data = self.small_board()
        assert data.mean("m1", XX_TO_ENG, "chrf") == pytest.approx(0.35)
        assert data.bidirectional_mean("m1", "aaa") == pytest.approx(0.5)

    def test_winner_counts_with_tie(self):
        data = self.small_board()
        data.add_score("m2", XX_TO_ENG, "aaa", "chrf", 0.5)
        data.add_score("m2", ENG_TO_XX, "aaa", "chrf", 0.5)
        counts = winner_counts(data)
        assert counts == {"m1": 1, "m2": 2}  # tie on aaa flags both

    def test_consistency_check(self):
        data = self.small_board()
        data.add_score("m1", XX_TO_ENG, "ccc", "chrf", 0.1)
        with pytest.raises(ValueError, match="different languages"):
            data.validate_consistency()

    def test_mean_table_markdown(self):
        table = mean_table_markdown(self.small_board())
        assert table.startswith("| Model |")
        assert "| m1 | 0.350 |" in table

    def test_per_language_table_bolds_best(self):
        table = per_language_table_markdown(self.small_board(), XX_TO_ENG)
        assert "**0.500**" in table and "**0.600**" in table
        assert "| | Mean |" in table

    def test_chart_csv(self):
        csv_text = bidirectional_chart_csv(self.small_board())
        lines = csv_text.strip().splitlines()
        assert lines[0] == "language,model,mean_bidirectional_chrf"
        assert len(lines) == 5  # header + 2 langs x 2 models

    def test_make_leaderboard_artifacts(self, published):
        report = make_leaderboard(published)
        assert set(report) >= {"mean_table.md", "winner_counts.json",
                               "per_language_xx-eng.md", "per_language_eng-xx.md", "chart.csv"}
        assert set(report) == set(REPORT_FILES)
        assert report["winner_counts.json"] == jsonio.dumps(winner_counts(published))

    @pytest.mark.parametrize("drop", [(), ("m1", "m2")], ids=["with-winners", "without-winners"])
    def test_winner_model_without_scores_rejected(self, drop):
        data = self.small_board()
        for model in drop:
            del data.scores[model][ENG_TO_XX]
        with pytest.raises(ValueError,
                           match=r"^winner_models\[1\] is 'nobody', a model with no scores$"):
            make_leaderboard(data, ["m1", "nobody"])

    @pytest.mark.parametrize("drop", [("m1", "m2"), ("m2",)], ids=["both", "one"])
    def test_winners_and_chart_need_every_model_in_both_directions(self, drop):
        data = self.small_board()
        for model in drop:
            del data.scores[model][ENG_TO_XX]
        report = make_leaderboard(data)
        assert "per_language_xx-eng.md" in report
        assert "winner_counts.json" not in report and "chart.csv" not in report

    def test_load_score_csv_from_file(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("lang,language,m1,m2\nlug,Luganda,0.4,0.3\n")
        data = LeaderboardData()
        load_score_csv(data, path, XX_TO_ENG, "chrf")
        assert data.scores["m2"][XX_TO_ENG]["lug"]["chrf"] == 0.3

    @pytest.mark.parametrize("row", ["lug,Luganda,0.4", "lug,Luganda,0.4,0.3,0.2",
                                     "lug,Luganda,0.4,n/a"])
    def test_load_score_csv_rejects_bad_row(self, tmp_path, row):
        path = tmp_path / "scores.csv"
        path.write_text(f"lang,language,m1,m2\nach,Acholi,0.5,0.6\n{row}\n")
        with pytest.raises(ValueError, match=r"scores\.csv:3: "):
            load_score_csv(LeaderboardData(), path, XX_TO_ENG, "chrf")

    def test_load_score_csv_rejects_empty_file(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("")
        with pytest.raises(ValueError, match=r"scores\.csv: file is empty"):
            load_score_csv(LeaderboardData(), path, XX_TO_ENG, "chrf")


class TestAddRunReport:
    def test_run_report_folds_in(self):
        suite = synthetic_suite(languages=("aaa",), seed=1)
        report = run_translation_eval(suite, ReferenceEchoClient(suite),
                                      directions=[("aaa", "eng"), ("eng", "aaa")])
        data = LeaderboardData()
        add_run_report(data, "echo", report)
        assert data.scores["echo"][XX_TO_ENG]["aaa"]["chrf"] == pytest.approx(1.0)
        assert data.scores["echo"][ENG_TO_XX]["aaa"]["bleu"] == pytest.approx(100.0)
        assert data.bidirectional_mean("echo", "aaa") == pytest.approx(1.0)

    def test_direction_without_scores_is_skipped(self):
        suite = synthetic_suite(languages=("aaa",), seed=1)
        client = FlakyClient(ReferenceEchoClient(suite), fail_on=set(range(100)))
        report = run_translation_eval(suite, client, directions=[("aaa", "eng"), ("eng", "aaa")])
        assert report.directions[0].aggregates is None
        data = LeaderboardData()
        add_run_report(data, "echo", report)
        assert XX_TO_ENG not in data.scores["echo"]
        assert data.scores["echo"][ENG_TO_XX]["aaa"]["chrf"] == pytest.approx(1.0)
