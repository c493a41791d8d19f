import json
import threading
import time

import pytest

from savanna import metrics
from savanna.evalharness import (
    ConstantClient,
    EvalItem,
    EvalSuite,
    FlakyClient,
    McqItem,
    ModelEndpoint,
    ReferenceEchoClient,
    extract_choice,
    load_suite,
    postprocess_hypothesis,
    rescore_run_log,
    run_mcq_eval,
    run_translation_eval,
    save_suite,
    synthetic_suite,
)
from savanna.textnorm import metric_profile, normalize


@pytest.fixture(scope="module")
def suite():
    return synthetic_suite(languages=("aaa", "bbb"), seed=3)


class TestSuiteModel:
    def test_synthetic_suite_shape(self, suite):
        suite.validate(full=True)
        assert len(suite.items) == 100
        assert suite.reference_count == 200
        assert suite.evaluation_points == 400

    def test_duplicate_item_rejected(self):
        item = EvalItem(1, 0, "hello", {"aaa": "x"})
        bad = EvalSuite(items=[item, EvalItem(1, 0, "hello again", {"aaa": "y"})],
                        languages={"aaa"})
        with pytest.raises(ValueError, match="duplicate"):
            bad.validate(full=False)

    def test_full_validation_catches_missing_slots(self):
        partial = EvalSuite(items=[EvalItem(1, 0, "hi", {"aaa": "x"})], languages={"aaa"})
        partial.validate(full=False)
        with pytest.raises(ValueError, match="full suite"):
            partial.validate(full=True)

    def test_category_bounds(self):
        with pytest.raises(ValueError):
            EvalItem(21, 0, "x", {})
        with pytest.raises(ValueError):
            EvalItem(1, 5, "x", {})

    def test_content_hash_order_independent(self, suite):
        shuffled = EvalSuite(items=list(reversed(suite.items)), languages=suite.languages)
        assert shuffled.content_hash() == suite.content_hash()

    def test_csv_roundtrip(self, suite, tmp_path):
        path = tmp_path / "suite.csv"
        save_suite(suite, path)
        loaded = load_suite(path)
        loaded.validate(full=True)
        assert loaded.content_hash() == suite.content_hash()

    def test_tsv_roundtrip(self, suite, tmp_path):
        path = tmp_path / "suite.tsv"
        save_suite(suite, path)
        assert load_suite(path).content_hash() == suite.content_hash()


class TestEndpointConfig:
    def test_defaults(self):
        ep = ModelEndpoint(name="m", base_url="http://x")
        assert ep.auth_env == "SAVANNA_API_TOKEN"
        assert ep.model == "m"
        assert ep.retries == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelEndpoint(name="m", base_url="u", retries=-1)


class TestPostprocess:
    def test_strips_label_and_quotes(self):
        assert postprocess_hypothesis('Translation: "omwana agenda"') == "omwana agenda"

    def test_plain_text_untouched(self):
        assert postprocess_hypothesis("  omwana agenda \n") == "omwana agenda"

    def test_curly_quotes(self):
        assert postprocess_hypothesis("“omwana”") == "omwana"


class TestTranslationEval:
    def test_echo_client_scores_perfectly(self, suite, tmp_path):
        client = ReferenceEchoClient(suite)
        report = run_translation_eval(
            suite, client,
            directions=[("aaa", "eng"), ("eng", "aaa")],
            run_log_path=tmp_path / "run.jsonl",
        )
        assert not report.invalid and report.total_failed == 0
        for d in report.directions:
            assert d.evaluated == 100
            assert d.aggregates.chrf == pytest.approx(1.0)
            assert d.aggregates.bleu == pytest.approx(100.0)
            assert d.aggregates.cer == 0.0
            assert d.aggregates.wer == 0.0

    def test_document_granularity(self, suite):
        client = ReferenceEchoClient(suite)
        report = run_translation_eval(suite, client, directions=[("bbb", "eng")],
                                      granularity="document")
        assert report.directions[0].evaluated == 20
        assert report.directions[0].aggregates.chrf == pytest.approx(1.0)

    def test_direction_must_involve_english(self, suite):
        with pytest.raises(ValueError, match="eng on exactly one side"):
            run_translation_eval(suite, ConstantClient("x"), directions=[("aaa", "bbb")])

    def test_unknown_language(self, suite):
        with pytest.raises(ValueError, match="not in suite"):
            run_translation_eval(suite, ConstantClient("x"), directions=[("zzz", "eng")])

    def test_failures_counted_not_fabricated(self, suite, tmp_path):
        client = FlakyClient(ReferenceEchoClient(suite), fail_on={0, 1, 2})
        log = tmp_path / "run.jsonl"
        report = run_translation_eval(suite, client, directions=[("aaa", "eng")],
                                      run_log_path=log)
        assert report.total_failed == 3
        assert report.directions[0].evaluated == 97
        assert not report.invalid  # 3% < 10% threshold
        records = [json.loads(l) for l in log.read_text().splitlines()[1:]]
        assert sum(r["status"] == "error" for r in records) == 3

    def test_direction_with_nothing_scored_reports_null(self, tmp_path):
        # 12 languages x 2 directions x 100 units; the first direction fails
        # whole, which is 100/2400 units and leaves the run valid.
        langs = [f"l{i:02d}" for i in range(12)]
        wide = synthetic_suite(languages=langs, seed=5)
        directions = [(lang, "eng") for lang in langs] + [("eng", lang) for lang in langs]
        client = FlakyClient(ConstantClient("x"), fail_on=set(range(100)))
        log = tmp_path / "run.jsonl"
        report = run_translation_eval(wide, client, directions, run_log_path=log)
        assert not report.invalid and report.total_failed == 100
        dead = report.directions[0]
        assert dead.evaluated == 0 and dead.aggregates is None

        def reject(constant):
            raise AssertionError(f"report.json contains {constant}")

        payload = json.loads(report.to_json(), parse_constant=reject)
        assert payload["directions"][0]["aggregates"] is None
        assert payload["directions"][1]["aggregates"]["cer"] == 1.0
        assert rescore_run_log(log, wide).to_json() == report.to_json()

    def test_max_parallel_must_be_positive(self, suite):
        with pytest.raises(ValueError, match="max_parallel"):
            run_translation_eval(suite, ConstantClient("x"), directions=[("aaa", "eng")],
                                 max_parallel=0)

    @pytest.mark.parametrize("value", ["4", 2.0, True, None])
    def test_max_parallel_must_be_an_integer(self, suite, value):
        with pytest.raises(ValueError, match="max_parallel"):
            run_translation_eval(suite, ConstantClient("x"), directions=[("aaa", "eng")],
                                 max_parallel=value)

    def test_repeated_direction_rejected_before_any_request(self, suite):
        prompts = []

        class Recording:
            def complete(self, messages, temperature=0.0):
                prompts.append(messages[-1]["content"])
                return "x"

        with pytest.raises(ValueError, match="direction aaa-eng is repeated"):
            run_translation_eval(suite, Recording(),
                                 directions=[("aaa", "eng"), ("eng", "aaa"), ("aaa", "eng")])
        assert prompts == []

    def test_rescore_accepts_a_log_with_a_repeated_direction(self, suite, tmp_path):
        # Logs written before repeated directions were rejected list the
        # direction twice and hold each of its records twice.
        log = tmp_path / "run.jsonl"
        once = run_translation_eval(suite, ReferenceEchoClient(suite),
                                    directions=[("aaa", "eng")], run_log_path=log)
        header, *records = log.read_text().splitlines()
        header = json.loads(header)
        header["directions"] *= 2
        log.write_text("\n".join([json.dumps(header)] + records * 2) + "\n")
        report = rescore_run_log(log, suite)
        assert [d.direction for d in report.directions] == [("aaa", "eng")] * 2
        for d in report.directions:
            assert d.per_sentence == once.directions[0].per_sentence

    @pytest.mark.parametrize("max_parallel", [1, 4])
    def test_scoring_overlaps_requests(self, suite, tmp_path, monkeypatch, max_parallel):
        # The last request is answered only once scoring has begun (or after
        # a timeout), so the run finishes promptly only if the first reply is
        # scored while that request is still in flight.
        last = max(suite.items, key=lambda i: (i.category_id, i.sent_index))
        scoring_started = threading.Event()
        timed_out = []

        class HoldLast:
            def __init__(self, inner):
                self.inner = inner

            def complete(self, messages, temperature=0.0):
                if messages[-1]["content"].endswith("\n\n" + last.translations["aaa"]):
                    if not scoring_started.wait(timeout=5.0):
                        timed_out.append(True)
                return self.inner.complete(messages, temperature)

        chrf = metrics.chrf

        def chrf_marking_start(hyp, ref):
            scoring_started.set()
            return chrf(hyp, ref)

        monkeypatch.setattr(metrics, "chrf", chrf_marking_start)
        log = tmp_path / "run.jsonl"
        live = run_translation_eval(suite, HoldLast(ReferenceEchoClient(suite)),
                                    directions=[("aaa", "eng")], run_log_path=log,
                                    max_parallel=max_parallel)
        assert scoring_started.is_set() and not timed_out
        assert live.total_failed == 0
        assert rescore_run_log(log, suite).to_json() == live.to_json()

    def test_run_log_survives_a_scoring_error(self, suite, tmp_path, monkeypatch):
        doomed = normalize(suite.items[50].english, metric_profile())
        chrf = metrics.chrf

        def chrf_failing_once(hyp, ref):
            if hyp == doomed:
                raise RuntimeError("scoring broke")
            return chrf(hyp, ref)

        monkeypatch.setattr(metrics, "chrf", chrf_failing_once)
        log = tmp_path / "run.jsonl"
        with pytest.raises(RuntimeError, match="scoring broke"):
            run_translation_eval(suite, ReferenceEchoClient(suite),
                                 directions=[("aaa", "eng"), ("bbb", "eng")],
                                 run_log_path=log, max_parallel=2)
        header, *records = [json.loads(l) for l in log.read_text().splitlines()]
        assert header["type"] == "header"
        assert len(records) == 200 and all(r["status"] == "ok" for r in records)
        items = sorted(suite.items, key=lambda i: (i.category_id, i.sent_index))
        assert [r["id"] for r in records] == [
            f"{lang}-eng:{i.category_id}:{i.sent_index}" for lang in ("aaa", "bbb")
            for i in items]

    def test_interrupt_while_scoring_cancels_pending_requests(self, suite, monkeypatch):
        calls = []

        class Slow:
            def complete(self, messages, temperature=0.0):
                calls.append(messages)
                time.sleep(0.01)
                return "x"

        def interrupt(hyp, ref):
            raise KeyboardInterrupt

        monkeypatch.setattr(metrics, "chrf", interrupt)
        with pytest.raises(KeyboardInterrupt):
            run_translation_eval(suite, Slow(), directions=[("aaa", "eng")])
        assert len(calls) < 10

    def test_failure_rate_marks_invalid(self, suite):
        client = FlakyClient(ReferenceEchoClient(suite), fail_on=set(range(10)))
        report = run_translation_eval(suite, client, directions=[("aaa", "eng")])
        assert (report.total_failed, report.total_items) == (10, 100)
        assert not report.invalid  # 10% is the limit
        client = FlakyClient(ReferenceEchoClient(suite), fail_on=set(range(11)))
        report = run_translation_eval(suite, client, directions=[("aaa", "eng")])
        assert report.invalid  # 11% > 10%

    def test_parallel_matches_serial(self, suite):
        serial = run_translation_eval(suite, ReferenceEchoClient(suite),
                                      directions=[("aaa", "eng")])
        parallel = run_translation_eval(suite, ReferenceEchoClient(suite),
                                        directions=[("aaa", "eng")], max_parallel=4)
        assert parallel.to_json() == serial.to_json()

    def test_rescore_is_byte_identical(self, suite, tmp_path):
        log = tmp_path / "run.jsonl"
        live = run_translation_eval(suite, ReferenceEchoClient(suite),
                                    directions=[("eng", "bbb"), ("bbb", "eng")],
                                    run_log_path=log)
        offline = rescore_run_log(log, suite)
        assert offline.to_json() == live.to_json()

    def test_rescore_rejects_other_suite(self, suite, tmp_path):
        log = tmp_path / "run.jsonl"
        run_translation_eval(suite, ReferenceEchoClient(suite),
                             directions=[("aaa", "eng")], run_log_path=log)
        other = synthetic_suite(languages=("aaa", "bbb"), seed=99)
        with pytest.raises(ValueError, match="different suite"):
            rescore_run_log(log, other)

    def test_empty_replies_score_zero(self, suite):
        report = run_translation_eval(suite, ConstantClient(""),
                                      directions=[("aaa", "eng")])
        agg = report.directions[0].aggregates
        assert agg.chrf == 0.0 and agg.bleu == 0.0 and agg.cer == 1.0 and agg.wer == 1.0

    def test_scoring_normalizes_case_and_punct(self, suite):
        item = suite.items[0]

        class Shouty:
            def __init__(self, inner):
                self.inner = inner

            def complete(self, messages, temperature=0.0):
                return self.inner.complete(messages, temperature).upper() + "!!!"

        report = run_translation_eval(suite, Shouty(ReferenceEchoClient(suite)),
                                      directions=[("aaa", "eng")])
        assert report.directions[0].aggregates.chrf == pytest.approx(1.0)


class TestMcq:
    def items(self):
        return [
            McqItem("Capital of Uganda?", ["Kampala", "Nairobi", "Kigali"], 0, "eng"),
            McqItem("Largest lake?", ["Albert", "Victoria"], 1, "eng"),
            McqItem("Ekibuga ekikulu?", ["Kampala", "Jinja"], 0, "lug"),
        ]

    def test_extract_choice_letter(self):
        assert extract_choice("The answer is B.", ["x", "y", "z"]) == 1
        assert extract_choice("A", ["x", "y"]) == 0

    def test_extract_choice_text_fallback(self):
        assert extract_choice("I think it is kampala", ["Kampala", "Jinja"]) == 0

    def test_extract_choice_ambiguous_none(self):
        assert extract_choice("either kampala or jinja", ["Kampala", "Jinja"]) is None

    def test_run_mcq_accuracy(self):
        class FixedAnswers:
            def __init__(self):
                self.replies = iter(["A", "B", "B"])

            def complete(self, messages, temperature=0.0):
                return next(self.replies)

        result = run_mcq_eval(self.items(), FixedAnswers())
        assert result.accuracy_by_lang == {"eng": 1.0, "lug": 0.0}

    def test_unparseable_counts_incorrect(self):
        result = run_mcq_eval(self.items(), ConstantClient("no idea at all"))
        assert result.accuracy_by_lang == {"eng": 0.0, "lug": 0.0}
        assert len(result.unparseable) == 3

    def test_item_validation(self):
        with pytest.raises(ValueError):
            McqItem("q", ["only one"], 0, "eng")
        with pytest.raises(ValueError):
            McqItem("q", ["a", "b"], 2, "eng")
