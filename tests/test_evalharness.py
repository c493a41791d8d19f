import json
import re
import threading
import time

import pytest
from helpers import ConstantClient, FlakyClient, save_suite, synthetic_suite

from savanna import metrics
from savanna.evalharness import (
    SENTENCES_PER_CATEGORY,
    EvalItem,
    EvalSuite,
    HttpCompletionClient,
    ReferenceEchoClient,
    load_suite,
    postprocess_hypothesis,
    rescore_run_log,
    run_translation_eval,
)
from savanna.instruct import translation_prompt
from savanna.leaderboard import published_reference_data
from savanna.textnorm import metric_profile, normalize


@pytest.fixture(scope="module")
def suite():
    return synthetic_suite(languages=("aaa", "bbb"), seed=3)


class TestSuiteModel:
    def test_synthetic_suite_shape(self, suite):
        suite.validate(full=True)
        assert len(suite.items) == 100

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
        client = HttpCompletionClient("http://x", "m")
        assert (client.base_url, client.model) == ("http://x", "m")
        assert client.attempts == 3
        assert client.timeout == 60.0

    def test_validation(self):
        with pytest.raises(ValueError, match="retries must be >= 0"):
            HttpCompletionClient("http://x", "m", retries=-1)
        for timeout in (0, -1, 0.0):
            with pytest.raises(ValueError, match="^timeout must be > 0$"):
                HttpCompletionClient("http://x", "m", timeout=timeout)


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

    def test_echo_client_answers_every_unit_of_31_languages(self):
        # Prompts and references are built here from the items, independently
        # of the harness's own unit list.
        langs = published_reference_data().languages()
        wide = synthetic_suite(languages=langs, seed=7)
        client = ReferenceEchoClient(wide)
        items = sorted(wide.items, key=lambda i: (i.category_id, i.sent_index))
        documents = [items[k:k + SENTENCES_PER_CATEGORY]
                     for k in range(0, len(items), SENTENCES_PER_CATEGORY)]
        assert len(langs) == 31 and len(documents) == 20
        for lang in langs:
            for group in [[item] for item in items] + documents:
                eng = " ".join(i.english for i in group)
                loc = " ".join(i.translations[lang] for i in group)
                for src, tgt, text, reference in (("eng", lang, eng, loc), (lang, "eng", loc, eng)):
                    prompt = translation_prompt(src, tgt, text)
                    assert client.complete([{"role": "user", "content": prompt}]) == reference

    def test_direction_must_involve_english(self, suite):
        with pytest.raises(ValueError, match="eng on exactly one side"):
            run_translation_eval(suite, ConstantClient("x"), directions=[("aaa", "bbb")])

    def test_unknown_language(self, suite):
        with pytest.raises(ValueError, match="not in suite"):
            run_translation_eval(suite, ConstantClient("x"), directions=[("zzz", "eng")])

    def test_rescore_rejects_a_direction_the_suite_lacks(self, suite, tmp_path):
        log = tmp_path / "run.jsonl"
        run_translation_eval(suite, ReferenceEchoClient(suite), directions=[("aaa", "eng")],
                             run_log_path=log)
        header, *records = log.read_text().splitlines()
        header = json.loads(header)
        header["directions"] = [["zzz", "eng"]]
        log.write_text("\n".join([json.dumps(header)] + records) + "\n")
        with pytest.raises(ValueError, match="language 'zzz' not in suite"):
            rescore_run_log(log, suite)

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

    def test_rescore_refuses_a_log_with_a_repeated_direction(self, suite, tmp_path):
        # No run writes a log that lists a direction twice, as a log joined
        # from two runs of one direction under one header would.
        log = tmp_path / "run.jsonl"
        run_translation_eval(suite, ReferenceEchoClient(suite), directions=[("aaa", "eng")],
                             run_log_path=log)
        header, *records = log.read_text().splitlines()
        header = json.loads(header)
        header["directions"] = [["aaa", "eng"], ["eng", "aaa"], ["aaa", "eng"]]
        log.write_text("\n".join([json.dumps(header)] + records) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(log))}:1: "
                                             "direction aaa-eng is repeated$"):
            rescore_run_log(log, suite)

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
