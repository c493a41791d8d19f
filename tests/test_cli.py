import json
import os
import subprocess
import sys

import pytest
import yaml

from savanna import corpus, evalharness, instruct, preference_loss
from savanna.cli import _locked_output_dir, main
from savanna.corpus import ParallelPair, make_document


def write_yaml(path, payload):
    path.write_text(yaml.safe_dump(payload))
    return str(path)


@pytest.fixture()
def suite_csv(tmp_path):
    suite = evalharness.synthetic_suite(languages=("aaa", "bbb"), seed=5)
    path = tmp_path / "suite.csv"
    evalharness.save_suite(suite, path)
    return str(path)


class TestCorpusCommand:
    def test_end_to_end(self, tmp_path, capsys):
        docs = [
            make_document("lug", "omwana agenda mu kibuga", "web"),
            make_document("lug", "omwana agenda mu kibuga", "web"),  # exact dup
            make_document("lug", "ekitabo ekinene\n17\nky'omusomesa", "book_ocr"),
        ]
        inputs = tmp_path / "docs.jsonl"
        corpus.write_documents_jsonl(docs, inputs)
        config = write_yaml(tmp_path / "c.yaml", {"inputs": [str(inputs)]})
        out = tmp_path / "out"
        assert main(["corpus", "--config", config, "--out", str(out)]) == 0

        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["cleaning"]["artifacts_removed"] == 1  # the page number
        assert manifest["reduction_ratio"] < 1.0
        assert (out / "resolved_config.yaml").exists()
        result = corpus.read_documents_jsonl(out / "documents.jsonl")
        assert len(result) == 2
        assert all("17" not in d.text for d in result)

    def test_lock_prevents_concurrent_runs(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / ".savanna.lock").touch()
        config = write_yaml(tmp_path / "c.yaml", {"inputs": []})
        assert main(["corpus", "--config", config, "--out", str(out)]) == 1

    def test_lock_holds_pid_and_is_released(self, tmp_path):
        out = tmp_path / "out"
        with _locked_output_dir(out):
            assert (out / ".savanna.lock").read_text() == str(os.getpid())
        assert not (out / ".savanna.lock").exists()

    def test_lock_of_dead_process_is_broken(self, tmp_path):
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait(timeout=30)
        out = tmp_path / "out"
        out.mkdir()
        (out / ".savanna.lock").write_text(str(child.pid))
        config = write_yaml(tmp_path / "c.yaml", {"inputs": []})
        assert main(["corpus", "--config", config, "--out", str(out)]) == 0
        assert (out / "manifest.json").exists()
        assert not (out / ".savanna.lock").exists()

    def test_lock_of_live_process_is_held(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / ".savanna.lock").write_text(str(os.getpid()))
        config = write_yaml(tmp_path / "c.yaml", {"inputs": []})
        assert main(["corpus", "--config", config, "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert f"pid {os.getpid()}" in err["error"]
        assert (out / ".savanna.lock").read_text() == str(os.getpid())
        assert not (out / "manifest.json").exists()

    def test_missing_inputs_key_fails_cleanly(self, tmp_path, capsys):
        config = write_yaml(tmp_path / "c.yaml", {})
        assert main(["corpus", "--config", config, "--out", str(tmp_path / "o")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["type"] == "KeyError"


class TestInstructCommand:
    def test_end_to_end(self, tmp_path):
        pairs = [ParallelPair("lug", "eng", f"gamba {i}", f"say {i}") for i in range(8)]
        parallel = tmp_path / "pairs.jsonl"
        corpus.write_pairs_jsonl(pairs, parallel)
        config = write_yaml(tmp_path / "c.yaml", {
            "parallel": str(parallel),
            "n_translation": 8,
            "max_len": 128,
            "tokens_per_batch": 1024,
        })
        out = tmp_path / "out"
        assert main(["instruct", "--config", config, "--out", str(out)]) == 0

        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["category_counts"]["translation"] == 8
        assert manifest["sequences_per_batch"] == 8
        examples = instruct.read_instructions_jsonl(out / "instructions.jsonl")
        assert len(examples) == 8
        packed, max_len = instruct.read_packed_jsonl(out / "packed.jsonl")
        assert max_len == 128
        assert all(len(s.token_ids) <= 128 for s in packed)

    def test_bad_template_fails_cleanly(self, tmp_path, capsys):
        parallel = tmp_path / "pairs.jsonl"
        corpus.write_pairs_jsonl([ParallelPair("lug", "eng", "gamba", "say")], parallel)
        template = tmp_path / "tmpl.json"
        template.write_text('{"user_prefix": 5, "user_suffix": "", '
                            '"assistant_prefix": "", "assistant_suffix": ""}')
        config = write_yaml(tmp_path / "c.yaml", {
            "parallel": str(parallel), "n_translation": 1, "template": str(template)})
        out = tmp_path / "out"
        assert main(["instruct", "--config", config, "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["type"] == "ValueError" and "user_prefix" in err["error"]
        assert not (out / "instructions.jsonl").exists()

    @pytest.mark.parametrize("sizes, message", [
        ({"max_len": 500}, "tokens_per_batch must be divisible by max_len"),
        ({"max_len": 0}, "max_len must be >= 1"),
        ({"tokens_per_batch": 0}, "tokens_per_batch must be >= 1"),
    ])
    def test_bad_batch_sizes_fail_before_writing(self, tmp_path, capsys, sizes, message):
        parallel = tmp_path / "pairs.jsonl"
        corpus.write_pairs_jsonl([ParallelPair("lug", "eng", "gamba", "say")], parallel)
        config = write_yaml(tmp_path / "c.yaml", {
            "parallel": str(parallel), "n_translation": 1, **sizes})
        out = tmp_path / "out"
        assert main(["instruct", "--config", config, "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": message, "type": "ValueError"}
        assert not (out / "instructions.jsonl").exists()
        assert not (out / "packed.jsonl").exists()


class TestEvalCommand:
    def test_echo_run_and_rescore(self, tmp_path, suite_csv):
        out = tmp_path / "out"
        assert main(["eval", "--suite", suite_csv, "--endpoint", "stub:echo",
                     "--directions", "aaa-eng,eng-aaa", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["invalid"] is False
        assert report["total_failed"] == 0
        for d in report["directions"]:
            assert d["aggregates"]["chrf"] == pytest.approx(1.0)

        out2 = tmp_path / "rescored"
        assert main(["eval", "--suite", suite_csv,
                     "--rescore", str(out / "run_log.jsonl"), "--out", str(out2)]) == 0
        assert (out2 / "report.json").read_bytes() == (out / "report.json").read_bytes()

    def test_document_granularity_flag(self, tmp_path, suite_csv):
        out = tmp_path / "out"
        assert main(["eval", "--suite", suite_csv, "--endpoint", "stub:echo",
                     "--directions", "bbb-eng", "--granularity", "document",
                     "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["directions"][0]["evaluated"] == 20

    def test_invalid_direction_fails(self, tmp_path, suite_csv, capsys):
        assert main(["eval", "--suite", suite_csv, "--endpoint", "stub:echo",
                     "--directions", "aaa-bbb", "--out", str(tmp_path / "o")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert "eng" in err["error"]

    @pytest.mark.parametrize("content, expected", [
        ("", "is empty"),
        ("category_id,english,aaa\n1,hello,x\n", "lacks columns: sent_index"),
        ("category_id,sent_index,english,aaa\n1,0,hello,x\n1,1\n", "line 3: missing cells for columns: english, aaa"),
        ("category_id,sent_index,english,aaa\n1,zero,hello,x\n", "line 2: invalid literal"),
    ], ids=["empty", "missing-column", "short-row", "non-integer"])
    def test_malformed_suite_fails_cleanly(self, tmp_path, capsys, content, expected):
        path = tmp_path / "suite.csv"
        path.write_text(content)
        assert main(["eval", "--suite", str(path), "--endpoint", "stub:echo",
                     "--directions", "aaa-eng", "--out", str(tmp_path / "o")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["type"] == "ValueError"
        assert str(path) in err["error"]
        assert expected in err["error"]

    @pytest.mark.parametrize("value", ["4", 0, 1.5])
    def test_bad_max_parallel_fails_cleanly(self, tmp_path, suite_csv, capsys, value):
        out = tmp_path / "o"
        config = write_yaml(tmp_path / "eval.yaml", {"max_parallel": value})
        assert main(["eval", "--config", config, "--suite", suite_csv, "--endpoint",
                     "stub:echo", "--directions", "aaa-eng", "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["type"] == "ValueError" and "max_parallel" in err["error"]
        assert not (out / "run_log.jsonl").exists()

    def test_repeated_direction_fails(self, tmp_path, suite_csv, capsys):
        out = tmp_path / "o"
        assert main(["eval", "--suite", suite_csv, "--endpoint", "stub:echo",
                     "--directions", "aaa-eng,aaa-eng", "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "direction aaa-eng is repeated", "type": "ValueError"}
        assert not (out / "run_log.jsonl").exists()

    def test_missing_endpoint_fails(self, tmp_path, suite_csv, capsys):
        assert main(["eval", "--suite", suite_csv, "--directions", "aaa-eng",
                     "--out", str(tmp_path / "o")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert "endpoint" in err["error"]


class TestReportCommand:
    def test_published_reference_report(self, tmp_path):
        out = tmp_path / "out"
        config = write_yaml(tmp_path / "c.yaml", {
            "winner_models": ["sunflower-14b", "gemini-2.5-pro", "gpt-4o",
                              "deepseek-chat", "grok-3"],
        })
        assert main(["report", "--config", config, "--out", str(out)]) == 0
        counts = json.loads((out / "winner_counts.json").read_text())
        assert counts["sunflower-14b"] == 24
        mean_table = (out / "mean_table.md").read_text()
        assert "sunflower-32b" in mean_table and "0.435" in mean_table
        assert (out / "per_language_xx-eng.md").exists()
        assert (out / "chart.csv").exists()

    def test_run_log_report(self, tmp_path, suite_csv):
        eval_out = tmp_path / "eval"
        main(["eval", "--suite", suite_csv, "--endpoint", "stub:echo",
              "--directions", "aaa-eng,eng-aaa", "--out", str(eval_out)])
        config = write_yaml(tmp_path / "c.yaml", {
            "use_published_reference": False,
            "runs": [{"model": "echo", "suite": suite_csv,
                      "run_log": str(eval_out / "run_log.jsonl")}],
        })
        out = tmp_path / "report"
        assert main(["report", "--config", config, "--out", str(out)]) == 0
        counts = json.loads((out / "winner_counts.json").read_text())
        assert counts == {"echo": 1}


class TestLossCommand:
    def test_audit(self, tmp_path, capsys):
        pairs = [preference_loss.PairLogps([-0.5, -1.5], [-2.0], [-0.5, -1.5], [-2.0])]
        path = tmp_path / "pairs.jsonl"
        preference_loss.write_pair_logps_jsonl(pairs, path)
        out = tmp_path / "out"
        assert main(["loss", "--pairs", str(path), "--out", str(out)]) == 0
        audit = json.loads((out / "loss_audit.json").read_text())
        assert audit["mean_dpo_loss"] == pytest.approx(0.6931471805599453)
        assert audit["mean_irpo_loss"] == pytest.approx(1.6931471805599454)
        assert "mean irpo: 1.693147" in capsys.readouterr().out

    def test_non_finite_logp_rejected(self, tmp_path, capsys):
        path = tmp_path / "pairs.jsonl"
        path.write_text('{"policy_chosen": [-0.5], "policy_rejected": [-2.0], '
                        '"ref_chosen": [-0.5], "ref_rejected": [-2.0]}\n'
                        '{"policy_chosen": [NaN], "policy_rejected": [-2.0], '
                        '"ref_chosen": [-0.5], "ref_rejected": [-2.0]}\n', encoding="utf-8")
        out = tmp_path / "out"
        assert main(["loss", "--pairs", str(path), "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "policy_chosen contains a non-finite log-probability",
                       "type": "ValueError"}
        assert not (out / "loss_audit.json").exists()

    def test_missing_pairs_file(self, tmp_path, capsys):
        assert main(["loss", "--pairs", str(tmp_path / "nope.jsonl"),
                     "--out", str(tmp_path / "o")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["type"] == "FileNotFoundError"


class TestSeedHandling:
    def test_seed_flag_overrides_config(self, tmp_path):
        docs = [make_document("lug", f"ekigambo {i} mu lukalala", "web") for i in range(20)]
        inputs = tmp_path / "docs.jsonl"
        corpus.write_documents_jsonl(docs, inputs)
        config = write_yaml(tmp_path / "c.yaml",
                            {"inputs": [str(inputs)], "seed": 1, "sample_size": 5})
        out = tmp_path / "out"
        assert main(["corpus", "--config", config, "--seed", "9", "--out", str(out)]) == 0
        resolved = yaml.safe_load((out / "resolved_config.yaml").read_text())
        assert resolved["seed"] == 9
