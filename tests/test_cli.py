import dataclasses
import fcntl
import gc
import hashlib
import json
import os
import random
import re
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
import yaml
from helpers import (Reply, StubMtClient, read_packed_jsonl, save_suite, synthetic_suite,
                     write_pair_logps_jsonl)

from savanna import cli, corpus, evalharness, instruct, jsonio, leaderboard, preference_loss
from savanna.cli import CONFIG_KEYS, OUTPUTS, _locked_output_dir, cmd_instruct, main
from savanna.corpus import ParallelPair, make_document


def write_yaml(path, payload):
    path.write_text(yaml.safe_dump(payload))
    return str(path)


SUITE = synthetic_suite(languages=("aaa", "bbb"), seed=5)  # the suite of suite_csv


@pytest.fixture()
def suite_csv(tmp_path):
    path = tmp_path / "suite.csv"
    save_suite(SUITE, path)
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
        assert "bible" not in manifest and not (out / "pairs.jsonl").exists()

    # Only the kernel's lock holds: a file that no process has locked, as a
    # run killed before it wrote its PID leaves it, or one whose PID is now
    # this run's own, as a reused PID does, is taken.
    @pytest.mark.parametrize("content", ["", str(os.getpid())], ids=["empty", "own-pid"])
    def test_unlocked_lock_file_does_not_block(self, tmp_path, content):
        out = tmp_path / "out"
        out.mkdir()
        (out / ".savanna.lock").write_text(content)
        config = write_yaml(tmp_path / "c.yaml", {"inputs": []})
        assert main(["corpus", "--config", config, "--out", str(out)]) == 0
        assert (out / "manifest.json").exists()
        assert not (out / ".savanna.lock").exists()

    def test_lock_held_by_another_open_file_blocks(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "manifest.json").write_text("earlier")
        config = write_yaml(tmp_path / "c.yaml", {"inputs": []})
        with open(out / ".savanna.lock", "w") as holder:
            fcntl.flock(holder, fcntl.LOCK_EX | fcntl.LOCK_NB)
            holder.write("4242")
            holder.flush()
            before = {p.name: p.read_bytes() for p in out.iterdir()}
            assert main(["corpus", "--config", config, "--out", str(out)]) == 1
            assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == (f"output directory is locked by another run (pid 4242): "
                                f"{out / '.savanna.lock'}")

    def test_lock_of_killed_run_is_free(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = ("import pathlib, sys\n"
                "sys.path.insert(0, sys.argv[1])\n"
                "from savanna.cli import _locked_output_dir\n"
                "with _locked_output_dir(pathlib.Path(sys.argv[2])):\n"
                "    print('locked', flush=True)\n"
                "    sys.stdin.read()\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        child = subprocess.Popen([sys.executable, "-c", code, src, str(out)],
                                 stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        try:
            assert child.stdout.readline() == b"locked\n"
            config = write_yaml(tmp_path / "c.yaml", {"inputs": []})
            assert main(["corpus", "--config", config, "--out", str(out)]) == 1
            assert f"(pid {child.pid})" in json.loads(capsys.readouterr().err)["error"]
        finally:
            child.kill()
            child.wait(timeout=30)
            child.stdin.close()
            child.stdout.close()
        assert child.returncode == -signal.SIGKILL
        assert (out / ".savanna.lock").read_text() == str(child.pid)  # left by the kill
        assert main(["corpus", "--config", config, "--out", str(out)]) == 0
        assert (out / "manifest.json").exists()
        assert not (out / ".savanna.lock").exists()

    def test_lock_of_unlinked_file_is_taken_again(self, tmp_path, monkeypatch):
        # Between this run's open and its flock, the run that held the file
        # ends and unlinks it, and another run creates the path anew.
        out = tmp_path / "out"
        out.mkdir()
        lock = out / ".savanna.lock"
        flock, calls = fcntl.flock, []

        def replaced_first(f, operation):
            if not calls:
                lock.unlink()
                lock.touch()
            calls.append(operation)
            flock(f, operation)
        monkeypatch.setattr(cli.fcntl, "flock", replaced_first)
        with _locked_output_dir(out):
            assert len(calls) == 2
            with open(lock) as other, pytest.raises(BlockingIOError):
                flock(other, fcntl.LOCK_EX | fcntl.LOCK_NB)
            assert lock.read_text() == str(os.getpid())
        assert not lock.exists()

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

    def test_non_finite_provenance_fails_before_manifest(self, tmp_path, capsys):
        # 1e999 is read as infinity, which no output file could hold, so the
        # input is rejected on read, naming the file, the line and the key,
        # before the output directory is made.
        lines = [json.dumps(make_document("lug", f"omwana agenda mu kibuga {i}", "web",
                                          provenance={"ocr_score": 0.5}).__dict__)
                 for i in range(6)]
        lines[3] = lines[3].replace("0.5", "1e999")
        inputs = tmp_path / "docs.jsonl"
        inputs.write_text("\n".join(lines) + "\n", encoding="utf-8")
        config = write_yaml(tmp_path / "c.yaml", {"inputs": [str(inputs)]})
        out = tmp_path / "out"
        assert main(["corpus", "--config", config, "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": f"{inputs}:4: provenance must hold finite numbers only",
                       "type": "ValueError"}
        assert not out.exists()

    def test_non_finite_token_in_input_names_file_and_line(self, tmp_path, capsys):
        good = make_document("lug", "omwana agenda mu kibuga", "web")
        bad = make_document("lug", "ekitabo ekinene", "web", provenance={"ocr_score": float("nan")})
        inputs = tmp_path / "docs.jsonl"
        inputs.write_text(json.dumps(good.__dict__) + "\n" + json.dumps(bad.__dict__) + "\n",
                          encoding="utf-8")  # the second line holds NaN
        config = write_yaml(tmp_path / "c.yaml", {"inputs": [str(inputs)]})
        out = tmp_path / "out"
        assert main(["corpus", "--config", config, "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": f"{inputs}:2: NaN is not valid JSON", "type": "ValueError"}
        assert not out.exists()

    def bible_config(self, tmp_path, editions):
        paths = []
        for lang, text in editions:
            path = tmp_path / f"{lang}.tsv"
            path.write_text(text, encoding="utf-8")
            paths.append({"lang": lang, "path": str(path)})
        return write_yaml(tmp_path / "c.yaml", {"inputs": [], "bible": paths})

    def test_bible_pairs_feed_instruct(self, tmp_path):
        config = self.bible_config(tmp_path, [
            ("lug", "Genesis\t1\t1\tMu kusooka\ngen\t1\t2\tEnsi\ngen\t1\t3\tKatonda n'agamba\n"),
            ("eng", "gen\t1\t1\tIn the beginning\ngen\t1\t3\tAnd God said\nexo\t2\t3\tLater on\n"),
        ])
        out = tmp_path / "out"
        assert main(["corpus", "--config", config, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["bible"] == {"pairs": 2, "only_in_src": 1, "only_in_tgt": 1}
        pairs = corpus.read_pairs_jsonl(out / "pairs.jsonl")
        assert [(p.src_lang, p.tgt_lang, p.src_text, p.tgt_text, p.origin, p.doc_id) for p in pairs] == [
            ("lug", "eng", "Mu kusooka", "In the beginning", "bible", "Genesis_1:1"),
            ("lug", "eng", "Katonda n'agamba", "And God said", "bible", "Genesis_1:3"),
        ]

        instruct_config = write_yaml(tmp_path / "i.yaml", {
            "parallel": str(out / "pairs.jsonl"), "max_len": 128, "tokens_per_batch": 1024})
        instruct_out = tmp_path / "instruct"
        assert main(["instruct", "--config", instruct_config, "--out", str(instruct_out)]) == 0
        examples = instruct.read_instructions_jsonl(instruct_out / "instructions.jsonl")
        assert [ex.turns[1].text for ex in examples] == ["In the beginning", "And God said"]

    def test_empty_translation_is_a_failed_request(self, tmp_path, http_server, monkeypatch):
        monkeypatch.setattr(jsonio.time, "sleep", lambda seconds: None)
        docs = [make_document("eng", f"the child goes to town {i}", "web") for i in range(5)]
        corpus.write_documents_jsonl(docs, tmp_path / "eng.jsonl")
        reply = [Reply(body={"translation": "omwana agenda mu kibuga"})]
        http_server.script = reply + [Reply(body={"translation": ""})] * 3 + reply * 3
        config = write_yaml(tmp_path / "c.yaml", {
            "inputs": [str(tmp_path / "eng.jsonl")],
            "backtranslate": {"endpoint": http_server.url, "targets": ["lug"]}})
        out = tmp_path / "out"
        assert main(["corpus", "--config", config, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["backtranslation_errors"] == [{
            "source_doc_id": docs[1].id, "target": "lug",
            "error": "translation failed after 3 attempts: reply translation is empty or not a string"}]
        assert manifest["buckets"]["synthetic_bt/lug"]["docs_out"] == 4

    def test_bad_bible_tsv_fails_before_writing(self, tmp_path, capsys):
        config = self.bible_config(tmp_path, [
            ("lug", "gen\t1\t1\tMu kusooka\ngen\t1\tbibiri\tEnsi\n"),
            ("eng", "gen\t1\t1\tIn the beginning\n"),
        ])
        out = tmp_path / "out"
        assert main(["corpus", "--config", config, "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": f"{tmp_path / 'lug.tsv'}:2: invalid literal for int() "
                                "with base 10: 'bibiri'",
                       "type": "ValueError"}
        assert not out.exists()

    @pytest.mark.parametrize("bible", [
        [{"lang": "lug", "path": "lug.tsv"}],
        [{"lang": lang, "path": f"{lang}.tsv"} for lang in ("lug", "eng", "ach")],
        ["lug.tsv", "eng.tsv"],
        {"lug": "lug.tsv", "eng": "eng.tsv"},
    ], ids=["one", "three", "paths-only", "mapping"])
    def test_bible_needs_two_editions(self, tmp_path, capsys, bible):
        config = write_yaml(tmp_path / "c.yaml", {"inputs": [], "bible": bible})
        out = tmp_path / "out"
        assert main(["corpus", "--config", config, "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["type"] == "CliError" and "two editions" in err["error"]
        assert not out.exists()

    @pytest.mark.parametrize("tgt_line", ["gen\t1\t1\tKu ntandikwa\n", "exo\t2\t3\tOluvannyuma\n"],
                             ids=["shared-verse", "no-shared-verse"])
    def test_bible_editions_in_one_language_rejected(self, tmp_path, capsys, tgt_line):
        src = tmp_path / "a.tsv"
        src.write_text("gen\t1\t1\tMu kusooka\n", encoding="utf-8")
        tgt = tmp_path / "b.tsv"
        tgt.write_text(tgt_line, encoding="utf-8")
        config = write_yaml(tmp_path / "c.yaml", {"inputs": [], "bible": [
            {"lang": "lug", "path": str(src)}, {"lang": "lug", "path": str(tgt)}]})
        out = tmp_path / "out"
        assert main(["corpus", "--config", config, "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "bible editions must be in two languages, not lang 'lug' "
                                "and lang 'lug'",
                       "type": "CliError"}
        # Rejected before the output directory is made: no documents.jsonl,
        # pairs.jsonl or manifest.json.
        assert not out.exists()

    @pytest.mark.parametrize("bible, message", [
        ([{"path": "a.tsv"}, {"lang": "eng", "path": "b.tsv"}], "bible[0].lang is required"),
        ([{"lang": "lug", "path": "a.tsv"}, {"lang": "eng"}], "bible[1].path is required"),
        ([{"lang": "lug", "path": "a.tsv"}, {"lang": 7, "path": "b.tsv"}], "bible[1].lang must be a string"),
    ], ids=["no-lang", "no-path", "int-lang"])
    def test_bible_entry_keys_checked_before_lock(self, tmp_path, capsys, bible, message):
        config = write_yaml(tmp_path / "c.yaml", {"inputs": [], "bible": bible})
        out = tmp_path / "out"
        assert main(["corpus", "--config", config, "--out", str(out)]) == 1
        assert json.loads(capsys.readouterr().err) == {"error": message, "type": "CliError"}
        assert not out.exists()

    def test_missing_inputs_key_fails_cleanly(self, tmp_path, capsys):
        config = write_yaml(tmp_path / "c.yaml", {})
        assert main(["corpus", "--config", config, "--out", str(tmp_path / "o")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "inputs is required", "type": "CliError"}
        assert not (tmp_path / "o").exists()


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
        examples = list(instruct.read_instructions_jsonl(out / "instructions.jsonl"))
        assert len(examples) == 8
        packed, max_len = read_packed_jsonl(out / "packed.jsonl")
        assert max_len == 128
        assert all(len(s.token_ids) <= 128 for s in packed)

    def test_byte_tokenizer_packs_one_byte_per_token(self, tmp_path, monkeypatch):
        # The byte tokenizer's array('B') streams pack into array('B') sequences.
        packed, real_pack = [], instruct.pack

        def spy(streams, max_len):
            packed.extend(real_pack(streams, max_len))
            return packed

        monkeypatch.setattr(instruct, "pack", spy)
        config = write_yaml(tmp_path / "c.yaml", {
            **self.pairs_config(tmp_path, "pairs", 20, 20),
            "conversational": str(self.conversations(tmp_path, 5))})
        assert main(["instruct", "--config", config, "--out", str(tmp_path / "out")]) == 0
        assert len(packed) > 1 and all(seq.token_ids.itemsize == 1 for seq in packed)
        assert read_packed_jsonl(tmp_path / "out" / "packed.jsonl")[0] == packed

    @staticmethod
    def conversations(tmp_path, n):
        path = tmp_path / "convo.jsonl"
        jsonio.write_jsonl_lines(path, [
            instruct.instruction_line(instruct.InstructionExample("creative", [
                instruct.Turn("user", f"q{i}"), instruct.Turn("assistant", f"a{i}")]))
            for i in range(n)])
        return path

    @staticmethod
    def pairs_config(tmp_path, name, n_pairs, n_translation):
        pairs = [ParallelPair("lug", "eng", f"omwana agenda mu kibuga {i}. " * 3,
                              f"the child goes to town {i}. " * 3) for i in range(n_pairs)]
        parallel = tmp_path / f"{name}.jsonl"
        corpus.write_pairs_jsonl(pairs, parallel)
        return {**{key: default for key, (_kind, default) in CONFIG_KEYS["instruct"].items()},
                "parallel": str(parallel), "n_translation": n_translation, "seed": 3}

    def test_manifest_counts_every_category(self, tmp_path):
        parallel = tmp_path / "pairs.jsonl"
        corpus.write_pairs_jsonl([ParallelPair("lug", "eng", "gamba", "say")] * 3, parallel)
        conversational = self.conversations(tmp_path, 4)
        config = write_yaml(tmp_path / "c.yaml", {
            "parallel": str(parallel), "conversational": str(conversational),
            "n_translation": 2, "n_conversational": 3})
        out = tmp_path / "out"
        assert main(["instruct", "--config", config, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["category_counts"] == {**dict.fromkeys(instruct.CATEGORIES, 0),
                                               "translation": 2, "creative": 3}
        assert manifest["examples"] == 5

    def test_pairs_beyond_n_translation_change_no_output(self, tmp_path):
        conversational = self.conversations(tmp_path, 3)
        written = {}
        for name, n_pairs in (("cut", 40), ("long", 400)):
            config = {**self.pairs_config(tmp_path, name, n_pairs, 40),
                      "conversational": str(conversational), "max_len": 128}
            out = tmp_path / f"out_{name}"
            assert main(["instruct", "--config", write_yaml(tmp_path / f"{name}.yaml", config),
                         "--out", str(out)]) == 0
            written[name] = {file: (out / file).read_bytes() for file in (
                "instructions.jsonl", "packed.jsonl", "manifest.json")}
        assert written["long"] == written["cut"]
        assert written["cut"]["instructions.jsonl"].count(b"\n") == 43

    def test_peak_memory_does_not_grow_with_the_pairs(self, tmp_path):
        # The check phase reads every pair but holds only the lines and
        # packed ids of the first n_translation.
        instruct.language_name("eng")  # the language table, loaded once
        peaks = {}
        for n_pairs in (200, 2000):
            config = self.pairs_config(tmp_path, f"pairs{n_pairs}", n_pairs, 200)
            gc.collect()  # earlier tests' garbage is not freed inside the measured window
            tracemalloc.start()
            try:
                run = cmd_instruct(config)
                peaks[n_pairs] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert callable(run)
        # Holding the 2,000 pairs would add well over the whole 200-pair peak.
        assert peaks[2000] - peaks[200] < peaks[200] / 10

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

    def test_bad_vocab_fails_before_writing(self, tmp_path, capsys):
        parallel = tmp_path / "pairs.jsonl"
        corpus.write_pairs_jsonl([ParallelPair("lug", "eng", "a b", "c d")], parallel)
        vocab = tmp_path / "vocab.json"
        vocab.write_text('{"a": 1, "b": 1, "c": "7", "d": true, "e": 2.0}')
        config = write_yaml(tmp_path / "c.yaml", {
            "parallel": str(parallel), "n_translation": 1, "tokenizer_vocab": str(vocab)})
        out = tmp_path / "out"
        assert main(["instruct", "--config", config, "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["type"] == "ValueError" and "token 'b'" in err["error"]
        assert not (out / "instructions.jsonl").exists()
        assert not (out / "packed.jsonl").exists()

    def test_empty_example_after_placed_ones_fails_before_output(self, tmp_path, capsys):
        parallel = tmp_path / "pairs.jsonl"
        corpus.write_pairs_jsonl([], parallel)
        # Whitespace-only turns encode to no word, and the template adds none.
        conversational = tmp_path / "convo.jsonl"
        jsonio.write_jsonl_lines(conversational, (instruct.instruction_line(
            instruct.InstructionExample("creative", [instruct.Turn("user", question),
                                                     instruct.Turn("assistant", reply)]))
            for question, reply in (("hi", "there"), ("hi", "there there"), (" ", " "))))
        vocab, template = tmp_path / "vocab.json", tmp_path / "template.json"
        vocab.write_text('{"hi": 0, "there": 1}')
        template.write_text('{"user_prefix": "", "user_suffix": "", '
                            '"assistant_prefix": "", "assistant_suffix": ""}')
        config = write_yaml(tmp_path / "c.yaml", {
            "parallel": str(parallel), "conversational": str(conversational),
            "tokenizer_vocab": str(vocab), "template": str(template)})
        out = tmp_path / "out"
        assert main(["instruct", "--config", config, "--out", str(out)]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": f"{conversational}: example 3: document 'ex2' is empty after tokenization",
            "type": "ValueError"}
        assert not out.exists()

    def test_unknown_token_names_its_pair(self, tmp_path, capsys):
        # The default template's first control string is not in the vocabulary.
        parallel = tmp_path / "pairs.jsonl"
        corpus.write_pairs_jsonl([ParallelPair("lug", "eng", "omwana", "agenda")], parallel)
        vocab = tmp_path / "vocab.json"
        vocab.write_text('{"omwana": 1, "agenda": 2}')
        config = write_yaml(tmp_path / "c.yaml", {
            "parallel": str(parallel), "tokenizer_vocab": str(vocab)})
        out = tmp_path / "out"
        assert main(["instruct", "--config", config, "--out", str(out)]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": f"{parallel}: pair 1: token not in vocabulary: '<user>'",
            "type": "ValueError"}
        assert not out.exists()

    def test_unknown_token_after_rendered_pairs_names_its_pair(self, tmp_path, capsys):
        # Every word of the template, the prompt and the first pair is in
        # the vocabulary; the second pair's "town" is not.
        parallel = tmp_path / "pairs.jsonl"
        corpus.write_pairs_jsonl([ParallelPair("lug", "eng", "omwana", "child"),
                                  ParallelPair("lug", "eng", "kibuga", "town")], parallel)
        words = ("<user> </user> <assistant> </assistant> " + instruct.translation_prompt(
            "lug", "eng", "omwana kibuga child")).split()
        vocab = tmp_path / "vocab.json"
        vocab.write_text(json.dumps({word: i for i, word in enumerate(dict.fromkeys(words))}))
        config = write_yaml(tmp_path / "c.yaml", {
            "parallel": str(parallel), "tokenizer_vocab": str(vocab), "noisy_fraction": 0})
        out = tmp_path / "out"
        assert main(["instruct", "--config", config, "--out", str(out)]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": f"{parallel}: pair 2: token not in vocabulary: 'town'", "type": "ValueError"}
        assert not out.exists()

    def test_bad_input_line_names_its_own_line(self, tmp_path, capsys):
        # A line that fails to read is named by its reader, not as the
        # record rendered before it.
        parallel = tmp_path / "pairs.jsonl"
        corpus.write_pairs_jsonl([ParallelPair("lug", "eng", "gamba", "say")], parallel)
        with open(parallel, "a", encoding="utf-8") as f:
            f.write('{"src_lang": "lug"}\n')
        config = write_yaml(tmp_path / "c.yaml", {"parallel": str(parallel)})
        out = tmp_path / "out"
        assert main(["instruct", "--config", config, "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err.startswith(f"{parallel}:2: ") and "pair 1" not in err
        assert not out.exists()

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

    @pytest.mark.parametrize("granularity, units", [("sentence", 99), ("document", 19)])
    def test_partial_suite_leaves_out_units_without_text(self, tmp_path, granularity, units):
        suite = synthetic_suite(languages=("aaa", "bbb"), seed=5)
        del suite.items[37].translations["aaa"]  # saved as an empty cell
        path = tmp_path / "suite.csv"
        save_suite(suite, path)
        config = write_yaml(tmp_path / "c.yaml", {"full_suite": False})
        out = tmp_path / "out"
        assert main(["eval", "--config", config, "--suite", str(path), "--endpoint", "stub:echo",
                     "--directions", "aaa-eng,eng-aaa", "--granularity", granularity,
                     "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert (report["total_items"], report["total_failed"]) == (2 * units, 0)
        for d in report["directions"]:
            assert d["evaluated"] == units
            assert d["aggregates"]["chrf"] == 1.0
        rescored = tmp_path / "rescored"
        assert main(["eval", "--config", config, "--suite", str(path),
                     "--rescore", str(out / "run_log.jsonl"), "--out", str(rescored)]) == 0
        assert (rescored / "report.json").read_bytes() == (out / "report.json").read_bytes()

    def test_invalid_direction_fails(self, tmp_path, suite_csv, capsys):
        assert main(["eval", "--suite", suite_csv, "--endpoint", "stub:echo",
                     "--directions", "aaa-bbb", "--out", str(tmp_path / "o")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert "eng" in err["error"]

    @pytest.mark.parametrize("content, expected", [
        ("", "is empty"),
        ("category_id,english,aaa\n1,hello,x\n", "lacks columns: sent_index"),
        ("category_id,sent_index,english,aaa\n1,0,hello,x\n1,1\n", ":3: missing cells for columns: english, aaa"),
        ("category_id,sent_index,english,aaa\n1,zero,hello,x\n", ":2: invalid literal"),
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

    # A value of the wrong type is the config's error; 0 is the library's.
    @pytest.mark.parametrize("value, error_type", [
        ("4", "CliError"), (0, "ValueError"), (1.5, "CliError"),
    ], ids=["4", "0", "1.5"])
    def test_bad_max_parallel_fails_cleanly(self, tmp_path, suite_csv, capsys, value, error_type):
        out = tmp_path / "o"
        config = write_yaml(tmp_path / "eval.yaml", {"max_parallel": value})
        assert main(["eval", "--config", config, "--suite", suite_csv, "--endpoint",
                     "stub:echo", "--directions", "aaa-eng", "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["type"] == error_type and "max_parallel" in err["error"]
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

    def test_granularity_flag_checked_as_config_key(self, tmp_path, suite_csv, capsys):
        out = tmp_path / "o"
        assert main(["eval", "--suite", suite_csv, "--endpoint", "stub:echo",
                     "--directions", "aaa-eng", "--granularity", "paragraph",
                     "--out", str(out)]) == 1
        assert_config_error(capsys, out, "granularity must be sentence or document, "
                                         "got 'paragraph'")

    # A model of None stands for the endpoint's URL.
    @pytest.mark.parametrize("config, model", [
        ({}, None), ({"model": "sunflower"}, "sunflower"), ({"model": None}, None),
    ], ids=["default", "set", "null"])
    def test_model_reaches_request(self, tmp_path, suite_csv, http_server, config, model):
        http_server.script = [Reply(body={"choices": [{"message": {"content": "x"}}]})] * 100
        path = write_yaml(tmp_path / "c.yaml", config)
        assert main(["eval", "--config", path, "--suite", suite_csv,
                     "--endpoint", http_server.url + "/v1", "--directions", "aaa-eng",
                     "--out", str(tmp_path / "o")]) == 0
        assert ([(r["path"], r["body"]["model"]) for r in http_server.requests]
                == [("/v1", model or http_server.url + "/v1")] * 100)

    def test_null_reply_is_a_failed_unit(self, tmp_path, suite_csv, http_server, monkeypatch):
        monkeypatch.setattr(jsonio.time, "sleep", lambda seconds: None)
        reply = [Reply(body={"choices": [{"message": {"content": "x"}}]})]
        null = [Reply(body={"choices": [{"message": {"content": None}}]})]
        http_server.script = reply * 10 + null * 3 + reply * 89  # the 11th unit's three tries
        out = tmp_path / "o"
        assert main(["eval", "--suite", suite_csv, "--endpoint", http_server.url,
                     "--directions", "aaa-eng", "--out", str(out)]) == 0
        assert len(http_server.requests) == 102
        report = json.loads((out / "report.json").read_text())
        assert (report["total_items"], report["total_failed"], report["invalid"]) == (100, 1, False)
        _header, *records = jsonio.read_jsonl(out / "run_log.jsonl")
        assert [(r["id"], r["response"]) for r in records if r["status"] != "ok"] == [
            ("aaa-eng:3:0", "request failed after 3 attempts: reply content is NoneType, "
                            "not a string")]
        rescored = tmp_path / "rescored"
        assert main(["eval", "--suite", suite_csv, "--rescore", str(out / "run_log.jsonl"),
                     "--out", str(rescored)]) == 0
        assert (rescored / "report.json").read_bytes() == (out / "report.json").read_bytes()

    def test_rescore_copies_its_log_byte_for_byte(self, tmp_path, suite_csv):
        out = tmp_path / "out"
        assert main(["eval", "--suite", suite_csv, "--endpoint", "stub:echo",
                     "--directions", "aaa-eng", "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        # Rescored into the directory that holds it, the log stays as it is.
        assert main(["eval", "--suite", suite_csv, "--rescore", str(out / "run_log.jsonl"),
                     "--out", str(out)]) == 0
        assert {p.name: p.read_bytes() for p in out.iterdir()
                if p.name != "resolved_config.yaml"} == {
            name: data for name, data in before.items() if name != "resolved_config.yaml"}
        # Elsewhere, its copy keeps even line ends that the reader ignores.
        crlf = tmp_path / "crlf.jsonl"
        crlf.write_bytes(before["run_log.jsonl"].replace(b"\n", b"\r\n"))
        rescored = tmp_path / "rescored"
        assert main(["eval", "--suite", suite_csv, "--rescore", str(crlf),
                     "--out", str(rescored)]) == 0
        assert (rescored / "run_log.jsonl").read_bytes() == crlf.read_bytes()
        assert (rescored / "report.json").read_bytes() == before["report.json"]

    def test_invalid_run_writes_both_files_then_fails(self, tmp_path, suite_csv, capsys,
                                                     http_server, monkeypatch):
        monkeypatch.setattr(jsonio.time, "sleep", lambda seconds: None)
        out = tmp_path / "o"
        assert main(["eval", "--suite", suite_csv, "--endpoint", "stub:echo",
                     "--directions", "aaa-eng", "--out", str(out)]) == 0
        # The first 80 units are answered; the script then runs out, and
        # each try of the last 20 fails.
        http_server.script = [Reply(body={"choices": [{"message": {"content": "x"}}]})] * 80
        capsys.readouterr()
        assert main(["eval", "--suite", suite_csv, "--endpoint", http_server.url,
                     "--directions", "aaa-eng", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err) == {"error": "run invalid: 20/100 items failed", "type": "CliError"}
        report = json.loads((out / "report.json").read_text())
        assert (report["invalid"], report["total_failed"], report["total_items"]) == (True, 20, 100)
        _header, *records = jsonio.read_jsonl(out / "run_log.jsonl")
        assert [r["status"] for r in records] == ["ok"] * 80 + ["error"] * 20
        assert not (out / ".savanna.lock").exists()


RUN = {"model": "m", "suite": "{suite}", "run_log": "{run_log}"}


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

    def report_of_run(self, tmp_path, suite_csv, directions, out):
        """Run an echo eval over ``directions``, then a report of it into ``out``."""
        eval_out = tmp_path / f"eval_{directions}"
        assert main(["eval", "--suite", suite_csv, "--endpoint", "stub:echo",
                     "--directions", directions, "--out", str(eval_out)]) == 0
        config = write_yaml(tmp_path / "c.yaml", {
            "use_published_reference": False,
            "runs": [{"model": "echo", "suite": suite_csv,
                      "run_log": str(eval_out / "run_log.jsonl")}],
        })
        assert main(["report", "--config", config, "--out", str(out)]) == 0

    def test_invalid_run_refused(self, tmp_path, suite_csv, capsys):
        eval_out = tmp_path / "eval"
        assert main(["eval", "--suite", suite_csv, "--endpoint", "stub:echo",
                     "--directions", "aaa-eng,eng-aaa", "--out", str(eval_out)]) == 0
        header, *records = jsonio.read_jsonl(eval_out / "run_log.jsonl")
        for record in records[::2]:
            record["status"] = "error"
        half_failed = tmp_path / "half_failed.jsonl"
        jsonio.write_jsonl(half_failed, records, header=header)
        config = write_yaml(tmp_path / "c.yaml", {"use_published_reference": False, "runs": [
            {"model": "half", "suite": suite_csv, "run_log": str(half_failed)}]})
        out = tmp_path / "report"
        assert main(["report", "--config", config, "--out", str(out)]) == 1
        assert_config_error(capsys, out, "run of half invalid: 100/200 items failed")

    def test_runs_of_other_granularity_refused(self, tmp_path, suite_csv, capsys):
        runs = []
        for granularity in ("sentence", "document"):
            eval_out = tmp_path / granularity
            assert main(["eval", "--suite", suite_csv, "--endpoint", "stub:echo",
                         "--directions", "aaa-eng", "--granularity", granularity,
                         "--out", str(eval_out)]) == 0
            runs.append({"model": f"echo-{granularity[0]}", "suite": suite_csv,
                         "run_log": str(eval_out / "run_log.jsonl")})
        config = write_yaml(tmp_path / "c.yaml", {"use_published_reference": False, "runs": runs})
        out = tmp_path / "report"
        assert main(["report", "--config", config, "--out", str(out)]) == 1
        assert_config_error(capsys, out, "runs disagree on granularity: "
                                         "echo-s has sentence, echo-d has document")

    def test_runs_of_other_prompt_refused(self, tmp_path, suite_csv, capsys):
        eval_out = tmp_path / "eval"
        assert main(["eval", "--suite", suite_csv, "--endpoint", "stub:echo",
                     "--directions", "aaa-eng", "--out", str(eval_out)]) == 0
        header, *records = jsonio.read_jsonl(eval_out / "run_log.jsonl")
        hashes = [evalharness._prompt_hash(header["prompt_template"])]
        header["prompt_template"] += "\n"
        hashes.append(evalharness._prompt_hash(header["prompt_template"]))
        jsonio.write_jsonl(tmp_path / "other.jsonl", records, header=header)
        config = write_yaml(tmp_path / "c.yaml", {"use_published_reference": False, "runs": [
            {"model": "a", "suite": suite_csv, "run_log": str(eval_out / "run_log.jsonl")},
            {"model": "b", "suite": suite_csv, "run_log": str(tmp_path / "other.jsonl")}]})
        out = tmp_path / "report"
        assert main(["report", "--config", config, "--out", str(out)]) == 1
        assert_config_error(capsys, out, f"runs disagree on prompt_hash: "
                                         f"a has {hashes[0]}, b has {hashes[1]}")

    def test_run_log_of_another_suite_is_named(self, tmp_path, suite_csv, capsys):
        other = tmp_path / "other.csv"
        save_suite(synthetic_suite(languages=("aaa", "bbb"), seed=6), other)
        logs = []
        for i, suite in enumerate((suite_csv, other)):
            assert main(["eval", "--suite", str(suite), "--endpoint", "stub:echo",
                         "--directions", "aaa-eng", "--out", str(tmp_path / f"eval{i}")]) == 0
            logs.append(tmp_path / f"eval{i}" / "run_log.jsonl")
        config = write_yaml(tmp_path / "c.yaml", {"use_published_reference": False, "runs": [
            {"model": f"m{i}", "suite": suite_csv, "run_log": str(log)}
            for i, log in enumerate(logs)]})
        out = tmp_path / "report"
        assert main(["report", "--config", config, "--out", str(out)]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": f"{logs[1]}:1: run log was produced from a different suite",
            "type": "ValueError"}
        assert not out.exists()

    # A run named for a model that has scores, published, from a table or
    # from an earlier run, would overwrite that model's scores where they
    # meet and mix the two below them.
    @pytest.mark.parametrize("config, message", [
        ({"use_published_reference": True, "runs": [{**RUN, "model": "gpt-4o"}]},
         "runs[0].model 'gpt-4o' already has scores"),
        ({"tables": [{"path": "{table}", "direction": "xx-eng", "metric": "chrf"}],
          "runs": [RUN]}, "runs[0].model 'm' already has scores"),
        ({"use_published_reference": False, "runs": [RUN, RUN]},
         "runs[1].model 'm' already has scores"),
    ], ids=["published", "table", "earlier-run"])
    def test_run_of_model_with_scores_refused(self, tmp_path, capsys, config, message):
        suite, eval_out, table = tmp_path / "lug.csv", tmp_path / "eval", tmp_path / "table.csv"
        save_suite(synthetic_suite(languages=("lug",)), suite)
        assert main(["eval", "--suite", str(suite), "--endpoint", "stub:echo",
                     "--directions", "lug-eng", "--out", str(eval_out)]) == 0
        table.write_text("lang,language,m\nlug,Luganda,0.5\n")
        config = write_yaml(tmp_path / "c.yaml", with_inputs(config, {
            "suite": suite, "run_log": eval_out / "run_log.jsonl", "table": table}))
        capsys.readouterr()
        out = tmp_path / "report"
        assert main(["report", "--config", config, "--out", str(out)]) == 1
        assert_config_error(capsys, out, message)

    def test_run_log_report(self, tmp_path, suite_csv):
        out = tmp_path / "report"
        self.report_of_run(tmp_path, suite_csv, "aaa-eng,eng-aaa", out)
        counts = json.loads((out / "winner_counts.json").read_text())
        assert counts == {"echo": 1}

    def test_one_direction_run_report(self, tmp_path, suite_csv):
        out = tmp_path / "report"
        self.report_of_run(tmp_path, suite_csv, "aaa-eng", out)
        # Winner counts and the chart rank bidirectional means, which need eng-xx.
        assert sorted(p.name for p in out.iterdir()) == [
            "mean_table.md", "per_language_xx-eng.md", "resolved_config.yaml"]

    def test_per_language_tables_list_languages_of_their_direction(self, tmp_path, suite_csv):
        out = tmp_path / "report"
        self.report_of_run(tmp_path, suite_csv, "aaa-eng,eng-bbb", out)
        xx_eng = (out / "per_language_xx-eng.md").read_text()
        eng_xx = (out / "per_language_eng-xx.md").read_text()
        assert "| aaa |" in xx_eng and "bbb" not in xx_eng
        assert "| bbb |" in eng_xx and "aaa" not in eng_xx
        assert not (out / "winner_counts.json").exists() and not (out / "chart.csv").exists()


class TestLossCommand:
    def test_audit(self, tmp_path, capsys):
        pairs = [preference_loss.PairLogps([-0.5, -1.5], [-2.0], [-0.5, -1.5], [-2.0])]
        path = tmp_path / "pairs.jsonl"
        write_pair_logps_jsonl(pairs, path)
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
        assert err == {"error": f"{path}:2: NaN is not valid JSON", "type": "ValueError"}
        assert not (out / "loss_audit.json").exists()

    def test_sums_that_overflow_fail_before_output(self, tmp_path, capsys):
        # Each entry is a finite number; their sums are not.
        path = tmp_path / "pairs.jsonl"
        path.write_text(json.dumps({"policy_chosen": [-1e308, -1e308], "policy_rejected": [-2.0],
                                    "ref_chosen": [-0.5, -0.5], "ref_rejected": [-2.0]}) + "\n",
                        encoding="utf-8")
        out = tmp_path / "out"
        assert main(["loss", "--pairs", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err)["type"] == "ValueError"
        assert not out.exists()

    def test_peak_memory_does_not_grow_with_the_pairs(self, tmp_path, capsys):
        # Pairs of 100 tokens a side, each float its own object once parsed.
        line = json.dumps({name: [-0.25 - k / 8] * 100 for k, name in enumerate(
            ("policy_chosen", "policy_rejected", "ref_chosen", "ref_rejected"))}) + "\n"
        peaks = {}
        for n in (200, 2000):
            path = tmp_path / f"pairs{n}.jsonl"
            path.write_text(line * n, encoding="utf-8")
            gc.collect()  # earlier tests' garbage is not freed inside the measured window
            tracemalloc.start()
            try:
                assert main(["loss", "--pairs", str(path), "--out", str(tmp_path / f"o{n}")]) == 0
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        parsed = 2000 * 400 * (sys.getsizeof(0.25) + 8)  # every float and a pointer to it
        assert peaks[2000] < parsed / 4
        # What grows is the audit's row of 4 numbers per pair, not its 400 floats.
        assert peaks[2000] - peaks[200] < parsed / 10

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


# (command, config, message): each config fails to resolve before any output.
BAD_CONFIGS = [
    ("corpus", {"inputs": [], "sample_sise": 5},
     "sample_sise is not a known key; did you mean sample_size?"),
    ("corpus", {"inputs": "docs.jsonl"}, "inputs must be a list"),
    ("corpus", {"inputs": [], "seed": "1"}, "seed must be an integer"),
    ("corpus", {}, "inputs is required"),
    ("corpus", {"inputs": [], "backtranslate": {"targets": ["lug"]}},
     "backtranslate.endpoint is required"),
    ("corpus", {"inputs": [], "backtranslate": {"endpoint": "http://mt", "targets": "lug"}},
     "backtranslate.targets must be a list"),
    ("corpus", {"inputs": [0]}, "inputs[0] must be a string"),
    ("corpus", {"inputs": [], "backtranslate": {"endpoint": "http://mt", "targets": ["lug", 3]}},
     "backtranslate.targets[1] must be a string"),
    ("instruct", {"parallel": "pairs.jsonl", "max_lne": 128},
     "max_lne is not a known key; did you mean max_len?"),
    ("instruct", {"parallel": "pairs.jsonl", "max_len": "512"}, "max_len must be an integer"),
    ("instruct", {"parallel": "pairs.jsonl", "noisy_fraction": None},
     "noisy_fraction must be a finite number"),
    ("instruct", {"max_len": 128}, "parallel is required"),
    ("eval", {"suite": "suite.csv", "endpiont": "stub:echo"},
     "endpiont is not a known key; did you mean endpoint?"),
    ("eval", {"suite": "suite.csv", "endpoint": "stub:echo", "directions": "aaa-eng",
              "full_suite": "yes"}, "full_suite must be true or false"),
    ("eval", {"suite": "suite.csv", "endpoint": "stub:echo", "directions": 7},
     "directions must be a string or a list"),
    ("eval", {"endpoint": "stub:echo", "directions": "aaa-eng"}, "suite is required"),
    ("eval", {"suite": "suite.csv", "directions": "aaa-eng"},
     "endpoint is required unless rescore is set"),
    ("eval", {"suite": "suite.csv", "endpoint": "stub:echo"},
     "directions is required unless rescore is set"),
    ("eval", {"suite": "suite.csv", "endpoint": "stub:echo", "directions": "aaa"},
     "bad direction: 'aaa'"),
    ("eval", {"suite": "suite.csv", "endpoint": "stub:echo", "directions": []},
     "directions must name at least one src-tgt pair"),
    ("eval", {"suite": "suite.csv", "endpoint": "stub:echo", "directions": ""},
     "directions must name at least one src-tgt pair"),
    ("eval", {"suite": "suite.csv", "endpoint": "stub:echo", "directions": "aaa-eng",
              "granularity": "paragraph"},
     "granularity must be sentence or document, got 'paragraph'"),
    ("eval", {"suite": "suite.csv", "endpoint": "http://llm", "directions": "aaa-eng",
              "model_name": "sunflower"}, "model_name is not a known key; did you mean model?"),
    # YAML's .nan and .inf are floats, but no output file could hold them.
    ("eval", {"suite": "suite.csv", "endpoint": "stub:echo", "directions": "aaa-eng",
              "temperature": float("nan")}, "temperature must be a finite number"),
    ("eval", {"suite": "suite.csv", "endpoint": "http://llm", "directions": "aaa-eng",
              "timeout": float("-inf")}, "timeout must be a finite number"),
    ("report", {"run": []}, "run is not a known key; did you mean runs?"),
    ("report", {"tables": {"path": "t.csv"}}, "tables must be a list"),
    ("report", {"runs": [{"model": "m", "suite": "suite.csv"}]}, "runs[0].run_log is required"),
    ("report", {"runs": ["run_log.jsonl"]}, "runs[0] must be a mapping"),
    ("report", {"winner_models": ["m", None]}, "winner_models[1] must be a string"),
    ("report", {"tables": [{"path": 1, "direction": "xx-eng", "metric": "chrf"}]},
     "tables[0].path must be a string"),
    ("report", {"tables": [{"path": "t.csv", "direction": "sideways", "metric": "chrf"}]},
     "tables[0].direction must be xx-eng or eng-xx, got 'sideways'"),
    ("report", {"tables": [{"path": "t.csv", "direction": "xx-eng", "metric": "ter"}]},
     "tables[0].metric must be chrf, bleu, cer or wer, got 'ter'"),
    ("report", {"runs": [{"model": "m", "suite": "s.csv", "run_log": "l.jsonl", "log": "x"}]},
     "runs[0].log is not a known key; did you mean run_log?"),
    ("loss", {"pairs": "logps.jsonl", "alpha": 1.0},
     "alpha is not a known key; did you mean alpha_rpo?"),
    ("loss", {"pairs": "logps.jsonl", "beta": True}, "beta must be a finite number"),
    ("loss", {"pairs": "logps.jsonl", "alpha_rpo": float("inf")},
     "alpha_rpo must be a finite number"),
    ("loss", {"beta": 0.1}, "pairs is required"),
]


def assert_config_error(capsys, out, message):
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": message, "type": "CliError"}
    assert not out.exists()


class TestConfigResolution:
    @pytest.mark.parametrize("command, config, message", BAD_CONFIGS,
                             ids=[f"{c}-{m.split()[0]}" for c, _, m in BAD_CONFIGS])
    def test_bad_config_fails_before_output(self, tmp_path, capsys, command, config, message):
        path = write_yaml(tmp_path / "c.yaml", config)
        out = tmp_path / "out"
        assert main([command, "--config", path, "--out", str(out)]) == 1
        assert_config_error(capsys, out, message)

    @pytest.mark.parametrize("command", ["corpus", "instruct", "eval", "report", "loss"])
    @pytest.mark.parametrize("text, message", [
        ("inputs: [a\nseed: 1\n", "is not valid YAML: while parsing a flow sequence"),
        ("- inputs\n- seed\n", "the config must be a mapping"),
    ], ids=["malformed", "list"])
    def test_unreadable_config_fails_before_output(self, tmp_path, capsys, command, text, message):
        path = tmp_path / "c.yaml"
        path.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        error = json.loads(err)
        assert error["type"] == "CliError" and message in error["error"]
        assert not out.exists()

    def test_flag_overrides_key_and_is_recorded(self, tmp_path, suite_csv):
        config = write_yaml(tmp_path / "c.yaml", {"suite": "elsewhere.csv", "directions": "x-y"})
        out = tmp_path / "out"
        assert main(["eval", "--config", config, "--suite", suite_csv, "--endpoint", "stub:echo",
                     "--directions", "aaa-eng", "--out", str(out)]) == 0
        resolved = yaml.safe_load((out / "resolved_config.yaml").read_text())
        assert resolved == {
            "suite": suite_csv, "rescore": None, "endpoint": "stub:echo", "directions": "aaa-eng",
            "granularity": "sentence", "full_suite": True, "max_parallel": 1, "temperature": 0.0,
            "model": "stub:echo", "timeout": 60.0, "retries": 2,
            "seed": 0, "out": str(out),
        }

    def test_null_takes_computed_default(self, tmp_path):
        path = write_yaml(tmp_path / "c.yaml", {"use_published_reference": None})
        out = tmp_path / "out"
        assert main(["report", "--config", path, "--out", str(out)]) == 0
        resolved = yaml.safe_load((out / "resolved_config.yaml").read_text())
        assert resolved["use_published_reference"] is True

    def test_empty_backtranslate_mapping_is_checked(self, tmp_path, capsys):
        # As a BAD_CONFIGS entry its id would clash with the existing
        # backtranslate.endpoint entry and rename that test.
        path = write_yaml(tmp_path / "c.yaml", {"inputs": [], "backtranslate": {}})
        out = tmp_path / "out"
        assert main(["corpus", "--config", path, "--out", str(out)]) == 1
        assert_config_error(capsys, out, "backtranslate.endpoint is required")

    # As BAD_CONFIGS entries their ids would clash with the existing loss-beta
    # entry and rename that test.
    @pytest.mark.parametrize("beta", [float("nan"), 10 ** 400], ids=["nan", "401-digits"])
    def test_beta_no_float_holds_fails_before_output(self, tmp_path, capsys, beta):
        path = write_yaml(tmp_path / "c.yaml", {"pairs": "logps.jsonl", "beta": beta})
        out = tmp_path / "out"
        assert main(["loss", "--config", path, "--out", str(out)]) == 1
        assert_config_error(capsys, out, "beta must be a finite number")

    def test_bad_mixture_weight_fails_before_output(self, tmp_path, capsys):
        path = write_yaml(tmp_path / "c.yaml", {"inputs": [], "source_weights": {"web": "x"}})
        out = tmp_path / "out"
        assert main(["corpus", "--config", path, "--out", str(out)]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "source_weights.web must be a finite number >= 0, got 'x'",
            "type": "ValueError"}
        assert not out.exists()

    def test_unknown_stub_endpoint_rejected(self, tmp_path, suite_csv, capsys):
        out = tmp_path / "o"
        assert main(["eval", "--suite", suite_csv, "--endpoint", "stub:empty",
                     "--directions", "aaa-eng", "--out", str(out)]) == 1
        assert_config_error(capsys, out, "unknown stub endpoint: stub:empty")


def outputs(out):
    """The bytes of each output file but resolved_config.yaml.  A run log is
    compared record by record without ``latency_ms``, the one field that
    differs between two runs."""
    files = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "resolved_config.yaml"}
    if "run_log.jsonl" in files:
        files["run_log.jsonl"] = [{k: v for k, v in json.loads(line).items() if k != "latency_ms"}
                                  for line in files["run_log.jsonl"].splitlines()]
    return files


class TestResolvedConfigRoundTrip:
    """A run's resolved_config.yaml, passed back as --config with a fresh
    --out, reproduces the run's outputs byte for byte, and resolves to the
    same config."""

    def rerun(self, tmp_path, command, argv):
        first, second = tmp_path / f"{command}1", tmp_path / f"{command}2"
        assert main([command, *argv, "--out", str(first)]) == 0
        resolved = first / "resolved_config.yaml"
        assert main([command, "--config", str(resolved), "--out", str(second)]) == 0
        assert outputs(second) == outputs(first)
        again = yaml.safe_load((second / "resolved_config.yaml").read_text())
        assert again == {**yaml.safe_load(resolved.read_text()), "out": str(second)}
        return first

    def test_corpus_with_bible(self, tmp_path):
        docs = [make_document("lug", f"ekigambo {i} mu lukalala", "web") for i in range(20)]
        corpus.write_documents_jsonl(docs, tmp_path / "docs.jsonl")
        for lang, text in (("lug", "gen\t1\t1\tMu kusooka\n"), ("eng", "gen\t1\t1\tIn the beginning\n")):
            (tmp_path / f"{lang}.tsv").write_text(text, encoding="utf-8")
        config = write_yaml(tmp_path / "c.yaml", {
            "inputs": [str(tmp_path / "docs.jsonl")], "sample_size": 5,
            "bible": [{"lang": "lug", "path": str(tmp_path / "lug.tsv")},
                      {"lang": "eng", "path": str(tmp_path / "eng.tsv")}]})
        first = self.rerun(tmp_path, "corpus", ["--config", config, "--seed", "3"])
        assert {"documents.jsonl", "pairs.jsonl", "manifest.json"} <= set(outputs(first))

    def test_instruct(self, tmp_path):
        pairs = [ParallelPair("lug", "eng", f"gamba {i}", f"say {i}") for i in range(8)]
        corpus.write_pairs_jsonl(pairs, tmp_path / "pairs.jsonl")
        config = write_yaml(tmp_path / "c.yaml", {
            "parallel": str(tmp_path / "pairs.jsonl"), "n_translation": 8, "max_len": 128,
            "tokens_per_batch": 1024})
        self.rerun(tmp_path, "instruct", ["--config", config, "--seed", "2"])

    def test_eval_echo(self, tmp_path, suite_csv):
        self.rerun(tmp_path, "eval", ["--suite", suite_csv, "--endpoint", "stub:echo",
                                      "--directions", "aaa-eng,eng-bbb"])

    def test_eval_rescore(self, tmp_path, suite_csv):
        eval_out = tmp_path / "eval"
        assert main(["eval", "--suite", suite_csv, "--endpoint", "stub:echo",
                     "--directions", "aaa-eng,eng-bbb", "--out", str(eval_out)]) == 0
        # The second run takes rescore from the YAML, with no --rescore flag.
        first = self.rerun(tmp_path, "eval", ["--suite", suite_csv,
                                              "--rescore", str(eval_out / "run_log.jsonl")])
        assert (first / "report.json").read_bytes() == (eval_out / "report.json").read_bytes()

    def test_report_with_runs(self, tmp_path, suite_csv):
        eval_out = tmp_path / "eval"
        assert main(["eval", "--suite", suite_csv, "--endpoint", "stub:echo",
                     "--directions", "aaa-eng,eng-aaa", "--out", str(eval_out)]) == 0
        config = write_yaml(tmp_path / "c.yaml", {"use_published_reference": False, "runs": [
            {"model": "echo", "suite": suite_csv, "run_log": str(eval_out / "run_log.jsonl")}]})
        self.rerun(tmp_path, "report", ["--config", config])

    def test_report_published(self, tmp_path):
        first = self.rerun(tmp_path, "report", [])
        resolved = yaml.safe_load((first / "resolved_config.yaml").read_text())
        assert resolved["use_published_reference"] is True
        assert {"mean_table.md", "per_language_xx-eng.md", "chart.csv"} <= set(outputs(first))

    def test_loss(self, tmp_path):
        pairs = [preference_loss.PairLogps([-0.5, -1.5], [-2.0], [-0.5, -1.5], [-2.0])]
        write_pair_logps_jsonl(pairs, tmp_path / "logps.jsonl")
        self.rerun(tmp_path, "loss", ["--pairs", str(tmp_path / "logps.jsonl")])


class TestAtomicOutputs:
    def test_failed_report_write_leaves_old_report(self, tmp_path, suite_csv, monkeypatch,
                                                   capsys):
        out = tmp_path / "out"
        assert main(["eval", "--suite", suite_csv, "--endpoint", "stub:echo",
                     "--directions", "aaa-eng", "--out", str(out)]) == 0
        before = (out / "report.json").read_bytes()
        replace = os.replace

        def failing_replace(src, dst):
            if os.path.basename(dst) == "report.json":
                raise OSError("disk full")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", failing_replace)
        capsys.readouterr()
        assert main(["eval", "--suite", suite_csv, "--endpoint", "stub:echo",
                     "--directions", "aaa-eng,eng-aaa", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err) == {"error": "disk full", "type": "OSError"}
        assert (out / "report.json").read_bytes() == before
        assert not list(out.glob("*.tmp"))
        assert not (out / ".savanna.lock").exists()

    def test_scoring_error_removes_the_earlier_report(self, tmp_path, suite_csv, monkeypatch,
                                                      capsys):
        out = tmp_path / "out"
        assert main(["eval", "--suite", suite_csv, "--endpoint", "stub:echo",
                     "--directions", "aaa-eng", "--out", str(out)]) == 0

        def failing_score(record, reference):
            raise RuntimeError("scoring broke")

        monkeypatch.setattr(evalharness, "_score_unit", failing_score)
        capsys.readouterr()
        assert main(["eval", "--suite", suite_csv, "--endpoint", "stub:echo",
                     "--directions", "aaa-eng,eng-aaa", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err) == {
            "error": "scoring unit aaa-eng:1:0 failed: RuntimeError: scoring broke",
            "type": "CliError"}
        # This run's log, written in full, and no report beside it.
        assert sorted(p.name for p in out.iterdir()) == ["resolved_config.yaml", "run_log.jsonl"]
        header, *records = jsonio.read_jsonl(out / "run_log.jsonl")
        assert header["directions"] == [["aaa", "eng"], ["eng", "aaa"]]
        assert len(records) == 200

    def test_output_under_a_file_fails_in_one_line(self, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("kept")
        config = write_yaml(tmp_path / "c.yaml", {"inputs": []})
        assert main(["corpus", "--config", config, "--out", str(afile / "x")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err)["type"] == "NotADirectoryError"
        assert afile.read_text() == "kept"


# Score-table cells that float() parses but that are not finite scores.
NON_FINITE_CELLS = ("nan", "inf", "-inf", "Infinity")


def _lines(*objs):
    return "".join(json.dumps(obj) + "\n" for obj in objs)


DOC = make_document("lug", "omwana agenda mu kibuga", "web").__dict__
PAIR = ParallelPair("lug", "eng", "gamba", "say").__dict__
LOGPS = {"policy_chosen": [-0.5], "policy_rejected": [-2.0],
         "ref_chosen": [-0.5], "ref_rejected": [-2.0]}
CHAT = {"category": "creative", "turns": [{"role": "user", "text": "Wandiikira oluyimba"},
                                          {"role": "assistant", "text": "Omwana agenda"}]}
# A header of suite_csv with every key rescoring reads, so that a record
# after it is checked.
RUN_LOG_HEADER = {"type": "header", "version": evalharness.RUN_LOG_VERSION,
                  "suite_hash": SUITE.content_hash(), "directions": [],
                  "granularity": "sentence", "prompt_template": ""}
RUN_LOG_HEADER_KEYS = ("suite_hash", "directions", "granularity", "prompt_template")
# A header value of the wrong kind for each key, and the end of its error.
BAD_HEADER_VALUES = {
    "suite_hash": (5, "suite_hash must be a string"),
    "prompt_template": (5, "prompt_template must be a string"),
    "granularity": ("page", "granularity must be sentence or document, got 'page'"),
    "directions": ([["aaa"]], "directions[0] must be a list of two strings"),
}
# JSONL input files that are strict JSON but do not hold the records their
# command reads, by name.
MALFORMED = {
    "doc_extra_key": _lines(DOC, {**DOC, "x": 1}),
    "doc_list": _lines(DOC, [1, 2]),
    "doc_int_text": _lines(DOC, {"id": "a", "lang": "lug", "text": 5, "source": "web"}),
    "doc_int_text_counted": _lines(DOC, {"id": "a", "lang": "lug", "text": 5, "source": "web",
                                         "char_count": 1}),
    "doc_int_lang": _lines(DOC, {"id": "a", "lang": 7, "text": "x", "source": "web"}),
    "doc_int_provenance": _lines(DOC, {**DOC, "provenance": 5}),
    "doc_int_license_note": _lines(DOC, {**DOC, "license_note": 5}),
    "doc_str_char_count": _lines(DOC, {**DOC, "char_count": "many"}),
    "doc_bt_int_provenance": _lines(DOC, {**DOC, "source": "synthetic_bt", "provenance": 5}),
    "doc_wrong_char_count": _lines(DOC, {"id": "a", "lang": "lug", "text": "Omwana omuto",
                                         "source": "web", "char_count": 99}),
    "pair_extra_key": _lines(PAIR, {**PAIR, "x": 1}),
    "pair_int_src_text": _lines(PAIR, {**PAIR, "src_text": 5}),
    "pair_unknown_origin": _lines(PAIR, {**PAIR, "origin": "nonsense"}),
    "pair_int_doc_id": _lines(PAIR, {**PAIR, "doc_id": 7}),
    # Malformed after the records that become examples, when a row takes one.
    "pair_late_int_tgt_lang": _lines(PAIR, PAIR, PAIR, {**PAIR, "tgt_lang": 1}),
    "chat_late_without_category": _lines(CHAT, CHAT, {"turns": CHAT["turns"]}),
    "chat_without_category": _lines(CHAT, {"turns": CHAT["turns"]}),
    "chat_int_text": _lines(CHAT, {**CHAT, "turns": [{"role": "user", "text": 5},
                                                     CHAT["turns"][1]]}),
    "chat_string_turn": _lines(CHAT, {**CHAT, "turns": ["hello", CHAT["turns"][1]]}),
    "chat_turn_extra_key": _lines(CHAT, {**CHAT, "turns": [{**CHAT["turns"][0], "x": 1},
                                                           CHAT["turns"][1]]}),
    "chat_int_langs": _lines(CHAT, {**CHAT, "langs_involved": 5}),
    "chat_int_turns": _lines(CHAT, {**CHAT, "turns": 5}),
    "logps_without_field": _lines(LOGPS, {k: v for k, v in LOGPS.items() if k != "ref_rejected"}),
    "logps_int_field": _lines(LOGPS, {**LOGPS, "policy_chosen": 5}),
    # 401 nines, which no float holds; false, which is no number; a string.
    **{f"logps_{name}_entry": _lines(LOGPS, {**LOGPS, "policy_chosen": [value]})
       for name, value in [("huge", -(10 ** 401 - 1)), ("false", False), ("string", "a")]},
    # Finite entries whose sums overflow, in the second pair but on line 3.
    "logps_overflow": _lines(LOGPS) + "\n" + _lines(
        {**LOGPS, "policy_chosen": [-1e308, -1e308], "ref_chosen": [-0.5, -0.5]}),
    # Two finite rows whose IRPO losses overflow when summed for their mean.
    "logps_mean_overflow": _lines(*[{**LOGPS, "policy_chosen": [-1e308],
                                     "ref_chosen": [-0.5]}] * 2),
    # The last line cut short, as a killed writer leaves it.
    "logps_last_line_cut": _lines(LOGPS, LOGPS, LOGPS) + '{"policy_chosen": [-0.5',
    "log_list_header": _lines([1]),
    "log_list_record": _lines(RUN_LOG_HEADER, [1]),
    "log_record_without_id": _lines(RUN_LOG_HEADER, {"status": "ok", "response": "x"}),
}


@pytest.fixture()
def inputs(tmp_path, suite_csv):
    """A valid input file of each kind, by name; ``missing`` names none.
    Each ``MALFORMED`` file, and ``null_response``, a run log with a record
    whose response is null, are invalid."""
    paths = {name: tmp_path / f"{name}.{ext}" for name, ext in (
        ("docs", "jsonl"), ("pairs", "jsonl"), ("logps", "jsonl"), ("vocab", "json"),
        ("bad_log", "jsonl"), ("bleu", "csv"), ("missing", "jsonl"))}
    corpus.write_documents_jsonl([make_document("lug", "omwana agenda mu kibuga", "web")],
                                 paths["docs"])
    corpus.write_pairs_jsonl([ParallelPair("lug", "eng", f"gamba {i}", f"say {i}")
                              for i in range(3)], paths["pairs"])
    write_pair_logps_jsonl([preference_loss.PairLogps([-0.5], [-2.0], [-0.5], [-2.0])],
                           paths["logps"])
    paths["vocab"].write_text('{"say": 0}')  # lacks every word of the prompt
    paths["wide_vocab"] = tmp_path / "wide_vocab.json"
    paths["wide_vocab"].write_text('{"say": 0, "gamba": 4294967296}')  # 2**32 needs 5 bytes
    paths["bad_log"].write_text('{"type": "record"}\n')
    paths["adir"] = tmp_path / "adir"
    paths["adir"].mkdir()
    paths["bleu"].write_text("lang,language,m\naaa,Aaa,12.5\n")
    paths["one_column"] = tmp_path / "one_column.csv"
    paths["one_column"].write_text("lang\naaa\n")
    for cell in NON_FINITE_CELLS:
        paths[cell] = tmp_path / f"{cell}.csv"
        paths[cell].write_text(f"lang,language,m\naaa,Aaa,{cell}\n")
    for name, text in MALFORMED.items():
        paths[name] = tmp_path / f"{name}.jsonl"
        paths[name].write_text(text, encoding="utf-8")
    eval_out = tmp_path / "eval"
    assert main(["eval", "--suite", suite_csv, "--endpoint", "stub:echo",
                 "--directions", "aaa-eng,eng-aaa", "--out", str(eval_out)]) == 0
    header, record, *records = jsonio.read_jsonl(eval_out / "run_log.jsonl")
    paths["null_response"] = tmp_path / "null_response.jsonl"
    jsonio.write_jsonl(paths["null_response"], [{**record, "response": None}, *records],
                       header=header)
    # The header is line 1 and the 200 records lines 2-201 of each log below.
    assert len(records) == 199
    bad_logs = {f"log_without_{key}": _lines({k: v for k, v in header.items() if k != key},
                                             record, *records)
                for key in RUN_LOG_HEADER_KEYS}
    bad_logs.update((f"log_bad_{key}", _lines({**header, key: value}, record, *records))
                    for key, (value, _message) in BAD_HEADER_VALUES.items())
    bad_logs["joined_logs"] = (eval_out / "run_log.jsonl").read_text(encoding="utf-8") * 2
    # The first unit again, failed, as appended records could repeat it.
    bad_logs["repeated_unit"] = _lines(header, record, *records,
                                       {**record, "status": "error", "response": "timed out"})
    for name, text in bad_logs.items():
        paths[name] = tmp_path / f"{name}.jsonl"
        paths[name].write_text(text, encoding="utf-8")
    return {**{name: str(path) for name, path in paths.items()}, "suite": suite_csv,
            "run_log": str(eval_out / "run_log.jsonl")}


def with_inputs(value, inputs):
    """``value`` with each ``{name}`` in its strings replaced by an input path."""
    if isinstance(value, dict):
        return {key: with_inputs(v, inputs) for key, v in value.items()}
    if isinstance(value, list):
        return [with_inputs(v, inputs) for v in value]
    return value.format(**inputs) if isinstance(value, str) else value


EVAL = {"suite": "{suite}", "endpoint": "stub:echo", "directions": "aaa-eng"}
# (command, config, part of the error): each input fails the run before the
# output directory is made.
BAD_INPUTS = {
    "corpus-missing-input": ("corpus", {"inputs": ["{docs}", "{missing}"]}, "missing.jsonl"),
    "corpus-missing-bible": ("corpus", {"inputs": [], "bible": [
        {"lang": "lug", "path": "{missing}"}, {"lang": "eng", "path": "{missing}"}]},
        "missing.jsonl"),
    "corpus-negative-sample": ("corpus", {"inputs": ["{docs}"], "sample_size": -5},
                               "sample_size must be >= 0, got -5"),
    "instruct-missing-parallel": ("instruct", {"parallel": "{missing}"}, "missing.jsonl"),
    "instruct-token-not-in-vocab": ("instruct", {"parallel": "{pairs}",
                                                 "tokenizer_vocab": "{vocab}"},
                                    "token not in vocabulary"),
    "instruct-negative-translation": ("instruct", {"parallel": "{pairs}", "n_translation": -1},
                                      "n_translation must be >= 0, got -1"),
    "instruct-negative-conversational": ("instruct", {"parallel": "{pairs}",
                                                      "n_conversational": -1},
                                         "n_conversational must be >= 0, got -1"),
    "instruct-noisy-fraction": ("instruct", {"parallel": "{pairs}", "noisy_fraction": 1.5},
                                "noisy_fraction must be in [0, 1], got 1.5"),
    "eval-missing-suite": ("eval", {**EVAL, "suite": "{missing}"}, "missing.jsonl"),
    "eval-missing-run-log": ("eval", {"suite": "{suite}", "rescore": "{missing}"}, "missing.jsonl"),
    "eval-no-english": ("eval", {**EVAL, "directions": "lug-ach"}, "eng on exactly one side"),
    "eval-language-not-in-suite": ("eval", {**EVAL, "directions": "aaa-eng,eng-ccc"},
                                   "language 'ccc' not in suite"),
    "eval-max-parallel-0": ("eval", {**EVAL, "max_parallel": 0},
                            "max_parallel must be an integer >= 1, got 0"),
    # One try per unit, so that a run that does start fails fast.
    **{f"eval-timeout-{name}": ("eval", {**EVAL, "endpoint": "http://localhost:9/v1",
                                         "timeout": timeout, "retries": 0},
                                "timeout must be > 0")
       for name, timeout in [("0", 0), ("negative", -1)]},
    "corpus-weight-too-large-for-a-float": (
        "corpus", {"inputs": ["{docs}"], "source_weights": {"web": 10 ** 401 - 1}},
        "source_weights.web must be a finite number >= 0, got 9999"),
    "corpus-bucket-weight-too-large-for-a-float": (
        "corpus", {"inputs": ["{docs}"], "source_weights": {"web": 1e308},
                   "lang_weights": {"lug": 1e308}, "sample_size": 1},
        "the weight of bucket web/lug, source_weights.web times lang_weights.lug, "
        "is too large for a float"),
    "corpus-bucket-weight-too-small-for-a-float": (
        "corpus", {"inputs": ["{docs}"], "source_weights": {"web": 1e-200},
                   "lang_weights": {"lug": 1e-200}},
        "the weight of bucket web/lug, source_weights.web times lang_weights.lug, "
        "is too small for a float"),
    "report-missing-table": ("report", {"tables": [
        {"path": "{missing}", "direction": "xx-eng", "metric": "chrf"}]}, "missing.jsonl"),
    "report-missing-run-log": ("report", {"runs": [{**RUN, "run_log": "{missing}"}]},
                               "missing.jsonl"),
    "report-malformed-run-log": ("report", {"runs": [{**RUN, "run_log": "{bad_log}"}]},
                                 "not a recognized run log"),
    "report-table-header-of-one-cell": ("report", {"tables": [
        {"path": "{one_column}", "direction": "xx-eng", "metric": "chrf"}]},
        "one_column.csv: lacks columns: expected lang, language, then one column per model"),
    "report-table-without-chrf": ("report", {"tables": [
        {"path": "{bleu}", "direction": "eng-xx", "metric": "bleu"}]},
        "model 'm' has eng-xx scores for aaa but no chrf"),
    **{f"report-{cell}-score": ("report", {"tables": [
        {"path": f"{{{cell}}}", "direction": "xx-eng", "metric": "chrf"}]},
        f"{cell}.csv:2: score of m for aaa is '{cell}', not finite")
       for cell in NON_FINITE_CELLS},
    "report-unknown-winner": ("report", {"winner_models": ["gpt-4o", "nobody"]},
                              "winner_models[1] is 'nobody', a model with no scores"),
    "loss-missing-pairs": ("loss", {"pairs": "{missing}"}, "missing.jsonl"),
    # A record that fails its key table names its file and line.
    "corpus-document-extra-key": ("corpus", {"inputs": ["{doc_extra_key}"]},
                                  "doc_extra_key.jsonl:2: x is not a known key"),
    "corpus-document-not-object": ("corpus", {"inputs": ["{doc_list}"]},
                                   "doc_list.jsonl:2: the record must be a mapping"),
    "corpus-document-text-not-string": ("corpus", {"inputs": ["{doc_int_text}"]},
                                        "doc_int_text.jsonl:2: text must be a string"),
    "corpus-document-text-not-string-with-count": (
        "corpus", {"inputs": ["{doc_int_text_counted}"]},
        "doc_int_text_counted.jsonl:2: text must be a string"),
    "corpus-document-lang-not-string": ("corpus", {"inputs": ["{doc_int_lang}"]},
                                        "doc_int_lang.jsonl:2: lang must be a string"),
    "corpus-document-provenance-not-mapping": (
        "corpus", {"inputs": ["{doc_int_provenance}"]},
        "doc_int_provenance.jsonl:2: provenance must be a mapping"),
    "corpus-document-license-note-not-string": (
        "corpus", {"inputs": ["{doc_int_license_note}"]},
        "doc_int_license_note.jsonl:2: license_note must be a string"),
    "corpus-document-char-count-not-int": (
        "corpus", {"inputs": ["{doc_str_char_count}"]},
        "doc_str_char_count.jsonl:2: char_count must be an integer"),
    "corpus-document-char-count-not-text-length": (
        "corpus", {"inputs": ["{doc_wrong_char_count}"]},
        "doc_wrong_char_count.jsonl:2: char_count must be 0 or the length of text"),
    "corpus-synthetic-bt-provenance-not-mapping": (
        "corpus", {"inputs": ["{doc_bt_int_provenance}"]},
        "doc_bt_int_provenance.jsonl:2: provenance must be a mapping"),
    "instruct-vocab-id-too-wide": ("instruct", {"parallel": "{pairs}",
                                                "tokenizer_vocab": "{wide_vocab}"},
                                   "vocabulary id of token 'gamba' must be an int in [0, 2**32), "
                                   "got 4294967296"),
    "instruct-pair-extra-key": ("instruct", {"parallel": "{pair_extra_key}"},
                                "pair_extra_key.jsonl:2: x is not a known key"),
    "instruct-conversational-without-category": (
        "instruct", {"parallel": "{pairs}", "conversational": "{chat_without_category}"},
        "chat_without_category.jsonl:2: category is required"),
    **{f"instruct-conversational-{case}": (
        "instruct", {"parallel": "{pairs}", "conversational": f"{{{name}}}"},
        f"{name}.jsonl:2: {message}") for case, name, message in [
            ("turn-text-not-string", "chat_int_text", "turns[0].text must be a string"),
            ("turn-not-object", "chat_string_turn", "turns[0] must be a mapping"),
            ("turn-extra-key", "chat_turn_extra_key", "turns[0].x is not a known key"),
            ("langs-not-list", "chat_int_langs", "langs_involved must be a list"),
            ("turns-not-list", "chat_int_turns", "turns must be a list")]},
    "instruct-pair-src-text-not-string": ("instruct", {"parallel": "{pair_int_src_text}"},
                                          "pair_int_src_text.jsonl:2: src_text must be a string"),
    "instruct-pair-unknown-origin": ("instruct", {"parallel": "{pair_unknown_origin}"},
                                     "pair_unknown_origin.jsonl:2: origin must be web, book_ocr, "
                                     "radio_transcript, dictionary, community, parallel, bible "
                                     "or synthetic_bt, got 'nonsense'"),
    "instruct-pair-doc-id-not-string": ("instruct", {"parallel": "{pair_int_doc_id}"},
                                        "pair_int_doc_id.jsonl:2: doc_id must be a string"),
    "instruct-pair-after-n-translation": (
        "instruct", {"parallel": "{pair_late_int_tgt_lang}", "n_translation": 1},
        "pair_late_int_tgt_lang.jsonl:4: tgt_lang must be a string"),
    "instruct-conversational-after-n-conversational": (
        "instruct", {"parallel": "{pairs}", "conversational": "{chat_late_without_category}",
                     "n_conversational": 1},
        "chat_late_without_category.jsonl:3: category is required"),
    "loss-pair-without-field": ("loss", {"pairs": "{logps_without_field}"},
                                "logps_without_field.jsonl:2: ref_rejected is required"),
    "loss-pair-field-not-list": ("loss", {"pairs": "{logps_int_field}"},
                                 "logps_int_field.jsonl:2: policy_chosen must be a list"),
    **{f"loss-pair-{name}-entry": (
        "loss", {"pairs": f"{{logps_{name}_entry}}"},
        f"logps_{name}_entry.jsonl:2: policy_chosen contains a non-finite log-probability: "
        "policy_chosen[0] is not a finite number") for name in ("huge", "false", "string")},
    "loss-pair-sums-overflow": ("loss", {"pairs": "{logps_overflow}"},
                                "logps_overflow.jsonl: pair 2: margin, nll_chosen, dpo_loss, "
                                "irpo_loss not finite, as a sum of its log-probabilities "
                                "overflows"),
    "loss-mean-overflows": ("loss", {"pairs": "{logps_mean_overflow}"},
                            "logps_mean_overflow.jsonl: the sum of the IRPO losses overflows"),
    # An input path that names a directory fails as an OSError does, in one line.
    "corpus-input-is-a-directory": ("corpus", {"inputs": ["{adir}"]}, "Is a directory"),
    "instruct-parallel-is-a-directory": ("instruct", {"parallel": "{adir}"}, "Is a directory"),
    "loss-last-line-cut": ("loss", {"pairs": "{logps_last_line_cut}"},
                           "logps_last_line_cut.jsonl:4: "),
    "eval-run-log-header-not-object": ("eval", {"suite": "{suite}", "rescore": "{log_list_header}"},
                                       "log_list_header.jsonl:1: not a recognized run log"),
    "eval-run-log-record-not-object": ("eval", {"suite": "{suite}", "rescore": "{log_list_record}"},
                                       "log_list_record.jsonl:2: the record must be a mapping"),
    "eval-run-log-record-without-id": (
        "eval", {"suite": "{suite}", "rescore": "{log_record_without_id}"},
        "log_record_without_id.jsonl:2: id is required"),
    "eval-run-log-null-response": ("eval", {"suite": "{suite}", "rescore": "{null_response}"},
                                   "null_response.jsonl:2: response must be a string"),
    # Each run log below fails alike when eval rescores it and when report reads it.
    **{f"{command}-{case}": (command, config, message)
       for case, log, message in [
           *[(f"run-log-without-{key}", f"log_without_{key}",
              f"log_without_{key}.jsonl:1: {key} is required")
             for key in RUN_LOG_HEADER_KEYS],
           *[(f"run-log-bad-{key}", f"log_bad_{key}",
              f"log_bad_{key}.jsonl:1: {message}")
             for key, (_value, message) in BAD_HEADER_VALUES.items()],
           ("run-logs-joined", "joined_logs",
            "joined_logs.jsonl:202: a second run log header"),
           ("run-log-repeated-unit", "repeated_unit",
            "repeated_unit.jsonl:202: unit id 'aaa-eng:1:0' repeats an earlier record")]
       for command, config in [("eval", {"suite": "{suite}", "rescore": f"{{{log}}}"}),
                               ("report", {"runs": [{**RUN, "run_log": f"{{{log}}}"}]})]},
}


@pytest.mark.parametrize("command, config, message", BAD_INPUTS.values(), ids=BAD_INPUTS)
def test_bad_input_fails_before_output(tmp_path, capsys, inputs, command, config, message):
    path = write_yaml(tmp_path / "c.yaml", with_inputs(config, inputs))
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([command, "--config", path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert message in json.loads(err)["error"]
    assert not out.exists()


# Each record type that an input file holds: the file, with "@" where a
# number goes; the command and config that read it; the line of the number;
# and the start of the error when the number overflows to infinity, which
# names the key.  A JSON document's key error names the file but no line.
TEMPLATE = {"user_prefix": "@", "user_suffix": "", "assistant_prefix": "", "assistant_suffix": ""}
NUMBER_IN_RECORD = {
    "document": (_lines(DOC, {**DOC, "provenance": {"score": "@"}}), "corpus",
                 {"inputs": ["{path}"]}, 2, ":2: provenance must hold finite numbers only"),
    "pair": (_lines(PAIR, {**PAIR, "src_text": "@"}), "instruct", {"parallel": "{path}"},
             2, ":2: src_text must be a string"),
    "instruction": (_lines(CHAT, {**CHAT, "langs_involved": ["@"]}), "instruct",
                    {"parallel": "{pairs}", "conversational": "{path}"},
                    2, ":2: langs_involved[0] must be a string"),
    "log-prob pair": (_lines(LOGPS, {**LOGPS, "policy_chosen": ["@"]}), "loss",
                      {"pairs": "{path}"}, 2, ":2: policy_chosen contains a non-finite "
                      "log-probability: policy_chosen[0] is not a finite number"),
    "run-log header": (_lines({**RUN_LOG_HEADER, "temperature": "@"}), "eval",
                       {"suite": "{suite}", "rescore": "{path}"},
                       1, ":1: temperature must be a finite number"),
    "run-log record": (_lines(RUN_LOG_HEADER, {"id": "u", "status": "ok", "response": "x",
                                               "latency_ms": "@"}), "eval",
                       {"suite": "{suite}", "rescore": "{path}"},
                       2, ":2: latency_ms must be a finite number"),
    "vocabulary": (_lines({"say": "@"}), "instruct",
                   {"parallel": "{pairs}", "tokenizer_vocab": "{path}"},
                   1, ": vocabulary id of token 'say' must be an int in [0, 2**32), got "),
    "chat template": (_lines(TEMPLATE), "instruct", {"parallel": "{pairs}", "template": "{path}"},
                      1, ": user_prefix must be a string"),
}


@pytest.mark.parametrize("literal", ["1e999", "-1E+400", "2.5e0309", "NaN", "Infinity"])
@pytest.mark.parametrize("record", NUMBER_IN_RECORD)
def test_number_not_finite_fails_before_output(tmp_path, capsys, suite_csv, record, literal):
    """A NaN or Infinity constant is refused when the file is decoded,
    naming the file and line; a literal that overflows to infinity is
    refused by its record's key table, naming the file, the key and, in a
    JSONL file, the line.  Either fails before the output directory is made."""
    text, command, config, line, overflow_error = NUMBER_IN_RECORD[record]
    path, pairs = tmp_path / "input", tmp_path / "pairs.jsonl"
    path.write_text(text.replace('"@"', literal), encoding="utf-8")
    corpus.write_pairs_jsonl([ParallelPair("lug", "eng", "gamba", "say")], pairs)
    config = with_inputs(config, {"path": path, "pairs": pairs, "suite": suite_csv})
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([command, "--config", write_yaml(tmp_path / "c.yaml", config),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    error = json.loads(err)["error"]
    if literal in ("NaN", "Infinity"):
        assert error == f"{path}:{line}: {literal} is not valid JSON"
    else:
        assert error.startswith(f"{path}{overflow_error}")
    assert not out.exists()


# (command, a good config, the same config changed to fail on its input)
RERUNS = {
    "corpus": ({"inputs": ["{docs}"]}, {"inputs": ["{docs}", "{missing}"], "seed": 4}),
    "instruct": ({"parallel": "{pairs}"}, {"parallel": "{pairs}", "n_translation": -1}),
    "eval": (EVAL, {**EVAL, "directions": "aaa-eng,eng-ccc", "max_parallel": 2}),
    "report": ({"runs": [RUN], "use_published_reference": False},
               {"runs": [RUN, {**RUN, "model": "n", "run_log": "{bad_log}"}]}),
    "loss": ({"pairs": "{logps}"}, {"pairs": "{missing}", "beta": 0.5}),
}


@pytest.mark.parametrize("command", RERUNS)
def test_failed_rerun_leaves_earlier_run_untouched(tmp_path, capsys, inputs, command):
    good, bad = (write_yaml(tmp_path / f"{name}.yaml", with_inputs(config, inputs))
                 for name, config in zip(("good", "bad"), RERUNS[command]))
    out = tmp_path / "out"
    assert main([command, "--config", good, "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert "resolved_config.yaml" in before and len(before) > 1
    assert main([command, "--config", bad, "--out", str(out)]) == 1
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.fixture()
def rerun_inputs(tmp_path, inputs):
    """``inputs`` with two Bible editions, a second log-prob file, and the
    logs of echo runs of aaa-eng only and of four directions."""
    paths = {"lug": tmp_path / "lug.tsv", "eng": tmp_path / "eng.tsv",
             "logps2": tmp_path / "logps2.jsonl"}
    paths["lug"].write_text("gen\t1\t1\tMu kusooka\n", encoding="utf-8")
    paths["eng"].write_text("gen\t1\t1\tIn the beginning\n", encoding="utf-8")
    write_pair_logps_jsonl([preference_loss.PairLogps([-1.5], [-0.5], [-1.0], [-1.0])] * 2,
                           paths["logps2"])
    for name, directions in [("one_way", "aaa-eng"),
                             ("four_way", "aaa-eng,eng-aaa,bbb-eng,eng-bbb")]:
        assert main(["eval", "--suite", inputs["suite"], "--endpoint", "stub:echo",
                     "--directions", directions, "--out", str(tmp_path / name)]) == 0
        paths[f"{name}_log"] = tmp_path / name / "run_log.jsonl"
    return {**inputs, **{name: str(path) for name, path in paths.items()}}


BIBLE = [{"lang": "lug", "path": "{lug}"}, {"lang": "eng", "path": "{eng}"}]
REPORT_RUN = {"runs": [{**RUN, "run_log": "{four_way_log}"}], "use_published_reference": False}
# (command, a config, the files its run writes, another config, the files
# its run writes), for a rerun into the first run's directory.
OVERWRITES = {
    "corpus-bible-then-none": (
        "corpus", {"inputs": ["{docs}"], "bible": BIBLE},
        ["documents.jsonl", "manifest.json", "pairs.jsonl"],
        {"inputs": ["{docs}"], "seed": 1}, ["documents.jsonl", "manifest.json"]),
    "instruct": ("instruct", {"parallel": "{pairs}"}, OUTPUTS["instruct"],
                 {"parallel": "{pairs}", "n_translation": 1, "max_len": 64},
                 OUTPUTS["instruct"]),
    "eval-echo-then-rescore": ("eval", EVAL, OUTPUTS["eval"],
                               {"suite": "{suite}", "rescore": "{run_log}"}, OUTPUTS["eval"]),
    "eval-rescore-then-echo": ("eval", {"suite": "{suite}", "rescore": "{run_log}"},
                               OUTPUTS["eval"], EVAL, OUTPUTS["eval"]),
    "report-four-directions-then-one": (
        "report", REPORT_RUN, leaderboard.REPORT_FILES,
        {**REPORT_RUN, "runs": [{**RUN, "run_log": "{one_way_log}"}]},
        ["mean_table.md", "per_language_xx-eng.md"]),
    "loss": ("loss", {"pairs": "{logps}"}, OUTPUTS["loss"],
             {"pairs": "{logps2}", "beta": 0.5}, OUTPUTS["loss"]),
}


@pytest.mark.parametrize("command, first, first_files, second, second_files",
                         OVERWRITES.values(), ids=OVERWRITES)
def test_rerun_leaves_only_this_runs_files(tmp_path, rerun_inputs, command, first, first_files,
                                           second, second_files):
    """A rerun into a directory leaves the files that the same run leaves
    in a fresh one, and no file of the earlier run."""
    first, second = (write_yaml(tmp_path / f"{name}.yaml", with_inputs(config, rerun_inputs))
                     for name, config in zip(("first", "second"), (first, second)))
    out, fresh = tmp_path / "out", tmp_path / "fresh"
    assert main([command, "--config", first, "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted([*first_files, "resolved_config.yaml"])
    earlier = outputs(out)
    assert main([command, "--config", second, "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted([*second_files, "resolved_config.yaml"])
    assert main([command, "--config", second, "--out", str(fresh)]) == 0
    assert outputs(out) == outputs(fresh) != earlier


@pytest.mark.parametrize("command, first, first_files, second, second_files",
                         OVERWRITES.values(), ids=OVERWRITES)
def test_interrupted_rerun_leaves_earlier_run(tmp_path, rerun_inputs, monkeypatch, command,
                                              first, first_files, second, second_files):
    """A rerun interrupted once its step has written every file leaves the
    earlier run's files as they were, and nothing of its own."""
    first, second = (write_yaml(tmp_path / f"{name}.yaml", with_inputs(config, rerun_inputs))
                     for name, config in zip(("first", "second"), (first, second)))
    out = tmp_path / "out"
    assert main([command, "--config", first, "--out", str(out)]) == 0
    earlier = {p.name: p.read_bytes() for p in out.iterdir()}
    make, help_text = cli.COMMANDS[command]

    def interrupted(config):
        run = make(config)

        def step(stage):
            run(stage)
            raise KeyboardInterrupt
        return step
    monkeypatch.setitem(cli.COMMANDS, command, (interrupted, help_text))
    with pytest.raises(KeyboardInterrupt):
        main([command, "--config", second, "--out", str(out)])
    assert sorted(p.name for p in out.iterdir()) == sorted(earlier)
    assert {p.name: p.read_bytes() for p in out.iterdir()} == earlier


def test_run_killed_mid_write_is_cleared_by_the_next(tmp_path, inputs):
    """A run killed while it streams documents.jsonl leaves its temporary
    file behind; the next run into the directory leaves no trace of it."""
    code = ("import os, signal, sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from savanna import cli, jsonio\n"
            "write = jsonio.write_jsonl_lines\n"
            "def killed_after_one(path, lines, header=None):\n"
            "    def first():\n"
            "        yield next(iter(lines))\n"
            "        os.kill(os.getpid(), signal.SIGKILL)\n"
            "    return write(path, first(), header)\n"
            "jsonio.write_jsonl_lines = killed_after_one\n"
            "cli.main(sys.argv[2:])\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    config = write_yaml(tmp_path / "c.yaml", {"inputs": [inputs["docs"]]})
    out, fresh = tmp_path / "out", tmp_path / "fresh"
    child = subprocess.run([sys.executable, "-c", code, src, "corpus", "--config", config,
                            "--out", str(out)], timeout=60)
    assert child.returncode == -signal.SIGKILL
    assert list(out.glob("**/documents.jsonl.*.tmp"))  # left by the kill
    assert main(["corpus", "--config", config, "--out", str(out)]) == 0
    assert main(["corpus", "--config", config, "--out", str(fresh)]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in fresh.iterdir())
    assert outputs(out) == outputs(fresh)


def test_sample_size_checked_before_backtranslation(tmp_path, capsys, inputs, monkeypatch):
    def backtranslate(*args):
        raise AssertionError("back-translation started")

    monkeypatch.setattr(corpus, "backtranslate", backtranslate)
    path = write_yaml(tmp_path / "c.yaml", {
        "inputs": [inputs["docs"]], "sample_size": -1,
        "backtranslate": {"endpoint": "http://localhost:9/mt", "targets": ["lug"]}})
    out = tmp_path / "out"
    assert main(["corpus", "--config", path, "--out", str(out)]) == 1
    assert json.loads(capsys.readouterr().err) == {"error": "sample_size must be >= 0, got -1",
                                                   "type": "ValueError"}
    assert not out.exists()


def test_zero_weight_mixture_fails_before_backtranslation(tmp_path, capsys, monkeypatch):
    def translate(text, source, target):
        raise AssertionError("back-translation started")

    monkeypatch.setattr(corpus, "HttpMtClient", lambda endpoint: StubMtClient(translate))
    docs = tmp_path / "eng.jsonl"
    corpus.write_documents_jsonl([make_document("eng", "the child goes to town", "web")], docs)
    path = write_yaml(tmp_path / "c.yaml", {
        "inputs": [str(docs)], "source_weights": {"web": 0, "synthetic_bt": 0},
        "backtranslate": {"endpoint": "http://localhost:9/mt", "targets": ["lug"]}})
    out = tmp_path / "out"
    assert main(["corpus", "--config", path, "--out", str(out)]) == 1
    assert json.loads(capsys.readouterr().err) == {"error": "all bucket weights are zero",
                                                   "type": "ValueError"}
    assert not out.exists()


def test_zero_weight_mixture_fails_before_output(tmp_path, capsys):
    docs = tmp_path / "lug.jsonl"
    corpus.write_documents_jsonl([make_document("lug", "omwana agenda mu kibuga", "web")], docs)
    path = write_yaml(tmp_path / "c.yaml", {"inputs": [str(docs)], "lang_weights": {"lug": 0}})
    out = tmp_path / "out"
    assert main(["corpus", "--config", path, "--out", str(out)]) == 1
    assert json.loads(capsys.readouterr().err) == {"error": "all bucket weights are zero",
                                                   "type": "ValueError"}
    assert not out.exists()


def test_document_not_utf8_names_file_and_line(tmp_path, capsys):
    docs = tmp_path / "docs.jsonl"
    docs.write_bytes(b'{"id": "a", "lang": "lug", "text": "omwana", "source": "web"}\n'
                     b'{"id": "b", "lang": "lug", "text": "om\xffwana", "source": "web"}\n')
    path = write_yaml(tmp_path / "c.yaml", {"inputs": [str(docs)]})
    out = tmp_path / "out"
    assert main(["corpus", "--config", path, "--out", str(out)]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": f"{docs}:2: 'utf-8' codec can't decode byte 0xff in position 38: "
                 "invalid start byte", "type": "ValueError"}
    assert not out.exists()


EVAL_OF_SUITE = {"suite": "{path}", "endpoint": "stub:echo", "directions": "aaa-eng"}
# (file name, its text with "@" for the byte 0xff, command, config naming
# the file as {path}, or None for the config file itself)
NOT_UTF8_INPUTS = {
    "suite-csv": ("suite.csv", "category_id,sent_index,english,aaa\n1,0,hi,h@i\n", "eval",
                  EVAL_OF_SUITE),
    "suite-tsv": ("suite.tsv", "category_id\tsent_index\tenglish\taaa\n1\t0\thi\th@i\n", "eval",
                  EVAL_OF_SUITE),
    "bible-tsv": ("lug.tsv", "gen\t1\t1\tMu kusooka\ngen\t1\t2\tE@nsi\n", "corpus",
                  {"inputs": [], "bible": [{"lang": "lug", "path": "{path}"},
                                           {"lang": "eng", "path": "{path}"}]}),
    "score-csv": ("scores.csv", "lang,language,m\naaa,A@a,12.5\n", "report",
                  {"tables": [{"path": "{path}", "direction": "xx-eng", "metric": "chrf"}]}),
    "config-yaml": ("c.yaml", "inputs: []\nseed: @\n", "corpus", None),
}


@pytest.mark.parametrize("name", NOT_UTF8_INPUTS)
def test_input_not_utf8_names_file_and_line(tmp_path, capsys, name):
    file_name, text, command, config = NOT_UTF8_INPUTS[name]
    path = tmp_path / file_name
    path.write_bytes(text.encode().replace(b"@", b"\xff"))
    if config is not None:
        config = write_yaml(tmp_path / "config.yaml", with_inputs(config, {"path": str(path)}))
    out = tmp_path / "out"
    assert main([command, "--config", config or str(path), "--out", str(out)]) == 1
    position = text.splitlines()[1].index("@")
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err) == {
        "error": f"{path}:2: 'utf-8' codec can't decode byte 0xff in position {position}: "
                 "invalid start byte", "type": "ValueError"}
    assert not out.exists()


def test_weights_near_the_float_limit_allocate_as_scaled(tmp_path):
    """Weights whose products with the sample size overflow a float draw
    the sample that the same weights scaled by a power of two draw, and
    the manifest records them as given."""
    docs = tmp_path / "docs.jsonl"
    corpus.write_documents_jsonl([make_document("lug", f"{source} ekigambo {i}", source)
                                  for source in ("web", "book_ocr") for i in range(30)], docs)
    runs = {}
    for name, weights, sample_size in [("one", {"web": 1e307}, None),
                                       ("huge", {"web": 1.5e308, "book_ocr": 5e307}, 20),
                                       ("small", {"web": 3, "book_ocr": 1}, 20)]:
        path = write_yaml(tmp_path / f"{name}.yaml", {
            "inputs": [str(docs)], "sample_size": sample_size, "source_weights": weights})
        assert main(["corpus", "--config", path, "--out", str(tmp_path / name)]) == 0
        manifest = json.loads((tmp_path / name / "manifest.json").read_text())
        runs[name] = ((tmp_path / name / "documents.jsonl").read_bytes(),
                      {key: (bucket["weight"], bucket["docs_out"])
                       for key, bucket in manifest["buckets"].items()})
    assert runs["one"][1] == {"web/lug": (1e307, 30), "book_ocr/lug": (1.0, 30)}
    assert runs["huge"][0] == runs["small"][0]
    assert runs["huge"][1] == {"web/lug": (1.5e308, 15), "book_ocr/lug": (5e307, 5)}
    assert runs["small"][1] == {"web/lug": (3.0, 15), "book_ocr/lug": (1.0, 5)}


# SHA-256 of documents.jsonl and manifest.json of the run below, by seed,
# recorded when a run without back-translation drew its sample before the
# output directory was locked.
CORPUS_DIGESTS = {
    0: ("adc1165ed0752fcd078c46849528a7c4d744fda9b4bc9dfe51b583c49f19abbc",
        "a20266e1a6b8dfd03d1fa51120ce8d2213a70ea7a59e283bbc8be1e51ecade60"),
    3: ("61b878c72ddccb77d18a6c8848e3979d43e9b33c979c1d305734af0a798c1e2f",
        "3fad4efdb56b225985f5abd70b7aca4bb17a0d3eed83c55778efbbff80e91c4d"),
}


@pytest.mark.parametrize("seed", CORPUS_DIGESTS)
def test_corpus_sample_is_unchanged(tmp_path, seed):
    rng = random.Random(11)
    words = ["omwana", "agenda", "mu", "kibuga", "ekinene", "nnyo", "the", "child", "goes", "town"]
    buckets = [("lug", "web"), ("lug", "book_ocr"), ("ach", "web"), ("eng", "web")]
    docs = []
    for i in range(60):
        lang, source = rng.choice(buckets)
        body = " ".join(rng.choice(words) for _ in range(rng.randint(3, 12)))
        docs.append(make_document(lang, f"{body}\n{i % 7}\ndone", source))  # a page number
    corpus.write_documents_jsonl(docs + docs[:10], tmp_path / "docs.jsonl")  # 10 duplicates
    path = write_yaml(tmp_path / "c.yaml", {
        "inputs": [str(tmp_path / "docs.jsonl")], "sample_size": 25, "seed": seed,
        "source_weights": {"book_ocr": 2.0}, "lang_weights": {"ach": 0.5}})
    out = tmp_path / "out"
    assert main(["corpus", "--config", path, "--out", str(out)]) == 0
    assert tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                 for name in ("documents.jsonl", "manifest.json")) == CORPUS_DIGESTS[seed]


def test_sample_size_above_the_corpus_keeps_every_document(tmp_path):
    buckets = [("lug", "web"), ("lug", "book_ocr"), ("ach", "web"), ("eng", "dictionary")]
    docs = [make_document(lang, f"ekigambo {i} mu lukalala", source)
            for i, (lang, source) in enumerate(buckets * 5)]
    corpus.write_documents_jsonl(docs, tmp_path / "docs.jsonl")
    runs = []
    for sample_size in (None, len(docs) + 1, 10 ** 400):
        path = write_yaml(tmp_path / "c.yaml", {
            "inputs": [str(tmp_path / "docs.jsonl")], "sample_size": sample_size,
            "source_weights": {"book_ocr": 0}, "lang_weights": {"ach": 0.5}})
        out = tmp_path / f"out{len(runs)}"
        assert main(["corpus", "--config", path, "--out", str(out)]) == 0
        runs.append(outputs(out))
    assert runs[0] == runs[1] == runs[2]
    assert json.loads(runs[0]["manifest.json"])["total_docs"] == 15


def readme_table(heading):
    """The keys of each row of the first table under ``heading`` in the
    README, by its first cell, each with its row's default cell."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split(heading, 1)[1].split("\n\n|", 1)[1].split("\n\n", 1)[0]
    documented = {}
    for row in table.splitlines()[2:]:
        name, keys, _kind, default = (cell.strip() for cell in row.split("|")[1:5])
        documented.setdefault(name, {}).update(
            (key, default) for key in re.findall(r"`([^`]+)`", keys))
    return documented


def test_readme_config_table_names_every_key():
    documented = readme_table("### Config keys")
    assert {command: set(keys) for command, keys in documented.items()} == {
        command: set(keys) for command, keys in CONFIG_KEYS.items()}


def test_readme_outputs_table_names_every_file():
    documented = readme_table("### Outputs")
    assert {command: set(files) for command, files in documented.items()} == {
        command: set(files) for command, files in OUTPUTS.items()}


RECORD_KEYS = {"document": corpus.DOCUMENT_KEYS, "pair": corpus.PAIR_KEYS,
               "instruction": instruct.INSTRUCTION_KEYS, "turn": instruct.TURN_KEYS,
               "log-prob pair": preference_loss.PAIR_LOGPS_KEYS,
               "chat template": instruct.TEMPLATE_KEYS,
               "run-log header": evalharness.RUN_LOG_HEADER_KEYS,
               "run-log record": evalharness.RUN_LOG_RECORD_KEYS}


def test_readme_record_table_names_every_key():
    documented = readme_table("### Record keys")
    assert {record: {key: default == "required" for key, default in keys.items()}
            for record, keys in documented.items()} == {
        record: {key: default is jsonio.REQUIRED for key, (_kind, default) in keys.items()}
        for record, keys in RECORD_KEYS.items()}


@pytest.mark.parametrize("cls, keys", [
    (corpus.CorpusDocument, corpus.DOCUMENT_KEYS), (ParallelPair, corpus.PAIR_KEYS),
    (preference_loss.PairLogps, preference_loss.PAIR_LOGPS_KEYS),
    (instruct.ChatTemplate, instruct.TEMPLATE_KEYS), (instruct.Turn, instruct.TURN_KEYS)])
def test_record_keys_are_the_fields_of_their_class(cls, keys):
    """A key table and the class its records build name the same fields,
    with the same defaults."""
    fields = dataclasses.fields(cls)
    assert [f.name for f in fields] == list(keys)
    for f in fields:
        default = f.default_factory() if f.default_factory is not dataclasses.MISSING else f.default
        assert keys[f.name][1] == (jsonio.REQUIRED if default is dataclasses.MISSING else default)
