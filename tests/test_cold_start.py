"""The HTTP stack is imported only by a live endpoint or back-translation,
and no offline command imports numpy.

Each test runs a fresh interpreter, because the test process itself has
long since imported ``requests``.
"""

import subprocess
import sys
from pathlib import Path

import savanna

SRC = str(Path(savanna.__file__).resolve().parents[1])
TESTS = str(Path(__file__).resolve().parent)

# Every offline command, in an interpreter where ``import requests`` raises.
OFFLINE = r"""
import sys
sys.modules["requests"] = None
sys.path[:0] = sys.argv[1:3]

from helpers import save_suite, write_pair_logps_jsonl

from savanna import corpus, evalharness, preference_loss
from savanna.cli import main

corpus.write_documents_jsonl([corpus.make_document("lug", "omwana agenda mu kibuga", "web")],
                             "docs.jsonl")
open("lug.tsv", "w", encoding="utf-8").write("gen\t1\t1\tMu kusooka\n")
open("eng.tsv", "w", encoding="utf-8").write("gen\t1\t1\tIn the beginning\n")
open("corpus.yaml", "w", encoding="utf-8").write(
    "inputs: [docs.jsonl]\n"
    "bible:\n- {lang: lug, path: lug.tsv}\n- {lang: eng, path: eng.tsv}\n")
open("instruct.yaml", "w", encoding="utf-8").write(
    "parallel: corpus_out/pairs.jsonl\nmax_len: 128\ntokens_per_batch: 1024\n")
save_suite(evalharness.synthetic_suite(languages=("lug",), seed=5), "suite.csv")
open("report.yaml", "w", encoding="utf-8").write(
    "use_published_reference: false\n"
    "runs:\n- {model: echo, suite: suite.csv, run_log: eval_out/run_log.jsonl}\n")
write_pair_logps_jsonl(
    [preference_loss.PairLogps([-0.5], [-2.0], [-0.5], [-2.0])], "logps.jsonl")

commands = [
    ["corpus", "--config", "corpus.yaml", "--out", "corpus_out"],
    ["instruct", "--config", "instruct.yaml", "--out", "instruct_out"],
    ["eval", "--suite", "suite.csv", "--endpoint", "stub:echo",
     "--directions", "lug-eng,eng-lug", "--out", "eval_out"],
    ["eval", "--suite", "suite.csv", "--rescore", "eval_out/run_log.jsonl",
     "--out", "rescore_out"],
    ["report", "--out", "published_out"],
    ["report", "--config", "report.yaml", "--out", "report_out"],
    ["loss", "--pairs", "logps.jsonl", "--out", "loss_out"],
]
for argv in commands:
    assert main(argv) == 0, argv
assert sys.modules["requests"] is None
# Scoring (eval, eval --rescore, report) stays stdlib-only: importing numpy
# alone adds about 12 MB of resident memory to a process that scores.
assert "numpy" not in sys.modules, "an offline command imported numpy"

try:
    evalharness.HttpCompletionClient("http://m", "m")
except ImportError:
    pass
else:
    raise AssertionError("HttpCompletionClient made a session without requests")
"""

# In a normal interpreter, ``requests`` arrives with the first HTTP client.
LAZY = r"""
import sys
sys.path.insert(0, sys.argv[1])

import savanna.cli
from savanna import corpus, evalharness

assert "requests" not in sys.modules
{client}
assert "requests" in sys.modules
"""


def run(code, tmp_path):
    result = subprocess.run([sys.executable, "-c", code, SRC, TESTS], cwd=tmp_path,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_offline_commands_run_without_requests(tmp_path):
    run(OFFLINE, tmp_path)


def test_http_clients_import_requests_on_construction(tmp_path):
    for client in ('evalharness.HttpCompletionClient("http://m", "m")',
                   'corpus.HttpMtClient("http://mt")'):
        run(LAZY.format(client=client), tmp_path)
