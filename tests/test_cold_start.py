"""The HTTP stack (``urllib.request`` and ``http.client``) is imported only
by a live endpoint or back-translation, and no offline command imports numpy.

Each test runs a fresh interpreter, because the test process itself has
long since imported the HTTP stack.
"""

import subprocess
import sys
from pathlib import Path

from helpers import save_suite, synthetic_suite, write_pair_logps_jsonl

import savanna
from savanna import corpus, preference_loss

SRC = str(Path(savanna.__file__).resolve().parents[1])

# Every offline command, in an interpreter where importing the HTTP stack
# raises.  The inputs are written beforehand, by ``write_inputs``.
OFFLINE = r"""
import sys
sys.modules["urllib.request"] = sys.modules["http.client"] = None
sys.path.insert(0, sys.argv[1])

from savanna.cli import main

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
assert sys.modules["urllib.request"] is None and sys.modules["http.client"] is None
# Scoring (eval, eval --rescore, report) stays stdlib-only: importing numpy
# alone adds about 12 MB of resident memory to a process that scores.
assert "numpy" not in sys.modules, "an offline command imported numpy"
"""

# In a normal interpreter, the HTTP stack arrives with the first request, not
# with the CLI or an HTTP client.
LAZY = r"""
import sys
sys.path.insert(0, sys.argv[1])

import savanna.cli
from savanna import corpus, evalharness

{client}
for name in ("urllib.request", "http.client", "ssl", "email"):
    assert name not in sys.modules, name
"""


def write_inputs(cwd):
    corpus.write_documents_jsonl([corpus.make_document("lug", "omwana agenda mu kibuga", "web")],
                                 cwd / "docs.jsonl")
    (cwd / "lug.tsv").write_text("gen\t1\t1\tMu kusooka\n", encoding="utf-8")
    (cwd / "eng.tsv").write_text("gen\t1\t1\tIn the beginning\n", encoding="utf-8")
    (cwd / "corpus.yaml").write_text(
        "inputs: [docs.jsonl]\n"
        "bible:\n- {lang: lug, path: lug.tsv}\n- {lang: eng, path: eng.tsv}\n")
    (cwd / "instruct.yaml").write_text(
        "parallel: corpus_out/pairs.jsonl\nmax_len: 128\ntokens_per_batch: 1024\n")
    save_suite(synthetic_suite(languages=("lug",), seed=5), cwd / "suite.csv")
    (cwd / "report.yaml").write_text(
        "use_published_reference: false\n"
        "runs:\n- {model: echo, suite: suite.csv, run_log: eval_out/run_log.jsonl}\n")
    write_pair_logps_jsonl(
        [preference_loss.PairLogps([-0.5], [-2.0], [-0.5], [-2.0])], cwd / "logps.jsonl")


def run(code, tmp_path):
    result = subprocess.run([sys.executable, "-c", code, SRC], cwd=tmp_path,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_offline_commands_run_without_http_stack(tmp_path):
    write_inputs(tmp_path)
    run(OFFLINE, tmp_path)


def test_http_clients_do_not_import_http_stack(tmp_path):
    for client in ('evalharness.HttpCompletionClient("http://m", "m")',
                   'corpus.HttpMtClient("http://mt")'):
        run(LAZY.format(client=client), tmp_path)
