"""The three workloads: their inputs, their commands and their output checks.

Each workload runs its commands in sequence as one closed-loop caller.
Commands go through the program's public entry points: ``savanna.cli.main``
for every command the CLI can run offline, and
``evalharness.run_translation_eval`` for the live eval run, because the CLI
only offers echo and empty stub endpoints.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import threading
import time
from pathlib import Path

import yaml

import checks
import gen
from savanna import cli, evalharness
from savanna.instruct import language_name

SERVICE_TIME_S = 0.002
MAX_PARALLEL = 2


class CommandFailed(Exception):
    pass


def _cli(argv: list[str]) -> None:
    """Run one CLI command; its stdout and stderr are kept out of ours."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise CommandFailed(f"savanna {argv[0]} exited {code}: {err.getvalue().strip()}")


class BenchClient:
    """Completion client standing in for a model endpoint.

    Each request waits a fixed simulated service time (a sleep, which
    releases the interpreter lock as a socket wait would) and returns a
    reply planned from the seed; planned failures raise every time.
    """

    def __init__(self, replies: dict[str, str | None]):
        self._replies = replies
        self._lock = threading.Lock()
        self.calls = 0
        self.wait_s = 0.0

    def complete(self, messages: list[dict], temperature: float = 0.0) -> str:
        started = time.perf_counter()
        time.sleep(SERVICE_TIME_S)
        reply = self._replies[messages[-1]["content"]]
        with self._lock:
            self.calls += 1
            self.wait_s += time.perf_counter() - started
        if reply is None:
            raise evalharness.TransportError("injected failure")
        return reply


class EvalWorkload:
    """Translation eval over a generated suite: a live run with the bench
    client, an offline rescore of its log and, optionally, a leaderboard."""

    def __init__(self, work: Path, seed: int, languages: list[str], granularity: str,
                 with_report: bool, oracle_sample: int):
        self.seed = seed
        self.granularity = granularity
        self.with_report = with_report
        self.oracle_sample = oracle_sample
        self.directions = [(lang, "eng") for lang in languages] + \
                          [("eng", lang) for lang in languages]
        rows = gen.make_suite(work / "suite.csv", languages, seed)
        self.units = gen.eval_units(rows, self.directions, granularity)
        self.plan, self.failing = gen.plan_replies(self.units, seed)
        self.replies = {}
        for unit in self.units:
            prompt = evalharness.DEFAULT_PROMPT_TEMPLATE.format(
                src=language_name(unit["src"]), tgt=language_name(unit["tgt"]),
                text=unit["source"])
            self.replies[prompt] = (None if unit["id"] in self.failing
                                    else self.plan[unit["id"]]["reply"])
        (work / "report.yaml").write_text(yaml.safe_dump({
            "use_published_reference": False,
            "runs": [{"model": "bench-model", "suite": "suite.csv",
                      "run_log": "out/eval/run_log.jsonl"}],
        }))
        # (command, name of its root span, function)
        self.commands = [("eval", "eval", self.eval), ("rescore", "cli.eval", self.rescore)]
        if with_report:
            self.commands.append(("report", "cli.report", self.report))
        self.sizes = {"units": len(self.units),
                      "chars": sum(len(u["source"]) + len(u["reference"]) for u in self.units)}
        self.client = BenchClient(self.replies)

    def reset(self) -> None:
        """Start a pass: no outputs and a fresh client."""
        shutil.rmtree("out", ignore_errors=True)
        self.client = BenchClient(self.replies)

    def eval(self) -> None:
        out = Path("out/eval")
        out.mkdir(parents=True)
        suite = evalharness.load_suite("suite.csv")
        suite.validate(full=True)
        report = evalharness.run_translation_eval(
            suite, self.client, self.directions, granularity=self.granularity,
            run_log_path=out / "run_log.jsonl", max_parallel=MAX_PARALLEL)
        (out / "report.json").write_text(report.to_json(), encoding="utf-8")
        if report.invalid:  # as `savanna eval` does
            raise CommandFailed(f"run invalid: {report.total_failed}/{report.total_items} failed")

    def rescore(self) -> None:
        _cli(["eval", "--suite", "suite.csv", "--rescore", "out/eval/run_log.jsonl",
              "--out", "out/rescore"])

    def report(self) -> None:
        _cli(["report", "--config", "report.yaml", "--out", "out/report"])

    def outputs(self) -> list[str]:
        files = ["out/eval/run_log.jsonl", "out/eval/report.json", "out/rescore/report.json"]
        if self.with_report:
            files += [f"out/report/{name}" for name in (
                "mean_table.md", "per_language_xx-eng.md", "per_language_eng-xx.md",
                "chart.csv", "winner_counts.json")]
        return files

    def count(self, result: checks.Checks) -> None:
        checks.count_eval_units(result, self)

    def check(self, result: checks.Checks) -> None:
        checks.check_eval(result, self)


class DataprepWorkload:
    """Corpus cleaning and dedup, instruction building and packing, and a
    preference-loss audit, run one after the other."""

    def __init__(self, work: Path, seed: int):
        self.seed = seed
        self.sizes = gen.make_dataprep(work, seed)
        (work / "corpus.yaml").write_text(yaml.safe_dump({
            "inputs": ["documents.jsonl"],
            "source_weights": {"web": 1.0, "book_ocr": 2.0, "community": 0.5},
            "lang_weights": {"eng": 0.5},
            "sample_size": 900,
        }))
        (work / "instruct.yaml").write_text(yaml.safe_dump({
            "parallel": "pairs.jsonl",
            "conversational": "conversational.jsonl",
            "n_translation": gen.N_PAIRS,
            "n_conversational": gen.N_CONVERSATIONAL,
            "max_len": gen.MAX_LEN,
        }))
        self.commands = [("corpus", "cli.corpus", self.corpus),
                         ("instruct", "cli.instruct", self.instruct),
                         ("loss", "cli.loss", self.loss)]
        self.client = None

    def reset(self) -> None:
        shutil.rmtree("out", ignore_errors=True)

    def count(self, result: checks.Checks) -> None:
        pass

    def corpus(self) -> None:
        _cli(["corpus", "--config", "corpus.yaml", "--seed", str(self.seed),
              "--out", "out/corpus"])

    def instruct(self) -> None:
        _cli(["instruct", "--config", "instruct.yaml", "--seed", str(self.seed),
              "--out", "out/instruct"])

    def loss(self) -> None:
        _cli(["loss", "--pairs", "pair_logps.jsonl", "--out", "out/loss"])

    def outputs(self) -> list[str]:
        return ["out/corpus/documents.jsonl", "out/corpus/manifest.json",
                "out/instruct/instructions.jsonl", "out/instruct/packed.jsonl",
                "out/instruct/manifest.json", "out/loss/loss_audit.json"]

    def check(self, result: checks.Checks) -> None:
        checks.check_dataprep(result, self)


WORKLOADS = {
    "eval-sentence": lambda work, seed: EvalWorkload(
        work, seed, ["lug", "ach"], "sentence", with_report=True, oracle_sample=24),
    "eval-document": lambda work, seed: EvalWorkload(
        work, seed, ["lug"], "document", with_report=False, oracle_sample=3),
    "dataprep": DataprepWorkload,
}

