"""Translation evaluation over chat-completion endpoints.

The evaluation suite is a grid of 20 categories x 5 sentences, each English
sentence carrying reference translations for the supported languages.  The
harness scores each reply as it comes back, while later requests are still
in flight, and persists every request/response to a run log before it
returns the report, so any run can be re-scored offline, bit for bit.
"""

from __future__ import annotations

import concurrent.futures
import csv
import hashlib
import itertools
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Literal, Protocol

from . import jsonio, metrics
from .instruct import TRANSLATION_PROMPT as DEFAULT_PROMPT_TEMPLATE
from .instruct import translation_prompt
from .jsonio import NUMBER, REQUIRED
from .textnorm import metric_profile, normalize

N_CATEGORIES = 20
SENTENCES_PER_CATEGORY = 5
GRANULARITIES = ("sentence", "document")

RUN_LOG_VERSION = 1
MAX_FAILURE_RATE = 0.10


@dataclass
class EvalItem:
    category_id: int
    sent_index: int
    english: str
    translations: dict[str, str]

    def __post_init__(self) -> None:
        if not 1 <= self.category_id <= N_CATEGORIES:
            raise ValueError(f"category_id must be in 1..{N_CATEGORIES}")
        if not 0 <= self.sent_index < SENTENCES_PER_CATEGORY:
            raise ValueError(f"sent_index must be in 0..{SENTENCES_PER_CATEGORY - 1}")


@dataclass
class EvalSuite:
    items: list[EvalItem]
    languages: set[str]

    def validate(self, full: bool = True) -> None:
        keys = set()
        for item in self.items:
            key = (item.category_id, item.sent_index)
            if key in keys:
                raise ValueError(f"duplicate suite item: {key}")
            keys.add(key)
            extra = set(item.translations) - self.languages
            if extra:
                raise ValueError(f"item {key} has translations for unknown languages {extra}")
        if full:
            expected = {(c, s) for c in range(1, N_CATEGORIES + 1)
                        for s in range(SENTENCES_PER_CATEGORY)}
            if keys != expected:
                raise ValueError(
                    f"full suite must have {N_CATEGORIES * SENTENCES_PER_CATEGORY} items "
                    f"covering all category/sentence slots; missing {sorted(expected - keys)[:5]}"
                )
            for item in self.items:
                missing = self.languages - set(item.translations)
                if missing:
                    raise ValueError(f"item {(item.category_id, item.sent_index)} "
                                     f"missing translations for {missing}")

    def content_hash(self) -> str:
        h = hashlib.sha256()
        for item in sorted(self.items, key=lambda i: (i.category_id, i.sent_index)):
            h.update(json.dumps([item.category_id, item.sent_index, item.english,
                                 sorted(item.translations.items())],
                                ensure_ascii=False).encode("utf-8"))
        return h.hexdigest()[:16]


_SUITE_KEY_COLUMNS = ("category_id", "sent_index", "english")


def load_suite(path: str | Path) -> EvalSuite:
    """Load a suite from CSV (or TSV by extension): columns category_id,
    sent_index, english, then one column per language code."""
    path = Path(path)
    delimiter = "\t" if path.suffix.lower() == ".tsv" else ","
    with open(path, encoding="utf-8", newline="") as f, jsonio.naming_bad_utf8(path):
        reader = csv.DictReader(f, delimiter=delimiter)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: file is empty; expected a header row")
        missing = [c for c in _SUITE_KEY_COLUMNS if c not in reader.fieldnames]
        if missing:
            raise ValueError(f"{path}: lacks columns: {', '.join(missing)}")
        lang_cols = [c for c in reader.fieldnames if c not in _SUITE_KEY_COLUMNS]
        items = []
        for row in reader:
            try:
                # DictReader fills the columns of a short row with None.
                empty = [c for c, value in row.items() if value is None]
                if empty:
                    raise ValueError(f"missing cells for columns: {', '.join(empty)}")
                items.append(EvalItem(
                    category_id=int(row["category_id"]),
                    sent_index=int(row["sent_index"]),
                    english=row["english"],
                    translations={lang: row[lang] for lang in lang_cols if row[lang]},
                ))
            except ValueError as exc:
                raise ValueError(f"{path}:{reader.line_num}: {exc}") from exc
    return EvalSuite(items=items, languages=set(lang_cols))


# --- Endpoints and clients ----------------------------------------------------


class CompletionClient(Protocol):
    def complete(self, messages: list[dict], temperature: float = 0.0) -> str: ...


class TransportError(Exception):
    pass


class ScoringError(RuntimeError):
    """Scoring a unit failed; :func:`run_translation_eval` wrote the run log first."""


API_TOKEN_ENV = "SAVANNA_API_TOKEN"


class HttpCompletionClient:
    """Chat-completions wire protocol:
    ``POST {"model", "messages", "temperature"}`` to ``base_url``, with a
    bearer token from ``API_TOKEN_ENV`` when it is set; the reply's first
    choice's message content is returned.  A request is tried ``retries + 1``
    times."""

    def __init__(self, base_url: str, model: str, timeout: float = 60.0, retries: int = 2):
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if timeout <= 0:
            raise ValueError("timeout must be > 0")
        self.base_url, self.model, self.timeout = base_url, model, timeout
        self.attempts = retries + 1

    def complete(self, messages: list[dict], temperature: float = 0.0) -> str:
        payload = {"model": self.model, "messages": messages, "temperature": temperature}
        token = os.environ.get(API_TOKEN_ENV)
        headers = {"Authorization": f"Bearer {token}"} if token else {}
        try:
            return jsonio.post_json(self.base_url, payload, attempts=self.attempts,
                                    timeout=self.timeout, headers=headers, reply=_reply_content)
        except Exception as exc:
            raise TransportError(f"request failed after {self.attempts} attempts: {exc}") from exc


def _reply_content(body) -> str:
    """The first choice's message content of a chat-completions reply; a
    reply without one, or whose content is not a string, raises."""
    content = body["choices"][0]["message"]["content"]
    if not isinstance(content, str):
        raise ValueError(f"reply content is {type(content).__name__}, not a string")
    return content


class ReferenceEchoClient:
    """Test/demo client that replies with the reference translation: it
    answers the prompt of every unit of ``suite``, in both directions of
    every language and at both granularities."""

    def __init__(self, suite: EvalSuite):
        self._references: dict[str, str] = {}
        for lang in sorted(suite.languages - {"eng"}):
            for direction in ((lang, "eng"), ("eng", lang)):
                for granularity in GRANULARITIES:
                    for unit in _units(suite, direction, granularity):
                        self._references[unit["prompt"]] = unit["reference"]

    def complete(self, messages: list[dict], temperature: float = 0.0) -> str:
        return self._references[messages[-1]["content"]]


# --- Translation evaluation ---------------------------------------------------


def postprocess_hypothesis(raw: str) -> str:
    """Strip decoration chat models add around translations."""
    text = raw.strip()
    for label in ("translation:", "translated text:"):
        if text.lower().startswith(label):
            text = text[len(label):].strip()
    while len(text) >= 2 and text[0] in "\"'“‘" and text[-1] in "\"'”’":
        text = text[1:-1].strip()
    return text


def _units(suite: EvalSuite, direction: tuple[str, str], granularity: str) -> list[dict]:
    """Every unit of one direction, in order, each with its ``id``,
    ``direction``, ``prompt`` and ``reference``.  A sentence unit is one
    suite item; a document unit joins a category's items, in sentence order,
    with single spaces.  A unit with an item that lacks the direction's
    language (in a partial suite) is left out.  ``direction`` must pass
    :func:`check_directions`."""
    src, tgt = direction
    other = tgt if src == "eng" else src
    items = sorted(suite.items, key=lambda i: (i.category_id, i.sent_index))
    if granularity == "sentence":
        groups = [(f"{i.category_id}:{i.sent_index}", [i]) for i in items]
    elif granularity == "document":
        groups = [(f"{cat}:doc", list(group))
                  for cat, group in itertools.groupby(items, key=lambda i: i.category_id)]
    else:
        raise ValueError(f"unknown granularity: {granularity!r}")
    units = []
    for key, group in groups:
        if any(other not in i.translations for i in group):
            continue
        text = {"eng": " ".join(i.english for i in group),
                other: " ".join(i.translations[other] for i in group)}
        units.append({"id": f"{src}-{tgt}:{key}", "direction": direction,
                      "prompt": translation_prompt(src, tgt, text[src]),
                      "reference": text[tgt]})
    return units


@dataclass
class DirectionResult:
    direction: tuple[str, str]
    per_sentence: list[metrics.SentenceScores]
    aggregates: metrics.SentenceScores | None  # None when no unit scored
    failed: int

    @property
    def evaluated(self) -> int:
        return len(self.per_sentence)


@dataclass
class EvalRunReport:
    directions: list[DirectionResult]
    granularity: str
    prompt_template: str
    suite_hash: str

    @property
    def prompt_hash(self) -> str:
        return _prompt_hash(self.prompt_template)

    @property
    def total_failed(self) -> int:
        return sum(d.failed for d in self.directions)

    @property
    def total_items(self) -> int:
        return sum(d.evaluated + d.failed for d in self.directions)

    @property
    def invalid(self) -> bool:
        """More than ``MAX_FAILURE_RATE`` of all units failed."""
        return self.total_items > 0 and self.total_failed / self.total_items > MAX_FAILURE_RATE

    def to_json(self) -> str:
        """Deterministic serialization (no timestamps)."""
        payload = {
            "granularity": self.granularity,
            "prompt_hash": self.prompt_hash,
            "prompt_template": self.prompt_template,
            "suite_hash": self.suite_hash,
            "invalid": self.invalid,
            "total_failed": self.total_failed,
            "total_items": self.total_items,
            "directions": [
                {
                    "direction": list(d.direction),
                    "evaluated": d.evaluated,
                    "failed": d.failed,
                    "aggregates": d.aggregates.__dict__ if d.aggregates else None,
                    "per_sentence": [s.__dict__ for s in d.per_sentence],
                }
                for d in self.directions
            ],
        }
        return jsonio.dumps(payload)


def _prompt_hash(template: str) -> str:
    return hashlib.sha256(template.encode("utf-8")).hexdigest()[:16]


def _score_unit(record: dict, reference: str) -> metrics.SentenceScores | None:
    """Scores of one persisted request/response against its reference; None
    for a failed request or a reference that normalizes to nothing."""
    if record["status"] != "ok":
        return None
    profile = metric_profile()
    hyp = normalize(postprocess_hypothesis(record["response"]), profile)
    ref = normalize(reference, profile)
    if not ref:
        return None
    return metrics.SentenceScores(
        chrf=metrics.chrf(hyp, ref),
        bleu=metrics.bleu(hyp, ref),
        cer=metrics.cer(hyp, ref),
        wer=metrics.wer(hyp, ref),
    )


def _build_report(scores: dict[str, metrics.SentenceScores | None], suite: EvalSuite,
                  directions: list[tuple[str, str]], unit_lists: list[list[dict]],
                  granularity: str, prompt_template: str) -> EvalRunReport:
    """Report over each direction's units, in unit order, from a table of
    unit id -> scores; a unit absent from it or scored None failed."""
    results = []
    for direction, units in zip(directions, unit_lists):
        scored = [scores.get(unit["id"]) for unit in units]
        per_sentence = [unit_scores for unit_scores in scored if unit_scores is not None]
        aggregates = None
        if per_sentence:  # each metric's mean over its column, in unit order
            aggregates = metrics.SentenceScores(*map(metrics.aggregate, zip(
                *(vars(unit_scores).values() for unit_scores in per_sentence))))
        failed = len(scored) - len(per_sentence)
        results.append(DirectionResult(direction, per_sentence, aggregates, failed))
    return EvalRunReport(results, granularity, prompt_template, suite.content_hash())


def check_directions(suite: EvalSuite, directions: list[tuple[str, str]],
                     max_parallel: int = 1) -> None:
    """Raise a ValueError unless :func:`run_translation_eval` can run
    ``directions`` over ``suite`` with ``max_parallel`` workers: each
    direction has eng on exactly one side and a language the suite has, no
    direction is repeated, and ``max_parallel`` is an integer >= 1."""
    if not jsonio.is_number(max_parallel, int) or max_parallel < 1:
        raise ValueError(f"max_parallel must be an integer >= 1, got {max_parallel!r}")
    seen = set()
    for src, tgt in directions:
        if (src == "eng") == (tgt == "eng"):
            raise ValueError(f"direction {(src, tgt)} must have eng on exactly one side")
        other = tgt if src == "eng" else src
        if other not in suite.languages:
            raise ValueError(f"language {other!r} not in suite")
        if (src, tgt) in seen:
            raise ValueError(f"direction {src}-{tgt} is repeated")
        seen.add((src, tgt))


def run_translation_eval(suite: EvalSuite, client: CompletionClient,
                         directions: list[tuple[str, str]],
                         granularity: str = "sentence",
                         run_log_path: str | Path | None = None,
                         max_parallel: int = 1,
                         temperature: float = 0.0) -> EvalRunReport:
    """Drive ``client`` over every unit of every direction and score it.

    Prompts follow ``DEFAULT_PROMPT_TEMPLATE``.  Up to ``max_parallel``
    worker threads issue the requests in unit order; the calling thread
    scores each reply as soon as it and the replies before it are in, while
    later requests are still in flight.  Every request/response is persisted
    to ``run_log_path`` (JSONL with a header line) before the report is
    returned, and also before a ScoringError, naming the first unit whose
    scoring raised, propagates.
    Per-item transport failures are excluded from scoring and counted, and a
    failure rate above 10% marks the run invalid.
    """
    check_directions(suite, directions, max_parallel)
    unit_lists = [_units(suite, direction, granularity) for direction in directions]
    all_units = [unit for units in unit_lists for unit in units]

    def issue(unit: dict) -> dict:
        started = time.monotonic()
        try:
            response = client.complete([{"role": "user", "content": unit["prompt"]}],
                                       temperature=temperature)
            status = "ok"
        except Exception as exc:
            response = str(exc)
            status = "error"
        return {
            "id": unit["id"],
            "direction": list(unit["direction"]),
            "prompt": unit["prompt"],
            "response": response,
            "latency_ms": round((time.monotonic() - started) * 1000, 3),
            "status": status,
        }

    records = []
    scores: dict[str, metrics.SentenceScores | None] = {}
    scoring_error = failed_unit = None
    with concurrent.futures.ThreadPoolExecutor(max_workers=max_parallel) as pool:
        # The loop holds the only reference to the map iterator: an interrupt
        # frees it, which cancels the requests not yet started.
        for unit, record in zip(all_units, pool.map(issue, all_units)):
            records.append(record)
            if scoring_error is None:
                try:
                    scores[unit["id"]] = _score_unit(record, unit["reference"])
                except Exception as exc:  # the run log is still written in full
                    scoring_error, failed_unit = exc, unit["id"]

    if run_log_path is not None:
        jsonio.write_jsonl(run_log_path, records, header={
            "type": "header",
            "version": RUN_LOG_VERSION,
            "granularity": granularity,
            "directions": [list(d) for d in directions],
            "prompt_template": DEFAULT_PROMPT_TEMPLATE,
            "prompt_hash": _prompt_hash(DEFAULT_PROMPT_TEMPLATE),
            "suite_hash": suite.content_hash(),
            "temperature": temperature,
        })
    if scoring_error is not None:
        raise ScoringError(f"scoring unit {failed_unit} failed: "
                           f"{type(scoring_error).__name__}: {scoring_error}") from scoring_error

    return _build_report(scores, suite, directions, unit_lists, granularity,
                         DEFAULT_PROMPT_TEMPLATE)


# The key tables (see jsonio.resolved) of a run log's header and records.
# Rescoring reads neither prompt_hash nor temperature, which old logs may lack.
RUN_LOG_HEADER_KEYS = {
    "type": (str, REQUIRED), "version": (int, REQUIRED), "prompt_template": (str, REQUIRED),
    "granularity": (Literal[GRANULARITIES], REQUIRED), "suite_hash": (str, REQUIRED),
    "directions": (list[tuple[str, str]], REQUIRED), "prompt_hash": (str, None),
    "temperature": (NUMBER, None)}
RUN_LOG_RECORD_KEYS = {
    "id": (str, REQUIRED), "direction": (tuple[str, str], None), "prompt": (str, None),
    "response": (str, REQUIRED), "latency_ms": (NUMBER, None),
    "status": (Literal["ok", "error"], REQUIRED)}


def _read_run_log(run_log_path: str | Path, suite: EvalSuite) -> list[dict]:
    """The header and records of a run log of ``suite``, as
    :func:`run_translation_eval` writes it.  The first line must be a
    header of this version, of ``suite``'s hash and of directions that
    :func:`check_directions` takes, no later line a header, and no record
    an earlier record's unit id.  A line that breaks this or its key table
    raises ValueError naming the file and line."""
    suite_hash = suite.content_hash()
    ids: set[str] | None = None  # the records' ids, once the header is read

    def line(obj):
        nonlocal ids
        if ids is None:
            if not (isinstance(obj, dict) and obj.get("type") == "header"
                    and obj.get("version") == RUN_LOG_VERSION):
                raise ValueError("not a recognized run log")
            header = jsonio.resolved(obj, RUN_LOG_HEADER_KEYS)
            if header["suite_hash"] != suite_hash:
                raise ValueError("run log was produced from a different suite")
            check_directions(suite, header["directions"])
            ids = set()
            return header
        if isinstance(obj, dict) and "type" in obj:
            raise ValueError("a second run log header, as if two logs were joined")
        record = jsonio.resolved(obj, RUN_LOG_RECORD_KEYS)
        if record["id"] in ids:
            raise ValueError(f"unit id {record['id']!r} repeats an earlier record")
        ids.add(record["id"])
        return record

    lines = jsonio.read_jsonl(run_log_path, line)
    if not lines:
        raise ValueError(f"{run_log_path}: not a recognized run log: it is empty")
    return lines


def rescore_run_log(run_log_path: str | Path, suite: EvalSuite) -> EvalRunReport:
    """Re-score a persisted run log offline; reproduces the original report."""
    header, *records = _read_run_log(run_log_path, suite)
    directions = [tuple(d) for d in header["directions"]]
    granularity = header["granularity"]
    unit_lists = [_units(suite, direction, granularity) for direction in directions]
    by_id = {r["id"]: r for r in records}
    scores = {unit["id"]: _score_unit(by_id[unit["id"]], unit["reference"])
              for units in unit_lists for unit in units if unit["id"] in by_id}
    return _build_report(scores, suite, directions, unit_lists, granularity,
                         header["prompt_template"])

