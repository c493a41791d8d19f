"""Translation and multiple-choice evaluation over chat-completion endpoints.

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
import json
import os
import random
import re
import string
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Protocol

import requests

from . import jsonio, metrics
from .instruct import TRANSLATION_PROMPT as DEFAULT_PROMPT_TEMPLATE
from .instruct import language_name
from .textnorm import NormProfile, metric_profile, normalize

N_CATEGORIES = 20
SENTENCES_PER_CATEGORY = 5

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

    @property
    def reference_count(self) -> int:
        return len(self.items) * len(self.languages)

    @property
    def evaluation_points(self) -> int:
        return 2 * self.reference_count

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
    with open(path, encoding="utf-8", newline="") as f:
        reader = csv.DictReader(f, delimiter=delimiter)
        if reader.fieldnames is None:
            raise ValueError(f"suite file {path} is empty; expected a header row")
        missing = [c for c in _SUITE_KEY_COLUMNS if c not in reader.fieldnames]
        if missing:
            raise ValueError(f"suite file {path} lacks columns: {', '.join(missing)}")
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
                raise ValueError(f"suite file {path}, line {reader.line_num}: {exc}") from exc
    return EvalSuite(items=items, languages=set(lang_cols))


def save_suite(suite: EvalSuite, path: str | Path) -> None:
    path = Path(path)
    delimiter = "\t" if path.suffix.lower() == ".tsv" else ","
    languages = sorted(suite.languages)
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, delimiter=delimiter)
        writer.writerow(["category_id", "sent_index", "english"] + languages)
        for item in sorted(suite.items, key=lambda i: (i.category_id, i.sent_index)):
            writer.writerow([item.category_id, item.sent_index, item.english]
                            + [item.translations.get(lang, "") for lang in languages])


def synthetic_suite(languages: Iterable[str] = ("aaa", "bbb", "ccc"), seed: int = 0) -> EvalSuite:
    """Miniature suite with the real dataset's shape (20 x 5 grid) and
    deterministic synthetic text; useful for tests and demos."""
    rng = random.Random(seed)
    languages = list(languages)
    words = ["akello", "mukasa", "okonkwo", "wairimu", "nabirye", "otim",
             "market", "river", "harvest", "village", "school", "clinic"]
    items = []
    for cat in range(1, N_CATEGORIES + 1):
        for idx in range(SENTENCES_PER_CATEGORY):
            english = f"category {cat} sentence {idx} " + " ".join(rng.choices(words, k=6))
            translations = {
                lang: f"{lang} c{cat} s{idx} " + " ".join(rng.choices(words, k=6))
                for lang in languages
            }
            items.append(EvalItem(cat, idx, english, translations))
    return EvalSuite(items=items, languages=set(languages))


# --- Endpoints and clients ----------------------------------------------------


@dataclass
class ModelEndpoint:
    name: str
    base_url: str
    model: str = ""
    auth_env: str = "SAVANNA_API_TOKEN"
    timeout: float = 60.0
    retries: int = 2

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if not self.model:
            self.model = self.name


class CompletionClient(Protocol):
    def complete(self, messages: list[dict], temperature: float = 0.0) -> str: ...


class TransportError(Exception):
    pass


class HttpCompletionClient:
    """Chat-completions wire protocol:
    ``POST {"model", "messages", "temperature"}`` with bearer-token auth;
    the reply's first choice's message content is returned."""

    def __init__(self, endpoint: ModelEndpoint, session: requests.Session | None = None,
                 backoff: float = 0.5):
        self.endpoint = endpoint
        self.backoff = backoff
        self._session = session or requests.Session()

    def complete(self, messages: list[dict], temperature: float = 0.0) -> str:
        payload = {"model": self.endpoint.model, "messages": messages,
                   "temperature": temperature}
        headers = {}
        token = os.environ.get(self.endpoint.auth_env)
        if token:
            headers["Authorization"] = f"Bearer {token}"
        attempts = self.endpoint.retries + 1
        try:
            return jsonio.post_json(
                self._session, self.endpoint.base_url, payload, attempts=attempts,
                backoff=self.backoff, timeout=self.endpoint.timeout, headers=headers,
                reply=lambda body: body["choices"][0]["message"]["content"])
        except Exception as exc:
            raise TransportError(f"request failed after {attempts} attempts: {exc}") from exc


_PROMPT_TEXT_RE = re.compile(r"\n\n(.*)\Z", re.DOTALL)
_PROMPT_TGT_RE = re.compile(r" to (.+?)\. Reply")


class ReferenceEchoClient:
    """Test/demo client that replies with the reference translation.

    Understands the default prompt template: it extracts the source text and
    target language name, then looks the reference up in the suite.
    """

    def __init__(self, suite: EvalSuite):
        self._by_source: dict[tuple[str, str], str] = {}
        for item in suite.items:
            for lang, text in item.translations.items():
                self._by_source[(item.english, language_name(lang))] = text
                self._by_source[(text, language_name("eng"))] = item.english
        # document-granularity lookups: 5 sentences joined by single spaces
        for _cat, items in _documents(suite):
            eng = " ".join(i.english for i in items)
            langs = set.intersection(*(set(i.translations) for i in items))
            for lang in langs:
                ref = " ".join(i.translations[lang] for i in items)
                self._by_source[(eng, language_name(lang))] = ref
                self._by_source[(ref, language_name("eng"))] = eng

    def complete(self, messages: list[dict], temperature: float = 0.0) -> str:
        prompt = messages[-1]["content"]
        text = _PROMPT_TEXT_RE.search(prompt).group(1)
        tgt = _PROMPT_TGT_RE.search(prompt).group(1)
        return self._by_source[(text, tgt)]


class ConstantClient:
    """Always replies with the same string (e.g. '' for the empty stub)."""

    def __init__(self, reply: str = ""):
        self.reply = reply

    def complete(self, messages: list[dict], temperature: float = 0.0) -> str:
        return self.reply


class FlakyClient:
    """Wraps another client, failing on a chosen set of call indices."""

    def __init__(self, inner: CompletionClient, fail_on: set[int]):
        self.inner = inner
        self.fail_on = fail_on
        self._calls = 0

    def complete(self, messages: list[dict], temperature: float = 0.0) -> str:
        call = self._calls
        self._calls += 1
        if call in self.fail_on:
            raise TransportError(f"injected failure on call {call}")
        return self.inner.complete(messages, temperature)


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


def _documents(suite: EvalSuite) -> list[tuple[int, list[EvalItem]]]:
    """Suite items grouped into one document per category, in category
    order, each document's items in sentence order."""
    by_cat: dict[int, list[EvalItem]] = {}
    for item in suite.items:
        by_cat.setdefault(item.category_id, []).append(item)
    return [(cat, sorted(by_cat[cat], key=lambda i: i.sent_index)) for cat in sorted(by_cat)]


def _direction_units(suite: EvalSuite, direction: tuple[str, str],
                     granularity: str) -> list[dict]:
    src, tgt = direction
    if (src == "eng") == (tgt == "eng"):
        raise ValueError(f"direction {direction} must have eng on exactly one side")
    other = tgt if src == "eng" else src
    if other not in suite.languages:
        raise ValueError(f"language {other!r} not in suite")
    units = []
    if granularity == "sentence":
        for item in sorted(suite.items, key=lambda i: (i.category_id, i.sent_index)):
            source = item.english if src == "eng" else item.translations[other]
            reference = item.english if tgt == "eng" else item.translations[other]
            units.append({
                "id": f"{src}-{tgt}:{item.category_id}:{item.sent_index}",
                "source": source, "reference": reference,
            })
    elif granularity == "document":
        for cat, items in _documents(suite):
            eng = " ".join(i.english for i in items)
            loc = " ".join(i.translations[other] for i in items)
            units.append({
                "id": f"{src}-{tgt}:{cat}:doc",
                "source": eng if src == "eng" else loc,
                "reference": eng if tgt == "eng" else loc,
            })
    else:
        raise ValueError(f"unknown granularity: {granularity!r}")
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


def _score_unit(record: dict, reference: str,
                profile: NormProfile) -> metrics.SentenceScores | None:
    """Scores of one persisted request/response against its reference; None
    for a failed request or a reference that normalizes to nothing."""
    if record["status"] != "ok":
        return None
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
                  directions: list[tuple[str, str]], granularity: str,
                  prompt_template: str) -> EvalRunReport:
    """Report over every unit of every direction, in unit order, from a
    table of unit id -> scores; a unit absent from it or scored None failed."""
    results = []
    for direction in directions:
        per_sentence = []
        failed = 0
        for unit in _direction_units(suite, direction, granularity):
            unit_scores = scores.get(unit["id"])
            if unit_scores is None:
                failed += 1
            else:
                per_sentence.append(unit_scores)
        if per_sentence:
            aggregates = metrics.SentenceScores(
                chrf=metrics.aggregate([s.chrf for s in per_sentence]),
                bleu=metrics.aggregate([s.bleu for s in per_sentence]),
                cer=metrics.aggregate([s.cer for s in per_sentence]),
                wer=metrics.aggregate([s.wer for s in per_sentence]),
            )
        else:
            aggregates = None
        results.append(DirectionResult(direction, per_sentence, aggregates, failed))
    return EvalRunReport(results, granularity, prompt_template, suite.content_hash())


def run_translation_eval(suite: EvalSuite, client: CompletionClient,
                         directions: list[tuple[str, str]],
                         granularity: str = "sentence",
                         run_log_path: str | Path | None = None,
                         max_parallel: int = 1,
                         temperature: float = 0.0) -> EvalRunReport:
    """Drive ``client`` over every item of every direction and score it.

    Prompts follow ``DEFAULT_PROMPT_TEMPLATE``.  Up to ``max_parallel``
    worker threads issue the requests in unit order; the calling thread
    scores each reply as soon as it and the replies before it are in, while
    later requests are still in flight.  Every request/response is persisted
    to ``run_log_path`` (JSONL with a header line) before the report is
    returned, and also before an error raised while scoring propagates.
    Per-item transport failures are excluded from scoring and counted, and a
    failure rate above 10% marks the run invalid.
    """
    if (isinstance(max_parallel, bool) or not isinstance(max_parallel, int)
            or max_parallel < 1):
        raise ValueError(f"max_parallel must be an integer >= 1, got {max_parallel!r}")
    seen = set()
    for src, tgt in directions:
        if (src, tgt) in seen:
            raise ValueError(f"direction {src}-{tgt} is repeated")
        seen.add((src, tgt))
    all_units = []
    for direction in directions:
        src, tgt = direction
        for unit in _direction_units(suite, direction, granularity):
            prompt = DEFAULT_PROMPT_TEMPLATE.format(
                src=language_name(src), tgt=language_name(tgt), text=unit["source"])
            all_units.append({"id": unit["id"], "direction": direction, "prompt": prompt,
                              "reference": unit["reference"]})

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

    profile = metric_profile()
    records = []
    scores: dict[str, metrics.SentenceScores | None] = {}
    scoring_error = None
    with concurrent.futures.ThreadPoolExecutor(max_workers=max_parallel) as pool:
        # The loop holds the only reference to the map iterator: an interrupt
        # frees it, which cancels the requests not yet started.
        for unit, record in zip(all_units, pool.map(issue, all_units)):
            records.append(record)
            if scoring_error is None:
                try:
                    scores[unit["id"]] = _score_unit(record, unit["reference"], profile)
                except Exception as exc:  # the run log is still written in full
                    scoring_error = exc

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
        raise scoring_error

    return _build_report(scores, suite, directions, granularity, DEFAULT_PROMPT_TEMPLATE)


def rescore_run_log(run_log_path: str | Path, suite: EvalSuite) -> EvalRunReport:
    """Re-score a persisted run log offline; reproduces the original report."""
    header, *records = jsonio.read_jsonl(run_log_path) or [{}]
    if header.get("type") != "header" or header.get("version") != RUN_LOG_VERSION:
        raise ValueError("not a recognized run log")
    if header["suite_hash"] != suite.content_hash():
        raise ValueError("run log was produced from a different suite")
    directions = [tuple(d) for d in header["directions"]]
    granularity = header["granularity"]
    profile = metric_profile()
    by_id = {r["id"]: r for r in records}
    scores: dict[str, metrics.SentenceScores | None] = {}
    for direction in directions:
        for unit in _direction_units(suite, direction, granularity):
            record = by_id.get(unit["id"])
            if record is not None:
                scores[unit["id"]] = _score_unit(record, unit["reference"], profile)
    return _build_report(scores, suite, directions, granularity, header["prompt_template"])


# --- Multiple choice ----------------------------------------------------------


@dataclass
class McqItem:
    question: str
    choices: list[str]
    answer_index: int
    lang: str

    def __post_init__(self) -> None:
        if len(self.choices) < 2:
            raise ValueError("need at least 2 choices")
        if not 0 <= self.answer_index < len(self.choices):
            raise ValueError("answer_index out of range")


def _mcq_prompt(item: McqItem) -> str:
    lines = [item.question, ""]
    for letter, choice in zip(string.ascii_uppercase, item.choices):
        lines.append(f"{letter}. {choice}")
    lines.append("")
    lines.append("Answer with the letter of the correct choice.")
    return "\n".join(lines)


def extract_choice(reply: str, choices: list[str]) -> int | None:
    """First standalone choice letter in the reply; fallback to a unique
    choice-text substring match.  Returns the choice index, or None."""
    letters = string.ascii_uppercase[: len(choices)]
    match = re.search(rf"\b([{letters}])\b", reply)
    if match:
        return letters.index(match.group(1))
    folded = reply.casefold()
    hits = [i for i, choice in enumerate(choices) if choice.casefold() in folded]
    if len(hits) == 1:
        return hits[0]
    return None


@dataclass
class McqResult:
    accuracy_by_lang: dict[str, float]
    correct_by_lang: dict[str, int]
    total_by_lang: dict[str, int]
    unparseable: list[dict]


def run_mcq_eval(items: list[McqItem], client: CompletionClient,
                 temperature: float = 0.0) -> McqResult:
    """Multiple-choice accuracy per language in the direct setting.

    Unparseable replies are counted incorrect and logged, never dropped.
    """
    if not items:
        raise ValueError("no MCQ items")
    correct: dict[str, int] = {}
    total: dict[str, int] = {}
    unparseable: list[dict] = []
    for idx, item in enumerate(items):
        reply = client.complete([{"role": "user", "content": _mcq_prompt(item)}],
                                temperature=temperature)
        picked = extract_choice(reply, item.choices)
        total[item.lang] = total.get(item.lang, 0) + 1
        if picked is None:
            unparseable.append({"index": idx, "lang": item.lang, "reply": reply})
        elif picked == item.answer_index:
            correct[item.lang] = correct.get(item.lang, 0) + 1
    accuracy = {lang: correct.get(lang, 0) / n for lang, n in total.items()}
    return McqResult(accuracy_by_lang=accuracy, correct_by_lang=correct,
                     total_by_lang=total, unparseable=unparseable)
