"""Corpus ingestion, deduplication, verse alignment and mixture assembly.

Documents flow through this module as :class:`CorpusDocument` records:
cleaned text units with provenance.  Deduplication is exact (hash based) at
whole-document and paragraph granularity; paragraph boundary is a blank
line.  Back-translation is delegated to an external MT service behind the
:class:`MtClient` interface.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import random
import re
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator, Literal, Protocol

from . import jsonio
from .jsonio import REQUIRED
from .textnorm import clean_document

Source = Literal["web", "book_ocr", "radio_transcript", "dictionary", "community", "parallel",
                 "bible", "synthetic_bt"]

_PARAGRAPH_SPLIT = re.compile(r"\n\s*\n")


def _hash_text(*parts: str) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode("utf-8"))
        h.update(b"\x1f")
    return h.hexdigest()[:16]


@dataclass
class CorpusDocument:
    id: str
    lang: str
    text: str
    source: Source
    license_note: str = ""
    char_count: int = 0
    provenance: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.text:
            raise ValueError("document text must be non-empty")
        if self.char_count == 0:
            self.char_count = len(self.text)
        elif self.char_count != len(self.text):
            raise ValueError("char_count must be 0 or the length of text")
        if self.source == "synthetic_bt" and "source_doc_id" not in self.provenance:
            raise ValueError("synthetic_bt documents must carry MT provenance")


def make_document(lang: str, text: str, source: Source, license_note: str = "",
                  provenance: dict | None = None) -> CorpusDocument:
    """Build a document with a stable content-derived id."""
    return CorpusDocument(
        id=_hash_text(lang, source, text),
        lang=lang,
        text=text,
        source=source,
        license_note=license_note,
        provenance=provenance or {},
    )


@dataclass(frozen=True, order=True)
class VerseRef:
    book: str
    chapter: int
    verse: int

    def __post_init__(self) -> None:
        if self.chapter < 1 or self.verse < 1:
            raise ValueError("chapter and verse must be >= 1")


@dataclass
class ParallelPair:
    src_lang: str
    tgt_lang: str
    src_text: str
    tgt_text: str
    origin: Source = "parallel"
    doc_id: str | None = None

    def __post_init__(self) -> None:
        if self.src_lang == self.tgt_lang:
            raise ValueError("src_lang must differ from tgt_lang")
        if not self.src_text or not self.tgt_text:
            raise ValueError("both sides of a parallel pair must be non-empty")


@dataclass
class MixtureSpec:
    source_weights: dict[str, float] = field(default_factory=dict)
    lang_weights: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, weights in (("source_weights", self.source_weights),
                              ("lang_weights", self.lang_weights)):
            for key, weight in weights.items():
                if not jsonio.is_number(weight) or weight < 0:
                    raise ValueError(f"{name}.{key} must be a finite number >= 0, "
                                     f"got {weight!r}")

    def bucket_weights(self, keys: Iterable[tuple[str, str]]) -> dict[tuple[str, str], float]:
        """The weight of each ``(source, lang)`` bucket of ``keys``.  Raises a
        ValueError when a weight is too large for a float, or two nonzero
        weights multiply to one too small for it, or when there are buckets
        and every one weighs zero."""
        weights = {}
        for source, lang in keys:
            factors = self.source_weights.get(source, 1.0), self.lang_weights.get(lang, 1.0)
            weight = weights[source, lang] = factors[0] * factors[1]
            if not jsonio.is_number(weight) or not weight and all(factors):
                raise ValueError(f"the weight of bucket {source}/{lang}, source_weights.{source} "
                                 f"times lang_weights.{lang}, is too "
                                 f"{'small' if weight == 0 else 'large'} for a float")
        if weights and not any(weights.values()):
            raise ValueError("all bucket weights are zero")
        return weights


def _content_key(text: str) -> str:
    return " ".join(text.split())


def clean_documents(docs: Iterable[CorpusDocument]) -> tuple[list[CorpusDocument], dict]:
    """Each document's text cleaned by ``textnorm.clean_document``, the
    documents left empty dropped, and the cleaning counts summed over all."""
    cleaned = []
    stats = {"control_removed": 0, "artifacts_removed": 0}
    for doc in docs:
        text, report = clean_document(doc.text)
        stats["control_removed"] += report.control_removed
        stats["artifacts_removed"] += report.artifacts_removed
        if text:
            cleaned.append(make_document(doc.lang, text, doc.source, doc.license_note,
                                         doc.provenance))
    return cleaned, stats


def dedup(docs: Iterable[CorpusDocument]) -> Iterator[CorpusDocument]:
    """Remove exact duplicates at document and paragraph granularity.

    A whole document whose normalized text was seen before is dropped; a
    paragraph seen before (in any earlier document, or earlier in the same
    document) is removed.  Output preserves first-seen order and is
    deterministic; dedup(dedup(S)) == dedup(S).

    Normalized text is whitespace-collapsed text.  Each paragraph's is
    taken once, and the document's is the space-join of its non-blank
    paragraphs' texts, which equals its own collapsed text because the
    separators between paragraphs are whitespace.
    """
    seen_docs: set[str] = set()
    seen_paragraphs: set[str] = set()
    for doc in docs:
        paragraphs = [(para, key) for para in _PARAGRAPH_SPLIT.split(doc.text)
                      if (key := _content_key(para))]
        doc_key = _hash_text(" ".join(key for _para, key in paragraphs))
        if doc_key in seen_docs:
            continue
        seen_docs.add(doc_key)
        kept: list[str] = []
        for para, key in paragraphs:
            para_key = _hash_text(key)
            if para_key in seen_paragraphs:
                continue
            seen_paragraphs.add(para_key)
            kept.append(para)
        if not kept:
            continue
        new_text = "\n\n".join(kept)
        if new_text == doc.text:
            yield doc
        else:
            yield replace(doc, text=new_text, char_count=len(new_text))


# --- Verse-aligned Bible editions ------------------------------------------


@functools.cache
def _book_table() -> dict[str, str]:
    raw = json.loads(resources.files("savanna.data").joinpath("bible_books.json").read_text())
    table: dict[str, str] = {}
    for book in raw["canon"]:
        table[book.casefold()] = book
    for book, names in raw["aliases"].items():
        for name in names:
            table[name.casefold()] = book
    return table


def canonical_book(name: str) -> str:
    table = _book_table()
    key = " ".join(name.split()).casefold()
    if key not in table:
        raise KeyError(f"unknown book name: {name!r}")
    return table[key]


@dataclass
class BibleEdition:
    lang: str
    verses: dict[VerseRef, str]


def load_bible_tsv(path: str | Path, lang: str) -> BibleEdition:
    """Load ``book<TAB>chapter<TAB>verse<TAB>text`` lines into an edition.

    Book names are canonicalized against the shared 66-book table.  An
    unknown book, a chapter or verse not an integer >= 1, or a repeated
    verse key raises a ValueError naming the file and line.
    """
    verses: dict[VerseRef, str] = {}
    with open(path, encoding="utf-8") as f, jsonio.naming_bad_utf8(path):
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise ValueError(f"{path}:{lineno}: expected 4 tab-separated fields")
            try:
                ref = VerseRef(canonical_book(parts[0]), int(parts[1]), int(parts[2]))
            except (KeyError, ValueError) as exc:  # unknown book; chapter or verse not an int >= 1
                raise ValueError(f"{path}:{lineno}: {exc.args[0]}") from None
            if ref in verses:
                raise ValueError(f"{path}:{lineno}: duplicate verse key: {ref}")
            verses[ref] = parts[3]
    return BibleEdition(lang=lang, verses=verses)


@dataclass
class AlignmentResult:
    pairs: list[ParallelPair]
    only_in_a: list[VerseRef]
    only_in_b: list[VerseRef]


def align_bibles(edition_a: BibleEdition, edition_b: BibleEdition) -> AlignmentResult:
    """Pair verses present in both editions with non-empty text on both sides."""
    keys_a, keys_b = set(edition_a.verses), set(edition_b.verses)
    pairs = []
    for ref in sorted(keys_a & keys_b):
        text_a, text_b = edition_a.verses[ref], edition_b.verses[ref]
        if not text_a.strip() or not text_b.strip():
            continue
        pairs.append(
            ParallelPair(
                src_lang=edition_a.lang,
                tgt_lang=edition_b.lang,
                src_text=text_a,
                tgt_text=text_b,
                origin="bible",
                doc_id=f"{ref.book}_{ref.chapter}:{ref.verse}",
            )
        )
    return AlignmentResult(
        pairs=pairs,
        only_in_a=sorted(keys_a - keys_b),
        only_in_b=sorted(keys_b - keys_a),
    )


# --- Back-translation -------------------------------------------------------


class MtClientError(Exception):
    pass


class MtClient(Protocol):
    name: str

    def translate(self, text: str, source: str, target: str) -> str: ...


class HttpMtClient:
    """MT service speaking ``POST {"text", "source", "target"}``.

    At most 3 attempts, sleeping 0.5 s after the first failure and 1 s
    after the second.  Its ``name``, which back-translated documents record
    as their client, is the URL.
    """

    def __init__(self, base_url: str, timeout: float = 30.0):
        self.base_url = self.name = base_url
        self.timeout = timeout

    def translate(self, text: str, source: str, target: str) -> str:
        payload = {"text": text, "source": source, "target": target}
        try:
            return jsonio.post_json(self.base_url, payload, attempts=3, timeout=self.timeout,
                                    reply=_reply_translation)
        except Exception as exc:  # transport or schema failure
            raise MtClientError(f"translation failed after 3 attempts: {exc}") from exc


def _reply_translation(body) -> str:
    """The ``translation`` of an MT reply; a reply without one, or whose
    translation is not a non-empty string, raises."""
    translation = body["translation"]
    if not isinstance(translation, str) or not translation:
        raise ValueError("reply translation is empty or not a string")
    return translation


@dataclass
class BackTranslationResult:
    documents: list[CorpusDocument]
    errors: list[dict]


def backtranslate(english_docs: list[CorpusDocument], target: str,
                  client: MtClient) -> BackTranslationResult:
    """Translate English documents into ``target``, one synthetic doc each.

    Failed items are recorded as error entries, never silently fabricated.
    """
    documents: list[CorpusDocument] = []
    errors: list[dict] = []
    for doc in english_docs:
        try:
            translation = client.translate(doc.text, "eng", target)
        except MtClientError as exc:
            errors.append({"source_doc_id": doc.id, "target": target, "error": str(exc)})
            continue
        documents.append(
            make_document(
                lang=target,
                text=translation,
                source="synthetic_bt",
                license_note=doc.license_note,
                provenance={"source_doc_id": doc.id, "client": client.name},
            )
        )
    return BackTranslationResult(documents=documents, errors=errors)


# --- Pretraining mixture assembly -------------------------------------------


def check_count(name: str, value: int | None) -> None:
    """Raise a ValueError naming ``name`` unless the count ``value`` is None
    or >= 0."""
    if value is not None and value < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")


def _allocate(sample_size: int, weights: dict, capacities: dict) -> dict:
    """Largest-remainder allocation of ``sample_size`` across buckets,
    proportional to weight and capped at bucket capacity."""
    remaining = sample_size
    alloc = {k: 0 for k in weights}
    active = {k for k, w in weights.items() if w > 0 and capacities[k] > 0}
    while remaining > 0 and active:
        # When the largest weight is 2**900 or more, the weights are scaled
        # by a power of two, which is exact and leaves each quotient as it
        # was, so that neither their sum nor remaining * weight overflows.
        shift = max(0, math.frexp(max(weights[k] for k in active))[1] - 900)
        scaled = {k: math.ldexp(weights[k], -shift) if shift else weights[k] for k in active}
        total_w = sum(scaled.values())
        exact = {k: remaining * scaled[k] / total_w for k in active}
        floors = {k: min(int(exact[k]), capacities[k] - alloc[k]) for k in active}
        assigned = sum(floors.values())
        for k in active:
            alloc[k] += floors[k]
        leftover = remaining - assigned
        # distribute leftover by largest fractional remainder, stable key order
        order = sorted(active, key=lambda k: (-(exact[k] - int(exact[k])), k))
        for k in order:
            if leftover == 0:
                break
            if alloc[k] < capacities[k]:
                alloc[k] += 1
                leftover -= 1
        remaining = leftover
        active = {k for k in active if alloc[k] < capacities[k]}
    return alloc


def assemble_pretraining(docs: Iterable[CorpusDocument], spec: MixtureSpec, seed: int,
                         sample_size: int | None = None,
                         ) -> tuple[list[CorpusDocument], dict]:
    """Weighted stratified sampling without replacement per (source, lang).

    Deterministic for a fixed seed.  Returns the sampled documents and a
    manifest of per-bucket document and character counts.  With
    ``sample_size=None``, or one above the number of documents, every
    document of a bucket of nonzero weight is kept.
    """
    check_count("sample_size", sample_size)
    buckets: dict[tuple[str, str], list[CorpusDocument]] = {}
    for doc in docs:
        buckets.setdefault((doc.source, doc.lang), []).append(doc)

    weights = spec.bucket_weights(buckets)
    keys = sorted(buckets)
    capacities = {key: len(buckets[key]) for key in keys}
    total = sum(capacities.values())
    alloc = _allocate(total if sample_size is None else min(sample_size, total),
                      weights, capacities)
    chosen = {}
    for key in keys:
        n = alloc[key]
        bucket = buckets[key]
        if n >= len(bucket):
            chosen[key] = list(bucket)
        else:
            rng = random.Random(f"{seed}:{key[0]}:{key[1]}")
            idx = sorted(rng.sample(range(len(bucket)), n))
            chosen[key] = [bucket[i] for i in idx]

    output: list[CorpusDocument] = []
    manifest: dict = {"seed": seed, "buckets": {}}
    for key in keys:
        docs_out = chosen[key]
        output.extend(docs_out)
        manifest["buckets"][f"{key[0]}/{key[1]}"] = {
            "weight": weights[key],
            "docs_in": len(buckets[key]),
            "docs_out": len(docs_out),
            "chars_in": sum(d.char_count for d in buckets[key]),
            "chars_out": sum(d.char_count for d in docs_out),
        }
    manifest["total_docs"] = len(output)
    manifest["total_chars"] = sum(d.char_count for d in output)
    return output, manifest


# --- JSONL I/O ---------------------------------------------------------------

# The key tables (see jsonio.resolved) of a document line and a pair line.
DOCUMENT_KEYS = {"id": (str, REQUIRED), "lang": (str, REQUIRED), "text": (str, REQUIRED),
                 "source": (Source, REQUIRED), "license_note": (str, ""), "char_count": (int, 0),
                 "provenance": (dict, {})}
PAIR_KEYS = {"src_lang": (str, REQUIRED), "tgt_lang": (str, REQUIRED),
             "src_text": (str, REQUIRED), "tgt_text": (str, REQUIRED),
             "origin": (Source, "parallel"), "doc_id": (str, None)}


def write_documents_jsonl(docs: Iterable[CorpusDocument], path: str | Path) -> int:
    return jsonio.write_jsonl(path, (doc.__dict__ for doc in docs), sort_keys=True)


def read_documents_jsonl(path: str | Path) -> list[CorpusDocument]:
    return jsonio.read_jsonl(path, _document)


_encode_strict = jsonio.jsonl_encoder()


def _document(obj) -> CorpusDocument:
    doc = CorpusDocument(**jsonio.resolved(obj, DOCUMENT_KEYS))
    # provenance is free-form, so no key table checks its numbers; one read
    # as infinity (from a literal such as 1e999) could not be written back.
    try:
        _encode_strict(doc.provenance)
    except ValueError:
        raise ValueError("provenance must hold finite numbers only") from None
    return doc


def write_pairs_jsonl(pairs: Iterable[ParallelPair], path: str | Path) -> int:
    return jsonio.write_jsonl(path, (pair.__dict__ for pair in pairs), sort_keys=True)


def read_pairs_jsonl(path: str | Path) -> Iterator[ParallelPair]:
    """Each pair of a JSONL file, read as the caller asks for it."""
    yield from jsonio.iter_jsonl(path, lambda obj: ParallelPair(
        **jsonio.resolved(obj, PAIR_KEYS)))
