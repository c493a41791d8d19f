"""Seeded input generator for every workload.

Everything here depends only on the seed, so the same seed gives the same
files.  Sizes that set the amount of work (sentence lengths, book line
counts, stream lengths) come from fixed grids and only their assignment is
seeded, so the work per run stays nearly constant across seeds while the
text itself changes.
"""

from __future__ import annotations

import csv
import json
import random
import statistics
from pathlib import Path

N_CATEGORIES = 20
SENTENCES_PER_CATEGORY = 5
# The CLI's default chat template, which the instruct config leaves in place.
TEMPLATE = ("<user>", "</user>", "<assistant>", "</assistant>")
MAX_LEN = 512
# Three OCR books long enough that quadratic line-family matching shows.
BOOK_LINES = (1100, 1300, 1500)
BOOK_LANGS = ("lug", "ach", "nyn")
N_WEB = 1500
N_PAIRS = 4000
N_CONVERSATIONAL = 800
N_LOGP_PAIRS = 1500

# Shares taken from the workload definitions in README.md.
WORD_ERROR_RATE = 0.15
FAIL_SHARE = 0.02

_ENGLISH = (
    "the people of the village gathered near river market school clinic "
    "harvest season rain farmers cattle children teacher road district "
    "water women elders health community government radio news morning "
    "evening week year family land price coffee beans maize bananas "
    "traveled returned announced explained planted carried built opened "
    "because while after before during about between without through "
    "new old small large many several every other local national"
).split()
_CONSONANTS = "bcdfgjklmnprstwyz"
_VOWELS = "aeiou"
# Combining acute, grave and circumflex: text is written in NFD so that
# normalization to NFC has real work to do.
_MARKS = ("\u0301", "\u0300", "\u0302")
_SHARED_OPENINGS = (
    "Awo kabaka n'agamba nti",
    "Mu biseera ebyo abantu",
    "Olwatuuka bwe baali",
    "Naye omukulu w'ekika",
)
_BOILERPLATE = (
    "Soma ebisingawo ku mukutu gwaffe.",
    "All rights reserved by the publisher.",
    "Tuwandiikire ku ssimu oba ku email.",
    "Share this story with your friends.",
)


def _word(rng: random.Random, syllables: int) -> str:
    parts = []
    for _ in range(syllables):
        vowel = rng.choice(_VOWELS)
        if rng.random() < 0.12:
            vowel += rng.choice(_MARKS)
        parts.append(rng.choice(_CONSONANTS) + vowel)
    if rng.random() < 0.05:
        parts.insert(1, "ŋ")  # a letter with no decomposition
    return "".join(parts)


def lexicon(rng: random.Random, size: int = 400) -> list[str]:
    return [_word(rng, rng.randint(1, 4)) for _ in range(size)]


def sentence(rng: random.Random, words: list[str], length: int) -> str:
    """A sentence of exactly ``length`` characters with inner punctuation."""
    end = rng.choice(".?!")
    out = ""
    while True:
        word = rng.choice(words)
        if rng.random() < 0.08:
            word += rng.choice(",;:")
        candidate = f"{out} {word}" if out else word.capitalize()
        if len(candidate) + 1 > length:
            break
        out = candidate
    gap = length - len(out) - 1
    if gap >= 2:
        filler = rng.choice(words) * 3
        out = f"{out} {filler[:gap - 1]}" if out else filler[:gap].capitalize()
    out = (out + "x" * length)[: length - 1]  # exactly length - 1 before the end mark
    return out + end


def _slot_lengths() -> list[list[int]]:
    """100 sentence lengths (median 146, sd 35) split into 20 documents of
    near-equal total length, longest first into the shortest document."""
    dist = statistics.NormalDist(146, 35)
    values = sorted((round(dist.inv_cdf((k + 0.5) / 100)) for k in range(100)), reverse=True)
    groups: list[list[int]] = [[] for _ in range(N_CATEGORIES)]
    for value in values:
        group = min((g for g in groups if len(g) < SENTENCES_PER_CATEGORY), key=sum)
        group.append(value)
    return groups


# --- Eval suite and bench client replies -----------------------------------


def make_suite(path: Path, languages: list[str], seed: int) -> list[dict]:
    """Write a full 20x5 suite CSV; return its rows in (category, index) order."""
    rng = random.Random(f"suite:{seed}")
    lexicons = {lang: lexicon(rng) for lang in languages}
    rows = []
    for cat, lengths in enumerate(_slot_lengths(), start=1):
        for idx, length in enumerate(lengths):
            row = {"category_id": cat, "sent_index": idx,
                   "english": sentence(rng, _ENGLISH, length)}
            for lang in languages:
                row[lang] = sentence(rng, lexicons[lang], length)
            rows.append(row)
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["category_id", "sent_index", "english"] + sorted(languages))
        for row in rows:
            writer.writerow([row["category_id"], row["sent_index"], row["english"]]
                            + [row[lang] for lang in sorted(languages)])
    return rows


def eval_units(rows: list[dict], directions: list[tuple[str, str]],
               granularity: str) -> list[dict]:
    """Units in the order the harness scores them, with source and reference."""
    units = []
    for src, tgt in directions:
        col = {lang: lang if lang != "eng" else "english" for lang in (src, tgt)}
        if granularity == "sentence":
            for row in rows:
                units.append({"id": f"{src}-{tgt}:{row['category_id']}:{row['sent_index']}",
                              "src": src, "tgt": tgt,
                              "source": row[col[src]], "reference": row[col[tgt]]})
        else:
            for cat in range(1, N_CATEGORIES + 1):
                members = [r for r in rows if r["category_id"] == cat]
                units.append({"id": f"{src}-{tgt}:{cat}:doc", "src": src, "tgt": tgt,
                              "source": " ".join(r[col[src]] for r in members),
                              "reference": " ".join(r[col[tgt]] for r in members)})
    return units


def perturb(rng: random.Random, text: str, words: list[str]) -> str:
    """Drop, substitute or insert words at WORD_ERROR_RATE overall."""
    out = []
    for token in text.split():
        r = rng.random()
        if r < WORD_ERROR_RATE / 3:
            continue
        if r < 2 * WORD_ERROR_RATE / 3:
            out.append(rng.choice(words))
            continue
        out.append(token)
        if r < WORD_ERROR_RATE:
            out.append(rng.choice(words))
    return " ".join(out) or text


def plan_replies(units: list[dict], seed: int) -> tuple[dict, set]:
    """Per unit: the undecorated hypothesis, the raw reply, and whether the
    unit fails.  Every unit has its own RNG, so replies do not depend on the
    order in which concurrent requests arrive."""
    n_fail = max(1, round(FAIL_SHARE * len(units)))
    failing = set(random.Random(f"fail:{seed}").sample([u["id"] for u in units], n_fail))
    plan = {}
    for unit in units:
        rng = random.Random(f"reply:{seed}:{unit['id']}")
        words = unit["reference"].split()
        hyp = perturb(rng, unit["reference"], words)
        r = rng.random()
        raw = f"Translation: {hyp}" if r < 0.1 else f'"{hyp}"' if r < 0.2 else hyp
        plan[unit["id"]] = {"hypothesis": hyp, "reply": raw}
    return plan, failing


# --- Data-prep inputs ----------------------------------------------------------


def _book(rng: random.Random, words: list[str], n_lines: int, title: str) -> str:
    """An OCR'd book: running headers, page numbers, form feeds, control
    characters, NFD text, and every seventh line opening with one of a few
    shared phrases, which fills the recurring-line buckets."""
    lines = []
    page = 1
    k = 0
    while len(lines) < n_lines:
        lines.append(("\x0c" if page > 1 else "") + f"{title} {page}")
        for i in range(36):
            k += 1
            if i % 9 == 8:
                lines.append("")
                continue
            length = rng.randint(55, 80)
            if k % 7 == 3:
                opening = _SHARED_OPENINGS[(k // 7) % len(_SHARED_OPENINGS)]
                text = opening + " " + sentence(rng, words, length - len(opening) - 1)
            else:
                text = sentence(rng, words, length)
            if k % 31 == 11:
                cut = rng.randrange(len(text))
                text = text[:cut] + rng.choice("\x00\x07\u200b\u00ad") + text[cut:]
            lines.append(text)
        lines.append(rng.choice((f"{page}", f"Page {page}", f"  {page} ")))
        page += 1
    return "\n".join(lines[:n_lines])


def _web_doc(rng: random.Random, i: int, words: list[str], earlier: list[str]) -> str:
    """Short web text; some paragraphs are boilerplate or copied from
    earlier documents, so paragraph dedup has work to do."""
    paragraphs = []
    for p in range(2 + i % 5):
        slot = 5 * i + p
        if slot % 17 == 0:
            paragraphs.append(_BOILERPLATE[slot % len(_BOILERPLATE)])
        elif slot % 23 == 0 and earlier:
            paragraphs.append(rng.choice(earlier))
        else:
            paragraphs.append(" ".join(sentence(rng, words, rng.randint(60, 160))
                                       for _ in range(1 + slot % 3)))
    earlier.append(paragraphs[-1])
    return "\n\n".join(paragraphs)


def book_title(index: int) -> str:
    return f"EBYAFAAYO BYA {BOOK_LANGS[index].upper()} {index}"


def make_dataprep(work: Path, seed: int) -> dict:
    """Write the corpus, instruct and loss inputs; return their sizes."""
    rng = random.Random(f"dataprep:{seed}")
    langs = ["lug", "ach", "nyn", "eng"]
    lexicons = {lang: (_ENGLISH if lang == "eng" else lexicon(rng)) for lang in langs}
    sizes = {"book_lines": 0, "documents": 0, "chars": 0}

    docs = []
    for b, (n_lines, lang) in enumerate(zip(BOOK_LINES, BOOK_LANGS)):
        text = _book(rng, lexicons[lang], n_lines, book_title(b))
        docs.append({"id": f"book{b}", "lang": lang, "text": text, "source": "book_ocr",
                     "license_note": "public domain"})
        sizes["book_lines"] += n_lines
    earlier: list[str] = []
    for i in range(N_WEB):
        if i % 12 == 7:  # an exact duplicate of an earlier web document
            copy = dict(rng.choice(docs[len(BOOK_LINES):]))
            copy["id"] = f"web{i}"
            docs.append(copy)
            continue
        lang = langs[(i // 4) % 4]
        docs.append({"id": f"web{i}", "lang": lang,
                     "text": _web_doc(rng, i, lexicons[lang], earlier),
                     "source": ("web", "web", "community", "radio_transcript")[i % 4],
                     "license_note": "cc-by"})
    with open(work / "documents.jsonl", "w", encoding="utf-8") as f:
        for doc in docs:
            f.write(json.dumps(doc, ensure_ascii=False) + "\n")
    sizes["documents"] = len(docs)
    sizes["chars"] = sum(len(d["text"]) for d in docs)

    pair_lengths = [60 + (k * 7) % 180 for k in range(N_PAIRS)]
    rng.shuffle(pair_lengths)
    with open(work / "pairs.jsonl", "w", encoding="utf-8") as f:
        for k, length in enumerate(pair_lengths):
            lang = langs[k % 3]
            src, tgt = ("eng", lang) if k % 2 else (lang, "eng")
            f.write(json.dumps({
                "src_lang": src, "tgt_lang": tgt,
                "src_text": sentence(rng, lexicons[src], length),
                "tgt_text": sentence(rng, lexicons[tgt], length),
                "origin": "parallel", "doc_id": f"p{k}",
            }, ensure_ascii=False) + "\n")
    categories = ("question_answering", "summarization_correction", "creative",
                  "cultural_explanation")
    turn_lengths = [40 + (k * 13) % 700 for k in range(N_CONVERSATIONAL)]
    rng.shuffle(turn_lengths)
    with open(work / "conversational.jsonl", "w", encoding="utf-8") as f:
        for k, length in enumerate(turn_lengths):
            lang = langs[k % 4]
            turns = []
            for t in range(2 * (1 + k % 3)):
                role = "user" if t % 2 == 0 else "assistant"
                turns.append({"role": role,
                              "text": sentence(rng, lexicons[lang], length if t % 2 else 60)})
            f.write(json.dumps({"category": categories[k % 4], "turns": turns,
                                "langs_involved": [lang]}, ensure_ascii=False) + "\n")
    sizes["pairs"] = N_PAIRS
    sizes["streams"] = N_PAIRS + N_CONVERSATIONAL

    with open(work / "pair_logps.jsonl", "w", encoding="utf-8") as f:
        for k in range(N_LOGP_PAIRS):
            chosen = 80 + k % 41
            rejected = 120 - k % 41
            record = {}
            for name, n in (("policy_chosen", chosen), ("ref_chosen", chosen),
                            ("policy_rejected", rejected), ("ref_rejected", rejected)):
                record[name] = [-round(rng.expovariate(2.0), 4) for _ in range(n)]
            f.write(json.dumps(record) + "\n")
    sizes["logp_pairs"] = N_LOGP_PAIRS
    sizes["tokens"] = N_LOGP_PAIRS * 400
    return sizes
