"""Independent brute-force oracles used to cross-check the main implementations.

These deliberately avoid sharing code with the package: n-grams are
enumerated into plain dicts, edit distance uses a full Wagner-Fischer
matrix and the longest common subsequence a full DP matrix, the F-score
arithmetic is written out longhand, text normalization runs its five
steps separately, repeated to a fixed point, each recurring-line page
edge scans every family ever made, first-fit packing scans every open
sequence for each chunk, the packed file is written by the JSON encoder,
one int at a time, ASR noise classifies each character as it
reaches it, a key table's kinds are tested one element at a time, a
mixture sample is allocated in plain float arithmetic, and deduplication
splits paragraphs one character at a time and keeps whole texts as keys.
"""

from __future__ import annotations

import json
import math
import string
import types
import typing
import unicodedata


def _ngram_dict(seq, n):
    counts = {}
    for i in range(len(seq) - n + 1):
        gram = tuple(seq[i : i + n])
        counts[gram] = counts.get(gram, 0) + 1
    return counts


def brute_chrf(hypothesis: str, reference: str, max_n: int = 6, beta: float = 2.0) -> float:
    hyp = [c for c in hypothesis if not c.isspace()]
    ref = [c for c in reference if not c.isspace()]
    if not hyp and not ref:
        return 1.0
    if not hyp or not ref:
        return 0.0
    precisions, recalls = [], []
    for n in range(1, max_n + 1):
        hyp_grams = _ngram_dict(hyp, n)
        ref_grams = _ngram_dict(ref, n)
        total_ref = sum(ref_grams.values())
        if total_ref == 0:
            continue
        total_hyp = sum(hyp_grams.values())
        overlap = 0
        for gram, count in hyp_grams.items():
            if gram in ref_grams:
                overlap += count if count < ref_grams[gram] else ref_grams[gram]
        precisions.append(overlap / total_hyp if total_hyp else 0.0)
        recalls.append(overlap / total_ref)
    p = sum(precisions) / len(precisions)
    r = sum(recalls) / len(recalls)
    if p + r == 0:
        return 0.0
    return (1 + beta ** 2) * p * r / (beta ** 2 * p + r)


def brute_bleu(hypothesis: str, reference: str, max_n: int = 4,
               add_one_smoothing: bool = True) -> float:
    hyp = hypothesis.split()
    ref = reference.split()
    if not hyp:
        return 0.0
    log_precisions = []
    for n in range(1, max_n + 1):
        hyp_grams = _ngram_dict(hyp, n)
        ref_grams = _ngram_dict(ref, n)
        total = sum(hyp_grams.values())
        overlap = 0
        for gram, count in hyp_grams.items():
            if gram in ref_grams:
                overlap += min(count, ref_grams[gram])
        if add_one_smoothing and n >= 2:
            p = (overlap + 1) / (total + 1)
        else:
            p = overlap / total if total else 0.0
        if p == 0:
            return 0.0
        log_precisions.append(math.log(p))
    score = math.exp(sum(log_precisions) / max_n)
    if len(hyp) < len(ref):
        score *= math.exp(1 - len(ref) / len(hyp))
    return 100.0 * score


def brute_edit_distance(a, b) -> int:
    """Full-matrix Wagner-Fischer, independent of the two-row implementation."""
    rows, cols = len(a) + 1, len(b) + 1
    d = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        d[i][0] = i
    for j in range(cols):
        d[0][j] = j
    for i in range(1, rows):
        for j in range(1, cols):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1, d[i - 1][j - 1] + cost)
    return d[-1][-1]


def brute_lcs(a, b) -> int:
    """Length of the longest common subsequence, by the full dynamic-programming matrix."""
    d = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            d[i][j] = d[i - 1][j - 1] + 1 if a[i - 1] == b[j - 1] else max(d[i - 1][j], d[i][j - 1])
    return d[-1][-1]


def brute_ngram_statistics(hyp, ref, max_n):
    """Per-order (clipped matches, hypothesis total, reference total), one dict per order."""
    matched, hyp_total, ref_total = [], [], []
    for n in range(1, max_n + 1):
        hyp_grams = _ngram_dict(hyp, n)
        ref_grams = _ngram_dict(ref, n)
        matched.append(sum(min(c, ref_grams[g]) for g, c in hyp_grams.items() if g in ref_grams))
        hyp_total.append(sum(hyp_grams.values()))
        ref_total.append(sum(ref_grams.values()))
    return matched, hyp_total, ref_total


_WHITESPACE_CONTROLS = {"\t", "\n", "\r", "\x0b", "\x0c"}


def _normalize_once(text: str, lowercase: bool, strip_punctuation: bool) -> str:
    s = unicodedata.normalize("NFC", text)
    out = []
    for ch in s:
        if ch in _WHITESPACE_CONTROLS:
            out.append(" ")
        elif unicodedata.category(ch) not in ("Cc", "Cf"):
            out.append(ch)
    s = "".join(out)
    if strip_punctuation:
        s = "".join(ch for ch in s if not unicodedata.category(ch).startswith("P"))
    if lowercase:
        s = s.lower()
    return " ".join(s.split())


def brute_normalize(text: str, profile) -> str:
    """NFC, controls out (whitespace controls become spaces), punctuation out
    and lowercase as ``profile`` says, whitespace collapsed; the whole
    pipeline iterated until the text stops changing."""
    current = text
    for _ in range(4):
        nxt = _normalize_once(current, profile.lowercase, profile.strip_punctuation)
        if nxt == current:
            break
        current = nxt
    return current


def _is_page_number(line: str) -> bool:
    """A bare page number: optionally ``page`` in any case and whitespace,
    then 1 to 4 decimal digits, with whitespace around."""
    rest = line.strip()
    if rest[:4].lower() == "page" and rest[4:5].isspace():
        rest = rest[4:].lstrip()
    return 1 <= len(rest) <= 4 and all(ch.isdecimal() for ch in rest)


def _line_key(line: str) -> str:
    """Whitespace runs become one space and the ends lose theirs, the text
    is casefolded, and each run of decimal digits becomes ``0``."""
    collapsed = ""
    gap = False
    for ch in line:
        if ch.isspace():
            gap = True
        else:
            collapsed += (" " if gap and collapsed else "") + ch
            gap = False
    key = ""
    in_digits = False
    for ch in collapsed.casefold():
        if not ch.isdecimal():
            key += ch
        elif not in_digits:
            key += "0"
        in_digits = ch.isdecimal()
    return key


def _brute_artifact_line_indices(lines: list[str]) -> set[int]:
    """The non-blank lines that are page numbers or recurring.  A line
    recurs when its key occurs 3 or more times or it is a member of a
    family of 3 or more page-edge lines.  Each line is first given the
    number of its page; each edge line then scans every family ever made,
    live or not, and joins the first live one within similarity 0.8."""
    keys = [_line_key(line) for line in lines]
    recurring = {idx for idx, key in enumerate(keys) if key and keys.count(key) >= 3}
    page_of = {}
    page = 0
    for idx, line in enumerate(lines):
        if _is_page_number(line):
            page += 1
            continue
        if "\x0c" in line:
            page += 1
        if keys[idx]:
            page_of[idx] = page
    edges = []  # (line, number of its page among the pages with lines)
    for number, page in enumerate(sorted(set(page_of.values()))):
        on_page = [idx for idx in page_of if page_of[idx] == page]
        edges += [(idx, number) for idx in on_page if idx in (min(on_page), max(on_page))]
    families = []  # [representative key, members, page number of the latest member]
    for idx, number in edges:
        key = keys[idx]
        for family in families:
            rep = family[0]
            if number - family[2] <= 2 and 2.0 * brute_lcs(key, rep) / (len(key) + len(rep)) >= 0.8:
                family[1].append(idx)
                family[2] = number
                break
        else:
            families.append([key, [idx], number])
    for _rep, members, _number in families:
        if len(members) >= 3:
            recurring.update(members)
    return {idx for idx, line in enumerate(lines)
            if line.strip() and (_is_page_number(line) or idx in recurring)}


# The corpus profile's settings, as ``brute_normalize`` reads them.
_CORPUS_PROFILE = types.SimpleNamespace(lowercase=False, strip_punctuation=False)


def brute_clean_document(raw: str) -> tuple[str, dict]:
    """Artifact lines dropped, each other line normalized with the corpus
    profile, blank-line runs collapsed by an explicit state machine.  The
    report is a plain dict with ``CleanReport``'s fields."""
    report = {"control_removed": 0, "artifacts_removed": 0}
    if not raw:
        return "", report
    lines = raw.split("\n")
    artifacts = _brute_artifact_line_indices(lines)
    kept = []
    for idx, line in enumerate(lines):
        if idx in artifacts:
            report["artifacts_removed"] += 1
            continue
        report["control_removed"] += sum(
            1 for ch in line if unicodedata.category(ch) in ("Cc", "Cf") and ch not in _WHITESPACE_CONTROLS
        )
        kept.append(brute_normalize(line, _CORPUS_PROFILE))
    paragraphs: list[str] = []
    blank = True
    for line in kept:
        if line:
            if not blank and paragraphs:
                paragraphs[-1] += "\n" + line
            else:
                paragraphs.append(line)
            blank = False
        else:
            blank = True
    return "\n\n".join(paragraphs), report


def _collapse(text: str) -> str:
    return " ".join(text.split())


def _brute_paragraphs(text: str) -> list[str]:
    """The pieces of ``text`` between paragraph breaks.  A break is a run
    of whitespace holding two or more newlines, from its first newline to
    its last; what the run holds before and after them stays with the
    pieces either side."""
    pieces = []
    start = 0
    i = 0
    while i < len(text):
        if not text[i].isspace():
            i += 1
            continue
        end = i
        while end < len(text) and text[end].isspace():
            end += 1
        newlines = [k for k in range(i, end) if text[k] == "\n"]
        if len(newlines) >= 2:
            pieces.append(text[start:newlines[0]])
            start = newlines[-1] + 1
        i = end
    pieces.append(text[start:])
    return pieces


def brute_dedup(texts: list[str]) -> list[tuple[int, str]]:
    """Exact deduplication of documents, then of paragraphs, with the
    whitespace-collapsed texts as keys, unhashed.  Returns the index of
    each document kept, with its text: its paragraphs not seen before,
    blank ones aside, joined by blank lines."""
    seen_docs = []
    seen_paragraphs = []
    out = []
    for index, text in enumerate(texts):
        if _collapse(text) in seen_docs:
            continue
        seen_docs.append(_collapse(text))
        kept = []
        for para in _brute_paragraphs(text):
            key = _collapse(para)
            if key == "" or key in seen_paragraphs:
                continue
            seen_paragraphs.append(key)
            kept.append(para)
        if kept:
            out.append((index, "\n\n".join(kept)))
    return out


def brute_pack(token_streams, max_len):
    """First-fit packing by a linear scan over the sequences for each chunk.
    Returns one dict per sequence with ``token_ids``, ``segment_spans`` and
    ``attention_segments``."""
    chunks = []
    for doc_id, ids in token_streams:
        for start in range(0, len(ids), max_len):
            chunks.append((doc_id, ids[start : start + max_len]))
    sequences = []
    for doc_id, chunk in chunks:
        for seq in sequences:
            if len(seq["token_ids"]) + len(chunk) <= max_len:
                break
        else:
            seq = {"token_ids": [], "segment_spans": [], "attention_segments": []}
            sequences.append(seq)
        start = len(seq["token_ids"])
        seq["token_ids"].extend(chunk)
        seq["segment_spans"].append((doc_id, start, start + len(chunk)))
        seq["attention_segments"].extend([len(seq["segment_spans"]) - 1] * len(chunk))
    return sequences


def brute_write_packed_jsonl(sequences, path, max_len):
    """The packed JSONL file of ``sequences`` (dicts as ``brute_pack``
    returns them), every line, header included, encoded whole by the JSON
    encoder."""
    encode = json.JSONEncoder(ensure_ascii=False).encode
    with open(path, "w", encoding="utf-8") as f:
        f.write(encode({"version": 1, "max_len": max_len}) + "\n")
        for seq in sequences:
            f.write(encode({
                "token_ids": seq["token_ids"],
                "segment_spans": [list(s) for s in seq["segment_spans"]],
                "attention_segments": seq["attention_segments"],
            }) + "\n")


def brute_asr_noise(text, rate, rng):
    """ASR noise one character at a time: skip punctuation, else draw, and
    on a hit draw again to delete, substitute or insert."""
    letters = [ch for ch in text if ch.isalpha()] or list(string.ascii_lowercase)
    out = []
    for ch in text:
        if unicodedata.category(ch).startswith("P"):
            continue
        r = rng.random()
        if r < rate:
            op = rng.random()
            if op < 1 / 3:
                continue  # deletion
            if op < 2 / 3:
                out.append(rng.choice(letters))  # substitution
            else:
                out.append(ch)
                out.append(rng.choice(letters))  # insertion
        else:
            out.append(ch)
    return "".join(out)


# The smallest int that float() rounds to infinity: half an ulp above the
# largest float.
_FLOAT_OVERFLOW = 2 ** 1024 - 2 ** 970


def _brute_check_type(value, kind) -> bool:
    """Whether ``value`` is of ``kind``, a kind of a key table, tested with
    explicit loops.  A ``dict`` kind is an entry table, whose keys are all
    required, as in every entry table of the package."""
    if isinstance(kind, dict):
        if not isinstance(value, dict):
            return False
        for key in value:
            if key not in kind:
                return False
        for key, (entry_kind, _default) in kind.items():
            if key not in value or not _brute_check_type(value[key], entry_kind):
                return False
        return True
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin is list:
        if not isinstance(value, list):
            return False
        for element in value:
            if not _brute_check_type(element, args[0]):
                return False
        return True
    if origin is typing.Literal:
        for choice in args:
            if isinstance(value, str) and value == choice:
                return True
        return False
    if origin is tuple:
        if not isinstance(value, list) or len(value) != len(args):
            return False
        for element, element_kind in zip(value, args):
            if not isinstance(element, element_kind):
                return False
        return True
    if kind == (int, float):  # a finite number, and never true or false
        if isinstance(value, bool):
            return False
        if isinstance(value, int):
            return -_FLOAT_OVERFLOW < value < _FLOAT_OVERFLOW
        return isinstance(value, float) and value == value and abs(value) != math.inf
    if kind is int:
        return isinstance(value, int) and not isinstance(value, bool)
    if kind == (str, list):
        return isinstance(value, str) or isinstance(value, list)
    return isinstance(value, kind)


def float_allocate(sample_size, weights, capacities):
    """Largest-remainder allocation of ``sample_size`` across buckets in
    plain float arithmetic, which overflows, or divides by an infinite sum,
    for weights near the largest float: the reference that
    ``corpus._allocate`` must match wherever this does not overflow."""
    remaining = sample_size
    alloc = {k: 0 for k in weights}
    active = {k for k, w in weights.items() if w > 0 and capacities[k] > 0}
    while remaining > 0 and active:
        total_w = sum(weights[k] for k in active)
        exact = {k: remaining * weights[k] / total_w for k in active}
        floors = {k: min(int(exact[k]), capacities[k] - alloc[k]) for k in active}
        assigned = sum(floors.values())
        for k in active:
            alloc[k] += floors[k]
        leftover = remaining - assigned
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
