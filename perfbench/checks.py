"""Output checks, with brute-force oracles that share no code with the program.

Every check that runs counts as one attempted operation, and every check
that does not pass counts as one failed operation.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
import sys
import unicodedata
from pathlib import Path

import gen
from savanna import corpus

_PAGE_NUMBER = re.compile(r"^\s*(page\s+)?\d{1,4}\s*$", re.IGNORECASE)


class Checks:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def expect(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {name} {detail}".rstrip(), file=sys.stderr)
        return ok

    def count(self, attempted: int, failed: int, name: str) -> None:
        """Fold operations the program itself attempted into the totals."""
        self.attempted += attempted
        self.failed += failed
        if failed:
            print(f"{name}: {failed} unexpected failures", file=sys.stderr)


def _reject_constant(token: str):
    raise ValueError(f"non-JSON number {token}")


def strict_json(text: str):
    """Parse JSON, refusing NaN and Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def strict_jsonl(path: str) -> list:
    with open(path, encoding="utf-8") as f:
        return [strict_json(line) for line in f if line.strip()]


def digest(path: str) -> str:
    """sha256 of an output file.  Run logs record wall-clock latency, so
    that field is left out of their digest."""
    data = Path(path).read_bytes()
    if path.endswith("run_log.jsonl"):
        records = [json.loads(line) for line in data.decode("utf-8").splitlines()]
        for record in records:
            record.pop("latency_ms", None)
        data = json.dumps(records, sort_keys=True, ensure_ascii=False).encode("utf-8")
    return hashlib.sha256(data).hexdigest()[:16]


# --- Oracles --------------------------------------------------------------------


def oracle_normalize(text: str) -> str:
    """The metric profile written out: NFC, controls out (whitespace controls
    become spaces), punctuation out, lowercase, whitespace collapsed, to a
    fixed point."""
    for _ in range(4):
        chars = []
        for ch in unicodedata.normalize("NFC", text):
            category = unicodedata.category(ch)
            if ch in "\t\n\r\x0b\x0c":
                chars.append(" ")
            elif category in ("Cc", "Cf") or category.startswith("P"):
                continue
            else:
                chars.append(ch)
        nxt = " ".join("".join(chars).lower().split())
        if nxt == text:
            break
        text = nxt
    return text


def _ngrams(seq, n: int) -> dict:
    counts: dict = {}
    for i in range(len(seq) - n + 1):
        gram = tuple(seq[i:i + n])
        counts[gram] = counts.get(gram, 0) + 1
    return counts


def _overlap(hyp: dict, ref: dict) -> int:
    return sum(min(c, ref[g]) for g, c in hyp.items() if g in ref)


def oracle_chrf(hyp: str, ref: str) -> float:
    h = [c for c in hyp if not c.isspace()]
    r = [c for c in ref if not c.isspace()]
    if not h or not r:
        return float(not h and not r)
    precisions, recalls = [], []
    for n in range(1, 7):
        hg, rg = _ngrams(h, n), _ngrams(r, n)
        if not rg:
            continue
        m = _overlap(hg, rg)
        precisions.append(m / sum(hg.values()) if hg else 0.0)
        recalls.append(m / sum(rg.values()))
    p, rc = sum(precisions) / len(precisions), sum(recalls) / len(recalls)
    return 0.0 if p + rc == 0 else 5 * p * rc / (4 * p + rc)


def oracle_bleu(hyp: str, ref: str) -> float:
    h, r = hyp.split(), ref.split()
    if not h:
        return 0.0
    logs = 0.0
    for n in range(1, 5):
        hg, rg = _ngrams(h, n), _ngrams(r, n)
        total, m = sum(hg.values()), _overlap(hg, rg)
        p = (m + 1) / (total + 1) if n >= 2 else (m / total if total else 0.0)
        if p == 0:
            return 0.0
        logs += math.log(p)
    bp = math.exp(min(0.0, 1 - len(r) / len(h)))
    return 100.0 * math.exp(logs / 4) * bp


def wagner_fischer(a, b) -> int:
    """Full-matrix Levenshtein distance."""
    d = [[i + j if i * j == 0 else 0 for j in range(len(b) + 1)] for i in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1,
                          d[i - 1][j - 1] + (a[i - 1] != b[j - 1]))
    return d[-1][-1]


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


# --- Eval ------------------------------------------------------------------------


def count_eval_units(result: Checks, wl) -> None:
    """Count the units the run and the rescore scored; a failure beyond the
    injected ones is a failed operation."""
    injected = len(wl.failing)
    for stage in ("eval", "rescore"):
        report = strict_json(Path(f"out/{stage}/report.json").read_text(encoding="utf-8"))
        result.count(report["total_items"], abs(report["total_failed"] - injected),
                     f"{stage} units")


def check_eval(result: Checks, wl) -> None:
    report = strict_json(Path("out/eval/report.json").read_text(encoding="utf-8"))
    result.expect("rescore report.json is byte-identical to the run's",
                  Path("out/eval/report.json").read_bytes()
                  == Path("out/rescore/report.json").read_bytes())

    records = strict_jsonl("out/eval/run_log.jsonl")[1:]
    errors = {r["id"] for r in records if r["status"] != "ok"}
    result.expect("run log holds every unit, failing exactly the injected ones",
                  len(records) == len(wl.units) and errors == wl.failing)

    # Per-sentence scores appear in unit order, failed units skipped.
    scored = {}
    per_direction = {tuple(d["direction"]): d["per_sentence"] for d in report["directions"]}
    for direction in wl.directions:
        ok_units = [u for u in wl.units
                    if (u["src"], u["tgt"]) == direction and u["id"] not in wl.failing]
        rows = per_direction.get(direction, [])
        if result.expect(f"{direction} scored every non-failed unit", len(rows) == len(ok_units)):
            scored.update({u["id"]: (u, row) for u, row in zip(ok_units, rows)})
    rng = random.Random(f"oracle:{wl.seed}")
    for unit_id in rng.sample(sorted(scored), min(wl.oracle_sample, len(scored))):
        unit, row = scored[unit_id]
        hyp = oracle_normalize(wl.plan[unit_id]["hypothesis"])
        ref = oracle_normalize(unit["reference"])
        expected = {
            "chrf": oracle_chrf(hyp, ref),
            "bleu": oracle_bleu(hyp, ref),
            "cer": wagner_fischer(hyp, ref) / len(ref),
            "wer": wagner_fischer(hyp.split(), ref.split()) / len(ref.split()),
        }
        for metric, value in expected.items():
            result.expect(f"{unit_id} {metric} matches the oracle", _close(row[metric], value),
                          f"{row[metric]} != {value}")

    if wl.with_report:
        winners = strict_json(Path("out/report/winner_counts.json").read_text(encoding="utf-8"))
        langs = {d[0] for d in wl.directions if d[0] != "eng"}
        result.expect("leaderboard names the run's model and counts every language",
                      winners == {"bench-model": len(langs)}
                      and "bench-model" in Path("out/report/mean_table.md").read_text())


# --- Data prep -------------------------------------------------------------------


def _paragraph_key(text: str) -> str:
    return " ".join(text.split())


def check_dataprep(result: Checks, wl) -> None:
    docs = strict_jsonl("out/corpus/documents.jsonl")
    manifest = strict_json(Path("out/corpus/manifest.json").read_text(encoding="utf-8"))
    result.expect("corpus manifest counts the written documents",
                  manifest["total_docs"] == len(docs) > 0)

    keys = [_paragraph_key(d["text"]) for d in docs]
    paragraphs = [_paragraph_key(p) for d in docs for p in re.split(r"\n\s*\n", d["text"])
                  if p.strip()]
    result.expect("no duplicate document or paragraph survives",
                  len(set(keys)) == len(keys) and len(set(paragraphs)) == len(paragraphs))
    records = corpus.read_documents_jsonl("out/corpus/documents.jsonl")
    again = list(corpus.dedup(records))
    result.expect("dedup is idempotent on the corpus output",
                  [(d.id, d.text) for d in again] == [(d.id, d.text) for d in records])

    titles = [gen.book_title(b) for b in range(len(gen.BOOK_LINES))]
    dirty = [d["id"] for d in docs
             if not unicodedata.is_normalized("NFC", d["text"])
             or any(unicodedata.category(ch) in ("Cc", "Cf") and ch != "\n" for ch in d["text"])
             or any(_PAGE_NUMBER.match(line) for line in d["text"].split("\n"))
             or any(t.casefold() in d["text"].casefold() for t in titles)]
    result.expect("cleaned text is NFC, without controls, page numbers or running headers",
                  not dirty, f"{dirty[:3]}")

    _check_packing(result)

    audit = strict_json(Path("out/loss/loss_audit.json").read_text(encoding="utf-8"))
    pairs = strict_jsonl("pair_logps.jsonl")
    rows = audit["pairs"]
    result.expect("loss audit has one row per pair", len(rows) == len(pairs))
    beta, alpha = audit["params"]["beta"], audit["params"]["alpha_rpo"]
    rng = random.Random(f"oracle:{wl.seed}")
    for k in rng.sample(range(len(pairs)), 50):
        p = pairs[k]
        margin = (sum(p["policy_chosen"]) - sum(p["ref_chosen"])) \
            - (sum(p["policy_rejected"]) - sum(p["ref_rejected"]))
        dpo = math.log1p(math.exp(-beta * margin))
        nll = -sum(p["policy_chosen"]) / len(p["policy_chosen"])
        got = rows[k]
        result.expect(f"loss pair {k} matches the oracle",
                      _close(got["margin"], margin) and _close(got["dpo_loss"], dpo)
                      and _close(got["irpo_loss"], dpo + alpha * nll))
    result.expect("loss means are the means of the rows",
                  _close(audit["mean_dpo_loss"], math.fsum(r["dpo_loss"] for r in rows) / len(rows))
                  and _close(audit["mean_irpo_loss"],
                             math.fsum(r["irpo_loss"] for r in rows) / len(rows)))


def _check_packing(result: Checks) -> None:
    """Every rendered token appears exactly once, in order within its
    document, and no sequence exceeds max_len."""
    user_pre, user_suf, asst_pre, asst_suf = gen.TEMPLATE
    expected = {}
    for i, ex in enumerate(strict_jsonl("out/instruct/instructions.jsonl")):
        text = "".join(
            (user_pre + t["text"] + user_suf) if t["role"] == "user"
            else (asst_pre + t["text"] + asst_suf) for t in ex["turns"])
        expected[f"ex{i}"] = list(text.encode("utf-8"))

    header, *sequences = strict_jsonl("out/instruct/packed.jsonl")
    max_len = header["max_len"]
    chunks: dict[str, list[list[int]]] = {}
    well_formed = max_len == gen.MAX_LEN
    for seq in sequences:
        ids = seq["token_ids"]
        well_formed &= 0 < len(ids) <= max_len and len(seq["attention_segments"]) == len(ids)
        position = 0
        for segment, (doc_id, start, end) in enumerate(seq["segment_spans"]):
            well_formed &= start == position and seq["attention_segments"][start:end] == \
                [segment] * (end - start)
            position = end
            chunks.setdefault(doc_id, []).append(ids[start:end])
        well_formed &= position == len(ids)
    result.expect("packed sequences are well formed and within max_len", well_formed)

    # A document's full-length chunks each open a new sequence, in order; its
    # one shorter tail chunk, if any, is placed last.
    rebuilt = {doc_id: [t for c in sorted(parts, key=lambda c: len(c) < max_len) for t in c]
               for doc_id, parts in chunks.items()}
    result.expect("every token appears exactly once, in document order", rebuilt == expected)
    manifest = strict_json(Path("out/instruct/manifest.json").read_text(encoding="utf-8"))
    result.expect("instruct manifest counts the packed sequences",
                  manifest["packed_sequences"] == len(sequences)
                  and manifest["examples"] == len(expected))
