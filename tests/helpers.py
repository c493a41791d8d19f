"""Fixtures' writers, stand-in clients and the packed-file validator.

The commands never write an eval suite or log-probability pairs and never
read ``packed.jsonl`` back, so these live with the tests, not the package.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable

from savanna import jsonio
from savanna.evalharness import CompletionClient, EvalSuite, TransportError
from savanna.instruct import PACKED_FORMAT_VERSION, PackedSequence
from savanna.preference_loss import PairLogps


def save_suite(suite: EvalSuite, path: str | Path) -> None:
    """Write ``suite`` in the layout ``evalharness.load_suite`` reads: TSV
    for a ``.tsv`` path, CSV otherwise."""
    path = Path(path)
    delimiter = "\t" if path.suffix.lower() == ".tsv" else ","
    languages = sorted(suite.languages)
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, delimiter=delimiter)
        writer.writerow(["category_id", "sent_index", "english"] + languages)
        for item in sorted(suite.items, key=lambda i: (i.category_id, i.sent_index)):
            writer.writerow([item.category_id, item.sent_index, item.english]
                            + [item.translations.get(lang, "") for lang in languages])


class ConstantClient:
    """Always replies with the same string."""

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


def write_pair_logps_jsonl(pairs: Iterable[PairLogps], path: str | Path) -> int:
    return jsonio.write_jsonl(path, (p.__dict__ for p in pairs))


def read_packed_jsonl(path: str | Path) -> tuple[list[PackedSequence], int]:
    """Packed sequences and ``max_len`` from a file ``write_packed_jsonl``
    wrote.  Raises ValueError on an unknown version, on spans that do not
    tile their sequence, and on ``attention_segments`` that disagree with
    the spans."""
    header, *rows = jsonio.read_jsonl(path) or [{}]
    if header.get("version") != PACKED_FORMAT_VERSION:
        raise ValueError(f"unsupported packed format version: {header.get('version')}")
    sequences = []
    for index, obj in enumerate(rows):
        seq = PackedSequence(token_ids=obj["token_ids"],
                             segment_spans=[tuple(s) for s in obj["segment_spans"]])
        ends = [0] + [end for _doc_id, _start, end in seq.segment_spans]
        if ([start for _doc_id, start, _end in seq.segment_spans] != ends[:-1]
                or ends[-1] != len(seq.token_ids)):
            raise ValueError(f"{path}: sequence {index}: segment_spans do not tile the sequence")
        if obj["attention_segments"] != seq.attention_segments:
            raise ValueError(f"{path}: sequence {index}: attention_segments disagree with segment_spans")
        sequences.append(seq)
    return sequences, header["max_len"]
