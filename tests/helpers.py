"""Fixtures' writers, a synthetic eval suite, stand-in clients, a scripted
loopback HTTP server and the packed-file validator.

The commands never write an eval suite or log-probability pairs and never
read ``packed.jsonl`` back, so these live with the tests, not the package.
"""

from __future__ import annotations

import contextlib
import csv
import json
import random
import socket
import sys
import threading
from array import array
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Callable, Iterable

from savanna import jsonio
from savanna.evalharness import (N_CATEGORIES, SENTENCES_PER_CATEGORY, CompletionClient, EvalItem,
                                 EvalSuite, TransportError)
from savanna.instruct import PACKED_FORMAT_VERSION, PackedSequence
from savanna.preference_loss import PairLogps


def synthetic_suite(languages: Iterable[str] = ("aaa", "bbb", "ccc"), seed: int = 0) -> EvalSuite:
    """Miniature suite with the real dataset's shape (20 x 5 grid) and
    deterministic synthetic text."""
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


class StubMtClient:
    """Deterministic in-process MT client: ``fn(text, source, target)``, by
    default ``TT:`` before the text."""

    def __init__(self, fn: Callable[[str, str, str], str] | None = None, name: str = "stub"):
        self.name = name
        self._fn = fn or (lambda text, source, target: f"TT:{text}")

    def translate(self, text: str, source: str, target: str) -> str:
        return self._fn(text, source, target)


def examples(scale: float) -> int:
    """A property test's own Hypothesis budget: ``scale`` times the active
    profile's ``max_examples``, so that a larger profile raises it too."""
    from hypothesis import settings

    return round(scale * settings.default.max_examples)


def write_pair_logps_jsonl(pairs: Iterable[PairLogps], path: str | Path) -> int:
    return jsonio.write_jsonl(path, (p.__dict__ for p in pairs))


def read_packed_jsonl(path: str | Path) -> tuple[list[PackedSequence], int]:
    """Packed sequences, their ids in an ``array('I')``, which holds any id
    the file may have, and ``max_len`` from a file ``write_packed_jsonl``
    wrote.  ``pack`` may have held the ids in a smaller typecode, but arrays
    compare equal by value, so the sequences equal ``pack``'s.  Raises
    ValueError on an unknown version, on spans that do not tile their
    sequence, and on ``attention_segments`` that disagree with the spans."""
    header, *rows = jsonio.read_jsonl(path) or [{}]
    if header.get("version") != PACKED_FORMAT_VERSION:
        raise ValueError(f"unsupported packed format version: {header.get('version')}")
    sequences = []
    for index, obj in enumerate(rows):
        seq = PackedSequence(token_ids=array("I", obj["token_ids"]),
                             segment_spans=[tuple(s) for s in obj["segment_spans"]])
        ends = [0] + [end for _doc_id, _start, end in seq.segment_spans]
        if ([start for _doc_id, start, _end in seq.segment_spans] != ends[:-1]
                or ends[-1] != len(seq.token_ids)):
            raise ValueError(f"{path}: sequence {index}: segment_spans do not tile the sequence")
        if obj["attention_segments"] != seq.attention_segments:
            raise ValueError(f"{path}: sequence {index}: attention_segments disagree with segment_spans")
        sequences.append(seq)
    return sequences, header["max_len"]


@dataclass
class Reply:
    """One scripted HTTP reply: ``body`` is sent as is when it is bytes, as
    JSON otherwise, after waiting ``delay`` seconds."""
    status: int = 200
    body: Any = None
    headers: dict = field(default_factory=dict)
    delay: float = 0.0


class _Handler(BaseHTTPRequestHandler):
    wbufsize = -1  # status line, headers and body leave in one write, at flush

    def do_POST(self):
        server = self.server
        length = self.headers["Content-Length"]
        body = json.loads(self.rfile.read(int(length))) if length else None
        with server.lock:
            server.requests.append({"path": self.path, "headers": self.headers, "body": body})
            reply = server.script.pop(0) if server.script else Reply(500, b"script exhausted")
        server.released.wait(reply.delay)
        data = reply.body if isinstance(reply.body, bytes) else json.dumps(reply.body).encode()
        self.send_response(reply.status)
        for name, value in reply.headers.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)
        self.wfile.flush()

    do_GET = do_POST  # a followed redirect arrives as a GET without a body

    def log_message(self, format, *args):
        pass


class ScriptedServer(ThreadingHTTPServer):
    """A loopback HTTP server that answers the n-th request with ``script[n]``
    (a 500 once the script runs out) and records each request's ``path``,
    ``headers`` and decoded JSON ``body`` (None for a GET) in ``requests``."""
    daemon_threads = True

    def __init__(self):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.script: list[Reply] = []
        self.requests: list[dict] = []
        self.lock = threading.Lock()
        self.released = threading.Event()  # ends every delayed reply's wait
        self.url = f"http://127.0.0.1:{self.server_address[1]}"

    def handle_error(self, request, client_address):
        # A client that timed out has hung up before its reply was written.
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)


@contextlib.contextmanager
def serving():
    """A running :class:`ScriptedServer`, shut down on exit."""
    server = ScriptedServer()
    # A short poll interval, so that shutdown returns at once.
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.released.set()
        server.shutdown()
        server.server_close()
        thread.join()


def closed_port_url() -> str:
    """The URL of a loopback port that nothing listens on."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return f"http://127.0.0.1:{sock.getsockname()[1]}"
