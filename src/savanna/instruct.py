"""Instruction dataset construction, chat rendering and sample packing.

Conversations are built as alternating user/assistant turns; rendering
produces token ids with a response-only loss mask (1 exactly on assistant
message bodies).  Tokenization is pluggable via :class:`TokenizerPort`:
the byte tokenizer by default, or a word-level one read from a vocabulary
file.
"""

from __future__ import annotations

import functools
import json
import random
import string
import unicodedata
from array import array
from dataclasses import dataclass, field, fields
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator, Literal, Protocol

from . import jsonio
from .corpus import ParallelPair, check_count
from .jsonio import REQUIRED

CATEGORIES = (
    "translation",
    "question_answering",
    "summarization_correction",
    "creative",
    "cultural_explanation",
)


@dataclass
class Turn:
    role: str  # "user" | "assistant"
    text: str


@dataclass
class InstructionExample:
    category: str
    turns: list[Turn]
    langs_involved: set[str] = field(default_factory=set)

    def __post_init__(self) -> None:
        if self.category not in CATEGORIES:
            raise ValueError(f"unknown category: {self.category!r}")
        validate_alternation(self.turns)


def validate_alternation(turns: list[Turn]) -> None:
    if not turns:
        raise ValueError("conversation must have at least one turn")
    for i, turn in enumerate(turns):
        expected = "user" if i % 2 == 0 else "assistant"
        if turn.role != expected:
            raise ValueError(f"turn {i} must have role {expected!r}, got {turn.role!r}")
        if not turn.text:
            raise ValueError(f"turn {i} has empty text")
    if turns[-1].role != "assistant":
        raise ValueError("conversation must end with an assistant turn")


@dataclass
class ChatExample:
    """A rendered conversation.  ``token_ids`` is the tokenizer's encoding
    of each piece, joined in an ``array`` of the tokenizer's typecode, so a
    byte-level conversation takes 1 byte a token."""

    token_ids: array
    boundaries: list[tuple[int, int, int]]  # (turn index, start, end) of each assistant body

    def __post_init__(self) -> None:
        for turn_index, start, end in self.boundaries:
            if not 0 <= start <= end <= len(self.token_ids):
                raise ValueError(f"boundary of turn {turn_index}, [{start}, {end}), lies outside "
                                 f"the {len(self.token_ids)} tokens")

    @property
    def loss_mask(self) -> list[int]:
        """Per-token loss mask, derived from ``boundaries``: 1 on assistant
        message bodies, 0 elsewhere."""
        mask = [0] * len(self.token_ids)
        for _turn_index, start, end in self.boundaries:
            mask[start:end] = [1] * (end - start)
        return mask


@dataclass(slots=True)  # no per-sequence __dict__ beside the ids
class PackedSequence:
    """Token ids of one packed sequence and the documents' spans in it.

    ``pack`` stores the ids in an ``array`` of its streams' typecode:
    ``'B'``, 1 byte each, for the byte tokenizer; ``'B'``, ``'H'`` or
    ``'I'`` for a vocabulary's.  The spans tile the sequence in order: the
    first starts at 0, each starts where the previous one ended, and the
    last ends at ``len(token_ids)``.
    """

    token_ids: array
    segment_spans: list[tuple[str, int, int]]  # (doc id, start, end) in sequence

    @property
    def attention_segments(self) -> list[int]:
        """Per-token segment id (the index of the token's span), derived
        from ``segment_spans``, so a consumer can block cross-document
        attention."""
        segments: list[int] = []
        for k, (_doc_id, start, end) in enumerate(self.segment_spans):
            segments += [k] * (end - start)
        return segments


# --- Tokenizers --------------------------------------------------------------


class TokenizerPort(Protocol):
    """Encodes text to token ids and back.  ``encode`` returns an ``array``
    of one unsigned typecode (``'B'``, ``'H'`` or ``'I'``) for every text,
    the empty one included, so that ``render_chat`` and ``pack`` join the
    ids at C level."""

    def encode(self, text: str) -> array: ...

    def decode(self, ids: Iterable[int]) -> str: ...


class ByteTokenizer:
    """UTF-8 byte-level tokenizer; exact round trip for any text.  Its ids
    are the text's bytes, in an ``array('B')``."""

    def encode(self, text: str) -> array:
        return array("B", text.encode("utf-8"))

    def decode(self, ids: Iterable[int]) -> str:
        # From an iterator, as bytes() would copy the 2- or 4-byte items of
        # an array('H') or array('I') as they lie in memory.
        return bytes(iter(ids)).decode("utf-8")


ID_LIMIT = 2 ** 32  # token ids are below this, so each fits in 4 bytes

# The unsigned typecodes an id array may have, smallest first.
ID_TYPECODES = ("B", "H", "I")


class VocabFileTokenizer:
    """Word-level tokenizer backed by an explicit ``{token: id}`` JSON file.

    Every id must be an ``int`` (not a ``bool``) in [0, 2**32), used by one
    token only, so that ids round-trip through ``decode``.  ``encode``
    returns an ``array`` of ``typecode``: the smallest of ``'B'``, ``'H'``
    and ``'I'`` that holds the largest id.
    """

    def __init__(self, vocab: dict[str, int]):
        jsonio.check_type(vocab, dict, "vocabulary")
        self._token_to_id = dict(vocab)
        self._id_to_token: dict[int, str] = {}
        for token, i in self._token_to_id.items():
            if not jsonio.is_number(i, int) or not 0 <= i < ID_LIMIT:
                raise ValueError(f"vocabulary id of token {token!r} must be an int in "
                                 f"[0, 2**32), got {i!r}")
            if i in self._id_to_token:
                raise ValueError(f"vocabulary id {i} of token {token!r} is already the id of "
                                 f"token {self._id_to_token[i]!r}")
            self._id_to_token[i] = token
        top = max(self._id_to_token, default=0)
        self.typecode = next(code for code in ID_TYPECODES if top < 256 ** array(code).itemsize)

    @classmethod
    def from_file(cls, path: str | Path) -> "VocabFileTokenizer":
        return jsonio.read_json(path, cls)

    def encode(self, text: str) -> array:
        try:
            return array(self.typecode, [self._token_to_id[token] for token in text.split()])
        except KeyError as exc:
            raise ValueError(f"token not in vocabulary: {exc.args[0]!r}") from None

    def decode(self, ids: Iterable[int]) -> str:
        return " ".join(self._id_to_token[i] for i in ids)


# --- Chat template and rendering ---------------------------------------------


@dataclass
class ChatTemplate:
    """Control strings delimiting each role's message; an empty one adds
    no token, as in the zero-overhead toy template used in tests."""

    user_prefix: str
    user_suffix: str
    assistant_prefix: str
    assistant_suffix: str

    @classmethod
    def from_file(cls, path: str | Path) -> "ChatTemplate":
        return cls(**jsonio.read_json(path, lambda obj: jsonio.resolved(obj, TEMPLATE_KEYS)))


def render_chat(example: InstructionExample, tokenizer: TokenizerPort,
                template: ChatTemplate) -> ChatExample:
    """Tokenize a conversation with a response-only loss mask.

    The mask is 1 exactly on assistant message bodies; user text, role
    headers and template control tokens are 0.  Each piece is tokenized in
    isolation, so decoding the masked-in positions reconstructs the
    concatenated assistant bodies.  The pieces' ids are appended with
    ``+=`` to the encoding of the empty text, so ``token_ids`` has the
    tokenizer's array typecode and no id becomes a Python int.
    """
    token_ids = tokenizer.encode("")
    boundaries: list[tuple[int, int, int]] = []
    for turn_index, turn in enumerate(example.turns):
        if turn.role == "assistant":
            prefix, suffix, body_mask = template.assistant_prefix, template.assistant_suffix, 1
        else:
            prefix, suffix, body_mask = template.user_prefix, template.user_suffix, 0
        for piece, mask_value in ((prefix, 0), (turn.text, body_mask), (suffix, 0)):
            if not piece:
                continue
            ids = tokenizer.encode(piece)
            if mask_value == 1:
                boundaries.append((turn_index, len(token_ids), len(token_ids) + len(ids)))
            token_ids += ids
    return ChatExample(token_ids=token_ids, boundaries=boundaries)


# --- Translation instructions and ASR noise ----------------------------------


@functools.cache
def _language_names() -> dict[str, str]:
    return json.loads(resources.files("savanna.data").joinpath("languages.json").read_text())


def language_name(code: str) -> str:
    return _language_names().get(code, code)


TRANSLATION_PROMPT = (
    "Translate the following text from {src} to {tgt}. "
    "Reply with only the translation.\n\n{text}"
)


def translation_prompt(src_lang: str, tgt_lang: str, text: str) -> str:
    """The user turn asking for ``text`` to be translated from ``src_lang``
    to ``tgt_lang`` (language codes), worded by ``TRANSLATION_PROMPT``."""
    return TRANSLATION_PROMPT.format(src=language_name(src_lang), tgt=language_name(tgt_lang),
                                     text=text)


def asr_noise(text: str, rate: float, rng: random.Random) -> str:
    """Simulate ASR-style corruption: per-character substitution, deletion
    and insertion at the given rate, plus punctuation drop.

    Punctuation (Unicode ``P*``) is dropped before any draw, with
    ``unicodedata.category`` looked up once per distinct character; each
    other character then draws from ``rng`` in text order.
    """
    letters = [ch for ch in text if ch.isalpha()] or list(string.ascii_lowercase)
    text = text.translate({ord(ch): None for ch in set(text)
                           if unicodedata.category(ch).startswith("P")})
    draw = rng.random
    out = []
    for ch in text:
        if draw() < rate:
            op = draw()
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


ASR_NOISE_RATE = 0.1  # the per-character corruption rate of a noisy source


def make_translation_instruction(pair: ParallelPair, noisy: bool = False,
                                 rng_seed: int = 0) -> InstructionExample:
    """Render a parallel pair as a one-turn translation instruction.

    With ``noisy=True`` the source text is perturbed by the ASR noise model
    at ``ASR_NOISE_RATE``, deterministically for a fixed seed.
    """
    source_text = pair.src_text
    if noisy:
        source_text = asr_noise(source_text, ASR_NOISE_RATE, random.Random(rng_seed))
    return InstructionExample(
        category="translation",
        turns=[Turn("user", translation_prompt(pair.src_lang, pair.tgt_lang, source_text)),
               Turn("assistant", pair.tgt_text)],
        langs_involved={pair.src_lang, pair.tgt_lang},
    )


# --- Sample packing -----------------------------------------------------------


def pack(token_streams: Iterable[tuple[str, array]],
         max_len: int = 512) -> list[PackedSequence]:
    """First-fit sample packing into sequences of at most ``max_len`` tokens.

    Documents longer than ``max_len`` are split into consecutive chunks.
    Each chunk goes into the first sequence, in order of creation, with
    room for it, or else opens a new sequence.  Every input token appears
    exactly once; each sequence's spans give its per-token segment ids
    (``PackedSequence.attention_segments``).

    The first sequence with room is found in a max-segment-tree over free
    capacity.  Leaves of sequences not yet opened hold ``max_len``, so the
    leftmost leaf with room is the first-fit choice, and it is the next
    sequence to open when no open one has room.  The tree starts with one
    leaf and doubles its leaves when every leaf is an open sequence without
    room, so placing n chunks costs O(n log n), on top of copying the
    tokens.  ``token_streams`` may be any iterable and is read once.  Each
    stream's chunks are copied into their sequences as it arrives, and
    ``pack`` drops the stream before reading the next, so the streams of a
    generator are freed one by one and each token is held once.

    Each stream is an ``array``, as a tokenizer's ``encode`` returns it.  A
    sequence opens as an ``array`` of the typecode of the stream that opens
    it, and each chunk is appended with ``+=``, a C-level copy that raises
    TypeError for a chunk of another typecode, so no id becomes a Python
    int: an ``array('B')`` stream from the byte tokenizer is packed at 1
    byte a token.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    # free[size + i] is the free capacity of sequence i; free[k] is the
    # larger of free[2k] and free[2k + 1].
    size = 1
    free = [0, max_len]
    sequences: list[PackedSequence] = []
    for doc_id, ids in token_streams:
        if not ids:
            raise ValueError(f"document {doc_id!r} is empty after tokenization")
        for start in range(0, len(ids), max_len):
            n = min(max_len, len(ids) - start)
            if free[1] < n:  # every leaf is an open sequence without room
                free = [0] * (2 * size) + free[size:] + [max_len] * size
                size *= 2
                for node in range(size - 1, 0, -1):
                    free[node] = max(free[2 * node], free[2 * node + 1])
            node = 1
            while node < size:
                node *= 2
                if free[node] < n:
                    node += 1
            slot = node - size
            if slot == len(sequences):
                sequences.append(PackedSequence(token_ids=array(ids.typecode), segment_spans=[]))
            seq = sequences[slot]
            offset = len(seq.token_ids)
            chunk = ids if n == len(ids) else ids[start:start + n]
            seq.token_ids += chunk
            seq.segment_spans.append((doc_id, offset, offset + n))
            free[node] -= n
            # Climb while the parent's maximum changes; above the first
            # parent that keeps its value, none can change.
            while node > 1:
                value, sibling = free[node], free[node ^ 1]
                node //= 2
                best = value if value > sibling else sibling
                if free[node] == best:
                    break
                free[node] = best
        del ids, chunk  # not held while the next stream is made
    return sequences


def batch_spec(tokens_per_batch: int = 32768, max_len: int = 512) -> int:
    """Sequences per batch for a fixed token budget (e.g. 32768/512 = 64)."""
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    if tokens_per_batch < 1:
        raise ValueError("tokens_per_batch must be >= 1")
    q, r = divmod(tokens_per_batch, max_len)
    if r != 0:
        raise ValueError("tokens_per_batch must be divisible by max_len")
    return q


PACKED_FORMAT_VERSION = 1


class _IdText(dict):
    """Memo from token id to its decimal text, filled on first use."""

    def __missing__(self, i: int) -> str:
        text = self[i] = str(i)
        return text


def write_packed_jsonl(sequences: Iterable[PackedSequence], path: str | Path,
                       max_len: int = 512) -> int:
    """Write packed sequences as JSONL; the first line is a version header.

    Each line is the JSON object ``{"token_ids": ..., "segment_spans": ...,
    "attention_segments": ...}``, the same text as the JSON encoder's, but
    the two per-token lists are not encoded an int at a time.
    ``token_ids`` joins each id's text from a memo that converts each
    distinct id once; ``pack`` stores ids in an array of the tokenizer's
    unsigned typecode, so each reads back as an int, never a bool, and
    ``str`` gives the encoder's text.  ``attention_segments`` repeats what
    the spans say, so its text is built from the span lengths (``"k, "``
    once per token of span k).
    """
    encode = jsonio.jsonl_encoder()
    id_text = _IdText().__getitem__

    def line(seq: PackedSequence) -> str:
        segments = "".join(f"{k}, " * (end - start)
                           for k, (_doc_id, start, end) in enumerate(seq.segment_spans))
        return (f'{{"token_ids": [{", ".join(map(id_text, seq.token_ids))}], '
                f'"segment_spans": {encode([list(s) for s in seq.segment_spans])}, '
                f'"attention_segments": [{segments[:-2]}]}}')

    return jsonio.write_jsonl_lines(path, map(line, sequences),
                                    header=encode({"version": PACKED_FORMAT_VERSION, "max_len": max_len}))


# --- Dataset assembly and JSONL I/O --------------------------------------------


def build_instruction_dataset(pairs: Iterable[ParallelPair],
                              conversational: Iterable[InstructionExample],
                              n_translation: int = 2347,
                              n_conversational: int = 726,
                              noisy_fraction: float = 0.2,
                              rng_seed: int = 0,
                              ) -> Iterator[InstructionExample]:
    """Translation instructions, then conversational examples, one at a time.

    Every pair is read and the first ``n_translation`` become translation
    instructions; a configurable fraction of them simulates noisy
    (ASR-like) source text.  Every conversational example is then read and
    the first ``n_conversational`` are yielded.  Both inputs are read once,
    as the caller asks for examples, so each may be a generator and none is
    held.  Counts must be >= 0 and ``noisy_fraction`` in [0, 1]; the first
    request for an example checks them.
    """
    check_count("n_translation", n_translation)
    check_count("n_conversational", n_conversational)
    if not 0 <= noisy_fraction <= 1:
        raise ValueError(f"noisy_fraction must be in [0, 1], got {noisy_fraction!r}")
    rng = random.Random(rng_seed)
    for i, pair in enumerate(pairs):
        if i < n_translation:
            noisy = rng.random() < noisy_fraction
            yield make_translation_instruction(pair, noisy=noisy, rng_seed=rng_seed + i)
    for i, example in enumerate(conversational):
        if i < n_conversational:
            yield example


_encode_line = jsonio.jsonl_encoder()


def instruction_line(example: InstructionExample) -> str:
    """The ``instructions.jsonl`` line of ``example``, which
    :func:`read_instructions_jsonl` reads back."""
    return _encode_line({
        "category": example.category,
        "turns": [{"role": t.role, "text": t.text} for t in example.turns],
        "langs_involved": sorted(example.langs_involved),
    })


# The key tables (see jsonio.resolved) of a chat template file, of an
# instructions.jsonl line and of its turns.
TEMPLATE_KEYS = {f.name: (str, REQUIRED) for f in fields(ChatTemplate)}
INSTRUCTION_KEYS = {"category": (Literal[CATEGORIES], REQUIRED), "turns": (list, REQUIRED),
                    "langs_involved": (list[str], [])}
TURN_KEYS = {"role": (Literal["user", "assistant"], REQUIRED), "text": (str, REQUIRED)}


def _example(obj) -> InstructionExample:
    line = jsonio.resolved(obj, INSTRUCTION_KEYS, entries={"turns": TURN_KEYS})
    return InstructionExample(line["category"], [Turn(**turn) for turn in line["turns"]],
                              set(line["langs_involved"]))


def read_instructions_jsonl(path: str | Path) -> Iterator[InstructionExample]:
    """Each example of a JSONL file, read as the caller asks for it."""
    yield from jsonio.iter_jsonl(path, _example)
