"""The package's one path for JSON files, JSONL files and JSON-over-HTTP calls.

JSONL files hold one record per line, UTF-8 as is, with an optional header
line first.  JSON documents (reports, manifests, audits) are canonical:
sorted keys and one-space indent.  Both are strict JSON, so never ``NaN``
or ``Infinity``: writing either raises ValueError, and so does reading one.
The decoder refuses only those constants.  RFC 8259 (section 9) leaves a
number's range to the reader, so a literal such as ``1e999`` decodes to
infinity, and the key table of the record that holds it refuses it: each
record read, like each CLI config, is checked against its key table by
:func:`resolved`.  A failed write leaves the target file as it was.

HTTP goes through the standard library's ``urllib.request``, imported
inside :func:`post_json`: only a live endpoint or back-translation pays for
the HTTP stack, and every offline command runs without it.
"""

from __future__ import annotations

import contextlib
import difflib
import json
import math
import os
import re
import time
import typing
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, NoReturn


def jsonl_encoder(sort_keys: bool = False) -> Callable[[Any], str]:
    """The encoder of a JSONL line: UTF-8 as is, and strict, so it raises
    ValueError on NaN or infinity."""
    return json.JSONEncoder(ensure_ascii=False, sort_keys=sort_keys, allow_nan=False).encode


def write_jsonl(path: str | Path, records: Iterable[Any], header: Any = None,
                sort_keys: bool = False) -> int:
    """Write ``records`` one per line after an optional ``header`` line;
    returns the number of records, not counting the header."""
    encode = jsonl_encoder(sort_keys)
    return write_jsonl_lines(path, map(encode, records),
                             header=None if header is None else encode(header))


def write_jsonl_lines(path: str | Path, lines: Iterable[str], header: str | None = None) -> int:
    """Write JSONL ``lines`` already encoded (each one JSON text, as
    ``jsonl_encoder`` makes it) after an optional ``header`` line; returns
    the number of lines, not counting the header."""
    n = 0
    with _replacing(path) as f:
        if header is not None:
            f.write(header + "\n")
        for line in lines:
            f.write(line + "\n")
            n += 1
    return n


@contextlib.contextmanager
def _replacing(path: str | Path):
    """A UTF-8 text file open for writing beside ``path``, moved onto it on
    success, deleted on failure."""
    tmp = Path(f"{path}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class _Constant(ValueError):
    """The error of a NaN or Infinity constant, which holds no position."""


def _reject_constant(name: str) -> NoReturn:
    raise _Constant(f"{name} is not valid JSON")


# One decoder for every read: passing parse_constant to json.loads would
# build a new decoder per call.
_decode = json.JSONDecoder(parse_constant=_reject_constant).decode

# A JSON string, or (group 1) a constant outside any string.
_STRING_OR_CONSTANT = re.compile(r'"(?:[^"\\]|\\.)*"|(NaN|Infinity)')


def _first_constant(text: str) -> int:
    """Offset of the first NaN or Infinity constant outside a string: the
    value the decoder raised on."""
    return next(m.start(1) for m in _STRING_OR_CONSTANT.finditer(text) if m.group(1))


def iter_jsonl(path: str | Path, record: Callable[[Any], Any] | None = None) -> Iterator:
    """Each non-blank line of a JSONL file, decoded and passed through
    ``record`` when it is given, read as the caller asks for it; a header
    line, if the format has one, comes first.  A line that is not strict
    JSON, so holds ``NaN`` or ``Infinity``, or that makes ``record`` raise a
    TypeError, KeyError or ValueError raises ValueError naming the file and
    line, and so does a line that is not UTF-8.  ``record`` checks the range
    of each number: a literal that overflows decodes to infinity."""
    with open(path, encoding="utf-8") as f, naming_bad_utf8(path):
        for lineno, line in enumerate(f, start=1):
            if line.strip():
                try:
                    obj = _decode(line)
                    obj = obj if record is None else record(obj)
                except (TypeError, KeyError, ValueError) as exc:
                    detail = f"no {exc} key" if isinstance(exc, KeyError) else exc
                    raise ValueError(f"{path}:{lineno}: {detail}") from None
                yield obj


@contextlib.contextmanager
def naming_bad_utf8(path: str | Path):
    """A block that reads ``path`` as UTF-8, in which a UnicodeDecodeError
    becomes :func:`not_utf8`'s ValueError naming the file and line."""
    try:
        yield
    except UnicodeDecodeError:
        not_utf8(path)


def not_utf8(path: str | Path) -> NoReturn:
    """Raise a ValueError naming the first line of ``path`` that is not
    UTF-8.  A reader decodes a file a block at a time, so the line is found
    by decoding it again a line at a time."""
    with open(path, "rb") as f:
        for lineno, line in enumerate(f, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    raise ValueError(f"{path}: not UTF-8")  # reached if it changed since it was read


def read_jsonl(path: str | Path, record: Callable[[Any], Any] | None = None) -> list:
    """Every record of :func:`iter_jsonl`, in a list."""
    return list(iter_jsonl(path, record))


def read_json(path: str | Path, record: Callable[[Any], Any] | None = None) -> Any:
    """The decoded JSON document in ``path``, passed through ``record`` when
    it is given, which checks the range of each number as in
    :func:`iter_jsonl`.  A ValueError for text that is not strict JSON, so
    holds ``NaN`` or ``Infinity``, or is not UTF-8 names the file and line;
    one that ``record`` raises, or the decoder with no position (an int of
    too many digits), names the file."""
    with naming_bad_utf8(path):
        text = Path(path).read_text(encoding="utf-8")
    try:
        obj = _decode(text)
        return obj if record is None else record(obj)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}: {exc}") from None
    except _Constant as exc:
        # A rejected constant has no position: it is the first one outside a string.
        lineno = text.count("\n", 0, _first_constant(text)) + 1
        raise ValueError(f"{path}:{lineno}: {exc}") from None
    except ValueError as exc:  # of record, or with no position, as of an int of too many digits
        raise ValueError(f"{path}: {exc}") from None


REQUIRED = object()  # the default of a key that has none
NUMBER = (int, float)

# The end of the error of a value not of each kind but list[...] and Literal.
TYPE_NAMES = {str: "a string", int: "an integer", NUMBER: "a finite number", bool: "true or false",
              list: "a list", dict: "a mapping", (str, list): "a string or a list",
              tuple[str, str]: "a list of two strings",
              tuple[dict, dict]: "a list of two editions, {lang, path} each, the source first"}


def check_type(value, kind, name: str) -> None:
    """Raise a ValueError unless ``value`` is of ``kind`` (see :func:`resolved`);
    it names an element of a list by its index, such as ``inputs[0]``."""
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin is list:
        check_type(value, list, name)
        for i, item in enumerate(value):
            if type(item) is not args[0]:  # as in resolved
                check_type(item, args[0], f"{name}[{i}]")
    elif origin is typing.Literal:  # a closed set of strings
        if value not in args:
            *others, last = args
            raise ValueError(f"{name} must be {', '.join(others)} or {last}, got {value!r}")
    elif origin is tuple:
        if not (isinstance(value, list) and len(value) == len(args)
                and all(map(isinstance, value, args))):
            raise ValueError(f"{name} must be {TYPE_NAMES[kind]}")
    elif not (is_number(value, kind) if kind in (int, NUMBER) else isinstance(value, kind)):
        raise ValueError(f"{name} must be {TYPE_NAMES[kind]}")


def is_number(value, kind=NUMBER) -> bool:
    """Whether ``value`` is a number of ``kind``, ``int`` or ``NUMBER``: the
    package's one rule for numbers.  isinstance(True, int) holds, but true
    is not a number here.  Nor, as a ``NUMBER``, are YAML's .nan and .inf,
    which no output file could hold, or an integer too large for a float."""
    if isinstance(value, bool) or not isinstance(value, kind):
        return False
    try:
        return kind is int or math.isfinite(value)
    except OverflowError:  # an int that no float can hold
        return False


def resolved(given, keys: dict, where: str = "", entries: dict | None = None) -> dict:
    """``given`` checked against the key table ``keys``, with defaults filled
    in, and each mapping of a key of ``entries``, alone or in a list,
    against that key's table.  A ValueError names the key after ``where``.

    A key table maps each key to ``(kind, default)``.  A kind is a type,
    ``NUMBER``, ``(str, list)``, ``list[kind]``, ``tuple[kind, kind]`` (a
    list of two) or a ``Literal``.  A callable default is computed from the
    keys before it, and also taken by a null value.  A key whose default is
    None may be null."""
    if not isinstance(given, dict):
        raise ValueError(f"{where.rstrip('.') or 'the record'} must be a mapping")
    if not given.keys() <= keys.keys():
        key = next(key for key in given if key not in keys)
        close = difflib.get_close_matches(str(key), keys, n=1)
        raise ValueError(f"{where}{key} is not a known key" + "".join(
            f"; did you mean {match}?" for match in close))
    out = {}
    for key, (kind, default) in keys.items():
        value = given.get(key)
        # A value of its exact type, or one of a Literal's values, passes
        # without check_type, which costs far more.
        if type(value) is not kind:
            if value is None and (key not in given or callable(default)):
                if default is REQUIRED:
                    raise ValueError(f"{where}{key} is required")
                value = (default(out) if callable(default) else
                         default.copy() if isinstance(default, (dict, list)) else default)
            elif not (value is None and default is None
                      or value in getattr(kind, "__args__", ())):
                check_type(value, kind, f"{where}{key}")
        out[key] = value
        if entries and value is not None and key in entries:
            many = isinstance(value, list)
            for i, entry in enumerate(value if many else [value]):
                resolved(entry, entries[key], f"{where}{key}{f'[{i}]' if many else ''}.", entries)
    return out


def dumps(obj: Any) -> str:
    """Canonical JSON text of ``obj``; raises ValueError on NaN or infinity."""
    return json.dumps(obj, indent=1, sort_keys=True, ensure_ascii=False, allow_nan=False)


BACKOFF = 0.5  # seconds slept after the first failed try of a POST


def post_json(url: str, payload: Any, *, attempts: int, timeout: float,
              reply: Callable[[Any], Any], headers: dict | None = None) -> Any:
    """POST ``payload`` as JSON and return ``reply(decoded response body)``.

    Any failure (transport, HTTP status, or a body ``reply`` cannot read) is
    retried, up to ``attempts`` tries in all, sleeping ``BACKOFF * 2**i``
    after the i-th failed try.  The last try's error is re-raised; an HTTP
    status error's text ends with the first 200 bytes of the reply body.
    """
    # Imported here, not with the module: urllib.request brings http.client,
    # ssl and email, about 31 modules that no offline command needs.
    import http.client
    import urllib.request

    request = urllib.request.Request(url, json.dumps(payload, allow_nan=False).encode())
    # Unredirected, or urllib would copy a bearer token to any host a 30x names.
    for name, value in {"Content-Type": "application/json", **(headers or {})}.items():
        request.add_unredirected_header(name, value)
    for attempt in range(attempts):
        try:
            with urllib.request.urlopen(request, timeout=timeout) as resp:
                return reply(json.loads(resp.read()))
        except Exception as exc:
            if isinstance(exc, urllib.request.HTTPError):
                # The error is the failed reply, and holds it open.  The start
                # of its body, if it can be read, ends the error's text.
                with contextlib.suppress(OSError, ValueError, http.client.HTTPException), exc:
                    if head := exc.read(200):
                        exc.msg = f"{exc.msg}: {head.decode('utf-8', errors='replace')}"
            if attempt == attempts - 1:
                raise
            time.sleep(BACKOFF * (2 ** attempt))
