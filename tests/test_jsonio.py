import io
import json
import math
import re
import tempfile
import typing
import urllib.error
import urllib.request
from pathlib import Path

import pytest
from helpers import Reply, closed_port_url, examples, serving
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import _brute_check_type

from savanna import jsonio
from savanna.cli import CONFIG_KEYS, ENTRY_KEYS
from savanna.corpus import (
    DOCUMENT_KEYS,
    PAIR_KEYS,
    HttpMtClient,
    MixtureSpec,
    MtClientError,
    read_documents_jsonl,
)
from savanna.evalharness import (
    RUN_LOG_HEADER_KEYS,
    RUN_LOG_RECORD_KEYS,
    RUN_LOG_VERSION,
    EvalSuite,
    HttpCompletionClient,
    TransportError,
    check_directions,
    rescore_run_log,
)
from savanna.instruct import INSTRUCTION_KEYS, TEMPLATE_KEYS, TURN_KEYS, VocabFileTokenizer
from savanna.jsonio import REQUIRED
from savanna.preference_loss import PAIR_LOGPS_KEYS, PairLogps


@pytest.fixture
def sleeps(monkeypatch):
    slept = []
    monkeypatch.setattr(jsonio.time, "sleep", slept.append)
    return slept


def completion(text):
    return Reply(body={"choices": [{"message": {"content": text}}]})


class TestFiles:
    def test_jsonl_roundtrip_with_header(self, tmp_path):
        path = tmp_path / "x.jsonl"
        n = jsonio.write_jsonl(path, [{"b": "Ŋ", "a": 1}, {"c": []}], header={"v": 1})
        assert n == 2
        assert path.read_text(encoding="utf-8") == '{"v": 1}\n{"b": "Ŋ", "a": 1}\n{"c": []}\n'
        path.write_text(path.read_text(encoding="utf-8") + "\n  \n", encoding="utf-8")
        header, *records = jsonio.read_jsonl(path)
        assert header == {"v": 1} and records == [{"b": "Ŋ", "a": 1}, {"c": []}]

    def test_sort_keys(self, tmp_path):
        path = tmp_path / "x.jsonl"
        jsonio.write_jsonl(path, [{"b": 1, "a": 2}], sort_keys=True)
        assert path.read_text() == '{"a": 2, "b": 1}\n'

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_write_jsonl_is_strict(self, tmp_path, bad):
        with pytest.raises(ValueError, match="not JSON compliant"):
            jsonio.write_jsonl(tmp_path / "bad.jsonl", [{"score": 0.5}, {"score": bad}])
        with pytest.raises(ValueError, match="not JSON compliant"):
            jsonio.write_jsonl(tmp_path / "bad.jsonl", [], header={"score": bad})

    def test_write_json_is_strict(self):
        # A JSON document is written as its canonical text, which refuses infinity.
        assert jsonio.dumps({"b": 1, "a": "é"}) == '{\n "a": "é",\n "b": 1\n}'
        with pytest.raises(ValueError, match="not JSON compliant"):
            jsonio.dumps({"cer": math.inf})

    def test_failed_write_leaves_target_as_it_was(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_bytes(b'{"old": 1}\n')
        records = ({"score": s} for s in (0.5, 0.25, math.nan, 0.125))
        with pytest.raises(ValueError, match="not JSON compliant"):
            jsonio.write_jsonl(path, records, header={"v": 1})
        assert path.read_bytes() == b'{"old": 1}\n'
        assert [p.name for p in tmp_path.iterdir()] == ["x.jsonl"]

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_read_rejects_non_finite_constants(self, tmp_path, constant):
        path = tmp_path / "x.jsonl"
        path.write_text('{"a": "NaN"}\n\n{"a": [1.5, %s]}\n' % constant, encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: {constant} is not valid JSON$"):
            jsonio.read_jsonl(path)
        # The line of a JSON document is found past strings that hold the
        # constant's text.
        path = tmp_path / "x.json"
        path.write_text('{\n "a": "NaN \\" Infinity",\n "b": %s\n}' % constant, encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: {constant} is not valid JSON$"):
            jsonio.read_json(path)

    @pytest.mark.parametrize("literal", ["1e999", "-1E+400", "2.5e0309", "1.0e308" + "0" * 3])
    def test_read_rejects_overflowing_numbers(self, tmp_path, literal):
        # The decoder reads a literal that overflows as an infinity, and the
        # key table of the record that holds it refuses it, naming the key.
        infinity = -math.inf if literal.startswith("-") else math.inf
        numbers = {"a": (jsonio.NUMBER, None), "s": (str, "")}
        path = tmp_path / "x.jsonl"
        path.write_text('{"s": "1e999"}\n{"a": 1e-999}\n{"a": 1e308}\n{"a": %s}\n' % literal,
                        encoding="utf-8")
        assert jsonio.read_jsonl(path)[1:] == [{"a": 0.0}, {"a": 1e308}, {"a": infinity}]
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:4: "
                                             "a must be a finite number$"):
            jsonio.read_jsonl(path, lambda obj: jsonio.resolved(obj, numbers))
        path = tmp_path / "x.json"
        path.write_text('{\n "s": "1e999 \\" 1e999",\n "a": %s\n}' % literal, encoding="utf-8")
        assert jsonio.read_json(path) == {"s": '1e999 " 1e999', "a": infinity}
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: a must be a finite number$"):
            jsonio.read_json(path, lambda obj: jsonio.resolved(obj, numbers))

    def test_read_error_without_a_position_names_the_true_line_or_the_file(self, tmp_path):
        # An int of more digits than Python converts (4,300 by default).
        digits = "1" * 5000
        path = tmp_path / "x.jsonl"
        path.write_text('{"a": 1}\n{"a": 2}\n{"a": %s}\n' % digits, encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: Exceeds the limit"):
            jsonio.read_jsonl(path)
        # A JSON document's decoder raises it with no position.
        path = tmp_path / "x.json"
        path.write_text('{\n "a": 1,\n "b": %s\n}' % digits, encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: Exceeds the limit"):
            jsonio.read_json(path)

    def test_read_keeps_numbers_that_fit(self, tmp_path):
        # Three-digit exponents that do not overflow, and the text of one in
        # a string, decode as they always did.
        path = tmp_path / "x.jsonl"
        path.write_text('{"a": [1e-999, 1.5e308, 1E+100], "s": "e999"}\n', encoding="utf-8")
        assert jsonio.read_jsonl(path) == [{"a": [0.0, 1.5e308, 1e100], "s": "e999"}]
        path = tmp_path / "x.json"
        path.write_text('{"a": [1e-999, 1.5e308], "s": "1e999"}', encoding="utf-8")
        assert jsonio.read_json(path) == {"a": [0.0, 1.5e308], "s": "1e999"}

    def test_iter_jsonl_reads_a_line_when_asked(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text('{"a": 1}\n\n{"a": 2}\n{"a": \n', encoding="utf-8")
        records = jsonio.iter_jsonl(path, lambda obj: obj["a"])
        # The records before the bad line come out before its error.
        assert next(records) == 1 and next(records) == 2
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:4: Expecting value"):
            next(records)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:1: no 'b' key$"):
            list(jsonio.iter_jsonl(path, lambda obj: obj["b"]))

    def test_read_of_bytes_not_utf8_names_file_and_line(self, tmp_path):
        # Far enough into the file that it is not in the first block decoded.
        lines = [b'{"a": "%d"}\n' % i for i in range(2000)]
        lines[1499] = b'{"a": "\xff"}\n'
        path = tmp_path / "x.jsonl"
        path.write_bytes(b"".join(lines))
        message = "'utf-8' codec can't decode byte 0xff in position 7: invalid start byte"
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:1500: {message}$"):
            jsonio.read_jsonl(path)
        path = tmp_path / "x.json"
        path.write_bytes(b'{\n "a": 1,\n "b": "\xff"\n}')
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: {message}$"):
            jsonio.read_json(path)

    def test_read_syntax_error_names_file_and_line(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text('{"a": 1}\n{"a": \n', encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: Expecting value"):
            jsonio.read_jsonl(path)
        path = tmp_path / "x.json"
        path.write_text('{\n "a": 1,\n}', encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: Expecting property name"):
            jsonio.read_json(path)


# Every kind of every key table, and each key that has an entry table,
# with its kind and that table.
TABLES = [*CONFIG_KEYS.values(), DOCUMENT_KEYS, PAIR_KEYS, INSTRUCTION_KEYS, TURN_KEYS,
          TEMPLATE_KEYS, PAIR_LOGPS_KEYS, RUN_LOG_HEADER_KEYS, RUN_LOG_RECORD_KEYS,
          *ENTRY_KEYS.values()]
KINDS = list(dict.fromkeys(kind for table in TABLES for kind, _default in table.values()))
ENTRY_KINDS = [(CONFIG_KEYS[command][key][0], key, table)
               for command in ("corpus", "report") for key, table in ENTRY_KEYS.items()
               if key in CONFIG_KEYS[command]] + [(list, "turns", TURN_KEYS)]
leaves = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
          | st.sampled_from([2 ** 1024, -(2 ** 1024), 10 ** 400, 2 ** 1023, "x"]))
json_values = st.recursive(leaves, lambda children: st.lists(children, max_size=3)
                           | st.dictionaries(st.text(max_size=2), children, max_size=3),
                           max_leaves=8)


def like(kind):
    """JSON values of ``kind``, or close to it."""
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin is list:
        return st.lists(like(args[0]), max_size=3)
    if origin is tuple:
        return st.tuples(*map(like, args)).map(list)
    if origin is typing.Literal:
        return st.sampled_from(args)
    plain = {str: st.text(max_size=3), dict: st.dictionaries(st.text(max_size=2), leaves)}
    return plain.get(kind, st.nothing()) | leaves | json_values


def entries_like(table):
    """Mappings with every key of ``table``, or some of them and an unknown
    one, of values of their kinds or close to them."""
    values = {key: like(kind) for key, (kind, _default) in table.items()}
    return (st.fixed_dictionaries(values)
            | st.fixed_dictionaries({}, optional={**values, "x": leaves}))


def number(value) -> bool:
    return _brute_check_type(value, jsonio.NUMBER)


def integer(value) -> bool:
    return _brute_check_type(value, int)


def read_file(read, *records):
    """``read`` of a file of ``records``, one a line, in which an infinity
    is written as a literal that overflows to it, such as ``1e999``."""
    text = "".join(json.dumps(record) + "\n" for record in records)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_text(text.replace("-Infinity", "-1E+400").replace("Infinity", "1e999"),
                        encoding="utf-8")
        return read(path)


DOC = {"id": "a", "lang": "lug", "text": "abc", "source": "web"}
EMPTY_SUITE = EvalSuite([], set())
LOG_HEADER = {"type": "header", "version": RUN_LOG_VERSION, "suite_hash": EMPTY_SUITE.content_hash(),
              "directions": [], "granularity": "sentence", "prompt_template": ""}
LOG_RECORD = {"id": "u", "status": "ok", "response": "x"}


def read_document(**keys):
    return read_file(read_documents_jsonl, {**DOC, **keys})


def read_run_log(*lines):
    return read_file(lambda path: rescore_run_log(path, EMPTY_SUITE), *lines)


def accepts(check) -> bool:
    try:
        check()
    except ValueError:
        return False
    return True


class TestKeyChecker:
    def test_every_kind_is_drawn(self):
        assert {str, int, jsonio.NUMBER, bool, list, dict, (str, list)} <= set(KINDS)
        assert len(KINDS) > 12  # list[str], Literals and two-tuples besides
        # The oracle takes an entry table's keys to be required.
        assert all(default is REQUIRED for _kind, _key, table in ENTRY_KINDS
                   for _kind, default in table.values())

    @settings(max_examples=examples(4))
    @given(data=st.data(), kind=st.sampled_from(KINDS))
    def test_checker_accepts_what_the_oracle_accepts(self, data, kind):
        value = data.draw(like(kind) | json_values)
        expected = _brute_check_type(value, kind)
        assert accepts(lambda: jsonio.check_type(value, kind, "k")) is expected
        # resolved skips check_type for a value of the exact type or of a Literal.
        assert accepts(lambda: jsonio.resolved({"k": value}, {"k": (kind, REQUIRED)})) is expected

    @settings(max_examples=examples(2))
    @given(data=st.data(), entry=st.sampled_from(ENTRY_KINDS))
    def test_entries_checked_against_their_table(self, data, entry):
        kind, key, table = entry
        mappings = entries_like(table)
        value = data.draw(mappings | st.lists(mappings, min_size=2, max_size=2) | json_values)
        expected = _brute_check_type(value, kind) and all(
            _brute_check_type(entry, table)
            for entry in ([value] if isinstance(value, dict) else value))
        assert accepts(lambda: jsonio.resolved({key: value}, {key: (kind, REQUIRED)},
                                               entries={key: table})) is expected

    @pytest.mark.parametrize("value, kind, expected", [
        (True, int, False), (True, jsonio.NUMBER, False), (False, bool, True), (1, bool, False),
        (math.nan, jsonio.NUMBER, False), (math.inf, jsonio.NUMBER, False),
        (-math.inf, jsonio.NUMBER, False), (2 ** 1024, jsonio.NUMBER, False),
        (2 ** 1024, int, True), (2 ** 1023, jsonio.NUMBER, True), (1.5, int, False),
        ([], tuple[str, str], False), (["a", 5], tuple[str, str], False),
        (["a", True], list[str], False), ("web", DOCUMENT_KEYS["source"][0], True),
        ("Web", DOCUMENT_KEYS["source"][0], False),
    ])
    def test_edge_values(self, value, kind, expected):
        assert _brute_check_type(value, kind) is expected
        assert accepts(lambda: jsonio.check_type(value, kind, "k")) is expected
        assert accepts(lambda: jsonio.resolved({"k": value}, {"k": (kind, REQUIRED)})) is expected

    # Each site that takes a number from outside, by name: whether it takes
    # a value, by the oracle's rule for numbers and the site's own range, and
    # a call that takes one there.  A reader's site reads the value from a
    # file, where an infinity is written as a literal that overflows to it.
    NUMBER_SITES = {
        "mixture weight": (lambda v: number(v) and v >= 0, lambda v: MixtureSpec({"web": v})),
        "log-probability": (lambda v: number(v) and v <= 0,
                            lambda v: PairLogps([-0.5, v], [-1.0], [-0.5, -0.5], [-1.0])),
        "vocabulary id": (lambda v: integer(v) and 0 <= v < 2 ** 32,
                          lambda v: VocabFileTokenizer({"say": v})),
        "max_parallel": (lambda v: integer(v) and v >= 1,
                         lambda v: check_directions(EvalSuite([], set()), [], v)),
        "document char_count": (lambda v: integer(v) and v in (0, 3),
                                lambda v: read_document(char_count=v)),
        # provenance is free-form: any value but a float that is not finite.
        "document provenance value": (lambda v: not isinstance(v, float) or number(v),
                                      lambda v: read_document(provenance={"p": v})),
        "run-log record latency_ms": (lambda v: v is None or number(v),
                                      lambda v: read_run_log(LOG_HEADER,
                                                             {**LOG_RECORD, "latency_ms": v})),
        "run-log header temperature": (lambda v: v is None or number(v),
                                       lambda v: read_run_log({**LOG_HEADER, "temperature": v})),
        "vocabulary id from a file": (lambda v: integer(v) and 0 <= v < 2 ** 32,
                                      lambda v: read_file(VocabFileTokenizer.from_file,
                                                          {"say": v})),
    }

    @settings(max_examples=examples(2))
    @given(site=st.sampled_from(sorted(NUMBER_SITES)),
           value=st.booleans() | st.integers() | st.floats() | st.text(max_size=3) | st.none()
           | st.sampled_from([10 ** 400, -(10 ** 400), math.inf, -math.inf]))
    def test_number_sites_take_what_the_rule_and_their_range_take(self, site, value):
        """Each site takes a value exactly when the oracle's rule for numbers
        and the site's range take it; it refuses any other with a
        ValueError, never an OverflowError or TypeError."""
        takes, take = self.NUMBER_SITES[site]
        assert accepts(lambda: take(value)) is takes(value)

    def test_defaults_and_nulls(self):
        keys = {"a": (str, REQUIRED), "b": (list, []), "c": (int, None),
                "d": (str, lambda out: out["a"] + "!")}
        first = jsonio.resolved({"a": "x"}, keys)
        assert first == {"a": "x", "b": [], "c": None, "d": "x!"}
        first["b"].append(1)  # a mutable default is copied for each record
        assert jsonio.resolved({"a": "x", "c": None, "d": None}, keys)["b"] == []
        for given, message in [({}, "a is required"), ({"a": None}, "a must be a string"),
                               ({"a": "x", "b": None}, "b must be a list"),
                               ({"a": "x", "bb": 1}, "bb is not a known key; did you mean b?"),
                               ([], "the record must be a mapping")]:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                jsonio.resolved(given, keys)


class TestPostJson:
    def post(self, url, attempts=3, **kwargs):
        return jsonio.post_json(url, {"q": "é"}, attempts=attempts, timeout=0.2,
                                reply=lambda body: body["a"], **kwargs)

    def test_sends_json_with_headers(self, http_server):
        http_server.script = [Reply(body={"a": "ŋ"})]
        assert self.post(http_server.url + "/v1/x", headers={"X-Key": "k"}) == "ŋ"
        [request] = http_server.requests
        assert request["path"] == "/v1/x" and request["body"] == {"q": "é"}
        assert request["headers"]["Content-Type"] == "application/json"
        assert request["headers"]["X-Key"] == "k"

    def test_rejects_non_finite_payload_before_sending(self, http_server):
        with pytest.raises(ValueError, match="not JSON compliant"):
            jsonio.post_json(http_server.url, {"t": math.nan}, attempts=3, timeout=0.2,
                             reply=lambda body: body)
        assert http_server.requests == []

    @pytest.mark.parametrize("first", [
        Reply(500), Reply(429, body={}, headers={"Retry-After": "0"}), Reply(body=b"<html>"),
        Reply(body={"b": 1}),
    ], ids=["500", "429", "not-json", "no-key"])
    def test_retries_any_failure(self, http_server, sleeps, first):
        http_server.script = [first, Reply(body={"a": "ok"})]
        assert self.post(http_server.url) == "ok"
        assert len(http_server.requests) == 2 and sleeps == [0.5]

    @pytest.mark.parametrize("reply, error", [
        (Reply(503, body={"error": "model not loaded"}),
         r'^HTTP Error 503: Service Unavailable: \{"error": "model not loaded"\}$'),
        (Reply(503, body=b""), r"^HTTP Error 503: Service Unavailable$"),
        # The first 200 bytes end inside an "é", which decodes to U+FFFD.
        (Reply(503, body=b"a" + "é".encode() * 150),
         "^HTTP Error 503: Service Unavailable: a" + "é" * 99 + "\ufffd$"),
        (Reply(body=b"<html>"), r"^Expecting value: line 1 column 1 \(char 0\)$"),
        (Reply(body={"b": 1}), r"^'a'$"),
        (Reply(body={"a": "late"}, delay=1.0), r"^timed out$"),
    ], ids=["503", "503-empty", "503-long", "not-json", "no-key", "slow"])
    def test_last_error_is_raised(self, http_server, sleeps, reply, error):
        http_server.script = [reply] * 2
        with pytest.raises(Exception, match=error):
            self.post(http_server.url, attempts=2)
        assert len(http_server.requests) == 2 and sleeps == [0.5]

    def test_unreadable_error_body_leaves_the_error_text(self, monkeypatch, sleeps):
        class Unreadable(io.BytesIO):
            def read(self, *args):
                raise ConnectionResetError("reset while reading")

        def urlopen(request, timeout):
            raise urllib.error.HTTPError(request.full_url, 503, "Service Unavailable", {}, Unreadable())

        monkeypatch.setattr(urllib.request, "urlopen", urlopen)
        with pytest.raises(urllib.error.HTTPError, match=r"^HTTP Error 503: Service Unavailable$") as raised:
            self.post("http://127.0.0.1:9/", attempts=2)
        assert raised.value.fp.closed and sleeps == [0.5]

    @pytest.mark.parametrize("status", [301, 302, 303])
    def test_redirect_carries_no_headers(self, http_server, status):
        with serving() as other:
            other.script = [Reply(body={"a": "moved"})]
            http_server.script = [Reply(status, headers={"Location": other.url + "/moved"})]
            assert self.post(http_server.url, headers={"Authorization": "Bearer k"}) == "moved"
        assert http_server.requests[0]["headers"]["Authorization"] == "Bearer k"
        [moved] = other.requests
        assert moved["path"] == "/moved" and moved["body"] is None
        assert "Authorization" not in moved["headers"]
        assert "Content-Type" not in moved["headers"]

    @pytest.mark.parametrize("status", [307, 308])
    def test_redirect_keeping_the_method_is_a_failure(self, http_server, sleeps, status):
        with serving() as other:
            http_server.script = [Reply(status, headers={"Location": other.url})] * 2
            with pytest.raises(urllib.error.HTTPError, match=f"^HTTP Error {status}: "):
                self.post(http_server.url, attempts=2)
        assert len(http_server.requests) == 2 and other.requests == []

    def test_failed_reply_is_closed(self, http_server, sleeps):
        # An HTTPError holds its reply's socket open until it is closed.
        http_server.script = [Reply(500)]
        with pytest.raises(urllib.error.HTTPError) as failed:
            self.post(http_server.url, attempts=1)
        assert failed.value.closed


class TestHttpMtClient:
    def test_success_after_transient_failures(self, http_server, sleeps):
        http_server.script = [Reply(500), Reply(503), Reply(body={"translation": "omwana"})]
        client = HttpMtClient(http_server.url, timeout=0.2)
        assert client.translate("child", "eng", "lug") == "omwana"
        assert len(http_server.requests) == 3
        assert http_server.requests[0]["body"] == {"text": "child", "source": "eng", "target": "lug"}
        assert sleeps == [0.5, 1.0]

    def test_timeout_is_retried(self, http_server, sleeps):
        http_server.script = [Reply(body={"translation": "late"}, delay=1.0),
                              Reply(body={"translation": "omwana"})]
        client = HttpMtClient(http_server.url, timeout=0.2)
        assert client.translate("child", "eng", "lug") == "omwana"
        assert len(http_server.requests) == 2 and sleeps == [0.5]

    def test_gives_up_after_three_attempts(self, http_server, sleeps):
        http_server.script = [Reply(500)] * 2 + [Reply(body={"wrong": 1}),
                                                 Reply(body={"translation": "never reached"})]
        client = HttpMtClient(http_server.url, timeout=0.2)
        with pytest.raises(MtClientError,
                           match=r"^translation failed after 3 attempts: 'translation'$"):
            client.translate("child", "eng", "lug")
        assert len(http_server.requests) == 3
        assert sleeps == [0.5, 1.0]

    def test_connection_refused(self, sleeps):
        client = HttpMtClient(closed_port_url(), timeout=0.2)
        with pytest.raises(MtClientError, match=r"^translation failed after 3 attempts: "
                                                r"<urlopen error \[Errno \d+\] Connection refused>$"):
            client.translate("child", "eng", "lug")
        assert len(sleeps) == 2


class TestHttpCompletionClient:
    def client(self, url, retries=2):
        return HttpCompletionClient(url, "sunflower", timeout=0.2, retries=retries)

    def test_success_after_transient_failures(self, http_server, sleeps, monkeypatch):
        monkeypatch.delenv("SAVANNA_API_TOKEN", raising=False)
        http_server.script = [Reply(429, body={}, headers={"Retry-After": "1"}), completion("hello")]
        client = self.client(http_server.url)
        messages = [{"role": "user", "content": "hi"}]
        assert client.complete(messages, temperature=0.3) == "hello"
        assert http_server.requests[0]["body"] == {"model": "sunflower", "messages": messages,
                                                   "temperature": 0.3}
        assert len(http_server.requests) == 2 and sleeps == [0.5]

    def test_timeout_is_retried(self, http_server, sleeps):
        http_server.script = [Reply(body={}, delay=1.0), completion("hello")]
        client = self.client(http_server.url)
        assert client.complete([{"role": "user", "content": "hi"}]) == "hello"
        assert len(http_server.requests) == 2 and sleeps == [0.5]

    @pytest.mark.parametrize("retries", [0, 2])
    def test_gives_up_after_retries_plus_one(self, http_server, sleeps, retries):
        http_server.script = [Reply(502, body={"error": "overloaded"})] * (retries + 2)
        client = self.client(http_server.url, retries)
        with pytest.raises(TransportError, match=rf"^request failed after {retries + 1} attempts: "
                                                 r'HTTP Error 502: Bad Gateway: \{"error": "overloaded"\}$'):
            client.complete([{"role": "user", "content": "hi"}])
        assert len(http_server.requests) == retries + 1
        assert sleeps == [0.5, 1.0][:retries]

    def test_bearer_header_only_with_token(self, http_server, monkeypatch):
        monkeypatch.delenv("SAVANNA_API_TOKEN", raising=False)
        http_server.script = [completion("a"), completion("b")]
        client = self.client(http_server.url)
        client.complete([{"role": "user", "content": "hi"}])
        monkeypatch.setenv("SAVANNA_API_TOKEN", "s3cret")
        client.complete([{"role": "user", "content": "hi"}])
        first, second = (r["headers"] for r in http_server.requests)
        assert "Authorization" not in first
        assert second["Authorization"] == "Bearer s3cret"
