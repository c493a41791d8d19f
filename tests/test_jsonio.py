import math
import re

import pytest
import requests

from savanna import jsonio
from savanna.corpus import HttpMtClient, MtClientError
from savanna.evalharness import HttpCompletionClient, TransportError


class FakeResponse:
    def __init__(self, body, status=200):
        self.body = body
        self.status = status

    def raise_for_status(self):
        if self.status >= 400:
            raise requests.HTTPError(f"{self.status} Server Error")

    def json(self):
        return self.body


class FakeSession:
    """Plays back one outcome per POST: a response, or an exception to raise."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.calls = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "json": json, "headers": headers, "timeout": timeout})
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


@pytest.fixture
def sleeps(monkeypatch):
    slept = []
    monkeypatch.setattr(jsonio.time, "sleep", slept.append)
    return slept


def completion(text):
    return FakeResponse({"choices": [{"message": {"content": text}}]})


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

    def test_write_json_is_strict(self, tmp_path):
        jsonio.write_json(tmp_path / "ok.json", {"b": 1, "a": "é"})
        assert (tmp_path / "ok.json").read_text(encoding="utf-8") == '{\n "a": "é",\n "b": 1\n}'
        with pytest.raises(ValueError):
            jsonio.write_json(tmp_path / "bad.json", {"cer": math.inf})
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ok.json"]

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
        path = tmp_path / "x.jsonl"
        path.write_text('{"a": "1e999"}\n{"a": [1e-999, 1e308]}\n{"a": [0.5, %s]}\n' % literal,
                        encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: "
                                             f"{re.escape(literal)} overflows to infinity$"):
            jsonio.read_jsonl(path)
        path = tmp_path / "x.json"
        path.write_text('{\n "a": "1e999 \\" 1e999",\n "n": 123456789012345678901234567890,\n'
                        ' "b": [1e-999, %s]\n}' % literal, encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:4: "
                                             f"{re.escape(literal)} overflows to infinity$"):
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

    def test_read_syntax_error_names_file_and_line(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text('{"a": 1}\n{"a": \n', encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: Expecting value"):
            jsonio.read_jsonl(path)
        path = tmp_path / "x.json"
        path.write_text('{\n "a": 1,\n}', encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: Expecting property name"):
            jsonio.read_json(path)


class TestHttpMtClient:
    def test_success_after_transient_failures(self, sleeps):
        session = FakeSession([requests.ConnectionError("refused"),
                               FakeResponse({}, status=503),
                               FakeResponse({"translation": "omwana"})])
        client = HttpMtClient("http://mt", session=session, backoff=0.25, timeout=5.0)
        assert client.translate("child", "eng", "lug") == "omwana"
        assert len(session.calls) == 3
        assert session.calls[0]["json"] == {"text": "child", "source": "eng", "target": "lug"}
        assert session.calls[0]["timeout"] == 5.0
        assert sleeps == [0.25, 0.5]

    def test_gives_up_after_three_attempts(self, sleeps):
        session = FakeSession([FakeResponse({}, status=500)] * 2 + [FakeResponse({"wrong": 1})]
                              + [FakeResponse({"translation": "never reached"})])
        client = HttpMtClient("http://mt", session=session)
        with pytest.raises(MtClientError,
                           match=r"^translation failed after 3 attempts: 'translation'$"):
            client.translate("child", "eng", "lug")
        assert len(session.calls) == 3
        assert len(sleeps) == 2


class TestHttpCompletionClient:
    def client(self, session, retries=2, **kwargs):
        return HttpCompletionClient("http://llm", "sunflower", timeout=7.0, retries=retries,
                                    session=session, **kwargs)

    def test_success_after_transient_failures(self, sleeps, monkeypatch):
        monkeypatch.delenv("SAVANNA_API_TOKEN", raising=False)
        session = FakeSession([requests.Timeout("slow"), completion("hello")])
        client = self.client(session, backoff=0.1)
        messages = [{"role": "user", "content": "hi"}]
        assert client.complete(messages, temperature=0.3) == "hello"
        assert session.calls[0]["json"] == {"model": "sunflower", "messages": messages,
                                            "temperature": 0.3}
        assert session.calls[0]["timeout"] == 7.0
        assert len(session.calls) == 2 and sleeps == [0.1]

    @pytest.mark.parametrize("retries", [0, 2])
    def test_gives_up_after_retries_plus_one(self, sleeps, retries):
        session = FakeSession([FakeResponse({}, status=502)] * (retries + 2))
        client = self.client(session, retries)
        with pytest.raises(TransportError,
                           match=rf"^request failed after {retries + 1} attempts: 502 Server Error$"):
            client.complete([{"role": "user", "content": "hi"}])
        assert len(session.calls) == retries + 1
        assert len(sleeps) == retries

    def test_bearer_header_only_with_token(self, monkeypatch):
        monkeypatch.delenv("SAVANNA_API_TOKEN", raising=False)
        session = FakeSession([completion("a"), completion("b")])
        client = self.client(session)
        client.complete([{"role": "user", "content": "hi"}])
        monkeypatch.setenv("SAVANNA_API_TOKEN", "s3cret")
        client.complete([{"role": "user", "content": "hi"}])
        assert session.calls[0]["headers"] == {}
        assert session.calls[1]["headers"] == {"Authorization": "Bearer s3cret"}
