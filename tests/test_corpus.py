import json
import math
import random
import re
import sys

import pytest
from helpers import StubMtClient, examples
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import brute_dedup, float_allocate

from savanna.corpus import (
    _allocate,
    AlignmentResult,
    BibleEdition,
    CorpusDocument,
    MixtureSpec,
    MtClientError,
    ParallelPair,
    VerseRef,
    align_bibles,
    assemble_pretraining,
    backtranslate,
    canonical_book,
    dedup,
    load_bible_tsv,
    make_document,
    read_documents_jsonl,
    write_documents_jsonl,
)


def doc(text, lang="lug", source="web"):
    return make_document(lang, text, source)


class TestDedup:
    def test_exact_duplicate_removed(self):
        a = doc("omwana agenda mu kibuga")
        out = list(dedup([a, doc("omwana agenda mu kibuga")]))
        assert out == [a]

    def test_shared_paragraph_removed(self):
        shared = "shared paragraph about the harvest season"
        a = doc(f"first unique paragraph\n\n{shared}\n\nanother unique one")
        b = doc(f"{shared}\n\ncompletely different closing text")
        out = list(dedup([a, b]))
        assert len(out) == 2
        assert out[0].text == a.text
        assert out[1].text == "completely different closing text"
        assert out[1].char_count == len(out[1].text)

    def test_empty_stream(self):
        assert list(dedup([])) == []

    def test_all_paragraphs_duplicated_drops_doc(self):
        a = doc("only paragraph")
        b = doc("only paragraph\n\nplus more")
        out = list(dedup([a, b]))
        assert [d.text for d in out] == ["only paragraph", "plus more"]

    def test_idempotent_on_random_corpora(self):
        rng = random.Random(7)
        paragraphs = [f"paragraph {i} " + " ".join(rng.choices("abcdefg", k=10))
                      for i in range(30)]
        docs = []
        for i in range(40):
            chosen = rng.sample(paragraphs, rng.randint(1, 4))
            docs.append(doc("\n\n".join(chosen), lang=rng.choice(["lug", "ach"])))
        once = list(dedup(docs))
        twice = list(dedup(once))
        assert [d.text for d in twice] == [d.text for d in once]

    def test_never_increases_char_count(self):
        rng = random.Random(3)
        docs = [doc(" ".join(rng.choices("xyz", k=20))) for _ in range(20)]
        out = list(dedup(docs))
        assert sum(d.char_count for d in out) <= sum(d.char_count for d in docs)
        assert len(out) <= len(docs)


# Paragraphs that are equal, or equal up to whitespace, or whose join is
# another's text, and whitespace-only ones; joined by blank-line
# separators, or by a space or newline that is no paragraph break.
_PARAGRAPH_POOL = ["omwana agenda", "omwana  agenda ", "mu kibuga", "\tmu\u00a0kibuga",
                   "omwana agenda mu kibuga", "omwana agenda\nmu kibuga", "ekinene", "   ", "\t"]
_JOINS = ["\n\n", "\n \n", "\n\t\n\n", "\n", " "]


@st.composite
def pooled_document(draw):
    paragraphs = draw(st.lists(st.sampled_from(_PARAGRAPH_POOL), min_size=1, max_size=5))
    text = paragraphs[0]
    for para in paragraphs[1:]:
        text += draw(st.sampled_from(_JOINS)) + para
    return doc(text, lang=draw(st.sampled_from(["lug", "ach"])))


@settings(max_examples=examples(3))
@given(st.lists(pooled_document(), max_size=8))
@example([doc("omwana agenda\n\nmu kibuga"), doc("omwana agenda mu kibuga")])
@example([doc("   "), doc("\t\n \n  "), doc("ekinene\n\t\n\n   \n\nekinene")])
@example([doc(" omwana agenda \n\n mu kibuga"), doc("mu kibuga\n \nomwana  agenda")])
def test_dedup_matches_oracle(docs):
    expected = [(docs[index].id, text, len(text)) for index, text in brute_dedup([d.text for d in docs])]
    assert [(d.id, d.text, d.char_count) for d in dedup(docs)] == expected


class TestDocumentModel:
    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            CorpusDocument(id="x", lang="lug", text="", source="web")

    # Only a document read from a file is outside data, so the reader checks
    # the types of its fields, not the class, which the package builds too.
    @pytest.mark.parametrize("field", ["id", "lang", "text"])
    def test_text_fields_must_be_strings(self, tmp_path, field):
        path = tmp_path / "docs.jsonl"
        # A char_count given with the text does not skip the check.
        path.write_text(json.dumps({"id": "x", "lang": "lug", "text": "t", field: 5,
                                    "source": "web", "char_count": 1}) + "\n")
        message = f"^{re.escape(str(path))}:1: {field} must be a string$"
        with pytest.raises(ValueError, match=message):
            read_documents_jsonl(path)

    def test_char_count_autofilled(self):
        d = doc("abcde")
        assert d.char_count == 5

    @pytest.mark.parametrize("char_count", [99, 11, -12])
    def test_char_count_other_than_the_text_length_rejected(self, char_count):
        with pytest.raises(ValueError, match="^char_count must be 0 or the length of text$"):
            CorpusDocument(id="x", lang="lug", text="Omwana omuto", source="web",
                           char_count=char_count)
        assert CorpusDocument(id="x", lang="lug", text="Omwana omuto", source="web",
                              char_count=12).char_count == 12

    def test_synthetic_bt_requires_provenance(self):
        with pytest.raises(ValueError, match="provenance"):
            CorpusDocument(id="x", lang="lug", text="t", source="synthetic_bt")

    def test_stable_id(self):
        assert doc("same text").id == doc("same text").id
        assert doc("same text").id != doc("other text").id

    def test_jsonl_roundtrip(self, tmp_path):
        docs = [doc("first text"), doc("second text", lang="ach", source="bible")]
        path = tmp_path / "docs.jsonl"
        assert write_documents_jsonl(docs, path) == 2
        assert read_documents_jsonl(path) == docs


class TestAlignBibles:
    def edition(self, lang, verses):
        return BibleEdition(lang=lang, verses={
            VerseRef("Genesis", 1, v): text for v, text in verses.items()
        })

    def test_intersection(self):
        a = self.edition("eng", {1: "v1", 2: "v2", 3: "v3"})
        b = self.edition("lug", {2: "w2", 3: "w3", 4: "w4"})
        result = align_bibles(a, b)
        assert [(p.src_text, p.tgt_text) for p in result.pairs] == [("v2", "w2"), ("v3", "w3")]
        assert result.only_in_a == [VerseRef("Genesis", 1, 1)]
        assert result.only_in_b == [VerseRef("Genesis", 1, 4)]

    def test_empty_side_excluded(self):
        a = self.edition("eng", {1: "x"})
        b = self.edition("lug", {1: ""})
        assert align_bibles(a, b).pairs == []

    def test_ten_verse_fixture(self):
        a = self.edition("eng", {v: f"a{v}" for v in range(1, 11)})
        b = self.edition("lug", {v: f"b{v}" for v in range(4, 14)})
        result = align_bibles(a, b)
        assert len(result.pairs) == 7
        assert len(result.only_in_a) == 3
        assert len(result.only_in_b) == 3

    def test_book_canonicalization(self):
        assert canonical_book("gen") == "Genesis"
        assert canonical_book("1 COR") == "1 Corinthians"
        assert canonical_book("Song of Songs") == "Song of Solomon"
        with pytest.raises(KeyError):
            canonical_book("gospel of thomas")

    def test_load_tsv_duplicate_key(self, tmp_path):
        path = tmp_path / "bible.tsv"
        path.write_text("gen\t1\t1\tfirst\ngenesis\t1\t1\tagain\n")
        with pytest.raises(ValueError) as info:
            load_bible_tsv(path, "eng")
        assert str(info.value) == (f"{path}:2: duplicate verse key: "
                                   "VerseRef(book='Genesis', chapter=1, verse=1)")

    @pytest.mark.parametrize("line, message", [
        ("gospel of thomas\t1\t1\tx", "unknown book name: 'gospel of thomas'"),
        ("gen\tone\t2\tx", "invalid literal for int() with base 10: 'one'"),
        ("gen\t1\t2.5\tx", "invalid literal for int() with base 10: '2.5'"),
        ("gen\t0\t1\tx", "chapter and verse must be >= 1"),
        ("gen\t1\t-1\tx", "chapter and verse must be >= 1"),
    ], ids=["unknown-book", "non-integer-chapter", "non-integer-verse", "chapter-0",
            "negative-verse"])
    def test_load_tsv_errors_name_file_and_line(self, tmp_path, line, message):
        path = tmp_path / "bible.tsv"
        path.write_text(f"gen\t1\t1\tfirst\n\n{line}\n")
        with pytest.raises(ValueError) as info:
            load_bible_tsv(path, "eng")
        assert str(info.value) == f"{path}:3: {message}"

    def test_load_tsv(self, tmp_path):
        path = tmp_path / "bible.tsv"
        path.write_text("gen\t1\t1\tIn the beginning\nexo\t2\t3\tlater on\n")
        edition = load_bible_tsv(path, "eng")
        assert edition.verses[VerseRef("Genesis", 1, 1)] == "In the beginning"
        assert edition.verses[VerseRef("Exodus", 2, 3)] == "later on"


class TestBacktranslate:
    def test_stub_client_contract(self):
        source = doc("hello world", lang="eng")
        result = backtranslate([source], "lug", StubMtClient())
        assert len(result.documents) == 1
        out = result.documents[0]
        assert out.text == "TT:hello world"
        assert out.source == "synthetic_bt"
        assert out.lang == "lug"
        assert out.provenance["source_doc_id"] == source.id
        assert result.errors == []

    def test_empty_input(self):
        result = backtranslate([], "lug", StubMtClient())
        assert result.documents == [] and result.errors == []

    def test_failure_produces_error_record(self):
        docs = [doc(f"text {i}", lang="eng") for i in range(3)]

        def fn(text, source, target):
            if text == "text 1":
                raise MtClientError("boom")
            return f"TT:{text}"

        result = backtranslate(docs, "ach", StubMtClient(fn))
        assert len(result.documents) == 2
        assert len(result.errors) == 1
        assert result.errors[0]["source_doc_id"] == docs[1].id

    def test_reproducible(self):
        docs = [doc(f"sentence {i}", lang="eng") for i in range(3)]
        first = backtranslate(docs, "lug", StubMtClient())
        second = backtranslate(docs, "lug", StubMtClient())
        assert first.documents == second.documents
        assert [d.provenance for d in first.documents] == [
            {"source_doc_id": d.id, "client": "stub"} for d in docs]

    def test_provenance_resolves_to_source(self):
        docs = [doc(f"sentence {i}", lang="eng") for i in range(5)]
        result = backtranslate(docs, "teo", StubMtClient())
        ids = {d.id for d in docs}
        for out in result.documents:
            assert out.provenance["source_doc_id"] in ids


class TestAssemblePretraining:
    def make_buckets(self):
        docs = [doc(f"web doc {i} with content", source="web") for i in range(100)]
        docs += [doc(f"book doc {i} with content", source="book_ocr") for i in range(100)]
        return docs

    def test_deterministic(self):
        docs = self.make_buckets()
        spec = MixtureSpec()
        out1, m1 = assemble_pretraining(docs, spec, seed=42, sample_size=50)
        out2, m2 = assemble_pretraining(docs, spec, seed=42, sample_size=50)
        assert [d.id for d in out1] == [d.id for d in out2]
        assert m1 == m2

    def test_zero_weight_excludes_bucket(self):
        docs = self.make_buckets()
        spec = MixtureSpec(source_weights={"web": 0.0})
        out, manifest = assemble_pretraining(docs, spec, seed=1, sample_size=40)
        assert all(d.source != "web" for d in out)
        assert manifest["buckets"]["web/lug"]["docs_out"] == 0

    def test_stratified_allocation_exact(self):
        docs = self.make_buckets()
        spec = MixtureSpec(source_weights={"web": 3.0, "book_ocr": 1.0})
        out, manifest = assemble_pretraining(docs, spec, seed=0, sample_size=40)
        assert manifest["buckets"]["web/lug"]["docs_out"] == 30
        assert manifest["buckets"]["book_ocr/lug"]["docs_out"] == 10
        assert len(out) == 40

    @pytest.mark.parametrize("weight", [-1.0, True, "2", None, float("nan"), float("inf"),
                                        pytest.param(10 ** 400, id="10**400")])
    @pytest.mark.parametrize("field", ["source_weights", "lang_weights"])
    def test_bad_weight_rejected_on_construction(self, field, weight):
        with pytest.raises(ValueError, match=rf"^{field}\.web must be a finite number >= 0"):
            MixtureSpec(**{field: {"web": weight}})

    def test_all_weights_zero_errors(self):
        docs = self.make_buckets()
        spec = MixtureSpec(source_weights={"web": 0.0, "book_ocr": 0.0})
        with pytest.raises(ValueError, match="zero"):
            assemble_pretraining(docs, spec, seed=0, sample_size=10)

    def test_negative_sample_size_rejected(self):
        # It once wrote an empty sample.
        with pytest.raises(ValueError, match="sample_size must be >= 0, got -5"):
            assemble_pretraining(self.make_buckets(), MixtureSpec(), seed=0, sample_size=-5)

    def test_allocation_caps_at_capacity(self):
        docs = [doc(f"web {i}", source="web") for i in range(5)]
        docs += [doc(f"book {i}", source="book_ocr") for i in range(100)]
        spec = MixtureSpec(source_weights={"web": 10.0, "book_ocr": 1.0})
        out, manifest = assemble_pretraining(docs, spec, seed=0, sample_size=50)
        assert manifest["buckets"]["web/lug"]["docs_out"] == 5
        assert manifest["buckets"]["book_ocr/lug"]["docs_out"] == 45

    @settings(max_examples=examples(2))
    @given(buckets=st.dictionaries(
        st.sampled_from(["web/lug", "book_ocr/lug", "web/ach", "radio_transcript/teo"]),
        st.tuples(st.floats(0, sys.float_info.max) | st.integers(0, 5), st.integers(0, 6)),
        min_size=1), sample_size=st.integers(0, 30))
    def test_allocation_agrees_with_float_arithmetic(self, buckets, sample_size):
        weights = {key: weight for key, (weight, _capacity) in buckets.items()}
        capacities = {key: capacity for key, (_weight, capacity) in buckets.items()}
        alloc = _allocate(sample_size, weights, capacities)
        # Wherever plain float arithmetic does not overflow, the allocation is its own.
        if math.isfinite(sum(weights.values()) * max(sample_size, 1)):
            assert alloc == float_allocate(sample_size, weights, capacities)
        # Where it does, the allocation still fills the sample within capacity.
        room = sum(capacities[key] for key, weight in weights.items() if weight > 0)
        assert sum(alloc.values()) == min(sample_size, room)
        assert all(0 <= alloc[key] <= capacities[key] and (weights[key] > 0 or not alloc[key])
                   for key in weights)

    def test_weights_near_the_float_limit_allocate_as_scaled(self):
        docs = self.make_buckets()
        huge = MixtureSpec(source_weights={"web": 1.5e308, "book_ocr": 5e307})
        out, manifest = assemble_pretraining(docs, huge, seed=0, sample_size=40)
        scaled, expected = assemble_pretraining(
            docs, MixtureSpec(source_weights={"web": 3.0, "book_ocr": 1.0}), seed=0,
            sample_size=40)
        assert out == scaled
        assert manifest["buckets"]["web/lug"] == {**expected["buckets"]["web/lug"],
                                                  "weight": 1.5e308}

    def test_bucket_weight_too_large_for_a_float_rejected(self):
        spec = MixtureSpec(source_weights={"web": 1e308}, lang_weights={"lug": 1e308})
        with pytest.raises(ValueError, match="^the weight of bucket web/lug, source_weights.web "
                                             "times lang_weights.lug, is too large for a float$"):
            assemble_pretraining(self.make_buckets(), spec, seed=0, sample_size=1)

    def test_bucket_weight_too_small_for_a_float_rejected(self):
        spec = MixtureSpec(source_weights={"book_ocr": 1e-200}, lang_weights={"lug": 1e-200})
        with pytest.raises(ValueError, match="^the weight of bucket book_ocr/lug, "
                                             "source_weights.book_ocr times lang_weights.lug, "
                                             "is too small for a float$"):
            assemble_pretraining(self.make_buckets(), spec, seed=0, sample_size=1)
        # A weight of zero times a small one is zero, not too small.
        spec = MixtureSpec(source_weights={"book_ocr": 0}, lang_weights={"lug": 1e-200})
        assert spec.bucket_weights([("book_ocr", "lug"), ("web", "eng")]) == {
            ("book_ocr", "lug"): 0.0, ("web", "eng"): 1.0}


class TestParallelPair:
    def test_same_lang_rejected(self):
        with pytest.raises(ValueError):
            ParallelPair("lug", "lug", "a", "b")

    def test_empty_side_rejected(self):
        with pytest.raises(ValueError):
            ParallelPair("eng", "lug", "a", "")
