import random
import tracemalloc
import weakref
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import examples, read_packed_jsonl
from oracles import brute_asr_noise, brute_pack, brute_write_packed_jsonl

from savanna import jsonio
from savanna.corpus import ParallelPair
from savanna.instruct import (
    ByteTokenizer,
    ChatExample,
    ChatTemplate,
    InstructionExample,
    Turn,
    VocabFileTokenizer,
    asr_noise,
    batch_spec,
    build_instruction_dataset,
    instruction_line,
    language_name,
    make_translation_instruction,
    pack,
    read_instructions_jsonl,
    render_chat,
    write_packed_jsonl,
)

TEMPLATE = ChatTemplate(
    user_prefix="<user>\n", user_suffix="\n</user>\n",
    assistant_prefix="<assistant>\n", assistant_suffix="\n</assistant>\n",
)


def convo(*texts):
    turns = [Turn("user" if i % 2 == 0 else "assistant", t) for i, t in enumerate(texts)]
    return InstructionExample(category="question_answering", turns=turns)


class TestConversationModel:
    def test_must_start_with_user(self):
        with pytest.raises(ValueError):
            InstructionExample("creative", [Turn("assistant", "hi")])

    def test_must_end_with_assistant(self):
        with pytest.raises(ValueError):
            convo("just a question")

    def test_alternation_enforced(self):
        with pytest.raises(ValueError):
            InstructionExample("creative", [Turn("user", "a"), Turn("user", "b")])

    def test_empty_turn_rejected(self):
        with pytest.raises(ValueError):
            convo("q", "")

    def test_unknown_category(self):
        with pytest.raises(ValueError):
            InstructionExample("poetry", [Turn("user", "a"), Turn("assistant", "b")])

    def test_valid_multi_turn(self):
        ex = convo("q1", "a1", "q2", "a2")
        assert len(ex.turns) == 4


class TestRenderChat:
    def test_mask_decodes_to_assistant_bodies(self):
        ex = convo("what is rain", "water from clouds", "thanks", "you are welcome")
        tok = ByteTokenizer()
        chat = render_chat(ex, tok, TEMPLATE)
        assert isinstance(chat.token_ids, array) and chat.token_ids.typecode == "B"
        masked = [t for t, m in zip(chat.token_ids, chat.loss_mask) if m == 1]
        assert tok.decode(masked) == "water from cloudsyou are welcome"

    def test_user_tokens_unmasked(self):
        ex = convo("secret user text", "reply")
        tok = ByteTokenizer()
        chat = render_chat(ex, tok, TEMPLATE)
        unmasked = tok.decode([t for t, m in zip(chat.token_ids, chat.loss_mask) if m == 0])
        assert "secret user text" in unmasked
        assert "reply" not in unmasked

    def test_boundaries_cover_assistant_spans(self):
        ex = convo("q", "first answer", "q2", "second answer")
        tok = ByteTokenizer()
        chat = render_chat(ex, tok, TEMPLATE)
        assert [i for i, _, _ in chat.boundaries] == [1, 3]
        for turn_idx, start, end in chat.boundaries:
            assert tok.decode(chat.token_ids[start:end]) == ex.turns[turn_idx].text
            assert all(m == 1 for m in chat.loss_mask[start:end])

    def test_empty_template_pieces_allowed(self):
        template = ChatTemplate("", " ", "", " ")
        ex = convo("hello there", "general reply")
        tok = ByteTokenizer()
        chat = render_chat(ex, tok, template)
        masked = [t for t, m in zip(chat.token_ids, chat.loss_mask) if m == 1]
        assert tok.decode(masked) == "general reply"

    @settings(max_examples=examples(1))
    @given(st.lists(st.text(alphabet="abcdef ", min_size=1).filter(str.strip),
                    min_size=2, max_size=6).map(lambda xs: xs[: len(xs) // 2 * 2]))
    def test_mask_duality_property(self, texts):
        ex = convo(*texts)
        tok = ByteTokenizer()
        chat = render_chat(ex, tok, TEMPLATE)
        masked = [t for t, m in zip(chat.token_ids, chat.loss_mask) if m == 1]
        expected = "".join(t.text for t in ex.turns if t.role == "assistant")
        assert tok.decode(masked) == expected

    def test_loss_mask_is_derived_and_read_only(self):
        chat = render_chat(convo("q", "answer"), ByteTokenizer(), TEMPLATE)
        [(_turn, start, end)] = chat.boundaries
        tail = len(chat.token_ids) - end
        assert chat.loss_mask == [0] * start + [1] * (end - start) + [0] * tail
        with pytest.raises(AttributeError):
            chat.loss_mask = [1] * len(chat.token_ids)

    @pytest.mark.parametrize("boundary", [(1, 2, 4), (1, -1, 2), (1, 2, 1)])
    def test_boundary_outside_tokens_rejected(self, boundary):
        with pytest.raises(ValueError, match="lies outside the 3 tokens"):
            ChatExample(token_ids=[1, 2, 3], boundaries=[(1, 0, 1), boundary])

    def test_template_from_file_missing_key(self, tmp_path):
        path = tmp_path / "tmpl.json"
        path.write_text('{"user_prefix": "u", "user_suffix": "v", "assistant_prefix": "a"}')
        with pytest.raises(ValueError, match="assistant_suffix"):
            ChatTemplate.from_file(path)

    @pytest.mark.parametrize("value", ["5", "null"])
    def test_template_from_file_non_string_delimiter(self, tmp_path, value):
        path = tmp_path / "tmpl.json"
        path.write_text('{"user_prefix": "u", "user_suffix": "v", "assistant_prefix": "a", '
                        f'"assistant_suffix": {value}}}')
        with pytest.raises(ValueError, match="assistant_suffix must be a string"):
            ChatTemplate.from_file(path)


class TestTokenizers:
    @settings(max_examples=examples(1.5))
    @given(st.text(max_size=60))
    def test_byte_roundtrip(self, text):
        tok = ByteTokenizer()
        assert tok.decode(tok.encode(text)) == text

    def test_both_decode_packed_ids(self):
        byte, vocab = ByteTokenizer(), VocabFileTokenizer({"omwana": 0, "agenda": 1})
        for tok, text in ((byte, "Ŋ omwana"), (vocab, "agenda omwana")):
            [seq] = pack([("doc", tok.encode(text))])
            assert tok.decode(seq.token_ids) == text

    def test_vocab_file_tokenizer(self, tmp_path):
        path = tmp_path / "vocab.json"
        path.write_text('{"omwana": 0, "agenda": 1}')
        tok = VocabFileTokenizer.from_file(path)
        assert tok.encode("agenda omwana") == array("B", [1, 0])
        with pytest.raises(ValueError):
            tok.encode("unknown")

    @pytest.mark.parametrize("vocab, token", [
        ({"a": 1, "b": 1}, "b"),
        ({"a": 0, "c": "7"}, "c"),
        ({"d": True}, "d"),
        ({"e": 2.0}, "e"),
        ({"f": -1}, "f"),
        ({"g": None}, "g"),
        ({"h": 2 ** 32}, "h"),
    ])
    def test_vocab_ids_must_be_distinct_non_negative_ints(self, vocab, token):
        with pytest.raises(ValueError, match=f"token '{token}'"):
            VocabFileTokenizer(vocab)

    @pytest.mark.parametrize("top, typecode", [
        (255, "B"), (256, "H"), (65535, "H"), (65536, "I"), (2 ** 32 - 1, "I")])
    def test_vocab_ids_take_the_smallest_typecode(self, top, typecode):
        tok = VocabFileTokenizer({"a": 0, "b": top})
        assert tok.typecode == typecode
        for text in ("a b b", ""):
            ids = tok.encode(text)
            assert ids.typecode == typecode and list(ids) == [0, top, top][:len(text.split())]
        chat = render_chat(convo("a", "b"), tok, ChatTemplate("a", "", "", "b"))
        assert chat.token_ids == array(typecode, [0, 0, top, top])
        [seq] = pack([("doc", chat.token_ids)])
        assert seq.token_ids.typecode == typecode and tok.decode(seq.token_ids) == "a a b b"

    def test_vocab_must_be_an_object(self):
        with pytest.raises(ValueError, match="vocabulary must be"):
            VocabFileTokenizer([["a", 0]])


class TestTranslationInstruction:
    def pair(self):
        return ParallelPair("lug", "eng", "omwana agenda.", "the child goes.")

    def test_prompt_wording(self):
        ex = make_translation_instruction(self.pair())
        assert ex.turns[0].text == (
            "Translate the following text from Luganda to English. "
            "Reply with only the translation.\n\nomwana agenda."
        )
        assert ex.turns[1].text == "the child goes."
        assert ex.langs_involved == {"lug", "eng"}

    def test_noisy_deterministic(self):
        a = make_translation_instruction(self.pair(), noisy=True, rng_seed=5)
        b = make_translation_instruction(self.pair(), noisy=True, rng_seed=5)
        assert a.turns[0].text == b.turns[0].text

    def test_noise_only_touches_source(self):
        ex = make_translation_instruction(self.pair(), noisy=True, rng_seed=5)
        assert ex.turns[1].text == "the child goes."

    def test_language_name_lookup(self):
        assert language_name("lug") == "Luganda"
        assert language_name("ach") == "Acholi"
        assert language_name("zzz") == "zzz"  # pass-through for unknown codes

    def test_asr_noise_drops_punctuation(self):
        out = asr_noise("a, b. c!", rate=0.0, rng=random.Random(0))
        assert out == "a b c"

    def test_asr_noise_zero_rate_identity_modulo_punct(self):
        text = "omwana agenda mu kibuga"
        assert asr_noise(text, 0.0, random.Random(1)) == text

    # Every punctuation category, letters, combining marks and controls.
    noise_text = st.text(st.characters(categories=["Pc", "Pd", "Ps", "Pe", "Pi", "Pf", "Po",
                                                   "L", "Mn", "Mc", "Me", "Cc"]),
                         max_size=40)

    @settings(deadline=None)  # max_examples from the profile
    @given(noise_text, st.sampled_from([0.0, 0.1, 0.5, 1.0]), st.integers(0, 2**32))
    def test_asr_noise_matches_oracle(self, text, rate, seed):
        # Equal RNG states afterwards mean the same draws, so the noise of
        # any text that follows is the same too.
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        assert asr_noise(text, rate, rng) == brute_asr_noise(text, rate, oracle_rng)
        assert rng.getstate() == oracle_rng.getstate()


class TestPacking:
    def streams(self, lengths):
        return [(f"doc{i}", array("I", range(n))) for i, n in enumerate(lengths)]

    def test_single_short_doc(self):
        seqs = pack(self.streams([10]), max_len=512)
        assert len(seqs) == 1
        assert seqs[0].segment_spans == [("doc0", 0, 10)]
        assert seqs[0].attention_segments == [0] * 10

    def test_first_fit_combines(self):
        seqs = pack(self.streams([300, 300, 200]), max_len=512)
        # doc1 does not fit after doc0; doc2 backfills into the first sequence
        assert len(seqs) == 2
        assert [s[0] for s in seqs[0].segment_spans] == ["doc0", "doc2"]
        assert seqs[0].attention_segments[:300] == [0] * 300
        assert seqs[0].attention_segments[300:] == [1] * 200

    def test_long_doc_split_at_boundaries(self):
        seqs = pack(self.streams([1200]), max_len=512)
        chunks = [seq.token_ids for seq in seqs]
        flat = [t for chunk in chunks for t in chunk]
        assert flat == list(range(1200))
        assert [len(c) for c in chunks[:2]] == [512, 512]

    def test_token_conservation_random(self):
        rng = random.Random(11)
        lengths = [rng.randint(1, 1500) for _ in range(200)]
        streams = self.streams(lengths)
        seqs = pack(streams, max_len=512)
        assert all(len(s.token_ids) <= 512 for s in seqs)
        # every token appears exactly once and each span is a contiguous
        # run of its document (the tail chunk may backfill an earlier
        # sequence, so cross-sequence order is not guaranteed)
        by_doc = {doc_id: [] for doc_id, _ in streams}
        for seq in seqs:
            assert len(seq.attention_segments) == len(seq.token_ids)
            for i, (doc_id, start, end) in enumerate(seq.segment_spans):
                span = list(seq.token_ids[start:end])
                assert span == list(range(span[0], span[0] + len(span)))
                by_doc[doc_id].extend(span)
                assert seq.attention_segments[start:end] == [i] * (end - start)
        for doc_id, ids in streams:
            assert sorted(by_doc[doc_id]) == list(ids)

    @staticmethod
    def packed_rows(streams, max_len):
        return [{"token_ids": list(s.token_ids), "segment_spans": s.segment_spans,
                 "attention_segments": s.attention_segments} for s in pack(streams, max_len)]

    @settings(max_examples=examples(3), deadline=None)
    @given(st.sampled_from([1, 2, 3, 7, 512]).flatmap(lambda m: st.tuples(
        st.just(m),
        # Chunks shorter than, equal to and split from documents longer
        # than 3 * max_len.
        st.lists(st.one_of(st.integers(1, 2 * m), st.just(m), st.integers(3 * m + 1, 4 * m)),
                 max_size=30))))
    def test_matches_first_fit_oracle(self, case):
        max_len, lengths = case
        streams = self.streams(lengths)
        assert self.packed_rows(streams, max_len) == brute_pack(streams, max_len)

    @settings(deadline=None)  # max_examples from the profile
    @given(st.sampled_from([4, 6, 12, 512]).flatmap(lambda m: st.tuples(
        st.just(m),
        # Many chunks of one size, or of sizes that divide max_len, so that
        # sequences fill exactly and free capacities tie across the tree.
        st.one_of(
            st.integers(1, m).flatmap(lambda n: st.lists(st.just(n), max_size=40)),
            st.lists(st.sampled_from([d for d in range(1, m + 1) if m % d == 0]
                                     + [2 * m, 3 * m]), max_size=40)))))
    def test_matches_first_fit_oracle_with_ties(self, case):
        max_len, lengths = case
        streams = self.streams(lengths)
        assert self.packed_rows(streams, max_len) == brute_pack(streams, max_len)

    def test_matches_first_fit_oracle_on_5k_streams(self):
        rng = random.Random(5)
        streams = self.streams([rng.randint(20, 700) for _ in range(5000)])
        assert self.packed_rows(streams, 512) == brute_pack(streams, 512)

    def test_inputs_neither_mutated_nor_aliased(self):
        # Whole streams shorter than max_len (doc3 backfills doc0's
        # sequence) and equal to it, and one split into chunks.
        streams = self.streams([5, 8, 20, 3])
        before = [(doc_id, array("I", ids)) for doc_id, ids in streams]
        seqs = pack(streams, max_len=8)
        assert streams == before
        packed = [list(seq.token_ids) for seq in seqs]
        for _doc_id, ids in streams:
            ids[0] = 99
            ids.append(98)
        assert [list(seq.token_ids) for seq in seqs] == packed

    @staticmethod
    @st.composite
    def chunk_counts(draw):
        """(max_len, stream lengths) whose streams split into 1, 2, 3, 2^k or
        2^k + 1 chunks in all, so the tree of free capacity doubles up to
        seven times."""
        max_len = draw(st.sampled_from([1, 2, 7, 512]))
        count = draw(st.sampled_from([1, 2, 3, 4, 5, 8, 9, 16, 17, 64, 65]))
        lengths, chunks = [], 0
        while chunks < count:
            k = draw(st.integers(1, count - chunks))  # this stream's chunks
            lengths.append((k - 1) * max_len + draw(st.integers(1, max_len)))
            chunks += k
        return max_len, lengths

    @settings(max_examples=examples(3), deadline=None)
    @given(chunk_counts())
    def test_one_pass_generator_matches_first_fit_oracle(self, case):
        max_len, lengths = case
        streams = self.streams(lengths)
        assert self.packed_rows((stream for stream in streams), max_len) == \
            brute_pack(streams, max_len)

    def test_earlier_streams_are_not_kept_alive(self):
        refs = []

        def make(k):
            stream = array("I", range(4 + k % 5 * 4))  # shorter than, equal to and split by max_len
            refs.append(weakref.ref(stream))
            return f"doc{k}", stream

        def streams():
            for k in range(20):
                assert not refs or refs[-1]() is None, f"stream {k - 1} is alive at stream {k}"
                yield make(k)  # the generator's frame keeps no reference

        seqs = pack(streams(), max_len=8)
        assert len(refs) == 20 and refs[-1]() is None
        assert sum(len(seq.token_ids) for seq in seqs) == sum(4 + k % 5 * 4 for k in range(20))

    def test_peak_memory_is_about_the_packed_tokens(self):
        rng = random.Random(3)

        def streams():
            for k in range(2000):
                yield f"doc{k}", array("I", list(rng.randbytes(rng.randint(20, 1200))))

        tracemalloc.start()
        try:
            seqs = pack(streams(), max_len=512)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(seqs) > 1000
        # All the streams held at once, besides the sequences, would make it 2x.
        assert peak < 1.25 * held

    def test_ids_take_four_bytes_each(self):
        # Sequences take the typecode of the 'I' streams.
        seqs = pack(self.streams([300, 300, 2 ** 10]), max_len=512)
        assert all(seq.token_ids.itemsize == 4 for seq in seqs)
        assert [list(seq.token_ids) for seq in seqs] == [
            list(range(300)), list(range(300)), list(range(512)), list(range(512, 1024))]

    @settings(max_examples=examples(3), deadline=None)
    @given(st.sampled_from([1, 2, 3, 7, 512]).flatmap(lambda m: st.tuples(
        st.just(m),
        st.lists(st.one_of(st.binary(min_size=1, max_size=2 * m),
                           st.binary(min_size=3 * m + 1, max_size=4 * m)),
                 max_size=30))))
    def test_byte_streams_match_first_fit_oracle(self, case):
        # Streams as the byte tokenizer makes them: whole, equal to
        # max_len and split.
        max_len, texts = case
        seqs = pack(((f"doc{i}", array("B", text)) for i, text in enumerate(texts)), max_len)
        assert all(seq.token_ids.itemsize == 1 for seq in seqs)
        rows = [{"token_ids": list(s.token_ids), "segment_spans": s.segment_spans,
                 "attention_segments": s.attention_segments} for s in seqs]
        assert rows == brute_pack([(f"doc{i}", list(text)) for i, text in enumerate(texts)],
                                  max_len)

    def test_a_million_byte_tokens_trace_under_two_bytes_each(self):
        # The byte tokenizer's array('B') streams, packed by C-level
        # copies into array('B') sequences.
        rng = random.Random(3)

        def streams():
            for k in range(1640):
                yield f"doc{k}", array("B", rng.randbytes(rng.randint(20, 1200)))

        tracemalloc.start()
        try:
            seqs = pack(streams(), max_len=512)
            _held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        tokens = sum(len(seq.token_ids) for seq in seqs)
        assert 950_000 < tokens < 1_050_000
        assert all(seq.token_ids.itemsize == 1 for seq in seqs)
        assert peak < 2 * tokens

    def test_a_million_tokens_trace_about_four_bytes_each(self):
        # As the byte test above, in 'I' streams: a list of the ids would
        # cost 8 bytes a token in pointers alone.
        rng = random.Random(3)

        def streams():
            for k in range(1640):
                yield f"doc{k}", array("I", list(rng.randbytes(rng.randint(20, 1200))))

        tracemalloc.start()
        try:
            seqs = pack(streams(), max_len=512)
            _held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        tokens = sum(len(seq.token_ids) for seq in seqs)
        assert 950_000 < tokens < 1_050_000
        assert peak < 5.5 * tokens

    def test_empty_doc_rejected(self):
        with pytest.raises(ValueError):
            pack([("empty", array("B"))])
        # Also when it arrives after streams that are already placed.
        streams = (stream for stream in self.streams([5, 600, 0, 9]))
        with pytest.raises(ValueError, match="document 'doc2' is empty after tokenization"):
            pack(streams, max_len=512)

    def test_batch_spec(self):
        assert batch_spec(32768, 512) == 64
        assert batch_spec(1024, 256) == 4
        for tokens_per_batch, max_len in ((1000, 512), (512, 0), (0, 512), (-1024, 512)):
            with pytest.raises(ValueError):
                batch_spec(tokens_per_batch, max_len)

    def test_packed_jsonl_roundtrip(self, tmp_path):
        seqs = pack(self.streams([100, 600, 50]), max_len=512)
        path = tmp_path / "packed.jsonl"
        write_packed_jsonl(seqs, path, max_len=512)
        loaded, max_len = read_packed_jsonl(path)
        assert max_len == 512
        assert loaded == seqs

    # Doc ids the JSON encoder escapes or leaves as is: quotes, backslashes,
    # controls, non-ASCII and astral text, the empty string.
    doc_ids = st.one_of(st.sampled_from(["", '"', "\\", "a\"b\\c", "\x00\x1f\x7f\n", "é\u2028ŋ",
                                         "\U0001f600"]),
                        st.text(max_size=6))

    # Ids drawn from a pool that holds 0 and ids above 65,535, so they repeat
    # within and across sequences and the writer's id-text memo both hits
    # and misses.
    pooled_ids = st.lists(st.sampled_from([0, 1, 9, 10, 255, 256, 65535, 65536, 70000, 10**9]),
                          min_size=1, max_size=40)

    @settings(max_examples=examples(3), deadline=None)
    @given(st.sampled_from([1, 2, 3, 7, 512]).flatmap(lambda m: st.tuples(
        st.just(m),
        st.lists(st.tuples(TestPacking.doc_ids, st.one_of(
            st.tuples(st.one_of(st.integers(1, 2 * m), st.just(m), st.integers(3 * m + 1, 4 * m)),
                      st.integers(0, 70000)).map(lambda c: list(range(c[1], c[1] + c[0]))),
            TestPacking.pooled_ids)),
                 max_size=20))))
    def test_packed_jsonl_matches_encoder_oracle(self, tmp_path_factory, case):
        # Runs of consecutive ids start anywhere up to 70000, so most are
        # above 255; an empty case writes the header alone.
        max_len, streams = case
        directory = tmp_path_factory.mktemp("packed")
        fast, brute = directory / "fast.jsonl", directory / "brute.jsonl"
        seqs = pack([(doc_id, array("I", ids)) for doc_id, ids in streams], max_len)
        assert write_packed_jsonl(seqs, fast, max_len=max_len) == len(seqs)
        brute_write_packed_jsonl(brute_pack(streams, max_len), brute, max_len)
        assert fast.read_bytes() == brute.read_bytes()
        assert read_packed_jsonl(fast) == (seqs, max_len)

    @pytest.mark.parametrize("row, message", [
        ('"segment_spans": [["a", 0, 2], ["b", 2, 3]], "attention_segments": [0, 1, 1]',
         "attention_segments disagree"),
        ('"segment_spans": [["a", 0, 2], ["b", 2, 3]], "attention_segments": [0, 0, 1, 1]',
         "attention_segments disagree"),
        ('"segment_spans": [["a", 0, 2], ["b", 2, 3]], "attention_segments": [0, 0]',
         "attention_segments disagree"),
        ('"segment_spans": [["a", 0, 1], ["b", 2, 3]], "attention_segments": [0, 1, 1]',
         "do not tile"),
        ('"segment_spans": [["a", 0, 2]], "attention_segments": [0, 0]', "do not tile"),
    ], ids=["wrong-values", "too-long", "too-short", "gap-between-spans", "spans-end-early"])
    def test_packed_jsonl_reader_checks_segments(self, tmp_path, row, message):
        path = tmp_path / "packed.jsonl"
        path.write_text('{"version": 1, "max_len": 8}\n'
                        '{"token_ids": [5, 6], "segment_spans": [["a", 0, 2]], '
                        '"attention_segments": [0, 0]}\n'
                        f'{{"token_ids": [7, 8, 9], {row}}}\n')
        with pytest.raises(ValueError, match=f"sequence 1: .*{message}"):
            read_packed_jsonl(path)

    def test_packed_jsonl_version_check(self, tmp_path):
        path = tmp_path / "packed.jsonl"
        path.write_text('{"version": 99, "max_len": 512}\n')
        with pytest.raises(ValueError, match="version"):
            read_packed_jsonl(path)


class TestDatasetAssembly:
    def test_counts_and_caps(self):
        pairs = [ParallelPair("lug", "eng", f"src {i}", f"tgt {i}") for i in range(10)]
        conv = [convo(f"q{i}", f"a{i}") for i in range(4)]
        examples = list(build_instruction_dataset(pairs, conv,
                                                  n_translation=6, n_conversational=3))
        assert [ex.category for ex in examples] == ["translation"] * 6 + ["question_answering"] * 3
        assert [ex.turns[1].text for ex in examples[:6]] == [f"tgt {i}" for i in range(6)]
        assert examples[6:] == conv[:3]

    def test_reads_every_input_lazily(self):
        # Each input is a generator read once, to its end, though only the
        # first n of each become examples, one as each is asked for.
        read = []

        def stream(items):
            for item in items:
                read.append(item)
                yield item

        pairs = [ParallelPair("lug", "eng", f"s{i}", f"t{i}") for i in range(5)]
        conv = [convo(f"q{i}", f"a{i}") for i in range(3)]
        examples = build_instruction_dataset(stream(pairs), stream(conv),
                                             n_translation=2, n_conversational=1)
        assert read == []
        assert next(examples).turns[1].text == "t0"
        assert read == pairs[:1]
        assert len(list(examples)) == 2
        assert read == [*pairs, *conv]

    def test_noisy_fraction_applied(self):
        pairs = [ParallelPair("lug", "eng", f"clean source {i}", f"tgt {i}")
                 for i in range(200)]
        examples = build_instruction_dataset(pairs, [], n_translation=200,
                                             noisy_fraction=1.0, rng_seed=1)
        changed = sum(1 for ex, p in zip(examples, pairs)
                      if p.src_text not in ex.turns[0].text)
        assert changed > 150  # nearly all sources perturbed at rate 1.0

    @pytest.mark.parametrize("kwargs, message", [
        ({"n_translation": -1}, "n_translation must be >= 0, got -1"),
        ({"n_conversational": -2}, "n_conversational must be >= 0, got -2"),
        ({"noisy_fraction": 1.5}, r"noisy_fraction must be in \[0, 1\], got 1.5"),
        ({"noisy_fraction": -0.1}, "noisy_fraction must be in"),
        ({"noisy_fraction": float("nan")}, "noisy_fraction must be in"),
    ], ids=["translation", "conversational", "fraction-above", "fraction-below", "fraction-nan"])
    def test_out_of_range_counts_rejected(self, kwargs, message):
        # A negative count once sliced items off the end of the inputs.
        pairs = [ParallelPair("lug", "eng", f"s{i}", f"t{i}") for i in range(3)]
        with pytest.raises(ValueError, match=message):
            next(build_instruction_dataset(pairs, [convo("q", "a")], **kwargs))

    def test_zero_counts_allowed(self):
        pairs = [ParallelPair("lug", "eng", "s", "t")]
        examples = build_instruction_dataset(pairs, [convo("q", "a")], n_translation=0,
                                             n_conversational=0, noisy_fraction=0)
        assert list(examples) == []

    def test_deterministic(self):
        pairs = [ParallelPair("lug", "eng", f"s{i}", f"t{i}") for i in range(30)]
        a = build_instruction_dataset(pairs, [], n_translation=30, rng_seed=7)
        b = build_instruction_dataset(pairs, [], n_translation=30, rng_seed=7)
        assert [ex.turns[0].text for ex in a] == [ex.turns[0].text for ex in b]

    def test_instructions_jsonl_roundtrip(self, tmp_path):
        examples = [convo("q", "a"), make_translation_instruction(
            ParallelPair("lug", "eng", "omwana", "child"))]
        path = tmp_path / "inst.jsonl"
        jsonio.write_jsonl_lines(path, map(instruction_line, examples))
        loaded = list(read_instructions_jsonl(path))
        assert len(loaded) == 2
        assert loaded[0].turns[0].text == "q"
        assert loaded[1].category == "translation"
        assert loaded[1].langs_involved == {"lug", "eng"}

    def test_instruction_line_is_the_encoders_text(self):
        example = make_translation_instruction(ParallelPair("lug", "eng", "omwana", "child"))
        assert instruction_line(example) == jsonio.jsonl_encoder()({
            "category": "translation",
            "turns": [{"role": "user", "text": example.turns[0].text},
                      {"role": "assistant", "text": "child"}],
            "langs_involved": ["eng", "lug"]})
