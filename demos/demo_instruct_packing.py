"""Build instruction data, render it with a loss mask, and pack it.

Covers translation instructions (with ASR-style noise), response-only loss
masking, and first-fit sample packing with cross-document attention blocking.
"""

from savanna.corpus import ParallelPair
from savanna.instruct import (
    ByteTokenizer,
    ChatTemplate,
    batch_spec,
    make_translation_instruction,
    pack,
    render_chat,
)


def main():
    pair = ParallelPair("lug", "eng", "Omwana agenda mu kibuga.", "The child goes to town.")

    # translation instruction, clean and noisy source
    clean = make_translation_instruction(pair)
    noisy = make_translation_instruction(pair, noisy=True, rng_seed=2)
    print("translation instruction (clean)")
    print("  user:", clean.turns[0].text.splitlines()[-1])
    print("translation instruction (ASR noise)")
    print("  user:", noisy.turns[0].text.splitlines()[-1])
    print("  assistant:", clean.turns[1].text)

    # rendering: the loss mask is 1 exactly on assistant bodies
    template = ChatTemplate("<user>\n", "\n</user>\n", "<assistant>\n", "\n</assistant>\n")
    tokenizer = ByteTokenizer()
    chat = render_chat(clean, tokenizer, template)
    masked = [t for t, m in zip(chat.token_ids, chat.loss_mask) if m == 1]
    print("\nrendering")
    print(f"  {len(chat.token_ids)} tokens, {sum(chat.loss_mask)} with loss")
    print(f"  masked tokens decode to: {tokenizer.decode(masked)!r}")

    # packing: short docs share sequences, long docs split at token
    # boundaries; byte-tokenized streams are packed at 1 byte per token
    streams = [
        ("chat", chat.token_ids),
        ("short-a", tokenizer.encode("a" * 200)),
        ("long", tokenizer.encode("b" * 1100)),
        ("short-b", tokenizer.encode("c" * 60)),
    ]
    sequences = pack(streams, max_len=512)
    print("\npacking (max_len=512)")
    for i, seq in enumerate(sequences):
        spans = ", ".join(f"{doc}[{end - start}]" for doc, start, end in seq.segment_spans)
        print(f"  seq {i}: {len(seq.token_ids):>3} tokens, "
              f"{seq.token_ids.itemsize} byte(s) per token <- {spans}")
    print(f"  sequences per 32768-token batch: {batch_spec(32768, 512)}")


if __name__ == "__main__":
    main()
