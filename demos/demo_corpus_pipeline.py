"""Run the corpus pipeline end to end on in-memory toy data.

Clean OCR artifacts, dedup at document and paragraph granularity, align two
Bible editions into parallel pairs, back-translate with a stand-in MT
client, and assemble a weighted pretraining mixture.
"""

from savanna.corpus import (
    BibleEdition,
    MixtureSpec,
    VerseRef,
    align_bibles,
    assemble_pretraining,
    backtranslate,
    dedup,
    make_document,
)
from savanna.textnorm import clean_document


class TaggingMtClient:
    """Stand-in MT client: the "translation" is the source text tagged."""
    name = "tagging"

    def translate(self, text: str, source: str, target: str) -> str:
        return f"[{source}->{target}] {text}"


def main():
    # 1. cleaning: page numbers and recurring headers are OCR artifacts
    raw = "\n".join([
        "EKITABO KY'OLUGANDA - 12",
        "omusajja yagenda mu katale okugula emmere",
        "14",
        "EKITABO KY'OLUGANDA - 13",
        "abaana basoma ku ssomero buli nkya",
        "EKITABO KY'OLUGANDA - 14",
        "omukyala yafumba akawunga n'enva",
        "EKITABO KY'OLUGANDA - 15",
    ])
    text, report = clean_document(raw)
    print("cleaning")
    print(f"  {len(raw)} chars in, {len(text)} out, "
          f"{report.artifacts_removed} artifact lines removed")
    print("  kept:", text.replace("\n", " / "))

    # 2. dedup: the shared paragraph survives only in its first document
    shared = "ensi yonna eyagala emirembe"
    docs = [
        make_document("lug", f"{shared}\n\nekibuga kya kampala kinene", "web"),
        make_document("lug", f"{shared}\n\nenyanja nalubaale erimu ebyennyanja", "web"),
        make_document("lug", "ekibuga kya kampala kinene", "book_ocr"),
    ]
    deduped = list(dedup(docs))
    print("\ndedup")
    for doc in deduped:
        print(f"  [{doc.source}] {doc.text.replace(chr(10) + chr(10), ' / ')}")

    # 3. verse alignment across two editions
    eng = BibleEdition("eng", {
        VerseRef("Genesis", 1, 1): "In the beginning God created the heaven and the earth.",
        VerseRef("Genesis", 1, 2): "And the earth was without form, and void.",
        VerseRef("Genesis", 1, 3): "And God said, Let there be light.",
    })
    lug = BibleEdition("lug", {
        VerseRef("Genesis", 1, 1): "Ku lwokubanza Katonda yatonda eggulu n'ensi.",
        VerseRef("Genesis", 1, 3): "Katonda n'agamba nti, Wabeewo omusana.",
        VerseRef("Genesis", 1, 4): "Katonda n'alaba omusana nga mulungi.",
    })
    result = align_bibles(eng, lug)
    print("\nverse alignment")
    print(f"  {len(result.pairs)} pairs, {len(result.only_in_a)} eng-only, "
          f"{len(result.only_in_b)} lug-only")
    for pair in result.pairs:
        print(f"  {pair.doc_id}: {pair.src_text[:40]}... -> {pair.tgt_text[:40]}...")

    # 4. back-translation via the stand-in client (a live HttpMtClient drops in here)
    english = [make_document("eng", "The farmers planted maize before the rains.", "web")]
    bt = backtranslate(english, "lug", TaggingMtClient())
    print("\nback-translation")
    for doc in bt.documents:
        print(f"  synthetic [{doc.lang}] {doc.text!r} from {doc.provenance['source_doc_id']}")

    # 5. mixture assembly: web weighted 3x over book_ocr, 8 docs total
    corpus = [make_document("lug", f"web sentence number {i}", "web") for i in range(20)]
    corpus += [make_document("lug", f"book sentence number {i}", "book_ocr") for i in range(20)]
    spec = MixtureSpec(source_weights={"web": 3.0, "book_ocr": 1.0})
    sampled, manifest = assemble_pretraining(corpus, spec, seed=0, sample_size=8)
    print("\nmixture assembly (3:1 web:book, 8 docs)")
    for bucket, stats in manifest["buckets"].items():
        print(f"  {bucket}: {stats['docs_out']}/{stats['docs_in']} docs")


if __name__ == "__main__":
    main()
