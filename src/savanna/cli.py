"""Command-line entry point wiring the toolkit into reproducible pipelines.

Each ``cmd_*`` function reads and checks every input and encodes each
output that needs no endpoint reply, then returns the step that runs once
the output directory is locked: endpoint requests and the writes, all
into ``.savanna-staging/``.  ``main`` renames each staged file into place
and removes each other file of the command's ``OUTPUTS``, so a run that
fails or is interrupted before then leaves the earlier run's files as they
were.  The lock is the kernel's (``flock``), so a killed run leaves its
directory unlocked, and the next run removes what it staged.  Every
resolved key is written to ``resolved_config.yaml``, which ``--config``
takes back.  Secrets are read from environment variables only
(``SAVANNA_API_TOKEN``)."""

from __future__ import annotations

import argparse
import contextlib
import fcntl
import json
import os
import shutil
import sys
import typing
from pathlib import Path

import yaml

from . import corpus as corpus_mod
from . import evalharness, instruct, jsonio, leaderboard, preference_loss
from .jsonio import NUMBER, REQUIRED


class CliError(Exception):
    pass


@contextlib.contextmanager
def _locked_output_dir(out: Path):
    """Hold the flock of ``out/.savanna.lock``, which the kernel releases
    when this process ends, however it ends.  The file names the holder's
    PID for the error of a run that finds it held, and is removed at the end."""
    out.mkdir(parents=True, exist_ok=True)
    lock = out / ".savanna.lock"
    while True:
        with open(lock, "a+", encoding="ascii", errors="replace") as f:
            try:
                fcntl.flock(f, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                f.seek(0)
                pid = f.read(20)
                holder = f" (pid {pid})" if pid.isdecimal() else ""
                raise CliError(f"output directory is locked by another run{holder}: "
                               f"{lock}") from None
            try:  # an ending run unlinks its file, maybe after this one opened it
                if not os.path.samestat(os.fstat(f.fileno()), os.stat(lock)):
                    continue
            except FileNotFoundError:
                continue
            f.truncate(0)
            f.write(str(os.getpid()))
            f.flush()
            try:
                yield out
            finally:
                lock.unlink(missing_ok=True)
            return


# Each command's key table (see jsonio.resolved) besides ``seed`` and ``out``.
CONFIG_KEYS = {
    "corpus": {"inputs": (list[str], REQUIRED), "bible": (tuple[dict, dict], None),
               "backtranslate": (dict, None), "source_weights": (dict, {}),
               "lang_weights": (dict, {}), "sample_size": (int, None)},
    "instruct": {"parallel": (str, REQUIRED), "conversational": (str, None),
                 "tokenizer_vocab": (str, None), "template": (str, None), "max_len": (int, 512),
                 "tokens_per_batch": (int, 32768), "n_translation": (int, 2347),
                 "n_conversational": (int, 726), "noisy_fraction": (NUMBER, 0.2)},
    "eval": {"suite": (str, REQUIRED), "rescore": (str, None), "endpoint": (str, None),
             "directions": ((str, list), None),
             "granularity": (typing.Literal[evalharness.GRANULARITIES], "sentence"),
             "full_suite": (bool, True), "max_parallel": (int, 1), "temperature": (NUMBER, 0.0),
             "model": (str, lambda config: config["endpoint"]), "timeout": (NUMBER, 60.0),
             "retries": (int, 2)},
    "report": {"tables": (list, []), "runs": (list, []), "winner_models": (list[str], None),
               "use_published_reference": (bool, lambda config: not config["tables"])},
    "loss": {"pairs": (str, REQUIRED), "beta": (NUMBER, 0.1), "alpha_rpo": (NUMBER, 1.0)},
}

# The keys of ``backtranslate`` and of each entry of ``bible``, ``runs`` and
# ``tables``.
ENTRY_KEYS = {
    "backtranslate": {"endpoint": (str, REQUIRED), "targets": (list[str], REQUIRED)},
    "bible": {"lang": (str, REQUIRED), "path": (str, REQUIRED)},
    "runs": {"model": (str, REQUIRED), "suite": (str, REQUIRED), "run_log": (str, REQUIRED)},
    "tables": {"path": (str, REQUIRED),
               "direction": (typing.Literal[leaderboard.DIRECTIONS], REQUIRED),
               "metric": (typing.Literal[leaderboard.METRICS], REQUIRED)},
}


# Each command's output files besides resolved_config.yaml.  Its run writes
# each file it produces into the staging directory it is given, and returns
# the error to report once they are in place, or None.
OUTPUTS = {
    "corpus": ("documents.jsonl", "pairs.jsonl", "manifest.json"),
    "instruct": ("instructions.jsonl", "packed.jsonl", "manifest.json"),
    "eval": ("run_log.jsonl", "report.json"),
    "report": leaderboard.REPORT_FILES,
    "loss": ("loss_audit.json",),
}


def resolve_config(args: argparse.Namespace) -> dict:
    """The YAML file of ``--config`` with each flag set over the key of its
    name and the defaults filled in, checked before any output is made."""
    given = {}
    if args.config:
        with open(args.config, encoding="utf-8") as f, jsonio.naming_bad_utf8(args.config):
            try:
                given = yaml.safe_load(f) or {}
            except yaml.YAMLError as exc:
                raise CliError(f"{args.config} is not valid YAML: {exc}") from None
    if not isinstance(given, dict):
        raise CliError("the config must be a mapping")
    given.update((key, value) for key, value in vars(args).items()
                 if key not in ("command", "config") and value is not None)
    try:
        return jsonio.resolved(given, {"seed": (int, 0), "out": (str, f"{args.command}_out"),
                                       **CONFIG_KEYS[args.command]}, entries=ENTRY_KEYS)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def cmd_corpus(config: dict) -> typing.Callable[[Path], str | None]:
    bible, bt = config["bible"], config["backtranslate"]
    if bible is not None and bible[0]["lang"] == bible[1]["lang"]:
        raise CliError(f"bible editions must be in two languages, not lang "
                       f"{bible[0]['lang']!r} and lang {bible[1]['lang']!r}")
    spec = corpus_mod.MixtureSpec(config["source_weights"], config["lang_weights"])
    corpus_mod.check_count("sample_size", config["sample_size"])
    docs = []
    for path in config["inputs"]:
        docs.extend(corpus_mod.read_documents_jsonl(path))
    if bible is not None:
        aligned = corpus_mod.align_bibles(
            *(corpus_mod.load_bible_tsv(e["path"], e["lang"]) for e in bible))
    client = corpus_mod.HttpMtClient(bt["endpoint"]) if bt else None

    chars_in = sum(len(d.text) for d in docs)
    cleaned, clean_stats = corpus_mod.clean_documents(docs)
    deduped = list(corpus_mod.dedup(cleaned))
    english = [d for d in deduped if d.lang == "eng"]
    buckets = {(d.source, d.lang) for d in deduped}
    if bt and english:  # the synthetic_bt buckets back-translation adds
        buckets |= {("synthetic_bt", target) for target in bt["targets"]}
    spec.bucket_weights(buckets)  # all zero fails here, before the output directory is made

    def run(out: Path) -> None:
        errors = []
        if bt:
            for target in bt["targets"]:
                result = corpus_mod.backtranslate(english, target, client)
                deduped.extend(result.documents)
                errors.extend(result.errors)
        sampled, manifest = corpus_mod.assemble_pretraining(
            deduped, spec, config["seed"], sample_size=config["sample_size"])

        corpus_mod.write_documents_jsonl(sampled, out / "documents.jsonl")
        if bible is not None:
            corpus_mod.write_pairs_jsonl(aligned.pairs, out / "pairs.jsonl")
            manifest["bible"] = {"pairs": len(aligned.pairs), "only_in_src": len(aligned.only_in_a),
                                 "only_in_tgt": len(aligned.only_in_b)}
        manifest["chars_in"] = chars_in
        manifest["chars_out"] = sum(d.char_count for d in sampled)
        manifest["reduction_ratio"] = (manifest["chars_out"] / chars_in) if chars_in else 0.0
        manifest["cleaning"] = clean_stats
        manifest["backtranslation_errors"] = errors
        (out / "manifest.json").write_text(jsonio.dumps(manifest), encoding="utf-8")
    return run


def cmd_instruct(config: dict) -> typing.Callable[[Path], str | None]:
    max_len = config["max_len"]
    sequences_per_batch = instruct.batch_spec(config["tokens_per_batch"], max_len)
    if config["tokenizer_vocab"]:
        tokenizer = instruct.VocabFileTokenizer.from_file(config["tokenizer_vocab"])
    else:
        tokenizer = instruct.ByteTokenizer()
    if config["template"]:
        template = instruct.ChatTemplate.from_file(config["template"])
    else:
        template = instruct.ChatTemplate("<user>", "</user>", "<assistant>", "</assistant>")
    # The input record the example being built, rendered and packed comes
    # from, as "<file>: pair <n>" or "<file>: example <n>" (blank lines
    # not counted); None while the next record is read, whose errors name
    # their own line.
    source = None

    def numbered(records, path, noun):
        nonlocal source
        for number, record in enumerate(records, start=1):
            source = f"{path}: {noun} {number}"
            yield record
            source = None

    conversational = ()
    if config["conversational"]:
        conversational = numbered(instruct.read_instructions_jsonl(config["conversational"]),
                                  config["conversational"], "example")
    examples = instruct.build_instruction_dataset(
        numbered(corpus_mod.read_pairs_jsonl(config["parallel"]), config["parallel"], "pair"),
        conversational,
        n_translation=config["n_translation"],
        n_conversational=config["n_conversational"],
        noisy_fraction=config["noisy_fraction"],
        rng_seed=config["seed"],
    )
    # One lazy chain: each input line is read and checked, and each example
    # built, encoded as its line, counted and rendered as pack reaches it.
    # Only the lines and the packed sequences are held.
    lines: list[str] = []
    counts = dict.fromkeys(instruct.CATEGORIES, 0)

    def streams():
        for i, example in enumerate(examples):
            lines.append(instruct.instruction_line(example))
            counts[example.category] += 1
            yield f"ex{i}", instruct.render_chat(example, tokenizer, template).token_ids
    try:
        packed = instruct.pack(streams(), max_len=max_len)
    except ValueError as exc:
        if source is None:
            raise
        raise ValueError(f"{source}: {exc}") from None
    manifest = jsonio.dumps({
        "category_counts": counts,
        "examples": len(lines),
        "packed_sequences": len(packed),
        "sequences_per_batch": sequences_per_batch,
    })

    def run(out: Path) -> None:
        jsonio.write_jsonl_lines(out / "instructions.jsonl", lines)
        instruct.write_packed_jsonl(packed, out / "packed.jsonl", max_len=max_len)
        (out / "manifest.json").write_text(manifest, encoding="utf-8")
    return run


def cmd_eval(config: dict) -> typing.Callable[[Path], str | None]:
    if not config["rescore"]:
        for key in ("endpoint", "directions"):
            if config[key] is None:
                raise CliError(f"{key} is required unless rescore is set")
        if config["endpoint"].startswith("stub:") and config["endpoint"] != "stub:echo":
            raise CliError(f"unknown stub endpoint: {config['endpoint']}")
        directions = _parse_directions(config["directions"])
    suite = evalharness.load_suite(config["suite"])
    suite.validate(full=config["full_suite"])

    if config["rescore"]:
        rescored = evalharness.rescore_run_log(config["rescore"], suite)
        text = rescored.to_json()

        def copy(out: Path) -> str | None:
            # The log goes with its report, byte for byte, as what the report scores.
            shutil.copyfile(config["rescore"], out / "run_log.jsonl")
            return _write_report(out, rescored, text)
        return copy
    evalharness.check_directions(suite, directions, config["max_parallel"])
    # stub:echo replies with the reference, in process: tests, demos and
    # the offline echo pipeline use it.  Anything else is a live endpoint.
    if config["endpoint"] == "stub:echo":
        client = evalharness.ReferenceEchoClient(suite)
    else:
        client = evalharness.HttpCompletionClient(
            config["endpoint"], config["model"], timeout=config["timeout"],
            retries=config["retries"])

    def run(out: Path) -> str | None:
        try:
            report = evalharness.run_translation_eval(
                suite, client, directions,
                granularity=config["granularity"],
                run_log_path=out / "run_log.jsonl",
                max_parallel=config["max_parallel"],
                temperature=config["temperature"],
            )
        except evalharness.ScoringError as exc:  # the run log is written, with no report
            return str(exc)
        return _write_report(out, report, report.to_json())
    return run


def _write_report(out: Path, report: evalharness.EvalRunReport, text: str) -> str | None:
    """Write ``text``, the encoded ``report``, as report.json; return an invalid run's error."""
    (out / "report.json").write_text(text, encoding="utf-8")
    return (f"run invalid: {report.total_failed}/{report.total_items} items failed"
            if report.invalid else None)


def cmd_report(config: dict) -> typing.Callable[[Path], str | None]:
    data = (leaderboard.published_reference_data() if config["use_published_reference"]
            else leaderboard.LeaderboardData())
    for table in config["tables"]:
        leaderboard.load_score_csv(data, Path(table["path"]),
                                   table["direction"], table["metric"])
    first = {}  # each setting the runs must share: (model of the first run, its value)
    for i, entry in enumerate(config["runs"]):
        model = entry["model"]
        if model in data.scores:  # its run's scores would merge into the earlier ones
            raise CliError(f"runs[{i}].model {model!r} already has scores")
        scored = evalharness.rescore_run_log(entry["run_log"],
                                             evalharness.load_suite(entry["suite"]))
        if scored.invalid:
            raise CliError(f"run of {model} invalid: "
                           f"{scored.total_failed}/{scored.total_items} items failed")
        for key in ("granularity", "prompt_hash"):
            other, value = first.setdefault(key, (model, getattr(scored, key)))
            if getattr(scored, key) != value:
                raise CliError(f"runs disagree on {key}: {other} has {value}, "
                               f"{model} has {getattr(scored, key)}")
        leaderboard.add_run_report(data, model, scored)

    report = leaderboard.make_leaderboard(data, config["winner_models"])

    def run(out: Path) -> None:
        for name, text in report.items():
            (out / name).write_text(text, encoding="utf-8")
    return run


def cmd_loss(config: dict) -> typing.Callable[[Path], str | None]:
    params = preference_loss.LossParams(
        beta=config["beta"],
        alpha_rpo=config["alpha_rpo"],
    )
    # The pairs stream from the file, so one is held at a time; the audit
    # still reads every line, a malformed one too, before the lock.
    try:
        audit = preference_loss.audit_pairs(
            preference_loss.read_pair_logps_jsonl(config["pairs"]), params)
    except preference_loss.AuditError as exc:
        raise ValueError(f"{config['pairs']}: {exc}") from None
    text = jsonio.dumps(audit)

    def run(out: Path) -> None:
        print(f"pairs: {len(audit['pairs'])}  "
              f"mean dpo: {audit['mean_dpo_loss']:.6f}  "
              f"mean irpo: {audit['mean_irpo_loss']:.6f}")
        (out / "loss_audit.json").write_text(text, encoding="utf-8")
    return run


def _parse_directions(raw) -> list[tuple[str, str]]:
    if isinstance(raw, str):
        raw = [d for d in raw.split(",") if d]
    directions = []
    for item in raw:
        src, _, tgt = str(item).partition("-")
        if not src or not tgt:
            raise CliError(f"bad direction: {item!r}")
        directions.append((src, tgt))
    if not directions:
        raise CliError("directions must name at least one src-tgt pair")
    return directions


# Each command's function and help line.
COMMANDS = {
    "corpus": (cmd_corpus, "clean, dedup and assemble pretraining text"),
    "instruct": (cmd_instruct, "build instruction data, render and pack"),
    "eval": (cmd_eval, "run translation evaluation"),
    "report": (cmd_report, "leaderboards and chart CSVs"),
    "loss": (cmd_loss, "audit DPO/IRPO losses, streaming a JSONL file"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="savanna",
                                     description="Corpus and MT-evaluation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_run, help_text) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="YAML config file")
        p.add_argument("--seed", type=int)
        p.add_argument("--out", help="output directory")
    # Every flag but --config sets the config key of its name.
    p_eval, p_loss = sub.choices["eval"], sub.choices["loss"]
    p_eval.add_argument("--suite", help="suite CSV/TSV path")
    p_eval.add_argument("--endpoint", help="chat-completions base URL (or stub:echo)")
    p_eval.add_argument("--directions", help="comma-separated src-tgt pairs")
    p_eval.add_argument("--granularity", help="sentence or document")
    p_eval.add_argument("--rescore", help="re-score a persisted run log offline")
    p_loss.add_argument("--pairs", help="PairLogps JSONL path, read one line at a time")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = resolve_config(args)
        run = COMMANDS[args.command][0](config)
        out = Path(config["out"])
        with _locked_output_dir(out):
            stage = out / ".savanna-staging"
            # Left by a killed run: the lock proves that no live run uses it.
            with contextlib.suppress(FileNotFoundError):
                shutil.rmtree(stage)
            stage.mkdir()
            try:
                (stage / "resolved_config.yaml").write_text(
                    yaml.safe_dump(config, sort_keys=True), encoding="utf-8")
                error = run(stage)
                for name in ("resolved_config.yaml", *OUTPUTS[args.command]):
                    if (stage / name).exists():
                        os.replace(stage / name, out / name)
                    else:  # none is left from an earlier run
                        (out / name).unlink(missing_ok=True)
            finally:
                shutil.rmtree(stage, ignore_errors=True)
        if error:
            raise CliError(error)
        return 0
    except (CliError, KeyError, OSError, ValueError) as exc:
        print(json.dumps({"error": str(exc), "type": type(exc).__name__}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
