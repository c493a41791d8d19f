"""Command-line entry point wiring the toolkit into reproducible pipelines.

Subcommands: ``corpus``, ``instruct``, ``eval``, ``report``, ``loss``.
Configuration comes from a YAML file (``--config``) with flag overrides;
every run writes a resolved-config snapshot next to its outputs and holds a
lock file so only one instance works per output directory; the lock holds
the run's PID, so a lock left by a killed run can be broken.  Secrets are
read from environment variables only (``SAVANNA_API_TOKEN``).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from pathlib import Path

import yaml

from . import corpus as corpus_mod
from . import evalharness, instruct, jsonio, leaderboard, preference_loss
from .textnorm import clean_document, corpus_profile


class CliError(Exception):
    pass


def _lock_holder(lock: Path) -> int | None:
    """PID written in ``lock``, or None if it is empty or unparsable."""
    try:
        pid = int(lock.read_text(encoding="ascii"))
    except (OSError, ValueError):
        return None
    return pid if pid > 0 else None


def _is_dead(pid: int) -> bool:
    if os.name != "posix":
        return False  # os.kill(pid, 0) would terminate the process on Windows
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except (PermissionError, OverflowError):
        pass  # a live process of another user, or no PID this system can have
    return False


def _create_lock(lock: Path) -> int:
    """Create ``lock`` exclusively.  A lock whose PID names no live process
    was left by a killed run and is broken once.  A lock without a readable
    PID may belong to a run that has not written it yet, so it is held."""
    try:
        return os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        pid = _lock_holder(lock)
    if pid is not None and _is_dead(pid):
        lock.unlink(missing_ok=True)
        try:
            return os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            pid = _lock_holder(lock)
    holder = f" (pid {pid})" if pid is not None else ""
    raise CliError(f"output directory is locked by another run{holder}: {lock}")


@contextlib.contextmanager
def _locked_output_dir(out: Path):
    out.mkdir(parents=True, exist_ok=True)
    lock = out / ".savanna.lock"
    fd = _create_lock(lock)
    try:
        with os.fdopen(fd, "w", encoding="ascii") as f:
            f.write(str(os.getpid()))
        yield out
    finally:
        lock.unlink(missing_ok=True)


def _load_config(args: argparse.Namespace) -> dict:
    config: dict = {}
    if args.config:
        with open(args.config, encoding="utf-8") as f:
            config = yaml.safe_load(f) or {}
    if getattr(args, "seed", None) is not None:
        config["seed"] = args.seed
    config.setdefault("seed", 0)
    return config


def _snapshot_config(config: dict, out: Path) -> None:
    with open(out / "resolved_config.yaml", "w", encoding="utf-8") as f:
        yaml.safe_dump(config, f, sort_keys=True)


def _make_client(endpoint_url: str, config: dict,
                 suite: evalharness.EvalSuite) -> evalharness.CompletionClient:
    # "stub:" URLs select in-process clients; used by tests, demos and the
    # offline echo pipeline.  Anything else is treated as a live endpoint.
    if endpoint_url.startswith("stub:"):
        kind = endpoint_url.split(":", 1)[1]
        if kind == "echo":
            return evalharness.ReferenceEchoClient(suite)
        if kind == "empty":
            return evalharness.ConstantClient("")
        raise CliError(f"unknown stub endpoint: {endpoint_url}")
    endpoint = evalharness.ModelEndpoint(
        name=config.get("model_name", endpoint_url),
        base_url=endpoint_url,
        model=config.get("model", ""),
        timeout=config.get("timeout", 60.0),
        retries=config.get("retries", 2),
    )
    return evalharness.HttpCompletionClient(endpoint)


def cmd_corpus(args: argparse.Namespace) -> int:
    config = _load_config(args)
    out = Path(args.out or config.get("out", "corpus_out"))
    bible = config.get("bible")
    if bible is not None and (not isinstance(bible, list) or len(bible) != 2
                              or not all(isinstance(e, dict) for e in bible)):
        raise CliError("bible must list two editions, {lang, path} each, the source first")
    for i, edition in enumerate(bible or ()):
        for key in ("lang", "path"):
            if key not in edition:
                raise CliError(f"bible[{i}].{key} is required")
            if not isinstance(edition[key], str):
                raise CliError(f"bible[{i}].{key} must be a string")
    if bible is not None and bible[0]["lang"] == bible[1]["lang"]:
        raise CliError(f"bible editions must be in two languages, not lang "
                       f"{bible[0]['lang']!r} and lang {bible[1]['lang']!r}")
    with _locked_output_dir(out):
        _snapshot_config(config, out)
        docs = []
        for path in config["inputs"]:
            docs.extend(corpus_mod.read_documents_jsonl(path))
        if bible is not None:
            aligned = corpus_mod.align_bibles(
                *(corpus_mod.load_bible_tsv(e["path"], e["lang"]) for e in bible))

        profile = corpus_profile()
        chars_in = sum(len(d.text) for d in docs)
        cleaned = []
        clean_stats = {"control_removed": 0, "artifacts_removed": 0}
        for doc in docs:
            text, report = clean_document(doc.text, profile)
            clean_stats["control_removed"] += report.control_removed
            clean_stats["artifacts_removed"] += report.artifacts_removed
            if text:
                cleaned.append(corpus_mod.make_document(
                    doc.lang, text, doc.source, doc.license_note, doc.provenance))

        deduped = list(corpus_mod.dedup(cleaned))

        bt_config = config.get("backtranslate")
        errors = []
        if bt_config:
            client = corpus_mod.HttpMtClient(bt_config["endpoint"])
            english = [d for d in deduped if d.lang == "eng"]
            for target in bt_config["targets"]:
                result = corpus_mod.backtranslate(english, target, client)
                deduped.extend(result.documents)
                errors.extend(result.errors)

        spec = corpus_mod.MixtureSpec(
            source_weights=config.get("source_weights", {}),
            lang_weights=config.get("lang_weights", {}),
        )
        sampled, manifest = corpus_mod.assemble_pretraining(
            deduped, spec, config["seed"], sample_size=config.get("sample_size"))

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
        jsonio.write_json(out / "manifest.json", manifest)
    return 0


def cmd_instruct(args: argparse.Namespace) -> int:
    config = _load_config(args)
    out = Path(args.out or config.get("out", "instruct_out"))
    max_len = config.get("max_len", 512)
    sequences_per_batch = instruct.batch_spec(config.get("tokens_per_batch", 32768), max_len)
    with _locked_output_dir(out):
        _snapshot_config(config, out)
        if config.get("tokenizer_vocab"):
            tokenizer = instruct.VocabFileTokenizer.from_file(config["tokenizer_vocab"])
        else:
            tokenizer = instruct.ByteTokenizer()
        if config.get("template"):
            template = instruct.ChatTemplate.from_file(config["template"])
        else:
            template = instruct.ChatTemplate("<user>", "</user>", "<assistant>", "</assistant>")
        pairs = corpus_mod.read_pairs_jsonl(config["parallel"])
        conversational = []
        if config.get("conversational"):
            conversational = instruct.read_instructions_jsonl(config["conversational"])
        examples, counts = instruct.build_instruction_dataset(
            pairs, conversational,
            n_translation=config.get("n_translation", 2347),
            n_conversational=config.get("n_conversational", 726),
            noisy_fraction=config.get("noisy_fraction", 0.2),
            rng_seed=config["seed"],
        )
        instruct.write_instructions_jsonl(examples, out / "instructions.jsonl")

        streams = []
        for i, example in enumerate(examples):
            rendered = instruct.render_chat(example, tokenizer, template)
            streams.append((f"ex{i}", rendered.token_ids))
        packed = instruct.pack(streams, max_len=max_len)
        instruct.write_packed_jsonl(packed, out / "packed.jsonl", max_len=max_len)

        jsonio.write_json(out / "manifest.json", {
            "category_counts": counts,
            "examples": len(examples),
            "packed_sequences": len(packed),
            "sequences_per_batch": sequences_per_batch,
        })
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    config = _load_config(args)
    out = Path(args.out or config.get("out", "eval_out"))
    with _locked_output_dir(out):
        _snapshot_config(config, out)
        suite = evalharness.load_suite(args.suite or config["suite"])
        suite.validate(full=config.get("full_suite", True))

        if args.rescore:
            report = evalharness.rescore_run_log(args.rescore, suite)
        else:
            directions = _parse_directions(args.directions or config.get("directions"))
            endpoint_url = args.endpoint or config.get("endpoint")
            if not endpoint_url:
                raise CliError("--endpoint is required unless --rescore is given")
            client = _make_client(endpoint_url, config, suite)
            report = evalharness.run_translation_eval(
                suite, client, directions,
                granularity=args.granularity or config.get("granularity", "sentence"),
                run_log_path=out / "run_log.jsonl",
                max_parallel=config.get("max_parallel", 1),
                temperature=config.get("temperature", 0.0),
            )
        (out / "report.json").write_text(report.to_json(), encoding="utf-8")
        if report.invalid:
            raise CliError(f"run invalid: {report.total_failed}/{report.total_items} items failed")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    config = _load_config(args)
    out = Path(args.out or config.get("out", "report_out"))
    with _locked_output_dir(out):
        _snapshot_config(config, out)
        data = leaderboard.LeaderboardData()
        if config.get("use_published_reference", not config.get("tables")):
            data = leaderboard.published_reference_data()
        for table in config.get("tables", []):
            leaderboard.load_score_csv(data, Path(table["path"]),
                                       table["direction"], table["metric"])
        for entry in config.get("runs", []):
            suite = evalharness.load_suite(entry["suite"])
            report = evalharness.rescore_run_log(entry["run_log"], suite)
            leaderboard.add_run_report(data, entry["model"], report)

        artifacts = leaderboard.make_leaderboard(data, config.get("winner_models"))
        (out / "mean_table.md").write_text(artifacts["mean_table"], encoding="utf-8")
        for direction in (leaderboard.XX_TO_ENG, leaderboard.ENG_TO_XX):
            key = f"per_language_{direction}"
            if key in artifacts:
                (out / f"{key}.md").write_text(artifacts[key], encoding="utf-8")
        if "chart_csv" in artifacts:
            (out / "chart.csv").write_text(artifacts["chart_csv"], encoding="utf-8")
        jsonio.write_json(out / "winner_counts.json", artifacts["winner_counts"])
    return 0


def cmd_loss(args: argparse.Namespace) -> int:
    config = _load_config(args)
    out = Path(args.out or config.get("out", "loss_out"))
    with _locked_output_dir(out):
        _snapshot_config(config, out)
        pairs = preference_loss.read_pair_logps_jsonl(args.pairs or config["pairs"])
        params = preference_loss.LossParams(
            beta=config.get("beta", 0.1),
            alpha_rpo=config.get("alpha_rpo", 1.0),
        )
        audit = preference_loss.audit_pairs(pairs, params)
        jsonio.write_json(out / "loss_audit.json", audit)
        print(f"pairs: {len(audit['pairs'])}  "
              f"mean dpo: {audit['mean_dpo_loss']:.6f}  "
              f"mean irpo: {audit['mean_irpo_loss']:.6f}")
    return 0


def _parse_directions(raw) -> list[tuple[str, str]]:
    if raw is None:
        raise CliError("--directions is required (e.g. 'lug-eng,eng-lug')")
    if isinstance(raw, str):
        raw = [d for d in raw.split(",") if d]
    directions = []
    for item in raw:
        src, _, tgt = str(item).partition("-")
        if not src or not tgt:
            raise CliError(f"bad direction: {item!r}")
        directions.append((src, tgt))
    return directions


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="savanna",
                                     description="Corpus and MT-evaluation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="YAML config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", help="output directory")

    p_corpus = sub.add_parser("corpus", help="clean, dedup and assemble pretraining text")
    common(p_corpus)
    p_corpus.set_defaults(func=cmd_corpus)

    p_instr = sub.add_parser("instruct", help="build instruction data, render and pack")
    common(p_instr)
    p_instr.set_defaults(func=cmd_instruct)

    p_eval = sub.add_parser("eval", help="run translation evaluation")
    common(p_eval)
    p_eval.add_argument("--suite", help="suite CSV/TSV path")
    p_eval.add_argument("--endpoint", help="chat-completions base URL (or stub:echo)")
    p_eval.add_argument("--directions", help="comma-separated src-tgt pairs")
    p_eval.add_argument("--granularity", choices=["sentence", "document"])
    p_eval.add_argument("--rescore", help="re-score a persisted run log offline")
    p_eval.set_defaults(func=cmd_eval)

    p_rep = sub.add_parser("report", help="leaderboards and chart CSVs")
    common(p_rep)
    p_rep.set_defaults(func=cmd_report)

    p_loss = sub.add_parser("loss", help="audit DPO/IRPO losses from a JSONL file")
    common(p_loss)
    p_loss.add_argument("--pairs", help="PairLogps JSONL path")
    p_loss.set_defaults(func=cmd_loss)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, FileNotFoundError, KeyError, ValueError) as exc:
        print(json.dumps({"error": str(exc), "type": type(exc).__name__}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
