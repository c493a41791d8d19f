"""Seeded, offline benchmark of savanna's commands and layers.

    python3 perfbench/run.py --workload eval-sentence --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The workload's inputs are generated from
``--seed`` under ``.perfbench_work/<workload>/``.  Its commands then run in
sequence, one pass after another, while another pass is expected to end
within ``--seconds``.  Every output is checked.  The last line of standard
output is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``.  A traced run
alternates untraced and traced passes so that it can report the tracer's
own overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import speed
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DEFAULT_SEED = 0
SETUP_RUNS = 7

# What a user's first command pays before any work: a fresh interpreter
# imports the CLI and loads the language table and the reference tables.
SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import savanna.cli
from savanna import instruct, leaderboard
instruct.language_name("eng")
leaderboard.published_reference_data()
"""


def measure_setup() -> float:
    """Median wall time of fresh interpreters doing SETUP_CODE, after one
    unmeasured run that leaves bytecode caches warm.  (No timeout: waiting
    with one polls the child in steps of up to 50 ms.)"""
    times = []
    for i in range(SETUP_RUNS + 1):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], check=True)
        if i:
            times.append(time.perf_counter() - started)
    return statistics.median(times)


def run_pass(wl, tr, result, intervals: list[tuple[float, float]]) -> dict[str, float] | None:
    """Run the workload's commands once; wall time per command, or None if
    one of them failed.  ``intervals`` receives each command's start and end."""
    wl.reset()
    walls = {}
    if tr:
        tr.install()
    try:
        for command, span, fn in wl.commands:
            started = time.perf_counter()
            try:
                if tr:
                    tr.span(span, fn)
                else:
                    fn()
            except Exception:  # a failed command is counted and the run goes on
                traceback.print_exc()
                result.count(1, 1, command)
                return None
            ended = time.perf_counter()
            walls[command] = ended - started
            intervals.append((started, ended))
            result.count(1, 0, command)
    finally:
        if tr:
            tr.uninstall()
    return walls


def layer_metrics(wl, tr, walls: dict[str, float], result) -> dict[str, float]:
    """Per-layer figures of one traced pass."""
    self_t, root = tracer.self_times(tr.spans)
    self_s: dict[str, float] = {}
    durations: dict[str, list[float]] = {}
    for i, (name, start, end, _parent) in enumerate(tr.spans):
        self_s[name] = self_s.get(name, 0.0) + self_t[i]
        durations.setdefault(name, []).append(end - start)

    # The self times of a command's spans must add up to its wall time.
    roots = {tr.spans[i][0]: i for i in range(len(tr.spans)) if tr.spans[i][3] < 0}
    for command, span, _fn in wl.commands:
        index = roots[span]
        total = sum(t for t, r in zip(self_t, root) if r == index)
        result.expect(f"{command} span self times add up to its traced wall time",
                      abs(total - walls[command]) <= 1e-3 + 1e-3 * walls[command],
                      f"{total} != {walls[command]}")

    m: dict[str, float] = {}
    for layer, functions in tracer.TRACED.items():
        for fname in functions:
            name = f"{layer}.{fname}"
            m[f"{name}.calls"] = tr.calls.get(name, 0)
            m[f"{name}.self_s"] = self_s.get(name, 0.0)
    for span in ("cli.eval", "cli.report", "cli.corpus", "cli.instruct", "cli.loss"):
        m[f"{span}.self_s"] = self_s.get(span, 0.0)
    for key in ("metrics.edit_distance.cells", "textnorm.clean_document.lines",
                "textnorm.clean_document.artifacts_removed", "corpus.dedup.docs_in",
                "corpus.dedup.docs_out", "instruct.pack.chunks", "instruct.pack.sequences"):
        m[key] = tr.counts.get(key, 0)
    capacity = tr.counts.get("instruct.pack.capacity", 0)
    tokens = tr.counts.get("instruct.pack.tokens", 0)
    m["instruct.pack.fill_ratio"] = tokens / capacity if capacity else 0.0
    ed = durations.get("metrics.edit_distance", [])
    m["metrics.edit_distance.ms_p50"] = 1000 * tracer.percentile(ed, 0.50)
    m["metrics.edit_distance.ms_p99"] = 1000 * tracer.percentile(ed, 0.99)
    m["textnorm.clean_document.ms_p99"] = 1000 * tracer.percentile(
        durations.get("textnorm.clean_document", []), 0.99)

    client = wl.client
    m["evalharness.client.calls"] = client.calls if client else 0
    m["evalharness.client.wait_s"] = client.wait_s if client else 0.0
    m["evalharness.units_failed"] = 0
    m["evalharness.score_to_wait_ratio"] = 0.0
    if client:
        report = json.loads(Path("out/eval/report.json").read_text(encoding="utf-8"))
        m["evalharness.units_failed"] = report["total_failed"]
        eval_root = roots["eval"]
        scoring = sum(t for (name, *_), t, r in zip(tr.spans, self_t, root)
                      if r == eval_root and name.startswith(("metrics.", "textnorm.")))
        m["evalharness.score_to_wait_ratio"] = scoring / client.wait_s
    m["trace.spans"] = len(tr.spans)
    return m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", action="store_true",
                        help="record this run's output digests as the expected ones "
                             "for the default seed (after an intended output change)")
    args = parser.parse_args(argv)

    if not (SRC / "savanna" / "__init__.py").is_file():
        print(f"error: no savanna package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    sys.path.insert(0, str(SRC))
    import checks
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    if args.write_digests and args.seed != DEFAULT_SEED:
        parser.error("--write-digests needs the default seed")
    speed.pin_to_one_cpu()
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    os.chdir(work)

    wl = workloads.WORKLOADS[args.workload](work, args.seed)
    setup_s = measure_setup()
    digest_file = HERE / "digests.json"
    recorded = json.loads(digest_file.read_text()) if digest_file.exists() else {}

    result = checks.Checks()
    untraced: list[dict[str, float]] = []
    at_reference: dict[bool, list[float]] = {False: [], True: []}
    traced: list[tuple[dict[str, float], object]] = []
    layers: list[dict[str, float]] = []
    first_digests = None
    started = time.perf_counter()
    longest = 0.0
    with speed.SpeedSampler() as sampler:
        while True:  # start another pass only if it should end within --seconds
            pass_started = time.perf_counter()
            for tr in ([None, tracer.Tracer()] if args.trace else [None]):
                intervals: list[tuple[float, float]] = []
                walls = run_pass(wl, tr, result, intervals)
                if walls is None:
                    continue
                wl.count(result)
                digests = {path: checks.digest(path) for path in wl.outputs()}
                if first_digests is None:
                    first_digests = digests
                    if args.seed == DEFAULT_SEED and not args.write_digests:
                        result.expect("outputs match the digests recorded for the default seed",
                                      digests == recorded.get(args.workload), f"{digests}")
                else:
                    result.expect("outputs are identical across repetitions",
                                  digests == first_digests)
                at_reference[tr is not None].append(
                    sum(sampler.at_reference(*i) for i in intervals))
                if tr:
                    traced.append((walls, tr))
                    layers.append(layer_metrics(wl, tr, walls, result))
                else:
                    untraced.append(walls)
            now = time.perf_counter()
            longest = max(longest, now - pass_started)
            if not untraced or now - started + longest > args.seconds:
                break

    if not untraced or (args.trace and not traced):
        print("error: no pass of the workload completed", file=sys.stderr)
        return 1
    # Read before the output checks, whose oracles hold large tables.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    try:
        wl.check(result)
    except Exception:  # outputs a check cannot even read count as a failed check
        traceback.print_exc()
        result.expect("output checks ran", False)
    if args.write_digests and first_digests is not None:
        recorded[args.workload] = first_digests
        digest_file.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")

    commands = [c for c, _s, _f in wl.commands]
    per_command = {c: statistics.median(w[c] for w in untraced) for c in commands}
    pipeline = statistics.median(sum(w.values()) for w in untraced)
    values = {
        "setup_s": setup_s,
        "pipeline_s": pipeline,
        "pipeline_ref_s": statistics.median(at_reference[False]),
        "peak_rss_mb": peak_rss_mb,
    }
    if args.trace:
        for name in layers[0]:
            values[name] = statistics.median(m[name] for m in layers)
        for command in ("eval", "rescore", "report", "corpus", "instruct", "loss"):
            values[f"{command}_s"] = per_command.get(command, 0.0)
        values["trace.overhead_s"] = (statistics.median(at_reference[True])
                                      - values["pipeline_ref_s"])
        with open("spans.jsonl", "w", encoding="utf-8") as f:
            for n, (_walls, tr) in enumerate(traced):
                for span in tr.spans:
                    f.write(json.dumps([n] + span) + "\n")

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": sys.version.split()[0],
        "inputs": wl.sizes, "passes": {"untraced": untraced,
                                       "traced": [w for w, _tr in traced]},
        "command_median_s": per_command, "pipeline_ref_s": at_reference[False],
        "traced_pipeline_ref_s": at_reference[True],
        "speed_samples": len(sampler.samples),
    }
    Path("result.json").write_text(json.dumps(record | {"metrics": metrics}, indent=1,
                                              allow_nan=False), encoding="utf-8")
    result.expect("the result file is strict JSON",
                  checks.strict_json(Path("result.json").read_text(encoding="utf-8"))
                  ["metrics"] == metrics)
    print(json.dumps({"inputs": wl.sizes, "command_median_s": per_command}))
    print(json.dumps({"correct": result.failed == 0, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
