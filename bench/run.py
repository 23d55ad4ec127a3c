"""Benchmark of lambdapack: one closed-loop workload per run.

Run from the root of a source checkout:

    python3 bench/run.py --workload paper_chain --seed 1 --seconds 15 --trace 0

One client, one thread, one operation at a time.  The run repeats whole
rounds of the workload's fixed operation list until the timed operations
add up to ``--seconds``.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A
traced run also writes its spans to ``bench/out/``.  See bench/README.md.
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
from pathlib import Path

from spans import NullTracer, Tracer, clock
from verify import Incorrect

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
SETUP_PROBES = 5
#: CPU seconds the reference loop takes at the speed all times are scaled to
REFERENCE_S = 0.005

LAYER_TIMES = (
    "dsl.run_script",
    "pipeline.find_seams",
    "graph.properties",
    "planarity.is_planar",
    "certify.replay",
    "certify.check",
    "certify.check_strict",
    "io.cert_json",
    "cli.check",
    "cli.solve",
    "cli.certify",
    "cli.check_cert",
    "packing.factor",
    "packing.max",
    "packing.target",
    "packing.clauses",
    "packing.check_packing",
)
PRUNE_REASONS = ("residue", "stranded", "bound", "memo_hit", "forced_dead", "seam_parity")


def import_lambdapack() -> float:
    """Import the package from this checkout's ``src``; returns milliseconds."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    start = clock()
    import lambdapack

    elapsed = clock() - start
    if Path(lambdapack.__file__).resolve().parent.parent != src:
        raise SystemExit(f"lambdapack imported from {lambdapack.__file__}, not {src}")
    return elapsed * 1000


def reference_loop() -> float:
    """CPU seconds of a fixed pure-Python loop: the machine's speed right now."""
    start = clock()
    table: dict[int, int] = {}
    acc = 0
    for i in range(15_000):
        m = (i * 2654435761) & 0xFFFFFFFF
        acc ^= m >> (i & 7)
        table[m & 1023] = acc
    return clock() - start


def run_rounds(ops, seconds: float, tracer, null) -> dict:
    """Whole rounds until the timed operations add up to ``seconds``.

    Each operation's CPU time is scaled to the reference speed by the
    reference loop run just before and just after it.  With a real tracer,
    rounds alternate traced and untraced (at least one of each), so the two
    round times give the tracing overhead.
    """
    times: list[float] = []
    round_busy = {True: [], False: []}
    attempted = failed = 0
    errors: list[str] = []
    busy = 0.0
    traced = tracer.enabled
    before = reference_loop()
    while busy < seconds or not round_busy[False] or (tracer.enabled and not round_busy[True]):
        T = tracer if traced else null
        this_round = 0.0
        for op in ops:
            start = clock()
            try:
                out = T.call("op", op.run, T)
            except RecursionError as exc:
                out = exc
            elapsed = clock() - start
            after = reference_loop()
            times.append(elapsed * 2 * REFERENCE_S / (before + after))
            before = after
            busy += elapsed
            this_round += times[-1]
            attempted += 1
            try:
                if isinstance(out, RecursionError) or not op.check(out):
                    failed += 1
            except Incorrect as exc:
                errors.append(f"{op.name}: {exc}")
        round_busy[traced].append(this_round)
        traced = tracer.enabled and not traced
    return {
        "times": times,
        "round_busy": round_busy,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
    }


def child_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def setup_probes(args) -> tuple[float, float]:
    """Median CPU time and import time of fresh processes that only set up.

    Each probe runs this file with ``--setup-only``: it starts Python,
    imports lambdapack, builds the workload's inputs and exits where the
    first timed operation would begin.  Its CPU time is scaled to the
    reference speed like an operation's.
    """
    cpu, imports = [], []
    before = reference_loop()
    for _ in range(SETUP_PROBES):
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", "0", "--setup-only",
        ]
        start = child_cpu()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        elapsed = child_cpu() - start
        after = reference_loop()
        cpu.append(elapsed * 2 * REFERENCE_S / (before + after))
        before = after
        if proc.returncode != 0:
            raise SystemExit(f"set-up probe failed:\n{proc.stderr}")
        imports.append(json.loads(proc.stdout.strip().splitlines()[-1])["import_ms"])
    return statistics.median(cpu), statistics.median(imports)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(result: dict, setup_s: float) -> dict:
    times = result["times"]
    return {
        "setup_s": metric(setup_s, "s"),
        "ops_per_s": metric(len(times) / sum(times), "1/s"),
        "op_p50_ms": metric(statistics.median(times) * 1000, "ms"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
        ),
    }


def per_layer(result: dict, tracer, import_ms: float) -> dict:
    selfs = tracer.self_times()
    counts = tracer.counts
    rounds = len(result["round_busy"][True])

    def ratio(num: str, den: str) -> float:
        return counts[num] / counts[den] if counts.get(den) else 0.0

    out = {"import.lambdapack_ms": metric(import_ms, "ms")}
    for name in LAYER_TIMES:
        spans = selfs.get(name, [])
        mean = 1000 * sum(spans) / len(spans) if spans else 0.0
        out[f"{name}_ms"] = metric(mean, "ms")
    out["certify.base_nodes"] = metric(ratio("certify.base_nodes", "certify.replays"), "count")
    for kind in ("factor", "max", "target"):
        out[f"packing.{kind}_nodes"] = metric(
            ratio(f"packing.{kind}_nodes", f"packing.{kind}_calls"), "count"
        )
    for reason in PRUNE_REASONS:
        out[f"packing.prunes.{reason}"] = metric(
            counts.get(f"packing.prunes.{reason}", 0.0) / rounds, "count"
        )
    out["packing.nodes_per_path"] = metric(ratio("packing.nodes", "packing.paths"), "ratio")
    out["packing.nodes_per_s"] = metric(ratio("packing.nodes", "packing.solve_s"), "1/s")
    traced = statistics.mean(result["round_busy"][True])
    plain = statistics.mean(result["round_busy"][False])
    out["trace.overhead_pct"] = metric(100 * (traced / plain - 1), "%")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper_chain", "deep_search", "query_batch"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and build the inputs, then exit (set-up probe)")
    args = parser.parse_args(argv)

    import_ms = import_lambdapack()
    import workloads

    null = NullTracer()
    tracer = Tracer() if args.trace else null
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        ops = workloads.WORKLOADS[args.workload](args.seed, tracer, work)
        if args.setup_only:
            print(json.dumps({"import_ms": import_ms}))
            return 0
        result = run_rounds(ops, args.seconds, tracer, null)
    finally:
        shutil.rmtree(work)
    setup_s, probe_import_ms = setup_probes(args)
    if args.trace:
        metrics = per_layer(result, tracer, probe_import_ms)
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.json")
    else:
        metrics = end_to_end(result, setup_s)
    for line in result["errors"]:
        print(f"incorrect: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
