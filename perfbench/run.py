"""padroot benchmark: certified root counting on four workloads.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; padroot is imported from that checkout's
`src/`.  Each pass runs in a fresh interpreter (worker.py), so module-level
caches start cold as they do for a command-line user.  The run makes its
inputs and expected answers from the seed, starts a few set-up-only
interpreters, then runs passes until the next one would end after
`--seconds`, always at least one.  A pass still running at its time limit
is killed and its unfinished operations count as failed.  With `--trace 1`
the passes alternate untraced and traced, and the per-layer metrics are
reported instead of the end-to-end ones.  The last line of standard output
is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

RUN_LIMIT_S = 170          # the whole run, set-up and checks included
SETUP_PROBES = 10          # set-up-only interpreters per run
PASS_LIMIT_S = {           # five to thirty times a pass when this was written
    "lacunary-bigp": 30,
    "corpus-smallp": 30,
    "tower-build": 90,
    "identity-grid": 60,
}

END_TO_END = [("wall_s", "s"), ("op_s.p50", "s"), ("op_s.p90", "s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB")]


@dataclass
class Pass:
    """What one worker interpreter reported."""

    setup_s: float | None       # spawn to inputs parsed
    op_seconds: dict            # {operation index: seconds}, checked ones only
    failed: int                 # operations failed, killed or never run
    wrong: int                  # wrong answers, raises and crashed workers
    messages: list
    wall_s: float
    rss_mb: float | None
    trace: dict | None


def run_worker(spec, rundir: Path, mode: str, limit_s: float, nops: int, spans=None) -> Pass:
    results = rundir / f"results-{time.monotonic_ns()}.jsonl"
    cmd = [sys.executable, str(HERE / "worker.py"), str(spec), str(results), mode]
    if spans is not None:
        cmd.append(str(spans))
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL)
    try:
        proc.wait(timeout=max(limit_s, 1))
    except subprocess.TimeoutExpired:
        pass
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    stopped = time.monotonic()
    lines = []
    if results.exists():
        for raw in results.read_text().splitlines():
            try:
                lines.append(json.loads(raw))
            except json.JSONDecodeError:
                break  # a line cut short by the kill
    ready = next((rec["ready"] for rec in lines if "ready" in rec), None)
    ops = [rec for rec in lines if "op" in rec]
    final = next((rec for rec in lines if rec.get("done")), {})
    messages = [f"op {rec['op']}: {rec['error']}" for rec in ops if rec["error"]]
    if ready is None:
        messages.append(f"worker exited with {proc.returncode} before it was ready")
    elif mode != "setup" and not final:
        messages.append(f"pass stopped after {len(ops)} of {nops} operations")
    wall = sum(rec["s"] for rec in ops)
    if mode != "setup" and not final:
        wall = max(wall, stopped - (ready or spawned))
    return Pass(
        setup_s=None if ready is None else ready - spawned,
        op_seconds={rec["op"]: rec["s"] for rec in ops if not rec["error"]},
        failed=sum(1 for rec in ops if rec["error"]) + (0 if mode == "setup" else nops - len(ops)),
        wrong=sum(1 for rec in ops if rec["error"]) + (ready is None),
        messages=messages,
        wall_s=wall,
        rss_mb=final.get("rss_mb"),
        trace=final.get("trace"),
    )


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    ops = workloads.build(name, seed, ROOT)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    rundir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=out_dir))
    try:
        spec = rundir / "spec.json"
        spec.write_text(json.dumps({"workload": name, "seed": seed, "ops": ops}))
        probes = [run_worker(spec, rundir, "setup", deadline - time.monotonic(), 0)
                  for _ in range(SETUP_PROBES)]
        modes = ["pass", "trace"] if trace else ["pass"]
        passes = {mode: [] for mode in modes}
        measure_start = time.monotonic()
        while True:
            round_start = time.monotonic()
            for mode in modes:
                limit = min(PASS_LIMIT_S[name], deadline - time.monotonic())
                spans = out_dir / f"spans-{name}-seed{seed}.jsonl" if mode == "trace" else None
                passes[mode].append(run_worker(spec, rundir, mode, limit, len(ops), spans))
            now = time.monotonic()
            last_round = now - round_start
            if now - measure_start + last_round > seconds or now + last_round > deadline:
                break
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    every = probes + [p for group in passes.values() for p in group]
    messages = [msg for p in every for msg in p.messages]
    attempted = sum(len(ops) for group in passes.values() for _ in group)
    failed = sum(p.failed for group in passes.values() for p in group)
    untraced = passes["pass"]
    setups = [p.setup_s for p in every if p.setup_s is not None]
    # each operation's median over the passes, then percentiles over operations
    per_op = {}
    for p in untraced:
        for i, seconds in p.op_seconds.items():
            per_op.setdefault(i, []).append(seconds)
    op_seconds = [statistics.median(v) for v in per_op.values()]
    result = {
        "name": name, "seed": seed, "passes": len(untraced), "ops": len(ops),
        "attempted": attempted, "failed": failed, "messages": messages,
        "correct": not any(p.wrong for p in every),
    }
    if not trace:
        rss = [p.rss_mb for p in untraced if p.rss_mb is not None]
        values = {
            "wall_s": statistics.median(p.wall_s for p in untraced),
            "op_s.p50": statistics.median(op_seconds) if op_seconds else None,
            "op_s.p90": nearest_rank(op_seconds, 0.9) if op_seconds else None,
            "setup_s": statistics.median(setups) if setups else None,
            "peak_rss_mb": statistics.median(rss) if rss else None,
        }
        result["metrics"] = {key: {"value": values[key], "unit": unit}
                             for key, unit in END_TO_END}
    else:
        traced = [p.trace for p in passes["trace"] if p.trace is not None]
        metrics = {}
        for key in tracer.metric_names():
            samples = [t[key] for t in traced]
            metrics[key] = {"value": statistics.median(samples) if samples else None,
                            "unit": tracer.unit(key)}
        overhead = (statistics.median(p.wall_s for p in passes["trace"])
                    - statistics.median(p.wall_s for p in untraced))
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        result["metrics"] = metrics
    result["failed_frac"] = failed / attempted if attempted else 1.0
    return result


def report(result: dict) -> None:
    print(f"{result['name']} seed {result['seed']}: {result['passes']} passes of "
          f"{result['ops']} operations, {result['attempted']} attempted, "
          f"{result['failed']} failed")
    for msg in result["messages"][:10]:
        print(f"  FAILED {msg}")
    for key, metric in result["metrics"].items():
        value = "n/a" if metric["value"] is None else f"{metric['value']:.6g}"
        print(f"  {key:<58} {value:>14} {metric['unit']}")
    print(f"  {'failed_frac':<58} {result['failed_frac']:>14.6g} ratio")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=workloads.WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "padroot" / "__init__.py").is_file():
        print(f"no padroot sources under {ROOT / 'src'}; run from a padroot checkout",
              file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        report(result)
        results.append(result)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['name']}.{key}": value
                   for r in results for key, value in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
