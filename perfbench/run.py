"""Benchmark algeff end to end, or per layer with tracing.

    python3 perfbench/run.py [--workload run|check|search|all] [--seed N]
                             [--seconds S] [--trace 0|1]

For each workload: generate its inputs from the seed, time algeff's set-up
in several fresh interpreters, then run the workload's closed loop (one
operation at a time, whole rounds, for S seconds) in one more fresh
interpreter and check every output against the oracles.  Prints the
metrics by name with their units; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 1``
reports the per-layer metrics instead and writes the spans to
``perfbench/.work/``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"

import gen  # noqa: E402

SETUP_PROBES = 8
END_TO_END = (
    ("ops_per_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
)


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mib"):
        return "MiB"
    if name.endswith("_share"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def worker(args: list, timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = WORK / f"{workload}-{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        ops = gen.make_ops(workload, seed, workdir / "inputs", ROOT / "samples")
        ops_file = workdir / "ops.json"
        ops_file.write_text(json.dumps(ops), encoding="utf-8")
        common = ["--workload", workload, "--ops", str(ops_file)]
        setups = []
        if not trace:
            setups = [worker(common + ["--setup-only", "1"], 60)["setup_s"] for _ in range(SETUP_PROBES)]
        trace_file = WORK / f"trace-{workload}-{seed}.json"
        result = worker(common + ["--seconds", str(seconds), "--trace", "1" if trace else "0",
                                  "--trace-file", str(trace_file)], seconds + 120)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["metrics"]["setup_s"] = statistics.median(setups + [result["setup_s"]])
    result["trace_file"] = str(trace_file.relative_to(ROOT)) if trace else None
    return result


def report(workload: str, seed: int, r: dict, trace: bool) -> dict:
    """Print one workload's figures; return the metrics for the JSON line."""
    # a traced run's first round also replays evaluations to measure
    # allocation, so its later rounds give the tracing overhead
    walls = r["round_walls_s"][1:] if trace and r["rounds"] > 1 else r["round_walls_s"]
    print(f"workload {workload}  seed {seed}  python {r['python']}  "
          f"rounds {r['rounds']} x {r['ops_per_round']} ops  wall {r['wall_s']:.3f} s  "
          f"median round {statistics.median(walls):.4f} s")
    failures = ", ".join(f"{k} x{v}" for k, v in sorted(r["failures"].items())) or "none"
    print(f"  attempted {r['attempted']}  failed {r['failed']} ({failures})  "
          f"wrong outputs {r['wrong']}")
    for e in r["errors"]:
        print(f"  WRONG {e}")
    if trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in r["per_layer"].items()}
        print(f"  per-layer metrics per round; spans in {r['trace_file']}")
    else:
        metrics = {k: {"value": r["metrics"][k], "unit": u} for k, u in END_TO_END}
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:>16.6f} {m['unit']}")
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=gen.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = p.parse_args(argv)
    if not (ROOT / "src" / "algeff" / "__init__.py").is_file():
        print(f"no algeff sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    names = gen.WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        try:
            r = run_workload(name, args.seed, args.seconds, trace)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"workload {name} did not finish: {exc}", file=sys.stderr)
            return 1
        shown = report(name, args.seed, r, trace)
        correct = correct and r["wrong"] == 0
        attempted += r["attempted"]
        failed += r["failed"]
        if len(names) == 1:
            metrics = shown
        else:
            metrics.update({f"{name}.{k}": v for k, v in shown.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
