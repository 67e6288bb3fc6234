#!/usr/bin/env python3
"""Run benchmark workloads over several seeds and print every metric.

    python3 perfbench/report.py [--workloads NAME ...] [--seeds N ...]
                                [--seconds S] [--trace 0|1] [--out FILE]

For each workload and each metric this prints the unit, the median over the
seeds, the quartiles, and the spread: the distance between the quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median.  With
``--trace 0`` the spread is compared with a third of the metric's bound in
BENCHMARK.json.  ``failed_ratio`` is failed ops over attempted ops, summed
over the runs.  ``--out`` keeps every raw result as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 900


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{argv!r} exited {done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(results: list[dict], specs: list[dict]) -> list[str]:
    lines = []
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    lines.append(f"  failed_ratio {failed / attempted:.6g} ({failed}/{attempted} ops)")
    for spec in specs:
        values = [r["metrics"][spec["name"]]["value"] for r in results]
        median = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = values[0]
        spread = (q3 - q1) / median if median else float("nan")
        line = (f"  {spec['name']:<42} {spec['unit']:<6} median {median:<12.6g} "
                f"q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:7.2%}")
        if "bound" in spec and spec["name"] != "setup_s":
            ok = spread < spec["bound"] / 3
            line += f"  bound {spec['bound']:.2f} {'ok' if ok else 'WIDE'}"
        lines.append(line)
    return lines


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--seeds", nargs="+", type=int, default=[1])
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the raw results to this JSON file")
    args = parser.parse_args(argv)
    specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    raw = {}
    for workload in args.workloads:
        results = [run_once(workload, seed, args.seconds, args.trace) for seed in args.seeds]
        raw[workload] = results
        print(f"{workload} (seeds {' '.join(map(str, args.seeds))}, {args.seconds:g} s each)")
        print("\n".join(summarize(results, specs)), flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(raw, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
