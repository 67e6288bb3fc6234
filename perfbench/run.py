#!/usr/bin/env python3
"""Run one workload of the ctxprob benchmark and print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program is imported from ``src/`` of the checkout this file sits in.
Every input is generated from ``--seed`` before timing starts.  The ops then
run for ``--seconds`` in a closed loop with one client.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``.  A line with
provenance and the op sample count goes to standard error.

A traced run measures without spans for the first half of ``--seconds`` and
with spans for the second half; the difference in ops per second is the
tracing overhead.  ``--spans FILE`` writes the spans as JSON lines.
"""

import time

_START = time.perf_counter()  # set-up is timed from here, so imports count

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import NULL, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
# set-up is timed in this process and in SETUP_SAMPLES - 1 fresh children;
# setup_s is the median
SETUP_SAMPLES = 3
WINDOW_NS = 1_000_000_000


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="with --trace 1, write the spans to this file")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time in seconds and exit")
    return parser.parse_args(argv)


class Phase:
    """Latencies and outcomes of the ops run with one tracer setting."""

    def __init__(self) -> None:
        self.latencies_ns: list[int] = []
        self.passed: list[bool] = []

    @property
    def ops(self) -> int:
        return len(self.latencies_ns)

    @property
    def failed(self) -> int:
        return self.passed.count(False)

    def ops_per_s(self, cycle: int) -> float:
        """Throughput sustained in nine windows out of ten.

        Ops are grouped into windows of whole cycles lasting at least one
        second of op time; the value is the 10th percentile of passed ops
        per second over the windows.  On a shared 2-vCPU virtual machine the
        same code ran up to 1.9 times faster for stretches of seconds; a
        mean over the run moves with how long those stretches last, a low
        percentile over windows much less.
        """
        rates, ns, passed = [], 0, 0
        for i, (latency, ok) in enumerate(zip(self.latencies_ns, self.passed), start=1):
            ns += latency
            passed += ok
            if i % cycle == 0 and ns >= WINDOW_NS:
                rates.append(passed / ns * 1e9)
                ns = passed = 0
        if not rates:
            return self.passed.count(True) / sum(self.latencies_ns) * 1e9
        if len(rates) == 1:
            return rates[0]
        return statistics.quantiles(rates, n=10, method="inclusive")[0]


def run_loop(workload, seconds: float, tracer=None) -> tuple[Phase, Phase]:
    """Run ops until ``seconds`` have passed, ending on a complete cycle.

    Returns the untraced and the traced phase.  With a tracer, ops switch
    from untraced to traced at half time; without one, every op is
    untraced.  Each phase in use gets at least one cycle, however short
    ``seconds`` is.  An op that raises or fails its check counts as failed.
    """
    untraced, traced = Phase(), Phase()
    phase, tr = untraced, NULL
    start = time.perf_counter()
    half, deadline = start + seconds / 2, start + seconds
    i = 0
    while True:
        if i > 0 and i % workload.cycle == 0:
            now = time.perf_counter()
            if tracer is not None and phase is untraced and now >= half:
                phase, tr = traced, tracer
            elif now >= deadline:
                break
        t0 = time.perf_counter_ns()
        tr.begin_op(i)
        try:
            result = workload.op(i, tr)
            error = None
        except Exception as e:  # the loop must go on; the op counts as failed
            error = e
        tr.end_op()
        phase.latencies_ns.append(time.perf_counter_ns() - t0)
        if error is None:
            try:
                workload.check(i, result)
            except Exception as e:
                error = e
        phase.passed.append(error is None)
        if error is not None and untraced.failed + traced.failed <= 3:
            print(f"op {i} failed: {type(error).__name__}: {error}", file=sys.stderr)
        i += 1
    return untraced, traced


def _p90_ms(phase: Phase) -> float:
    latencies_ms = [ns / 1e6 for ns in phase.latencies_ns]
    if len(latencies_ms) == 1:
        return latencies_ms[0]
    return statistics.quantiles(latencies_ms, n=10, method="inclusive")[8]


def end_to_end(phase: Phase, setup_s: float, workload) -> dict[str, float]:
    return {
        "setup_s": setup_s,
        "ops_per_s": phase.ops_per_s(workload.cycle),
        "op_p90_ms": _p90_ms(phase),
        "peak_rss_mb": workload.peak_rss_mb(),
    }


def per_layer(tracer, untraced: Phase, traced: Phase, probe: dict, cycle: int,
              names) -> dict[str, float]:
    """Per-layer metrics from the spans of the traced phase and the probes.

    Times are self times.  ``.ms`` metrics are per op, ``.us`` metrics per
    call, shares are of the summed op time; a layer the workload never
    calls reads 0.  ``op.p50_ms`` is the median op latency of the untraced
    phase.
    """
    calls, self_ns = tracer.self_times()
    ops, op_ns = tracer.ops, tracer.op_ns()
    counts = tracer.counts

    def per_call_us(name):
        return self_ns[name] / calls[name] / 1e3 if calls.get(name) else 0.0

    def layer_ns(layer):
        return sum(ns for name, ns in self_ns.items() if name.startswith(layer + "."))

    def layer_calls(layer):
        return sum(n for name, n in calls.items() if name.startswith(layer + "."))

    def ratio(a, b):
        return a / b if b else 0.0

    m = dict.fromkeys(names, 0.0)
    for fn in ("sample_counts", "estimate"):
        name = f"simulation.{fn}"
        m[f"{name}.ms"] = self_ns.get(name, 0) / ops / 1e6
        m[f"{name}.share"] = self_ns.get(name, 0) / op_ns
    trials = counts.get("simulation.sample_counts.context_trials", 0)
    m["simulation.sample_counts.ns_per_trial"] = ratio(self_ns.get("simulation.sample_counts", 0),
                                                       trials)
    m["simulation.sample_counts.context_trials"] = trials / ops
    m["simulation.estimate.replicates"] = counts.get("simulation.estimate.replicates", 0) / ops
    for name in ("calculus.lambda_range", "calculus.reconstruct_probability",
                 "calculus.ContextTriple", "calculus.analyze", "amplitudes.wave_from_analysis",
                 "data.write_counts", "data.parse_counts", "data.additivity_check",
                 "data.write_report", "data.parse_report"):
        m[f"{name}.us"] = per_call_us(name)
    for layer in ("calculus", "amplitudes", "data", "cli"):
        m[f"{layer}.share"] = layer_ns(layer) / op_ns
    for layer in ("calculus", "amplitudes"):
        m[f"{layer}.calls"] = layer_calls(layer) / ops
    m["data.parse_counts.bytes"] = ratio(counts.get("data.parse_counts.bytes", 0),
                                         calls.get("data.parse_counts", 0))
    m["data.report.bytes"] = ratio(counts.get("data.report.bytes", 0),
                                   calls.get("data.write_report", 0))
    cold = [name for name in calls if name.startswith("cli.cold.")]
    for name in cold:
        m[f"{name}.ms"] = per_call_us(name) / 1e3
    m.update(probe)
    if cold:
        startup = (probe["cli.python_startup_ms"] + probe["cli.import.numpy_ms"]
                   + probe["cli.import.ctxprob_own_ms"])
        m["cli.cold.startup_import_share"] = startup / statistics.fmean(
            m[f"{name}.ms"] for name in cold)
    m["bench.share"] = self_ns["op"] / op_ns
    m["trace.ops"] = float(ops)
    m["trace.overhead_ops_per_s"] = traced.ops_per_s(cycle) - untraced.ops_per_s(cycle)
    m["op.p50_ms"] = statistics.median(untraced.latencies_ns) / 1e6
    unknown = set(m) - set(names)
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    return m


def _setup_child(args) -> float:
    from workloads import spawn

    out, err = WORK / f"{os.getpid()}.setup.out", WORK / f"{os.getpid()}.setup.err"
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"]
    try:
        code, _, _ = spawn(argv, os.environ, str(out), str(err))
        if code != 0:
            raise RuntimeError(f"set-up child exited {code}: {err.read_text()[-500:]}")
        return float(out.read_text().split()[-1])
    finally:
        out.unlink(missing_ok=True)
        err.unlink(missing_ok=True)


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed: int) -> dict:
    import platform

    import numpy

    import ctxprob

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "ctxprob": ctxprob.__version__,
        "generator_name": ctxprob.GENERATOR_NAME,
        "git_commit": _git_commit(),
        "seed": seed,
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "ctxprob" / "__init__.py").is_file():
        print(f"error: no ctxprob sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workdir = WORK / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, str(workdir))
        workload.warm_up()
        setup_s = time.perf_counter() - _START
        if args.setup_only:
            print(repr(setup_s))
            return 0
        tracer = Tracer() if args.trace else None
        if not args.trace:
            setups = [setup_s] + [_setup_child(args) for _ in range(SETUP_SAMPLES - 1)]
            setup_s = statistics.median(setups)
        untraced, traced = run_loop(workload, args.seconds, tracer)
        if args.trace:
            metric_specs = spec["per_layer"]
            values = per_layer(tracer, untraced, traced, workload.probe(), workload.cycle,
                               [m["name"] for m in metric_specs])
            if args.spans:
                tracer.write(args.spans)
        else:
            metric_specs = spec["end_to_end"]
            values = end_to_end(untraced, setup_s, workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    attempted = untraced.ops + traced.ops
    failed = untraced.failed + traced.failed
    print(json.dumps({
        "workload": args.workload, "trace": args.trace,
        "ops": {"untraced": untraced.ops, "traced": traced.ops},
        "provenance": provenance(args.seed),
    }), file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metric_specs},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
