"""The benchmark's four workloads: seeded inputs, one op, and output checks.

Each workload builds every input from its seed when it is constructed, warms
up in :meth:`warm_up`, and then runs ops in a closed loop with one client:
``op(i, tracer)`` does the work the user would wait for and ``check(i,
result)`` verifies its outputs afterwards, outside the timed region.  Checks
never compare against values drawn from the random stream, so a deliberate
change of the generator (``GENERATOR_NAME``) is not a failure while a wrong
count, a broken round trip or a wrong regime is.
"""

from __future__ import annotations

import io
import math
import os
import random
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass

from ctxprob import (
    GENERATOR_NAME,
    SCHEMA_VERSION,
    ComplexAmplitude,
    ContextSummary,
    ContextTriple,
    Degenerate,
    DirectScenario,
    Hyperbolic,
    HyperbolicUrnScenario,
    ReportDocument,
    Reproducibility,
    TwoSlitScenario,
    WaveSummary,
    additivity_check,
    analyze,
    estimate,
    lambda_range,
    parse_counts,
    parse_report,
    reconstruct_probability,
    sample_counts,
    scenario_truth,
    wave_from_analysis,
    write_counts,
    write_report,
)
from ctxprob import cli

from spans import NULL

IDENTITY_TOL = 1e-12
REPLICATES = 1000
CHILD_TIMEOUT_S = 60


class CheckFailed(Exception):
    """An op's output is wrong."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _regime_key(regime) -> tuple[str, int]:
    if isinstance(regime, Hyperbolic):
        return ("hyperbolic", regime.sign)
    if isinstance(regime, Degenerate):
        return ("degenerate", 0)
    return ("trigonometric", 0)


def _context_labels(scenario) -> tuple[str, ...]:
    if scenario_truth(scenario).p1 is None:
        return ("S", "S1p", "S2p")
    return ("S", "S1", "S2", "S1p", "S2p")


# --- the experiment chain shared by pipeline-1e7 and calibration-grid ------


@dataclass(frozen=True)
class ExperimentSpec:
    scenario: object
    trials: int
    sample_seed: int
    boot_seed: int
    labels: tuple[str, ...]
    true_regime: tuple[str, int]


def _spec(scenario, trials: int, rng: random.Random) -> ExperimentSpec:
    return ExperimentSpec(
        scenario=scenario,
        trials=trials,
        sample_seed=rng.getrandbits(64),
        boot_seed=rng.getrandbits(64),
        labels=_context_labels(scenario),
        true_regime=_regime_key(analyze(scenario_truth(scenario)).regime),
    )


@dataclass
class Experiment:
    table: object
    parsed: object
    report: object
    doc: ReportDocument
    reparsed: ReportDocument


def run_experiment(tr, spec: ExperimentSpec, replicates: int = REPLICATES) -> Experiment:
    """sample_counts -> write_counts -> parse_counts -> estimate ->
    additivity_check -> wave_from_analysis -> write_report -> parse_report."""
    table = tr.call("simulation.sample_counts", sample_counts,
                    spec.scenario, spec.trials, spec.sample_seed)
    tr.count("simulation.sample_counts.context_trials", spec.trials * len(table.rows))
    counts_bytes = tr.call("data.write_counts", write_counts, table)
    tr.count("data.parse_counts.bytes", len(counts_bytes))
    parsed = tr.call("data.parse_counts", parse_counts, counts_bytes).table
    report = tr.call("simulation.estimate", estimate, parsed, replicates, seed=spec.boot_seed)
    tr.count("simulation.estimate.replicates", replicates)
    additivity = tr.call("data.additivity_check", additivity_check, parsed)
    wave = None
    if report.point.lam is not None:
        amplitude = tr.call("amplitudes.wave_from_analysis", wave_from_analysis,
                            parsed.proportion("S1p"), parsed.proportion("S2p"), report.point)
        if isinstance(amplitude, ComplexAmplitude):
            wave = WaveSummary(kind="complex", components=(amplitude.re, amplitude.im))
        else:
            wave = WaveSummary(kind="split-complex", components=(amplitude.re, amplitude.hy))
    doc = ReportDocument(
        schema_version=SCHEMA_VERSION,
        inputs={
            row.label: ContextSummary(
                p_hat=row.proportion,
                successes=row.successes,
                trials=row.trials,
                interval=report.context_intervals.get(row.label),
            )
            for row in parsed.rows
        },
        delta=report.point.delta,
        lam=report.point.lam,
        regime=report.point.regime,
        lambda_interval=report.lambda_interval,
        regime_stability=report.regime_stability,
        additivity=additivity,
        wave=wave,
        reproducibility=Reproducibility(
            seed=report.seed, replicates=report.replicates, generator_name=GENERATOR_NAME
        ),
    )
    report_bytes = tr.call("data.write_report", write_report, doc)
    tr.count("data.report.bytes", len(report_bytes))
    reparsed = tr.call("data.parse_report", parse_report, report_bytes)
    return Experiment(table, parsed, report, doc, reparsed)


def check_experiment(spec: ExperimentSpec, exp: Experiment, check_regime: bool) -> None:
    table = exp.table
    expect(table.labels == spec.labels,
           f"labels {table.labels!r}, expected {spec.labels!r}")
    for row in table.rows:
        expect(row.trials == spec.trials and 0 <= row.successes <= row.trials,
               f"{row.label}: {row.successes} successes of {row.trials} trials")
    expect(exp.parsed == table, "parse_counts(write_counts(t)).table != t")
    expect(exp.reparsed == exp.doc, "parse_report(write_report(doc)) != doc")
    point = exp.report.point
    if point.lam is not None:
        rebuilt = reconstruct_probability(table.proportion("S1p"), table.proportion("S2p"),
                                          point.lam)
        expect(abs(float(rebuilt) - table.proportion("S")) <= IDENTITY_TOL,
               f"lambda {point.lam!r} rebuilds p(S) as {float(rebuilt)!r}")
    stability = exp.report.regime_stability
    expect(stability is not None and 0.0 <= stability <= 1.0,
           f"regime_stability {stability!r} outside [0, 1]")
    intervals = [exp.report.lambda_interval, *exp.report.context_intervals.values()]
    for interval in intervals:
        expect(interval is None or interval[0] <= interval[1], f"interval {interval!r}")
    if check_regime:
        got = _regime_key(point.regime)
        expect(got == spec.true_regime, f"point regime {got!r}, truth {spec.true_regime!r}")


def _estimate_probe(tables: list, boot_seed: int) -> dict[str, float]:
    """Per-call estimate cost at replicates=0 and per extra replicate."""
    point_ns = []
    full_ns = []
    for table in tables:
        t0 = time.perf_counter_ns()
        estimate(table, 0, seed=boot_seed)
        t1 = time.perf_counter_ns()
        estimate(table, REPLICATES, seed=boot_seed)
        t2 = time.perf_counter_ns()
        point_ns.append(t1 - t0)
        full_ns.append(t2 - t1)
    point = statistics.fmean(point_ns)
    return {
        "simulation.estimate.point_us": point / 1e3,
        "simulation.estimate.us_per_replicate":
            (statistics.fmean(full_ns) - point) / REPLICATES / 1e3,
    }


class Workload:
    """One named workload: inputs from a seed, one op, its checks."""

    name = ""
    # Ops come in cycles of this length (a rotation of invocations); a run
    # ends only on a complete cycle so its op mix is fixed.
    cycle = 1

    def __init__(self, seed: int, workdir: str) -> None:
        self.workdir = workdir

    def warm_up(self) -> None:
        raise NotImplementedError

    def op(self, i: int, tr):
        raise NotImplementedError

    def check(self, i: int, result) -> None:
        raise NotImplementedError

    def probe(self) -> dict[str, float]:
        """Per-layer costs measured outside the op loop (traced run only)."""
        return {}

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _ExperimentWorkload(Workload):
    check_regime = False
    probe_tables = 32

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        self.specs: list[ExperimentSpec] = []
        self._tables: list = []

    def spec(self, i: int) -> ExperimentSpec:
        return self.specs[i % len(self.specs)]

    def op(self, i, tr):
        return run_experiment(tr, self.spec(i))

    def check(self, i, result):
        check_experiment(self.spec(i), result, self.check_regime)
        if len(self._tables) < self.probe_tables:
            self._tables.append(result.parsed)

    def probe(self):
        return _estimate_probe(self._tables, self.specs[0].boot_seed)


class Pipeline1e7(_ExperimentWorkload):
    """Experiments at 1e7 trials per context: a two-slit and an urn per op.

    Each op runs one experiment of each scenario.  With one experiment per
    op, latencies fall into two clusters and the median lands in the gap
    between them, where it swings with every slow or fast op.
    """

    name = "pipeline-1e7"
    check_regime = True
    trials = 10_000_000

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = random.Random(seed)
        for k in range(64):
            if k % 2 == 0:
                # lambda = cos(theta), about 0.5
                theta = math.acos(0.5) + rng.uniform(-0.05, 0.05)
                scenario = TwoSlitScenario(math.sqrt(0.3), math.sqrt(0.2), theta)
            else:
                # lambda = (0.9 - a - b) / (2 sqrt(ab)), about +3.5
                split = rng.uniform(0.4, 0.6)
                scenario = HyperbolicUrnScenario(
                    0.9 * split, 0.9 - 0.9 * split,
                    rng.uniform(0.098, 0.102), rng.uniform(0.098, 0.102),
                )
            self.specs.append(_spec(scenario, self.trials, rng))

    def warm_up(self):
        for spec in self.specs[:2]:
            run_experiment(NULL, ExperimentSpec(
                spec.scenario, 100_000, spec.sample_seed, spec.boot_seed,
                spec.labels, spec.true_regime))

    def op(self, i, tr):
        return [run_experiment(tr, self.spec(2 * i)), run_experiment(tr, self.spec(2 * i + 1))]

    def check(self, i, result):
        for k, experiment in enumerate(result):
            super().check(2 * i + k, experiment)


def _calibration_scenario(family: str, five_contexts: bool, rng: random.Random):
    if family == "trigonometric":
        return TwoSlitScenario(
            math.sqrt(rng.uniform(0.05, 0.25)), math.sqrt(rng.uniform(0.05, 0.25)),
            rng.uniform(0.3, 2.8),
        )
    if family == "hyperbolic+":
        # p_s >= 0.6 and a, b <= 0.12 give lambda >= 1.5
        p_s = rng.uniform(0.6, 0.95)
        split = rng.uniform(0.3, 0.7)
        return HyperbolicUrnScenario(
            p_s * split, p_s - p_s * split, rng.uniform(0.03, 0.12), rng.uniform(0.03, 0.12)
        )
    if family == "hyperbolic-":
        # a far from b leaves room below lambda = -1
        a = rng.uniform(0.4, 0.6)
        b = rng.uniform(0.02, 0.06)
        lo, _ = lambda_range(a, b)
        lam = -1.0 - (abs(lo) - 1.0) * rng.uniform(0.2, 0.8)
        p_s = float(reconstruct_probability(a, b, lam))
        if not five_contexts:
            return DirectScenario(p_s, a, b)
        split = rng.uniform(0.3, 0.7)
        return DirectScenario(p_s, a, b, p_s * split, p_s - p_s * split)
    if family == "boundary":
        # |lambda| = 1 +- eps
        eps = rng.choice((1e-3, 1e-2)) * rng.choice((-1.0, 1.0))
        if rng.random() < 0.5:
            a, b, lam = rng.uniform(0.05, 0.2), rng.uniform(0.05, 0.2), 1.0 + eps
        else:
            a, b, lam = rng.uniform(0.3, 0.5), rng.uniform(0.05, 0.1), -1.0 - eps
        return DirectScenario(float(reconstruct_probability(a, b, lam)), a, b)
    if family == "small-p":
        a = rng.uniform(0.01, 0.02)
        b = rng.uniform(0.01, 0.3)
        lo, hi = lambda_range(a, b)
        lam = rng.uniform(max(lo, -3.0), min(hi, 3.0))
        return DirectScenario(float(reconstruct_probability(a, b, lam)), a, b)
    raise ValueError(family)


class CalibrationGrid(_ExperimentWorkload):
    """The experiment chain at 1e3 or 1e4 trials over a seeded scenario grid."""

    name = "calibration-grid"
    families = ("trigonometric", "hyperbolic+", "hyperbolic-", "boundary", "small-p")

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = random.Random(seed)
        # The seed sets the parameters, not the mix: every grid has the same
        # number of points per family, trial count and context count, so
        # seeds do not differ in cost.
        for k in range(50):
            j = k // len(self.families)
            family = self.families[k % len(self.families)]
            scenario = _calibration_scenario(family, j >= 5, rng)
            self.specs.append(_spec(scenario, (1_000, 10_000)[j % 2], rng))

    def warm_up(self):
        for spec in self.specs[: 2 * len(self.families)]:
            run_experiment(NULL, spec)


class ScalarSweep(Workload):
    """lambda_range, then 16 coefficients through the scalar calculus."""

    name = "scalar-sweep"
    steps = 16

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = random.Random(seed)
        self.pairs = [(rng.uniform(0.01, 0.99), rng.uniform(0.01, 0.99)) for _ in range(256)]

    def warm_up(self):
        for i in range(64):
            self.check(i, self.op(i, NULL))

    def op(self, i, tr):
        a, b = self.pairs[i % len(self.pairs)]
        lo, hi = tr.call("calculus.lambda_range", lambda_range, a, b)
        points = []
        for k in range(self.steps):
            lam = lo + (hi - lo) * k / (self.steps - 1)
            p_s = tr.call("calculus.reconstruct_probability", reconstruct_probability, a, b, lam)
            triple = tr.call("calculus.ContextTriple", ContextTriple, p_s, a, b)
            analysis = tr.call("calculus.analyze", analyze, triple)
            wave = tr.call("amplitudes.wave_from_analysis", wave_from_analysis, a, b, analysis)
            points.append((lam, float(p_s), analysis, wave))
        return points

    def check(self, i, result):
        expect(len(result) == self.steps, f"{len(result)} points")
        for lam, p_s, analysis, wave in result:
            expect(analysis.lam is not None and abs(analysis.lam - lam) <= IDENTITY_TOL,
                   f"lambda {lam!r} round-trips to {analysis.lam!r}")
            if isinstance(wave, ComplexAmplitude):
                modulus = wave.squared_modulus
                scale = 1.0
            else:
                modulus = wave.hyperbolic_modulus
                scale = wave.re * wave.re + wave.hy * wave.hy
            expect(abs(modulus - p_s) <= IDENTITY_TOL * max(scale, 1.0),
                   f"wave modulus {modulus!r} != p_s {p_s!r} at lambda {lam!r}")


# --- child processes ---------------------------------------------------------


class _ChildTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _ChildTimeout()


def spawn(argv: list[str], env: dict[str, str], out_path: str, err_path: str):
    """Run one child to completion; stdout and stderr go to files.

    Returns (exit code, wall time in ns, peak RSS in KiB).  One child runs
    at a time, and it is killed if it outlives CHILD_TIMEOUT_S.
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644),
    ]
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        start = time.perf_counter_ns()
        pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(pid, 0)
        except _ChildTimeout:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise TimeoutError(f"child {argv!r} ran over {CHILD_TIMEOUT_S} s") from None
        elapsed = time.perf_counter_ns() - start
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return os.waitstatus_to_exitcode(status), elapsed, usage.ru_maxrss


def _read(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def run_main(argv: list[str]) -> tuple[int, bytes]:
    """In-process ``cli.main(argv)``; returns its exit code and stdout bytes."""
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", write_through=True)
    stderr = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", write_through=True)
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = stdout, stderr
    try:
        code = cli.main(argv)
    finally:
        sys.stdout, sys.stderr = saved
    return code, stdout.buffer.getvalue()


def _importtime_ms(stderr: bytes) -> tuple[float, float]:
    """numpy's and ctxprob's own cumulative import time from -X importtime."""
    cumulative = {}
    for line in stderr.decode("utf-8", "replace").splitlines():
        if not line.startswith("import time:") or line.count("|") != 2:
            continue
        _, cum, name = line.split("|")
        name = name.strip()
        if cum.strip().isdigit():
            cumulative[name] = max(cumulative.get(name, 0), int(cum))
    numpy_us = cumulative.get("numpy", 0)
    ctxprob_us = max((us for name, us in cumulative.items()
                      if name == "ctxprob" or name.startswith("ctxprob.")), default=0)
    return numpy_us / 1e3, max(ctxprob_us - numpy_us, 0) / 1e3


class CliCold(Workload):
    """One fresh ``python -m ctxprob`` child per op, five invocations in turn."""

    name = "cli-cold"
    subcommands = ("range", "sweep", "analyze_direct", "analyze_counts", "simulate")
    cycle = len(subcommands)
    probe_repeats = 5

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = random.Random(seed)
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        self.env = {**os.environ, "PYTHONPATH": src}
        self.out_path = os.path.join(workdir, "child.out")
        self.err_path = os.path.join(workdir, "child.err")
        self.report_path = os.path.join(workdir, "report.json")
        a, b = rng.uniform(0.05, 0.45), rng.uniform(0.05, 0.45)
        lo, hi = lambda_range(a, b)
        # p(S) must stay in [0, 1]: lambda lies in the admissible range too
        lam = rng.uniform(max(lo, -0.9), min(hi, 0.9))
        p1, p2 = rng.uniform(0.05, 0.25), rng.uniform(0.05, 0.25)
        theta = rng.uniform(0.3, 2.8)
        counts_path = os.path.join(workdir, "counts.csv")
        table = sample_counts(TwoSlitScenario(math.sqrt(p1), math.sqrt(p2), theta),
                              10_000, rng.getrandbits(64))
        with open(counts_path, "wb") as handle:
            handle.write(write_counts(table))
        self.argvs = {
            "range": ["range", "--p1p", repr(a), "--p2p", repr(b)],
            "sweep": ["sweep", "--p1p", repr(a), "--p2p", repr(b),
                      "--lambda-min", repr(lo + 0.05 * (hi - lo)),
                      "--lambda-max", repr(hi - 0.05 * (hi - lo)), "--steps", "11"],
            "analyze_direct": ["analyze", "--p-s", repr(float(reconstruct_probability(a, b, lam))),
                               "--p1p", repr(a), "--p2p", repr(b)],
            "analyze_counts": ["analyze", counts_path, "--replicates", str(REPLICATES),
                               "--seed", str(rng.getrandbits(64)), "--output", self.report_path],
            "simulate": ["simulate", "two-slit", "--p1", repr(p1), "--p2", repr(p2),
                         "--theta", repr(theta), "--trials", "10000",
                         "--seed", str(rng.getrandbits(64))],
        }
        self.expected = {name: self._expected_output(name) for name in self.subcommands}
        self.max_child_rss_kib = 0

    def _expected_output(self, name: str) -> bytes:
        argv = list(self.argvs[name])
        if name == "analyze_counts":
            expected_path = os.path.join(self.workdir, "expected-report.json")
            argv[-1] = expected_path
            code, stdout = run_main(argv)
            expect(code == 0 and stdout == b"", f"in-process {name} failed")
            return _read(expected_path)
        code, stdout = run_main(argv)
        expect(code == 0, f"in-process {name} exited {code}")
        return stdout

    def _child_argv(self, name: str) -> list[str]:
        return [sys.executable, "-m", "ctxprob", *self.argvs[name]]

    def warm_up(self):
        self.check(0, self.op(0, NULL))

    def op(self, i, tr):
        name = self.subcommands[i % self.cycle]
        code, _, rss = tr.call(f"cli.cold.{name}", spawn, self._child_argv(name),
                               self.env, self.out_path, self.err_path)
        self.max_child_rss_kib = max(self.max_child_rss_kib, rss)
        return code

    def check(self, i, result):
        name = self.subcommands[i % self.cycle]
        expect(result == 0, f"{name} exited {result}: {_read(self.err_path)[-300:]!r}")
        output = _read(self.out_path)
        if name == "analyze_counts":
            expect(output == b"", f"{name} wrote to stdout")
            output = _read(self.report_path)
        expect(output == self.expected[name], f"{name} output differs from in-process cli.main")

    def peak_rss_mb(self):
        return self.max_child_rss_kib / 1024.0

    def _child_ms(self, argv: list[str]) -> tuple[float, bytes]:
        code, ns, _ = spawn(argv, self.env, self.out_path, self.err_path)
        expect(code == 0, f"{argv!r} exited {code}")
        return ns / 1e6, _read(self.err_path)

    def probe(self):
        n = self.probe_repeats
        metrics = {
            "cli.python_startup_ms": statistics.median(
                self._child_ms([sys.executable, "-c", "pass"])[0] for _ in range(n)),
        }
        imports = [_importtime_ms(self._child_ms(
            [sys.executable, "-X", "importtime", "-c", "import ctxprob.cli"])[1])
            for _ in range(n)]
        metrics["cli.import.numpy_ms"] = statistics.median(x[0] for x in imports)
        metrics["cli.import.ctxprob_own_ms"] = statistics.median(x[1] for x in imports)
        for name in self.subcommands:
            times = []
            for _ in range(n):
                t0 = time.perf_counter_ns()
                self._expected_output(name)
                times.append(time.perf_counter_ns() - t0)
            metrics[f"cli.main.{name}.warm_ms"] = statistics.median(times) / 1e6
        return metrics


WORKLOADS = {w.name: w for w in (Pipeline1e7, CalibrationGrid, ScalarSweep, CliCold)}
