"""Command-line interface.

Subcommands: ``analyze`` (count file or direct probabilities to a report),
``simulate`` (scenario to a count file, truth on stderr), ``sweep``
(reconstructed probability over a coefficient grid) and ``range``
(admissible coefficient bounds).  ``--output -`` means standard output;
file outputs are written atomically.  All numeric output carries 17
significant digits.

Exit codes: 0 success, 1 usage error, 2 data/parse error, 3 inadmissible
input.  Every failure prints one machine-parsable line to standard error:
``error: <kind>: <message>`` with kind in {usage, parse, io, inadmissible}.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Iterable

from .calculus import (
    ContextTriple,
    Hyperbolic,
    Probability,
    analyze,
    classify,
    lambda_range,
    reconstruct_probability,
)
from .errors import CtxprobError, InadmissibleLambda, NonFinite, ParseError

# range and sweep need only the calculus; each command imports the rest itself.
DEFAULT_SEED = 0
DEFAULT_REPLICATES = 1000
DEFAULT_CONFIDENCE = 0.95
DEFAULT_TRIALS = 10000
MAX_SWEEP_STEPS = 10**6


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _g17(x: float) -> str:
    return f"{float(x):.17g}"


def _add_run_options(parser, trials: bool = False) -> None:
    if trials:
        parser.add_argument("--trials", type=int, default=DEFAULT_TRIALS,
                            help=f"trials per context (default {DEFAULT_TRIALS})")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"64-bit generator seed (default {DEFAULT_SEED})")
    parser.add_argument("--output", default="-",
                        help="output path, or - for standard output (default -)")


def _build_parser() -> _Parser:
    parser = _Parser(prog="ctxprob",
                     description="Contextual probability interference toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="analyze a count file or direct probabilities")
    p.add_argument("counts", nargs="?",
                   help="count CSV path, or - for standard input")
    p.add_argument("--p-s", dest="p_s", type=float, help="combined-context probability")
    p.add_argument("--p1p", type=float, help="first post-transition probability")
    p.add_argument("--p2p", type=float, help="second post-transition probability")
    p.add_argument("--p1", type=float, help="first pre-transition subcontext probability")
    p.add_argument("--p2", type=float, help="second pre-transition subcontext probability")
    p.add_argument("--replicates", type=int,
                   help=f"count-file bootstrap replicates (default {DEFAULT_REPLICATES})")
    p.add_argument("--confidence", type=float,
                   help=f"count-file interval confidence (default {DEFAULT_CONFIDENCE})")
    _add_run_options(p)

    p = sub.add_parser("simulate", help="sample a scenario into a count file")
    scen = p.add_subparsers(dest="scenario", required=True)

    q = scen.add_parser("two-slit", help="two-path interference scenario")
    q.add_argument("--p1", type=float, required=True, help="first path probability")
    q.add_argument("--p2", type=float, required=True, help="second path probability")
    q.add_argument("--theta", type=float, required=True, help="relative phase in [0, pi]")
    _add_run_options(q, trials=True)

    q = scen.add_parser("hyperbolic-urn", help="strongly deviating transition scenario")
    q.add_argument("--p1", type=float, required=True)
    q.add_argument("--p2", type=float, required=True)
    q.add_argument("--p1p", type=float, required=True)
    q.add_argument("--p2p", type=float, required=True)
    _add_run_options(q, trials=True)

    q = scen.add_parser("direct", help="explicit context probabilities")
    q.add_argument("--p-s", dest="p_s", type=float, required=True)
    q.add_argument("--p1p", type=float, required=True)
    q.add_argument("--p2p", type=float, required=True)
    q.add_argument("--p1", type=float)
    q.add_argument("--p2", type=float)
    _add_run_options(q, trials=True)

    p = sub.add_parser("sweep", help="reconstruct probabilities over a coefficient grid")
    p.add_argument("--p1p", type=float, required=True)
    p.add_argument("--p2p", type=float, required=True)
    p.add_argument("--lambda-min", dest="lambda_min", type=float, required=True)
    p.add_argument("--lambda-max", dest="lambda_max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True,
                   help=f"grid size, from 2 to {MAX_SWEEP_STEPS}")
    p.add_argument("--output", default="-")

    p = sub.add_parser("range", help="print the admissible coefficient interval")
    p.add_argument("--p1p", type=float, required=True)
    p.add_argument("--p2p", type=float, required=True)

    return parser


def _check_seed_flag(seed: int) -> int:
    if not 0 <= seed < 2**64:
        raise _UsageError(f"--seed must be a 64-bit unsigned integer, got {seed}")
    return seed


def _flag_triple(args) -> ContextTriple:
    if (args.p1 is None) != (args.p2 is None):
        raise _UsageError("--p1 and --p2 must be given together")
    return ContextTriple(
        Probability(args.p_s, "--p-s"),
        Probability(args.p1p, "--p1p"),
        Probability(args.p2p, "--p2p"),
        None if args.p1 is None else Probability(args.p1, "--p1"),
        None if args.p2 is None else Probability(args.p2, "--p2"),
    )


def _read_input(path: str) -> bytes:
    """The first ``MAX_INPUT_BYTES + 1`` bytes of ``path``: enough for the parser to refuse more."""
    from .data import MAX_INPUT_BYTES

    if path == "-":
        return sys.stdin.buffer.read(MAX_INPUT_BYTES + 1)
    with open(path, "rb") as handle:
        return handle.read(MAX_INPUT_BYTES + 1)


def _write_output(path: str, chunks: Iterable[bytes]) -> None:
    if path == "-":
        for chunk in chunks:
            sys.stdout.buffer.write(chunk)
        sys.stdout.buffer.flush()
    else:
        from .data import write_bytes_atomic

        write_bytes_atomic(path, chunks)


def _cmd_analyze(args) -> int:
    from .data import parse_counts, write_report
    from .simulation import MAX_REPLICATES, report_from_counts, report_from_triple

    direct_flags = [args.p_s, args.p1p, args.p2p, args.p1, args.p2]
    file_mode = args.counts is not None
    if file_mode and any(v is not None for v in direct_flags):
        raise _UsageError("give a counts file or direct probabilities, not both")
    if not file_mode and any(v is None for v in (args.p_s, args.p1p, args.p2p)):
        raise _UsageError("direct mode requires --p-s, --p1p and --p2p")
    if not file_mode and (args.replicates is not None or args.confidence is not None):
        raise _UsageError("--replicates and --confidence apply only to a counts file")
    replicates = DEFAULT_REPLICATES if args.replicates is None else args.replicates
    confidence = DEFAULT_CONFIDENCE if args.confidence is None else args.confidence
    if replicates < 0:
        raise _UsageError(f"--replicates must be >= 0, got {replicates}")
    if replicates > MAX_REPLICATES:
        raise _UsageError(f"--replicates must be at most {MAX_REPLICATES}, got {replicates}")
    if not (0.0 < confidence < 1.0):
        raise _UsageError(f"--confidence must lie in (0, 1), got {confidence}")
    seed = _check_seed_flag(args.seed)

    if file_mode:
        source = "<stdin>" if args.counts == "-" else args.counts
        counts = parse_counts(_read_input(args.counts), source=source).table
        doc = report_from_counts(counts, replicates, confidence, seed)
    else:
        doc = report_from_triple(_flag_triple(args), seed)
    _write_output(args.output, (write_report(doc),))
    return 0


def _truth_line(truth: ContextTriple) -> str:
    parts = [
        f"p_s={_g17(truth.p_s)}",
        f"p1p={_g17(truth.p1_prime)}",
        f"p2p={_g17(truth.p2_prime)}",
    ]
    if truth.p1 is not None:
        parts.append(f"p1={_g17(truth.p1)}")
        parts.append(f"p2={_g17(truth.p2)}")
    analysis = analyze(truth)
    parts.append(f"delta={_g17(analysis.delta)}")
    regime = analysis.regime
    parts.append(f"regime={regime.kind}")
    if analysis.lam is not None:
        parts.append(f"lambda={_g17(analysis.lam)}")
        parts.append(f"theta={_g17(regime.theta)}")
        if isinstance(regime, Hyperbolic):
            parts.append(f"sign={regime.sign:+d}")
    return "truth " + " ".join(parts)


def _cmd_simulate(args) -> int:
    from .data import _INTEGER_BOUND, write_counts
    from .simulation import HyperbolicUrnScenario, TwoSlitScenario, sample_counts

    if not 1 <= args.trials < _INTEGER_BOUND:
        raise _UsageError(f"--trials must be >= 1 and below 2**63, got {args.trials}")
    seed = _check_seed_flag(args.seed)
    if args.scenario == "two-slit":
        p1 = Probability(args.p1, "--p1")
        p2 = Probability(args.p2, "--p2")
        scenario = TwoSlitScenario(
            a1_modulus=math.sqrt(p1), a2_modulus=math.sqrt(p2), phase=args.theta
        )
    elif args.scenario == "hyperbolic-urn":
        scenario = HyperbolicUrnScenario(
            p1=Probability(args.p1, "--p1"),
            p2=Probability(args.p2, "--p2"),
            p1_prime=Probability(args.p1p, "--p1p"),
            p2_prime=Probability(args.p2p, "--p2p"),
        )
    else:
        scenario = _flag_triple(args)
    table = sample_counts(scenario, args.trials, seed)
    _write_output(args.output, (write_counts(table),))
    print(_truth_line(scenario), file=sys.stderr)
    return 0


def _linspace(lo: float, hi: float, n: int):
    """The n-point grid from lo to hi, bit-identical to ``numpy.linspace(lo, hi, n)``.

    Point i is ``i * step + lo``; a step that underflows to zero falls back
    to ``i / (n - 1) * (hi - lo) + lo``, and the last point is ``hi`` itself.
    """
    div = n - 1
    delta = hi - lo
    step = delta / div
    for i in range(div):
        yield (i / div * delta if step == 0 else i * step) + lo
    yield hi


def _cmd_sweep(args) -> int:
    if args.steps < 2:
        raise _UsageError(f"--steps must be >= 2, got {args.steps}")
    if args.steps > MAX_SWEEP_STEPS:
        raise _UsageError(f"--steps must be at most {MAX_SWEEP_STEPS}, got {args.steps}")
    if not (args.lambda_min < args.lambda_max):
        raise _UsageError(
            f"--lambda-min must be strictly below --lambda-max, "
            f"got [{args.lambda_min}, {args.lambda_max}]"
        )
    a = Probability(args.p1p, "--p1p")
    b = Probability(args.p2p, "--p2p")
    lo, hi = lambda_range(a, b)
    # Reconstruction is monotone in lambda, so admissible endpoints admit every grid point.
    try:
        reconstruct_probability(a, b, args.lambda_min)
        reconstruct_probability(a, b, args.lambda_max)
    except (InadmissibleLambda, NonFinite):
        raise InadmissibleLambda(
            f"requested [{args.lambda_min}, {args.lambda_max}] exceeds the admissible "
            f"interval [{_g17(lo)}, {_g17(hi)}]"
        ) from None

    def lines():
        yield b"lambda,theta,regime,p_s\n"
        for lam in _linspace(args.lambda_min, args.lambda_max, args.steps):
            regime = classify(lam)
            p_s = reconstruct_probability(a, b, lam)
            yield f"{_g17(lam)},{_g17(regime.theta)},{regime.kind},{_g17(p_s)}\n".encode("utf-8")

    _write_output(args.output, lines())
    return 0


def _cmd_range(args) -> int:
    a = Probability(args.p1p, "--p1p")
    b = Probability(args.p2p, "--p2p")
    lo, hi = lambda_range(a, b)
    line = (
        f"lambda_min={_g17(lo)} lambda_max={_g17(hi)} "
        f"regime_at_min={classify(lo).kind} "
        f"regime_at_max={classify(hi).kind}"
    )
    print(line)
    return 0


_COMMANDS = {
    "analyze": _cmd_analyze,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "range": _cmd_range,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as e:
        print(f"error: usage: {e}", file=sys.stderr)
        return 1
    except ParseError as e:
        print(f"error: parse: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: io: {e}", file=sys.stderr)
        return 2
    except CtxprobError as e:
        print(f"error: inadmissible: {e}", file=sys.stderr)
        return 3


def run() -> None:
    # No command calls BLAS, so an OpenBLAS thread pool would only cost start-up time.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.exit(main())


if __name__ == "__main__":
    run()
