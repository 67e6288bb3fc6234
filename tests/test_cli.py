import io
import json
import math
import os
import random
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import ctxprob
from ctxprob import amplitudes, cli, data
from ctxprob.amplitudes import ComplexAmplitude, SplitComplexAmplitude
from ctxprob.calculus import ContextTriple, lambda_range, reconstruct_probability
from ctxprob.cli import main
from ctxprob.data import parse_counts, parse_report, write_report
from ctxprob.errors import DegenerateRegime, InadmissibleLambda
from ctxprob.simulation import report_from_counts, report_from_triple


def run_cli(capsysbinary, *argv):
    code = main(list(argv))
    captured = capsysbinary.readouterr()
    return code, captured.out, captured.err


class TestAnalyzeDirect:
    def test_hyperbolic_example(self, capsysbinary):
        code, out, err = run_cli(
            capsysbinary, "analyze", "--p-s", "0.9", "--p1p", "0.1", "--p2p", "0.1"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["lambda"] == pytest.approx(3.5, abs=1e-12)
        assert doc["regime"]["kind"] == "hyperbolic"
        assert doc["regime"]["sign"] == 1
        assert doc["regime"]["theta"] == pytest.approx(1.9248473002384139, abs=1e-12)
        assert doc["lambda_interval"] is None
        assert doc["wave"]["kind"] == "split-complex"

    def test_additive_example(self, capsysbinary):
        code, out, _ = run_cli(
            capsysbinary, "analyze", "--p-s", "0.5", "--p1p", "0.3", "--p2p", "0.2"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["lambda"] == 0.0
        assert doc["regime"]["kind"] == "trigonometric"
        assert doc["regime"]["theta"] == pytest.approx(math.pi / 2, abs=1e-15)

    def test_flag_formatting_is_irrelevant(self, capsysbinary):
        _, out1, _ = run_cli(
            capsysbinary, "analyze", "--p-s", "0.5", "--p1p", "0.3", "--p2p", "0.2"
        )
        _, out2, _ = run_cli(
            capsysbinary, "analyze", "--p-s", "0.50", "--p1p", "0.30", "--p2p", "0.20"
        )
        assert out1 == out2
        assert json.loads(out1)["delta"] == 0.0

    def test_degenerate_reference_reports_null(self, capsysbinary):
        code, out, _ = run_cli(
            capsysbinary, "analyze", "--p-s", "0.5", "--p1p", "0", "--p2p", "0.2"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["lambda"] is None
        assert doc["regime"]["kind"] == "degenerate"
        assert doc["wave"] is None

    def test_negative_zero_probability_is_written_as_zero(self, capsysbinary):
        argv = ["analyze", "--p-s", "0.5", "--p2p", "0.2", "--p1p"]
        code, out, _ = run_cli(capsysbinary, *argv, "-0")
        assert code == 0 and b'"p_hat": 0,' in out
        assert out == run_cli(capsysbinary, *argv, "0")[1]

    def test_out_of_range_probability_exits_3(self, capsysbinary):
        code, _, err = run_cli(
            capsysbinary, "analyze", "--p-s", "1.5", "--p1p", "0.1", "--p2p", "0.1"
        )
        assert code == 3
        assert err.startswith(b"error: inadmissible:")

    def test_subcontext_additivity_violation_exits_3(self, capsysbinary):
        code, _, err = run_cli(
            capsysbinary,
            "analyze", "--p-s", "0.9", "--p1p", "0.1", "--p2p", "0.1",
            "--p1", "0.1", "--p2", "0.1",
        )
        assert code == 3
        assert b"inadmissible" in err

    def test_usage_errors_exit_1(self, capsysbinary):
        assert run_cli(capsysbinary, "analyze")[0] == 1  # no input at all
        assert run_cli(capsysbinary, "analyze", "--p-s", "0.5")[0] == 1  # incomplete
        assert (
            run_cli(
                capsysbinary,
                "analyze", "--p-s", "0.5", "--p1p", "0.3", "--p2p", "0.2", "--p1", "0.3",
            )[0]
            == 1
        )  # --p1 without --p2
        assert run_cli(capsysbinary, "analyze", "--p-s", "abc", "--p1p", "0.3", "--p2p", "0.2")[0] == 1
        code, _, err = run_cli(capsysbinary, "nonsense")
        assert code == 1
        assert err.startswith(b"error: usage:")

    @pytest.mark.parametrize(
        "flags",
        [["--replicates", "5"], ["--replicates", "1000000000000"], ["--confidence", "0.9"]],
        ids=["replicates", "replicates-above-cap", "confidence"],
    )
    def test_bootstrap_flags_rejected(self, capsysbinary, flags):
        code, out, err = run_cli(
            capsysbinary, "analyze", "--p-s", "0.9", "--p1p", "0.1", "--p2p", "0.1", *flags
        )
        assert code == 1
        assert out == b""
        assert err == b"error: usage: --replicates and --confidence apply only to a counts file\n"


class TestErrorContract:
    def test_any_library_error_is_one_inadmissible_line(self, capsysbinary, monkeypatch):
        def raising(args):
            raise DegenerateRegime("boom")  # no command raises this one today

        monkeypatch.setitem(cli._COMMANDS, "range", raising)
        code, out, err = run_cli(capsysbinary, "range", "--p1p", "0.1", "--p2p", "0.1")
        assert (code, out, err) == (3, b"", b"error: inadmissible: boom\n")


class TestAnalyzeFile:
    def test_counts_file_with_output(self, capsysbinary, tmp_path):
        counts = tmp_path / "counts.csv"
        counts.write_text("context,successes,trials\nS,900,1000\nS1p,100,1000\nS2p,100,1000\n")
        out_path = tmp_path / "report.json"
        code, _, _ = run_cli(
            capsysbinary, "analyze", str(counts), "--seed", "3", "--output", str(out_path)
        )
        assert code == 0
        doc = parse_report(out_path.read_bytes())
        assert doc.lam == pytest.approx(3.5, abs=1e-12)
        assert doc.lambda_interval is not None
        assert doc.inputs["S"].successes == 900
        assert doc.reproducibility.replicates == 1000
        assert doc.additivity is None

    @pytest.mark.parametrize(
        "rows, wave_type",
        [("S,900,1000\nS1p,100,1000\nS2p,100,1000\n", SplitComplexAmplitude),
         ("S,500,1000\nS1p,300,1000\nS2p,150,1000\n", ComplexAmplitude)],
        ids=["hyperbolic", "trigonometric"],
    )
    def test_report_wave_is_the_amplitude(
        self, capsysbinary, tmp_path, monkeypatch, rows, wave_type
    ):
        made, written = [], []
        real = amplitudes.wave_from_analysis

        def spy(*args):
            made.append(real(*args))
            return made[-1]

        monkeypatch.setattr(amplitudes, "wave_from_analysis", spy)
        monkeypatch.setattr(data, "write_report", lambda doc: written.append(doc) or b"")
        counts = tmp_path / "counts.csv"
        counts.write_text("context,successes,trials\n" + rows)
        code, _, _ = run_cli(capsysbinary, "analyze", str(counts), "--replicates", "20")
        assert code == 0
        assert type(made[0]) is wave_type
        assert written[0].wave is made[0]

    def test_additivity_block_present_with_subcontexts(self, capsysbinary, tmp_path):
        counts = tmp_path / "counts.csv"
        counts.write_text(
            "context,successes,trials\nS,900,1000\nS1,400,1000\nS2,500,1000\n"
            "S1p,100,1000\nS2p,100,1000\n"
        )
        code, out, _ = run_cli(capsysbinary, "analyze", str(counts), "--replicates", "50")
        assert code == 0
        doc = json.loads(out)
        assert doc["additivity_check"]["present"] is True
        assert doc["additivity_check"]["z_statistic"] == 0.0
        assert doc["additivity_check"]["consistent"] is True

    def test_deterministically_violated_decomposition_exits_3(self, capsysbinary, tmp_path):
        counts = tmp_path / "counts.csv"
        counts.write_text(
            "context,successes,trials\nS,10,10\nS1,10,10\nS2,10,10\nS1p,1,10\nS2p,1,10\n"
        )
        code, _, err = run_cli(capsysbinary, "analyze", str(counts), "--replicates", "10")
        assert code == 3
        assert err.startswith(b"error: inadmissible:")

    def test_replicates_above_cap_exit_1(self, capsysbinary, tmp_path):
        counts = tmp_path / "counts.csv"
        counts.write_text("context,successes,trials\nS,900,1000\nS1p,100,1000\nS2p,100,1000\n")
        code, out, err = run_cli(
            capsysbinary, "analyze", str(counts), "--replicates", "1000000000000"
        )
        assert code == 1
        assert out == b""
        assert err == b"error: usage: --replicates must be at most 1000000, got 1000000000000\n"

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--replicates", "-1", "--replicates must be >= 0, got -1"),
            ("--confidence", "1.5", "--confidence must lie in (0, 1), got 1.5"),
            ("--seed", "-1", "--seed must be a 64-bit unsigned integer, got -1"),
        ],
    )
    def test_bad_run_flag_is_one_usage_line(self, capsysbinary, tmp_path, flag, value, message):
        counts = tmp_path / "counts.csv"
        counts.write_text("context,successes,trials\nS,900,1000\nS1p,100,1000\nS2p,100,1000\n")
        code, out, err = run_cli(capsysbinary, "analyze", str(counts), flag, value)
        assert (code, out, err) == (1, b"", f"error: usage: {message}\n".encode())

    def test_missing_file_exits_2(self, capsysbinary, tmp_path):
        code, _, err = run_cli(capsysbinary, "analyze", str(tmp_path / "nope.csv"))
        assert code == 2
        assert err.startswith(b"error: io:")

    def test_malformed_file_exits_2(self, capsysbinary, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("context,successes,trials\nS,11,10\n")
        code, _, err = run_cli(capsysbinary, "analyze", str(bad))
        assert code == 2
        assert err.startswith(b"error: parse:")
        assert b"line 2" in err

    def test_file_and_flags_conflict_exits_1(self, capsysbinary, tmp_path):
        counts = tmp_path / "counts.csv"
        counts.write_text("context,successes,trials\nS,9,10\nS1p,1,10\nS2p,1,10\n")
        code, _, _ = run_cli(capsysbinary, "analyze", str(counts), "--p-s", "0.5")
        assert code == 1


class TestSimulate:
    def test_two_slit_truth_line(self, capsysbinary, tmp_path):
        out_path = tmp_path / "counts.csv"
        code, _, err = run_cli(
            capsysbinary,
            "simulate", "two-slit", "--p1", "0.3", "--p2", "0.2",
            "--theta", "1.0471975511965976", "--trials", "20000", "--seed", "42",
            "--output", str(out_path),
        )
        assert code == 0
        truth = dict(
            field.split("=") for field in err.decode().strip().split()[1:]
        )
        assert float(truth["lambda"]) == pytest.approx(0.5, abs=1e-12)
        assert truth["regime"] == "trigonometric"
        text = out_path.read_text()
        assert text.startswith("context,successes,trials\n")
        assert len(text.strip().split("\n")) == 4  # header + S, S1p, S2p

    def test_destructive_interference_yields_zero_successes(self, capsysbinary, tmp_path):
        out_path = tmp_path / "counts.csv"
        code, _, _ = run_cli(
            capsysbinary,
            "simulate", "two-slit", "--p1", "0.5", "--p2", "0.5",
            "--theta", "3.1415927", "--trials", "1000", "--output", str(out_path),
        )
        assert code == 0
        s_row = out_path.read_text().strip().split("\n")[1]
        assert s_row == "S,0,1000"

    def test_urn_truth_line(self, capsysbinary, tmp_path):
        out_path = tmp_path / "counts.csv"
        code, _, err = run_cli(
            capsysbinary,
            "simulate", "hyperbolic-urn", "--p1", "0.4", "--p2", "0.5",
            "--p1p", "0.1", "--p2p", "0.1", "--trials", "1000", "--seed", "7",
            "--output", str(out_path),
        )
        assert code == 0
        truth = dict(field.split("=") for field in err.decode().strip().split()[1:])
        assert float(truth["lambda"]) == pytest.approx(3.5, abs=1e-12)
        assert truth["sign"] == "+1"
        assert len(out_path.read_text().strip().split("\n")) == 6  # header + 5 contexts

    def test_invalid_scenario_exits_3(self, capsysbinary):
        code, _, err = run_cli(
            capsysbinary,
            "simulate", "two-slit", "--p1", "0.5", "--p2", "0.5", "--theta", "0",
        )
        assert code == 3
        assert err.startswith(b"error: inadmissible:")
        code, _, _ = run_cli(
            capsysbinary,
            "simulate", "hyperbolic-urn", "--p1", "0.3", "--p2", "0.2",
            "--p1p", "0.3", "--p2p", "0.2",
        )
        assert code == 3

    def test_trials_at_count_file_bound(self, capsysbinary, monkeypatch):
        # 2**63 trials could not be written to a count file; the flag says so.
        argv = ["simulate", "direct", "--p-s", "0.5", "--p1p", "0.2", "--p2p", "0.2"]
        code, out, err = run_cli(capsysbinary, *argv, "--trials", str(2**63))
        assert code == 1 and out == b""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(b"error: usage: --trials")
        code, counts, _ = run_cli(capsysbinary, *argv, "--trials", str(2**63 - 1))
        assert code == 0
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(counts)))
        code, out, err = run_cli(capsysbinary, "analyze", "-", "--replicates", "10")
        assert code == 0 and err == b""
        assert json.loads(out)["inputs"]["S"]["trials"] == 2**63 - 1

    def test_negative_zero_probability_in_truth_line(self, capsysbinary):
        argv = ["simulate", "direct", "--p-s", "0.5", "--p2p", "0.2", "--trials", "10", "--p1p"]
        code, out, err = run_cli(capsysbinary, *argv, "-0")
        assert code == 0 and b" p1p=0 " in err
        assert (out, err) == run_cli(capsysbinary, *argv, "0")[1:]

    def test_direct_p1_without_p2_exits_1(self, capsysbinary):
        code, _, err = run_cli(
            capsysbinary,
            "simulate", "direct", "--p-s", "0.5", "--p1p", "0.2", "--p2p", "0.2", "--p1", "0.3",
        )
        assert code == 1
        assert err == b"error: usage: --p1 and --p2 must be given together\n"

    def test_counts_to_stdout(self, capsysbinary):
        code, out, _ = run_cli(
            capsysbinary,
            "simulate", "direct", "--p-s", "0.5", "--p1p", "0.25", "--p2p", "0.25",
            "--trials", "10",
        )
        assert code == 0
        assert out.startswith(b"context,successes,trials\n")


class TestUnwritableOutput:
    ARGV = {
        "analyze": ["analyze", "--p-s", "0.5", "--p1p", "0.25", "--p2p", "0.25"],
        "simulate": ["simulate", "direct", "--p-s", "0.5", "--p1p", "0.25", "--p2p", "0.25",
                     "--trials", "10"],
        "sweep": ["sweep", "--p1p", "0.25", "--p2p", "0.25", "--lambda-min", "-1",
                  "--lambda-max", "1", "--steps", "3"],
    }

    @pytest.mark.parametrize("target", ["missing-parent", "directory"])
    @pytest.mark.parametrize("command", sorted(ARGV))
    def test_one_io_line_naming_the_target(self, capsysbinary, tmp_path, command, target):
        # one line: simulate's truth line is printed only after a successful write
        out = tmp_path / "missing" / "x.out"
        if target == "directory":
            out = tmp_path / "out"
            out.mkdir()
        code, stdout, err = run_cli(capsysbinary, *self.ARGV[command], "--output", str(out))
        assert code == 2 and stdout == b""
        lines = err.decode().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: io: "), lines
        assert repr(str(out)) in lines[0] and ".ctxprob-" not in lines[0]
        assert list(tmp_path.rglob(".ctxprob-*")) == []


class TestPipeline:
    def test_regime_recovery_and_determinism(self, capsysbinary, tmp_path):
        counts = tmp_path / "counts.csv"
        reports = []
        for _ in range(2):
            code, _, err = run_cli(
                capsysbinary,
                "simulate", "two-slit", "--p1", "0.3", "--p2", "0.2",
                "--theta", "1.0471975511965976", "--trials", "100000", "--seed", "42",
                "--output", str(counts),
            )
            assert code == 0
            code, out, _ = run_cli(capsysbinary, "analyze", str(counts), "--seed", "11")
            assert code == 0
            reports.append(out)
        assert reports[0] == reports[1]
        doc = json.loads(reports[0])
        assert doc["regime"]["kind"] == "trigonometric"
        lo, hi = doc["lambda_interval"]
        assert lo <= 0.5 <= hi

    def test_report_builders_give_the_bytes_analyze_writes(self, capsysbinary, tmp_path):
        counts = (b"context,successes,trials\nS,900,1000\nS1,400,1000\nS2,500,1000\n"
                  b"S1p,100,1000\nS2p,90,1000\n")
        path = tmp_path / "counts.csv"
        path.write_bytes(counts)
        _, out, _ = run_cli(capsysbinary, "analyze", str(path), "--seed", "7")
        assert out == write_report(report_from_counts(parse_counts(counts).table, 1000, 0.95, 7))
        _, out, _ = run_cli(capsysbinary, "analyze", "--p-s", "0.9", "--p1p", "0.1", "--p2p", "0.1",
                            "--p1", "0.4", "--p2", "0.5", "--seed", "7")
        assert out == write_report(report_from_triple(ContextTriple(0.9, 0.1, 0.1, 0.4, 0.5), 7))


class TestSweep:
    def test_symmetric_quarter_grid(self, capsysbinary):
        code, out, _ = run_cli(
            capsysbinary,
            "sweep", "--p1p", "0.25", "--p2p", "0.25",
            "--lambda-min", "-1", "--lambda-max", "1", "--steps", "3",
        )
        assert code == 0
        lines = out.decode().strip().split("\n")
        assert lines[0] == "lambda,theta,regime,p_s"
        p_values = [float(line.split(",")[3]) for line in lines[1:]]
        assert p_values == [0.0, 0.5, 1.0]
        assert [line.split(",")[2] for line in lines[1:]] == ["trigonometric"] * 3

    def test_hyperbolic_grid(self, capsysbinary):
        code, out, _ = run_cli(
            capsysbinary,
            "sweep", "--p1p", "0.1", "--p2p", "0.1",
            "--lambda-min", "0", "--lambda-max", "4", "--steps", "2",
        )
        assert code == 0
        lines = out.decode().strip().split("\n")[1:]
        assert [float(line.split(",")[3]) for line in lines] == pytest.approx([0.2, 1.0], abs=1e-12)
        assert lines[1].split(",")[2] == "hyperbolic"

    def test_monotone_p_s(self, capsysbinary):
        code, out, _ = run_cli(
            capsysbinary,
            "sweep", "--p1p", "0.3", "--p2p", "0.2",
            "--lambda-min", "-1", "--lambda-max", "1", "--steps", "41",
        )
        assert code == 0
        p_values = [float(line.split(",")[3]) for line in out.decode().strip().split("\n")[1:]]
        assert all(x <= y for x, y in zip(p_values, p_values[1:]))

    def test_degenerate_grid_exits_1(self, capsysbinary):
        code, _, err = run_cli(
            capsysbinary,
            "sweep", "--p1p", "0.25", "--p2p", "0.25",
            "--lambda-min", "0.5", "--lambda-max", "0.5", "--steps", "2",
        )
        assert code == 1
        assert err.startswith(b"error: usage:")

    def test_too_few_steps_exits_1(self, capsysbinary):
        code, _, _ = run_cli(
            capsysbinary,
            "sweep", "--p1p", "0.25", "--p2p", "0.25",
            "--lambda-min", "0", "--lambda-max", "1", "--steps", "1",
        )
        assert code == 1

    def test_steps_above_cap_exit_1(self, capsysbinary):
        code, out, err = run_cli(
            capsysbinary,
            "sweep", "--p1p", "0.25", "--p2p", "0.25",
            "--lambda-min", "0", "--lambda-max", "1", "--steps", "1000000000000",
        )
        assert code == 1
        assert out == b""
        assert err == b"error: usage: --steps must be at most 1000000, got 1000000000000\n"

    def test_lambda_column_matches_numpy_linspace(self, capsysbinary):
        rng = random.Random(4)
        # a span of one subnormal over 3 steps has a zero step: the fallback branch
        cases = [(0.25, 0.25, 0.0, 5e-324, 3), (0.25, 0.25, -1.0, 1.0, 2)]
        for _ in range(40):
            a, b = rng.uniform(0.01, 0.99), rng.uniform(0.01, 0.99)
            lo, hi = lambda_range(a, b)
            x, y = sorted(rng.uniform(lo, hi) for _ in range(2))
            cases.append((a, b, x, y, rng.choice([2, 3, 11, rng.randint(2, 200)])))
        for a, b, x, y, steps in cases:
            code, out, _ = run_cli(
                capsysbinary,
                "sweep", "--p1p", repr(a), "--p2p", repr(b),
                "--lambda-min", repr(x), "--lambda-max", repr(y), "--steps", str(steps),
            )
            assert code == 0
            column = [float(line.split(",")[0]) for line in out.decode().split("\n")[1:-1]]
            expected = np.linspace(x, y, steps).tolist()
            assert [struct.pack("d", v) for v in column] == [struct.pack("d", v) for v in expected]

    def test_out_of_range_interval_exits_3(self, capsysbinary):
        code, _, err = run_cli(
            capsysbinary,
            "sweep", "--p1p", "0.25", "--p2p", "0.25",
            "--lambda-min", "-1", "--lambda-max", "1.5", "--steps", "3",
        )
        assert code == 3
        assert err.startswith(b"error: inadmissible:")

    def test_zero_reference_exits_3(self, capsysbinary):
        code, _, _ = run_cli(
            capsysbinary,
            "sweep", "--p1p", "0", "--p2p", "0.25",
            "--lambda-min", "0", "--lambda-max", "1", "--steps", "2",
        )
        assert code == 3

    def test_endpoint_beyond_round_off_names_the_interval(self, capsysbinary):
        # 2*sqrt(a*b) = 2, so ROUND_OFF in p_s is half of ROUND_OFF in lambda
        code, out, err = run_cli(
            capsysbinary,
            "sweep", "--p1p", "1", "--p2p", "1",
            "--lambda-min", "-1.0000000000009", "--lambda-max", "-0.5", "--steps", "2",
        )
        assert code == 3 and out == b""
        assert err == (b"error: inadmissible: requested [-1.0000000000009, -0.5] exceeds "
                       b"the admissible interval [-1, -0.5]\n")

    def test_infinite_endpoint_names_the_interval(self, capsysbinary):
        code, _, err = run_cli(
            capsysbinary,
            "sweep", "--p1p", "0.25", "--p2p", "0.25",
            "--lambda-min", "0", "--lambda-max", "inf", "--steps", "2",
        )
        assert code == 3
        assert err == (b"error: inadmissible: requested [0.0, inf] exceeds "
                       b"the admissible interval [-1, 1]\n")

    @pytest.mark.parametrize("a, b", [(1.0, 1.0), (0.25, 0.25), (0.01, 0.3)])
    @pytest.mark.parametrize("units", [0.25, 0.5, 1.5, 4.0])
    def test_endpoint_rule_is_reconstruction(self, capsysbinary, a, b, units):
        """sweep accepts an endpoint exactly when reconstruct_probability does."""
        lo, hi = lambda_range(a, b)
        slack = 1e-12 / (2 * math.sqrt(a * b))  # ROUND_OFF in lambda units
        for lam_min, lam_max in [(lo - units * slack, hi), (lo, hi + units * slack)]:
            try:
                reconstruct_probability(a, b, lam_min)
                reconstruct_probability(a, b, lam_max)
                expected = 0
            except InadmissibleLambda:
                expected = 3
            code, out, err = run_cli(
                capsysbinary,
                "sweep", "--p1p", repr(a), "--p2p", repr(b), "--lambda-min", repr(lam_min),
                "--lambda-max", repr(lam_max), "--steps", "5",
            )
            assert code == expected, err
            if code == 0:
                assert len(out.splitlines()) == 6
            else:
                assert b"exceeds the admissible interval" in err

    def test_output_is_streamed(self, tmp_path):
        import ctxprob.data  # noqa: F401  (its import is not the sweep's allocation)

        path = tmp_path / "sweep.csv"
        argv = ["sweep", "--p1p", "0.2", "--p2p", "0.3", "--lambda-min", "-1",
                "--lambda-max", "1", "--steps", "20000", "--output", str(path)]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert len(path.read_bytes().splitlines()) == 20001
        assert peak < size, (peak, size)


class TestRange:
    @pytest.mark.parametrize(
        "a,b,lo,hi,tag_min,tag_max",
        [
            ("0.25", "0.25", -1.0, 1.0, "trigonometric", "trigonometric"),
            ("0.1", "0.1", -1.0, 4.0, "trigonometric", "hyperbolic"),
            ("0.5", "0.5", -1.0, 0.0, "trigonometric", "trigonometric"),
        ],
    )
    def test_examples(self, capsysbinary, a, b, lo, hi, tag_min, tag_max):
        code, out, _ = run_cli(capsysbinary, "range", "--p1p", a, "--p2p", b)
        assert code == 0
        fields = dict(field.split("=") for field in out.decode().split())
        assert float(fields["lambda_min"]) == pytest.approx(lo, abs=1e-12)
        assert float(fields["lambda_max"]) == pytest.approx(hi, abs=1e-12)
        assert fields["regime_at_min"] == tag_min
        assert fields["regime_at_max"] == tag_max

    def test_zero_reference_exits_3(self, capsysbinary):
        code, _, err = run_cli(capsysbinary, "range", "--p1p", "0", "--p2p", "0.25")
        assert code == 3
        assert err.startswith(b"error: inadmissible:")


class TestAnalyzeStdinIntegerBounds:
    @pytest.mark.parametrize(
        "trials",
        ["9" * 5000, str(2**63)],
        ids=["beyond-int-digit-limit", "two-to-the-63"],
    )
    def test_out_of_range_count_exits_2(self, capsysbinary, monkeypatch, trials):
        counts = f"context,successes,trials\nS,1,{trials}\nS1p,1,10\nS2p,1,10\n"
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(counts.encode())))
        code, _, err = run_cli(capsysbinary, "analyze", "-", "--replicates", "10")
        assert code == 2
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(b"error: parse: ")


# A valid count file whose last line is a comment, so that padding it keeps it valid.
_CAPPED_COUNTS = b"context,successes,trials\nS,900,1000\nS1p,100,1000\nS2p,100,1000\n#"
_CAP = data.MAX_INPUT_BYTES


class TestInputCap:
    """A count file is read up to one byte past the cap; a longer one is refused unread."""

    @pytest.mark.parametrize("size", [_CAP, _CAP + 1, 8 * _CAP], ids=["at-cap", "past-cap", "8MiB"])
    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_count_file_cap(self, capsysbinary, monkeypatch, tmp_path, source, size):
        if source == "stdin":
            stdin = io.BytesIO(_CAPPED_COUNTS.ljust(size, b"x"))
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(stdin))
            path, name = "-", "<stdin>"
        else:
            path = name = str(tmp_path / "counts.csv")
            with open(path, "wb") as handle:
                handle.write(_CAPPED_COUNTS.ljust(min(size, _CAP + 1), b"x"))
                handle.truncate(size)  # the rest is a hole, which reads as zero bytes
        code, out, err = run_cli(capsysbinary, "analyze", path, "--replicates", "10")
        if size == _CAP:
            assert code == 0 and err == b"" and json.loads(out)["inputs"]["S"]["trials"] == 1000
        else:
            assert code == 2 and out == b""
            assert err == f"error: parse: line 1: {name}: input is longer than {_CAP} bytes\n".encode()
        if source == "stdin":
            assert stdin.tell() == min(size, _CAP + 1)


def _child_env() -> dict:
    """The environment with the imported package's directory first on PYTHONPATH."""
    env = dict(os.environ)
    path = [os.path.dirname(os.path.dirname(ctxprob.__file__)), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in path if p)
    return env


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "ctxprob", "analyze", "--p-s", "0.9", "--p1p", "0.1", "--p2p", "0.1"],
            capture_output=True,
            check=False,
            env=_child_env(),
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["lambda"] == pytest.approx(3.5, abs=1e-12)

    def test_module_invocation_usage_error(self):
        result = subprocess.run(
            [sys.executable, "-m", "ctxprob", "analyze"],
            capture_output=True,
            check=False,
            env=_child_env(),
        )
        assert result.returncode == 1
        assert result.stderr.startswith(b"error: usage:")

    @pytest.mark.parametrize("given, expected", [(None, "1"), ("4", "4")])
    def test_run_sets_one_blas_thread_unless_given(self, monkeypatch, given, expected):
        # setenv first, so that undoing the patch also removes what run() sets
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", given or "")
        if given is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS")
        seen = []
        monkeypatch.setattr(cli, "main", lambda: seen.append(os.environ["OPENBLAS_NUM_THREADS"]) or 0)
        with pytest.raises(SystemExit) as exited:
            cli.run()
        assert exited.value.code == 0
        assert seen == [expected]

    def test_main_leaves_the_environment_alone(self, capsysbinary, tmp_path):
        counts = tmp_path / "counts.csv"
        counts.write_text("context,successes,trials\nS,900,1000\nS1p,100,1000\nS2p,100,1000\n")
        before = dict(os.environ)
        for argv in (
            ["range", "--p1p", "0.1", "--p2p", "0.1"],
            ["sweep", "--p1p", "0.1", "--p2p", "0.1", "--lambda-min", "-1", "--lambda-max", "4",
             "--steps", "11"],
            ["analyze", "--p-s", "0.9", "--p1p", "0.1", "--p2p", "0.1"],
            ["analyze", str(counts), "--replicates", "10"],
            ["simulate", "two-slit", "--p1", "0.2", "--p2", "0.2", "--theta", "1", "--trials", "100"],
        ):
            assert run_cli(capsysbinary, *argv)[0] == 0, argv
            assert dict(os.environ) == before, argv

    def test_import_leaves_the_environment_alone(self):
        source = (
            "import os, pkgutil, importlib\n"
            "before = dict(os.environ)\n"
            "import ctxprob\n"
            "for module in pkgutil.iter_modules(ctxprob.__path__):\n"
            "    if module.name != '__main__':\n"
            "        importlib.import_module('ctxprob.' + module.name)\n"
            "print(dict(os.environ) == before)\n"
        )
        result = subprocess.run([sys.executable, "-c", source], capture_output=True, text=True,
                                check=True, env=_child_env())
        assert result.stdout == "True\n"


# Runs ``python -m ctxprob ARGV...`` and prints its OS thread count to stderr at exit.
_THREAD_PROBE = """
import atexit, os, runpy, sys
atexit.register(lambda: print("threads", len(os.listdir("/proc/self/task")), file=sys.stderr))
runpy.run_module("ctxprob", run_name="__main__", alter_sys=True)
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task") or (os.cpu_count() or 1) < 2,
                    reason="OpenBLAS starts no thread pool on one CPU; threads are read from /proc")
@pytest.mark.parametrize("given, threads", [(None, 1), ("2", 2)])
def test_simulate_child_starts_no_blas_pool_unless_asked(given, threads):
    env = _child_env()
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        env.pop(name, None)
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    argv = ["simulate", "two-slit", "--p1", "0.2", "--p2", "0.2", "--theta", "1", "--trials", "100"]
    result = subprocess.run([sys.executable, "-c", _THREAD_PROBE, *argv], capture_output=True,
                            text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stderr.splitlines()[-1] == f"threads {threads}"
