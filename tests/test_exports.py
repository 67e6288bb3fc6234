"""The package surface: 56 public names, each the object its home module defines.

``ctxprob`` lists every public name once and imports its home module on first
use, so this pin is the check that nothing was dropped, added or rebound.
"""

import importlib
import inspect

import pytest

import ctxprob

EXPORTS = {
    "calculus": [
        "ContextTriple", "Degenerate", "DegenerateReason", "Hyperbolic", "Probability",
        "ROUND_OFF", "Regime", "TransitionAnalysis", "Trigonometric", "analyze", "classify",
        "lambda_range", "reconstruct_probability",
    ],
    "amplitudes": [
        "ComplexAmplitude", "SplitComplexAmplitude", "hyper_wave", "trig_wave",
        "wave_from_analysis",
    ],
    "simulation": [
        "DirectScenario", "EstimationReport", "GENERATOR_NAME", "HyperbolicUrnScenario",
        "TwoSlitScenario", "estimate", "report_from_counts", "report_from_triple", "sample_counts",
        "scenario_truth",
    ],
    "data": [
        "AdditivityCheck", "CONTEXT_LABELS", "COUNTS_HEADER", "ContextSummary", "CountFile",
        "CountRow", "CountTable", "ParseErrorKind", "ReportDocument", "Reproducibility",
        "SCHEMA_VERSION", "WaveSummary", "additivity_check", "parse_counts", "parse_report",
        "write_bytes_atomic", "write_counts", "write_report",
    ],
    "errors": [
        "AdditivityViolation", "CtxprobError", "DegenerateDenominator", "DegenerateRegime",
        "DegenerateVariance", "InadmissibleLambda", "InvalidProbability", "InvalidScenario",
        "NonFinite", "ParseError",
    ],
}
NAMES = sorted(name for names in EXPORTS.values() for name in names)
HOMES = [(name, home) for home, names in EXPORTS.items() for name in names]


def test_all_lists_the_pinned_names_once():
    assert len(NAMES) == 56
    assert sorted(ctxprob.__all__) == NAMES


def test_star_import_binds_exactly_the_pinned_names():
    namespace = {}
    exec("from ctxprob import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == NAMES


@pytest.mark.parametrize("name, home", HOMES)
def test_name_is_the_object_its_home_defines(name, home):
    module = importlib.import_module(f"ctxprob.{home}")
    value = getattr(ctxprob, name)
    assert value is getattr(module, name)
    if (inspect.isclass(value) or inspect.isfunction(value)) and value.__name__ == name:
        assert value.__module__ == module.__name__  # not an alias such as DirectScenario
    assert vars(ctxprob)[name] is value  # cached after the first lookup


def test_dir_lists_every_export():
    assert set(NAMES) <= set(dir(ctxprob))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ctxprob.no_such_name


def test_submodule_import_falls_through():
    from ctxprob import cli

    assert cli is importlib.import_module("ctxprob.cli")
