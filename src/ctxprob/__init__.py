"""Contextual probability interference toolkit.

Transitions between experimental contexts perturb the additive composition
of probabilities.  This package computes the perturbation and its normalized
coefficient, classifies transitions as trigonometric or hyperbolic,
reconstructs the corresponding complex or split-complex waves, simulates
seeded multi-context experiments, and estimates the whole analysis from
finite count data with bootstrap uncertainty.
"""

# Each public name, listed once, under the module that defines it.  A name is
# imported on first use (PEP 562; the lazy-loading pattern of Scientific
# Python SPEC 1), so ``range`` and ``sweep`` load only the calculus layer.
_EXPORTS = {
    "calculus": (
        "ROUND_OFF", "ContextTriple", "Degenerate", "DegenerateReason", "Hyperbolic",
        "Probability", "Regime", "TransitionAnalysis", "Trigonometric", "analyze",
        "classify", "lambda_range", "reconstruct_probability",
    ),
    "amplitudes": (
        "ComplexAmplitude", "SplitComplexAmplitude", "hyper_wave", "trig_wave",
        "wave_from_analysis",
    ),
    "simulation": (
        "GENERATOR_NAME", "DirectScenario", "EstimationReport", "HyperbolicUrnScenario",
        "TwoSlitScenario", "estimate", "report_from_counts", "report_from_triple",
        "sample_counts", "scenario_truth",
    ),
    "data": (
        "CONTEXT_LABELS", "COUNTS_HEADER", "SCHEMA_VERSION", "AdditivityCheck",
        "ContextSummary", "CountFile", "CountRow", "CountTable", "ParseErrorKind",
        "ReportDocument", "Reproducibility", "WaveSummary", "additivity_check",
        "parse_counts", "parse_report", "write_bytes_atomic", "write_counts",
        "write_report",
    ),
    "errors": (
        "AdditivityViolation", "CtxprobError", "DegenerateDenominator",
        "DegenerateRegime", "DegenerateVariance", "InadmissibleLambda",
        "InvalidProbability", "InvalidScenario", "NonFinite", "ParseError",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        # Not an export: "from ctxprob import cli" then imports the submodule.
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
