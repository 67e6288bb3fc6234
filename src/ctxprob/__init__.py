"""Contextual probability interference toolkit.

Transitions between experimental contexts perturb the additive composition
of probabilities.  This package computes the perturbation and its normalized
coefficient, classifies transitions as trigonometric or hyperbolic,
reconstructs the corresponding complex or split-complex waves, simulates
seeded multi-context experiments, and estimates the whole analysis from
finite count data with bootstrap uncertainty.
"""

from .calculus import (
    ROUND_OFF,
    ContextTriple,
    CorrespondencePoint,
    Degenerate,
    DegenerateReason,
    Hyperbolic,
    Probability,
    Regime,
    TransitionAnalysis,
    Trigonometric,
    analyze,
    classify,
    correspondence_scan,
    delta_componentwise,
    delta_from_reference,
    lambda_coefficient,
    lambda_range,
    reconstruct_probability,
)
from .amplitudes import (
    ComplexAmplitude,
    SplitComplexAmplitude,
    hyper_wave,
    trig_wave,
    wave_from_analysis,
)
from .simulation import (
    GENERATOR_NAME,
    DirectScenario,
    EstimationReport,
    HyperbolicUrnScenario,
    Scenario,
    TwoSlitScenario,
    estimate,
    sample_counts,
    scenario_truth,
    theta_recovery_error,
)
from .data import (
    CONTEXT_LABELS,
    COUNTS_HEADER,
    SCHEMA_VERSION,
    AdditivityCheck,
    ContextSummary,
    CountFile,
    CountRow,
    CountTable,
    ParseErrorKind,
    ReportDocument,
    Reproducibility,
    WaveSummary,
    additivity_check,
    parse_counts,
    parse_report,
    write_bytes_atomic,
    write_counts,
    write_report,
)
from .errors import (
    AdditivityViolation,
    CtxprobError,
    DegenerateDenominator,
    DegenerateRegime,
    DegenerateVariance,
    InadmissibleLambda,
    InvalidPerturbedProbability,
    InvalidProbability,
    InvalidScenario,
    NonFinite,
    ParseError,
    RegimeMismatch,
    ZeroTrials,
)

__version__ = "0.1.0"
