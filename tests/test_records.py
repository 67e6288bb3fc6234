"""The contract every frozen record type of ctxprob keeps, however it is built.

Each record is built by keyword, as perfbench and the tests build them.  Its
``repr`` is ``Name(field=value!r, ...)``, which the byte digests hash; copies,
deep copies and pickles compare equal; equal records hash alike where their
fields are hashable; no field can be assigned or deleted; and ``vars`` lists
the fields in declaration order, which ``write_report`` writes.
"""

import copy
import dataclasses
import inspect
import pickle

import pytest

from ctxprob import amplitudes, calculus, data, simulation
from ctxprob.amplitudes import ComplexAmplitude, SplitComplexAmplitude
from ctxprob.calculus import (
    ContextTriple, Degenerate, DegenerateReason, Hyperbolic, TransitionAnalysis, Trigonometric,
    analyze,
)
from ctxprob.data import (
    AdditivityCheck, ContextSummary, CountFile, CountRow, CountTable, ReportDocument,
    Reproducibility,
)
from ctxprob.simulation import EstimationReport, report_from_triple

_TRIPLE = ContextTriple(p_s=0.5, p1_prime=0.3, p2_prime=0.15, p1=0.2, p2=0.3)
_ANALYSIS = analyze(_TRIPLE)
_ROWS = (
    CountRow(label="S", successes=900, trials=1000),
    CountRow(label="S1p", successes=100, trials=1000),
    CountRow(label="S2p", successes=150, trials=1000),
)
_DOCUMENT = report_from_triple(ContextTriple(0.9, 0.1, 0.1), seed=3)

RECORDS = [
    _TRIPLE,
    Trigonometric(theta=1.0),
    Hyperbolic(sign=-1, theta=1.5),
    Degenerate(reason=DegenerateReason.P1_PRIME_ZERO),
    TransitionAnalysis(delta=_ANALYSIS.delta, lam=_ANALYSIS.lam, regime=_ANALYSIS.regime),
    _ROWS[0],
    CountTable(rows=_ROWS),
    CountFile(table=CountTable(_ROWS), source="counts.csv",
              line_numbers={"S": 2, "S1p": 3, "S2p": 4}),
    AdditivityCheck(z_statistic=0.5, consistent=True),
    ContextSummary(p_hat=0.9, successes=900, trials=1000, interval=(0.88, 0.92)),
    Reproducibility(seed=1, replicates=1000, generator_name="x"),
    ReportDocument(**vars(_DOCUMENT)),
    ComplexAmplitude(re=0.6, im=0.8),
    SplitComplexAmplitude(re=2.0, hy=1.0),
    EstimationReport(point=_ANALYSIS, lambda_interval=(0.1, 0.3), context_intervals={"S": None},
                     regime_stability=0.9, theta_std=0.01, seed=1, replicates=10, confidence=0.95),
]


def _fields(record) -> dict:
    return {name: getattr(record, name) for name in type(record)._fields}


def test_records_cover_every_record_type():
    defined = {
        cls for module in (amplitudes, calculus, data, simulation)
        for _, cls in inspect.getmembers(module, inspect.isclass)
        if issubclass(cls, calculus._Record) and cls is not calculus._Record
        and cls.__module__ == module.__name__
    }
    assert defined == {type(record) for record in RECORDS}
    assert len(RECORDS) == 15


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: type(record).__name__)
def test_record_contract(record):
    cls = type(record)
    fields = _fields(record)
    assert cls(**fields) == record
    assert cls.__match_args__ == tuple(fields)
    assert repr(record) == f"{cls.__name__}({', '.join(f'{k}={v!r}' for k, v in fields.items())})"
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is cls and twin == record
        assert list(vars(twin)) == list(fields)
    try:
        hash(tuple(fields.values()))
    except TypeError:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(cls(**fields)) == hash(record)
    for name, value in fields.items():
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, value)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, name)
    assert list(vars(record)) == list(fields)
