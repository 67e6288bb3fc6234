"""Import layering: the pure-Python layers never reach numpy or the upper layers.

``calculus``, ``amplitudes``, ``errors`` and ``data`` (which owns the count
model) must stay importable without numpy and must not depend on the
sampling layer (``simulation``) or the command line (``cli``).  The check
reads each module's source with :mod:`ast`, so it also catches imports
placed inside functions.  The same ``ast`` walk checks that the 1e-12
round-off slack is written once, as ``calculus.ROUND_OFF``, that the
whole-number test ``x % 1`` is written once, in ``data._whole``, that
lambda's normalizer ``2.0 * sqrt(a * b)`` and its boundary test
``abs(lam) <= 1.0`` are written once, in the transition kernel of
``calculus``, that an analysis becomes a ``ReportDocument`` in one place,
the report builders' shared assembly, and that every record stores its
fields once, in its own ``__init__``: no ``__post_init__`` and no
``object.__setattr__`` anywhere in the package.  No record is a dataclass:
no module applies ``@dataclass`` or imports ``dataclasses`` at import time.
Nor does any module call a BLAS-backed numpy routine or use ``@``, which is
why ``cli.run`` alone asks OpenBLAS for one thread.  Every public name is
used by another part of the package or by the benchmark workloads, so none
serves only a demo.

At run time, only sampling and the bootstrap load numpy: ``range``,
``sweep`` and direct-mode ``analyze`` run in a fresh interpreter without it,
and without ``dataclasses`` or ``inspect``; no subcommand loads ``dataclasses``.
``import ctxprob`` alone loads no submodule, and ``range`` and ``sweep`` load
only the calculus layer.
"""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ctxprob
from ctxprob import calculus, cli, data, simulation

PACKAGE_DIR = Path(ctxprob.__file__).parent
LOWER_LAYERS = ("calculus", "amplitudes", "errors", "data")
FORBIDDEN = {"numpy", "ctxprob.simulation", "ctxprob.cli"}


def _imported_modules(source: str) -> set[str]:
    """Absolute names of every module a source file imports, anywhere in it."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "ctxprob" + ("." + base if base else "")
            found.add(base)
            # "from . import cli" and "from ctxprob import simulation" name modules too
            found.update(f"{base}.{alias.name}" for alias in node.names)
    return found


def _is_forbidden(module: str) -> bool:
    return any(module == f or module.startswith(f + ".") for f in FORBIDDEN)


@pytest.mark.parametrize("name", LOWER_LAYERS)
def test_lower_layer_imports_neither_numpy_nor_upper_layers(name):
    source = (PACKAGE_DIR / f"{name}.py").read_text(encoding="utf-8")
    offending = sorted(m for m in _imported_modules(source) if _is_forbidden(m))
    assert offending == [], f"ctxprob.{name} imports {offending}"


@pytest.mark.parametrize(
    "source",
    [
        "import numpy as np",
        "from numpy.random import Generator",
        "from .simulation import CountRow",
        "from . import cli",
        "def f():\n    from ctxprob.simulation import estimate",
    ],
)
def test_detector_flags_each_import_form(source):
    assert any(_is_forbidden(m) for m in _imported_modules(source))


def test_one_round_off_literal():
    """The 1e-12 slack is written once, at calculus.ROUND_OFF; every other use names it."""
    places = [
        (path.name, node.lineno)
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and type(node.value) is float and node.value == 1e-12
    ]
    assert [name for name, _ in places] == ["calculus.py"], places


def _int_of(node) -> str | None:
    """The dumped argument of an ``int(arg)`` call, else None."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "int":
        return ast.dump(node.args[0]) if len(node.args) == 1 else None
    return None


def _int_round_trips(source: str) -> list[int]:
    """Lines comparing ``int(x)``, or a name bound to it, with ``x`` itself."""
    tree = ast.parse(source)
    bound = {  # (name, argument) of every "name = int(argument)"
        (node.targets[0].id, _int_of(node.value))
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
    }
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare) and isinstance(node.ops[0], (ast.Eq, ast.NotEq)):
            a, b = node.left, node.comparators[0]
            for x, y in ((a, b), (b, a)):
                arg = ast.dump(y)
                if _int_of(x) == arg or (isinstance(x, ast.Name) and (x.id, arg) in bound):
                    lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("source", ["if int(x) != x: pass", "n = int(x)\nif n != x: pass"])
def test_detector_flags_each_int_round_trip(source):
    assert _int_round_trips(source) == [source.count("\n") + 1]


def test_one_whole_number_check():
    """``x % 1`` is written once, in data._whole, and ``int(x) != x`` nowhere."""
    places, round_trips = [], []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        places += [
            (path.name, node.lineno)
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
            and isinstance(node.right, ast.Constant) and node.right.value == 1
        ]
        round_trips += [(path.name, line) for line in _int_round_trips(source)]
    lines, start = inspect.getsourcelines(data._whole)
    assert [(name, start <= line < start + len(lines)) for name, line in places] == [
        ("data.py", True)
    ], places
    assert round_trips == []


def _is_call_to(node, name: str) -> bool:
    """Whether ``node`` calls ``name(...)``, as a bare name or an attribute such as ``np.name``."""
    return isinstance(node, ast.Call) and (
        getattr(node.func, "id", None) == name or getattr(node.func, "attr", None) == name
    )


def _calls_to(name: str, source: str) -> list[int]:
    """Lines that call ``name(...)``, as a bare name or an attribute."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if _is_call_to(node, name)]


@pytest.mark.parametrize("source", ["ReportDocument(1)", "data.ReportDocument(**f)"])
def test_detector_flags_each_call_form(source):
    assert _calls_to("ReportDocument", source) == [1]


def _inside(function, line: int) -> bool:
    lines, start = inspect.getsourcelines(function)
    return start <= line < start + len(lines)


def test_one_report_assembly():
    """An analysis becomes a ReportDocument in one place, simulation._report.

    The only other call is the reader's, data._read_document, which builds a
    document from parsed fields rather than from an analysis.
    """
    places = [
        (path.name, line)
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for line in _calls_to("ReportDocument", path.read_text(encoding="utf-8"))
    ]
    assert [
        (name, _inside(data._read_document if name == "data.py" else simulation._report, line))
        for name, line in places
    ] == [("data.py", True), ("simulation.py", True)], places


def _rule_restatements(source: str) -> tuple[list[int], list[int]]:
    """Lines of every ``2.0 * sqrt(x * y)`` and of every ``abs(x) <= 1.0``."""
    normalizers, boundaries = [], []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
                and isinstance(node.left, ast.Constant) and node.left.value == 2.0
                and _is_call_to(node.right, "sqrt") and len(node.right.args) == 1
                and isinstance(node.right.args[0], ast.BinOp)
                and isinstance(node.right.args[0].op, ast.Mult)):
            normalizers.append(node.lineno)
        if (isinstance(node, ast.Compare) and _is_call_to(node.left, "abs")
                and isinstance(node.ops[0], ast.LtE) and isinstance(node.comparators[0], ast.Constant)
                and node.comparators[0].value == 1.0):
            boundaries.append(node.lineno)
    return normalizers, boundaries


@pytest.mark.parametrize(
    "source, found",
    [
        ("d = 2.0 * math.sqrt(a * b)", ([1], [])),
        ("p = a + b + 2.0 * np.sqrt(x * y) * lam", ([1], [])),
        ("if abs(lam) <= 1.0: pass", ([], [1])),
        ("same = np.abs(lam_b) <= 1.0", ([], [1])),
    ],
)
def test_detector_flags_each_rule_form(source, found):
    assert _rule_restatements(source) == found


def test_one_transition_rule():
    """The normalizer and the boundary test are written once each, in calculus's kernel."""
    normalizers, boundaries = [], []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        lines = _rule_restatements(path.read_text(encoding="utf-8"))
        normalizers += [(path.name, line) for line in lines[0]]
        boundaries += [(path.name, line) for line in lines[1]]
    assert [name for name, _ in normalizers] == ["calculus.py"], normalizers
    assert [name for name, _ in boundaries] == ["calculus.py"], boundaries
    assert _inside(calculus._normalizer, normalizers[0][1])
    assert _inside(calculus._same_regime, boundaries[0][1])


# numpy routines that call BLAS; no command needs one, so the CLI starts no BLAS thread pool.
_BLAS = ("linalg", "dot", "vdot", "matmul", "inner", "outer", "tensordot", "einsum", "kron")


def _blas_uses(source: str) -> list[int]:
    """Lines that call, import or reach a BLAS-backed numpy routine, or use ``@``."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or ""] + [alias.name for alias in node.names]
            if any(part in _BLAS for name in names for part in name.split(".")):
                lines.add(node.lineno)
        if (any(_is_call_to(node, name) for name in _BLAS)
                or isinstance(node, ast.Attribute) and node.attr == "linalg"
                or isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)):
            lines.add(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize(
    "source",
    [
        "x = np.dot(a, b)",
        "x = a.dot(b)",
        "n = np.linalg.norm(v)",
        "from numpy.linalg import norm",
        "from numpy import einsum",
        "import numpy.linalg",
        "x = np.outer(a, b)",
        "x = a @ b",
        "a @= b",
    ],
)
def test_detector_flags_each_blas_form(source):
    assert _blas_uses(source) == [1]


def test_detector_ignores_a_name_that_is_not_a_call():
    assert _blas_uses("inner = pad + '  '\nline = f(v, inner)") == []


def test_no_blas_routine():
    """No module calls BLAS, and cli.run() alone asks OpenBLAS for one thread because of it."""
    found, requests = {}, []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = _blas_uses(source)
        if lines:
            found[path.name] = lines
        requests += [
            (path.name, node.lineno)
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Constant) and node.value == "OPENBLAS_NUM_THREADS"
        ]
    assert found == {}
    assert [name for name, _ in requests] == ["cli.py"], requests
    assert _inside(cli.run, requests[0][1])


def _second_stores(source: str) -> tuple[list[int], list[int]]:
    """Lines of every ``__post_init__`` definition and of every ``object.__setattr__``."""
    post_inits, setattrs = [], []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and node.name == "__post_init__":
            post_inits.append(node.lineno)
        if (isinstance(node, ast.Attribute) and node.attr == "__setattr__"
                and isinstance(node.value, ast.Name) and node.value.id == "object"):
            setattrs.append(node.lineno)
    return post_inits, setattrs


@pytest.mark.parametrize(
    "source, found",
    [
        ("def __post_init__(self):\n    pass", ([1], [])),
        ("class A:\n    def __post_init__(self) -> None:\n        pass", ([2], [])),
        ("object.__setattr__(self, 'theta', 1.0)", ([], [1])),
        ("store = object.__setattr__", ([], [1])),
    ],
)
def test_detector_flags_each_second_store(source, found):
    assert _second_stores(source) == found


def test_records_store_each_field_once():
    """A record checks and stores its fields in its own __init__, with no store after it."""
    found = {}
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        post_inits, setattrs = _second_stores(path.read_text(encoding="utf-8"))
        if post_inits or setattrs:
            found[path.name] = post_inits, setattrs
    assert found == {}


def _dataclass_uses(source: str) -> tuple[list[int], list[int]]:
    """Lines of every ``dataclass`` decorator and ``dataclasses`` import, and of the allowed ones.

    The one allowed form is a ``from dataclasses import FrozenInstanceError`` inside
    a function, which loads ``dataclasses`` only when it runs.
    """
    tree = ast.parse(source)
    in_function = {id(node) for function in ast.walk(tree) if isinstance(function, ast.FunctionDef)
                   for node in ast.walk(function)}
    uses, allowed = [], []
    for node in ast.walk(tree):
        for decorator in getattr(node, "decorator_list", ()):
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
                uses.append(decorator.lineno)
        if isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
            frozen_error = [alias.name for alias in node.names] == ["FrozenInstanceError"]
            (allowed if frozen_error and id(node) in in_function else uses).append(node.lineno)
        if isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names):
            uses.append(node.lineno)
    return sorted(uses), allowed


@pytest.mark.parametrize(
    "source, found",
    [
        ("@dataclass\nclass A:\n    x: int", ([1], [])),
        ("@dataclass(frozen=True)\nclass A:\n    x: int", ([1], [])),
        ("@dataclasses.dataclass\nclass A:\n    x: int", ([1], [])),
        ("@dataclasses.dataclass(frozen=True, init=False)\nclass A:\n    x: int", ([1], [])),
        ("import dataclasses", ([1], [])),
        ("from dataclasses import dataclass", ([1], [])),
        ("from dataclasses import FrozenInstanceError", ([1], [])),
        ("def f():\n    from dataclasses import fields", ([2], [])),
        ("def f():\n    import dataclasses", ([2], [])),
        ("class A:\n    def f(self):\n        from dataclasses import FrozenInstanceError", ([], [3])),
    ],
)
def test_detector_flags_each_dataclass_form(source, found):
    assert _dataclass_uses(source) == found


def test_no_dataclass():
    """No record is a dataclass: importing ctxprob compiles no generated method.

    The one ``dataclasses`` reference is the frozen error that ``calculus._Record``
    imports when a record is assigned to or deleted from.
    """
    found, allowed = {}, []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        uses, local = _dataclass_uses(path.read_text(encoding="utf-8"))
        if uses:
            found[path.name] = uses
        allowed += [(path.name, _inside(calculus._Record, line)) for line in local]
    assert found == {}
    assert allowed == [("calculus.py", True)] * 2, allowed


def _loaded_names(source: str) -> set[str]:
    """Names a module loads, bare or as an attribute, outside the top-level statement defining each.

    Imports and assignment targets store a name rather than load it, so they do not count.
    """
    found = set()
    for statement in ast.parse(source).body:
        if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
            defined = {statement.name}
        else:  # an assignment defines its targets
            defined = {node.id for node in ast.walk(statement)
                       if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
        found |= {
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(statement)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
        } - defined
    return found


@pytest.mark.parametrize(
    "source, used",
    [
        ("point = analyze(triple)", True),
        ("point = calculus.analyze(triple)", True),
        ("def f(run=analyze):\n    pass", True),
        ("from .calculus import analyze", False),
        ("analyze = None", False),
        ("def analyze(triple):\n    return analyze(triple.parent)", False),
        ("analyze = wrap(run)\npoint = analyze(triple)", True),
        ("analyze = wrap(analyze)", False),
        ("name = 'analyze'", False),
    ],
)
def test_detector_flags_each_use_form(source, used):
    assert ("analyze" in _loaded_names(source)) is used


def test_every_export_has_a_caller():
    """Every public name is used by another part of the package or by the benchmark workloads.

    A name that only demos and its own tests use belongs in the demo, not in the package.
    """
    workloads = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    used = {
        alias.name
        for node in ast.walk(ast.parse(workloads.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.module == "ctxprob" and not node.level
        for alias in node.names
    }
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name != "__init__.py":
            used |= _loaded_names(path.read_text(encoding="utf-8"))
    assert sorted(set(ctxprob.__all__) - used) == []


# The closed-form subcommands never draw, so they must not pay for importing numpy;
# no subcommand pays for dataclasses.
_PROBE = """
import sys
from ctxprob import cli
code = cli.main(sys.argv[1:])
print(*sorted(m for m in sys.modules if m.partition(".")[0] == "ctxprob"), file=sys.stderr)
print("numpy-loaded" if "numpy" in sys.modules else "numpy-absent", code, file=sys.stderr)
print(*(m + ("-loaded" if m in sys.modules else "-absent") for m in ("dataclasses", "inspect")),
      file=sys.stderr)
"""


def _probe(argv: list[str], source: str = _PROBE) -> list[str]:
    """Run ``source`` with ``argv`` in a fresh interpreter; return its stderr lines."""
    env = dict(os.environ)
    path = [str(PACKAGE_DIR.parent), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in path if p)
    done = subprocess.run(
        [sys.executable, "-c", source, *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stderr.splitlines()


def _numpy_after_main(argv: list[str]) -> str:
    """Run ``cli.main(argv)`` in a fresh interpreter; report whether numpy got loaded."""
    return _probe(argv)[-2]


def test_import_ctxprob_loads_no_submodule():
    source = ("import sys, ctxprob\n"
              "print(*(m for m in sys.modules if 'ctxprob' in m), file=sys.stderr)")
    assert _probe([], source) == ["ctxprob"]


_CLOSED_FORM = {
    "range": ["range", "--p1p", "0.1", "--p2p", "0.1"],
    "sweep": ["sweep", "--p1p", "0.1", "--p2p", "0.1", "--lambda-min", "-1", "--lambda-max", "4",
              "--steps", "11"],
    "analyze-direct": ["analyze", "--p-s", "0.9", "--p1p", "0.1", "--p2p", "0.1"],
}


@pytest.mark.parametrize("name", ["range", "sweep"])
def test_closed_form_subcommands_load_only_the_calculus(name):
    loaded, numpy = _probe(_CLOSED_FORM[name])[-3:-1]
    assert loaded.split() == ["ctxprob", "ctxprob.calculus", "ctxprob.cli", "ctxprob.errors"]
    assert numpy == "numpy-absent 0"


@pytest.mark.parametrize("name", list(_CLOSED_FORM))
def test_closed_form_subcommands_never_import_numpy(name):
    assert _numpy_after_main(_CLOSED_FORM[name]) == "numpy-absent 0"


_SIMULATE = ["simulate", "direct", "--p-s", "0.9", "--p1p", "0.1", "--p2p", "0.1", "--trials", "100"]
_COUNTS = "context,successes,trials\nS,900,1000\nS1p,100,1000\nS2p,100,1000\n"


def test_simulate_imports_numpy():
    assert _numpy_after_main(_SIMULATE) == "numpy-loaded 0"


def test_analyze_of_counts_imports_numpy(tmp_path):
    counts = tmp_path / "counts.csv"
    counts.write_text(_COUNTS)
    assert _numpy_after_main(["analyze", str(counts), "--replicates", "10"]) == "numpy-loaded 0"


@pytest.mark.parametrize("name", [*_CLOSED_FORM, "analyze-counts", "simulate"])
def test_no_subcommand_loads_dataclasses(name, tmp_path):
    """No subcommand loads dataclasses, nor inspect unless numpy, which loads it itself, comes."""
    counts = tmp_path / "counts.csv"
    counts.write_text(_COUNTS)
    argv = {**_CLOSED_FORM, "simulate": _SIMULATE,
            "analyze-counts": ["analyze", str(counts), "--replicates", "10"]}[name]
    dataclasses, inspect_ = _probe(argv)[-1].split()
    assert dataclasses == "dataclasses-absent"
    if name in _CLOSED_FORM:
        assert inspect_ == "inspect-absent"
