"""The benchmark's outside-in tracer must install cleanly against src/.

bench/tracing.py rebinds shared functions by name in several modules (for
example gfunction.frac, gfunction.g_exponent, suites.evaluate_g,
charsums.sum_h) and refuses to install if any of them is missing or is no
longer the same function object in every module that imports it.  A traced
run must also report exactly what an untraced one does.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from padichg import cli

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracing
tracer = tracing.install()
from padichg import cli
assert cli.run(cli.parse_args(["--p", "5", "--suite", "euler"])) == 0
names = {span[0] for span in tracer.spans}
# the suites read value tables, so the run's spans are the CLI, its job and the field build
assert {"cli.run", "suites.run_job", "finitefield.build"} <= names, names
"""


def test_tracer_installs_against_src():
    env = dict(os.environ, PYTHONPATH="")
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "bench")],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


GAMMA_FLOORS_SCRIPT = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracing
tracer = tracing.install()
from padichg import cli
for suite in ("gamma", "floors"):
    assert cli.run(cli.parse_args(["--p", "5", "--suite", suite])) == 0, suite
names = {span[0] for span in tracer.spans}
assert "rational.check_floor_identity_A" in names, names
"""


def test_tracer_runs_gamma_and_floors():
    # the tracer rebinds suites.frac, which the gamma suite no longer calls
    env = dict(os.environ, PYTHONPATH="")
    proc = subprocess.run(
        [sys.executable, "-c", GAMMA_FLOORS_SCRIPT, str(ROOT / "src"), str(ROOT / "bench")],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


TRACED_REPORTS_SCRIPT = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracing
tracing.install()
from padichg import cli
for name, argv in zip(sys.argv[4::2], sys.argv[5::2]):
    out = ["--format", "json", "--out", sys.argv[3] + "/" + name]
    assert cli.run(cli.parse_args(argv.split() + out)) == 0, argv
"""

TRACED_RUNS = {
    "all5.json": "--p 5 --suite all",
    "clausen3.json": "--p 3 --suite clausen",
    "charsums3.json": "--p 3 --suite charsums",
}


def _without_elapsed(path):
    reports = json.loads(path.read_text())
    for report in reports:
        report.pop("elapsed_ms")
    return reports


def test_traced_reports_equal_untraced(tmp_path):
    # the --trace 1 gate of bench/run.py: a traced report equals the untraced
    # one without elapsed_ms, for every suite
    traced, plain = tmp_path / "traced", tmp_path / "plain"
    traced.mkdir()
    plain.mkdir()
    runs = [arg for item in TRACED_RUNS.items() for arg in item]
    env = dict(os.environ, PYTHONPATH="")
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_REPORTS_SCRIPT, str(ROOT / "src"), str(ROOT / "bench"),
         str(traced), *runs],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    reports = []
    for name, argv in TRACED_RUNS.items():
        out = ["--format", "json", "--out", str(plain / name)]
        assert cli.run(cli.parse_args(argv.split() + out)) == 0, argv
        untraced = _without_elapsed(plain / name)
        assert _without_elapsed(traced / name) == untraced, name
        reports += untraced
    assert len(reports) == 10 and all(report["cases_total"] for report in reports)


WRAPPED_SCRIPT = """
import importlib
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
items = [item.split(":") for item in sys.argv[3:]]
for module, name in items:
    # served by the module's __getattr__ when asked for, not bound at import
    assert name not in vars(importlib.import_module("padichg." + module)), (module, name)
import tracing
tracing.install()
for module, name in items:
    value = getattr(importlib.import_module("padichg." + module), name)
    assert hasattr(value, "__wrapped__"), (module, name)
"""

# the names of the tracer's rational, charsums and elements layers that
# suites and gfunction serve, and with them the modules, only when asked for
LAZY_FOR_THE_TRACER = {
    "suites:sum_A",
    "suites:sum_a",
    "suites:sum_B",
    "suites:sum_h",
    "suites:verify_aop_identity",
    "suites:check_floor_identity_A",
    "suites:check_floor_identity_B",
    "suites:frac",
    "suites:evaluate_g",
    "suites:evaluate_g_inverted",
    "gfunction:frac",
    "gfunction:evaluate_g",
    "gfunction:g_exponent",
}


def _names_kept_for_the_tracer():
    """module:name for every name of a module's _TRACED table, the names its
    __getattr__ serves because bench/tracing.py rebinds them there."""
    out = []
    for path in sorted((ROOT / "src" / "padichg").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            targets = [t.id for t in getattr(node, "targets", ()) if isinstance(t, ast.Name)]
            if targets == ["_TRACED"]:
                out += [f"{path.stem}:{name}" for name in ast.literal_eval(node.value)]
    return out


def test_imports_kept_for_the_tracer_are_wrapped():
    # nothing in src/ calls these names, so check that each one is served
    # lazily and that the installed tracer has replaced it by its wrapper
    names = _names_kept_for_the_tracer()
    assert LAZY_FOR_THE_TRACER <= set(names)
    env = dict(os.environ, PYTHONPATH="")
    proc = subprocess.run(
        [sys.executable, "-c", WRAPPED_SCRIPT, str(ROOT / "src"), str(ROOT / "bench"), *names],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
