"""The benchmark's outside-in tracer must install cleanly against src/.

bench/tracing.py rebinds shared functions by name in several modules (for
example gfunction.frac, gfunction.g_exponent, suites.evaluate_g,
charsums.sum_h) and refuses to install if any of them is missing or is no
longer the same function object in every module that imports it.  A traced
run must also report exactly what an untraced one does.
"""

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
assert "gfunction.evaluate_g.first" in names and "rational.g_exponent" in names, names
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
