"""The benchmark's outside-in tracer must install cleanly against src/.

bench/tracing.py rebinds shared functions by name in several modules (for
example gfunction.frac, gfunction.g_exponent, suites.evaluate_g,
charsums.sum_h) and refuses to install if any of them is missing or is no
longer the same function object in every module that imports it.
"""

import os
import subprocess
import sys
from pathlib import Path

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
