"""A run imports only what it uses.

`import padichg.cli` must not load the process pool (imported by `cli.run`
only when it starts one) or `dataclasses` and the `inspect` it pulls in.
Nor may it, or a run whose jobs are all gamma or floors, load the field
layers (suites, finitefield, padic, gfunction, charsums) or `csv`: those
load at the first field job and the first csv report.  Such a run builds no
Fraction either, so it loads neither `fractions` nor the `decimal` that
`fractions` imports; a field run loads both.  A job that JobSpec refuses
loads none of them: admission is integer arithmetic in jobs and pgamma.
Each check runs in a fresh interpreter and compares `sys.modules` before
and after, so modules that site packages preload do not count.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
HEAVY = ("concurrent.futures", "multiprocessing", "dataclasses", "inspect")
FIELD = (
    "padichg.suites",
    "padichg.finitefield",
    "padichg.padic",
    "padichg.gfunction",
    "padichg.charsums",
    "csv",
)

PROBE = """
import json, sys
before = set(sys.modules)
import padichg.cli
code = 0
if len(sys.argv) > 1:
    try:
        padichg.cli.main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
print(json.dumps([code, sorted(set(sys.modules) - before)]))
"""


def _loaded(*argv):
    """(exit code, modules first loaded) of `import padichg.cli` then cli.main(argv)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", PROBE, *argv], env=env, capture_output=True, text=True, check=True
    ).stdout
    code, loaded = json.loads(out)
    return code, loaded


def test_cli_import_loads_no_pool_or_dataclasses():
    _, loaded = _loaded()
    assert "padichg.cli" in loaded
    assert [name for name in HEAVY if name in loaded] == []


def test_cli_import_loads_no_field_layer():
    _, loaded = _loaded()
    assert {"padichg.jobs", "padichg.pgamma", "padichg.rational", "padichg.zmod"} <= set(loaded)
    assert [name for name in FIELD if name in loaded] == []


def test_gamma_and_floors_run_loads_no_field_layer(tmp_path):
    config = tmp_path / "integer.conf"
    config.write_text(
        "format = json\n"
        f"out = {tmp_path / 'report.json'}\n"
        "job = suite=gamma p=211 precision=3\n"
        "job = suite=floors p=211 precision=3\n"
    )
    code, loaded = _loaded("--config", str(config))
    assert code == 0
    reports = json.loads((tmp_path / "report.json").read_text())
    assert [rep["suite"] for rep in reports] == ["gamma", "floors"]
    assert all(rep["cases_total"] == rep["cases_passed"] > 0 for rep in reports)
    assert [name for name in FIELD if name in loaded] == []


def test_field_run_loads_the_field_layer(tmp_path):
    # the positive control: the probe does see these modules when a run needs them
    out = str(tmp_path / "report.csv")
    code, loaded = _loaded("--p", "5", "--suite", "euler", "--format", "csv", "--out", out)
    assert code == 0
    assert [name for name in FIELD if name not in loaded] == []


def _integer_run(tmp_path):
    config = tmp_path / "integer.conf"
    config.write_text(
        "format = json\n"
        f"out = {tmp_path / 'report.json'}\n"
        "job = suite=gamma p=211 precision=3\n"
        "job = suite=floors p=211 precision=3\n"
    )
    return ("--config", str(config))


def _field_run(tmp_path):
    return ("--p", "5", "--suite", "euler", "--format", "csv", "--out", str(tmp_path / "r.csv"))


def _refused_run(tmp_path):
    # JobSpec refuses it (packed correlation past jobs.MAX_PACKED_DIGITS)
    # from its integers alone, before any field layer loads
    return ("--p", "3", "--r", "10", "--suite", "clausen", "--precision", "300")


@pytest.mark.parametrize(
    "argv,code,loads",
    [
        pytest.param(_integer_run, 0, False, id="_integer_run-False"),
        pytest.param(_field_run, 0, True, id="_field_run-True"),
        pytest.param(_refused_run, 2, False, id="_refused_run-False"),
    ],
)
def test_fractions_load_only_with_the_field_layer(tmp_path, argv, code, loads):
    exit_code, loaded = _loaded(*argv(tmp_path))
    assert exit_code == code
    names = ("fractions", "decimal") + FIELD
    assert [name in loaded for name in names] == [loads] * len(names)
