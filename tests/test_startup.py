"""A run imports only what it uses.

`import padichg.cli` must not load the process pool (imported by `cli.run`
only when it starts one) or `dataclasses` and the `inspect` it pulls in;
with `parse_args` it loads neither `argparse` (and its `gettext` and
`locale`) nor `json`, which loads with the first json report.  Nor may it,
or a run whose jobs are all gamma or floors, load the field layers (suites,
finitefield, padic, gfunction) or `csv`: those load at the first field job
and the first csv report.  Such a run loads no `decimal` either, which
finitefield imports.  A field run loads `decimal` only, and neither
`fractions` nor the element API (`padichg.elements`): the suites read
integer tables and write their parameters as integer pairs, and the
elements load at the first one a caller builds.  The code of one suite
family loads at its first job: `charsums` at a charsums job, `intsuites`
and `rational` at a gamma or floors job, so an euler run loads none of the
three.  A job that JobSpec refuses loads none of them: admission is
integer arithmetic in jobs and pgamma.  No module imports `__future__`: the
annotations evaluate at run time, with element types quoted.  Each check runs in a fresh
interpreter and compares `sys.modules` before and after, so modules that
site packages preload do not count.
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
    "csv",
)
# loaded at the first job of one suite family, and only then
ON_USE = ("padichg.charsums", "padichg.rational", "padichg.intsuites")
PARSER = ("argparse", "gettext", "locale", "json")
# the element API and the Fraction its GParams holds, loaded by no run
FACADE = ("padichg.elements", "fractions")

# the modules are listed before the report is printed, so json, which
# prints it, is imported after the listing
PROBE = """
import sys
before = set(sys.modules)
import padichg.cli
code = 0
if sys.argv[1] == "parse":
    padichg.cli.parse_args(sys.argv[2:])
elif sys.argv[1] == "run":
    try:
        padichg.cli.main(sys.argv[2:])
    except SystemExit as exc:
        code = exc.code
elif sys.argv[1] == "exec":
    exec(sys.argv[2])
loaded = sorted(set(sys.modules) - before)
import json
print(json.dumps([code, loaded]))
"""


def _probe(mode, argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", PROBE, mode, *argv],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    code, loaded = json.loads(out.splitlines()[-1])
    return code, loaded


def _loaded(*argv):
    """(exit code, modules first loaded) of `import padichg.cli` then cli.main(argv);
    without argv, of the import alone."""
    return _probe("run" if argv else "import", argv)


def test_cli_import_loads_no_pool_or_dataclasses():
    _, loaded = _loaded()
    assert "padichg.cli" in loaded
    assert [name for name in HEAVY if name in loaded] == []


def test_field_run_never_imports_future():
    code, loaded = _loaded("--p", "5", "--suite", "euler")
    assert code == 0
    assert "padichg.suites" in loaded
    assert "__future__" not in loaded


def test_cli_import_loads_no_field_layer():
    _, loaded = _loaded()
    assert {"padichg.jobs", "padichg.pgamma", "padichg.zmod"} <= set(loaded)
    assert [name for name in FIELD + ON_USE if name in loaded] == []


@pytest.mark.parametrize(
    "mode,argv",
    [
        ("parse", ["--p", "5"]),
        ("parse", ["--suite", "all", "--format", "json", "--jobs=2", "--verbose"]),
        ("parse", ["--config", "CONFIG", "--format", "csv"]),
        ("run", ["--help"]),
    ],
    ids=["flags", "settings", "config", "help"],
)
def test_parse_loads_no_argparse_or_json(tmp_path, mode, argv):
    config = tmp_path / "run.conf"
    config.write_text("format = json\njobs = 2\njob = suite=charsums p=5 r=2  # a comment\n")
    argv = [str(config) if arg == "CONFIG" else arg for arg in argv]
    code, loaded = _probe(mode, argv)
    assert code == 0
    assert "padichg.cli" in loaded
    assert [name for name in PARSER + FIELD + ON_USE if name in loaded] == []


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


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_euler_run_loads_no_other_suite_family(tmp_path, fmt):
    # the benchmark's sweep workload, at a smaller field
    out = str(tmp_path / f"report.{fmt}")
    argv = ("--p", "7", "--r", "2", "--suite", "euler", "--format", fmt, "--out", out)
    code, loaded = _loaded(*argv)
    assert code == 0
    assert "padichg.suites" in loaded
    assert [name for name in ON_USE if name in loaded] == []
    # json loads with a json report only
    assert ("json" in loaded) == (fmt == "json")


@pytest.mark.parametrize(
    "suite,loads",
    [
        ("charsums", ["padichg.charsums"]),
        ("floors", ["padichg.rational", "padichg.intsuites"]),
        ("gamma", ["padichg.rational", "padichg.intsuites"]),
    ],
)
def test_a_suite_family_loads_at_its_first_job(tmp_path, suite, loads):
    # the positive controls of the euler run above
    out = str(tmp_path / "report.txt")
    code, loaded = _loaded("--p", "5", "--suite", suite, "--out", out)
    assert code == 0
    assert [name for name in ON_USE if name in loaded] == loads
    assert "json" not in loaded


def test_battery_csv_run_loads_no_json(tmp_path):
    # the benchmark's battery workload: every suite, a verbose csv report
    out = str(tmp_path / "report.csv")
    code, loaded = _loaded("--suite", "all", "--format", "csv", "--verbose", "--out", out)
    assert code == 0
    assert [name for name in FIELD + ON_USE if name not in loaded] == []
    assert [name for name in PARSER if name in loaded] == []


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
    names = ("decimal",) + FIELD
    assert [name in loaded for name in names] == [loads] * len(names)
    assert [name for name in FACADE if name in loaded] == []


@pytest.mark.parametrize(
    "suite,fmt",
    [("euler", "json"), ("clausen", "csv"), ("charsums", "text")],
)
def test_field_run_loads_no_element_api(tmp_path, suite, fmt):
    out = str(tmp_path / f"report.{fmt}")
    code, loaded = _loaded("--p", "5", "--r", "2", "--suite", suite, "--format", fmt, "--out", out)
    assert code == 0
    assert "padichg.suites" in loaded
    assert [name for name in FACADE if name in loaded] == []


@pytest.mark.parametrize(
    "source",
    [
        "from padichg import FqElement",
        "from padichg import contexts; contexts(5, 2, 4)[0].one",
        "from padichg import PadicContext, gamma_cache; gamma_cache(PadicContext(5, 3)).gamma(1)",
    ],
    ids=["export", "context-one", "gamma"],
)
def test_an_element_loads_the_element_api(source):
    # the positive controls of the field runs above
    _, loaded = _probe("exec", [source])
    assert "padichg.elements" in loaded
