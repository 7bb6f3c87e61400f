import concurrent.futures
import csv
import io
import json
from types import SimpleNamespace

import pytest

from padichg import cli, jobs
from padichg.cli import Config, UsageError, main, parse_args, run
from padichg.suites import JobSpec


def test_parse_single_job():
    cfg = parse_args(["--p", "5", "--r", "1", "--precision", "4", "--suite", "euler"])
    assert len(cfg.jobs) == 1
    job = cfg.jobs[0]
    assert (job.p, job.r, job.precision, job.suite) == (5, 1, 4, "euler")


def test_parse_suite_all_battery():
    cfg = parse_args(["--suite", "all"])
    assert len(cfg.jobs) == 64  # eight fields x eight suites
    assert cfg.fmt == "text" and cfg.parallel == 1


def test_parse_bare_invocation_defaults_to_all():
    cfg = parse_args([])
    assert len(cfg.jobs) == 64


def test_parse_rejects_bad_inputs(capsys):
    with pytest.raises(UsageError, match="odd prime"):
        parse_args(["--p", "4"])
    with pytest.raises(UsageError):
        parse_args(["--p", "5", "--precision", "0"])
    with pytest.raises(UsageError):
        parse_args(["--p", "251", "--r", "3"])  # q over the bound
    # argparse's own errors are one line too, without the usage block
    for argv, message in (
        (["--suite", "bogus"], "argument --suite: invalid choice: 'bogus'"),
        (["--jobs", "abc"], "argument --jobs: invalid int value: 'abc'"),
        (["--p", "x"], "argument --p: invalid int value: 'x'"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1, err


def test_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: padichg")


def test_main_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--p", "4"])
    assert exc.value.code == 2
    assert "odd prime" in capsys.readouterr().err


def test_config_file_roundtrip(tmp_path):
    cfg_file = tmp_path / "battery.cfg"
    cfg_file.write_text(
        """
        # two quick jobs
        format = json
        fail-fast = true
        job = suite=euler p=5 r=1 precision=4
        job = suite=floors p=7 r=1
        """
    )
    cfg = parse_args(["--config", str(cfg_file)])
    assert cfg.fmt == "json" and cfg.fail_fast
    assert [(j.suite, j.p) for j in cfg.jobs] == [("euler", 5), ("floors", 7)]
    # command-line flags override config-file values
    cfg = parse_args(["--config", str(cfg_file), "--format", "csv"])
    assert cfg.fmt == "csv"


def test_config_file_errors(tmp_path):
    empty = tmp_path / "empty.cfg"
    empty.write_text("# nothing here\n")
    with pytest.raises(UsageError, match="no jobs"):
        parse_args(["--config", str(empty)])
    bad = tmp_path / "bad.cfg"
    bad.write_text("job = euler\n")
    with pytest.raises(UsageError):
        parse_args(["--config", str(bad)])
    with pytest.raises(UsageError, match="cannot read"):
        parse_args(["--config", str(tmp_path / "missing.cfg")])


def _one_job_config(**kw):
    return Config(jobs=[JobSpec(5, 1, "euler", precision=4)], **kw)


def test_run_json_schema_roundtrip(tmp_path):
    out = tmp_path / "report.json"
    code = run(_one_job_config(fmt="json", out=str(out)))
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload) == 1
    rec = payload[0]
    assert set(rec) == {
        "suite", "p", "r", "N", "q", "cases_total", "cases_passed",
        "skipped", "failures", "elapsed_ms",
    }
    assert rec["suite"] == "euler" and rec["cases_total"] == 4
    assert json.loads(json.dumps(payload)) == payload


def test_run_text_output(capsys):
    assert run(_one_job_config(fmt="text")) == 0
    captured = capsys.readouterr().out
    assert "[euler p=5 r=1 N=4 q=5] ok: 4/4" in captured
    assert "summary:" in captured


def test_run_csv_summary_and_verbose(tmp_path):
    out = tmp_path / "r.csv"
    assert run(_one_job_config(fmt="csv", out=str(out))) == 0
    rows = list(csv.reader(io.StringIO(out.read_text())))
    assert rows[0][:6] == ["suite", "p", "r", "N", "q", "cases_total"]
    assert len(rows) == 2  # summary row only

    cfg = Config(
        jobs=[JobSpec(5, 1, "euler", precision=4, record_cases=True)],
        fmt="csv",
        out=str(out),
    )
    assert run(cfg) == 0
    rows = list(csv.reader(io.StringIO(out.read_text())))
    assert rows[0][5] == "case"
    assert len(rows) == 1 + 4  # one row per case


def test_run_io_error_exit_code(capsys):
    code = run(_one_job_config(fmt="json", out="/nonexistent-dir/report.json"))
    assert code == 3
    assert "i/o error" in capsys.readouterr().err


def test_run_skipped_jobs_do_not_fail():
    cfg = Config(jobs=[JobSpec(3, 1, "euler")], fmt="json", out="-")
    assert run(cfg) == 0


def test_verification_failure_exit_code(corrupted_gamma, capsys):
    cfg = Config(jobs=[JobSpec(5, 1, "euler", precision=4)], fmt="text")
    code = run(cfg)
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out and "x=" in out  # failing (suite, x) identified


def test_fail_fast_stops_after_first_failure(corrupted_gamma, capsys):
    cfg = Config(
        jobs=[JobSpec(5, 1, "euler", precision=4), JobSpec(7, 1, "euler", precision=4)],
        fmt="text",
        fail_fast=True,
    )
    assert run(cfg) == 1
    out = capsys.readouterr().out
    assert "p=7" not in out  # second job never ran


def test_suite_arithmetic_failure_is_a_failed_job(corrupted_gamma, tmp_path):
    # a zeros value past its recovery bound fails that job in the report; the
    # run neither raises nor loses the record
    out = tmp_path / "zeros.csv"
    argv = ["--p", "5", "--r", "2", "--suite", "zeros", "--format", "csv", "--verbose"]
    assert run(parse_args(argv + ["--out", str(out)])) == 1
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[1:] == [
        ["zeros", "5", "2", "4", "25", "aborted", "False", "ArithmeticError",
         "lifted value -108 violates the stated bound 4"],
    ]  # fmt: skip


@pytest.mark.parametrize("mode", [["--jobs", "2"], []])
def test_aborted_jobs_keep_every_record(corrupted_gamma, capsys, mode):
    argv = ["--p", "5", "--r", "2", "--suite", "all", "--format", "json"] + mode
    assert run(parse_args(argv)) == 1
    records = json.loads(capsys.readouterr().out)
    assert len(records) == 8
    cases = {rec["suite"]: [f["case"] for f in rec["failures"]] for rec in records}
    aborted = [suite for suite, c in cases.items() if c == ["aborted"]]
    assert aborted == ["zeros", "oracles", "charsums"]
    assert all(rec["cases_total"] == rec["cases_passed"] + len(rec["failures"]) for rec in records)


def test_fail_fast_stops_at_an_aborted_job(corrupted_gamma, tmp_path, capsys):
    argv = _config(tmp_path, "job = suite=zeros p=5 r=2\njob = suite=euler p=7\n")
    assert run(parse_args(argv + ["--fail-fast"])) == 1
    out = capsys.readouterr().out
    assert "FAIL aborted: left=ArithmeticError right=lifted value -108" in out
    assert "p=7" not in out


def test_parallel_jobs_match_sequential():
    jobs = [JobSpec(5, 1, "euler", precision=4), JobSpec(7, 1, "floors", precision=4)]
    seq = Config(jobs=list(jobs), fmt="json", out="-")
    par = Config(jobs=list(jobs), fmt="json", out="-", parallel=2)
    import contextlib

    buf_seq, buf_par = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(buf_seq):
        assert run(seq) == 0
    with contextlib.redirect_stdout(buf_par):
        assert run(par) == 0
    strip = lambda s: [
        {k: v for k, v in rec.items() if k != "elapsed_ms"}
        for rec in json.loads(s.getvalue())
    ]
    assert strip(buf_seq) == strip(buf_par)


@pytest.mark.parametrize(
    "flags",
    [["--format", "text"], ["--format", "json"], ["--format", "csv"],
     ["--format", "csv", "--verbose"]],
    ids=["text", "json", "csv", "csv-verbose"],
)  # fmt: skip
def test_report_bytes_do_not_depend_on_destination(monkeypatch, capsysbinary, tmp_path, flags):
    # a frozen clock times every job at 0 ms, so two runs write the same report
    monkeypatch.setattr(jobs, "time", SimpleNamespace(perf_counter=lambda: 0.0))
    argv = ["--p", "5", "--suite", "all", *flags]
    out = tmp_path / "report"
    assert run(parse_args([*argv, "--out", str(out)])) == 0
    assert run(parse_args(argv)) == 0
    data = out.read_bytes()
    assert capsysbinary.readouterr().out == data
    if "json" in flags:
        assert data.decode() == json.dumps(json.loads(data), indent=2) + "\n"


def _usage_exit(capsys, argv) -> str:
    """Run main(argv); assert a usage error (exit 2, no traceback); return stderr."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    return err


def _config(tmp_path, text):
    path = tmp_path / "jobs.cfg"
    path.write_text(text)
    return ["--config", str(path)]


def test_config_non_integer_jobs_is_usage_error(tmp_path, capsys):
    err = _usage_exit(capsys, _config(tmp_path, "jobs = two\njob = suite=floors p=7\n"))
    assert "jobs must be an integer" in err


@pytest.mark.parametrize("tokens", ["p=five", "p=5 r=1.0", "p=5 precision=4x"])
def test_config_non_integer_job_value_is_usage_error(tmp_path, capsys, tokens):
    argv = _config(tmp_path, f"job = suite=euler {tokens}\n")
    assert "must be an integer" in _usage_exit(capsys, argv)


def test_config_not_utf8_is_usage_error(tmp_path, capsys):
    path = tmp_path / "jobs.cfg"
    path.write_bytes(b"\xff\xfejob = suite=floors p=7\n")
    err = _usage_exit(capsys, ["--config", str(path)])
    assert f"cannot read config file {path}: not valid UTF-8" in err


def test_config_with_byte_order_mark_runs(tmp_path, capsys):
    path = tmp_path / "jobs.cfg"
    path.write_bytes(b"\xef\xbb\xbfjob = suite=floors p=7\n")
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(path)])
    assert exc.value.code == 0
    # the mark is dropped, and bytes that are not UTF-8 are still refused
    path.write_bytes(b"\xef\xbb\xbfjob = suite=floors p=7 \xff\n")
    err = _usage_exit(capsys, ["--config", str(path)])
    assert f"cannot read config file {path}: not valid UTF-8" in err


def test_config_duplicate_job_key_is_usage_error(tmp_path, capsys):
    argv = _config(tmp_path, "format = json\njob = suite=euler p=5 p=7\n")
    err = _usage_exit(capsys, argv)
    assert "jobs.cfg:2: duplicate job key 'p'" in err
    argv = _config(tmp_path, "job = suite=euler suite=floors p=7\n")
    assert "jobs.cfg:1: duplicate job key 'suite'" in _usage_exit(capsys, argv)


def test_config_zero_jobs_is_usage_error(tmp_path, capsys):
    err = _usage_exit(capsys, _config(tmp_path, "jobs = 0\njob = suite=floors p=7\n"))
    assert "jobs must be >= 1" in err


def test_config_unknown_keys_are_usage_errors(tmp_path, capsys):
    argv = _config(tmp_path, "job = suite=euler p=5 prec=9\n")
    assert "unknown job key 'prec'" in _usage_exit(capsys, argv)
    argv = _config(tmp_path, "formt = json\njob = suite=euler p=5\n")
    assert "unknown setting 'formt'" in _usage_exit(capsys, argv)


def test_r_without_p_is_usage_error(tmp_path, capsys):
    assert "r needs p" in _usage_exit(capsys, ["--r", "3"])
    assert "r needs p" in _usage_exit(capsys, _config(tmp_path, "job = suite=euler r=2\n"))


@pytest.mark.parametrize(
    "line, message",
    [
        ("job = suite=gamma p=7 precision=0", "precision must be >= 1"),
        ("job = suite=euler p=4", "p must be an odd prime"),
        ("job = suite=bogus p=5", "unknown suite 'bogus'; choose from euler, "),
    ],
)
def test_refused_config_job_names_its_line(tmp_path, capsys, line, message):
    argv = _config(tmp_path, f"format = json\n\n{line}\n")
    err = _usage_exit(capsys, argv)
    assert err.startswith(f"error: {argv[1]}:3: {message}") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "text, message",
    [
        ("job = suite=euler p=5\nverbose\n", "jobs.cfg:2: expected key = value"),
        ("job = p=5 r=1\n", "jobs.cfg:1: job line needs suite=..."),
        ("format = bogus\njob = suite=euler p=5\n", "format must be one of text, json, csv"),
    ],
)
def test_malformed_config_line_is_one_line_usage_error(tmp_path, capsys, text, message):
    err = _usage_exit(capsys, _config(tmp_path, text))
    assert message in err and err.count("\n") == 1, err


def test_unknown_format_flag_is_one_line_usage_error(capsys):
    err = _usage_exit(capsys, ["--p", "5", "--suite", "euler", "--format", "bogus"])
    assert err == "error: format must be one of text, json, csv, got 'bogus'\n"


def test_text_report_names_a_skipped_job(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--p", "3", "--suite", "euler"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out == (
        "[euler p=3 r=1 N=4 q=3] SKIPPED (field outside the suite hypothesis)\n"
        "summary: 1 jobs, 0 passed, 0 failed, 1 skipped\n"
    )


def test_huge_field_parameters_are_refused_at_once(capsys):
    assert "exceeds the supported bound" in _usage_exit(capsys, ["--p", str(10**18 + 3)])
    assert "exceeds the supported bound" in _usage_exit(capsys, ["--p", "3", "--r", str(10**9)])


def test_infeasible_gamma_job_is_refused_before_running(capsys):
    from padichg import pgamma, suites

    caches_before = (len(pgamma._caches), len(suites._fq_cache))
    err = _usage_exit(capsys, ["--p", "3", "--suite", "gamma", "--precision", "1000000"])
    assert "refused" in err and "3^1000000" in err
    err = _usage_exit(capsys, ["--p", "65521", "--suite", "euler", "--precision", "60000"])
    assert "refused" in err and "65521^60000" in err
    assert (len(pgamma._caches), len(suites._fq_cache)) == caches_before
    # one refused job refuses the whole run, before any job starts
    err = _usage_exit(capsys, ["--p", "3", "--suite", "all", "--precision", "1000000"])
    assert "refused" in err
    # the floors suite evaluates no Gamma_p, so any precision is admitted
    assert parse_args(["--p", "5", "--suite", "floors", "--precision", "1000000"]).jobs


def test_packed_correlation_past_its_bound_is_refused():
    # parse_args only: a refused job would run for minutes and exhaust memory
    from padichg.jobs import MAX_PACKED_DIGITS, default_precision, packed_digits

    argv = ["--p", "3", "--r", "10", "--suite", "clausen", "--precision", "300"]
    with pytest.raises(UsageError, match=r"refused: the packed correlation .* 6\.57e\+08 digits"):
        parse_args(argv)
    # the largest runs measured to finish stay admitted
    for p, r, suite, n in ((7, 5, "euler", 200), (3, 8, "clausen", 400)):
        assert packed_digits(p, r, n) > MAX_PACKED_DIGITS // 3
        assert parse_args(["--p", str(p), "--r", str(r), "--suite", suite, "--precision", str(n)])
    # and so does every suite at its default precision at the large fields
    for p, r in ((65521, 1), (251, 2), (5, 6), (7, 5), (3, 10)):
        assert len(parse_args(["--p", str(p), "--r", str(r)]).jobs) == 8
    assert packed_digits(3, 10, default_precision("charsums", 3, 10)) < MAX_PACKED_DIGITS


@pytest.mark.parametrize("p,r,n", [(5, 1, 4), (7, 2, 5), (3, 3, 9)])
def test_packed_digits_is_the_size_of_the_correlation_product(p, r, n):
    from padichg.finitefield import FqContext
    from padichg.jobs import packed_digits
    from padichg.padic import UnramifiedContext, _packed_chirp

    # finitefield.correlate multiplies q-1 blocks of the table by the q-1
    # blocks of the packed chirp, a product of 2(q-1)-1 blocks
    _, width = _packed_chirp(UnramifiedContext(FqContext(p, r), n))
    assert packed_digits(p, r, n) == width * (2 * r - 1) * (2 * (p**r - 1) - 1)


@pytest.mark.parametrize(
    "argv,need",
    [
        (["--p", "5", "--suite", "zeros", "--precision", "1"], "p^N >= 7"),
        (["--p", "5", "--suite", "oracles", "--precision", "1"], "p^N >= 7"),
        (["--p", "5", "--suite", "charsums", "--precision", "2"], "p^N > 2q^2"),
    ],
)
def test_too_small_precision_is_refused_before_running(capsys, argv, need):
    from padichg import pgamma, suites

    caches_before = (len(pgamma._caches), len(suites._fq_cache))
    err = _usage_exit(capsys, argv)
    assert "refused" in err and "insufficient precision" in err and need in err
    assert (len(pgamma._caches), len(suites._fq_cache)) == caches_before


def test_suites_without_integer_recovery_admit_precision_one():
    for suite in ("euler", "clausen", "inversion", "gamma", "floors"):
        assert run(parse_args(["--p", "5", "--suite", suite, "--precision", "1"])) == 0, suite


@pytest.mark.parametrize("setting", ["fail-fast = banana", "verbose = nope", "verbose ="])
def test_config_non_boolean_setting_is_usage_error(tmp_path, capsys, setting):
    argv = _config(tmp_path, f"job = suite=floors p=7\n{setting}\n")
    err = _usage_exit(capsys, argv)
    assert "jobs.cfg:2:" in err and "must be one of 1/true/yes/0/false/no" in err


def test_config_booleans_are_case_insensitive(tmp_path):
    cfg = parse_args(_config(tmp_path, "fail-fast = YES\nverbose = True\njob = suite=floors p=7\n"))
    assert cfg.fail_fast and all(job.record_cases for job in cfg.jobs)
    cfg = parse_args(_config(tmp_path, "fail-fast = No\nverbose = 0\njob = suite=floors p=7\n"))
    assert not cfg.fail_fast and not any(job.record_cases for job in cfg.jobs)


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, runs in-process."""

    created: list[int] = []

    def __init__(self, max_workers):
        self.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.fixture
def recording_pool(monkeypatch):
    _RecordingPool.created = []
    # cli.run imports the pool class inside its parallel branch
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    return _RecordingPool.created


def _floors_jobs(count):
    return [JobSpec(p, 1, "floors", precision=4) for p in (5, 7, 11, 13, 17)[:count]]


def test_parallel_pool_is_capped_by_cpus_and_jobs(recording_pool, monkeypatch):
    assert run(Config(jobs=_floors_jobs(5), fmt="json", parallel=100000)) == 0
    assert run(Config(jobs=_floors_jobs(3), fmt="json", parallel=100000)) == 0
    assert run(Config(jobs=_floors_jobs(5), fmt="json", parallel=2)) == 0
    assert recording_pool == [4, 3, 2]
    # one job, or one CPU, takes the sequential loop and starts no pool
    assert run(Config(jobs=_floors_jobs(1), fmt="json", parallel=100000)) == 0
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert run(Config(jobs=_floors_jobs(5), fmt="json", parallel=100000)) == 0
    assert recording_pool == [4, 3, 2]


def test_config_jobs_setting_is_capped(recording_pool, tmp_path):
    lines = "".join(f"job = suite=floors p={p}\n" for p in (5, 7, 11, 13, 17))
    cfg = parse_args(_config(tmp_path, "jobs = 100000\nformat = json\n" + lines))
    assert cfg.parallel == 100000
    assert run(cfg) == 0
    assert recording_pool == [4]


def _euler5(verbose=False):
    return [JobSpec(5, 1, "euler", record_cases=verbose)]


_CLAUSEN = [JobSpec(5, 2, "clausen", 6)]
_ALL_SETTINGS = Config(_euler5(verbose=True), "json", "r.json", 3, True)

# argv -> the Config it must give: each flag in its --k v and --k=v forms, a
# repeated flag (the last one wins), a unique prefix of a flag, and --out ""
PARITY = [
    (["--p", "5", "--suite", "euler"], Config(_euler5())),
    (["--p=5", "--suite=euler"], Config(_euler5())),
    (["--p", "5", "--r", "2", "--precision", "6", "--suite", "clausen"], Config(_CLAUSEN)),
    (["--p=5", "--r=2", "--precision=6", "--suite=clausen"], Config(_CLAUSEN)),
    (["--pre", "6", "--p", "5", "--r=2", "--suite", "clausen"], Config(_CLAUSEN)),
    (
        ["--p", "5", "--suite", "euler", "--format", "json", "--out", "r.json", "--jobs", "3"]
        + ["--fail-fast", "--verbose"],
        _ALL_SETTINGS,
    ),
    (
        ["--p=5", "--suite=euler", "--format=json", "--out=r.json", "--jobs=3"]
        + ["--fail-fast", "--verbose"],
        _ALL_SETTINGS,
    ),
    (
        ["--p", "3", "--suite", "gamma", "--p", "5", "--suite=euler", "--format", "csv"]
        + ["--format=json", "--jobs", "2", "--jobs=3", "--out", "a", "--out", "r.json"]
        + ["--verbose", "--verbose", "--fail-fast"],
        _ALL_SETTINGS,
    ),
    (["--p", "5", "--suite", "euler", "--out", ""], Config(_euler5(), out="")),
    (["--p", "5", "--suite", "euler", "--out="], Config(_euler5(), out="")),
    (["--p", "5", "--suite", "euler", "--out", "-"], Config(_euler5(), out="-")),
    (["--p", "5", "--suite", "euler", "--jobs", "1"], Config(_euler5())),
]


@pytest.mark.parametrize("argv,config", PARITY, ids=[" ".join(a) for a, _ in PARITY])
def test_flags_give_their_config(argv, config):
    assert parse_args(argv) == config


_FILE = (
    "format = csv\nout = file.csv\njobs = 2\nfail-fast = no\nverbose = no\n"
    "job = suite=floors p=7\n"
)
_FILE_CONFIG = Config([JobSpec(7, 1, "floors")], "csv", "file.csv", 2, False)

# flags -> the fields they replace in the config file's Config
OVERRIDES = [
    ([], {}),
    (["--format", "json"], {"fmt": "json"}),
    (["--out", "flag.csv"], {"out": "flag.csv"}),
    (["--out", ""], {"out": ""}),
    (["--jobs=4"], {"parallel": 4}),
    (["--fail-fast"], {"fail_fast": True}),
    (["--verbose"], {"jobs": [JobSpec(7, 1, "floors", record_cases=True)]}),
    (["--p", "5", "--suite", "euler"], {"jobs": _euler5()}),
    (["--suite", "gamma", "--p=5", "--verbose"], {"jobs": [JobSpec(5, 1, "gamma", None, True)]}),
]


@pytest.mark.parametrize(
    "flags,fields", OVERRIDES, ids=[" ".join(f) or "none" for f, _ in OVERRIDES]
)
def test_flags_override_each_config_setting(tmp_path, flags, fields):
    for argv in (_config(tmp_path, _FILE) + flags, flags + _config(tmp_path, _FILE)):
        assert parse_args(argv) == _FILE_CONFIG._replace(**fields)


def test_help_lists_every_setting(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert len(cli.SETTINGS) == 10
    for key, setting in cli.SETTINGS.items():
        assert f"--{key}" in out and setting.help in out, key


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--p"], "argument --p: expected one argument"),
        (["--out", "--verbose"], "argument --out: expected one argument"),
        (["--p", "5", "stray", "--bogus=1"], "unrecognized arguments: stray --bogus=1"),
        (["--", "--p", "5"], "unrecognized arguments: -- --p 5"),
        (["--f", "json"], "ambiguous option: --f could match --format, --fail-fast"),
        (["--verbose=yes"], "argument --verbose: ignored explicit argument 'yes'"),
        (["--jobs", "0"], "jobs must be >= 1"),
        (["--p", "-5."], "argument --p: expected one argument"),
        (["--p", "-\u00b2"], "argument --p: expected one argument"),
        (["--p", "-5\n"], "p must be an odd prime"),
    ],
)
def test_flag_refusals_read_as_argparse_did(capsys, argv, message):
    err = _usage_exit(capsys, argv)
    assert err == f"error: {message}\n", err


def test_hash_inside_a_config_value_is_kept(tmp_path, capsys):
    out = tmp_path / "rep#1.json"
    argv = _config(tmp_path, f"out = {out}\nformat = json # a comment\njob = suite=floors p=7\n")
    assert parse_args(argv).out == str(out)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert json.loads(out.read_text())[0]["suite"] == "floors"
    assert not (tmp_path / "rep").exists()


def test_readme_inline_comment_still_parses(tmp_path):
    # the README's example: a comment after whitespace ends the line
    line = "job = suite=all                      # no p: expands over the battery\n"
    cfg = parse_args(_config(tmp_path, line))
    assert len(cfg.jobs) == 64
    cfg = parse_args(_config(tmp_path, "#format = json\n\tjob = suite=floors p=7\t# tab\n"))
    assert cfg.fmt == "text" and [job.suite for job in cfg.jobs] == ["floors"]
