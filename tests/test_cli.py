import concurrent.futures
import csv
import io
import json

import pytest

from padichg import cli
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


def test_parse_rejects_bad_inputs():
    with pytest.raises(UsageError, match="odd prime"):
        parse_args(["--p", "4"])
    with pytest.raises(UsageError):
        parse_args(["--p", "5", "--precision", "0"])
    with pytest.raises(UsageError):
        parse_args(["--p", "251", "--r", "3"])  # q over the bound
    with pytest.raises(SystemExit) as exc:
        parse_args(["--suite", "bogus"])  # argparse choices
    assert exc.value.code == 2


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
        verbose=True,
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
         "lifted value 280 violates the stated bound 4"],
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
    assert "FAIL aborted: left=ArithmeticError right=lifted value 280" in out
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
    with pytest.raises(UsageError, match=r"refused: the packed correlation .* 9\.86e\+08 digits"):
        parse_args(argv)
    # the largest runs measured to finish stay admitted
    for p, r, suite, n in ((7, 5, "euler", 200), (3, 8, "clausen", 400)):
        assert packed_digits(p, r, n) > 10**8
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

    # finitefield.correlate multiplies q-1 blocks of the table by the packed chirp
    _, width, count = _packed_chirp(UnramifiedContext(FqContext(p, r), n))
    assert packed_digits(p, r, n) == width * (2 * r - 1) * (p**r - 1 + count - 1)


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
    assert cfg.fail_fast and cfg.verbose
    cfg = parse_args(_config(tmp_path, "fail-fast = No\nverbose = 0\njob = suite=floors p=7\n"))
    assert not cfg.fail_fast and not cfg.verbose


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
