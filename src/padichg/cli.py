"""Command-line entry point: job configuration, orchestration, reports.

A run's settings are the flags' values.  A config file's settings replace
the flags' defaults, so a flag given on the command line overrides the
file, and format and jobs are checked once, on the merged value.  Every
usage error is one line on stderr: argparse's own errors raise UsageError
as padichg's checks do, and a job is admitted by JobSpec itself, whose
ValueError becomes the usage error of the first job in order it refuses.
An error of a config file line names it by path:line.

Exit codes: 0 all executed cases passed (skipped suites do not fail),
1 verification failure, 2 usage error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from collections import namedtuple

from .jobs import DEFAULT_BATTERY, SUITE_NAMES, JobSpec, Report, run_job

FORMATS = ("text", "json", "csv")
SETTING_KEYS = ("format", "out", "jobs", "fail-fast", "verbose")
JOB_KEYS = ("suite", "p", "r", "precision")


class UsageError(Exception):
    pass


# What one run does: its jobs, report format and destination, parallelism.
# Whether reports keep one row per case is each job's record_cases.
Config = namedtuple(
    "Config", "jobs fmt out parallel fail_fast", defaults=((), "text", None, 1, False)
)


def _expand_group(
    verbose: bool, suite: str, p=None, r=None, precision=None, where=None
) -> list[JobSpec]:
    """One flag/config job group -> concrete JobSpecs (battery when p is absent).
    A refusal of a config job line names it by where, its path:line."""
    try:
        if suite not in SUITE_NAMES and suite != "all":
            raise ValueError(
                f"unknown suite {suite!r}; choose from {', '.join(SUITE_NAMES)} or all"
            )
        suites = SUITE_NAMES if suite == "all" else (suite,)
        if p is None and r is not None:
            raise ValueError("r needs p: without p the default battery is swept")
        fields = DEFAULT_BATTERY if p is None else [(p, 1 if r is None else r)]
        return [
            JobSpec(fp, fr, s, precision, record_cases=verbose) for fp, fr in fields for s in suites
        ]
    except ValueError as exc:  # JobSpec checks the field, the precision and the cost too
        raise UsageError(f"{where}: {exc}" if where else str(exc)) from None


def _int_value(where: str, key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise UsageError(f"{where}: {key} must be an integer, got {value!r}") from None


_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _bool_value(where: str, key: str, value: str) -> bool:
    try:
        return _BOOLEANS[value.lower()]
    except KeyError:
        raise UsageError(
            f"{where}: {key} must be one of {'/'.join(_BOOLEANS)}, got {value!r}"
        ) from None


def _parse_config_file(path: str) -> tuple[dict, list[dict]]:
    """Flat key=value lines plus repeated 'job =' lines (see README schema).

    The jobs setting and the job values p, r and precision are converted to
    int, and fail-fast and verbose to bool, here, so an error can name its
    line.
    """
    settings: dict = {}
    groups: list[dict] = []
    try:
        with open(path, encoding="utf-8-sig") as fh:  # a leading byte-order mark is dropped
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    except UnicodeDecodeError:
        raise UsageError(f"cannot read config file {path}: not valid UTF-8") from None
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        where = f"{path}:{lineno}"
        if key == "job":
            entry: dict = {"where": where}
            for token in value.split():
                if "=" not in token:
                    raise UsageError(f"{where}: job tokens must be key=value")
                k, _, v = token.partition("=")
                if k not in JOB_KEYS:
                    raise UsageError(
                        f"{where}: unknown job key {k!r}; expected {', '.join(JOB_KEYS)}"
                    )
                if k in entry:
                    raise UsageError(f"{where}: duplicate job key {k!r}")
                entry[k] = v if k == "suite" else _int_value(where, k, v)
            if "suite" not in entry:
                raise UsageError(f"{where}: job line needs suite=...")
            groups.append(entry)
        elif key == "jobs":
            settings[key] = _int_value(where, key, value)
        elif key in ("fail-fast", "verbose"):
            settings[key] = _bool_value(where, key, value)
        elif key in SETTING_KEYS:
            settings[key] = value
        else:
            raise UsageError(
                f"{where}: unknown setting {key!r}; expected {', '.join(SETTING_KEYS)} or job"
            )
    return settings, groups


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)  # one line, without the usage block


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="padichg",
        description="Exhaustively verify p-adic hypergeometric identities over small finite fields.",
    )
    parser.add_argument("--p", type=int, help="odd prime characteristic")
    parser.add_argument("--r", type=int, help="extension degree (default 1)")
    parser.add_argument("--precision", type=int, help="p-adic precision N (default per suite)")
    parser.add_argument(
        "--suite",
        choices=SUITE_NAMES + ("all",),
        help="verification suite to run (default all)",
    )
    parser.add_argument("--config", help="config file with settings and a jobs list")
    parser.add_argument(
        "--format",
        default="text",
        metavar="{" + ",".join(FORMATS) + "}",
        help="report format (default text)",
    )
    parser.add_argument("--out", help="output path (default stdout)")
    parser.add_argument("--jobs", type=int, default=1, help="parallel job count (default 1)")
    parser.add_argument("--fail-fast", action="store_true", help="stop after the first failing job")
    parser.add_argument("--verbose", action="store_true", help="record one row per case (csv)")
    return parser


def parse_args(argv) -> Config:
    """The run that argv asks for, its config file's settings as flag defaults."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    groups: list[dict] = []
    if args.config:
        settings, groups = _parse_config_file(args.config)
        parser.set_defaults(**{key.replace("-", "_"): v for key, v in settings.items()})
        args = parser.parse_args(argv)
    if args.format not in FORMATS:
        raise UsageError(f"format must be one of {', '.join(FORMATS)}, got {args.format!r}")
    if args.jobs < 1:
        raise UsageError("jobs must be >= 1")
    if any(v is not None for v in (args.p, args.r, args.precision, args.suite)):
        groups = [dict(suite=args.suite or "all", p=args.p, r=args.r, precision=args.precision)]
    elif not groups:
        if args.config:
            raise UsageError("config file defines no jobs")
        groups = [{"suite": "all"}]
    jobs = [job for group in groups for job in _expand_group(args.verbose, **group)]
    return Config(jobs, args.format, args.out, args.jobs, args.fail_fast)


def _render_text(reports: list[Report]) -> str:
    lines = []
    failed = passed = skipped = 0
    for rep in reports:
        head = f"[{rep.suite} p={rep.p} r={rep.r} N={rep.precision} q={rep.q}]"
        if rep.skipped:
            skipped += 1
            lines.append(f"{head} SKIPPED (field outside the suite hypothesis)")
            continue
        status = "ok" if rep.passed() else "FAIL"
        if rep.passed():
            passed += 1
        else:
            failed += 1
        lines.append(
            f"{head} {status}: {rep.cases_passed}/{rep.cases_total} cases in {rep.elapsed_ms:.1f} ms"
        )
        for f in rep.failures:
            lines.append(f"    FAIL {f.case}: left={f.left} right={f.right}")
    lines.append(
        f"summary: {len(reports)} jobs, {passed} passed, {failed} failed, {skipped} skipped"
    )
    return "\n".join(lines) + "\n"


def _render_json(reports: list[Report]) -> str:
    return json.dumps([rep.to_dict() for rep in reports], indent=2) + "\n"


def _render_csv(reports: list[Report], verbose: bool) -> str:
    import csv  # only a csv report needs it

    buf = io.StringIO()
    writer = csv.writer(buf)
    if verbose:
        writer.writerow(["suite", "p", "r", "N", "q", "case", "ok", "left", "right"])
        for rep in reports:
            for row in rep.case_rows:
                writer.writerow(
                    [rep.suite, rep.p, rep.r, rep.precision, rep.q,
                     row["case"], row["ok"], row["left"], row["right"]]
                )
    else:
        writer.writerow(
            ["suite", "p", "r", "N", "q", "cases_total", "cases_passed",
             "skipped", "failures", "elapsed_ms"]
        )
        for rep in reports:
            writer.writerow(
                [rep.suite, rep.p, rep.r, rep.precision, rep.q, rep.cases_total,
                 rep.cases_passed, rep.skipped, len(rep.failures), f"{rep.elapsed_ms:.1f}"]
            )
    return buf.getvalue()


def run(config: Config) -> int:
    """Execute all jobs, write one report record per job, return the exit code."""
    reports: list[Report] = []
    # the pool forks all its workers at the first submit, so never ask for
    # more than there are jobs or CPUs
    workers = min(config.parallel, len(config.jobs), os.cpu_count() or 1)
    if config.fail_fast or workers <= 1:
        # fail-fast forces sequential execution so the short-circuit is deterministic
        for job in config.jobs:
            rep = run_job(job)
            reports.append(rep)
            if config.fail_fast and not rep.passed():
                break
    else:
        # imported here: a sequential run never loads concurrent.futures and
        # multiprocessing, which cost more start-up than the checks of a small job
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(run_job, config.jobs))

    if config.fmt == "json":
        payload = _render_json(reports)
    elif config.fmt == "csv":
        payload = _render_csv(reports, any(job.record_cases for job in config.jobs))
    else:
        payload = _render_text(reports)

    try:
        if config.out and config.out != "-":
            with open(config.out, "w", encoding="utf-8") as fh:
                fh.write(payload)
        else:
            sys.stdout.write(payload)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3

    return 0 if all(rep.passed() for rep in reports) else 1


def main(argv=None) -> None:
    try:
        config = parse_args(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)
    raise SystemExit(run(config))


if __name__ == "__main__":
    main()
