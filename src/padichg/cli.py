"""Command-line entry point: job configuration, orchestration, reports.

A run's settings are the ten of SETTINGS, each stated once with its kind,
its check and its default.  Flags (--key value, --key=value) and config file
lines (key = value, and the job line's key=value tokens) both convert and
check a value through that table; the file's settings replace the defaults,
and flags replace the file's, in one pass.  Every usage error is one line
on stderr.  A flag's refusal reads as argparse's did (argument --jobs:
invalid int value: 'abc'), a config line's names it by path:line, and a job
is admitted by JobSpec itself, whose ValueError becomes the usage error of
the first job in order it refuses.  --help prints the table as a usage text.

A run loads only what its jobs and format use: jobs.run_job imports the
suites at the first job of each kind, and json and csv load with their
report.  The report is written straight to its destination (the --out file,
opened only after the last job, or stdout) by one renderer per format; no
copy of it is built in memory.  A --verbose csv report keeps each case as
the tuple (case, ok, left, right) until it is written.

Exit codes: 0 all executed cases passed (skipped suites do not fail),
1 verification failure, 2 usage error, 3 I/O error.
"""

import os
import sys
from collections import namedtuple

from .jobs import DEFAULT_BATTERY, SUITE_NAMES, JobSpec, Report, run_job

FORMATS = ("text", "json", "csv")


class UsageError(Exception):
    pass


# What one run does: its jobs, report format and destination, parallelism.
# Whether reports keep one row per case is each job's record_cases.
Config = namedtuple(
    "Config", "jobs fmt out parallel fail_fast", defaults=((), "text", None, 1, False)
)


def _format_check(value: str):
    if value not in FORMATS:
        return f"format must be one of {', '.join(FORMATS)}, got {value!r}"


def _jobs_check(value: int):
    if value < 1:
        return "jobs must be >= 1"


# One run setting.  scope: "job" keys are flags and job line tokens, "setting"
# keys flags and config lines, "flag" keys flags only.  kind: "int", "str",
# "bool" (a flag takes no value, a config line a word of _BOOLEANS) or
# "suite" (a name of SUITE_NAMES or all).  check(value) returns the refusal
# of a converted value, or None.
_Setting = namedtuple("_Setting", "scope kind default check metavar help")
_SUITE_CHOICES = SUITE_NAMES + ("all",)

SETTINGS = {
    "p": _Setting("job", "int", None, None, "P", "odd prime characteristic"),
    "r": _Setting("job", "int", None, None, "R", "extension degree (default 1)"),
    "precision": _Setting(
        "job", "int", None, None, "PRECISION", "p-adic precision N (default per suite)"
    ),
    "suite": _Setting(
        "job", "suite", None, None, "{" + ",".join(_SUITE_CHOICES) + "}",
        "verification suite to run (default all)",
    ),
    "config": _Setting(
        "flag", "str", None, None, "CONFIG", "config file with settings and a jobs list"
    ),
    "format": _Setting(
        "setting", "str", "text", _format_check, "{" + ",".join(FORMATS) + "}",
        "report format (default text)",
    ),
    "out": _Setting("setting", "str", None, None, "OUT", "output path (default stdout)"),
    "jobs": _Setting("setting", "int", 1, _jobs_check, "JOBS", "parallel job count (default 1)"),
    "fail-fast": _Setting("setting", "bool", False, None, None, "stop after the first failing job"),
    "verbose": _Setting("setting", "bool", False, None, None, "record one row per case (csv)"),
}
JOB_KEYS = tuple(key for key, s in SETTINGS.items() if s.scope == "job")
SETTING_KEYS = tuple(key for key, s in SETTINGS.items() if s.scope == "setting")

_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _value(key: str, text: str, where: str | None = None):
    """text as the value of setting key, converted to its kind and checked.

    where names the config line (path:line) that gave it, or is None for a
    flag; it picks the wording of a refusal."""
    setting = SETTINGS[key]
    value = text
    if setting.kind == "int":
        try:
            value = int(text)
        except ValueError:
            raise UsageError(
                f"argument --{key}: invalid int value: {text!r}"
                if where is None
                else f"{where}: {key} must be an integer, got {text!r}"
            ) from None
    elif setting.kind == "bool":  # only a config line gives a boolean a value
        value = _BOOLEANS.get(text.lower())
        if value is None:
            raise UsageError(f"{where}: {key} must be one of {'/'.join(_BOOLEANS)}, got {text!r}")
    elif setting.kind == "suite" and text not in _SUITE_CHOICES:
        raise UsageError(
            f"argument --{key}: invalid choice: {text!r} (choose from {', '.join(_SUITE_CHOICES)})"
            if where is None
            else f"{where}: unknown suite {text!r}; choose from {', '.join(SUITE_NAMES)} or all"
        )
    refusal = setting.check and setting.check(value)
    if refusal:
        raise UsageError(refusal if where is None else f"{where}: {refusal}")
    return value


def _expand_group(
    verbose: bool, suite: str, p=None, r=None, precision=None, where=None
) -> list[JobSpec]:
    """One flag/config job group -> concrete JobSpecs (battery when p is absent).
    A refusal of a config job line names it by where, its path:line."""
    try:
        suites = SUITE_NAMES if suite == "all" else (suite,)
        if p is None and r is not None:
            raise ValueError("r needs p: without p the default battery is swept")
        fields = DEFAULT_BATTERY if p is None else [(p, 1 if r is None else r)]
        return [
            JobSpec(fp, fr, s, precision, record_cases=verbose) for fp, fr in fields for s in suites
        ]
    except ValueError as exc:  # JobSpec checks the field, the precision and the cost too
        raise UsageError(f"{where}: {exc}" if where else str(exc)) from None


def _uncommented(raw: str) -> str:
    """raw without its comment, which starts at a # that begins the line or
    follows whitespace, so a # inside a value (out = rep#1.json) is kept."""
    i = raw.find("#")
    while i > 0 and not raw[i - 1].isspace():
        i = raw.find("#", i + 1)
    return raw if i < 0 else raw[:i]


def _parse_config_file(path: str) -> tuple[dict, list[dict]]:
    """Flat key = value setting lines plus repeated 'job =' lines (see the
    README schema), each value converted and checked by SETTINGS, so an error
    can name its line."""
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
        line = _uncommented(raw).strip()
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
                entry[k] = _value(k, v, where)
            if "suite" not in entry:
                raise UsageError(f"{where}: job line needs suite=...")
            groups.append(entry)
        elif key in SETTING_KEYS:
            settings[key] = _value(key, value, where)
        else:
            raise UsageError(
                f"{where}: unknown setting {key!r}; expected {', '.join(SETTING_KEYS)} or job"
            )
    return settings, groups


_DESCRIPTION = "Exhaustively verify p-adic hypergeometric identities over small finite fields."


def _usage() -> str:
    """The --help text, generated from SETTINGS."""
    flags = [("-h, --help", "show this help message and exit")] + [
        (f"--{key} {s.metavar}" if s.metavar else f"--{key}", s.help) for key, s in SETTINGS.items()
    ]
    lines, line = [], "usage: padichg [-h]"
    for flag, _ in flags[1:]:
        if len(line) + len(flag) + 3 > 79:
            lines.append(line)
            line = " " * 14
        line += f" [{flag}]"
    lines += [line, "", _DESCRIPTION, "", "options:"]
    for flag, text in flags:
        lines += [f"  {flag:<22}{text}"] if len(flag) < 21 else [f"  {flag}", f"{'':24}{text}"]
    return "\n".join(lines) + "\n"


def _option(arg: str):
    """The setting key (or "help") that the flag arg names, by its whole
    name or, as argparse allowed, a prefix of exactly one; None if none."""
    if arg == "-h":
        return "help"
    if not arg.startswith("--") or arg == "--":
        return None
    keys = (*SETTINGS, "help")
    word = arg[2:]
    if word in keys:
        return word
    matches = [key for key in keys if key.startswith(word)]
    if len(matches) > 1:
        raise UsageError(
            f"ambiguous option: {arg} could match {', '.join('--' + key for key in matches)}"
        )
    return matches[0] if matches else None


def _is_value(arg: str) -> bool:
    """argparse's rule: an argument that starts with - is an option, not a
    value, unless it is -, a negative number or holds a space.  A negative
    number is -D or -D.D, D a run of decimal digits; the first D may be empty,
    and one final newline is allowed, as argparse's $ matches before it."""
    head, dot, tail = arg[1:].removesuffix("\n").partition(".")
    negative = head.isdecimal() and not dot or (not head or head.isdecimal()) and tail.isdecimal()
    return not arg.startswith("-") or arg == "-" or " " in arg or negative


def _flags(argv) -> dict:
    """The settings argv gives, each converted and checked; of a repeated
    flag the last one wins.  --help prints the usage and exits 0."""
    given: dict = {}
    extra: list[str] = []
    i = 0
    while i < len(argv):
        arg = argv[i]
        i += 1
        if arg == "--":  # what follows is positional, and padichg takes none
            extra += argv[i - 1 :]
            break
        name, eq, text = arg.partition("=") if arg.startswith("--") else (arg, "", "")
        key = _option(name)
        if key is None:
            extra.append(arg)
        elif key == "help" or SETTINGS[key].kind == "bool":
            if eq:
                flag = "-h/--help" if key == "help" else f"--{key}"
                raise UsageError(f"argument {flag}: ignored explicit argument {text!r}")
            if key == "help":
                sys.stdout.write(_usage())
                raise SystemExit(0)
            given[key] = True
        else:
            if not eq:
                if i == len(argv) or not _is_value(argv[i]):
                    raise UsageError(f"argument --{key}: expected one argument")
                text = argv[i]
                i += 1
            given[key] = _value(key, text)
    if extra:
        raise UsageError(f"unrecognized arguments: {' '.join(extra)}")
    return given


def parse_args(argv) -> Config:
    """The run that argv asks for: its flags over its config file's settings
    over the defaults of SETTINGS."""
    flags = _flags(argv)
    settings = {key: SETTINGS[key].default for key in SETTING_KEYS}
    groups: list[dict] = []
    config = flags.get("config")
    if config:
        file_settings, groups = _parse_config_file(config)
        settings.update(file_settings)
    settings.update((key, v) for key, v in flags.items() if key in SETTING_KEYS)
    job_flags = {key: v for key, v in flags.items() if key in JOB_KEYS}
    if job_flags:
        groups = [{"suite": "all", **job_flags}]
    elif not groups:
        if config:
            raise UsageError("config file defines no jobs")
        groups = [{"suite": "all"}]
    jobs = [job for group in groups for job in _expand_group(settings["verbose"], **group)]
    fmt, out, parallel = settings["format"], settings["out"], settings["jobs"]
    return Config(jobs, fmt, out, parallel, settings["fail-fast"])


def _render_text(reports: list[Report], out) -> None:
    failed = passed = skipped = 0
    for rep in reports:
        head = f"[{rep.suite} p={rep.p} r={rep.r} N={rep.precision} q={rep.q}]"
        if rep.skipped:
            skipped += 1
            out.write(f"{head} SKIPPED (field outside the suite hypothesis)\n")
            continue
        status = "ok" if rep.passed() else "FAIL"
        if rep.passed():
            passed += 1
        else:
            failed += 1
        out.write(
            f"{head} {status}: {rep.cases_passed}/{rep.cases_total} cases"
            f" in {rep.elapsed_ms:.1f} ms\n"
        )
        for f in rep.failures:
            out.write(f"    FAIL {f.case}: left={f.left} right={f.right}\n")
    out.write(
        f"summary: {len(reports)} jobs, {passed} passed, {failed} failed, {skipped} skipped\n"
    )


def _render_json(reports: list[Report], out) -> None:
    import json  # only a json report needs it

    json.dump([rep.to_dict() for rep in reports], out, indent=2)
    out.write("\n")


def _render_csv(reports: list[Report], out) -> None:
    """One row per job, or, when the reports record cases (--verbose), one
    row per case: the job's fields, then its (case, ok, left, right) row."""
    import csv  # only a csv report needs it

    writer = csv.writer(out)
    if any(rep.record_cases for rep in reports):
        writer.writerow(["suite", "p", "r", "N", "q", "case", "ok", "left", "right"])
        writer.writerows(
            (rep.suite, rep.p, rep.r, rep.precision, rep.q, *row)
            for rep in reports
            for row in rep.case_rows
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


_RENDERERS = {"text": _render_text, "json": _render_json, "csv": _render_csv}


def run(config: Config) -> int:
    """Execute all jobs, write one report record per job straight to the
    destination, opened only after the last job, and return the exit code."""
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

    render = _RENDERERS[config.fmt]
    try:
        if config.out and config.out != "-":
            with open(config.out, "w", encoding="utf-8") as fh:
                render(reports, fh)
        else:
            render(reports, sys.stdout)
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
