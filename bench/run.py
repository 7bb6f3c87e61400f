"""The padichg benchmark: fixed verification workloads through the real CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each sample is a fresh `padichg` process (bench/launch.py calling
`padichg.cli.main`) that receives only a generated `--config` file.  The
seed permutes the job lines of that file; the set of jobs, and so every
count, does not depend on it.  Every report is checked against the
per-job table in bench/expected.json.

The machine's speed drifts with other tenants' load, so every sample is
bracketed by runs of the fixed program bench/reference.py, and times are
reported in reference seconds: measured seconds * REF_S / (reference time
next to them).  The raw figures are printed and kept in result.json.

--trace 0 prints the end-to-end metrics, medians over the run's samples:
  wall_s        spawn to exit of one padichg process, reference seconds
  cases_per_s   verified cases per process / wall_s
  setup_s       spawn to the return of padichg.cli.parse_args, reference seconds
  peak_rss_mb   ru_maxrss of the process
  verified_frac 1 - failed cases / attempted cases
--trace 1 makes the same untraced samples, then one traced process, and
prints the per-layer metrics in measured seconds (see bench/README.md).

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Run files (config, reports, probes, result.json) are kept in
bench/out/<workload>-seed<N>-trace<T>/.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import random
import select
import shutil
import signal
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
EXPECTED = BENCH / "expected.json"

RUN_LIMIT_S = 170.0  # a whole run, all of its processes included
SETUP_PROBES = 5  # set-up-only processes per run, after one discarded warm-up
REF_S = 0.30  # about the time of bench/reference.py on an idle core of the reference machine

SUITES = ("euler", "zeros", "clausen", "oracles", "inversion", "charsums", "gamma", "floors")
BATTERY = ((3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (3, 2), (5, 2), (7, 2))

# name -> (report format, csv --verbose, jobs as (suite, p, r, precision or None)).
# Each workload takes 1-3 s per process at the seed.  The machine's speed
# changes within seconds, and the reference runs at both ends of a sample
# only describe a short sample well; short samples also give a run enough
# of them for a steady median.
WORKLOADS = {
    # the default battery: 64 small jobs; per-job overhead and table builds
    "battery": ("csv", True, [(s, p, r, None) for p, r in BATTERY for s in SUITES]),
    # q = 49 and 125: F_q object arithmetic in the oracles (A, root counts)
    "midfield": ("json", False, [("charsums", 7, 2, None), ("oracles", 5, 3, None)]),
    # p = 211 at N = 3: the Gamma_p prefix pass over 211^3 integers
    "largeprime": ("json", False, [("gamma", 211, 1, 3), ("floors", 211, 1, 3)]),
    # q = 343, one suite: the point-wise nGn sweep with r = 3 Z_q arithmetic
    "sweep": ("json", False, [("euler", 7, 3, None)]),
}


# ---------------------------------------------------------------- inputs


def workload_jobs(name: str, seed: int) -> list[tuple]:
    jobs = list(WORKLOADS[name][2])
    random.Random(seed).shuffle(jobs)
    return jobs


def render_config(name: str, seed: int, fmt: str, verbose: bool, jobs) -> str:
    lines = [f"# padichg benchmark, workload {name}, seed {seed}", f"format = {fmt}"]
    lines.append(f"out = report.{fmt}")
    lines.append("jobs = 1")
    if verbose:
        lines.append("verbose = true")
    for suite, p, r, precision in jobs:
        job = f"job = suite={suite} p={p} r={r}"
        lines.append(job if precision is None else f"{job} precision={precision}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------- processes


def spawn(argv: list[str], tag: str, deadline: float) -> tuple[float, dict]:
    """Run `python3 ARGV...` in the current directory and reap it.

    Returns the spawn time and a sample: wall seconds, ru_maxrss, exit status.
    The process is killed at `deadline`.
    """
    log = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    t0 = time.monotonic()
    pid = os.posix_spawn(
        sys.executable,
        [sys.executable, *argv],
        os.environ,
        file_actions=[
            (os.POSIX_SPAWN_OPEN, 1, f"log-{tag}.txt", log, 0o644),
            (os.POSIX_SPAWN_DUP2, 1, 2),
        ],
    )
    fd = os.pidfd_open(pid)
    try:
        ready, _, _ = select.select([fd], [], [], max(0.0, deadline - t0))
        if not ready:
            signal.pidfd_send_signal(fd, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    finally:
        os.close(fd)
    wall = time.monotonic() - t0
    return t0, {
        "wall_s": wall,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "exit": os.waitstatus_to_exitcode(status),
        "timed_out": not ready,
    }


def reference(tag: str, deadline: float) -> float:
    """Wall seconds of one run of bench/reference.py."""
    _, ref = spawn([str(BENCH / "reference.py")], tag, deadline)
    if ref["exit"] != 0:
        raise RuntimeError(f"reference program exited {ref['exit']}")
    return ref["wall_s"]


def launch(mode: str, tag: str, deadline: float) -> dict:
    """One padichg process through launch.py, with its probe read back."""
    probe = Path(f"probe-{tag}.json")
    for stale in [probe, *Path().glob("report.*")]:
        stale.unlink(missing_ok=True)
    t0, sample = spawn([str(BENCH / "launch.py"), mode, probe.name, "--", "--config", "workload.cfg"], tag, deadline)
    sample.update(mode=mode, setup_s=None, probe=None)
    if probe.is_file():
        data = json.loads(probe.read_text(encoding="utf-8"))
        sample["setup_s"] = data["parsed_at"] - t0
        sample["probe"] = data
    return sample


# ------------------------------------------------------------- correctness


def load_expected(name: str) -> dict:
    rows = json.loads(EXPECTED.read_text(encoding="utf-8"))[name]
    return {(r["suite"], r["p"], r["r"], r["N"]): r for r in rows}


def table_from_report(text: str, fmt: str) -> dict:
    """Per-job records of a report, keyed by (suite, p, r, N)."""
    table: dict = {}
    if fmt == "json":
        for rec in json.loads(text):
            key = (rec["suite"], rec["p"], rec["r"], rec["N"])
            if key in table:
                raise ValueError(f"duplicate job {key}")
            table[key] = {
                "suite": rec["suite"], "p": rec["p"], "r": rec["r"], "N": rec["N"],
                "q": rec["q"], "cases_total": rec["cases_total"],
                "cases_passed": rec["cases_passed"], "skipped": rec["skipped"],
                "failures": len(rec["failures"]),
            }
        return table
    # csv --verbose: one row per case, so a skipped job has no rows at all
    for row in csv.DictReader(text.splitlines()):
        key = (row["suite"], int(row["p"]), int(row["r"]), int(row["N"]))
        rec = table.setdefault(key, {
            "suite": key[0], "p": key[1], "r": key[2], "N": key[3], "q": int(row["q"]),
            "cases_total": 0, "cases_passed": 0, "skipped": False, "failures": 0,
        })
        ok = row["ok"] == "True"
        rec["cases_total"] += 1
        rec["cases_passed"] += ok
        rec["failures"] += not ok
    return table


def expected_in_report(expected: dict, fmt: str) -> dict:
    if fmt == "json":
        return expected
    return {k: v for k, v in expected.items() if not v["skipped"]}


def report_without_timings(text: str, fmt: str):
    """The report without its timings, for comparing traced and untraced runs."""
    if fmt != "json":
        return text
    records = json.loads(text)
    for rec in records:
        rec.pop("elapsed_ms")
    return records


def check(sample: dict, fmt: str, expected: dict) -> tuple[bool, str]:
    """(ok, report text) for one process.

    ok needs exit code 0 and per-job records equal to the expected table,
    which has no failing case; otherwise every case of the process counts as
    failed.
    """
    if sample["exit"] != 0 or sample["timed_out"]:
        return False, ""
    try:
        text = Path(f"report.{fmt}").read_text(encoding="utf-8")
        table = table_from_report(text, fmt)
    except (OSError, ValueError, KeyError) as exc:
        print(f"unreadable report: {exc}", file=sys.stderr)
        return False, ""
    return table == expected_in_report(expected, fmt), text


# --------------------------------------------------------------- metrics


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def layer_metrics(probe: dict) -> tuple[dict, dict]:
    """Per-layer metrics from the traced process's spans and counters."""
    spans = probe["spans"]
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s: dict = defaultdict(float)
    calls: Counter = Counter()
    for i, (name, start, end, _) in enumerate(spans):
        self_s[name] += end - start - child[i]
        calls[name] += 1
    distinct = probe["distinct"]

    def ratio(num, den):
        return num / den if den else 0.0

    eval_names = ("gfunction.evaluate_g", "gfunction.evaluate_g.first")
    gamma_names = ("pgamma.gamma", "pgamma.gamma.first")
    rational = [n for n in calls if n.startswith("rational.")]
    gamma_calls = sum(calls[n] for n in gamma_names)
    metrics = {
        "cli.parse_s": self_s["cli.parse_args"],
        "cli.self_s": self_s["cli.run"],
        "suites.self_s": self_s["suites.run_job"],
        "suites.jobs": calls["suites.run_job"],
        "suites.cases": probe["counters"]["suites.cases"],
        "gfunction.eval_s": sum(self_s[n] for n in eval_names) + self_s["gfunction.evaluate_g_inverted"],
        "gfunction.eval_calls": sum(calls[n] for n in eval_names),
        "gfunction.first_eval_s": self_s["gfunction.evaluate_g.first"],
        "gfunction.tables": distinct.get("gfunction.tables", 0),
        "pgamma.gamma_s": sum(self_s[n] for n in gamma_names),
        "pgamma.prefix_s": self_s["pgamma.gamma.first"],
        "pgamma.calls": gamma_calls,
        "pgamma.distinct_args": distinct.get("pgamma.args", 0),
        "pgamma.hit_ratio": 1.0 - ratio(distinct.get("pgamma.args", 0), gamma_calls) if gamma_calls else 0.0,
        "padic.teichmuller_s": self_s["padic.teichmuller"],
        "padic.teichmuller_calls": calls["padic.teichmuller"],
        "padic.teichmuller_distinct": distinct.get("padic.teichmuller", 0),
        "finitefield.build_s": self_s["finitefield.build"],
        "finitefield.count_roots_s": self_s["finitefield.count_roots"],
        "finitefield.count_roots_calls": calls["finitefield.count_roots"],
        "charsums.sum_A_s": self_s["charsums.sum_A"],
        "charsums.sum_A_calls": calls["charsums.sum_A"],
        "charsums.sum_A_per_lambda": ratio(calls["charsums.sum_A"], distinct.get("charsums.sum_A_lambdas", 0)),
        "charsums.sum_a_s": self_s["charsums.sum_a"],
        "charsums.jacobi_s": self_s["charsums.sum_h"] + self_s["charsums.sum_B"],
        "rational.self_s": sum(self_s[n] for n in rational),
        "rational.calls": sum(calls[n] for n in rational),
    }
    return metrics, dict(self_s)


E2E_UNITS = {"wall_s": "s", "cases_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB", "verified_frac": "ratio"}
LAYER_UNITS = {"_s": "s", "_ratio": "ratio", "_per_lambda": "ratio"}  # by suffix; else a count


def unit_of(name: str, trace: bool) -> str:
    if not trace:
        return E2E_UNITS[name]
    return next((u for suffix, u in LAYER_UNITS.items() if name.endswith(suffix)), "count")


# -------------------------------------------------------------------- run


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    fmt, verbose, _ = WORKLOADS[name]
    jobs = workload_jobs(name, seed)
    config = render_config(name, seed, fmt, verbose, jobs)
    expected = load_expected(name)
    cases = sum(rec["cases_total"] for rec in expected.values())

    rundir = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    os.chdir(rundir)
    Path("workload.cfg").write_text(config, encoding="utf-8")
    deadline = time.monotonic() + RUN_LIMIT_S

    # set-up probes; the first one warms the bytecode and page caches
    probes = [launch("setup", f"setup{i}", deadline) for i in range(SETUP_PROBES + 1)][1:]
    correct = all(s["exit"] == 0 and s["setup_s"] is not None for s in probes)
    attempted = failed = 0

    # samples alternate with the reference program: ref, sample, ref, ...
    refs = [reference("ref0", deadline)]
    samples: list[dict] = []
    untraced_report = None
    start = time.monotonic()
    # a new sample only if it is expected to end within the run's seconds
    while not samples or time.monotonic() - start + samples[-1]["wall_s"] + refs[-1] <= seconds:
        sample = launch("run", f"run{len(samples)}", deadline)
        refs.append(reference(f"ref{len(samples) + 1}", deadline))
        ok, text = check(sample, fmt, expected)
        sample["ok"] = ok
        sample["speed"] = REF_S / ((refs[-2] + refs[-1]) / 2)
        samples.append(sample)
        correct &= ok
        attempted += cases
        failed += 0 if ok else cases
        if not ok:
            break
        if untraced_report is None:
            untraced_report = report_without_timings(text, fmt)
    timed_failed = failed
    raw_wall = statistics.median(s["wall_s"] for s in samples)

    traced = None
    if trace:
        traced = launch("trace", "trace", deadline)
        ok, text = check(traced, fmt, expected)
        ok = ok and traced["probe"] is not None and report_without_timings(text, fmt) == untraced_report
        correct &= ok
        attempted += cases
        failed += 0 if ok else cases

    setups = [s["setup_s"] for s in probes + samples if s["setup_s"] is not None]
    run_speed = REF_S / statistics.median(refs)
    walls = [s["wall_s"] * s["speed"] for s in samples]
    if not trace:
        wall = statistics.median(walls)
        metrics = {
            "wall_s": wall,
            "cases_per_s": cases / wall,
            "setup_s": statistics.median(setups) * run_speed if setups else 0.0,
            "peak_rss_mb": statistics.median(s["rss_mb"] for s in samples),
            "verified_frac": 1.0 - timed_failed / (cases * len(samples)),
        }
    elif traced["probe"] is not None:
        metrics, self_s = layer_metrics(traced["probe"])
        metrics["trace.wall_s"] = traced["wall_s"]
        metrics["trace.overhead_s"] = traced["wall_s"] - raw_wall
        for span, value in sorted(self_s.items(), key=lambda kv: -kv[1]):
            print(f"  self {span:40s} {value:9.3f} s  {value / traced['wall_s']:6.1%}")
    else:
        metrics = {}

    q1, med, q3 = quartiles(walls)
    print(
        f"{name} seed={seed} jobs={len(jobs)} cases={cases} "
        f"config_sha256={hashlib.sha256(config.encode()).hexdigest()[:16]} "
        f"samples={len(samples)} wall_s (reference) median={med:.4f} q1={q1:.4f} q3={q3:.4f} "
        f"raw median={raw_wall:.4f}; reference program median={statistics.median(refs):.4f} s n={len(refs)}; "
        f"setup_s raw median={statistics.median(setups) if setups else 0.0:.4f} n={len(setups)}"
    )
    result = {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k, trace)} for k, v in metrics.items()},
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "config": config, "reference_s": refs,
        "samples": [dict(s, probe=None) for s in probes + samples],
        "traced": dict(traced, probe=None) if traced else None, "result": result,
    }
    Path("result.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "padichg" / "cli.py").is_file():
        print(f"error: no padichg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
