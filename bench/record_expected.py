"""Record bench/expected.json: the per-job table of every workload.

    python3 bench/record_expected.py

Runs each workload once, as a json report, and keeps for every job
(suite, p, r, N) its q, cases_total, cases_passed, skipped flag and failure
count.  The committed file was recorded from a program whose every case
passed; re-record it only when a change is meant to alter the job tables,
and say so.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time
from pathlib import Path

import run


def main() -> int:
    tables = {}
    workdir = run.OUT / "record-expected"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    os.chdir(workdir)
    for name, (_, _, jobs) in run.WORKLOADS.items():
        Path("workload.cfg").write_text(run.render_config(name, 0, "json", False, jobs), encoding="utf-8")
        sample = run.launch("run", name, time.monotonic() + run.RUN_LIMIT_S)
        if sample["exit"] != 0:
            print(f"{name}: padichg exited {sample['exit']}; nothing recorded", file=sys.stderr)
            return 1
        table = run.table_from_report(Path("report.json").read_text(encoding="utf-8"), "json")
        tables[name] = sorted(table.values(), key=lambda r: (r["p"], r["r"], r["suite"]))
        cases = sum(r["cases_total"] for r in tables[name])
        print(f"{name}: {len(table)} jobs, {cases} cases, {sample['wall_s']:.1f} s")
    run.EXPECTED.write_text(json.dumps(tables, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
