"""The benchmark's correctness gate, replayed in-process on every workload.

bench/run.py checks each sample's report against bench/expected.json.  Here
each workload's config, rendered as the benchmark renders it, runs through
cli.main in this process, and its per-job table must equal the expected
one, as bench/run.py's check requires.  bench/run.py is imported as a
module; nothing under bench/ is written.
"""

import importlib.util
from pathlib import Path

import pytest
from conftest import clear_shared_caches

from padichg import cli

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
bench_run = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_run)


@pytest.mark.parametrize("name", sorted(bench_run.WORKLOADS))
def test_workload_report_matches_expected_table(monkeypatch, tmp_path, name):
    fmt, verbose, _ = bench_run.WORKLOADS[name]
    jobs = bench_run.workload_jobs(name, 0)
    monkeypatch.chdir(tmp_path)
    Path("workload.cfg").write_text(
        bench_run.render_config(name, 0, fmt, verbose, jobs), encoding="utf-8"
    )
    clear_shared_caches()  # as in a fresh benchmark process
    try:
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["--config", "workload.cfg"])
    finally:
        clear_shared_caches()
    assert exit_info.value.code == 0
    text = Path(f"report.{fmt}").read_text(encoding="utf-8")
    expected = bench_run.expected_in_report(bench_run.load_expected(name), fmt)
    assert bench_run.table_from_report(text, fmt) == expected
