"""Reports pinned by sha256: a change that moves any byte of them shows here.

Each passing run is pinned twice: as json without the timing field
`elapsed_ms`, and byte for byte as `--format csv --verbose` (one row per
case).  One failing run, under `corrupted_gamma`, pins the failure
formatting that no passing run reaches: the mismatched scalars, the
mismatched pairs and the `aborted` record.  A change meant to alter a report
updates its hash here and says why in CHANGES.md.
"""

import hashlib
import json

import pytest
from conftest import clear_shared_caches
from oracles import primitive_polynomials

from padichg import finitefield
from padichg.cli import parse_args, run

PASSING = {
    "battery": [],
    "all-7-3": ["--p", "7", "--r", "3", "--suite", "all"],
    "all-5-3": ["--p", "5", "--r", "3", "--suite", "all"],
    "all-3-4": ["--p", "3", "--r", "4", "--suite", "all"],
    "gamma-211": ["--p", "211", "--suite", "gamma", "--precision", "3"],
}

JSON_SHA256 = {
    "battery": "c799450b5c8c81646c94ea835ccca4c2bbcaef15b92d017eb3d1a98576bec782",
    "all-7-3": "088bc48c0f2cb284a6bda52d16e79c6acac5db21b1c3363f7d9479c53ad850f2",
    "all-5-3": "641e7d87d9c15c04f7fef1f0c105c0c8792b67dfa39acc94b7d70d2a312afecd",
    "all-3-4": "b188c0871a99e1cb36688084d67ada0460ace7fb6b9023894203ebac4b8c49c5",
    "gamma-211": "00e5e44a93b43cbdcc933ac575babb6aa010f621b2361d4c4720c0a8fb746a82",
}

CSV_SHA256 = {
    "battery": "991c40200f8dbe57a65bb43d78847e33de7d9be03b0b69fdd44cfa431de81f0a",
    "all-7-3": "ff0a8ab27a5d347e6d578386435cb0683ffb72dfbaa0f2f930cf1a3ccbf6899a",
    "all-5-3": "3ad9ded5a9b3d108a21bcd092c74806c80400aaa900cc8f6744451201e2e93c9",
    "all-3-4": "8e274220cfe1e051ca0d6a2569d99e2fc034c33a0f59b19d949a1b2a480b762a",
    "gamma-211": "597cb6bac0663b010b9117dc63adeb042592f0b483c4952ec2ef64882ee3a75d",
}

FAILING_JSON_SHA256 = "f467276df99ac697af8416f90073ed7257889e51fb0980fc261f10297df1805b"


def _report(argv, tmp_path):
    out = tmp_path / "report"
    code = run(parse_args([*argv, "--out", str(out)]))
    return code, out.read_bytes()


def _json_digest(data):
    records = json.loads(data)
    for rec in records:
        rec.pop("elapsed_ms")
    return hashlib.sha256((json.dumps(records, indent=2) + "\n").encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(PASSING))
def test_json_report_pinned(name, tmp_path):
    code, data = _report([*PASSING[name], "--format", "json"], tmp_path)
    assert code == 0
    assert _json_digest(data) == JSON_SHA256[name]


@pytest.mark.parametrize("name", sorted(PASSING))
def test_verbose_csv_report_pinned(name, tmp_path):
    code, data = _report([*PASSING[name], "--format", "csv", "--verbose"], tmp_path)
    assert code == 0
    assert hashlib.sha256(data).hexdigest() == CSV_SHA256[name]


def test_failing_report_pinned(corrupted_gamma, tmp_path):
    code, data = _report(["--p", "5", "--r", "2", "--suite", "all", "--format", "json"], tmp_path)
    assert code == 1
    records = json.loads(data)
    failed = {rec["suite"] for rec in records if rec["failures"]}
    aborted = {
        rec["suite"] for rec in records if any(f["case"] == "aborted" for f in rec["failures"])
    }
    assert failed >= {"euler", "clausen", "gamma", "zeros", "oracles", "charsums"}
    assert aborted >= {"zeros", "oracles", "charsums"}
    assert _json_digest(data) == FAILING_JSON_SHA256


@pytest.mark.parametrize("p,r", [(5, 2), (3, 3), (7, 2)])
def test_passing_report_independent_of_basis(p, r, tmp_path, monkeypatch):
    # a case label is a coefficient tuple and the sweep runs in coefficient
    # order, so F_q built from its second primitive polynomial, in another
    # power basis, renders the same bytes
    argv = ["--p", str(p), "--r", str(r), "--suite", "all", "--format", "csv", "--verbose"]
    clear_shared_caches()
    reports = [_report(argv, tmp_path)]
    second = primitive_polynomials(p, r)[1]
    monkeypatch.setattr(finitefield, "primitive_polynomial", lambda p, r: second)
    clear_shared_caches()
    reports.append(_report(argv, tmp_path))
    monkeypatch.undo()
    clear_shared_caches()
    assert reports[0] == reports[1]
    assert reports[0][0] == 0
