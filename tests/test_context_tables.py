"""Each field context is the one owner of the tables derived from its field.

finitefield.memo builds a table on first use and keeps it in the context's
tables dict, and suites keeps only the F_q contexts, each holding its Z_q
contexts.  So a full run builds every table once, a second run builds none,
and no context keeps a table anywhere else.  A Gamma_p cache holds its
digit table and its residue tables the same way, so every nGn table and the
gamma suite read one residue table per denominator.
"""

import gc
import weakref
from collections import Counter

import pytest
from conftest import clear_shared_caches

from padichg import pgamma, suites
from padichg.finitefield import FqContext, memo
from padichg.jobs import INTEGER_SUITES
from padichg.padic import UnramifiedContext
from padichg.suites import SUITE_NAMES, JobSpec, contexts, run_job

BUILDERS = {
    # F_q: the Zech table, the two cubic root tables, A, a and the Z_q contexts
    "_one_plus_logs",
    "_preimage_histogram",
    "_A_table",
    "_a_table",
    "UnramifiedContext",
    # Z_q: Teichmuller powers, packed chirp, scalar weights, nGn values, h, B
    "_teichmuller_powers",
    "_packed_chirp",
    "_frobenius_weights",
    "_values",
    "_h_table",
    "_B_table",
}


class _CountingTables(dict):
    """A tables dict that counts every store by key."""

    def __init__(self):
        super().__init__()
        self.builds = Counter()

    def __setitem__(self, key, value):
        self.builds[key] += 1
        super().__setitem__(key, value)


def _held_contexts() -> list:
    held = []
    for fq in suites._fq_cache.values():
        held.append(fq)
        held += [t for t in fq.tables.values() if isinstance(t, UnramifiedContext)]
    return held


@pytest.mark.parametrize("p,r", [(7, 2), (5, 3)])
def test_every_table_is_built_once_and_held_by_its_context(monkeypatch, p, r):
    for cls in (FqContext, UnramifiedContext):

        def counting_init(self, *args, _init=cls.__init__):
            _init(self, *args)
            self.tables = _CountingTables()

        monkeypatch.setattr(cls, "__init__", counting_init)
    clear_shared_caches()
    try:
        for suite in SUITE_NAMES:
            assert run_job(JobSpec(p, r, suite)).passed(), suite
        held = _held_contexts()
        # the field, then one Z_q context per precision of a field suite
        assert {zq.precision for zq in held[1:]} == {
            JobSpec(p, r, s).precision for s in SUITE_NAMES if s not in INTEGER_SUITES
        }
        builds = [dict(ctx.tables.builds) for ctx in held]
        assert all(count == 1 for b in builds for count in b.values())
        assert {key[0].__name__ for ctx in held for key in ctx.tables} == BUILDERS
        for suite in SUITE_NAMES:
            run_job(JobSpec(p, r, suite))
        assert _held_contexts() == held
        assert [dict(ctx.tables.builds) for ctx in held] == builds
        for ctx in held:
            kept = {name for name, v in vars(ctx).items() if isinstance(v, (list, dict))}
            assert kept <= {"tables", "powers", "dlog"}, ctx
    finally:
        clear_shared_caches()


@pytest.mark.parametrize("p,r", [(7, 1), (5, 2)])
def test_one_residue_table_per_denominator(monkeypatch, p, r):
    cls = pgamma.GammaCache

    def counting_init(self, *args, _init=cls.__init__):
        _init(self, *args)
        self.tables = _CountingTables()

    reads = []  # (suite, d, the table read)

    def recording_residues(self, d, _residues=cls.residues):
        table = _residues(self, d)
        reads.append((suite, d, table))
        return table

    monkeypatch.setattr(cls, "__init__", counting_init)
    monkeypatch.setattr(cls, "residues", recording_residues)
    clear_shared_caches()
    try:
        names = ("euler", "zeros", "oracles", "inversion", "gamma")
        for suite in names:
            assert run_job(JobSpec(p, r, suite, precision=4)).passed(), suite
        (cache,) = pgamma._caches.values()  # one precision, so one cache
        builds = dict(cache.tables.builds)
        assert all(count == 1 for count in builds.values())
        built = sorted(key[1] for key in builds if key[0] is pgamma._ResidueTable)
        assert built == sorted({d for _, d, _ in reads})
        # every read of one d is the one table its cache holds
        for suite, d, table in reads:
            assert table is cache.tables[pgamma._ResidueTable, d], (suite, d)
        # the two Euler families and the gamma suite share their d
        euler = [d for s, d, _ in reads if s == "euler"]
        assert len(euler) == 2 and euler[0] == euler[1]
        assert euler[0] in {d for s, d, _ in reads if s == "gamma"}
        for suite in names:
            run_job(JobSpec(p, r, suite, precision=4))
        assert list(pgamma._caches.values()) == [cache]
        assert dict(cache.tables.builds) == builds
        kept = {name for name, v in vars(cache).items() if isinstance(v, (list, dict))}
        assert kept == {"tables"}
    finally:
        clear_shared_caches()


def test_contexts_returns_the_zq_context_its_field_holds():
    clear_shared_caches()
    fq, zq = contexts(7, 2, 4)
    assert memo(fq, UnramifiedContext, 4) is zq and zq.fq is fq
    assert contexts(7, 2, 4)[1] is zq and contexts(7, 2, 5)[1] is not zq
    refs = weakref.ref(fq), weakref.ref(zq)
    del fq, zq
    clear_shared_caches()
    gc.collect()  # a field and its Z_q contexts refer to each other
    assert [ref() for ref in refs] == [None, None]
