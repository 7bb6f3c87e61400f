import pytest

from padichg import padic, pgamma, suites


def clear_shared_caches():
    pgamma._caches.clear()
    suites._fq_cache.clear()  # each F_q context holds its Z_q contexts


@pytest.fixture
def corrupted_gamma(monkeypatch):
    """Perturb every Gamma_p value mod p^2 so identity checks must fail.

    The perturbation keeps values p-adic units (v + p = v mod p), so the
    evaluation machinery runs to completion and the failure is caught by the
    identity comparisons, not by a unit check.  Shared caches are cleared on
    both sides so poisoned tables cannot leak into other tests.
    """
    clear_shared_caches()
    original = pgamma.GammaCache._nat_mod

    def perturbed(self, n):
        return (original(self, n) + self.p) % self.modulus

    monkeypatch.setattr(pgamma.GammaCache, "_nat_mod", perturbed)
    yield
    monkeypatch.undo()
    clear_shared_caches()


@pytest.fixture
def corrupted_teichmuller(monkeypatch):
    """Add p^(N-1) to one Teichmuller power, omega(g) itself, so identity
    checks must fail.

    The power stays a unit and keeps its reduction mod p, so only the last
    p-adic digit of the characters it enters is wrong.  Shared caches are
    cleared on both sides, as for corrupted_gamma.
    """
    clear_shared_caches()
    original = padic._teichmuller_powers

    def perturbed(zq):
        pows = original(zq)
        shift = zq.modulus // zq.base.p
        pows[1] = ((pows[1][0] + shift) % zq.modulus,) + pows[1][1:]
        return pows

    monkeypatch.setattr(padic, "_teichmuller_powers", perturbed)
    yield
    monkeypatch.undo()
    clear_shared_caches()


@pytest.fixture
def corrupted_gamma_five_sixths(monkeypatch):
    """Add p^(N-1) to Gamma_p(5/6) alone, for p > 3, so identity checks that
    read it must fail.

    The value stays a unit and keeps its reduction mod p; every other
    Gamma_p value is exact.  Shared caches are cleared on both sides, as for
    corrupted_gamma.
    """
    clear_shared_caches()
    original = pgamma.GammaCache._nat_mod

    def perturbed(self, n):
        value, m = original(self, n), self.modulus
        if self.p > 3 and (6 * n - 5) % m == 0:  # n = 5/6 mod p^N
            value = (value + m // self.p) % m
        return value

    monkeypatch.setattr(pgamma.GammaCache, "_nat_mod", perturbed)
    yield
    monkeypatch.undo()
    clear_shared_caches()


@pytest.fixture
def corrupted_gamma_quarter(monkeypatch):
    """Add p^(N-1) to Gamma_p(1/4) alone, so identity checks that read it
    must fail.

    The value stays a unit and keeps its reduction mod p; every other
    Gamma_p value is exact.  Shared caches are cleared on both sides, as for
    corrupted_gamma.
    """
    clear_shared_caches()
    original = pgamma.GammaCache._nat_mod

    def perturbed(self, n):
        value, m = original(self, n), self.modulus
        if (4 * n - 1) % m == 0:  # n = 1/4 mod p^N
            value = (value + m // self.p) % m
        return value

    monkeypatch.setattr(pgamma.GammaCache, "_nat_mod", perturbed)
    yield
    monkeypatch.undo()
    clear_shared_caches()
