import pytest

from padichg import pgamma, suites


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
