import pytest

from padichg import gfunction, padic, pgamma, suites


def clear_shared_caches():
    pgamma._caches.clear()
    suites._fq_cache.clear()  # each F_q context holds its Z_q contexts


def _planted(monkeypatch, owner, name, fault):
    """Set owner.name to fault for one test.  Shared caches are cleared on
    both sides, so poisoned tables cannot leak into other tests."""
    clear_shared_caches()
    monkeypatch.setattr(owner, name, fault, raising=False)
    yield
    monkeypatch.undo()
    clear_shared_caches()


def _gamma_fault(monkeypatch, shift):
    """Add shift(cache, n) to every Gamma_p(n) mod p^N, at the one seam
    GammaCache._nat_mod that every residue table and gamma(x) evaluate."""
    nat_mod = pgamma.GammaCache._nat_mod

    def perturbed(self, n):
        return (nat_mod(self, n) + shift(self, n)) % self.modulus

    return _planted(monkeypatch, pgamma.GammaCache, "_nat_mod", perturbed)


@pytest.fixture
def corrupted_gamma(monkeypatch):
    """Perturb every Gamma_p value mod p^2 so identity checks must fail.

    The perturbation keeps values p-adic units (v + p = v mod p), so the
    evaluation machinery runs to completion and the failure is caught by the
    identity comparisons, not by a unit check.
    """
    yield from _gamma_fault(monkeypatch, lambda cache, n: cache.p)


@pytest.fixture
def corrupted_gamma_last_digit(monkeypatch):
    """Add p^(N-1) to every Gamma_p value, so only the last p-adic digit of
    each is wrong and every value keeps its reduction mod p."""
    yield from _gamma_fault(monkeypatch, lambda cache, n: cache.modulus // cache.p)


@pytest.fixture
def corrupted_gamma_five_sixths(monkeypatch):
    """Add p^(N-1) to Gamma_p(5/6) alone, for p > 3, so identity checks that
    read it must fail.

    The value stays a unit and keeps its reduction mod p; every other
    Gamma_p value is exact.
    """

    def shift(cache, n):
        m = cache.modulus
        return m // cache.p if cache.p > 3 and (6 * n - 5) % m == 0 else 0  # n = 5/6 mod p^N

    yield from _gamma_fault(monkeypatch, shift)


@pytest.fixture
def corrupted_gamma_quarter(monkeypatch):
    """Add p^(N-1) to Gamma_p(1/4) alone, so identity checks that read it
    must fail.

    The value stays a unit and keeps its reduction mod p; every other
    Gamma_p value is exact.
    """

    def shift(cache, n):
        m = cache.modulus
        return m // cache.p if (4 * n - 1) % m == 0 else 0  # n = 1/4 mod p^N

    yield from _gamma_fault(monkeypatch, shift)


@pytest.fixture
def corrupted_teichmuller(monkeypatch):
    """Add p^(N-1) to one Teichmuller power, omega(g) itself, so identity
    checks must fail.

    The power stays a unit and keeps its reduction mod p, so only the last
    p-adic digit of the characters it enters is wrong.
    """
    powers = padic._teichmuller_powers

    def perturbed(zq):
        pows = powers(zq)
        shift = zq.modulus // zq.base.p
        pows[1] = ((pows[1][0] + shift) % zq.modulus,) + pows[1][1:]
        return pows

    yield from _planted(monkeypatch, padic, "_teichmuller_powers", perturbed)


@pytest.fixture
def conjugate_teichmuller(monkeypatch):
    """Read the Teichmuller powers as omega-bar: the table holds
    omega-bar(g)^k = omega(g)^(-k) where omega(g)^k belongs.

    Every entry is still a Teichmuller unit, so only the character's
    direction is wrong; at q = 3, omega-bar = omega and nothing changes.
    """
    powers = padic._teichmuller_powers

    def conjugate(zq):
        pows = powers(zq)
        return [pows[-k % len(pows)] for k in range(len(pows))]

    yield from _planted(monkeypatch, padic, "_teichmuller_powers", conjugate)


@pytest.fixture
def dropped_floor(monkeypatch):
    """Drop the floor -floor(<a_k p^i> - u) from every (-p) exponent of
    gfunction._coefficient_table.

    The table takes each floor from a divmod in gfunction._rotation_rows,
    its only use in gfunction, at a reduced index u = x/(q-1) < 1: the
    floor of <a_k p^i> - u is then -1 or 0 and that of <-b_k p^i> + u is 0
    or 1, so zeroing negative quotients drops the first wherever it is -1
    and keeps every Gamma_p argument (the remainders).
    """

    def floor_dropped(x, d):
        quotient, remainder = divmod(x, d)
        return max(quotient, 0), remainder

    yield from _planted(monkeypatch, gfunction, "divmod", floor_dropped)
