"""Elementary character sums and Jacobi sums used as independent oracles.

The quadratic-character double and single sums A and a are computed purely
over the integers (dlog parity), never through Z_q; the Z_q path exists only
as a cross-check in the tests.  Jacobi sums and the character-averaged sums
h and B are computed in Z_q with characters realized as powers of the
inverse Teichmuller character, read from the omega(g) power table by dlog.
"""

from __future__ import annotations

from .finitefield import FqElement, quadratic_char
from .padic import UnramifiedContext, ZqElement


def sum_A(lam: FqElement) -> int:
    """A(lam, q) = sum over (x, y) in F_q^2 of phi(x y (x+1)(y+1)(x + lam*y))."""
    fq = lam.context
    phi = fq.phi_table()
    one = fq.one
    # phi is multiplicative, so split off the x-only and y-only factors
    pair = [(x, phi[x.coeffs] * phi[(x + one).coeffs]) for x in fq.elements()]
    pair = [(x, s) for x, s in pair if s]
    total = 0
    for y, sy in pair:
        ly = lam * y
        acc = 0
        for x, sx in pair:
            acc += sx * phi[(x + ly).coeffs]
        total += sy * acc
    return total


def sum_a(lam: FqElement) -> int:
    """a(lam, q) = sum over x of phi((x-1)(x^2 - 1/(lam+1))); lam != -1."""
    fq = lam.context
    shifted = lam + fq.one
    if shifted.is_zero():
        raise ValueError("lam = -1 makes 1/(lam+1) undefined")
    c = shifted.inverse()
    one = fq.one
    return sum(quadratic_char((x - one) * (x * x - c)) for x in fq.elements())


def jacobi_sum(i: int, j: int, zq: UnramifiedContext) -> ZqElement:
    """J(omega-bar^i, omega-bar^j) = sum_x omega-bar^i(x) omega-bar^j(1-x) in Z_q.

    The chi(0) = 0 convention drops x in {0, 1}, so J(eps, eps) = q - 2.
    """
    fq = zq.fq
    n = fq.q - 1
    pows = zq.omega_generator_powers()
    acc = zq.zero
    for d1, d2 in fq.jacobi_dlog_pairs():
        acc = acc + pows[(-i * d1 - j * d2) % n]
    return acc


def _h_cubes(zq: UnramifiedContext) -> list[ZqElement]:
    """J(chi-bar*phi, chi)^3 for chi = omega-bar^m, m = 0..q-2; lam-independent."""
    cubes = zq.charsum_tables.get("h_cubes")
    if cubes is None:
        n = zq.q - 1
        half = n // 2
        cubes = [jacobi_sum((half - m) % n, m, zq) ** 3 for m in range(n)]
        zq.charsum_tables["h_cubes"] = cubes
    return cubes


def sum_h(lam: FqElement, zq: UnramifiedContext) -> ZqElement:
    """h(lam) = 1/(q-1) * sum_chi chi(1/lam) J(chi-bar*phi, chi)^3; lam != 0.

    chi(1/lam) for chi = omega-bar^m collapses to omega(lam)^m.
    """
    if lam.is_zero():
        raise ValueError("h(0) is undefined")
    n, m = zq.q - 1, zq.modulus
    pows = zq.omega_generator_powers()
    d = zq.dlog(lam)
    acc = zq.zero
    for k, cube in enumerate(_h_cubes(zq)):
        acc = acc + pows[k * d % n] * cube
    return acc.scale(pow(n, -1, m))


def _b_pairs(zq: UnramifiedContext) -> list[ZqElement]:
    """J(phi*chi^2, chi-bar) * J(phi*chi, chi-bar) for chi = omega-bar^m."""
    pairs = zq.charsum_tables.get("b_pairs")
    if pairs is None:
        n = zq.q - 1
        half = n // 2
        pairs = [
            jacobi_sum((half + 2 * m) % n, (n - m) % n, zq)
            * jacobi_sum((half + m) % n, (n - m) % n, zq)
            for m in range(n)
        ]
        zq.charsum_tables["b_pairs"] = pairs
    return pairs


def sum_B(lam: FqElement, zq: UnramifiedContext) -> ZqElement:
    """B(lam) in the 1/q-free Jacobi-sum form

        phi(-2)/(q-1) * sum_chi J(phi chi^2, chi-bar) J(phi chi, chi-bar)
                              * chi(lam / (4(lam+1)))

    for lam outside {0, -1}; satisfies B = -phi(2 lam/(lam+1)) - phi(-1) a(lam,q).
    """
    fq = lam.context
    if lam.is_zero() or (lam + fq.one).is_zero():
        raise ValueError("B(lam) requires lam outside {0, -1}")
    n, m = zq.q - 1, zq.modulus
    pows = zq.omega_generator_powers()
    d = zq.dlog(lam / (fq.scalar(4) * (lam + fq.one)))
    acc = zq.zero
    for k, pair in enumerate(_b_pairs(zq)):
        acc = acc + pows[-k * d % n] * pair  # chi(arg) = omega-bar^k(arg)
    lead = quadratic_char(fq.scalar(-2)) * pow(n, -1, m) % m
    return acc.scale(lead)


def verify_aop_identity(lam: FqElement) -> bool:
    """Exact integer identity A(lam, q) = phi(lam+1) (a(lam, q)^2 - q)."""
    fq = lam.context
    if lam.is_zero() or (lam + fq.one).is_zero():
        raise ValueError("the identity requires lam outside {0, -1}")
    a = sum_a(lam)
    return sum_A(lam) == quadratic_char(lam + fq.one) * (a * a - fq.q)
