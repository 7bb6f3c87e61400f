"""Elementary character sums and Jacobi sums used as independent oracles.

The quadratic-character double and single sums A and a are computed purely
over the integers, never through Z_q; the Z_q path exists only as a
cross-check in the tests.  Both are built for every lambda of a field at once
from the context's Zech-log table dlog(1 + g^d): with phi(g^k) = (-1)^k each
comes from cyclic correlations of integer sequences of length q-1, so a
whole field costs O(q^2) integer operations, once per context, and sum_A and
sum_a are lookups.  Jacobi sums and the character-averaged sums h and B are
computed in Z_q with characters realized as powers of the inverse Teichmuller
character, read from the omega(g) power table by dlog.
"""

from __future__ import annotations

from operator import mul

from .finitefield import ZECH_UNDEFINED, FqContext, FqElement, quadratic_char
from .padic import UnramifiedContext, ZqElement


def _phi_one_plus(fq: FqContext) -> list[int]:
    """phi(1 + g^d) for d in 0..q-2; 0 at d = (q-1)/2, where 1 + g^d = 0."""
    return [0 if z == ZECH_UNDEFINED else 1 - 2 * (z & 1) for z in fq.zech_table()]


def _correlate(u: list[int], v: list[int]) -> list[int]:
    """c[m] = sum_i u[i] v[(i + m) mod n] for m in 0..n-1, n = len(u)."""
    n = len(u)
    vv = v + v
    return [sum(map(mul, u, vv[m : m + n])) for m in range(n)]


def _a_weights(phi1: list[int]) -> list[int]:
    """f_i = phi(g^i (1 + g^i)), the x-only factor of A."""
    return [v if i % 2 == 0 else -v for i, v in enumerate(phi1)]


def _A_values(fq: FqContext) -> list[int]:
    """[A(g^k, q) for k in 0..q-2]; built once per context.

    With S(c) = sum_x f(x) phi(x + c): S(g^k) = (-1)^k sum_i f_i phi(1 + g^(i-k))
    and A(g^k) = sum_j f_j S(g^(k+j)).
    """
    table = fq.charsum_tables.get("A")
    if table is None:
        n = fq.q - 1
        phi1 = _phi_one_plus(fq)
        f = _a_weights(phi1)
        c = _correlate(f, phi1)
        s = [c[-k % n] if k % 2 == 0 else -c[-k % n] for k in range(n)]
        table = _correlate(f, s)
        fq.charsum_tables["A"] = table
    return table


def _a_values(fq: FqContext) -> list[int]:
    """[a(lam, q) for 1/(lam+1) = g^k, k in 0..q-2]; built once per context.

    a = phi(1/(lam+1)) + (-1)^k sum_i phi(g^i - 1) phi(g^(2i-k) - 1), where
    phi(g^d - 1) = phi(-1) phi(1 + g^(d + (q-1)/2)); the two phi(-1) cancel.
    """
    table = fq.charsum_tables.get("a")
    if table is None:
        n = fq.q - 1
        phi1 = _phi_one_plus(fq)
        psi = phi1[n // 2 :] + phi1[: n // 2]  # psi[d] = phi(-1) phi(g^d - 1)
        w = [0] * n  # w[e] = sum of psi[i] over 2i = e mod n
        for i, v in enumerate(psi):
            w[2 * i % n] += v
        c = _correlate(w, psi)
        table = [1 + c[-k % n] if k % 2 == 0 else -1 - c[-k % n] for k in range(n)]
        fq.charsum_tables["a"] = table
    return table


def sum_A(lam: FqElement) -> int:
    """A(lam, q) = sum over (x, y) in F_q^2 of phi(x y (x+1)(y+1)(x + lam*y))."""
    fq = lam.context
    if lam.is_zero():
        # phi(x^2) = 1 off x = 0: A(0) = sum_{x != 0} phi(x+1) * sum_y phi(y(y+1))
        phi1 = _phi_one_plus(fq)
        return sum(phi1) * sum(_a_weights(phi1))
    return _A_values(fq)[lam.dlog()]


def sum_a(lam: FqElement) -> int:
    """a(lam, q) = sum over x of phi((x-1)(x^2 - 1/(lam+1))); lam != -1."""
    fq = lam.context
    shifted = lam + fq.one
    if shifted.is_zero():
        raise ValueError("lam = -1 makes 1/(lam+1) undefined")
    return _a_values(fq)[-shifted.dlog() % (fq.q - 1)]


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
