"""Elementary character sums and Jacobi sums used as independent oracles.

The quadratic-character double and single sums A and a are computed purely
over the integers, never through Z_q; the Z_q path exists only as a
cross-check in the tests.  Both are built for every lambda of a field at once
from the context's Zech-log table dlog(1 + g^d): with phi(g^k) = (-1)^k each
comes from cyclic correlations of integer sequences of length q-1: a field
costs O(q) integer work and three packed cyclic products (finitefield.correlate)
for A_values and a_values, F_q context tables that sum_A and sum_a read by dlog.

Jacobi sums and the character-averaged sums h and B are sums in Z_q, with
characters realized as powers of the inverse Teichmuller character.  Each
Jacobi family the sums need is one transform of an integer histogram c_e
over the pairs (dlog x, dlog(1-x)).  x -> x^p permutes the x outside
{0, 1}, multiplies dlog x and dlog(1-x) by p and keeps the parity of
dlog x, so c[p e] = c[e]: the families, and the cubes and products built
from them, are certified Z_p scalars, and every transform is
UnramifiedContext.scalar_transform on integers mod p^N.  h and B at every
lambda are one transform each of the Jacobi products; a field costs O(q)
integer work plus five Kronecker products for h_values and B_values, Z_q
context tables that sum_h and sum_B read by dlog and return as Z_q scalars.
"""

from .finitefield import ZECH_UNDEFINED, FqContext, correlate, memo, pack
from .padic import UnramifiedContext


def _phi_one_plus(fq: FqContext) -> list[int]:
    """phi(1 + g^d) for d in 0..q-2; 0 at d = (q-1)/2, where 1 + g^d = 0."""
    return [0 if z == ZECH_UNDEFINED else 1 - 2 * (z & 1) for z in fq.zech_table()]


def _cyclic(u: list[int], v: list[int]) -> list[int]:
    """c[m] = sum_i u[i] v[(i + m) mod n] for m in 0..n-1, n = len(u): one
    correlate of u and v itself with wrap = 1, a product of 2n-1 slots."""
    bound = len(u) * max(1, *map(abs, u)) * max(1, *map(abs, v))
    packed = pack([(x,) for x in v], bound)
    return [c for (c,) in correlate([(x,) for x in u], packed, 1)]


def _a_weights(phi1: list[int]) -> list[int]:
    """f_i = phi(g^i (1 + g^i)), the x-only factor of A."""
    return [v if i % 2 == 0 else -v for i, v in enumerate(phi1)]


def A_values(fq: FqContext) -> list[int]:
    """[A(g^k, q) for k in 0..q-2].

    With S(c) = sum_x f(x) phi(x + c): S(g^k) = (-1)^k sum_i f_i phi(1 + g^(i-k))
    and A(g^k) = sum_j f_j S(g^(k+j)).
    """
    return memo(fq, _A_table)


def _A_table(fq: FqContext) -> list[int]:
    n = fq.q - 1
    phi1 = _phi_one_plus(fq)
    f = _a_weights(phi1)
    c = _cyclic(f, phi1)
    s = [c[-k % n] if k % 2 == 0 else -c[-k % n] for k in range(n)]
    return _cyclic(f, s)


def a_values(fq: FqContext) -> list[int]:
    """[a(lam, q) for 1/(lam+1) = g^k, k in 0..q-2].

    a = phi(1/(lam+1)) + (-1)^k sum_i phi(g^i - 1) phi(g^(2i-k) - 1), where
    phi(g^d - 1) = phi(-1) phi(1 + g^(d + (q-1)/2)); the two phi(-1) cancel.
    """
    return memo(fq, _a_table)


def _a_table(fq: FqContext) -> list[int]:
    n = fq.q - 1
    phi1 = _phi_one_plus(fq)
    psi = phi1[n // 2 :] + phi1[: n // 2]  # psi[d] = phi(-1) phi(g^d - 1)
    w = [0] * n  # w[e] = sum of psi[i] over 2i = e mod n
    for i, v in enumerate(psi):
        w[2 * i % n] += v
    c = _cyclic(w, psi)
    return [1 + c[-k % n] if k % 2 == 0 else -1 - c[-k % n] for k in range(n)]


def sum_A(lam: "FqElement") -> int:
    """A(lam, q) = sum over (x, y) in F_q^2 of phi(x y (x+1)(y+1)(x + lam*y))."""
    fq = lam.context
    if lam.is_zero():
        # phi(x^2) = 1 off x = 0: A(0) = sum_{x != 0} phi(x+1) * sum_y phi(y(y+1))
        phi1 = _phi_one_plus(fq)
        return sum(phi1) * sum(_a_weights(phi1))
    return A_values(fq)[lam.dlog()]


def sum_a(lam: "FqElement") -> int:
    """a(lam, q) = sum over x of phi((x-1)(x^2 - 1/(lam+1))); lam != -1."""
    fq = lam.context
    shifted = lam + fq.one
    if shifted.is_zero():
        raise ValueError("lam = -1 makes 1/(lam+1) undefined")
    return a_values(fq)[-shifted.dlog() % (fq.q - 1)]


def _jacobi_family(zq: UnramifiedContext, u: int, v: int) -> list[int]:
    """[J(omega-bar^(half + u m), omega-bar^(v m)) mod p^N for m in 0..q-2].

    omega-bar^half(x) = (-1)^(dlog x), so the m-th sum is
    sum_x (-1)^(dlog x) W^(-m e(x)) with e = u dlog x + v dlog(1-x):
    the scalar transform of c_e = sum of (-1)^(dlog x) over e(x) = e.
    """
    n = zq.q - 1
    c = [0] * n
    for d1, d2 in zq.fq.jacobi_dlog_pairs():
        c[(u * d1 + v * d2) % n] += 1 - 2 * (d1 & 1)
    return zq.scalar_transform(c)


def h_values(zq: UnramifiedContext) -> list[int]:
    """[h(g^d) mod p^N for d in 0..q-2].

    With cube_m = J(chi-bar phi, chi)^3 for chi = omega-bar^m, h(g^d) is
    1/(q-1) sum_m omega(g)^(m d) cube_m, transform entry -d.
    """
    return memo(zq, _h_table)


def _h_table(zq: UnramifiedContext) -> list[int]:
    n, m = zq.q - 1, zq.modulus
    scale = pow(n, -1, m)
    cubes = [pow(j, 3, m) * scale % m for j in _jacobi_family(zq, -1, 1)]
    by_index = zq.scalar_transform(cubes)
    return [by_index[-d % n] for d in range(n)]


def sum_h(lam: "FqElement", zq: UnramifiedContext) -> "ZqElement":
    """h(lam) = 1/(q-1) * sum_chi chi(1/lam) J(chi-bar*phi, chi)^3; lam != 0.

    chi(1/lam) for chi = omega-bar^m collapses to omega(lam)^m.
    """
    if lam.is_zero():
        raise ValueError("h(0) is undefined")
    d = zq.dlog(lam)
    return zq.scalar(h_values(zq)[d])


def B_values(zq: UnramifiedContext) -> list[int]:
    """[B-sum mod p^N at arg = g^d for d in 0..q-2].

    phi(-2)/(q-1) sum_m J(phi chi^2, chi-bar) J(phi chi, chi-bar) omega-bar^m(arg)
    for chi = omega-bar^m is transform entry d.
    """
    return memo(zq, _B_table)


def _B_table(zq: UnramifiedContext) -> list[int]:
    m = zq.modulus
    lead = zq.fq.scalar_char(-2) * pow(zq.q - 1, -1, m) % m
    pairs = zip(_jacobi_family(zq, 2, -1), _jacobi_family(zq, 1, -1))
    return zq.scalar_transform([x * y % m * lead % m for x, y in pairs])


def sum_B(lam: "FqElement", zq: UnramifiedContext) -> "ZqElement":
    """B(lam) in the 1/q-free Jacobi-sum form

        phi(-2)/(q-1) * sum_chi J(phi chi^2, chi-bar) J(phi chi, chi-bar)
                              * chi(lam / (4(lam+1)))

    for lam outside {0, -1}; satisfies B = -phi(2 lam/(lam+1)) - phi(-1) a(lam,q).
    """
    fq = lam.context
    if lam.is_zero() or (lam + fq.one).is_zero():
        raise ValueError("B(lam) requires lam outside {0, -1}")
    d = zq.dlog(lam / (fq.scalar(4) * (lam + fq.one)))
    return zq.scalar(B_values(zq)[d])


def verify_aop_identity(lam: "FqElement") -> bool:
    """Exact integer identity A(lam, q) = phi(lam+1) (a(lam, q)^2 - q)."""
    fq = lam.context
    shifted = lam + fq.one
    if lam.is_zero() or shifted.is_zero():
        raise ValueError("the identity requires lam outside {0, -1}")
    z = shifted.dlog()
    a = a_values(fq)[-z % (fq.q - 1)]
    return A_values(fq)[lam.dlog()] == (1 - 2 * (z & 1)) * (a * a - fq.q)
