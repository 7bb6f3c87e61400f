"""Elementary character sums and Jacobi sums used as independent oracles.

The quadratic-character double and single sums A and a are computed purely
over the integers, never through Z_q; the Z_q path exists only as a
cross-check in the tests.  Both are built for every lambda of a field at once
from the context's Zech-log table dlog(1 + g^d): with phi(g^k) = (-1)^k each
comes from cyclic correlations of integer sequences of length q-1: a field
costs O(q) integer work and three packed cyclic products (finitefield.correlate)
for A_values and a_values, F_q context tables that sum_A and sum_a read by dlog.

Jacobi sums and the character-averaged sums h and B are sums in Z_q, with
characters realized as powers of the inverse Teichmuller character
omega-bar, W = omega(g).  Each Jacobi family the sums need is the transform
J_m = sum_e c_e W^(-m e) of an integer histogram c_e over the pairs
(dlog x, dlog(1-x)), and as sum_m W^(m d) W^(-m e) = (q-1) [d = e], the
averages over m that define h and B are exact cyclic convolutions of those
histograms.  So h and B at every lambda are integers: three more cyclic
correlations of q-1 one-slot blocks, reduced mod p^N, build h_values and
B_values, Z_q context tables that sum_h and sum_B read by dlog and return
as Z_q scalars.  No p-adic transform is taken, so these oracles share no
code with the nGn tables they check; the tests transform the histograms
and compare them with Teichmuller Jacobi sums.
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


def _jacobi_counts(fq: FqContext, u: int, v: int) -> list[int]:
    """c^(u,v): c_e = sum of (-1)^(dlog x) over x outside {0, 1} with
    u dlog x + v dlog(1-x) = e mod q-1, for e in 0..q-2.

    Its transform sum_e c_e W^(-m e) is J(omega-bar^(half + u m),
    omega-bar^(v m)) with half = (q-1)/2, as omega-bar^half(x) = (-1)^(dlog x).
    Negating u and v reverses the histogram: c^(-u,-v)[e] = c^(u,v)[-e].
    """
    n = fq.q - 1
    c = [0] * n
    for d1, d2 in fq.jacobi_dlog_pairs():
        c[(u * d1 + v * d2) % n] += 1 - 2 * (d1 & 1)
    return c


def h_values(zq: UnramifiedContext) -> list[int]:
    """[h(g^d) mod p^N for d in 0..q-2].

    J_m = J(chi-bar phi, chi) for chi = omega-bar^m is the transform of
    c = c^(-1,1), and h(g^d) = 1/(q-1) sum_m W^(m d) J_m^3.  As
    sum_m W^(m d) W^(-m e) = (q-1) [d = e], that is the exact cyclic
    convolution (c * c * c)[d].  With _cyclic(u, v)[k] = sum_i u[i] v[i+k]
    and the reversal cbar = c^(1,-1) of c, _cyclic(c, cbar)[k] = (c * c)[-k],
    and correlating that with c gives (c * c * c)[k].
    """
    return memo(zq, _h_table)


def _h_table(zq: UnramifiedContext) -> list[int]:
    c = _jacobi_counts(zq.fq, -1, 1)
    cbar = c[:1] + c[:0:-1]  # c^(1,-1)[e] = c[-e]
    return [x % zq.modulus for x in _cyclic(_cyclic(c, cbar), c)]


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
    for chi = omega-bar^m.  The two Jacobi sums are the transforms of
    c^(2,-1) and c^(1,-1), and omega-bar^m(g^d) = W^(-m d), so as
    sum_m W^(-m e) W^(-m d) = (q-1) [e = -d] the sum is the exact
    phi(-2) (c^(2,-1) * c^(1,-1))[-d]: phi(-2) times one _cyclic of c^(2,-1)
    with the reversal c^(-1,1) of c^(1,-1), entry d.
    """
    return memo(zq, _B_table)


def _B_table(zq: UnramifiedContext) -> list[int]:
    fq, m = zq.fq, zq.modulus
    sign = fq.scalar_char(-2)
    return [sign * x % m for x in _cyclic(_jacobi_counts(fq, 2, -1), _jacobi_counts(fq, -1, 1))]


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
