"""Evaluator for McCarthy's p-adic hypergeometric function nGn[...]_q.

For parameters a_1..a_n, b_1..b_n in Q ∩ Z_p and t in F_q,

    nGn[a; b | t]_q = -1/(q-1) * sum_{a=0}^{q-2} (-1)^{a n} omega-bar^a(t)
        * prod_{k<=n} prod_{i<r} (-p)^{e(a_k,b_k,a,i)}
          * Gamma_p(<(a_k - a/(q-1)) p^i>) / Gamma_p(<a_k p^i>)
          * Gamma_p(<(-b_k + a/(q-1)) p^i>) / Gamma_p(<-b_k p^i>)

with e(a_k, b_k, a, i) = -floor(<a_k p^i> - a p^i/(q-1)) - floor(<-b_k p^i>
+ a p^i/(q-1)).  Everything except omega-bar^a(t) is a Z_p scalar c_a
independent of t.  The table of the c_a is built in integer arithmetic: with
D = lcm(q-1, parameter denominators), every Gamma_p argument above is a
residue num/D, read from the shared GammaCache's one residue table for D,
and one floor division by D gives both an argument and its floor in e.

Row (k, i) reads a only through a p^i: writing a p^i = x + j (q-1) with
x = a p^i mod (q-1) keeps both Gamma_p arguments of the row and moves its
two floors by -j and +j, which cancel in e.  So with
R_i = (sorted D<a_k p^i>, sorted D<-b_k p^i>), the rotation of the
parameters by p^i, c_a is (-1)^(a n) prod_i F_(R_i)[a p^i mod (q-1)] times
(-p) to the sum of the E_(R_i)[a p^i mod (q-1)], with one row set (F, E)
of q-1 entries per distinct R_i in place of one row per (k, i).

With k = dlog t, omega-bar^a(t) = omega(g)^(-a k), so the values at every t
of the field are one character transform of the table.  A family closed
under x -> p x mod 1, as is every family of the paper's transformations and
special values, has one rotation R, so c_a is a product over the Frobenius
orbit of a and c[p a mod (q-1)] = c[a] holds by construction.
UnramifiedContext.scalar_transform checks this certificate, O(q) integer
compares, and builds the values as integers mod p^N; value_table raises
EvaluationIntegrityError for a table that fails it, as a family with more
than one rotation may.  A field therefore
costs an O(q) integer table plus one Kronecker product per parameter set,
a table of the Z_q context keyed by (upper, lower); the suites index the
table by dlog t.  The key holds each parameter as a reduced (num, den)
integer pair, so a table needs no Fraction: the suites write their
families as such pairs, and value_table reads each parameter through
zmod.ratio, the one reader of exact rationals.  evaluate_g, the GParams
facade of padichg.elements, shares these tables: it reads a certified
family from its value table and sums any other point by point in Z_q,
O(q r) per call over a scaled table that the context keeps in the value
table's place.

Individual (k, i) factors can carry a negative floor exponent (the b_k = 1/2
families do at a = (q-1)/2), but the exponents summed over one term always
cancel to a non-negative total for the families in scope; a negative total
would demand a power of 1/p that does not exist in the quotient ring, so it
aborts the evaluation as an integrity failure rather than silently wrap.
"""

from collections import namedtuple
from importlib import import_module
from math import lcm

from .padic import EvaluationIntegrityError, UnramifiedContext
from .pgamma import gamma_cache
from .zmod import memo, ratio

# name -> its module, for the names that bench/tracing.py rebinds here.  The
# tables need none of them, so __getattr__ serves each one from its module,
# imported when it is first asked for.
_TRACED = {"evaluate_g": "elements", "frac": "rational", "g_exponent": "rational"}


def __getattr__(name: str):
    module = _TRACED.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __package__), name)


def _checked(upper, lower, p: int) -> tuple[tuple, tuple]:
    """Parameter tuples as the reduced (num, den) pairs of zmod.ratio, of
    equal length >= 1, each in Z_p."""
    upper = tuple(ratio(a, "upper parameter", p) for a in upper)
    lower = tuple(ratio(b, "lower parameter", p) for b in lower)
    if len(upper) != len(lower) or not upper:
        raise ValueError("upper and lower parameter lists must have equal length >= 1")
    return upper, lower


def _coefficient_table(upper, lower, zq: UnramifiedContext) -> list[int]:
    """Z_p coefficients c_a of omega-bar^a(t), indexed by a, in integer
    arithmetic, for parameters as the (num, den) pairs of _checked.

    c_a = (-1)^(a len(upper)) prod_{i<r} F_i[x_i] (-p)^(sum_{i<r} E_i[x_i])
    with x_i = a p^i mod (q-1), where (F_i, E_i) are the _rotation_rows of
    the rotation R_i = (sorted d<a_k p^i>, sorted d<-b_k p^i>), built once
    per distinct R_i: a family closed under x -> p x has one.
    """
    fq = zq.fq
    p, r, n, m = fq.p, fq.r, fq.q - 1, zq.modulus
    count = len(upper)
    d = lcm(n, *(den for _, den in upper + lower))
    gamma = gamma_cache(zq.base).residues(d)
    built, rows = {}, []
    for i in range(r):
        pi = p**i
        rotation = (
            tuple(sorted(num * (d // den) * pi % d for num, den in upper)),
            tuple(sorted(-num * (d // den) * pi % d for num, den in lower)),
        )
        if rotation not in built:
            built[rotation] = _rotation_rows(*rotation, d, n, gamma, m)
        rows.append(built[rotation])
    powers = [pow(-p, e, m) for e in range(count * r + 1)]

    table = []
    for a in range(n):
        acc = 1 if (a * count) % 2 == 0 else m - 1
        exponent, x = 0, a
        for units, exponents in rows:
            acc = acc * units[x] % m
            exponent += exponents[x]
            x = x * p % n
        if exponent < 0:
            raise EvaluationIntegrityError(
                f"negative total (-p) exponent {exponent} at a={a} for parameters "
                f"{upper}; {lower} as (num, den) pairs"
            )
        table.append(acc * powers[exponent] % m)
    return table


def _rotation_rows(alphas, betas, d: int, n: int, gamma, m: int) -> tuple[list, list]:
    """(F, E) of one rotation: for x in 0..n-1, with u = x d/n and
    G(num) = gamma[num] = Gamma_p(num/d) mod m,

        F[x] = prod G((alpha - u) mod d) G((beta + u) mod d) / (G(alpha) G(beta))
        E[x] = -sum floor((alpha - u)/d) - sum floor((beta + u)/d)

    over the alpha of alphas and the beta of betas, residues mod d.  Row
    (k, i) of c_a has u = a p^i d/n; taking u at x = a p^i mod n instead
    moves the row's two floors by -j and +j, for a p^i = x + j n, and
    neither Gamma_p argument, so one F, E serves every i of one rotation.
    """
    step = d // n
    den = 1
    for c in alphas + betas:
        den = den * gamma[c] % m
    inv = pow(den, -1, m)
    units, exponents = [], []
    for x in range(n):
        u = x * step
        acc, exponent = inv, 0
        # the Gamma_p arguments and the floors, from one division each
        for alpha in alphas:
            low, num = divmod(alpha - u, d)
            exponent -= low
            acc = acc * gamma[num] % m
        for beta in betas:
            high, num = divmod(beta + u, d)
            exponent -= high
            acc = acc * gamma[num] % m
        units.append(acc)
        exponents.append(exponent)
    return units, exponents


# What _values holds for a table without the Frobenius certificate: the
# certificate's error and the scaled table, which evaluate_g sums point by point.
_Uncertified = namedtuple("_Uncertified", "message table")


def _values(zq: UnramifiedContext, upper: tuple, lower: tuple) -> list[int] | _Uncertified:
    """The values of one parameter set, as checked by _checked, mod p^N,
    indexed by dlog t, or the _Uncertified record of a table that fails the
    certificate."""
    table = _scaled_table(upper, lower, zq)
    try:
        return zq.scalar_transform(table)
    except EvaluationIntegrityError as exc:
        return _Uncertified(str(exc), table)


def _scaled_table(upper, lower, zq: UnramifiedContext) -> list[int]:
    """-1/(q-1) times the coefficient table, the input of the transform."""
    m = zq.modulus
    lead = -pow(zq.q - 1, -1, m) % m
    return [c * lead % m for c in _coefficient_table(upper, lower, zq)]


def value_table(upper: tuple, lower: tuple, zq: UnramifiedContext) -> list[int]:
    """[nGn[upper; lower | g^k] mod p^N for k in 0..q-2].

    Each parameter is a (num, den) pair of ints, an int, a Fraction or
    anything else Fraction takes, but no float, and lies in Z_p; the set is
    checked and keyed as the reduced pairs of zmod.ratio.  The values are
    certified Z_p scalars.  A parameter set whose coefficient table is not
    Frobenius invariant has values outside Z_p and raises
    EvaluationIntegrityError; the context keeps its scaled table, from
    which evaluate_g serves such a set point by point in Z_q.
    """
    values = memo(zq, _values, *_checked(upper, lower, zq.base.p))
    if isinstance(values, _Uncertified):
        raise EvaluationIntegrityError(values.message)
    return values
