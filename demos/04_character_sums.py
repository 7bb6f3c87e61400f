"""Character sums as independent oracles.

A(lam,q) is a plain double sum of quadratic-character values over the
plane, a(lam,q) a single sum; both are exact integers.  The machinery
links them: h(lam), a character average of cubed Jacobi sums, collapses
to A(lam,q), and A = phi(lam+1)(a^2 - q) exactly.  The table below shows
the whole chain over F_7, including the 3G3 value that recovers A.
"""

from fractions import Fraction as F

from padichg import (
    GParams,
    contexts,
    evaluate_g,
    quadratic_char,
    recover_bounded_integer,
    sum_A,
    sum_a,
    sum_h,
)

fq, zq = contexts(7, 1, 4)  # 7^4 = 2401 > 2 * 49^2, enough to recover A
q = fq.q
G3 = ((F(1, 2),) * 3, (F(0),) * 3)

print(f"{'lam':>4} {'a':>4} {'A':>4} {'phi(lam+1)(a^2-q)':>18} {'h(lam)':>7} {'3G3[-1/lam]':>12}")
for lam in fq.elements():
    if lam.is_zero() or (lam + fq.one).is_zero():
        continue
    a = sum_a(lam)
    big = sum_A(lam)
    aop = quadratic_char(lam + fq.one) * (a * a - q)
    h = sum_h(lam, zq)
    g3 = recover_bounded_integer(
        evaluate_g(GParams(*G3, -(lam.inverse()), zq)).value, q * q
    )
    assert big == aop == g3 and h == zq.scalar(big)
    print(f"{lam.coeffs[0]:>4} {a:>4} {big:>4} {aop:>18} {str(big):>7} {g3:>12}")

print()
print("Every row agrees: the double sum A, the AOP closed form,")
print("the Jacobi-sum average, and the hypergeometric value all coincide.")
