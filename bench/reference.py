"""Fixed reference program that measures the machine's current speed.

The benchmark runs it as its own process before and after every padichg
sample. It does the same kinds of work as padichg: a modular prefix
product over big ints, tuple polynomial products with dict counts, and
`Fraction` sums. It imports nothing from padichg, so a change to the
program never moves it. Changing this file changes every normalised figure
of the benchmark: it is frozen.
"""

from fractions import Fraction


def main() -> None:
    m = 7**8
    acc = 1
    prefix = []
    for j in range(1, 600000):
        if j % 7:
            acc = acc * j % m
        if j % 128 == 127:
            prefix.append(acc)

    p = 7
    counts: dict = {}
    a = (1, 2, 3)
    for i in range(60000):
        b = (i % p, (i // p) % p, 1)
        prod = [0] * 5
        for x, ax in enumerate(a):
            for y, by in enumerate(b):
                prod[x + y] += ax * by
        a = tuple(c % p for c in prod[:3])
        counts[a] = counts.get(a, 0) + 1

    s = Fraction(0)
    for k in range(1, 3000):
        s += Fraction(k % 13, k)


if __name__ == "__main__":
    main()
