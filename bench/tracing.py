"""Outside-in tracing of a padichg run.

`install()` replaces public entry points of each padichg module with timing
wrappers, at every place a caller looks them up: a module that did
`from .x import f` holds its own reference to `f`, so the wrapper is set in
that module's namespace too, and methods are wrapped on their class.  No file
under src/ is changed.

Each wrapper appends one span `[name, start, end, parent]` to an in-memory
list; `parent` is the index of the enclosing span, or -1.  Counters that need
the call arguments (distinct Gamma_p arguments, distinct Teichmuller lifts,
coefficient tables, sum_A lambdas) are derived here from those arguments
alone; no private attribute of the program is read.  A first call per cache
key gets its own span name (`.first`), so the cost of building a cache can be
told apart from the calls it serves.
"""

from __future__ import annotations

import functools
import time
from fractions import Fraction


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counters: dict[str, int] = {"suites.cases": 0}
        self._seen: dict[str, set] = {}

    def first(self, kind: str, key) -> bool:
        """True the first time `key` is seen under `kind`."""
        seen = self._seen.setdefault(kind, set())
        if key in seen:
            return False
        seen.add(key)
        return True

    def distinct(self) -> dict[str, int]:
        return {kind: len(keys) for kind, keys in sorted(self._seen.items())}

    def wrap(self, name: str, fn, classify=None, on_return=None):
        """Wrap `fn` in a span named `name`, or `classify(*args)` if given."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [classify(*args, **kwargs) if classify else name, 0.0, 0.0,
                    stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_return is not None:
                on_return(result)
            return result

        return wrapper


def _patch(tracer: Tracer, name: str, owners, attr: str, **hooks):
    """Wrap the function `attr` once and rebind it on every owner."""
    original = getattr(owners[0], attr)
    wrapped = tracer.wrap(name, original, **hooks)
    for owner in owners:
        if getattr(owner, attr) is not original:
            raise RuntimeError(f"{owner.__name__}.{attr} is not the shared function")
        setattr(owner, attr, wrapped)


def install() -> Tracer:
    """Wrap the entry points of every padichg module; return the span sink."""
    from padichg import charsums, cli, finitefield, gfunction, padic, pgamma, rational, suites

    t = Tracer()

    # cli: argument parsing, orchestration + rendering, and the per-job call
    _patch(t, "cli.parse_args", [cli], "parse_args")
    _patch(t, "cli.run", [cli], "run")

    def count_cases(report):
        t.counters["suites.cases"] += report.cases_total

    _patch(t, "suites.run_job", [cli, suites], "run_job", on_return=count_cases)

    # gfunction: the point-wise evaluator; the first call per parameter set
    # and context builds the coefficient table
    def eval_kind(params):
        ctx = params.context
        key = (params.upper, params.lower, ctx.base.p, ctx.r, ctx.precision)
        if not params.t.is_zero() and t.first("gfunction.tables", key):
            return "gfunction.evaluate_g.first"
        return "gfunction.evaluate_g"

    _patch(t, "gfunction.evaluate_g", [suites, gfunction], "evaluate_g", classify=eval_kind)
    _patch(t, "gfunction.evaluate_g_inverted", [suites], "evaluate_g_inverted")

    # pgamma: every Gamma_p evaluation; the first per (p, N, guard) builds the prefix
    def gamma_kind(cache, x):
        fresh = t.first("pgamma.caches", (cache.p, cache.context.precision, cache.guard))
        t.first("pgamma.args", (cache.p, cache.context.precision, cache.guard, Fraction(x)))
        return "pgamma.gamma.first" if fresh else "pgamma.gamma"

    _patch(t, "pgamma.gamma", [pgamma.GammaCache], "gamma", classify=gamma_kind)

    # padic: Teichmuller lifts
    def teich_kind(zq, x):
        t.first("padic.teichmuller", (zq.base.p, zq.r, zq.precision, x.coeffs))
        return "padic.teichmuller"

    _patch(t, "padic.teichmuller", [padic.UnramifiedContext], "teichmuller", classify=teich_kind)

    # finitefield: context builds and the brute-force root counter
    _patch(t, "finitefield.build", [finitefield.FqContext], "__init__")
    _patch(t, "finitefield.count_roots", [suites, finitefield], "count_roots")

    # charsums: the integer sums A and a, the Z_q sums h and B
    def sum_a_kind(lam):
        ctx = lam.context
        t.first("charsums.sum_A_lambdas", (ctx.p, ctx.r, lam.coeffs))
        return "charsums.sum_A"

    _patch(t, "charsums.sum_A", [suites, charsums], "sum_A", classify=sum_a_kind)
    _patch(t, "charsums.sum_a", [suites, charsums], "sum_a")
    _patch(t, "charsums.sum_h", [suites, charsums], "sum_h")
    _patch(t, "charsums.sum_B", [suites, charsums], "sum_B")
    _patch(t, "charsums.verify_aop_identity", [suites, charsums], "verify_aop_identity")

    # rational: fractional parts, floor exponents, floor identities
    _patch(t, "rational.frac", [suites, gfunction, rational], "frac")
    _patch(t, "rational.g_exponent", [gfunction, rational], "g_exponent")
    _patch(t, "rational.check_floor_identity_A", [suites, rational], "check_floor_identity_A")
    _patch(t, "rational.check_floor_identity_B", [suites, rational], "check_floor_identity_B")
    return t
