"""Exact arithmetic for McCarthy's p-adic hypergeometric function nGn over F_q.

The package provides small deterministic finite fields with dlog tables,
fixed-precision Z_p / Z_q arithmetic with the Teichmuller character,
Morita's p-adic gamma function, the nGn evaluator itself, the character-sum
oracles that certify its values, and exhaustive verification suites for the
transformation and special-value identities the evaluator satisfies.

The names below are exported lazily (PEP 562): `from padichg import X`
imports only the submodule that defines X.  The integer layers (zmod,
pgamma, jobs, and intsuites with rational) load without the field layers
(finitefield, padic, gfunction, charsums, suites), so the gamma and floors
suites run on them alone.  The field layers hold integer tables, which is
all the suites read; the element API (FqElement, ZqElement, ZpElement,
GParams, evaluate_g and the lifts) is padichg.elements, which loads at the
first element a caller builds and never in a suite run.
"""

from importlib import import_module

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {
    "sum_A": "charsums",
    "sum_a": "charsums",
    "sum_B": "charsums",
    "sum_h": "charsums",
    "FqContext": "finitefield",
    "FqElement": "elements",
    "count_roots": "finitefield",
    "discriminant_sign_check": "finitefield",
    "quadratic_char": "finitefield",
    "EvaluationIntegrityError": "padic",
    "GParams": "elements",
    "GValue": "elements",
    "evaluate_g": "elements",
    "PadicContext": "zmod",
    "UnramifiedContext": "padic",
    "ZpElement": "elements",
    "ZqElement": "elements",
    "balanced_lift": "elements",
    "recover_bounded_integer": "elements",
    "GammaCache": "pgamma",
    "gamma_cache": "pgamma",
    "g_exponent": "rational",
    "SUITE_NAMES": "jobs",
    "JobSpec": "jobs",
    "Report": "jobs",
    "contexts": "suites",
    "default_precision": "jobs",
    "run_job": "jobs",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
