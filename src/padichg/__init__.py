"""Exact arithmetic for McCarthy's p-adic hypergeometric function nGn over F_q.

The package provides small deterministic finite fields with dlog tables,
fixed-precision Z_p / Z_q arithmetic with the Teichmuller character,
Morita's p-adic gamma function, the nGn evaluator itself, the character-sum
oracles that certify its values, and exhaustive verification suites for the
transformation and special-value identities the evaluator satisfies.

The names below are exported lazily (PEP 562): `from padichg import X`
imports only the submodule that defines X.  The integer layers (zmod,
rational, pgamma, jobs) load without the field layers (finitefield, padic,
gfunction, charsums, suites), so the gamma and floors suites run on them
alone.
"""

from importlib import import_module

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {
    "jacobi_sum": "charsums",
    "sum_A": "charsums",
    "sum_a": "charsums",
    "sum_B": "charsums",
    "sum_h": "charsums",
    "verify_aop_identity": "charsums",
    "FqContext": "finitefield",
    "FqElement": "finitefield",
    "count_roots": "finitefield",
    "discriminant_sign_check": "finitefield",
    "quadratic_char": "finitefield",
    "EvaluationIntegrityError": "padic",
    "GParams": "gfunction",
    "GValue": "gfunction",
    "evaluate_g": "gfunction",
    "evaluate_g_inverted": "gfunction",
    "PadicContext": "zmod",
    "UnramifiedContext": "padic",
    "ZpElement": "zmod",
    "ZqElement": "padic",
    "balanced_lift": "padic",
    "recover_bounded_integer": "padic",
    "GammaCache": "pgamma",
    "gamma_cache": "pgamma",
    "check_floor_identity_A": "rational",
    "check_floor_identity_B": "rational",
    "frac": "rational",
    "g_exponent": "rational",
    "DEFAULT_BATTERY": "jobs",
    "SUITE_NAMES": "jobs",
    "JobSpec": "jobs",
    "Report": "jobs",
    "contexts": "suites",
    "default_precision": "jobs",
    "field_context": "suites",
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
