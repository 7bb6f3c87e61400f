"""Exact arithmetic for McCarthy's p-adic hypergeometric function nGn over F_q.

The package provides small deterministic finite fields with dlog tables,
fixed-precision Z_p / Z_q arithmetic with the Teichmuller character,
Morita's p-adic gamma function, the nGn evaluator itself, the character-sum
oracles that certify its values, and exhaustive verification suites for the
transformation and special-value identities the evaluator satisfies.
"""

from .charsums import jacobi_sum, sum_A, sum_a, sum_B, sum_h, verify_aop_identity
from .finitefield import (
    FqContext,
    FqElement,
    count_roots,
    delta,
    discriminant_sign_check,
    make_fq,
    quadratic_char,
)
from .gfunction import (
    EvaluationIntegrityError,
    GParams,
    GValue,
    evaluate_g,
    evaluate_g_inverted,
)
from .padic import (
    PadicContext,
    UnramifiedContext,
    ZpElement,
    ZqElement,
    balanced_lift,
    recover_bounded_integer,
)
from .pgamma import GammaCache, gamma_cache, gamma_p, gamma_p_nat
from .rational import (
    check_floor_identity_A,
    check_floor_identity_B,
    floor_int,
    frac,
    g_exponent,
)
from .suites import (
    DEFAULT_BATTERY,
    SUITE_NAMES,
    JobSpec,
    Report,
    contexts,
    default_precision,
    field_context,
    run_job,
)

__version__ = "0.1.0"
