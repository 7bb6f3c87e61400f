"""The package's lazy exports: the same names and objects as the eager imports.

`padichg/__init__.py` resolves each exported name on first access from the
submodule that defines it.  Every name it exports must resolve, to the
very object the submodule holds, and an unknown name must raise
AttributeError, which `hasattr` and the import machinery rely on.  Names and
options removed as duplicates of another entry point must stay removed, and
names dropped from the exports stay unexported, in their modules.  The
element API moved to padichg.elements, and only there is it defined.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import padichg

SRC = Path(__file__).resolve().parent.parent / "src"

# the package's former eager imports, less the removed names: submodule -> names, in their order
FORMER_IMPORTS = {
    "charsums": ["sum_A", "sum_a", "sum_B", "sum_h"],
    "finitefield": [
        "FqContext", "FqElement", "count_roots", "discriminant_sign_check", "quadratic_char",
    ],
    "gfunction": ["EvaluationIntegrityError", "GParams", "GValue", "evaluate_g"],
    "padic": [
        "PadicContext", "UnramifiedContext", "ZpElement", "ZqElement", "balanced_lift",
        "recover_bounded_integer",
    ],
    "pgamma": ["GammaCache", "gamma_cache"],
    "rational": ["g_exponent"],
    "suites": ["SUITE_NAMES", "JobSpec", "Report", "contexts", "default_precision", "run_job"],
}  # fmt: skip

# the element API, since moved out of the table layers: name -> its module now
RELOCATED = {
    name: "elements"
    for name in (
        "FqElement", "GParams", "GValue", "evaluate_g", "ZpElement", "ZqElement",
        "balanced_lift", "recover_bounded_integer",
    )
}  # fmt: skip

# no longer exported, as neither the CLI, the README nor the demos use them;
# each stays in its module: name -> that module
UNEXPORTED = {
    "verify_aop_identity": "charsums",
    "evaluate_g_inverted": "elements",
    "check_floor_identity_A": "rational",
    "check_floor_identity_B": "rational",
    "frac": "rational",
    "DEFAULT_BATTERY": "jobs",
    "field_context": "suites",
}
FORMER_HOME = {
    name: RELOCATED.get(name, module) for module, names in FORMER_IMPORTS.items() for name in names
}
EXPORTED = list(FORMER_HOME)


def test_all_lists_the_exported_names():
    assert padichg.__all__ == EXPORTED and len(EXPORTED) == 28
    assert padichg.__version__ == "0.1.0"


@pytest.mark.parametrize("name", EXPORTED)
def test_exported_name_is_the_submodule_object(name):
    namespace = {}
    exec(f"from padichg import {name}", namespace)
    home = importlib.import_module(f"padichg.{FORMER_HOME[name]}")
    assert namespace[name] is getattr(home, name) is getattr(padichg, name)


def test_dir_lists_every_export():
    assert set(EXPORTED) <= set(dir(padichg))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        padichg.no_such_name  # noqa: B018
    assert not hasattr(padichg, "__no_such_dunder__")
    with pytest.raises(ImportError):
        exec("from padichg import no_such_name", {})


@pytest.mark.parametrize("name", UNEXPORTED)
def test_unexported_name_stays_in_its_module(name):
    assert name not in padichg.__all__ and not hasattr(padichg, name)
    with pytest.raises(ImportError):
        exec(f"from padichg import {name}", {})
    assert hasattr(importlib.import_module(f"padichg.{UNEXPORTED[name]}"), name)


def test_removed_surface_stays_removed():
    from padichg import charsums, finitefield, pgamma
    from padichg.elements import ZqElement
    from padichg.padic import PadicContext, UnramifiedContext
    from padichg.suites import JobSpec

    for name, home in (("make_fq", finitefield), ("delta", finitefield),
                       ("gamma_p", pgamma), ("gamma_p_nat", pgamma),
                       ("jacobi_sum", charsums)):
        assert not hasattr(padichg, name) and not hasattr(home, name), name
    assert not hasattr(pgamma.GammaCache, "gamma_nat")
    assert not hasattr(pgamma.GammaCache, "residue")
    assert not hasattr(UnramifiedContext, "_scalar_weights")
    assert not hasattr(UnramifiedContext, "char_value")
    assert not hasattr(UnramifiedContext, "character_transform")
    assert not hasattr(ZqElement, "scale")
    assert "restrict" not in JobSpec._fields
    ctx = PadicContext(5, 3)
    with pytest.raises(TypeError):
        pgamma.GammaCache(ctx, guard=1)
    with pytest.raises(TypeError):
        pgamma.gamma_cache(ctx, guard=1)
    # one shared cache per (p, N)
    cache = pgamma.gamma_cache(ctx)
    assert pgamma._caches[(5, 3)] is cache is pgamma.gamma_cache(PadicContext(5, 3))


def test_star_import_in_a_fresh_interpreter():
    # every name resolves from a cold package, with nothing imported before it
    probe = "from padichg import *; import padichg; assert set(padichg.__all__) <= set(dir())"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", probe], env=env, check=True)
