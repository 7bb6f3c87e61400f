"""padichg computes in exact integers: src/ holds no float literal, no
float() call and no / operator, apart from the few named here."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# (module, enclosing def or class, what), each allowed once: a job's wall time in milliseconds, the
# F_q element division that sum_B reads its B index by, and the element API
# that defines that division
ALLOWED = {
    ("jobs", "Report.__init__", "0.0"),
    ("jobs", "run_job", "1000.0"),
    ("charsums", "sum_B", "/"),
    ("elements", "_PolyResidue", "def __truediv__"),
    ("elements", "_PolyResidue", "def __rtruediv__"),
}


def _floats_and_divisions(tree, module):
    """(module, enclosing def or class, what) for each float literal,
    float() call, / operator and true-division method in tree."""
    found = []

    def visit(node, scope):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((module, scope, repr(node.value)))
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float":
            found.append((module, scope, "float()"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append((module, scope, "/"))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in (
            "__truediv__",
            "__rtruediv__",
            "__itruediv__",
        ):
            found.append((module, scope, f"def {node.name}"))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return found


def test_src_has_no_floats_or_true_division_beyond_the_allowed():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        found += _floats_and_divisions(ast.parse(path.read_text()), path.stem)
    extra = Counter(found) - Counter(ALLOWED)
    assert not extra, sorted(extra)


def test_the_scan_sees_each_kind():
    tree = ast.parse("def f(x):\n    x /= 2\n    return float(x) / 0.5\n")
    assert sorted(_floats_and_divisions(tree, "m")) == [
        ("m", "f", "/"),
        ("m", "f", "/"),
        ("m", "f", "0.5"),
        ("m", "f", "float()"),
    ]
