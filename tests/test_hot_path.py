"""The hot-path rule: the ops, their vjps and inference call ufunc
reductions and ndarray methods, never numpy's Python-level helpers.

At the sizes the models run, a helper such as ``np.mean`` costs more in
its Python wrapper than in its arithmetic, so ``autodiff`` and ``models``
call ``np.add.reduce``, ``.transpose``, ``.swapaxes`` and ``.repeat``
instead.  This test parses both modules and names every call that breaks
the rule.

The single-owner rule: how attention projects, splits and merges heads and
how a post-norm residual normalizes are stated in ``autodiff`` alone, in
the array rules that its ops and ``TransformerModel.predict`` both call, so
``models`` reads none of the pieces those rules are built from.
"""

import ast
from pathlib import Path

import pytest

import otcforecast

PACKAGE = Path(otcforecast.__file__).parent
HOT_MODULES = ("autodiff.py", "models.py")
NUMPY_HELPERS = {"mean", "var", "std", "sum", "transpose", "swapaxes", "stack", "broadcast_to",
                 "split"}
HELPER_METHODS = {"mean", "var", "sum"}
AUTODIFF_PIECES = {"_split_heads", "_project", "_attend", "_layer_norm"}


def helper_calls(source: str, filename: str) -> list[str]:
    """``file:line`` and the call, for every numpy helper called in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
            continue
        name, owner = node.func.attr, node.func.value
        if isinstance(owner, ast.Name) and owner.id == "np":
            if name in NUMPY_HELPERS:
                found.append(f"{filename}:{node.lineno}: np.{name}")
        elif name in HELPER_METHODS:
            found.append(f"{filename}:{node.lineno}: .{name}")
    return found


@pytest.mark.parametrize("module", HOT_MODULES)
def test_no_numpy_helper_on_the_hot_path(module):
    assert helper_calls((PACKAGE / module).read_text(encoding="utf-8"), module) == []


@pytest.mark.parametrize("call, reported", [
    ("xv.mean(axis=1, keepdims=True)", ".mean"), ("x.var()", ".var"), ("g.sum(axis=0)", ".sum"),
    ("np.mean(x)", "np.mean"), ("np.var(x)", "np.var"), ("np.std(x)", "np.std"),
    ("np.sum(x, axis=0)", "np.sum"), ("np.transpose(x, (1, 0))", "np.transpose"),
    ("np.swapaxes(x, -1, -2)", "np.swapaxes"), ("np.stack([x, x])", "np.stack"),
    ("np.broadcast_to(x, (2, 3))", "np.broadcast_to"), ("np.split(g, [1], axis=-2)", "np.split"),
])
def test_each_helper_call_is_named_with_its_line(call, reported):
    assert helper_calls(f"import numpy as np\n{call}\n", "hot.py") == [f"hot.py:2: {reported}"]


def autodiff_pieces(source: str, filename: str) -> list[str]:
    """``file:line`` and the name, for every use of an ``ad.`` piece that only
    ``autodiff``'s own rules may compose."""
    return [f"{filename}:{node.lineno}: ad.{node.attr}"
            for node in ast.walk(ast.parse(source, filename))
            if isinstance(node, ast.Attribute) and node.attr in AUTODIFF_PIECES
            and isinstance(node.value, ast.Name) and node.value.id == "ad"]


def test_models_leaves_attention_and_post_norm_to_autodiff():
    assert autodiff_pieces((PACKAGE / "models.py").read_text(encoding="utf-8"), "models.py") == []


def test_each_autodiff_piece_is_named_with_its_line():
    pieces = sorted(AUTODIFF_PIECES)
    calls = "".join(f"ad.{piece}(x)\n" for piece in pieces)
    source = f"import otcforecast.autodiff as ad\nrule = ad._layer_norm\n{calls}ad._gate(x)\n"
    assert sorted(autodiff_pieces(source, "m.py")) == [
        "m.py:2: ad._layer_norm", *(f"m.py:{line}: ad.{p}" for line, p in enumerate(pieces, 3))]
