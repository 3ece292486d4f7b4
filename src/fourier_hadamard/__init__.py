"""Exact tests for complex Hadamard submatrices of Fourier matrices.

The m-by-m Fourier matrix has entries e^(2*pi*i*j*k/m).  This package
decides, in exact integer arithmetic, whether keeping rows J and columns K
yields a complex Hadamard submatrix, screens row sets that can never be
completed, and builds the compatibility graphs whose edges record exactly
which primitive sets pair into Hadamard submatrices.
"""

from importlib import import_module

# public names by the submodule that defines them; each submodule is
# imported when one of its names is first read, so importing the package,
# or running ``python -m fourier_hadamard.cli``, loads no layer it does not use
_EXPORTS = {
    "numtheory": (
        "cyclotomic_at_one",
        "divisors",
        "factorize",
        "gcd",
        "p_adic_extremes",
        "p_adic_order",
    ),
    "primsets": (
        "PrimitiveSet",
        "ResidueSet",
        "difference_set",
        "normalize",
        "primitive_set",
        "scale",
        "shift",
        "size_divisor",
        "VerificationError",
    ),
    "hadamard": (
        "Decision",
        "Screen",
        "SubmatrixSpec",
        "SubmatrixVerdict",
        "certify_by_complement",
        "find_complement",
        "is_hadamard",
        "is_hadamard_exact",
        "is_hadamard_numeric",
        "screen_prime_powers",
        "screen_size_divisor",
        "vanishing_set",
        "decide_2x2_general",
        "decide_2x2_power_of_two",
        "decide_2x2_twice_prime",
        "decide_3x3",
    ),
    "graphs": (
        "CompatGraph",
        "GraphFormatError",
        "build_graph",
        "classify_submatrix_size",
        "dominant_vertices",
        "export_dot",
        "export_json",
        "has_edge",
        "import_json",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
