"""Exact tests for complex Hadamard submatrices of Fourier matrices.

The m-by-m Fourier matrix has entries e^(2*pi*i*j*k/m).  This package
decides, in exact integer arithmetic, whether keeping rows J and columns K
yields a complex Hadamard submatrix, screens row sets that can never be
completed, and builds the compatibility graphs whose edges record exactly
which primitive sets pair into Hadamard submatrices.
"""

from .numtheory import (
    cyclotomic_at_one,
    divisors,
    factorize,
    gcd,
    p_adic_extremes,
    p_adic_order,
)
from .primsets import (
    PrimitiveSet,
    ResidueSet,
    difference_set,
    normalize,
    primitive_set,
    scale,
    shift,
    size_divisor,
)
from .hadamard import (
    Decision,
    Screen,
    SubmatrixSpec,
    SubmatrixVerdict,
    certify_by_complement,
    find_complement,
    is_hadamard,
    is_hadamard_exact,
    is_hadamard_numeric,
    screen_prime_powers,
    screen_size_divisor,
    vanishing_set,
    decide_2x2_general,
    decide_2x2_power_of_two,
    decide_2x2_twice_prime,
    decide_3x3,
)
from .graphs import (
    CompatGraph,
    GraphFormatError,
    VerificationError,
    build_graph,
    classify_submatrix_size,
    dominant_vertices,
    export_dot,
    export_json,
    has_edge,
    import_json,
)

__version__ = "0.1.0"
