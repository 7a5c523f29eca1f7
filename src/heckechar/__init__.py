"""Exact irreducible character values of the type-A Iwahori-Hecke algebra.

Quick start::

    >>> from heckechar import character
    >>> character((4, 2), (3, 2, 1)).format("q")
    'q + -3*q^2 + 2*q^3'

Every value is an exact Laurent polynomial (see :mod:`heckechar.laurent`);
several independent algorithms compute each character and agree term by
term.  The ``heckechar`` console script exposes the same functionality,
including a self-verification mode.
"""

from .laurent import ExactnessError, LaurentPoly, monomial, poly_gcd
from .partitions import (
    SkewShape, StripComponent, analyze_skew, conjugate, contingency_matrices,
    format_partition, inner_corner_removals, parse_composition,
    parse_partition, partition_tuples, partitions_of, sort_to_partition,
    standard_tableaux_count, strip_removals, sub_compositions,
)
from .schur import (
    classical_character, centralizer_order, newton_coeffs,
    pairing_polynomial, peel_det, peel_iterative, peel_strips, straighten,
)
from .characters import (
    ALGORITHMS, ALGORITHM_NAMES, CharTable, char_table, character,
    clear_caches, dumps_table, hook_weights, load_table, loads_table,
    normalize_g_to_chi, save_table, two_row_cumulative, two_row_weights,
)
from .applications import (
    bitrace, bitrace_via_gram, bracket_identity_check, entry_weight,
    gram_pairing, supercharacter_hooks, supercharacter_hooks_explicit,
    supercharacter_two_rows, supercharacter_two_rows_explicit,
)

__version__ = "0.1.0"
