"""Exact irreducible character values of the type-A Iwahori-Hecke algebra.

Quick start::

    >>> from heckechar import character
    >>> character((4, 2), (3, 2, 1)).format("q")
    'q + -3*q^2 + 2*q^3'

Every value is an exact Laurent polynomial (see :mod:`heckechar.laurent`);
several independent algorithms compute each character and agree term by
term.  The ``heckechar`` console script exposes the same functionality,
including a self-verification mode.

Every callable in ``__all__`` raises ValueError for malformed input,
checked on every call before any memo is read.
"""

from .laurent import ExactnessError, LaurentPoly
from .partitions import (
    conjugate, format_partition, memo_stats, parse_composition,
    parse_partition, partitions_of, strip_removals,
)
from .schur import classical_character, newton_coeffs, pairing_polynomial
from .characters import (
    ALGORITHM_NAMES, char_table, character, clear_caches, dumps_table,
    hook_weights, load_table, loads_table, save_table, two_row_cumulative,
    two_row_weights,
)
from .applications import (
    bitrace, bitrace_via_gram, supercharacter_hooks,
    supercharacter_hooks_explicit, supercharacter_two_rows,
    supercharacter_two_rows_explicit,
)

__all__ = [
    "ALGORITHM_NAMES", "ExactnessError", "LaurentPoly", "bitrace",
    "bitrace_via_gram", "char_table", "character", "classical_character",
    "clear_caches", "conjugate", "dumps_table", "format_partition",
    "hook_weights", "load_table", "loads_table", "memo_stats",
    "newton_coeffs", "pairing_polynomial", "parse_composition",
    "parse_partition", "partitions_of", "save_table", "strip_removals",
    "supercharacter_hooks", "supercharacter_hooks_explicit",
    "supercharacter_two_rows", "supercharacter_two_rows_explicit",
    "two_row_cumulative", "two_row_weights",
]

__version__ = "0.1.0"
