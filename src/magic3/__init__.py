"""Exact tools for magic squares of order three.

Validation, canonical reduction, unique two-family decomposition, exhaustive
enumeration with an independent brute-force oracle, and exact counting via a
closed form and a rational generating series.
"""

from .canonical import (
    ReducedMagicSquare,
    canonical_symmetry,
    is_canonical,
    reduce,
)
from .core import (
    ELEMENTS,
    ENTRY_MAX,
    GEN1,
    GEN2,
    GEN3,
    ONES,
    SEED_F1,
    SEED_F2,
    DihedralElement,
    DuplicateEntriesError,
    EntryRangeError,
    MagicSquare,
    MagicSquareError,
    NotMagicError,
    Square,
    add,
    apply,
    compose,
    format_square,
    parse_square,
    scale,
    validate,
)
from .decompose import (
    Decomposition,
    Family,
    construct,
    decompose,
)
from .enumeration import (
    MismatchError,
    count_families,
    iter_brute_grids,
    iter_brute_squares,
    iter_decompositions,
    iter_family_grids,
    iter_family_squares,
    reconcile,
)
from .series import (
    CountReport,
    DivisibilityError,
    RationalSeries,
    count_closed,
    expand,
    magic_gf,
    poly_mul,
)

__all__ = [
    "CountReport",
    "Decomposition",
    "DihedralElement",
    "DivisibilityError",
    "DuplicateEntriesError",
    "ELEMENTS",
    "ENTRY_MAX",
    "EntryRangeError",
    "Family",
    "GEN1",
    "GEN2",
    "GEN3",
    "MagicSquare",
    "MagicSquareError",
    "MismatchError",
    "NotMagicError",
    "ONES",
    "RationalSeries",
    "ReducedMagicSquare",
    "SEED_F1",
    "SEED_F2",
    "Square",
    "add",
    "apply",
    "canonical_symmetry",
    "compose",
    "construct",
    "count_closed",
    "count_families",
    "decompose",
    "expand",
    "format_square",
    "is_canonical",
    "iter_brute_grids",
    "iter_brute_squares",
    "iter_decompositions",
    "iter_family_grids",
    "iter_family_squares",
    "magic_gf",
    "parse_square",
    "poly_mul",
    "reconcile",
    "reduce",
    "scale",
    "validate",
]

__version__ = "0.1.0"
