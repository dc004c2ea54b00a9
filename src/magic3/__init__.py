"""Exact tools for magic squares of order three.

Validation, canonical reduction, unique two-family decomposition, exhaustive
enumeration with an independent brute-force oracle, and exact counting via a
closed form and a rational generating series.

`import magic3` loads `core` and `decompose`, which the square functions
need.  The counting routes, `enumeration`, `series` and `selftest`, load the
first time one of their names is read from the package (see `__getattr__`).
"""

from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

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
    MismatchError,
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
    ReducedMagicSquare,
    canonical_symmetry,
    construct,
    decompose,
    is_canonical,
    reduce,
)

# The submodule that each lazy name is read from; a submodule's own name
# loads it.
_LAZY = {
    name: module
    for module, names in {
        "enumeration": (
            "count_families",
            "iter_brute_grids",
            "iter_brute_squares",
            "iter_decompositions",
            "iter_family_grids",
            "iter_family_squares",
            "reconcile",
        ),
        "series": ("count_closed", "expand", "magic_gf"),
        "selftest": (),
    }.items()
    for name in (module, *names)
}

# The public names: the eager imports and the lazy names, less the submodules
# (`from .core import` binds `core`; `decompose` is the function).
__all__ = sorted(
    {name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType)}
    | {name for name, module in _LAZY.items() if name != module}
)


def __getattr__(name: str):
    """A lazy name (PEP 562): import its submodule, keep the value in the package, and return it."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f".{_LAZY[name]}", __name__)
    value = module if name == _LAZY[name] else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    """The package's names, the lazy ones included before they are read."""
    return sorted({*globals(), *_LAZY})


__version__ = "0.1.0"
