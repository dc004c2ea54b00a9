"""Checks on the library's source text."""

import ast
import sys
from pathlib import Path

import magic3
from magic3 import cli, core, enumeration

SOURCES = sorted(Path(magic3.__file__).parent.glob("*.py"))


def test_library_has_no_assert_statements():
    # An invariant is a real check, which `python -O` keeps, or is deleted
    # with its proof written down; an `assert` is neither.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(SOURCES) >= 8
    assert found == []


def _scoped_nodes(path):
    """(enclosing function or "", node) for each node of a file's syntax tree."""
    tree = ast.parse(path.read_text(), filename=str(path))
    # Breadth-first, so a nested function's name overwrites its parent's.
    scope = {
        node: function.name
        for function in ast.walk(tree)
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(function)
    }
    return [(scope.get(node, ""), node) for node in ast.walk(tree)]


def _calls(path):
    """(file, enclosing function or "", called name, call source) for each call in a file."""
    for function, node in _scoped_nodes(path):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            yield path.name, function, name, ast.unparse(node)


def test_only_the_field_descriptor_runs_dataclass():
    # `dataclass` loads `dataclasses` and `inspect`, and writes and compiles
    # methods unless init, eq and repr are off.  `_value_type` builds each
    # slotted class itself and writes its methods; only `_Fields.__get__`, on
    # the first read of a value type's fields, runs `dataclass`, with all
    # three off, on a shadow class (slotted, so that `__dataclass_params__`
    # reads as it did when `dataclass` built the value type).  A `@dataclass`
    # or `dataclass(...)` anywhere else would load it at import, or bring the
    # compiling back (fresh imports are checked in `test_value_types.py` and
    # `test_imports.py`).
    uses = [
        (path.name, function)
        for path in SOURCES
        for function, node in _scoped_nodes(path)
        if isinstance(node, ast.Name) and node.id == "dataclass"
        or isinstance(node, ast.Attribute) and node.attr == "dataclass"
    ]
    assert uses == [("core.py", "__get__")]
    tree = ast.parse(Path(core.__file__).read_text())
    (fields,) = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "_Fields"]
    (get,) = [node for node in fields.body if isinstance(node, ast.FunctionDef) and node.name == "__get__"]
    (first_read,) = [node for node in ast.walk(get) if isinstance(node, ast.If)]
    assert ast.unparse(first_read.test) == "vars(cls)['__dataclass_fields__'] is self"
    (call,) = [node for node in ast.walk(first_read)
               if isinstance(node, ast.Call) and ast.unparse(node.func) == "dataclass"]
    assert {k.arg: ast.unparse(k.value) for k in call.keywords} == {
        "init": "False", "repr": "False", "eq": "False", "slots": "True"}


def test_only_validate_and_construct_mint_through_certify():
    # Building a `MagicSquare` runs `validate`'s checks.  Only `_certify`
    # skips them, by retagging a twin (see `core._twin`), and only the two
    # functions that have proved their squares magic call it; `decompose`
    # trusts every certificate and calls no `validate`.  `_square` and
    # `_decomposition` skip the checks of a `Square` and a `Decomposition` in
    # the same way, each for callers whose values are exact ints in range by
    # construction, or, in `decompose` (once per family branch), nonnegative
    # ints by the proof of the reduced form in its module docstring.  `reduce`
    # mints nothing through `_certify` or `_square` itself: it hands
    # `construct` the decomposition at i = 0 with no symmetry, whose fields
    # `decompose` proved.
    calls = [call for path in SOURCES for call in _calls(path)]
    assert [(f, fn, source) for f, fn, name, source in calls if name == "__new__"] == []
    assert sorted((f, fn) for f, fn, name, _ in calls if name == "_square") == [
        ("core.py", "parse_square"),
        ("decompose.py", "construct"),
    ]
    assert sorted((f, fn) for f, fn, name, _ in calls if name == "_decomposition") == [
        ("decompose.py", "decompose"),
        ("decompose.py", "decompose"),
        ("decompose.py", "reduce"),
        ("enumeration.py", "iter_decompositions"),
    ]
    assert sorted((f, fn) for f, fn, name, _ in calls if name == "_certify") == [
        ("core.py", "validate"),
        ("decompose.py", "construct"),
    ]
    assert [(f, fn) for f, fn, name, _ in calls if name == "validate" and f == "decompose.py"] == []


def test_value_types_set_their_fields_one_way():
    # A checked `__init__` sets its fields by one call of the `__setstate__`
    # that `_value_type` installs for pickle and copy.  The three unchecked
    # mints each make a twin, a plain class that `core._twin` builds from the
    # value type's own `__slots__`, store its fields and retag it by
    # `__class__`; nothing else makes a twin or assigns `__class__`.
    # `object.__setattr__`, past the frozen `__setattr__`, is called only in
    # `_value_type`'s `__setstate__`, and no slot descriptor's setter or
    # `object.__new__` is used anywhere.
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    scoped = [(name, function, node) for name, path in zip(trees, SOURCES) for function, node in _scoped_nodes(path)]
    assert [(f, fn) for f, fn, node in scoped if isinstance(node, ast.Call)
            and ast.unparse(node.func) == "object.__setattr__"] == [("core.py", "__setstate__")]
    # Three classes are built by `type`: each value type's slotted class, once,
    # in `_value_type`, which its class statement names as its metaclass (see
    # `setstate_calls` below); its twin in `_twin`; and the shadow that
    # `_Fields` hands `dataclass` on the first read of its fields.
    assert sorted((f, fn) for f, fn, node in scoped if isinstance(node, ast.Call)
                  and ast.unparse(node.func) == "type" and len(node.args) == 3) == [
        ("core.py", "__get__"), ("core.py", "_twin"), ("core.py", "_value_type"),
    ]
    assert [(f, fn) for f, fn, node in scoped
            if isinstance(node, ast.Attribute) and node.attr == "__slots__"] == [("core.py", "_twin")]
    assert [(f, node.lineno) for f, fn, node in scoped if isinstance(node, (ast.Name, ast.Attribute))
            and getattr(node, "id", getattr(node, "attr", "")).startswith("_SET_")] == []
    # Each twin is bound once, at module level, to `_twin` of its value type.
    twins = {
        node.targets[0].id: (f, ast.unparse(node.value))
        for f, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.Assign) and "_twin(" in ast.unparse(node.value)
    }
    assert twins == {
        "_SquareTwin": ("core.py", "_twin(Square)"),
        "_MagicSquareTwin": ("core.py", "_twin(MagicSquare)"),
        "_DecompositionTwin": ("decompose.py", "_twin(Decomposition)"),
    }
    assert [(f, fn) for f, fn, node in scoped if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "_twin"] == [("core.py", "")] * 2 + [("decompose.py", "")]
    # Each mint makes one twin of its type and retags it as that type; no
    # other code names a twin after its binding or assigns `__class__`.
    made = sorted(
        (f, fn, node.func.id) for f, fn, node in scoped
        if isinstance(node, ast.Call) and getattr(node.func, "id", "") in twins
    )
    retagged = sorted(
        (f, fn, "_" + ast.unparse(node.value) + "Twin") for f, fn, node in scoped
        if isinstance(node, ast.Assign) and any(getattr(t, "attr", None) == "__class__" for t in node.targets)
    )
    assert made == retagged == [
        ("core.py", "_certify", "_MagicSquareTwin"),
        ("core.py", "_square", "_SquareTwin"),
        ("decompose.py", "_decomposition", "_DecompositionTwin"),
    ]
    assert sorted((f, fn) for f, fn, node in scoped if isinstance(node, ast.Name) and node.id in twins
                  and isinstance(node.ctx, ast.Load)) == [(f, fn) for f, fn, _ in made]
    setstate_calls = {
        node.name: [ast.unparse(call.func) for call in ast.walk(init) if isinstance(call, ast.Call)].count(
            "self.__setstate__"
        )
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and "metaclass=_value_type" in map(ast.unparse, node.keywords)
        for init in node.body
        if isinstance(init, ast.FunctionDef) and init.name == "__init__"
    }
    assert setstate_calls == dict.fromkeys(
        ["Square", "MagicSquare", "Decomposition", "ReducedMagicSquare", "RationalSeries", "CountReport"], 1
    )


def _function(path, name):
    """The top-level function `name` of a source file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    (function,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == name]
    return function


def test_each_check_is_written_once():
    # The int rule's type half, `core._integer`, reads every int argument:
    # a bool or a non-int raises TypeError, a subclass is read as the exact
    # int it holds.  `_natural` adds the sign check, and `check_entries` the
    # entry range, each around a call of `_integer`.  No other function
    # writes a copy of it.
    rule = sorted(
        (path.name, function)
        for path in SOURCES
        for function, node in _scoped_nodes(path)
        if isinstance(node, ast.Attribute) and ast.unparse(node) == "int.__int__"
        or isinstance(node, ast.Call) and ast.unparse(node.func) == "isinstance"
        and ast.unparse(node.args[1]) == "bool"
    )
    assert rule == [("core.py", "_integer")] * 2
    # Each public call reads s once, at its head: the s gates are these, and
    # the row walks they feed never check s again.  `CountReport.__init__`
    # reads its fields by the rule too, but it is a value type, not a gate.
    enumeration, series = (Path(magic3.__file__).parent / name for name in ("enumeration.py", "series.py"))
    gates = sorted(
        fn for path in (enumeration, series) for _, fn, name, source in _calls(path)
        if name in ("_natural", "_check_first_family_grid") and fn != "__init__"
    )
    assert gates == sorted([
        "_brute_pieces", "_check_first_family_grid", "_family_pieces", "count_closed",
        "count_families", "expand", "iter_decompositions", "reconcile",
    ])
    for walk in ("_family_rows", "_brute_rows", "_mark_family_rows", "_compare_brute_rows"):
        called = {getattr(node.func, "id", None) for node in ast.walk(_function(enumeration, walk))
                  if isinstance(node, ast.Call)}
        assert called & {"_natural", "_check_first_family_grid", "check_entries", "isinstance"} == set(), walk
    # The entry range is checked by `Square` and once at the head of each
    # grid stream, on its first grid, never inside the sweep's row loop.
    calls = [call for path in SOURCES for call in _calls(path)]
    assert sorted((f, fn) for f, fn, name, _ in calls if name == "check_entries") == [
        ("core.py", "__init__"),
        ("enumeration.py", "_brute_pieces"),
        ("enumeration.py", "_check_first_family_grid"),
    ]
    core = Path(magic3.__file__).parent / "core.py"
    (square,) = [node for node in ast.parse(core.read_text()).body
                 if isinstance(node, ast.ClassDef) and node.name == "Square"]
    assert "check_entries" in {getattr(node.func, "id", None) for node in ast.walk(square) if isinstance(node, ast.Call)}
    loops = [node for node in ast.walk(_function(enumeration, "_brute_pieces")) if isinstance(node, ast.For)]
    assert loops and not [
        node for loop in loops for node in ast.walk(loop)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "check_entries"
    ]
    # The text format's rule: `core._digits` reads a number's digits, and
    # `parse_square` runs its test over nine tokens at once; `cli` reads its
    # integer arguments through `_digits`.  The separators are one pattern,
    # compiled in `core`.
    digit_tests = sorted({
        (f, fn) for f, fn, name, source in calls
        if name in ("isdigit", "isascii") or name == "lstrip" and source.endswith(".lstrip('0')")
    })
    assert digit_tests == [("core.py", "_digits"), ("core.py", "parse_square")]
    assert ("cli.py", "_int_arg") in {(f, fn) for f, fn, name, _ in calls if name == "_digits"}
    assert [(f, fn, source.split("(")[0]) for f, fn, name, source in calls if name == "compile"] == [
        ("core.py", "", "re.compile")
    ]


def _defined_names(path):
    """The names that a file's top-level functions, classes and assignments define."""
    names = set()
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names |= {target.id for target in node.targets if isinstance(target, ast.Name)}
    return names


def test_public_names_are_the_imported_names():
    # `__all__` is the package's eager imports and its lazy names, the keys of
    # `_LAZY` less the three submodules that it loads.  A name deleted from
    # either and not from `__all__`, or the other way round, shows here, and so
    # does a lazy name that its submodule does not define.
    init = Path(magic3.__file__)
    imported = {
        alias.asname or alias.name
        for node in ast.parse(init.read_text(), filename=str(init)).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }
    submodules = {"enumeration", "series", "selftest"}
    assert {module for name, module in magic3._LAZY.items() if name == module} == submodules
    lazy = set(magic3._LAZY) - submodules
    assert not imported & lazy
    names = magic3.__all__
    assert names == sorted(set(names))
    assert [name for name in names if not hasattr(magic3, name)] == []
    assert set(names) == imported | lazy
    home = {name: init.with_name(f"{module}.py") for name, module in magic3._LAZY.items() if name in lazy}
    assert [name for name, path in home.items() if name not in _defined_names(path)] == []


# The brute-force sweep, and the brute half of `reconcile` that compares it
# with the family marks.
SWEEP = ("iter_brute_grids", "_brute_pieces", "_brute_grids", "_brute_rows", "_forced_grid", "_compare_brute_rows")


def test_brute_sweep_uses_nothing_from_decompose():
    # The brute-force oracle checks the family expansion, so it reads none of
    # the names that `enumeration` imports from `decompose`.
    path = Path(magic3.enumeration.__file__)
    tree = ast.parse(path.read_text(), filename=str(path))
    from_decompose = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module == "decompose"
        for alias in node.names
    }
    sweep = [
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name in SWEEP
    ]
    used = {node.id for function in sweep for node in ast.walk(function) if isinstance(node, ast.Name)}
    assert len(sweep) == len(SWEEP) and "base_grid" in from_decompose
    assert used & from_decompose == set()


def test_family_marks_use_nothing_from_the_sweep():
    # The family half of `reconcile` certifies its rows by the six equations
    # written out, so a fault in the brute-force oracle cannot pass for, or
    # hide, a fault in the family expansion.
    path = Path(magic3.enumeration.__file__)
    tree = ast.parse(path.read_text(), filename=str(path))
    (marks,) = [
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "_mark_family_rows"
    ]
    used = {node.id for node in ast.walk(marks) if isinstance(node, ast.Name)}
    assert {"base_grid", "_family_rows"} <= used
    assert used & {*SWEEP, "_CELL_PAIRS"} == set()


def test_cli_renders_both_sources_through_one_path():
    # The piece format and the eight images stay in `enumeration`: `cli`
    # passes one column function to whichever stream it renders.  Each
    # string carries the separator that follows it, so `enumerate` joins with
    # the empty string alone: a join per line or per piece with a separator
    # would show here.
    path = Path(magic3.__file__).parent / "cli.py"
    imported = {
        alias.name
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert {"_INVERSE_IMAGES", "_WIDE", "_CORNERS"} & imported == set()
    assert [(f, fn) for f, fn, name, _ in _calls(path) if name == "_column_names"] == [
        ("cli.py", "_cmd_enumerate")
    ]
    # The library's family stream reads the same layout as `enumerate`.
    assert ("enumeration.py", "iter_family_grids") in [
        (f, fn) for f, fn, name, _ in _calls(Path(enumeration.__file__)) if name == "_family_points"
    ]
    joins = [ast.unparse(node.value) for node in ast.walk(_function(path, "_cmd_enumerate"))
             if isinstance(node, ast.Attribute) and node.attr == "join"]
    assert joins == ["''"] * 2


def _int_constants(module):
    """The names that a module's top-level assignments bind to an int."""
    path = Path(module.__file__)
    targets = [
        target.id
        for node in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name)
    ]
    return [name for name in targets if type(getattr(module, name)) is int]


def test_the_batch_size_of_enumerate_is_decided_once():
    # `enumeration` cuts each row into pieces of at most `_PIECE` grids, and
    # `enumerate` writes each piece as it comes: `cli` cuts the stream no
    # further, and has no batch size of its own.
    path = Path(cli.__file__)
    tree = ast.parse(path.read_text(), filename=str(path))
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module == "itertools"] == []
    assert {name for _, _, name, _ in _calls(path)} & {"islice", "chain", "from_iterable"} == set()
    assert _int_constants(cli) == ["_NAME_TABLE_BOUND"]
    assert _int_constants(enumeration) == ["_PIECE"]
    assert _int_constants(core) == ["ENTRY_MAX", "COUNT_MAX_S"]
    assert [name for name in vars(enumeration) if "PIECE" in name] == ["_PIECE"]
    path = Path(enumeration.__file__)
    readers = {
        function for function, node in _scoped_nodes(path)
        if isinstance(node, ast.Name) and node.id == "_PIECE" and isinstance(node.ctx, ast.Load)
    }
    assert readers == {"_family_pieces", "_brute_pieces"}


def test_cli_model_shares_no_code_with_magic3():
    # The CLI's spec model checks it from outside, as `bench/oracle.py` checks
    # the benchmark: it imports the standard library only, by name.
    path = Path(__file__).parent / "cli_model.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    modules = {alias.name for node in imports if isinstance(node, ast.Import) for alias in node.names}
    modules |= {node.module for node in imports if isinstance(node, ast.ImportFrom)}
    assert imports and all(getattr(node, "level", 0) == 0 for node in imports)
    assert {module.split(".")[0] for module in modules} <= set(sys.stdlib_module_names)
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Name)
            and node.id in ("__import__", "importlib", "magic3")] == []
