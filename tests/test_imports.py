"""What `import magic3` and each CLI verb load, and how the package's lazy names behave.

`import magic3` loads `core` and `decompose`; the counting routes,
`enumeration`, `series` and `selftest`, load the first time one of their
names is read from the package, or a verb that runs them is called.  Each
check runs in a fresh interpreter, as a cold start does.
"""

import ast
import subprocess
import sys

import pytest

import magic3

SQUARE = ["2", "7", "6", "9", "5", "1", "4", "3", "8"]
EAGER = ["magic3", "magic3.core", "magic3.decompose"]
COUNTING = ["magic3.enumeration", "magic3.series"]

# Prints the magic3 modules loaded by `import magic3`, then by `cli.main(argv)`
# with its exit code, and the other modules loaded since the interpreter started.
VERB_PROBE = """
import contextlib, io, sys
argv = sys.argv[1:]
before = set(sys.modules)
import magic3
print(sorted(name for name in sys.modules if name.startswith("magic3")))
from magic3 import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(argv)
print(code)
print(sorted(name for name in sys.modules if name.startswith("magic3")))
print(sorted(name for name in set(sys.modules) - before if not name.startswith("magic3")))
"""


def probe(code, *args):
    """The lines that a fresh interpreter prints running code with args."""
    result = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


@pytest.mark.parametrize(
    "argv, added",
    [
        (["verify", *SQUARE], []),
        (["reduce", *SQUARE], []),
        (["decompose", *SQUARE], []),
        (["construct", "--family", "F2", "--i", "1", "--j", "2", "--k", "3"], []),
        (["enumerate", "5"], COUNTING),
        (["enumerate", "5", "--format", "json", "--source", "brute"], COUNTING),
        (["count", "5"], COUNTING),
        (["selftest", "--max-s", "4"], [*COUNTING, "magic3.selftest"]),
    ],
)
def test_each_verb_loads_only_what_it_runs(argv, added):
    on_import, code, on_verb, others = map(ast.literal_eval, probe(VERB_PROBE, *argv))
    assert on_import == EAGER
    assert code == 0
    assert on_verb == sorted([*EAGER, "magic3.cli", *added])
    # Only `reduce`, `decompose` and `count` print JSON, and need `json`.
    if argv[0] in ("verify", "construct", "enumerate", "selftest"):
        assert "json" not in others


def test_every_public_name_resolves_in_a_fresh_interpreter():
    lines = probe(
        "import magic3\n"
        "print(sorted(set(magic3.__all__) - set(dir(magic3))))\n"
        "for name in magic3.__all__:\n"
        "    getattr(magic3, name)\n"
        "    print(name)\n"
    )
    # `dir` lists the lazy names before they are read, as it did when they were imported.
    assert lines == ["[]", *magic3.__all__]
    # `import *` binds every name of `__all__`.
    assert probe("from magic3 import *\nimport magic3\nprint(all(n in globals() for n in magic3.__all__))") == ["True"]


def test_lazy_names_are_the_submodules_values():
    lines = probe(
        "import magic3\n"
        "for name, module in sorted(magic3._LAZY.items()):\n"
        "    value = getattr(magic3, name)\n"
        "    home = getattr(magic3, module)\n"
        "    print(name, value is (home if name == module else getattr(home, name)), name in vars(magic3))\n"
    )
    assert lines == [f"{name} True True" for name in sorted(magic3._LAZY)]


def test_submodules_resolve_before_any_verb_runs():
    # As the benchmark reads them: `import magic3.cli`, then `magic3.selftest.run`.
    lines = probe(
        "import magic3, magic3.cli\n"
        "print(magic3.selftest.run.__module__, magic3.enumeration.__name__, magic3.series.__name__)\n"
        "print(magic3.MismatchError is magic3.enumeration.MismatchError is magic3.core.MismatchError)\n"
        "print(magic3.enumeration.COUNT_MAX_S is magic3.core.COUNT_MAX_S)\n"
    )
    assert lines == ["magic3.selftest magic3.enumeration magic3.series", "True", "True"]


# `poly_mul`, `RationalSeries` and `CountReport` left the package's names;
# the types are read from `magic3.series`, and `magic_gf()` and `reconcile(4)`
# still return them.
@pytest.mark.parametrize("name", ["nope", "poly_mul", "RationalSeries", "CountReport"])
def test_an_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=f"^module 'magic3' has no attribute '{name}'$"):
        getattr(magic3, name)
    assert not hasattr(magic3, f"_{name}")
    assert isinstance(magic3.magic_gf(), magic3.series.RationalSeries)
    assert type(magic3.reconcile(4)) is magic3.series.CountReport
    lines = probe(
        "import sys, magic3\n"
        "try:\n"
        f"    magic3.{name}\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
        "print(sorted(name for name in sys.modules if name.startswith('magic3')))\n"
    )
    assert lines == [f"module 'magic3' has no attribute '{name}'", str(EAGER)]
