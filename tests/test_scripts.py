"""The scripts under scripts/ run end to end and print their tables; the parity digest's set is checked, not run."""

import ast
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import magic3
from magic3 import ENTRY_MAX, DihedralElement, Family, count_closed, iter_family_grids
from magic3.decompose import base_grid

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> list[str]:
    """Stdout lines of scripts/<name> run with PYTHONPATH=src; it must exit 0."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    cmd = [sys.executable, str(ROOT / "scripts" / name), *args]
    result = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


@pytest.mark.parametrize("flags", [[], ["--no-brute"]])
def test_count_table(flags):
    lines = run_script("count_table.py", "--max-s", "12", *flags)
    assert lines[0].split() == ["s", "m", "closed", "series", "families", "brute"]
    for s, line in enumerate(lines[1:14]):
        n = str(count_closed(s))
        assert line.split() == [str(s), str(3 * s), n, n, n, "-" if flags else n]
    total = sum(count_closed(s) for s in range(13))
    assert lines[14:] == [f"total squares through s=12: {total}"]


def test_class_census():
    lines = run_script("class_census.py", "--max-s", "8")
    starts = [n for n, line in enumerate(lines) if line.startswith("s=")]
    assert len(starts) == 5
    for s, start, end in zip(range(4, 9), starts, starts[1:] + [len(lines)]):
        # A class is one dihedral orbit: eight squares.
        classes = count_closed(s) // 8
        header = re.fullmatch(rf"s={s}: {classes} classes \(F1: (\d+), F2: (\d+)\)", lines[start])
        assert header is not None, lines[start]
        assert sum(map(int, header.groups())) == classes == end - start - 1
        for line in lines[start + 1:end]:
            assert re.fullmatch(r"  F[12] i=\d+ j=\d+ k=\d+( +\d+){9}", line), line


def test_src_stats():
    lines = run_script("src_stats.py")
    totals = ["lines", "code lines", "public names", "int constants"]
    assert [line.rsplit(" ", 1)[0] for line in lines[:4]] == totals
    total, code, public, knobs = (int(line.rsplit(" ", 1)[1]) for line in lines[:4])
    package = Path(magic3.__file__).parent
    assert total == sum(len(path.read_text().splitlines()) for path in package.glob("*.py"))
    assert 0 < code < total
    assert public == len(magic3.__all__)
    # One line per module, in file name order, summing to the totals.
    pattern = r"(\S+\.py): lines (\d+), code lines (\d+), int constants (\d+)"
    modules = [re.fullmatch(pattern, line).groups() for line in lines[4:]]
    assert [name for name, _, _, _ in modules] == sorted(path.name for path in package.glob("*.py"))
    assert sum(int(n) for _, n, _, _ in modules) == total
    assert sum(int(n) for _, _, n, _ in modules) == code
    assert sum(int(n) for _, _, _, n in modules) == knobs
    assert all(0 < int(c) <= int(n) for _, n, c, _ in modules)
    spec = importlib.util.spec_from_file_location("src_stats", ROOT / "scripts" / "src_stats.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    source = '"""Module,\ntwo lines."""\nx = "not a docstring"\n\n\ndef f():\n    "One line."\n    return x\n'
    assert script.docstring_lines(ast.parse(source)) == {1, 2, 7}
    # The tuning knobs: capitalised names bound to an int by arithmetic on
    # literals.  A tuple, a float, a call, a lowercase name, a bool and a
    # function's local are not knobs.
    source = (
        "A = 1\n_B: int = 2**16\nC, D = 1, 2\nE = 2**64 - 1\nF = 1.5\nG = len('x')\n"
        "h = 3\nI = True\nJ = K = -4\n\n\ndef f():\n    L = 5\n"
    )
    assert script.int_constants(ast.parse(source)) == ["A", "_B", "E", "J", "K"]
    # The package's knobs, one piece size among them.
    names = [name for path in package.glob("*.py") for name in script.int_constants(ast.parse(path.read_text()))]
    assert knobs == len(names) and sorted(names) == ["COUNT_MAX_S", "ENTRY_MAX", "_NAME_TABLE_BOUND", "_PIECE"]


def test_parity_digest_invocations():
    # The script itself takes about 20 s, so only its set is checked here.
    spec = importlib.util.spec_from_file_location("parity_digest", ROOT / "scripts" / "parity_digest.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    invocations = script.INVOCATIONS
    assert len(invocations) == 3252 == len({tuple(argv) for argv in invocations})
    enumerations = [argv for argv in invocations if argv[0] == "enumerate"]
    assert len(enumerations) == 4 * 104
    assert {tuple(argv[2:]) for argv in enumerations} == {
        ("--source", source, "--format", fmt) for source in ("families", "brute") for fmt in ("text", "json")
    }
    assert {argv[1] for argv in enumerations} == {str(s) for s in [-1, *range(61), *range(230, 270), 2**63, 2**63 + 1]}
    assert sum(argv[0] == "count" for argv in invocations) == 2 * 101
    assert ["selftest", "--max-s", "30"] in invocations
    # The script sweeps its own squares: every family grid with s <= 12, each
    # in all eight images, through each of the three square verbs, and the rejects.
    family_grids = [tuple(map(str, grid)) for s in range(13) for grid in iter_family_grids(s)]
    assert len(family_grids) == sum(count_closed(s) for s in range(13)) == 824
    for verb in ("verify", "reduce", "decompose"):
        squares = [tuple(argv[1:]) for argv in invocations if argv[0] == verb]
        assert sorted(squares[:824]) == sorted(family_grids)
        assert squares[824:] == [tuple(text) for text in script.REJECTS]
    # construct: every family and symmetry, at the ENTRY_MAX edge and one past it.
    constructs = {tuple(argv[2::2]) for argv in invocations if argv[0] == "construct"}
    assert sum(argv[0] == "construct" for argv in invocations) == len(constructs) == 131
    for family in Family:
        for g in DihedralElement:
            for j, k in [(0, 0), (3, 2**50)]:
                edge = ENTRY_MAX - max(base_grid(family, 0, j, k))
                for i in (edge, edge + 1):
                    assert (family.value, str(i), str(j), str(k), g.value) in constructs
