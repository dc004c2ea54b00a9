"""Seeded inputs and expected outputs for the benchmark.

Nothing here imports magic3: the benchmark builds its squares from Lucas's
three-parameter form, counts them with its own quasi-polynomial, and
orients them with its own index permutations, so a check that passes is
evidence from outside the library, not the library agreeing with itself.
"""

from __future__ import annotations

import json
import random

U64_MAX = 2**64 - 1

# Grid cells are row-major indices 0..8.  Each permutation lists, for every
# destination cell, the source cell it reads: image[p] = grid[perm[p]].
# Rotations are clockwise; fh/fv flip across the horizontal/vertical axis,
# fd/fa across the main/anti-diagonal.
DIHEDRAL = {
    "id": (0, 1, 2, 3, 4, 5, 6, 7, 8),
    "r90": (6, 3, 0, 7, 4, 1, 8, 5, 2),
    "r180": (8, 7, 6, 5, 4, 3, 2, 1, 0),
    "r270": (2, 5, 8, 1, 4, 7, 0, 3, 6),
    "fh": (6, 7, 8, 3, 4, 5, 0, 1, 2),
    "fv": (2, 1, 0, 5, 4, 3, 8, 7, 6),
    "fd": (0, 3, 6, 1, 4, 7, 2, 5, 8),
    "fa": (8, 5, 2, 7, 4, 1, 6, 3, 0),
}
_LINES = ((0, 1, 2), (3, 4, 5), (6, 7, 8), (0, 3, 6), (1, 4, 7), (2, 5, 8), (0, 4, 8), (2, 4, 6))

# The high band of s for `enumerate` and `count`: four strata of width 10
# over [230, 270), visited in this fixed order, so every seed covers the
# same spread of sizes in the same order and only the offset inside each
# stratum is drawn.  The band is kept narrow because a run holds only 10 to
# 20 of these ops and op time grows as s**2: with the whole of [200, 300)
# the median op moved by a tenth between seeds.
HIGH_BAND_LO = 230
STRATUM_WIDTH = 10
STRATUM_ORDER = (2, 0, 3, 1)

# Query input mix: one input in ten is a reject, and the reject kinds are
# dealt evenly.  The last three are text the documented grammar (ASCII
# digits) excludes but which Python's int() accepts; they are expected to
# be rejected with ValueError, and until the parser is made strict they are
# counted as wrong outcomes in the error rate.
REJECT_KINDS = (
    "not_magic",
    "duplicates",
    "token_count",
    "out_of_range",
    "malformed",
    "plus_sign",
    "underscore",
    "arabic_indic",
)
GRAMMAR_KINDS = frozenset({"plus_sign", "underscore", "arabic_indic"})
_ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


def count_squares(s: int) -> int:
    """Number of magic squares with centre s (magic sum 3s).

    Every magic square is one image, under the eight symmetries, of Lucas's
    square with centre s and parameters 0 < a < b, b != 2a, a + b <= s.
    For a fixed a there are s - 2a choices of b, and the excluded b = 2a
    occurs once for each a <= s / 3.
    """
    half = max((s - 1) // 2, 0)
    pairs = half * s - half * (half + 1) - s // 3
    return 8 * max(pairs, 0)


def lucas(c: int, a: int, b: int) -> tuple[int, ...]:
    """Lucas's square with centre c; magic with distinct entries iff 0 < a < b, b != 2a."""
    return (
        c - b, c + a + b, c - a,
        c - a + b, c, c + a - b,
        c + a, c - a - b, c + b,
    )


def image(tag: str, grid: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(grid[p] for p in DIHEDRAL[tag])


def is_magic(grid: tuple[int, ...]) -> bool:
    total = grid[0] + grid[1] + grid[2]
    return (
        all(grid[i] + grid[j] + grid[k] == total for i, j, k in _LINES)
        and len(set(grid)) == 9
        and min(grid) >= 0
    )


def text(grid: tuple[int, ...]) -> str:
    return " ".join(map(str, grid))


def canonical(grid: tuple[int, ...]) -> tuple[str, tuple[int, ...]]:
    """The symmetry tag and image with corners c3 < c1 < a3 < a1 (exactly one exists)."""
    for tag in DIHEDRAL:
        g = image(tag, grid)
        if g[8] < g[6] < g[2] < g[0]:
            return tag, g
    raise AssertionError(f"no canonical image of {grid}")


def _centre(rng: random.Random, band: int) -> int:
    if band == 0:
        return rng.randint(4, 999)
    if band == 1:
        return rng.randint(1000, 10**6)
    return rng.randint(2**62 - 2**32, 2**62)


def _lucas_params(rng: random.Random, c: int) -> tuple[int, int]:
    while True:
        b = rng.randint(2, c - 1)
        a = rng.randint(1, min(b - 1, c - b))
        if b != 2 * a:
            return a, b


def random_square(rng: random.Random, band: int) -> tuple[int, ...]:
    """A magic square with its centre in the given band, in a random orientation."""
    c = _centre(rng, band)
    a, b = _lucas_params(rng, c)
    return image(rng.choice(tuple(DIHEDRAL)), lucas(c, a, b))


def _replace_token(grid: tuple[int, ...], index: int, token: str) -> str:
    tokens = [str(v) for v in grid]
    tokens[index] = token
    return " ".join(tokens)


def reject_text(rng: random.Random, kind: str, band: int) -> str:
    """Text of a square that must be rejected, built by hand for one reject kind."""
    grid = random_square(rng, band)
    cell = rng.randrange(9)
    if kind == "not_magic":
        bumped = list(grid)
        bumped[cell] += rng.randint(1, 9)
        return text(tuple(bumped))
    if kind == "duplicates":
        # b = 2a keeps all eight line sums equal but repeats c - a and c + a.
        c = _centre(rng, band)
        a = rng.randint(1, c // 3)
        return text(image(rng.choice(tuple(DIHEDRAL)), lucas(c, a, 2 * a)))
    if kind == "token_count":
        tokens = text(grid).split()
        if rng.random() < 0.5:
            del tokens[cell]
        else:
            tokens.insert(cell, str(grid[cell]))
        return " ".join(tokens)
    if kind == "out_of_range":
        token = str(U64_MAX + rng.randint(1, 10**6)) if rng.random() < 0.5 else f"-{grid[cell] + 1}"
        return _replace_token(grid, cell, token)
    if kind == "malformed":
        token = rng.choice(("12x", "0x1f", "1.5", "1e3", "--3", "seven", "1/2"))
        return _replace_token(grid, cell, token)
    digits = str(grid[cell])
    if kind == "plus_sign":
        return _replace_token(grid, cell, "+" + digits)
    if kind == "underscore":
        digits = digits.zfill(2)
        cut = rng.randint(1, len(digits) - 1)
        return _replace_token(grid, cell, digits[:cut] + "_" + digits[cut:])
    if kind == "arabic_indic":
        return _replace_token(grid, cell, digits.translate(_ARABIC_INDIC))
    raise ValueError(f"unknown reject kind {kind!r}")


def query_inputs(seed: int, n: int) -> list[tuple[str, str | None]]:
    """n query inputs as (text, reject kind or None); one in ten is a reject.

    Centres cycle through three bands: small (4..999), up to 10**6, and
    within 2**32 of 2**62, so big-integer arithmetic is always in the mix.
    """
    rng = random.Random(f"query:{seed}")
    kinds: list[str] = []
    inputs = []
    for block in range(n // 10):
        reject_at = rng.randrange(10)
        for slot in range(10):
            band = (block * 10 + slot) % 3
            if slot == reject_at:
                if not kinds:
                    kinds = list(REJECT_KINDS)
                    rng.shuffle(kinds)
                kind = kinds.pop()
                inputs.append((reject_text(rng, kind, band), kind))
            else:
                inputs.append((text(random_square(rng, band)), None))
    return inputs


def high_band(seed: int, stream: str) -> list[int]:
    """One s per stratum of the high band, in the fixed stratum order."""
    rng = random.Random(f"{stream}:{seed}")
    return [HIGH_BAND_LO + STRATUM_WIDTH * k + rng.randrange(STRATUM_WIDTH) for k in STRATUM_ORDER]


def small_squares(seed: int, n: int) -> list[tuple[int, ...]]:
    """Small magic squares (centre 5..60) for the command-line verbs."""
    rng = random.Random(f"cli:{seed}")
    out = []
    for _ in range(n):
        c = rng.randint(5, 60)
        a, b = _lucas_params(rng, c)
        out.append(image(rng.choice(tuple(DIHEDRAL)), lucas(c, a, b)))
    return out


# Expected command-line output, written from the README's documented formats.

def count_line(s: int) -> str:
    n = count_squares(s)
    return json.dumps({"s": s, "closed": n, "series": n, "families": n, "brute": n}, separators=(",", ":")) + "\n"


def selftest_lines(max_s: int) -> str:
    lines = [f"s={s} count={count_squares(s)} ok\n" for s in range(max_s + 1)]
    return "".join(lines) + f"selftest ok max_s={max_s}\n"


def selftest_squares(max_s: int) -> int:
    return sum(count_squares(s) for s in range(max_s + 1))


def _json_object(out: str) -> dict:
    try:
        obj = json.loads(out)
    except ValueError:
        return {}
    return obj if isinstance(obj, dict) else {}


def check_reduce(grid: tuple[int, ...], out: str) -> bool:
    obj = _json_object(out)
    tag, oriented = canonical(grid)
    shift = min(grid)
    return (
        obj.get("symmetry") == tag
        and obj.get("i") == shift
        and obj.get("reduced") == [v - shift for v in oriented]
    )


def check_decompose(grid: tuple[int, ...], out: str) -> dict | None:
    """The decomposition if it is consistent with the square, else None.

    Its family coordinates must give the square's s, i must be the minimum
    entry, and the symmetry must be a known tag; construct closes the loop.
    """
    obj = _json_object(out)
    family, i, j, k = obj.get("family"), obj.get("i"), obj.get("j"), obj.get("k")
    base, k_step = {"F1": (4, 1), "F2": (5, 2)}.get(family, (None, None))
    if base is None or obj.get("symmetry") not in DIHEDRAL:
        return None
    if not all(type(v) is int for v in (i, j, k)):
        return None
    if min(i, j, k) < 0 or base + i + 3 * j + k_step * k != grid[4] or i != min(grid):
        return None
    return obj


def check_enumerate(s: int, out: str) -> bool:
    lines = out.splitlines()
    grids = {tuple(map(int, line.split())) for line in lines}
    return (
        len(lines) == count_squares(s) == len(grids)
        and all(is_magic(g) and g[4] == s for g in grids)
    )
