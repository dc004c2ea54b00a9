"""Counting magic squares: closed form and rational generating series.

The number of magic squares with magic sum 3s is the coefficient of t**s in

    8 * t**4 * (1 + 2t) / ((1 - t) * (1 - t**2) * (1 - t**3))

and equals the quasi-polynomial (6s**2 - 20s + 3 - 3*(-1)**s + 8*(s mod 3)) / 3.
The two devices are kept independent so they cross-check each other: the
series is expanded through an exact linear recurrence driven by the
denominator, and the closed form is evaluated in integer arithmetic, never
rounded; its division by 3 is exact, as `count_closed` proves.
"""

from __future__ import annotations

from .core import _integer, _member, _natural, _value_type


@_value_type
class RationalSeries:
    """A rational power series num(t) / den(t) with den(0) = 1.

    Every coefficient is read by `_integer`, and the unit constant term makes
    the expansion recurrence integral, so all coefficients are exact integers.
    """

    numerator: tuple[int, ...]
    denominator: tuple[int, ...]

    def __init__(self, numerator: tuple[int, ...], denominator: tuple[int, ...]) -> None:
        numerator, denominator = (tuple(_integer("coefficient", c) for c in p) for p in (numerator, denominator))
        if not denominator or denominator[0] != 1:
            raise ValueError("denominator must have constant term 1")
        self.__setstate__((numerator, denominator))


@_value_type
class CountReport:
    """Per-s counts from every route, each read by `_natural`; all present counts must agree."""

    s: int
    closed_form: int
    series: int
    families: int
    brute: int | None = None

    def __init__(self, s: int, closed_form: int, series: int, families: int, brute: int | None = None) -> None:
        s, closed_form = _natural("s", s), _natural("closed_form", closed_form)
        series, families = _natural("series", series), _natural("families", families)
        brute = None if brute is None else _natural("brute", brute)
        self.__setstate__((s, closed_form, series, families, brute))
        if len({closed_form, series, families, brute} - {None}) != 1:
            raise ValueError(f"count report fields disagree: {self}")


def _poly_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Exact product of two integer polynomials in coefficient form."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return tuple(out)


def expand(f: RationalSeries, n: int) -> list[int]:
    """First n power-series coefficients of f, by the division recurrence.

    c[m] = num[m] - sum(den[d] * c[m - d] for d >= 1), exact at every step.
    TypeError, naming f, for an f that is not a `RationalSeries`; n is read
    by the int rule, `_natural`.
    """
    f, n = _member("f", f, RationalSeries), _natural("n", n)
    num, den = f.numerator, f.denominator
    coeffs: list[int] = []
    for m in range(n):
        c = num[m] if m < len(num) else 0
        for d in range(1, min(m, len(den) - 1) + 1):
            c -= den[d] * coeffs[m - d]
        coeffs.append(c)
    return coeffs


# The denominator is always computed from its factored form (1-t)(1-t^2)(1-t^3)
# so the expanded coefficients cannot be mistranscribed.
_DENOMINATOR = _poly_mul(_poly_mul((1, -1), (1, 0, -1)), (1, 0, 0, -1))
_MAGIC_GF = RationalSeries(numerator=(0, 0, 0, 0, 8, 16), denominator=_DENOMINATOR)


def magic_gf() -> RationalSeries:
    """The generating series whose t**s coefficient counts magic sum 3s."""
    return _MAGIC_GF


def count_closed(s: int) -> int:
    """Closed-form count of magic squares with magic sum 3s.

    Evaluates (6s^2 - 20s + 3 - 3*(-1)^s + 8*(s mod 3)) / 3 in integer
    arithmetic; the parity term is a branch, never a floating-point power.
    The division is exact: mod 3 the five terms are 0, s, 0, 0 and 2s, as
    -20 = 1 and 8 = 2 mod 3, so the numerator is 3s = 0 mod 3.
    """
    s = _natural("s", s)
    parity = 1 if s % 2 == 0 else -1
    return (6 * s * s - 20 * s + 3 - 3 * parity + 8 * (s % 3)) // 3
