import dataclasses

import pytest

from magic3 import (
    count_closed,
    count_families,
    expand,
    iter_brute_grids,
    iter_brute_squares,
    iter_decompositions,
    iter_family_grids,
    iter_family_squares,
    magic_gf,
    reconcile,
)
from magic3.series import RationalSeries, _poly_mul

EXPECTED_PREFIX = [0, 0, 0, 0, 8, 24, 32, 56, 80, 104, 136, 176, 208]


class TestExpand:
    def test_known_prefix(self):
        assert expand(magic_gf(), 13) == EXPECTED_PREFIX

    def test_geometric_series(self):
        geometric = RationalSeries(numerator=(1,), denominator=(1, -1))
        assert expand(geometric, 4) == [1, 1, 1, 1]

    def test_cancellation_to_one(self):
        one = RationalSeries(numerator=(1, -1), denominator=(1, -1))
        assert expand(one, 3) == [1, 0, 0]

    def test_denominator_must_be_unital(self):
        with pytest.raises(ValueError):
            RationalSeries(numerator=(1,), denominator=(2, 1))

    def test_product_of_denominator_and_expansion_is_numerator(self):
        gf = magic_gf()
        coeffs = tuple(expand(gf, 101))
        product = _poly_mul(gf.denominator, coeffs)[:101]
        padded = gf.numerator + (0,) * (101 - len(gf.numerator))
        assert product == padded


class TestMagicGf:
    def test_numerator_coefficients(self):
        assert magic_gf().numerator == (0, 0, 0, 0, 8, 16)

    def test_denominator_degree_and_shape(self):
        den = magic_gf().denominator
        assert len(den) - 1 == 6
        # independently recomputed convolution of (1-t)(1-t^2)(1-t^3)
        step1 = [0, 0, 0, 0]
        for i, a in enumerate((1, -1)):
            for j, b in enumerate((1, 0, -1)):
                step1[i + j] += a * b
        step2 = [0] * 7
        for i, a in enumerate(step1):
            for j, b in enumerate((1, 0, 0, -1)):
                step2[i + j] += a * b
        assert den == tuple(step2)


class TestClosedForm:
    @pytest.mark.parametrize("s, expected", [(0, 0), (1, 0), (2, 0), (3, 0), (4, 8), (8, 80)])
    def test_pinned_values(self, s, expected):
        assert count_closed(s) == expected

    def test_rejects_negative_parameter(self):
        with pytest.raises(ValueError):
            count_closed(-1)

    def test_agrees_with_series_to_one_thousand(self):
        coeffs = expand(magic_gf(), 1001)
        for s in range(1001):
            assert count_closed(s) == coeffs[s]
            # Mod 3 the closed form's terms are 0, s, 0, 0 and 2s, so its
            # numerator is 3s = 0 mod 3 and the division by 3 is exact.
            terms = (6 * s * s, -20 * s, 3, -3 * (-1) ** s, 8 * (s % 3))
            assert [t % 3 for t in terms] == [0, s % 3, 0, 0, 2 * s % 3]
            assert 3 * count_closed(s) == sum(terms)

    def test_agrees_with_family_enumeration(self):
        for s in range(0, 26):
            assert count_closed(s) == count_families(s)

    def test_every_count_is_a_multiple_of_eight(self):
        for s in range(1001):
            assert count_closed(s) % 8 == 0

    def test_quadratic_on_every_residue_class_mod_six(self):
        # each class has constant second differences, i.e. a degree-2 polynomial
        for residue in range(6):
            values = [count_closed(s) for s in range(residue, 1001, 6)]
            second = [
                values[n + 2] - 2 * values[n + 1] + values[n]
                for n in range(len(values) - 2)
            ]
            assert len(set(second)) == 1


# Every function of the magic parameter s; a stream is asked for its first item.
S_CALLS = {
    "count_closed": count_closed,
    "count_families": count_families,
    "reconcile": reconcile,
    **{
        stream.__name__: lambda s, stream=stream: next(iter(stream(s)))
        for stream in (
            iter_decompositions,
            iter_family_grids,
            iter_family_squares,
            iter_brute_grids,
            iter_brute_squares,
        )
    },
}


@pytest.mark.parametrize("s, kind", [(4.0, "float"), (4.5, "float"), (True, "bool")])
@pytest.mark.parametrize("name", sorted(S_CALLS))
def test_s_must_be_an_int(name, s, kind):
    # A float or a bool s once compared with 0 and ran on: count_closed(4.5)
    # gave 16.0 and reconcile(True) a CountReport with s=True.
    with pytest.raises(TypeError) as info:
        S_CALLS[name](s)
    assert type(info.value) is TypeError
    assert str(info.value) == f"s must be int, got {kind}"


def _misreporting(name):
    """int's `name`, misreporting: one more than int's result, or its negation."""
    method = getattr(int, name)

    def wrong(self, *args):
        result = method(self, *args)
        if result is NotImplemented:
            return result
        return not result if isinstance(result, bool) else result + 1

    return wrong


# An s whose arithmetic and `<` misreport the int it holds.  Computed with as
# it reports, s = 10 gave count_closed 139 and count_families 104 (136 is
# right), and reconcile a MismatchError for a disagreement that is not real.
LyingS = type("LyingS", (int,), {
    name: _misreporting(name) for name in ("__sub__", "__rsub__", "__mul__", "__rmul__", "__lt__")
})

# Every function of s, with each stream drained.
S_RESULTS = {
    "count_closed": count_closed,
    "count_families": count_families,
    "reconcile": reconcile,
    **{
        stream.__name__: lambda s, stream=stream: list(stream(s))
        for stream in (
            iter_decompositions,
            iter_family_grids,
            iter_family_squares,
            iter_brute_grids,
            iter_brute_squares,
        )
    },
}


def int_leaves(value):
    """Every int inside a result: the fields of a value type, and the items of a tuple or list."""
    if dataclasses.is_dataclass(value):
        return [leaf for f in dataclasses.fields(value) for leaf in int_leaves(getattr(value, f.name))]
    if isinstance(value, (tuple, list)):
        return [leaf for item in value for leaf in int_leaves(item)]
    return [value] if isinstance(value, int) else []


def outcome(call, s):
    """call(s), or the type and message of the ValueError it raises."""
    try:
        return call(s)
    except ValueError as exc:
        return type(exc), str(exc)


# At s = -1 the subclass's `<` says it is not below 0.
@pytest.mark.parametrize("s", [-1, 0, 4, 10, 13])
@pytest.mark.parametrize("name", sorted(S_RESULTS))
def test_an_int_subclass_s_is_read_as_the_int_it_holds(name, s):
    got = outcome(S_RESULTS[name], LyingS(s))
    assert got == outcome(S_RESULTS[name], s)
    assert [type(v) for v in int_leaves(got)] == [int] * len(int_leaves(got))
    if name == "reconcile" and s >= 0:
        assert type(got.s) is int
    if s < 0:
        assert got == (ValueError, "s must be nonnegative, got -1")
