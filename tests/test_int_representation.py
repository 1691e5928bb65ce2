"""UniPoly and HomPoly2 against a reference over tuples of Fractions.

Both classes store one integer tuple over one positive denominator.  Every
operation is checked against the textbook rational computation, and every
result against the canonical form that makes equal values equal objects.
"""

from __future__ import annotations

from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edcurve.exactnum import HomPoly2, UniPoly

# -- reference arithmetic on coefficient tuples ----------------------------------


def trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def cleared(cs):
    """(integer list, D) with D the lcm of the denominators of cs."""
    d = 1
    for c in cs:
        d = d * c.denominator // gcd(d, c.denominator)
    return [c.numerator * (d // c.denominator) for c in cs], d


def padded(cs, n):
    return tuple(cs) + (F(0),) * (n - len(cs))


def ref_add(a, b, sign=1):
    n = max(len(a), len(b))
    a, b = padded(a, n), padded(b, n)
    return tuple(x + sign * y for x, y in zip(a, b))


def ref_mul(a, b):
    if not a or not b:
        return ()
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def ref_eval(cs, x):
    acc = F(0)
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def ref_divmod(a, b):
    rem = list(a)
    db = len(b) - 1
    quo = [F(0)] * max(len(a) - db, 0)
    for i in range(len(a) - db - 1, -1, -1):
        q = rem[db + i] / b[-1]
        quo[i] = q
        for j, y in enumerate(b):
            rem[i + j] -= q * y
    return trim(quo), trim(rem[:db])


# -- strategies -------------------------------------------------------------------

small = st.integers(min_value=-9, max_value=9)
wide = st.integers(min_value=-2**300, max_value=2**300)
rats = st.builds(
    F,
    st.one_of(st.just(0), small, wide),
    st.one_of(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=2**70)),
)


@st.composite
def coeff_lists(draw, max_len=9):
    """Rational lists, often with leading zeros, sometimes all zero, and
    sometimes a shared factor g in every numerator and in the denominator."""
    n = draw(st.integers(min_value=0, max_value=max_len))
    kind = draw(st.integers(min_value=0, max_value=3))
    if kind == 0:
        cs = [draw(rats) for _ in range(n)]
    elif kind == 1:  # content and denominator share the factor g
        g = draw(st.integers(min_value=2, max_value=30))
        d = g * draw(st.integers(min_value=1, max_value=9))
        cs = [F(g * draw(st.one_of(small, wide)), d) for _ in range(n)]
    elif kind == 2:  # plain ints, as seeded scenes pass them
        cs = [draw(st.one_of(small, wide)) for _ in range(n)]
    else:
        cs = [F(0)] * n
    if cs and draw(st.booleans()):
        cs[-1] = 0  # leading zero
    return cs


def unis():
    return coeff_lists().map(lambda cs: (UniPoly(cs), trim(F(c) for c in cs)))


@st.composite
def homs(draw, max_deg=8):
    cs = draw(coeff_lists(max_len=max_deg + 1))
    deg = max(len(cs) - 1, 0) + draw(st.integers(min_value=0, max_value=2))
    ref = padded([F(c) for c in cs], deg + 1)
    return HomPoly2(deg, cs), ref


points = st.one_of(small.map(F), rats)


# -- canonical form -----------------------------------------------------------------


def assert_canonical_uni(p: UniPoly, ref):
    assert p.coeffs == ref
    assert type(p.num) is tuple and all(type(x) is int for x in p.num)
    assert p.den > 0 and gcd(p.den, *p.num) == 1
    assert not p.num or p.num[-1] != 0
    if not p.num:
        assert p.den == 1
    # int_coeffs is exactly the cleared form, least denominator included
    assert p.int_coeffs() == cleared(ref)
    # equal values are equal objects: rebuild from the Fractions
    twin = UniPoly(ref)
    assert twin == p and hash(twin) == hash(p)


def assert_canonical_hom(h: HomPoly2, deg, ref):
    assert h.degree == deg and h.coeffs == tuple(ref)
    assert len(h.num) == deg + 1 and all(type(x) is int for x in h.num)
    assert h.den > 0 and gcd(h.den, *h.num) == 1
    if h.is_zero:
        assert h.den == 1
    assert h.int_coeffs() == cleared(ref)
    twin = HomPoly2(deg, tuple(ref))
    assert twin == h and hash(twin) == hash(h)


# -- UniPoly ------------------------------------------------------------------------


class TestUniPolyAgainstReference:
    @settings(max_examples=300)
    @given(a=unis())
    def test_construction(self, a):
        p, ref = a
        assert_canonical_uni(p, ref)
        assert p.degree == (len(ref) - 1 if ref else None)
        assert p.is_zero == (not ref) == (not p)

    @settings(max_examples=300)
    @given(a=unis(), b=unis())
    def test_ring_operations(self, a, b):
        (p, pr), (q, qr) = a, b
        assert_canonical_uni(p + q, trim(ref_add(pr, qr)))
        assert_canonical_uni(p - q, trim(ref_add(pr, qr, -1)))
        assert_canonical_uni(-p, trim(-c for c in pr))
        assert_canonical_uni(p * q, trim(ref_mul(pr, qr)))

    @settings(max_examples=300)
    @given(a=unis(), c=rats)
    def test_scalar_operations(self, a, c):
        p, ref = a
        want = trim(c * x for x in ref)
        assert_canonical_uni(p.scale(c), want)
        assert_canonical_uni(p * c, want)
        assert_canonical_uni(c * p, want)
        assert_canonical_uni(p.derivative(), trim(k * x for k, x in enumerate(ref))[1:])

    @settings(max_examples=300)
    @given(a=unis(), x=points)
    def test_evaluate(self, a, x):
        p, ref = a
        value = p.evaluate(x)
        assert type(value) is F and value == ref_eval(ref, x)

    @settings(max_examples=200)
    @given(a=unis(), b=unis())
    def test_divmod_and_exact_division(self, a, b):
        (p, pr), (q, qr) = a, b
        if not qr:
            with pytest.raises(ZeroDivisionError):
                divmod(p, q)
            return
        quo, rem = divmod(p, q)
        want_q, want_r = ref_divmod(pr, qr)
        assert_canonical_uni(quo, want_q)
        assert_canonical_uni(rem, want_r)
        assert_canonical_uni((p * q).exact_div(q), pr)
        if want_r:
            with pytest.raises(ValueError):
                p.exact_div(q)

    @settings(max_examples=300)
    @given(a=unis())
    def test_monic_and_leading_coefficient(self, a):
        p, ref = a
        if not ref:
            with pytest.raises(ValueError):
                p.monic()
            return
        assert p.lc == ref[-1]
        assert_canonical_uni(p.monic(), tuple(x / ref[-1] for x in ref))
        assert [p[k] for k in range(-1, len(ref) + 1)] == [F(0), *ref, F(0)]

    def test_negative_leading_coefficient_and_shared_factors(self):
        p = UniPoly((F(4, 9), F(-2, 3), F(-8, 3)))
        assert (p.num, p.den) == ((4, -6, -24), 9)
        m = p.monic()
        assert (m.num, m.den) == ((-2, 3, 12), 12) and m.lc == 1
        # (2/3)(1 + t) * (3/2) reduces to 1 + t over the denominator 1
        half = UniPoly((F(2, 3), F(2, 3))) * F(3, 2)
        assert (half.num, half.den) == ((1, 1), 1)
        assert (UniPoly((F(1, 6), F(1, 6))) * 0).den == 1

    def test_strings_and_text(self):
        p = UniPoly(("1/2", 0, "-3"))
        assert p.to_strs() == ["1/2", "0", "-3"] and p == UniPoly(["1/2", "0", "-3"])
        assert str(p) == "-3*t^2 + 1/2"
        assert str(UniPoly()) == "0"

    def test_a_bare_string_is_not_a_coefficient_list(self):
        # "123" would otherwise be read digit by digit, as 1 + 2t + 3t^2
        with pytest.raises(TypeError, match="string"):
            UniPoly("123")
        with pytest.raises(TypeError, match="string"):
            HomPoly2(2, "123")
        assert UniPoly(["123"]) == UniPoly((123,))


# -- HomPoly2 -----------------------------------------------------------------------


class TestHomPoly2AgainstReference:
    @settings(max_examples=300)
    @given(a=homs())
    def test_construction_and_chart(self, a):
        h, ref = a
        assert_canonical_hom(h, len(ref) - 1, ref)
        assert h.is_zero == (not any(ref))
        assert_canonical_uni(h.dehom(), trim(ref))
        if not h.is_zero:
            assert h.s_valuation == len(ref) - len(trim(ref))

    @settings(max_examples=300)
    @given(a=homs(), b=homs())
    def test_ring_operations(self, a, b):
        (f, fr), (g, gr) = a, b
        prod = f * g
        assert_canonical_hom(prod, f.degree + g.degree, ref_mul(fr, gr))
        assert_canonical_hom(-f, f.degree, [-c for c in fr])
        if f.degree == g.degree:
            assert_canonical_hom(f + g, f.degree, ref_add(fr, gr))
            assert_canonical_hom(f - g, f.degree, ref_add(fr, gr, -1))
        else:
            with pytest.raises(ValueError):
                f + g
            with pytest.raises(ValueError):
                f - g

    @settings(max_examples=300)
    @given(a=homs(), c=rats, s=points, t=points)
    def test_scalars_partials_and_values(self, a, c, s, t):
        f, ref = a
        e = f.degree
        assert_canonical_hom(f * c, e, [c * x for x in ref])
        assert_canonical_hom(c * f, e, [c * x for x in ref])
        if e == 0:
            assert_canonical_hom(f.partial_s(), 0, [F(0)])
            assert_canonical_hom(f.partial_t(), 0, [F(0)])
        else:
            assert_canonical_hom(f.partial_s(), e - 1, [(e - k) * ref[k] for k in range(e)])
            assert_canonical_hom(f.partial_t(), e - 1, [k * ref[k] for k in range(1, e + 1)])
        value = f.evaluate(s, t)
        assert type(value) is F
        assert value == sum(x * s ** (e - k) * t**k for k, x in enumerate(ref))

    def test_formal_degree_is_kept(self):
        h = HomPoly2(3, (F(1, 2), F(3, 4)))
        assert (h.num, h.den) == ((2, 3, 0, 0), 4) and h.s_valuation == 2
        zero = HomPoly2(2, (F(0, 5),))
        assert (zero.num, zero.den) == ((0, 0, 0), 1) and zero.is_zero
        with pytest.raises(ValueError):
            HomPoly2(1, (1, 2, 3))
        with pytest.raises(ValueError):
            HomPoly2(-1)
