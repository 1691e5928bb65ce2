"""Randomized law-checking for the exact polynomial layer.

The seeded bulk suites in ``bulk_properties`` carry the case volume; the
hypothesis suites below add shrinking counterexample search on the same laws.
"""

from __future__ import annotations

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bulk_properties
from edcurve import exactnum
from edcurve.exactnum import (
    _PRIMES,
    HomPoly2,
    UniPoly,
    distinct_root_count,
    hom_resultant,
    hom_resultant_is_nonzero,
    poly_from_roots,
    poly_gcd,
    rat_from_str,
    rat_to_str,
    refine_root,
    resultant,
    squarefree_part,
    sturm_isolate,
)


class TestBulkSuites:
    """Each seeded suite passes and reports its executed-case count."""

    COUNTS = None

    @classmethod
    def _counts(cls):
        if cls.COUNTS is None:
            cls.COUNTS = bulk_properties.run_all()
        return cls.COUNTS

    @pytest.mark.parametrize("suite", [
        "gcd_laws",
        "resultant_multiplicativity",
        "resultant_gcd_random",
        "resultant_gcd_exhaustive",
        "distinct_count_square_law",
        "squarefree_laws",
        "discriminant_laws",
        "sturm_grid_scan",
        "hom_consistency",
    ])
    def test_suite_runs(self, suite):
        assert self._counts()[suite] > 0

    def test_total_volume(self):
        assert sum(self._counts().values()) >= 10_000


# -- hypothesis strategies ----------------------------------------------------

small_int = st.integers(min_value=-9, max_value=9)


@st.composite
def polys(draw, max_deg=5, min_deg=0):
    deg = draw(st.integers(min_value=min_deg, max_value=max_deg))
    coeffs = [F(draw(small_int)) for _ in range(deg)]
    lead = draw(st.integers(min_value=1, max_value=9)) * draw(st.sampled_from((1, -1)))
    return UniPoly(tuple(coeffs + [F(lead)]))


class TestHypothesisLaws:
    @given(p=polys(), q=polys())
    def test_gcd_symmetric(self, p, q):
        assert poly_gcd(p, q) == poly_gcd(q, p)

    @given(p=polys())
    def test_squarefree_idempotent(self, p):
        sf = squarefree_part(p)
        assert squarefree_part(sf) == sf

    @given(p=polys(min_deg=1), q=polys(min_deg=1))
    def test_resultant_swap_sign(self, p, q):
        sign = (-1) ** (p.degree * q.degree)
        assert resultant(p, q) == sign * resultant(q, p)

    @given(p=polys(min_deg=1), c=st.integers(min_value=-6, max_value=6))
    def test_resultant_against_linear_is_evaluation(self, p, c):
        lin = UniPoly((F(-c), F(1)))  # t - c
        assert resultant(lin, p) == p.evaluate(F(c))

    @given(roots=st.lists(st.integers(min_value=-8, max_value=8),
                          min_size=1, max_size=5, unique=True))
    def test_distinct_count_matches_planted_roots(self, roots):
        p = poly_from_roots([F(r) for r in roots])
        assert distinct_root_count(p) == len(roots)

    @settings(deadline=None)
    @given(roots=st.lists(st.integers(min_value=-8, max_value=8),
                          min_size=1, max_size=4, unique=True),
           shrinks=st.integers(min_value=1, max_value=6))
    def test_refinement_never_loses_the_root(self, roots, shrinks):
        p = poly_from_roots([F(r) for r in roots])
        for iv, root in zip(sturm_isolate(p), sorted(roots)):
            target = iv.width
            for _ in range(shrinks):
                target /= 2
                iv = refine_root(p, iv, target)
                assert iv.width <= target
                assert iv.lo <= root <= iv.hi

    @given(num=st.integers(min_value=-10**6, max_value=10**6),
           den=st.integers(min_value=1, max_value=10**6))
    def test_rational_string_round_trip(self, num, den):
        x = F(num, den)
        assert rat_from_str(rat_to_str(x)) == x


# -- packed products against a schoolbook reference -----------------------------

def schoolbook(a, b):
    """Reference product: the double loop over every coefficient pair."""
    if not a or not b:
        return []
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# zeros, small values and ~300-bit numerators, over denominators 1..8
rats = st.builds(
    F,
    st.one_of(st.just(0), small_int, st.integers(min_value=-2**300, max_value=2**300)),
    st.integers(min_value=1, max_value=8),
)
coeff_lists = st.lists(rats, min_size=0, max_size=12)


@st.composite
def forms(draw, max_deg=10):
    deg = draw(st.integers(min_value=0, max_value=max_deg))
    cs = draw(st.lists(rats, min_size=deg + 1, max_size=deg + 1))
    if draw(st.booleans()):
        cs[-1] = F(0)  # leading zero: a root at [0:1]
    if draw(st.integers(min_value=0, max_value=7)) == 0:
        cs = [F(0)] * (deg + 1)  # the zero form of formal degree deg
    return HomPoly2(deg, tuple(cs))


class TestPackedProduct:
    @settings(max_examples=300, deadline=None)
    @given(a=coeff_lists, b=coeff_lists)
    def test_unipoly_matches_schoolbook(self, a, b):
        prod = UniPoly(tuple(a)) * UniPoly(tuple(b))
        want = UniPoly(tuple(schoolbook(UniPoly(tuple(a)).coeffs,
                                        UniPoly(tuple(b)).coeffs)))
        assert prod.coeffs == want.coeffs

    @settings(max_examples=300, deadline=None)
    @given(f=forms(), g=forms())
    def test_hompoly_matches_schoolbook(self, f, g):
        prod = f * g
        assert prod.degree == f.degree + g.degree
        assert list(prod.coeffs) == schoolbook(f.coeffs, g.coeffs)

    def test_degree_zero_and_zero_operands(self):
        big = F(3**190, 7)
        p = UniPoly((F(-1, 8), big, F(0), F(5)))
        assert (UniPoly((F(-2),)) * p).coeffs == tuple(-2 * c for c in p.coeffs)
        assert (p * UniPoly()).is_zero and (UniPoly() * p).is_zero
        zero = HomPoly2(3)
        prod = zero * HomPoly2(2, (F(1), F(2), F(0)))
        assert prod.degree == 5 and prod.is_zero


# -- modular resultant shortcut against the exact resultant ----------------------

small_forms = st.builds(
    lambda deg, cs: HomPoly2(deg, tuple(F(c) for c in cs[:deg + 1])),
    st.integers(min_value=1, max_value=5),
    st.lists(st.integers(min_value=-3, max_value=3), min_size=6, max_size=6),
)


def _hom(*cs):
    return HomPoly2(len(cs) - 1, tuple(F(c) for c in cs))


class TestResultantShortcut:
    @settings(max_examples=300, deadline=None)
    @given(f=small_forms, g=small_forms)
    def test_matches_exact_resultant(self, f, g):
        if f.is_zero or g.is_zero:
            return
        assert hom_resultant_is_nonzero(f, g) == (hom_resultant(f, g) != 0)

    @pytest.mark.parametrize("f,g,nonzero", [
        # shared zero at [0:1]: both top coefficients vanish
        (_hom(1, 2, 0), _hom(3, -1, 5, 0), False),
        # top coefficient divisible by the shortcut's prime
        (_hom(1, 0, _PRIMES[0]), _hom(2, 1), True),
        (_hom(-1, 0, 3 * _PRIMES[0]), _hom(1, 1, 1), True),
        # common factor (s - t): a positive-degree gcd mod p
        (_hom(1, -1) * _hom(2, 0, 1), _hom(1, -1) * _hom(1, 3), False),
        (_hom(1, -1) * _hom(1, -1), _hom(1, -1) * _hom(5, 7, 1), False),
    ])
    def test_forced_fallbacks_reach_exact_resultant(self, monkeypatch, f, g, nonzero):
        calls = []
        exact = exactnum.hom_resultant

        def spy(a, b):
            calls.append((a, b))
            return exact(a, b)

        monkeypatch.setattr(exactnum, "hom_resultant", spy)
        assert hom_resultant_is_nonzero(f, g) is nonzero
        assert calls, "the shortcut must fall through to the exact resultant"
        assert nonzero == (exact(f, g) != 0)

    @pytest.mark.parametrize("f,g", [
        (_hom(1, 2, 0), _hom(3, -1, 5)),
        (_hom(4, 0, 0, 0), _hom(1, 1, 2)),  # 4 s^3: only the zero [0:1]
        (_hom(3, -1, 5), _hom(0, 1, 0)),
    ])
    def test_zero_at_infinity_in_one_form_takes_the_shortcut(self, monkeypatch, f, g):
        # a top coefficient that is 0 over Q is no reason to fall through:
        # only a zero shared at [0:1] needs both to vanish
        assert hom_resultant(f, g) != 0
        monkeypatch.setattr(exactnum, "hom_resultant", None)
        assert hom_resultant_is_nonzero(f, g) is True
