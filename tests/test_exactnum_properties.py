"""Randomized law-checking for the exact polynomial layer.

The seeded bulk suites in ``bulk_properties`` carry the case volume; the
hypothesis suites below add shrinking counterexample search on the same laws.
"""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import bulk_properties
from bulk_properties import (
    assert_same_roots,
    poly_from_roots,
    ref_abs_upper,
    ref_bounded_gcd,
    ref_descartes_roots,
    ref_refine as _ref_refine,
    ref_resultant,
    ref_sturm_isolate as _int_sturm_isolate,
)
from edcurve import exactnum
from edcurve.eddeg import (
    _abs_upper_parts,
    random_data_point,
    reduce_critical_polynomial,
)
from edcurve.exactnum import (
    _PRIMES,
    HomPoly2,
    IsolatingInterval,
    UniPoly,
    distinct_root_count,
    hom_resultant,
    hom_resultant_is_nonzero,
    poly_gcd,
    rat_from_str,
    rat_to_str,
    refine_root,
    squarefree_part,
    sturm_isolate,
)
from edcurve.scene import Arrangement, Scene, random_camera, random_curve


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
        "resultant_oracle",
        "distinct_count_square_law",
        "squarefree_laws",
        "discriminant_laws",
        "sturm_grid_scan",
        "hom_consistency",
        "refine_agreement",
        "descartes_oracle",
        "assembly_oracle",
        "modular_count",
        "l1_bound",
        "certificate_laws",
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
        f, g = HomPoly2(p.degree, p.coeffs), HomPoly2(q.degree, q.coeffs)
        assert hom_resultant(f, g) == sign * hom_resultant(g, f)

    @given(p=polys(min_deg=1), c=st.integers(min_value=-6, max_value=6))
    def test_resultant_against_linear_is_evaluation(self, p, c):
        lin = HomPoly2(1, (F(-c), F(1)))  # t - c s
        assert hom_resultant(lin, HomPoly2(p.degree, p.coeffs)) == p.evaluate(F(c))

    @given(roots=st.lists(st.integers(min_value=-8, max_value=8),
                          min_size=1, max_size=5, unique=True))
    def test_distinct_count_matches_planted_roots(self, roots):
        p = poly_from_roots([F(r) for r in roots])
        assert distinct_root_count(p) == len(roots)

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
    @settings(max_examples=300)
    @given(a=coeff_lists, b=coeff_lists)
    def test_unipoly_matches_schoolbook(self, a, b):
        prod = UniPoly(tuple(a)) * UniPoly(tuple(b))
        want = UniPoly(tuple(schoolbook(UniPoly(tuple(a)).coeffs,
                                        UniPoly(tuple(b)).coeffs)))
        assert prod.coeffs == want.coeffs

    @settings(max_examples=300)
    @given(f=forms(), g=forms())
    def test_hompoly_matches_schoolbook(self, f, g):
        prod = f * g
        assert prod.degree == f.degree + g.degree
        assert list(prod.coeffs) == schoolbook(f.coeffs, g.coeffs)

    @pytest.mark.parametrize("nb", [1, 2, 3, 8, 17])
    def test_slot_boundary_coefficients(self, nb):
        # m = 2**(8 nb - 1) - 1 is the largest |coefficient| an nb-byte slot
        # holds; against [1] or [-1] the product bound is m, so _kron_mul
        # packs both operands and the product into nb-byte slots
        m = (1 << (8 * nb - 1)) - 1
        a = [m, -m, 0, -m, m, 1, -1]
        assert exactnum._kron_unpack(exactnum._kron_pack(a, nb), nb, len(a)) == a
        assert exactnum._kron_pack(a, nb) == sum(x << (8 * nb * k) for k, x in enumerate(a))
        for b in ([1], [-1]):
            assert exactnum._kron_mul(a, b) == schoolbook(a, b)
        prod = UniPoly(tuple(F(x) for x in a)) * UniPoly((F(-1),))
        assert prod.coeffs == tuple(F(-x) for x in a)

    def test_degree_zero_and_zero_operands(self):
        big = F(3**190, 7)
        p = UniPoly((F(-1, 8), big, F(0), F(5)))
        assert (UniPoly((F(-2),)) * p).coeffs == tuple(-2 * c for c in p.coeffs)
        assert (p * UniPoly()).is_zero and (UniPoly() * p).is_zero
        zero = HomPoly2(3)
        prod = zero * HomPoly2(2, (F(1), F(2), F(0)))
        assert prod.degree == 5 and prod.is_zero


# -- the shared-zero test (hom_gcd) against the exact resultant -----------------

small_forms = st.builds(
    lambda deg, cs: HomPoly2(deg, tuple(F(c) for c in cs[:deg + 1])),
    st.integers(min_value=1, max_value=5),
    st.lists(st.integers(min_value=-3, max_value=3), min_size=6, max_size=6),
)


def _hom(*cs):
    return HomPoly2(len(cs) - 1, tuple(F(c) for c in cs))


class TestResultantShortcut:
    @settings(max_examples=300)
    @given(f=small_forms, g=small_forms)
    def test_matches_exact_resultant(self, f, g):
        if f.is_zero or g.is_zero:
            return
        assert hom_resultant_is_nonzero(f, g) == (hom_resultant(f, g) != 0)

    @pytest.mark.parametrize("f,g,nonzero", [
        # shared zero at [0:1]: both top coefficients vanish
        (_hom(1, 2, 0), _hom(3, -1, 5, 0), False),
        # top coefficient divisible by the first gcd prime
        (_hom(1, 0, _PRIMES[0]), _hom(2, 1), True),
        (_hom(-1, 0, 3 * _PRIMES[0]), _hom(1, 1, 1), True),
        # common factor (s - t): a positive-degree gcd mod p
        (_hom(1, -1) * _hom(2, 0, 1), _hom(1, -1) * _hom(1, 3), False),
        (_hom(1, -1) * _hom(1, -1), _hom(1, -1) * _hom(5, 7, 1), False),
    ])
    def test_hard_cases_match_exact_resultant(self, f, g, nonzero):
        assert hom_resultant_is_nonzero(f, g) is nonzero
        assert nonzero == (hom_resultant(f, g) != 0)

    @pytest.mark.parametrize("f,g", [
        (_hom(1, 2, 0), _hom(3, -1, 5)),
        (_hom(4, 0, 0, 0), _hom(1, 1, 2)),  # 4 s^3: only the zero [0:1]
        (_hom(3, -1, 5), _hom(0, 1, 0)),
    ])
    def test_zero_at_infinity_in_one_form_takes_the_shortcut(self, monkeypatch, f, g):
        # a top coefficient that is 0 over Q is no shared zero and needs no
        # resultant: only a zero shared at [0:1] needs both to vanish
        assert hom_resultant(f, g) != 0
        monkeypatch.setattr(exactnum, "hom_resultant", None)
        assert hom_resultant_is_nonzero(f, g) is True


@st.composite
def formal_forms(draw, max_deg=7):
    """Nonzero binary forms of formal degree 0..max_deg: planted zero
    coefficients (at the top too, a chart-degree drop) and denominators."""
    e = draw(st.integers(min_value=0, max_value=max_deg))
    nums = draw(st.lists(st.sampled_from((0, 0, 1, -1, 2, -3, 5, -9)),
                         min_size=e + 1, max_size=e + 1))
    dens = draw(st.lists(st.sampled_from((1, 1, 2, 3, 7)), min_size=e + 1, max_size=e + 1))
    assume(any(nums))
    return HomPoly2(e, [F(a, d) for a, d in zip(nums, dens)])


def _sympy_resultant(f, g):
    """Res_{m,n}(f, g) in sympy alone.  s -> s + c t has determinant 1, so it
    keeps the resultant of binary forms, and for c with f(c, 1) g(c, 1) != 0
    both charts f(1 + c t, t), g(1 + c t, t) keep their formal degrees, which
    is the resultant sympy computes.  sympy's ``resultant`` agrees with the
    Sylvester determinant only with the operand of larger degree first, so a
    smaller f goes second and takes the swap's sign (-1)^(m n)."""
    sp = pytest.importorskip("sympy")
    t = sp.symbols("t")
    c = next(c for c in range(f.degree + g.degree + 1)
             if f.evaluate(c, 1) and g.evaluate(c, 1))

    def chart(h):
        return sp.expand(sum(a * (1 + c * t) ** (h.degree - k) * t ** k
                             for k, a in enumerate(h.coeffs)))

    if f.degree < g.degree:
        return (-1) ** (f.degree * g.degree) * F(str(sp.resultant(chart(g), chart(f), t)))
    return F(str(sp.resultant(chart(f), chart(g), t)))


class TestResultantOracle:
    """hom_resultant (subresultant chain) against the Sylvester determinant
    and against sympy."""

    @settings(max_examples=300)
    @given(f=formal_forms(), g=formal_forms(), both_at_infinity=st.booleans())
    @example(f=_hom(3), g=_hom(0, 2, 5), both_at_infinity=False)       # degree 0
    @example(f=_hom(3), g=_hom(-2), both_at_infinity=False)            # both degree 0
    @example(f=_hom(1, 2, 0, 0), g=_hom(3, -1, 5), both_at_infinity=False)  # f drops 2
    @example(f=_hom(3, -1, 5), g=_hom(1, 2, 0), both_at_infinity=False)     # g drops 1
    @example(f=_hom(1, 2, 0), g=_hom(4, 0, 0, 0), both_at_infinity=False)  # common [0:1]
    def test_matches_sylvester_and_sympy(self, f, g, both_at_infinity):
        if both_at_infinity and f.degree and g.degree:
            f2, g2 = HomPoly2(f.degree, f.coeffs[:-1]), HomPoly2(g.degree, g.coeffs[:-1])
            assume(not (f2.is_zero or g2.is_zero))
            f, g = f2, g2
        res = hom_resultant(f, g)
        assert res == ref_resultant(f, g)
        assert res == _sympy_resultant(f, g)
        assert hom_resultant_is_nonzero(f, g) == (res != 0)
        if both_at_infinity and f.degree and g.degree:
            assert res == 0


# -- integer sign evaluation against the Fraction reference ---------------------
#
# sturm_isolate and refine_root take every sign with integer arithmetic
# (exactnum._eval_int on cleared coefficients).  The references below are the
# same algorithms with every sign taken by Fraction evaluation, and a classical
# Sturm chain over Q: each integer chain member is a positive multiple of the
# matching member here, so the two must return identical intervals.  The
# refinement reference is plain bisection (``bulk_properties.ref_refine``),
# which refine_root's grid-snapped jumps must reproduce.

def _sgn(x):
    return (x > 0) - (x < 0)


def _ref_chain(p):
    chain = [p]
    if not p.derivative().is_zero:
        chain.append(p.derivative())
    while len(chain) >= 2:
        _, r = divmod(chain[-2], chain[-1])
        if r.is_zero:
            break
        chain.append(-r)
        if r.degree == 0:
            break
    return chain


def _ref_variations(chain, x):
    if x == "+inf":
        signs = [_sgn(c.lc) for c in chain]
    elif x == "-inf":
        signs = [_sgn(c.lc) * (-1) ** c.degree for c in chain]
    else:
        signs = [_sgn(c.evaluate(x)) for c in chain]
    signs = [s for s in signs if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _ref_isolate(p):
    if p.degree == 0:
        return []
    chain = _ref_chain(p)
    if _ref_variations(chain, "-inf") == _ref_variations(chain, "+inf"):
        return []
    b = F(int(1 + max(abs(c / p.lc) for c in p.coeffs)) + 1)
    out = []
    stack = [(-b, _ref_variations(chain, -b), b, _ref_variations(chain, b))]
    while stack:
        a, va, c, vc = stack.pop()
        if va - vc == 0:
            continue
        if va - vc == 1:
            out.append(IsolatingInterval(a, c))
            continue
        m = (a + c) / 2
        if p.evaluate(m) == 0:
            delta = (c - a) / 4
            while (p.evaluate(m - delta) == 0 or p.evaluate(m + delta) == 0
                   or _ref_variations(chain, m - delta)
                   - _ref_variations(chain, m + delta) != 1):
                delta /= 2
            out.append(IsolatingInterval(m - delta, m + delta))
            stack.append((a, va, m - delta, _ref_variations(chain, m - delta)))
            stack.append((m + delta, _ref_variations(chain, m + delta), c, vc))
        else:
            vm = _ref_variations(chain, m)
            stack.append((a, va, m, vm))
            stack.append((m, vm, c, vc))
    out.sort(key=lambda iv: iv.lo)
    return out


def _proved(p, lo, hi, refinements=0):
    """(lo, hi) with the proof sturm_isolate attaches that it holds exactly one
    root of p, or None when the reference Sturm chain counts another number."""
    chain = _ref_chain(p)
    if (p.evaluate(lo) == 0 or p.evaluate(hi) == 0
            or _ref_variations(chain, lo) - _ref_variations(chain, hi) != 1):
        return None
    return exactnum._isolating(lo, hi, refinements, p.num)


# roots a bisection from an integer Cauchy box lands on exactly
DYADIC_ROOTS = tuple(F(n, 4) for n in (0, 1, -1, 2, -2, 3, -3, 4, -4, 6))
small_rat = st.builds(F, st.integers(min_value=-9, max_value=9),
                      st.integers(min_value=1, max_value=8))


@st.composite
def planted_squarefree(draw):
    """A squarefree polynomial with non-integral coefficients (denominators up
    to 8) and up to five planted dyadic roots."""
    roots = draw(st.lists(st.sampled_from(DYADIC_ROOTS), max_size=5, unique=True))
    cofactor = draw(st.lists(small_rat, min_size=1, max_size=5))
    lead = draw(st.sampled_from((1, -1))) * draw(st.integers(min_value=1, max_value=8))
    p = poly_from_roots(roots) * UniPoly(tuple(cofactor) + (F(lead, 3),))
    scale = draw(st.sampled_from((1, -1))) * F(draw(st.integers(min_value=1, max_value=9)),
                                                draw(st.integers(min_value=1, max_value=8)))
    return squarefree_part(p).scale(scale)


@st.composite
def proved_intervals(draw):
    """(p, lo, hi) for a planted_squarefree p and an interval around one of
    its roots with mostly non-dyadic ends: a sturm_isolate interval of p,
    narrowed on each side of the 1/16 of it that bisection leaves around the
    root by a drawn fraction in [0, 1) with denominator 7 or 9."""
    p = draw(planted_squarefree())
    ivs = sturm_isolate(p)
    assume(ivs)
    iv = draw(st.sampled_from(ivs))
    inner = _ref_refine(p, iv, iv.width / 16)
    t = st.builds(F, st.integers(0, 6), st.sampled_from((7, 9)))
    return (p, iv.lo + draw(t) * (inner.lo - iv.lo), inner.hi + draw(t) * (iv.hi - inner.hi))


# three planted roots on the first bisection points of the box [-3, 3]
FENCED = poly_from_roots([F(0), F(3, 2), F(-3, 4)]) * UniPoly((F(1, 3), F(0), F(5, 7)))


class TestIntegerSignsAgainstFractionReference:
    def test_eval_int_is_the_cleared_value(self):
        c = [7, -3, 0, 5, -11]
        for x in (F(0), F(3), F(-5, 8), F(7, 1024), F(2, 3), F(-9, 10), F(1, 7**9)):
            value = sum(F(ck) * x**k for k, ck in enumerate(c))
            assert exactnum._eval_int(c, x) == value * x.denominator ** (len(c) - 1)

    @given(p=planted_squarefree())
    @example(p=FENCED)
    # two roots 10^-9 apart, each refined in an interval that ends near the other
    @example(p=poly_from_roots([F(1, 3), F(1, 3) + F(1, 10**9), F(-5, 2)]))
    def test_isolation_and_refinement_match(self, p):
        ivs = sturm_isolate(p)
        assert ivs == _ref_isolate(p)
        for iv in ivs:
            for w in (iv.width / 2, F(1, 3), F(1, 2**20), F(1, 10**9), F(1, 2**200),
                      F(1, 10**60)):
                assert refine_root(p, iv, w) == _ref_refine(p, iv, w)

    @given(p=planted_squarefree(),
           ends=st.lists(st.one_of(small_rat, st.sampled_from(DYADIC_ROOTS)),
                         min_size=2, max_size=2, unique=True),
           w=st.sampled_from((F(1, 2), F(1, 3), F(1, 64), F(1, 10**6))))
    # the first midpoint 0 is a root and the window's right end 1/4 is one too
    @example(p=poly_from_roots([F(0), F(1, 4), F(-3, 8)]), ends=[F(-1, 2), F(1, 2)],
             w=F(1, 2))
    def test_refinement_of_any_interval_matches(self, p, ends, w):
        iv = IsolatingInterval(min(ends), max(ends), 3)
        try:
            expected = _ref_refine(p, iv, w)
        except ValueError:
            with pytest.raises(ValueError):
                refine_root(p, iv, w)
            return
        assert refine_root(p, iv, w) == expected

    def test_planted_roots_reach_both_exact_root_branches(self):
        # the first midpoint 0 is a root: sturm_isolate fences it off with a
        # window centred on it, and refining that window lands on the root
        ivs = sturm_isolate(FENCED)
        assert ivs == _ref_isolate(FENCED)
        fenced = [iv for iv in ivs if iv.midpoint == 0]
        assert len(fenced) == 1 and fenced[0].refinements == 0
        refined = refine_root(FENCED, fenced[0], F(1, 100))
        assert refined == _ref_refine(FENCED, fenced[0], F(1, 100))
        assert refined.midpoint == 0 and refined.refinements == 1

    @given(case=proved_intervals(),
           w=st.sampled_from((F(1, 2**200), F(1, 10**60), F(1, 3), F(1, 64), F(100))))
    # the root 3/64 is a grid point of depth 6 on (0, 1), deeper than the first jump
    @example(case=(poly_from_roots([F(3, 64), F(7, 2)]), F(0), F(1)), w=F(1, 2**200))
    # non-dyadic ends, with the root inside a cell and on a grid point of depth 4
    @example(case=(poly_from_roots([F(1, 2), F(-1), F(2)]), F(1, 3), F(5, 7)),
             w=F(1, 10**60))
    @example(case=(poly_from_roots([F(19, 42), F(-1)]), F(1, 3), F(5, 7)), w=F(1, 2**200))
    # a bound at least the width: no step at all
    @example(case=(poly_from_roots([F(1, 2), F(-1), F(2)]), F(1, 3), F(5, 7)), w=F(100))
    def test_refinement_of_a_proved_interval_matches(self, case, w):
        p, lo, hi = case
        iv = _proved(p, lo, hi, 3)
        assert iv is not None
        refined = refine_root(p, iv, w)
        assert refined == _ref_refine(p, iv, w)
        assert refined._isolates == p.num

    @staticmethod
    def _grid_values(monkeypatch):
        """Every value the grid evaluator returns from now on, in order."""
        values = []
        real = exactnum._eval_grid

        def spy(c, n, j):
            values.append(real(c, n, j))
            return values[-1]

        monkeypatch.setattr(exactnum, "_eval_grid", spy)
        return values

    def test_jumps_replace_most_bisection_steps(self, monkeypatch):
        p = UniPoly((F(-2), F(0), F(1)))
        w = F(1, 2**200)
        iv, expected = _proved(p, F(1), F(2)), _ref_refine(p, IsolatingInterval(1, 2), w)
        values = self._grid_values(monkeypatch)
        refined = refine_root(p, iv, w)
        assert len(values) <= 40
        assert refined == expected and refined.refinements == 200
        # without the proof the same interval is bisected: two ends, 200 midpoints
        values.clear()
        assert refine_root(p, IsolatingInterval(1, 2), w) == expected
        assert len(values) == 202

    def test_a_jump_end_on_the_root_is_rejected(self, monkeypatch):
        # on (0, 1) the secant's cells (0, 1/4) and (1/8, 1/4) both end at the
        # root 1/4; bisection meets it as its second midpoint
        p = poly_from_roots([F(1, 4), F(-5)])
        w = F(1, 1000)
        iv, expected = _proved(p, F(0), F(1)), _ref_refine(p, IsolatingInterval(0, 1), w)
        values = self._grid_values(monkeypatch)
        refined = refine_root(p, iv, w)
        # the bisection step and _bisect evaluate the root once each; the other
        # two zeros are the ends of the rejected jumps
        assert values.count(0) == 4
        assert refined == expected
        assert refined.refinements == 2 and refined.midpoint == F(1, 4)

    @given(p=polys(max_deg=8), ends=st.lists(small_rat, min_size=2, max_size=2))
    @example(p=UniPoly(), ends=[F(-1, 3), F(5, 7)])
    def test_abs_upper_is_the_same_rational(self, p, ends):
        p = p.scale(F(5, 8))
        c, d = p.int_coeffs()
        num, den = _abs_upper_parts([abs(x) for x in c], d, *ends)
        assert den > 0
        assert F(num, den) == ref_abs_upper(p, *ends)


# -- Descartes isolation against the Sturm-chain isolator ------------------------
#
# sturm_isolate replays the bisection tree of the Sturm-chain isolator it
# replaced, with every root count taken from one Descartes isolation.  The
# reference (``bulk_properties.ref_sturm_isolate``) is that isolator as it
# was: a Sturm chain of primitive integer polynomials, and the same stack,
# midpoint fence and stopping rules.  Both must return identical intervals.
# Unlike the Fraction reference above, it is fast enough for the degree-46
# polynomials of a four-view quartic scene.  The Descartes loop itself is
# checked against ``bulk_properties.ref_descartes_roots``, the loop without
# the packed sign read and the skip rules.

# dyadic roots on the subdivision points of every Descartes box (-2^e, 2^e),
# e >= 1, each optionally paired with a neighbour 2^-k away: the bisection
# must then split at the dyadic root itself, which becomes an exact point
# and an endpoint of the next root's interval
DESCARTES_POINTS = tuple(F(n, 8) for n in range(-12, 13))


@st.composite
def planted_on_subdivision_points(draw):
    roots = set()
    for x in draw(st.lists(st.sampled_from(DESCARTES_POINTS), min_size=1, max_size=4,
                           unique=True)):
        roots.add(x)
        k = draw(st.one_of(st.none(), st.integers(min_value=4, max_value=40)))
        if k is not None:
            roots.add(x + draw(st.sampled_from((1, -1))) * F(1, 2**k))
    cofactor = draw(st.lists(small_int.map(F), min_size=0, max_size=3))
    lead = draw(st.sampled_from((1, -1))) * draw(st.integers(min_value=1, max_value=5))
    return squarefree_part(poly_from_roots(sorted(roots)) * UniPoly(tuple(cofactor) + (F(lead),)))


def _quartic_scene_polynomials():
    f = random_curve(100, 4, 3)
    arr = Arrangement(tuple(random_camera(200 + i, 2, 3) for i in range(4)))
    u = random_data_point(300, 4, 2)
    scene = Scene(f, arr)
    qprod = UniPoly((F(1),))
    for q, *_ in scene.charts:
        qprod = qprod * q
    return reduce_critical_polynomial(f, arr, u).reduced, squarefree_part(qprod)


class TestDescartesAgainstSturmChain:
    def test_golden_quartic_scene(self):
        # the quartic-four-views scene of test_eddeg's golden triangulations:
        # its reduced critical polynomial and its squarefree pole product
        reduced, poles = _quartic_scene_polynomials()
        assert reduced.degree == 46 and poles.degree == 16
        for p in (reduced, poles):
            ivs = sturm_isolate(p)
            assert ivs and ivs == _int_sturm_isolate(p)

    @given(p=planted_on_subdivision_points())
    @example(p=FENCED)
    def test_planted_subdivision_roots_match(self, p):
        assert sturm_isolate(p) == _int_sturm_isolate(p)

    def test_a_root_interval_ends_at_an_exact_root(self):
        # 0 is the first midpoint of both bisections, and the root 2^-40
        # forces the Descartes bisection down to an interval (0, 2^-k)
        p = poly_from_roots([F(0), F(1, 2**40), F(-3, 4), F(3, 2)])
        roots = exactnum._descartes_roots(p.int_coeffs()[0])
        assert [r[:2] for r in roots if not r[4]] == [[0, 1]]
        assert any(r[4] and r[:2] == [0, 1] for r in roots)
        assert sturm_isolate(p) == _int_sturm_isolate(p)

    @pytest.mark.parametrize("p", [
        poly_from_roots([F(1, 3), F(1, 3) + F(1, 2**40)]),
        poly_from_roots([F(-5), F(0), F(1, 2**40), F(7, 2)]),
        UniPoly((F(-2), F(0), F(1))),                                  # t^2 - 2
        UniPoly((F(-2), F(0), F(1))) * UniPoly((F(-2) - F(1, 10**9), F(0), F(1))),
        UniPoly((F(1), F(0), F(1))),                                   # no real root
        UniPoly((F(1), F(0), F(1))) * UniPoly((F(4), F(0), F(1))),
        UniPoly((F(1, 3), F(-1))),                                     # degree 1
        UniPoly((F(5), F(3))),
        UniPoly((F(7),)),                                              # degree 0
        -poly_from_roots([F(1), F(-2), F(1, 2)]),                      # negative lead
        poly_from_roots([F(-3, 4), F(0), F(3, 2)]).scale(F(-5, 7)),
    ], ids=lambda p: str(p)[:40])
    def test_edge_cases_match(self, p):
        assert sturm_isolate(p) == _int_sturm_isolate(p)


class TestPackedDescartes:
    """``_descartes_roots`` reads each test from the packed Taylor shift and
    skips provably empty children; ``ref_descartes_roots`` tests every node
    and child on a plain coefficient list.  They must find the same roots."""

    @given(p=planted_on_subdivision_points() | polys(max_deg=8, min_deg=1))
    @example(p=FENCED)
    def test_same_roots_as_the_unpacked_loop(self, p):
        p = squarefree_part(p)
        assume(p.degree >= 1)
        assert_same_roots(exactnum._descartes_roots(p.num), ref_descartes_roots(p.num))
        assert sturm_isolate(p) == _int_sturm_isolate(p)

    def test_a_zero_shifted_coefficient_unpacks(self, monkeypatch):
        # (t - 1)(t + 2) on its box (-4, 4): the right half (0, 4), which
        # holds 1, has the test polynomial (x + 1)^2 q(1 / (x + 1)) = 9 - x^2,
        # whose middle coefficient is 0
        p = poly_from_roots([F(1), F(-2)])
        unpacked = []
        real = exactnum._sign_changes
        monkeypatch.setattr(exactnum, "_sign_changes",
                            lambda a: unpacked.append(list(a)) or real(a))
        got = exactnum._descartes_roots(p.num)
        assert [9, 0, -1] in unpacked
        assert_same_roots(got, ref_descartes_roots(p.num))
        assert sturm_isolate(p) == _int_sturm_isolate(p)

    def test_the_right_half_after_a_midpoint_root_is_skipped(self, monkeypatch):
        # t (t + 1): the box (-4, 4) splits at the root 0, and its left half
        # holds -1 with test 1, so 1 + [0 is a root] = 2 is the parent's test
        # and the right half is never shifted: the root node's shift by -1 is
        # the only unpacked Taylor shift
        p = poly_from_roots([F(0), F(-1)])
        shifts = []
        real = exactnum._taylor_shift
        monkeypatch.setattr(exactnum, "_taylor_shift",
                            lambda a, c: shifts.append(c) or real(a, c))
        got = exactnum._descartes_roots(p.num)
        assert shifts == [-1]
        assert sorted(got) == [[-4, 1, 0, 1, 1], [0, 1, 0, 1, 0]]
        assert_same_roots(got, ref_descartes_roots(p.num))
        assert sturm_isolate(p) == _int_sturm_isolate(p)

    def test_a_root_cluster_at_two_to_the_minus_forty(self):
        p = poly_from_roots([F(0), F(1, 2**40), F(-1, 2**40), F(3, 2**40), F(5, 2)])
        got = exactnum._descartes_roots(p.num)
        assert len(got) == 5
        assert_same_roots(got, ref_descartes_roots(p.num))
        assert sturm_isolate(p) == _int_sturm_isolate(p)

    @pytest.mark.parametrize("q", [[1, -2, -1], [3, 0, -1, 2], [-5, 7, 0, 0, 1],
                                   [1, 2, 3], [-1, 0, -4], [0, 0, 1, -1]])
    def test_shift_variations_count_the_shifted_signs(self, q):
        # against the signs of the unpacked shift, zeros skipped
        signs = [x > 0 for x in exactnum._taylor_shift(q[::-1], 1) if x]
        assert exactnum._shift_variations(q) == sum(s != t for s, t in zip(signs, signs[1:]))


# -- packed mod-p Euclid against the list loop -------------------------------------
#
# exactnum._mod_gcd runs Euclid on residues packed one per slot of a big int,
# with lazy Mersenne reduction.  The reference is the loop it replaced: one
# list entry per residue, every entry reduced at every step, and the divisor
# rescaled to monic before each quotient, so the last divisor is the monic gcd.

def _list_mod_gcd(a, b, p):
    if a[-1] % p == 0 or b[-1] % p == 0:
        return None
    fa = [x % p for x in a]
    fb = [x % p for x in b]
    while fb and any(fb):
        while fb and fb[-1] == 0:
            fb.pop()
        if not fb:
            break
        inv = pow(fb[-1], -1, p)
        fb = [x * inv % p for x in fb]
        da, db = len(fa) - 1, len(fb) - 1
        if da < db:
            fa, fb = fb, fa
            continue
        for i in range(da - db, -1, -1):
            coef = fa[db + i]
            if coef:
                fa[db + i] = 0
                for j in range(db):
                    fa[i + j] = (fa[i + j] - coef * fb[j]) % p
        while fa and fa[-1] == 0:
            fa.pop()
        fa, fb = fb, fa
    while fa and fa[-1] == 0:
        fa.pop()
    return fa or None


# integer products by the packed product kernel (tested above)
_int_mul = exactnum._kron_mul


# small, negative and ~300-bit coefficients
int_coeffs = st.one_of(small_int, st.integers(min_value=-2**300, max_value=2**300))


def _nonzero_lead(cs):
    return cs if cs[-1] else cs[:-1] + [1]


@st.composite
def mod_gcd_operands(draw, p):
    """(a, b) with any degrees, optionally sharing a factor over Z, a linear
    factor only mod p, or a leading coefficient divisible by p."""
    a = _nonzero_lead(draw(st.lists(int_coeffs, min_size=1, max_size=25)))
    b = _nonzero_lead(draw(st.lists(int_coeffs, min_size=1, max_size=25)))
    if draw(st.booleans()):
        common = _nonzero_lead(draw(st.lists(int_coeffs, min_size=2, max_size=6)))
        a, b = _int_mul(a, common), _int_mul(b, common)
    if draw(st.booleans()):
        r = draw(st.integers(min_value=0, max_value=p - 1))
        shift = draw(st.integers(min_value=-3, max_value=3)) * p
        a, b = _int_mul(a, [-r, 1]), _int_mul(b, [-r + shift, 1])
    if draw(st.integers(min_value=0, max_value=7)) == 0:
        victim = draw(st.sampled_from(("a", "b")))
        lead = p * draw(st.integers(min_value=-2**70, max_value=2**70).filter(bool))
        if victim == "a":
            a = a[:-1] + [lead]
        else:
            b = b[:-1] + [lead]
    return a, b


# the kernel against the list loop on the first prime of the table, 2**17 - 1,
# whose 40-bit slots fold every 32 rows, on 2**61 - 1 and 2**89 - 1, which
# fold every 32 rows too, on 2**107 - 1, which folds every 512, and on
# 2**521 - 1, whose slots span 131 bytes
ORACLE_EXPONENTS = (17, 61, 89, 107, 521)
ORACLE_PRIMES = tuple(2**k - 1 for k in ORACLE_EXPONENTS)


class TestPackedModGcd:
    def test_primes_are_the_mersenne_primes_the_kernel_reduces(self):
        # deg gcd mod p >= deg gcd over Q needs every modulus to be prime:
        # check the table against sympy's list of Mersenne exponents
        sympy = pytest.importorskip("sympy")
        exponents = [sympy.ntheory.mersenne_prime_exponent(i) for i in range(6, 32)]
        assert exponents[0] == 17 and exponents[-1] == 216091
        assert _PRIMES == tuple(2**k - 1 for k in exponents)
        for p in _PRIMES:
            nb, rows = exactnum._slot_layout(p)
            k = p.bit_length()
            assert 2 * k + 6 <= 8 * nb <= 2 * k + 13 and rows >= 32

    @pytest.mark.parametrize("p", ORACLE_PRIMES, ids=ORACLE_EXPONENTS)
    def test_fold_leaves_every_slot_below_twice_the_prime(self, p):
        # the bound the kernel's slot width rests on: from any slot below 2**w,
        # the lazy reduction leaves a slot below 2**(k+1) with the same residue
        nb, _ = exactnum._slot_layout(p)
        k, w = p.bit_length(), 8 * nb
        slots = [2**w - 1, 0, p, 2**(k + 1) - 1, 2**(w - 1), 2**(2 * k) - 1,
                 (2**w - 1) // p * p, random.Random(k).randrange(2**w)]
        low = int.from_bytes(p.to_bytes(nb, "little") * len(slots), "little")
        high = int.from_bytes((2**(w - k) - 1).to_bytes(nb, "little") * len(slots), "little")
        # slots up to 2**w - 1 exceed _kron_pack's signed range, so pack directly
        packed = sum(x << (w * j) for j, x in enumerate(slots))
        folded = exactnum._mersenne_fold(packed, k, low, high)
        out = [folded >> (w * j) & (2**w - 1) for j in range(len(slots))]
        assert folded < 2**(w * len(slots))
        assert all(y < 2**(k + 1) for y in out)
        assert [y % p for y in out] == [x % p for x in slots]

    @pytest.mark.parametrize("p", ORACLE_PRIMES, ids=ORACLE_EXPONENTS)
    @settings(max_examples=150)
    @given(data=st.data())
    def test_matches_the_list_loop(self, p, data):
        a, b = data.draw(mod_gcd_operands(p))
        assert exactnum._mod_gcd(a, b, p) == _list_mod_gcd(a, b, p)

    @pytest.mark.parametrize("p", ORACLE_PRIMES, ids=ORACLE_EXPONENTS)
    def test_edge_cases_match(self, p):
        g = [3, -1, 2]
        cases = [
            ([5, p], [1, 1]),                          # p divides lc(a)
            ([1, 1], [-2, 3 * p]),                     # p divides lc(b)
            ([7], [1, 2, 3]),                          # degree-0 operands
            ([1, 2, 3], [-4]),
            ([9], [2]),
            ([1, 2, 3], [4, 5, 6]),                    # equal degrees
            ([1, 2, 3], [2, 4, 6]),                    # equal up to a unit
            (_int_mul(g, [1, 1, 1]), _int_mul(g, [2, 1])),   # zero remainder late
            (_int_mul(g, [5, 0, 1]), g),               # zero first remainder
            ([p - 1] * 9, [p - 1] * 4),                # residues p - 1 everywhere
            ([-1] * 9, [1 - p] * 4),
            (_int_mul([-7, 1], [2, 1]), [-7 - 2 * p, 1]),   # common root mod p only
        ]
        for a, b in cases:
            assert exactnum._mod_gcd(a, b, p) == _list_mod_gcd(a, b, p), (a, b)
        assert exactnum._mod_gcd([5, p], [1, 1], p) is None
        assert exactnum._mod_gcd([7], [1, 2, 3], p) == [1]
        half = pow(2, -1, p)
        assert exactnum._mod_gcd(_int_mul(g, [5, 0, 1]), g, p) == [x * half % p for x in g]
        assert exactnum._mod_gcd(_int_mul([-7, 1], [2, 1]), [-7 - 2 * p, 1], p) == [p - 7, 1]

    @pytest.mark.parametrize("p", ORACLE_PRIMES, ids=ORACLE_EXPONENTS)
    def test_long_quotients_cross_lazy_reductions(self, p):
        # the shape of a critical polynomial against one chart, then a worst
        # case: every residue of b is p - 1 and every quotient coefficient 1,
        # so each row adds the largest multiple (p - 1) * b, and a slot is hit
        # by up to 4R rows before the quotient ends; only the lazy reduction
        # every R rows keeps it from overflowing into its neighbour
        rows = exactnum._slot_layout(p)[1]
        rng = random.Random(p)
        a = [rng.randint(-2**300, 2**300) for _ in range(142)] + [1]
        for b in ([3, 1, -4, 1, 5, -9, 2], [rng.randint(-2**300, 2**300) for _ in range(49)]):
            assert exactnum._mod_gcd(a, b, p) == _list_mod_gcd(a, b, p) == [1]
        db = s = 4 * rows
        quotient_times_b = [-min(i + 1, s + 1, db + 1, s + db + 1 - i)
                            for i in range(s + db + 1)]
        assert exactnum._mod_gcd(quotient_times_b, [-1] * (db + 1), p) == [1] * (db + 1)
        if rows <= 32:
            # a nonzero remainder, then Euclid on slots the first quotient left
            # just under the bound
            r = [rng.randint(-2**300, 2**300) for _ in range(db)]
            a = [x + y for x, y in zip(quotient_times_b, r + [0] * (s + 1))]
            b = [-1] * (db + 1)
            assert exactnum._mod_gcd(a, b, p) == _list_mod_gcd(a, b, p)


def _sympy_monic_gcd(p, q):
    sp = pytest.importorskip("sympy")
    t = sp.symbols("t")
    g = sp.gcd(sp.Poly(p.coeffs[::-1], t, domain="QQ"),
               sp.Poly(q.coeffs[::-1], t, domain="QQ")).monic()
    return UniPoly(tuple(F(str(c)) for c in reversed(g.all_coeffs())))


class TestPrimeFallbackOrder:
    """poly_gcd tries each prime in turn and skips one that divides a leading
    coefficient.  Once a common factor shows mod some prime, it lifts the gcd
    mod that prime and every later one, and keeps a lift only if it divides
    both operands exactly: a root shared mod one prime alone costs one more
    Euclid, at the next prime, whatever the size of the coefficients."""

    P0, P1 = _PRIMES[:2]

    @staticmethod
    def _spy(monkeypatch):
        tried, mod_gcd = [], exactnum._mod_gcd

        def spy(a, b, p):
            tried.append(p)
            return mod_gcd(a, b, p)

        monkeypatch.setattr(exactnum, "_mod_gcd", spy)
        return tried

    # (leading coefficient, primes tried, coprime): the common factor's
    # coefficients are small, so the first prime that sees it lifts it
    @pytest.mark.parametrize("lead,primes,coprime", [
        (P0, 2, True),
        (P0, 2, False),
        (P0 * P1, 3, True),
        (P0 * P1, 3, False),
    ])
    def test_primes_in_turn_then_the_exact_gcd(self, monkeypatch, lead, primes, coprime):
        tried = self._spy(monkeypatch)
        a = UniPoly((F(1), F(-3), F(lead)))          # lead * t^2 - 3t + 1
        b = UniPoly((F(5, 7), F(2), F(1)))
        if not coprime:
            common = UniPoly((F(-2, 3), F(1), F(1)))  # t^2 + t - 2/3
            a, b = a * common, b * common
        g = poly_gcd(a, b)
        assert g == _sympy_monic_gcd(a, b)
        assert g.degree == (0 if coprime else 2)
        assert tried == list(_PRIMES[:primes])

    # t - 5 divides a, and divides b only mod P0, so the lift t - 5 at P0
    # fails the division check and P1 proves coprimality, with the small
    # other root as with the large ones, -2**120 and -2**121.  With the
    # common factor planted as well, the degree 3 mod P0 is one too high,
    # and P1 lifts the common factor.  The pair t - 362 and t^2 + 27 (as
    # 362^2 + 27 = P0) shares the root 362 only mod P0 with small
    # coefficients of its own.
    PAIRS = {
        "small": (poly_from_roots([F(5), F(-2)]), poly_from_roots([F(5 + P0)])),
        "large": (poly_from_roots([F(5), F(-2**120)]),
                  poly_from_roots([F(5 + P0), F(-2**121)])),
        "sum": (poly_from_roots([F(362)]), UniPoly((F(P0 - 362**2), F(0), F(1)))),
    }
    COMMON = UniPoly((F(-2, 3), F(1), F(1)))

    @pytest.mark.parametrize("pair,common", [
        ("small", False),
        ("large", False),
        ("large", True),
        ("sum", False),
    ])
    def test_a_root_shared_only_mod_the_first_prime(self, monkeypatch, pair, common):
        tried = self._spy(monkeypatch)
        a, b = self.PAIRS[pair]
        if common:
            a, b = a * self.COMMON, b * self.COMMON
        g = poly_gcd(a, b)
        assert g == _sympy_monic_gcd(a, b) == (self.COMMON if common else UniPoly((1,)))
        assert tried == [self.P0, self.P1]

    def test_a_count_shaped_root_shared_only_mod_the_first_prime(self, monkeypatch):
        # degree 139 and 138 with 200-bit coefficients, the size of g and g'
        # in a count: the first prime sees the planted root, the next proves
        # the pair coprime, with no jump to a prime above a coefficient bound
        rng = random.Random(17)
        a, b = (UniPoly([rng.randint(-2**200, 2**200) for _ in range(degree)] + [2**200])
                for degree in (138, 137))
        r = rng.randrange(self.P0)
        a, b = a * UniPoly((-r, 1)), b * UniPoly((-r - self.P0, 1))
        tried = self._spy(monkeypatch)
        assert poly_gcd(a, b) == UniPoly((1,))
        assert tried == [self.P0, self.P1]

    # a cubic common factor of 200-bit coefficients (the cofactors are monic,
    # so gamma is its leading coefficient) reads below p / 4 in the symmetric
    # range only from 2**521 - 1 on, the eighth prime
    COMMON_200 = UniPoly((2**200 - 3, -2**199 - 5, 2**198 + 7, 2**200 - 9))
    PAIR_200 = (COMMON_200 * UniPoly((1, 0, 1)), COMMON_200 * UniPoly((-7, 1)))

    def test_a_common_factor_lifts_at_the_first_prime_above_four_times_its_height(
            self, monkeypatch):
        tried = self._spy(monkeypatch)
        assert poly_gcd(*self.PAIR_200) == self.COMMON_200.monic()
        assert tried == list(_PRIMES[:8]) and _PRIMES[7] == 2**521 - 1

    def test_an_exhausted_table_refuses_the_gcd(self, monkeypatch):
        tried = self._spy(monkeypatch)
        monkeypatch.setattr(exactnum, "_PRIMES", _PRIMES[:3])
        with pytest.raises(ValueError, match="too large for the modular gcd"):
            poly_gcd(*self.PAIR_200)
        assert tried == list(_PRIMES[:3])

    def test_a_small_common_factor_of_huge_operands(self):
        # 240,000-bit coefficients, past the largest prime: no bound on the
        # operands refuses the gcd, and the first prime lifts t - 1
        rng = random.Random(240_000)
        t1 = UniPoly((-1, 1))
        a, b = (UniPoly([(1 << 239_999) | rng.getrandbits(239_999) for _ in range(3)]) * t1
                for _ in range(2))
        assert poly_gcd(a, b) == t1


# small rationals and ~300-bit numerators over up to 40-bit denominators
gcd_coeffs = st.one_of(
    small_int.map(F),
    st.builds(F, st.integers(min_value=-2**300, max_value=2**300),
              st.integers(min_value=1, max_value=2**40)),
)


@st.composite
def gcd_polys(draw, min_deg, max_deg):
    cs = draw(st.lists(gcd_coeffs, min_size=min_deg + 1, max_size=max_deg + 1))
    return UniPoly(cs[:-1] + [cs[-1] or F(1)])


# the table before it started at the smallest prime the kernel folds
OLD_PRIMES = tuple(p for p in _PRIMES if p >= 2**61 - 1)


def _with_old_primes(f, *args):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactnum, "_PRIMES", OLD_PRIMES)
        return f(*args)


@st.composite
def count_shaped_operands(draw):
    """(a, b) of degree 100 to about 150 with coefficients of about 200 bits,
    the size of g and g' or of g and the pole product in a count, optionally
    with a planted common factor, a squared factor of a that divides b once,
    or a root shared only mod the first prime."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))

    def poly(degree, bits):
        return UniPoly([rng.randint(-2**bits, 2**bits) for _ in range(degree)]
                       + [rng.randint(1, 2**bits)])

    a = poly(draw(st.integers(min_value=100, max_value=140)), 200)
    b = poly(draw(st.integers(min_value=100, max_value=140)), 200)
    plant = draw(st.sampled_from(("none", "common", "square", "mod-first-prime")))
    if plant == "mod-first-prime":
        r = rng.randrange(_PRIMES[0])
        a, b = a * UniPoly((-r, 1)), b * UniPoly((-r - _PRIMES[0], 1))
    elif plant != "none":
        c = poly(draw(st.integers(min_value=1, max_value=5)), 20)
        a, b = (a * c * c, b * c) if plant == "square" else (a * c, b * c)
    return a, b


class TestFirstPrimeDifferential:
    """Coprimality is proved mod the smallest prime of the table and a common
    factor is lifted at the first prime whose lift divides both operands:
    gcds and squarefree parts of count-sized operands equal those of the old
    table."""

    @settings(max_examples=40)
    @given(operands=count_shaped_operands())
    def test_count_shaped_operands_match_the_old_table(self, operands):
        a, b = operands
        assert poly_gcd(a, b) == _with_old_primes(poly_gcd, a, b)
        assert squarefree_part(a) == _with_old_primes(squarefree_part, a)


class TestBoundedGcdDifferential:
    """poly_gcd lifts a common factor at every prime from the first that
    shows it, and ``ref_bounded_gcd`` only at primes above the
    Landau-Mignotte bound: both return the one monic gcd."""

    @settings(max_examples=40)
    @given(operands=count_shaped_operands())
    def test_count_shaped_operands(self, operands):
        a, b = operands
        assert poly_gcd(a, b) == ref_bounded_gcd(a, b)
        assert poly_gcd(a, a.derivative()) == ref_bounded_gcd(a, a.derivative())

    @settings(max_examples=150)
    @given(a=gcd_polys(0, 6), b=gcd_polys(0, 6),
           common=st.none() | gcd_polys(1, 4), square=st.none() | gcd_polys(1, 3))
    def test_small_operands(self, a, b, common, square):
        if common is not None:
            a, b = a * common, b * common
        if square is not None:
            a, b = a * square * square, b * square
        assert poly_gcd(a, b) == ref_bounded_gcd(a, b)


class TestModularGcdAgainstSympy:
    @settings(max_examples=150)
    @given(a=gcd_polys(0, 6), b=gcd_polys(0, 6),
           common=st.none() | gcd_polys(1, 4), square=st.none() | gcd_polys(1, 3))
    @example(a=UniPoly((3,)), b=UniPoly((F(1, 2), 1)), common=None, square=None)
    @example(a=UniPoly((1,)), b=UniPoly((1, 2)), common=UniPoly((F(-2, 3), 1, 1)),
             square=UniPoly((2**300 + 1, F(-1, 3))))
    def test_planted_common_and_squared_factors(self, a, b, common, square):
        # a common factor, and a squared factor of a that divides b once
        if common is not None:
            a, b = a * common, b * common
        if square is not None:
            a, b = a * square * square, b * square
        g = poly_gcd(a, b)
        assert g == _sympy_monic_gcd(a, b) == _with_old_primes(poly_gcd, a, b)
        sp = pytest.importorskip("sympy")
        t = sp.symbols("t")
        sqf = sp.sqf_part(sp.Poly(a.coeffs[::-1], t, domain="QQ")).monic()
        sqf_part = squarefree_part(a)
        assert sqf_part == UniPoly(tuple(F(str(c)) for c in reversed(sqf.all_coeffs())))
        assert sqf_part == _with_old_primes(squarefree_part, a)
