"""Pinned examples for the exact polynomial layer."""

from fractions import Fraction as F

import pytest

from bulk_properties import poly_from_roots
from edcurve.exactnum import (
    HomPoly2,
    IsolatingInterval,
    UNI_ONE,
    UniPoly,
    distinct_root_count,
    hom_discriminant,
    hom_distinct_root_count,
    hom_gcd,
    hom_resultant,
    hom_resultant_is_nonzero,
    poly_gcd,
    rat_from_str,
    rat_to_str,
    refine_root,
    squarefree_part,
    sturm_isolate,
)


def P(*coeffs):
    return UniPoly(tuple(F(c) for c in coeffs))


def Hf(*coeffs):
    """The binary form whose chart t-coefficients are coeffs, lowest first."""
    return HomPoly2(len(coeffs) - 1, tuple(F(c) for c in coeffs))


class TestRationalStrings:
    def test_parse_forms(self):
        assert rat_from_str("3") == 3
        assert rat_from_str("-3") == -3
        assert rat_from_str("3/4") == F(3, 4)
        assert rat_from_str("-10/4") == F(-5, 2)

    def test_render_lowest_terms(self):
        assert rat_to_str(F(3, 4)) == "3/4"
        assert rat_to_str(F(4, 2)) == "2"
        assert rat_to_str(F(-1, 3)) == "-1/3"
        assert rat_to_str(F(0)) == "0"

    # the schemas' pattern admits no whitespace, Unicode or trailing newline
    # included ("$" alone would match before the "\n" of "3\n")
    @pytest.mark.parametrize("bad", ["", "1/0", "a", "1.5", "3 /4", "+-1", "1e3",
                                     " 3 ", "\u30003", "\n7/2\t", "3\n", "\xa03"])
    def test_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            rat_from_str(bad)

    @pytest.mark.parametrize("bad", ["\u0663", "\uff11\uff12", "1/\u0662", "-\u0967", "+\u0663/4"])
    def test_rejects_non_ascii_digits(self, bad):
        # Arabic-Indic, fullwidth and Devanagari digits, which int() reads,
        # are outside the schemas' [0-9]
        assert int(bad.lstrip("+-").split("/")[-1]) >= 0
        with pytest.raises(ValueError, match="not a rational literal"):
            rat_from_str(bad)

    def test_a_plus_sign_is_accepted(self):
        assert rat_from_str("+3") == 3
        assert rat_from_str("+3/4") == F(3, 4)

    def test_round_trip(self):
        for v in (F(0), F(7), F(-7), F(22, 7), F(-3, 1000)):
            assert rat_from_str(rat_to_str(v)) == v

    def test_round_trip_past_the_int_digit_limit(self):
        # the interpreter refuses int <-> str past 4300 digits by default
        v = F(-(7 * 10**5200 + 1), 3**11000)
        text = rat_to_str(v)
        assert len(text) > 10000
        assert rat_from_str(text) == v
        assert rat_from_str(f"{'9' * 5000}/{'6' * 5000}") == F(3, 2)
        with pytest.raises(ValueError, match="zero denominator"):
            rat_from_str("1/" + "0" * 5000)


class TestUniPolyBasics:
    def test_degree_sentinel_for_zero(self):
        assert UniPoly().degree is None
        assert P(0, 0).degree is None
        assert P(5).degree == 0
        assert P(0, 1).degree == 1

    def test_trailing_zeros_stripped(self):
        assert P(1, 2, 0, 0).coeffs == (F(1), F(2))

    def test_arithmetic(self):
        p, q = P(1, 1), P(-1, 1)  # 1+t, -1+t
        assert (p * q).coeffs == (F(-1), F(0), F(1))
        assert (p + q).coeffs == (F(0), F(2))
        assert (p - p).degree is None

    def test_derivative_and_eval(self):
        p = P(1, -2, 3)  # 3t^2 - 2t + 1
        assert p.derivative().coeffs == (F(-2), F(6))
        assert p.evaluate(F(2)) == 9

    def test_str(self):
        assert str(P(1, -2, 3)) == "3*t^2 - 2*t + 1"
        assert str(P(0, 1, 0, -1)) == "-t^3 + t"
        assert str(P(F(-1, 2))) == "-1/2"
        assert str(UniPoly()) == "0"

    def test_exact_div(self):
        p = P(-1, 0, 1)  # t^2-1
        assert p.exact_div(P(-1, 1)).coeffs == (F(1), F(1))
        with pytest.raises(ValueError):
            P(1, 1).exact_div(P(0, 1))


class TestGcd:
    def test_shared_linear_factor(self):
        assert poly_gcd(P(-1, 0, 1), P(-1, 1)) == P(-1, 1)

    def test_coprime(self):
        assert poly_gcd(P(1, 0, 1), P(2, 1)) == UNI_ONE

    def test_constructed_factorization(self):
        a = poly_from_roots([F(1), F(1), F(-3)])
        b = poly_from_roots([F(1), F(-5)])
        assert poly_gcd(a, b) == P(-1, 1)

    def test_one_zero_argument(self):
        p = P(2, 4)
        assert poly_gcd(p, UniPoly()) == P(1, 2).monic()
        assert poly_gcd(UniPoly(), p) == p.monic()

    def test_both_zero_rejected(self):
        with pytest.raises(ValueError, match="gcd of two zero polynomials"):
            poly_gcd(UniPoly(), UniPoly())

    def test_result_is_monic(self):
        g = poly_gcd(P(-4, 0, 4), P(-6, 6))
        assert g.coeffs[-1] == 1


class TestSquarefree:
    def test_double_root_dropped(self):
        p = poly_from_roots([F(1), F(1), F(-2)])
        assert squarefree_part(p) == poly_from_roots([F(1), F(-2)])

    def test_pure_power(self):
        assert squarefree_part(P(0, 0, 0, 1)) == P(0, 1)

    def test_already_squarefree_made_monic(self):
        assert squarefree_part(P(2, 0, 2)) == P(1, 0, 1)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            squarefree_part(UniPoly())


class TestDistinctRootCount:
    def test_multiplicity_collapsed(self):
        assert distinct_root_count(poly_from_roots([F(1), F(1), F(-2)])) == 2

    def test_squarefree_degree(self):
        assert distinct_root_count(P(1, 0, 0, 0, 1)) == 4

    def test_constant(self):
        assert distinct_root_count(P(7)) == 0
        with pytest.raises(ValueError):
            distinct_root_count(UniPoly())


class TestResultant:
    def test_linear_pair(self):
        assert hom_resultant(Hf(-1, 1), Hf(1, 1)) == 2

    def test_shared_root_vanishes(self):
        for a in (F(0), F(3), F(-7, 2)):
            assert hom_resultant(Hf(-a, 1), Hf(-a, 1)) == 0

    def test_quadratic_pair(self):
        assert hom_resultant(Hf(-2, 0, 1), Hf(-3, 0, 1)) == 1

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            hom_resultant(HomPoly2(1), Hf(1, 1))


class TestDiscriminant:
    def test_quadratic_identity(self):
        for b, c in ((F(3), F(1)), (F(0), F(-2)), (F(1, 2), F(1, 3))):
            assert hom_discriminant(Hf(c, b, 1)) == b * b - 4 * c

    def test_repeated_root(self):
        assert hom_discriminant(Hf(1, -2, 1)) == 0  # (t - 1)^2

    def test_cubic(self):
        # t^3 - t, roots 0, +-1: Res(F_s, F_t) is -3 times its discriminant 4
        assert hom_discriminant(Hf(0, -1, 0, 1)) == -12

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            hom_discriminant(Hf(5))


class TestHomPoly:
    def test_dehom_hom_round_trip(self):
        h = HomPoly2(3, (F(1), F(0), F(-2), F(5)))
        assert h.dehom().coeffs == (F(1), F(0), F(-2), F(5))

    def test_st_two_roots(self):
        st = HomPoly2(2, (F(0), F(1), F(0)))
        assert hom_distinct_root_count(st) == 2

    def test_repeated_linear(self):
        h = HomPoly2(1, (F(1), F(-1)))
        sq = h * h
        assert hom_distinct_root_count(sq) == 1

    def test_fourth_roots_of_unity(self):
        h = HomPoly2(4, (F(1), F(0), F(0), F(0), F(-1)))  # s^4 - t^4
        assert hom_distinct_root_count(h) == 4

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            hom_distinct_root_count(HomPoly2(2))

    def test_str(self):
        # the rule of UniPoly's and MultiDeg's strings: zero terms skipped,
        # a unit coefficient dropped, "+ -" folded, and a constant alone
        assert str(HomPoly2(3, (F(1), F(0), F(-2), F(5, 3)))) == "s^3 - 2*s*t^2 + 5/3*t^3"
        assert str(HomPoly2(2, (F(-1), F(1), F(0)))) == "-s^2 + s*t"
        assert str(HomPoly2(1, (F(0), F(-7)))) == "-7*t"
        assert str(HomPoly2(0, (F(5),))) == "5"
        assert str(HomPoly2(0, (F(-1),))) == "-1"
        assert str(HomPoly2(2)) == "0"

    def test_hom_resultant_shared_point_at_infinity(self):
        # both divisible by s: common root [0:1]
        a = HomPoly2(2, (F(0), F(1), F(2)))
        b = HomPoly2(2, (F(0), F(3), F(1)))
        assert hom_resultant(a, b) == 0
        assert not hom_resultant_is_nonzero(a, b)

    def test_hom_resultant_coprime(self):
        a = HomPoly2(1, (F(1), F(-1)))  # s - t
        b = HomPoly2(1, (F(1), F(1)))   # s + t
        assert hom_resultant(a, b) != 0
        assert hom_resultant_is_nonzero(a, b)

    def test_hom_gcd(self):
        a = HomPoly2(1, (F(1), F(-1)))
        b = HomPoly2(1, (F(0), F(1)))
        g = hom_gcd(a * a * b, a * b * b)
        # common part s t (s - t) up to scale
        assert g.degree == 2
        assert g.coeffs[0] == 0  # divisible by t... index 0 is s^2 coefficient

    def test_hom_discriminant(self):
        simple = HomPoly2(2, (F(1), F(0), F(-1)))   # s^2 - t^2
        double = HomPoly2(2, (F(1), F(-2), F(1)))   # (s-t)^2
        assert hom_discriminant(simple) != 0
        assert hom_discriminant(double) == 0


class TestSturm:
    def test_sqrt2(self):
        ivs = sturm_isolate(P(-2, 0, 1))
        assert len(ivs) == 2
        lo_iv, hi_iv = ivs
        assert lo_iv.lo < F(-141, 100) < lo_iv.hi or lo_iv.lo < F(-142, 100) < lo_iv.hi
        assert hi_iv.lo < F(1415, 1000) < hi_iv.hi

    def test_no_real_roots(self):
        assert sturm_isolate(P(1, 0, 1)) == []

    def test_three_integer_roots(self):
        p = poly_from_roots([F(0), F(1), F(2)])
        ivs = sturm_isolate(p)
        assert len(ivs) == 3
        for root, iv in zip((F(0), F(1), F(2)), ivs):
            assert iv.lo < root < iv.hi

    def test_intervals_disjoint_and_sorted(self):
        p = poly_from_roots([F(-3), F(-1, 2), F(0), F(5, 3), F(4)])
        ivs = sturm_isolate(p)
        assert len(ivs) == 5
        for a, b in zip(ivs, ivs[1:]):
            assert a.hi <= b.lo

    def test_non_squarefree_rejected(self):
        with pytest.raises(ValueError, match="apply squarefree_part first"):
            sturm_isolate(poly_from_roots([F(1), F(1)]))


class TestRefineRoot:
    def test_sqrt2_width(self):
        iv = refine_root(P(-2, 0, 1), IsolatingInterval(F(1), F(2)), F(1, 1000))
        assert iv.hi - iv.lo <= F(1, 1000)
        assert iv.lo * iv.lo < 2 < iv.hi * iv.hi

    def test_rational_root_landing(self):
        iv = refine_root(P(-1, 3), IsolatingInterval(F(0), F(1)), F(1, 10**6))
        assert iv.hi - iv.lo <= F(1, 10**6)
        assert iv.lo < F(1, 3) < iv.hi

    def test_zero_root(self):
        p = P(0, -1, 0, 1)
        iv = refine_root(p, IsolatingInterval(F(-1, 2), F(1, 2)), F(1, 100))
        assert iv.hi - iv.lo <= F(1, 100)
        assert iv.lo < 0 < iv.hi

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError, match="invalid interval"):
            refine_root(P(-2, 0, 1), IsolatingInterval(F(3), F(4)), F(1, 10))


class TestIsolatingInterval:
    def test_orientation_enforced(self):
        with pytest.raises(ValueError):
            IsolatingInterval(F(1), F(1))
        iv = IsolatingInterval(F(0), F(1, 2))
        assert iv.width == F(1, 2)
        assert iv.midpoint == F(1, 4)
