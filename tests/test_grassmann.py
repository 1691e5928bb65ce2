"""Tests for Plucker coordinates, wedge cameras, the ruled-quadric conic,
skew-line scaffolding, and Bezier scrolls."""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from edcurve.exactnum import HomPoly2
from edcurve.grassmann import (
    BezierCurve,
    PlueckerLine,
    bezier_scroll,
    l3_curve,
    l3_meet_form,
    pluecker_from_span,
    segre_quadric_eval,
    subset_order,
    subset_order_lex,
    three_skew_lines,
    wedge_camera,
)
from edcurve.scene import Camera, random_camera


def _matmul(a, b):
    rows = len(a)
    inner = len(b)
    cols = len(b[0])
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(inner)), F(0))
              for j in range(cols))
        for i in range(rows)
    )


class TestSubsetOrders:
    def test_internal_order_is_largest_element_first(self):
        assert subset_order(4, 2) == [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)]

    def test_lex_order(self):
        assert subset_order_lex(4, 2) == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]

    def test_orders_agree_for_two_subsets_of_three(self):
        assert subset_order(3, 2) == subset_order_lex(3, 2) == [(1, 2), (1, 3), (2, 3)]


class TestPlueckerLine:
    def test_coordinate_line(self):
        line = pluecker_from_span((1, 0, 0, 0), (0, 1, 0, 0))
        assert line.p == (F(1), F(0), F(0), F(0), F(0), F(0))

    def test_ruling_line_at_one_one(self):
        line = pluecker_from_span((1, 0, 1, 0), (0, 1, 0, 1))
        assert line.p == (F(1), F(0), F(-1), F(1), F(0), F(1))

    def test_relation_holds_for_random_spans(self):
        rng = random.Random(2)
        for _ in range(50):
            x1 = [F(rng.randint(-9, 9)) for _ in range(4)]
            x2 = [F(rng.randint(-9, 9)) for _ in range(4)]
            try:
                line = pluecker_from_span(x1, x2)
            except ValueError:
                continue  # dependent draw
            assert line.pluecker_relation_value() == 0

    def test_dependent_spans_rejected(self):
        with pytest.raises(ValueError, match="dependent"):
            pluecker_from_span((1, 2, 3, 4), (2, 4, 6, 8))

    def test_invalid_coordinates_rejected(self):
        with pytest.raises(ValueError, match="Plucker relation"):
            PlueckerLine((F(1), F(0), F(0), F(0), F(0), F(1)))
        with pytest.raises(ValueError, match="zero vector"):
            PlueckerLine((F(0),) * 6)

    def test_meet_value_symmetric(self):
        a = pluecker_from_span((1, 0, 0, 0), (0, 1, 0, 0))
        b = pluecker_from_span((0, 0, 1, 0), (0, 0, 0, 1))
        assert a.meet_value(b) == b.meet_value(a)
        assert not a.meets(b)  # z = 0 plane line vs x = y = 0 line: disjoint


class TestWedgeCamera:
    def pinned_camera(self) -> Camera:
        return Camera(2, 3, ((F(1), F(2), F(3), F(4)),
                             (F(0), F(-1), F(0), F(0)),
                             (F(0), F(0), F(5), F(0))))

    def test_pinned_two_wedge_display(self):
        w = wedge_camera(self.pinned_camera(), 2)
        expect = [
            [F(-1), F(0), F(0), F(3), F(4), F(0)],
            [F(0), F(5), F(0), F(10), F(0), F(-20)],
            [F(0), F(0), F(0), F(-5), F(0), F(0)],
        ]
        assert w.lex_display() == expect

    def test_internal_and_display_orders_are_column_permutations(self):
        w = wedge_camera(self.pinned_camera(), 2)
        lex_cols = subset_order_lex(4, 2)
        for i, subset in enumerate(w.col_subsets):
            j = lex_cols.index(subset)
            for r in range(3):
                assert w.entries[r][i] == w.lex_display()[r][j]

    def test_identity_camera_wedges_to_identity(self):
        eye = Camera(3, 3, tuple(
            tuple(F(1 if i == j else 0) for j in range(4)) for i in range(4)))
        w = wedge_camera(eye, 2)
        assert len(w.entries) == 6
        for i in range(6):
            for j in range(6):
                assert w.entries[i][j] == (1 if i == j else 0)

    def test_first_wedge_is_the_camera(self):
        c = random_camera(21, 2, 3)
        w = wedge_camera(c, 1)
        assert w.entries == c.entries

    def test_order_out_of_range(self):
        c = random_camera(21, 2, 3)
        for k in (0, 4):
            with pytest.raises(ValueError, match="wedge order"):
                wedge_camera(c, k)

    def test_composition_law(self):
        # minors of a product = product of the minor matrices
        rng = random.Random(5)
        for trial in range(12):
            c = random_camera(300 + trial, 2, 3)
            d = random_camera(400 + trial, 3, 3)
            prod = Camera(2, 3, _matmul(c.entries, d.entries))
            lhs = wedge_camera(prod, 2).entries
            rhs = _matmul(wedge_camera(c, 2).entries, wedge_camera(d, 2).entries)
            assert lhs == tuple(tuple(row) for row in rhs)

    def test_line_transport_matches_span_transport(self):
        # applying the 2-wedge to Plucker coordinates gives the coordinates of
        # the transported span, up to scale (checked by cross-multiplication)
        rng = random.Random(8)
        for trial in range(12):
            c = random_camera(500 + trial, 3, 3)
            x1 = [F(rng.randint(-9, 9)) for _ in range(4)]
            x2 = [F(rng.randint(-9, 9)) for _ in range(4)]
            try:
                line = pluecker_from_span(x1, x2)
                cx1 = [sum((a * v for a, v in zip(row, x1)), F(0)) for row in c.entries]
                cx2 = [sum((a * v for a, v in zip(row, x2)), F(0)) for row in c.entries]
                target = pluecker_from_span(cx1, cx2)
            except ValueError:
                continue
            moved = [sum((a * x for a, x in zip(row, line.p)), F(0))
                     for row in wedge_camera(c, 2).entries]
            for i in range(6):
                for j in range(6):
                    assert moved[i] * target.p[j] == moved[j] * target.p[i]

    def test_as_camera_dimensions(self):
        cam = wedge_camera(self.pinned_camera(), 2).as_camera()
        assert (cam.h, cam.N) == (2, 5)


class TestRuledQuadricConic:
    def test_coordinates(self):
        f = l3_curve()
        assert (f.N, f.e) == (5, 2)
        s2 = HomPoly2(2, (1, 0, 0))
        st = HomPoly2(2, (0, 1, 0))
        t2 = HomPoly2(2, (0, 0, 1))
        z = HomPoly2(2)
        assert f.coords == (s2, z, -1 * st, st, z, t2)

    def test_endpoint_values(self):
        f = l3_curve()
        assert f.evaluate(F(1), F(0)) == (1, 0, 0, 0, 0, 0)
        assert f.evaluate(F(1), F(1)) == (1, 0, -1, 1, 0, 1)

    def test_pluecker_relation_identically(self):
        c = l3_curve().coords
        relation = c[0] * c[5] - c[1] * c[4] + c[3] * c[2]
        assert relation.is_zero

    def test_points_are_lines_of_a_quadric_ruling(self):
        for s, t in ((F(1), F(0)), (F(1), F(1)), (F(2), F(-3)), (F(0), F(1))):
            for pt in ((s, 0, t, 0), (0, s, 0, t)):
                assert segre_quadric_eval(pt) == 0


class TestThreeSkewLines:
    CANONICAL = ((F(1), F(0)), (F(0), F(1)), (F(1), F(1)))

    def test_pairwise_skew(self):
        lines = three_skew_lines(self.CANONICAL)
        assert len(lines) == 3
        for i in range(3):
            for j in range(i + 1, 3):
                assert lines[i].meet_value(lines[j]) != 0

    def test_first_line_coordinates(self):
        lines = three_skew_lines(self.CANONICAL)
        assert lines[0].p == (F(0), F(1), F(0), F(0), F(0), F(0))

    def test_repeated_parameters_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            three_skew_lines(((F(1), F(1)), (F(2), F(2)), (F(0), F(1))))
        with pytest.raises(ValueError, match="three"):
            three_skew_lines(((F(1), F(0)), (F(0), F(1))))

    def test_every_family_member_meets_all_three(self):
        for params in (self.CANONICAL,
                       ((F(2), F(3)), (F(-1), F(5)), (F(7), F(1)))):
            for line in three_skew_lines(params):
                assert l3_meet_form(line).is_zero


class TestSegreQuadric:
    def test_point_values(self):
        assert segre_quadric_eval((1, 0, 0, 0)) == 0
        assert segre_quadric_eval((1, 1, 1, 0)) == -1

    def test_vanishes_on_product_points(self):
        rng = random.Random(3)
        for _ in range(30):
            s, t, u, v = (F(rng.randint(-9, 9)) for _ in range(4))
            assert segre_quadric_eval((s * u, s * v, t * u, t * v)) == 0


class TestBezierScroll:
    def b1(self) -> BezierCurve:
        return BezierCurve(1, ((F(0), F(0), F(0)), (F(1), F(2), F(3))))

    def b2(self) -> BezierCurve:
        return BezierCurve(1, ((F(1), F(0), F(1)), (F(0), F(1), F(-1))))

    def test_degree_one_pair(self):
        f = bezier_scroll(self.b1(), self.b2())
        assert (f.N, f.e) == (5, 2)
        c = f.coords
        assert (c[0] * c[5] - c[1] * c[4] + c[3] * c[2]).is_zero

    def test_scroll_points_are_lines(self):
        f = bezier_scroll(self.b1(), self.b2())
        for s, t in ((F(1), F(0)), (F(1), F(2)), (F(3), F(-1))):
            PlueckerLine(f.evaluate(s, t))  # constructor re-checks the relation

    def test_mixed_degrees(self):
        quartic = BezierCurve(4, ((F(1), F(1), F(0)), (F(1), F(0), F(2)),
                                  (F(0), F(3), F(1)), (F(2), F(1), F(0)),
                                  (F(1), F(1), F(1))))
        f = bezier_scroll(self.b1(), quartic)
        assert f.e == 5

    def test_identical_curves_rejected(self):
        with pytest.raises(ValueError, match="non-generic control points"):
            bezier_scroll(self.b1(), self.b1())

    def test_control_point_validation(self):
        with pytest.raises(ValueError, match="distinct"):
            BezierCurve(1, ((F(1), F(1), F(1)), (F(1), F(1), F(1))))
        with pytest.raises(ValueError, match="E\\+1"):
            BezierCurve(2, ((F(0), F(0), F(0)), (F(1), F(1), F(1))))

    def test_round_trip(self):
        b = self.b2()
        assert BezierCurve.from_dict(b.to_dict()) == b
        with pytest.raises(ValueError, match="malformed bezier"):
            BezierCurve.from_dict({"control": "nope"})
        # "012" is not read digit by digit as the point (0, 1, 2)
        with pytest.raises(ValueError, match="malformed bezier object.*array"):
            BezierCurve.from_dict({"control": ["012", "345"]})


class TestInexactInputs:
    """Every constructor here takes exact rationals only, as ``Camera``
    does: a float and a decimal literal are refused, not rounded."""

    CALLS = {
        "PlueckerLine": lambda x: PlueckerLine((x, 0, 0, 0, 0, 0)),
        "pluecker_from_span": lambda x: pluecker_from_span((x, 0, 0, 0), (0, 1, 0, 0)),
        "three_skew_lines": lambda x: three_skew_lines(((x, 1), (1, 0), (0, 1))),
        "segre_quadric_eval": lambda x: segre_quadric_eval([x, 1, 1, 1]),
        "BezierCurve": lambda x: BezierCurve(1, ((x, 0, 0), (1, 0, 0))),
    }

    @pytest.mark.parametrize("name", sorted(CALLS))
    @pytest.mark.parametrize("bad, error", [(0.5, TypeError), ("1.5", ValueError)])
    def test_a_float_and_a_decimal_are_refused(self, name, bad, error):
        with pytest.raises(error):
            self.CALLS[name](bad)

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_a_rational_literal_is_read_exactly(self, name):
        assert self.CALLS[name]("3/2") == self.CALLS[name](F(3, 2))
