"""Tests for the critical-point counts, the Euler-characteristic cross-check,
the projective smooth-curve count, and certified triangulation."""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import Phase, assume, example, given, settings
from hypothesis import strategies as st

from edcurve import cli, eddeg, exactnum, scene
from bulk_properties import (
    charts_and_images,
    check_l1_bound,
    critical_polynomial_oracle,
    double_root_data,
    exact_outcome,
    kron_sum_mod,
    outcome,
    perturbed_numerator_oracle,
    ref_abs_upper,
)
from edcurve.eddeg import (
    CellExhaustedError,
    CuspError,
    DataInstabilityError,
    DataPoint,
    EDReport,
    NonGenericBetaError,
    TriangulationResult,
    count_cell,
    critical_polynomial,
    ed_degree_affine,
    euler_cross_check,
    projective_ed_degree_smooth_curve,
    random_data_point,
    reduce_critical_polynomial,
    triangulate,
)
from edcurve.exactnum import (
    HomPoly2,
    UniPoly,
    hom_distinct_root_count,
    hom_gcd_many,
    poly_gcd,
    refine_root,
    squarefree_part,
    sturm_isolate,
)
from edcurve.scene import (
    Arrangement,
    Camera,
    RationalCurve,
    Scene,
    apply_camera,
    arrangement_from_dict,
    chart_wronskians,
    curve_from_dict,
    cusp_form,
    genericity_certificate,
    random_camera,
    random_camera_block_pairs,
    random_camera_degree_drop,
    random_curve,
    rational_normal_curve,
    scene_for,
)


def H(e, *coeffs):
    return HomPoly2(e, tuple(F(c) for c in coeffs))


def twisted_cubic() -> RationalCurve:
    return rational_normal_curve(3, 3)


def cuspidal_cubic() -> RationalCurve:
    return RationalCurve(N=2, e=3, coords=(
        H(3, 1, 0, 0, 0), H(3, 0, 0, 1, 0), H(3, 0, 0, 0, 1)))


def line_in_p3() -> RationalCurve:
    return RationalCurve(N=3, e=1, coords=(
        H(1, 0, 1), H(1, 1, 0), HomPoly2(1), HomPoly2(1)))


def axis_camera() -> Camera:
    # chart row hits s, so the affine image of [t:s:0:0] is the t-axis (t, 0)
    return Camera(2, 3, ((F(0), F(1), F(0), F(0)),
                         (F(1), F(0), F(0), F(0)),
                         (F(0), F(0), F(1), F(0))))


def generic_arrangement(start_seed: int, n: int, h: int, N: int) -> Arrangement:
    return Arrangement(tuple(random_camera(start_seed + i, h, N) for i in range(n)))


def image_of(f: RationalCurve, arr: Arrangement, t: F) -> DataPoint:
    """Exact affine image blocks of the curve point at parameter t."""
    blocks = []
    for cam in arr.cameras:
        img = apply_camera(cam, f)
        q = img[0].dehom().evaluate(t)
        blocks.append(tuple(p.dehom().evaluate(t) / q for p in img[1:]))
    return DataPoint(u=tuple(blocks))


def exact_distance(f, arr, u: DataPoint, t: F) -> F:
    total = F(0)
    for i, cam in enumerate(arr.cameras):
        img = apply_camera(cam, f)
        q = img[0].dehom().evaluate(t)
        for j, p in enumerate(img[1:]):
            total += (p.dehom().evaluate(t) / q - u.u[i][j]) ** 2
    return total


class TestDataPoint:
    def test_coercion_and_shape(self):
        d = DataPoint(u=((1, F(1, 2)), (0, 3)))
        assert d.u == ((F(1), F(1, 2)), (F(0), F(3)))
        d.check_shape(generic_arrangement(0, 2, 2, 3))
        with pytest.raises(ValueError):
            d.check_shape(generic_arrangement(0, 1, 2, 3))

    def test_floats_and_non_literal_strings_are_refused(self):
        # a float would bring its binary expansion: 0.1 is 3602879701896397/2^55
        with pytest.raises(TypeError, match="exact rational"):
            DataPoint(u=((0.1, F(1)),))
        with pytest.raises(TypeError, match="exact rational"):
            DataPoint(u=((F(1), F(2)),), beta0=0.5)
        with pytest.raises(ValueError, match="not a rational literal"):
            DataPoint(u=(("1e-3", F(1)),))
        assert DataPoint(u=(("-1/3", 2),), beta0="5").u == ((F(-1, 3), F(2)),)

    def test_round_trip(self):
        d = DataPoint(u=((F(1, 3), F(-2)),), beta0=F(5, 7))
        assert DataPoint.from_dict(d.to_json_dict()) == d

    def test_malformed(self):
        with pytest.raises(ValueError, match="malformed data object"):
            DataPoint.from_dict({"u": "nope"})
        # a string row is not read digit by digit as u = ((1, 2), (3, 4))
        with pytest.raises(ValueError, match="malformed data object.*array"):
            DataPoint.from_dict({"u": ["12", "34"]})
        # nor through the constructor: u = ("12",) is not ((1, 2),), and
        # u = "12" is not ((1,), (2,))
        with pytest.raises(TypeError, match="string"):
            DataPoint(u=("12",))
        with pytest.raises(TypeError, match="string"):
            DataPoint(u="12")

    def test_sampler_deterministic(self):
        assert random_data_point(9, 2, 3) == random_data_point(9, 2, 3)
        assert random_data_point(9, 2, 3) != random_data_point(10, 2, 3)
        d = random_data_point(9, 2, 3)
        assert len(d.u) == 2 and all(len(row) == 3 for row in d.u)


class TestCriticalPolynomial:
    def test_orthogonal_foot_on_a_line(self):
        u = DataPoint(u=((F(0), F(5)),))
        g = critical_polynomial(line_in_p3(), Arrangement((axis_camera(),)), u)
        # distance^2 = t^2 + 25, so the derivative numerator is c * t
        assert g.degree == 1
        assert g.coeffs[0] == 0

    def test_twisted_cubic_degree_seven(self):
        arr = generic_arrangement(11, 1, 2, 3)
        g = critical_polynomial(twisted_cubic(), arr, random_data_point(1, 1, 2))
        assert g.degree == 7

    def test_exact_image_data_is_a_root(self):
        f = twisted_cubic()
        arr = generic_arrangement(23, 2, 2, 3)
        t0 = F(1, 2)
        g = critical_polynomial(f, arr, image_of(f, arr, t0))
        assert g.evaluate(t0) == 0

    def test_curve_at_infinity_rejected(self):
        f = RationalCurve(N=3, e=2, coords=(
            H(2, 0, 0, 1), H(2, 0, 1, 0), H(2, 1, 0, 0), HomPoly2(2)))
        cam = Camera(2, 3, ((F(0), F(0), F(0), F(1)),
                            (F(1), F(0), F(0), F(0)),
                            (F(0), F(1), F(0), F(0))))
        with pytest.raises(ValueError, match="curve at infinity of camera 0"):
            critical_polynomial(f, Arrangement((cam,)), DataPoint(u=((0, 0),)))

    def test_degree_bound_random_instances(self):
        rng = random.Random(31)
        for _ in range(10):
            e = rng.randint(1, 3)
            n = rng.randint(1, 2)
            h = rng.choice((2, 3))
            N = max(e, h)
            f = random_curve(rng.randint(0, 10**6), e, N)
            arr = generic_arrangement(rng.randint(0, 10**6), n, h, N)
            g = critical_polynomial(f, arr, random_data_point(rng.randint(0, 10**6), n, h))
            assert g.degree <= 3 * e * n - 2


class TestEdDegreeAffine:
    def test_line_against_camera_count(self):
        expected = {1: 1, 2: 4, 3: 7, 4: 10}
        for n, want in expected.items():
            arr = generic_arrangement(100, n, 2, 3)
            rep = ed_degree_affine(line_in_p3(), arr, 1)
            assert rep.ed_degree == want
            assert rep.formula_match is True

    def test_twisted_cubic_single_camera(self):
        rep = ed_degree_affine(twisted_cubic(), generic_arrangement(11, 1, 2, 3), 5)
        assert rep.ed_degree == 7
        assert rep.critical_poly_degree == 7
        assert rep.certificate.passes
        assert rep.stable
        assert rep.seeds == (5, 6)

    def test_cuspidal_cubic(self):
        arr = Arrangement((random_camera(1234, 2, 2),))
        rep = ed_degree_affine(cuspidal_cubic(), arr, 3)
        assert rep.ed_degree == 6
        assert rep.removed_immersion_factors >= 1
        assert not rep.certificate.immersion_ok

    def test_chart_degree_drop_family(self):
        # one constrained camera keeps the generic count; two of them share a
        # zero at infinity and the count drops below 3en-2
        tw = twisted_cubic()
        one = Arrangement((random_camera_degree_drop(900),))
        two = Arrangement((random_camera_degree_drop(900),
                           random_camera_degree_drop(901)))
        rep1 = ed_degree_affine(tw, one, 3)
        rep2 = ed_degree_affine(tw, two, 3)
        assert rep1.ed_degree == 7
        assert rep2.ed_degree == 13
        assert rep2.formula_value == 16 and rep2.formula_match is False
        assert not rep2.certificate.passes

    def test_block_camera_family(self):
        f5 = rational_normal_curve(5, 5)
        rep = ed_degree_affine(f5, Arrangement((random_camera_block_pairs(17),)), 2)
        assert rep.ed_degree == 9
        assert rep.formula_value == 13 and rep.formula_match is False

    def test_two_routes_agree_on_explicit_integer_cameras(self):
        # a fixed non-random arrangement: the direct count and the
        # Euler-characteristic balance must return the same number
        tw = twisted_cubic()
        c1 = Camera(2, 3, ((F(2), F(0), F(0), F(1)),
                           (F(3), F(0), F(1), F(0)),
                           (F(5), F(1), F(0), F(0))))
        c2 = Camera(2, 3, ((F(7), F(0), F(0), F(1)),
                           (F(11), F(0), F(1), F(0)),
                           (F(13), F(1), F(0), F(0))))
        arr = Arrangement((c1, c2))
        rep = ed_degree_affine(tw, arr, 7)
        assert rep.certificate.passes
        assert rep.ed_degree == euler_cross_check(tw, arr, 7)

    def test_h1_is_refused(self):
        # a view onto a line ramifies at 2e - 2 smooth points, which the cusp
        # saturation would remove: the count and triangulation both refuse
        tw = twisted_cubic()
        arr = Arrangement((random_camera(42, 1, 3),))
        with pytest.raises(ValueError, match="h = 1 arrangements are refused"):
            ed_degree_affine(tw, arr, 5)
        with pytest.raises(ValueError, match="h = 1 arrangements are refused"):
            triangulate(tw, arr, random_data_point(5, 1, 1), F(1, 64))

    def test_unstable_data_raises(self):
        # parabola image (t, t^2): the axis point (0, 1/2) is equidistant-
        # degenerate (the critical polynomial collapses to c*t^3), while
        # generic data sees three critical points
        conic = rational_normal_curve(2, 2)
        cam = Camera(2, 2, ((F(0), F(0), F(1)),
                            (F(0), F(1), F(0)),
                            (F(1), F(0), F(0))))
        arr = Arrangement((cam,))
        bad = DataPoint(u=((F(0), F(1, 2)),))
        good = random_data_point(0, 1, 2)
        with pytest.raises(DataInstabilityError, match="data not generic; reseed"):
            ed_degree_affine(conic, arr, 0, data_points=(bad, good))

    def test_explicit_data_needs_exactly_two(self):
        with pytest.raises(ValueError, match="exactly two"):
            ed_degree_affine(twisted_cubic(), generic_arrangement(11, 1, 2, 3), 0,
                             data_points=(random_data_point(0, 1, 2),))

    def test_report_serialization(self):
        rep = ed_degree_affine(twisted_cubic(), generic_arrangement(11, 1, 2, 3), 5)
        d = rep.to_json_dict()
        assert d["ed_degree"] == 7
        assert d["certificate"]["passes"] is True
        assert d["seeds"] == [5, 6]

    def test_formula_law_small_grid(self):
        rng = random.Random(77)
        for e in (1, 2, 3):
            for n in (1, 2):
                for h in (2, 3):
                    N = max(e, h)
                    f = random_curve(rng.randint(0, 10**6), e, N)
                    arr = generic_arrangement(rng.randint(0, 10**6), n, h, N)
                    rep = ed_degree_affine(f, arr, rng.randint(0, 10**6))
                    if rep.certificate.passes:
                        assert rep.ed_degree == 3 * e * n - 2, (e, n, h)

    def test_family_counts_are_linear_in_camera_number(self):
        # counts at n = 1, 2 fix the whole line; measure n = 3 and compare
        tw = twisted_cubic()

        def count(family, n):
            cams = tuple(family(950 + i) for i in range(n))
            return ed_degree_affine(tw, Arrangement(cams), 3).ed_degree

        for family in (lambda s: random_camera(s, 2, 3), random_camera_degree_drop):
            c1, c2 = count(family, 1), count(family, 2)
            predicted = c1 + 2 * (c2 - c1)
            assert count(family, 3) == predicted


def _load(name):
    return json.loads((Path(__file__).parent / "data" / name).read_text())


class TestCountCell:
    def test_exhaustion_lists_every_attempt(self):
        # the pinned point on the parabola's axis makes every attempt unstable
        conic = curve_from_dict(_load("conic.json"))
        arr = arrangement_from_dict(_load("parabola_cam.json"))
        pinned = DataPoint.from_dict(_load("degenerate_data.json"))
        with pytest.raises(CellExhaustedError) as exc:
            count_cell(conic, arr, lambda k: 40 + k, 3, first_data=pinned)
        assert exc.value.reasons == ("data not generic; reseed",) * 3
        for k in range(3):
            assert f"attempt {k}: data not generic; reseed" in str(exc.value)

    def test_failed_certificate_is_rejected_with_its_reasons(self):
        f5 = rational_normal_curve(5, 5)
        draws = []

        def draw(k):
            draws.append(k)
            return Arrangement((random_camera_block_pairs(k),))

        with pytest.raises(CellExhaustedError) as exc:
            count_cell(f5, draw, lambda k: 100 + k, 3)
        assert draws == [0, 1, 2]
        # the 4-fold chart zero at [1:0] is also a cusp of the view
        assert exc.value.reasons == (
            "certificate failed: chart polynomial of camera 0 has a repeated zero; "
            "parameterization is not an immersion (cusp present)",
        ) * 3
        out = count_cell(f5, draw, lambda k: 100 + k, 3, require_certificate=False)
        assert out.rejected == ()
        assert out.arrangement == draw(0)
        assert out.report == ed_degree_affine(f5, draw(0), 100)
        assert out.report.ed_degree == 9 and not out.report.certificate.passes

    def test_value_error_propagates_for_a_fixed_scene(self):
        # the line through the camera centre [0:0:0:1] images to a point
        line = curve_from_dict({"N": 3, "degree": 1, "coords": [
            ["0", "1"], ["0", "0"], ["0", "0"], ["1", "0"]]})
        arr = Arrangement((Camera(2, 3, ((F(1), F(0), F(0), F(0)),
                                         (F(0), F(1), F(0), F(0)),
                                         (F(0), F(0), F(1), F(0)))),))
        seeds = []

        def data_seed(k):
            seeds.append(k)
            return k

        with pytest.raises(ValueError, match="is a point"):
            count_cell(line, arr, data_seed, 5)
        assert seeds == [0]

    def test_value_error_rejects_a_redrawn_attempt(self):
        # attempt 0's chart row kills both coordinates of the line [t:s:0:0]
        at_infinity = Camera(2, 3, ((F(0), F(0), F(1), F(0)),
                                    (F(1), F(0), F(0), F(0)),
                                    (F(0), F(1), F(0), F(0))))

        def draw(k):
            return Arrangement((at_infinity,) if k == 0
                               else (random_camera(20 + k, 2, 3),))

        out = count_cell(line_in_p3(), draw, lambda k: 7 + k, 4)
        assert out.rejected == ("curve at infinity of camera 0",)
        assert out.arrangement == draw(1)
        assert out.report == ed_degree_affine(line_in_p3(), draw(1), 8)
        assert out.report.ed_degree == 1

    def test_first_data_pins_the_first_sample(self):
        tw = twisted_cubic()
        arr = arrangement_from_dict(_load("one_generic.json"))
        pinned = DataPoint.from_dict(_load("data1.json"))
        out = count_cell(tw, arr, lambda k: 31 + k, 2, first_data=pinned)
        assert out.rejected == () and out.arrangement is arr
        assert out.report == ed_degree_affine(
            tw, arr, 31, data_points=(pinned, random_data_point(32, 1, 2)))
        # the pinned point reaches the count: at a degenerate one every
        # attempt is unstable, while the unpinned cell is accepted at once
        conic = curve_from_dict(_load("conic.json"))
        cam = arrangement_from_dict(_load("parabola_cam.json"))
        assert count_cell(conic, cam, lambda k: 40 + k, 1,
                          require_certificate=False).report.ed_degree == 3
        with pytest.raises(CellExhaustedError):
            count_cell(conic, cam, lambda k: 40 + k, 1,
                       first_data=DataPoint.from_dict(_load("degenerate_data.json")))

    def test_first_data_is_paired_with_the_sample_of_the_next_seed(self, monkeypatch):
        # the report's seeds are (s, s + 1), and the second sample is the
        # one drawn from s + 1
        tw = twisted_cubic()
        arr = arrangement_from_dict(_load("one_generic.json"))
        pinned = DataPoint.from_dict(_load("data1.json"))
        handed, count = [], eddeg.ed_degree_affine

        def spy(f, arr, seed, *, data_points=None):
            handed.append((seed, data_points))
            return count(f, arr, seed, data_points=data_points)

        monkeypatch.setattr(eddeg, "ed_degree_affine", spy)
        out = count_cell(tw, arr, lambda k: 31 + k, 2, first_data=pinned)
        assert handed == [(31, (pinned, random_data_point(32, 1, 2)))]
        assert out.report.seeds == (31, 32)

    def test_a_squared_chart_counts_through_the_modular_gcd(self):
        # cameras 0 and 1 share their chart row, so q_0^3 divides the
        # critical polynomial: its squarefree part and the pole saturation
        # take non-coprime gcds at degree 46.  The expected figures were
        # recorded with an integer primitive-PRS gcd, an independent algorithm.
        sp = pytest.importorskip("sympy")
        f = random_curve(7, 4, 4)
        cams = [random_camera(300 + i, 3, 4) for i in range(4)]
        cams[1] = Camera(3, 4, (cams[0].entries[0], *cams[1].entries[1:]))
        arr = Arrangement(tuple(cams))
        out = count_cell(f, arr, lambda k: 11 + k, 3, require_certificate=False)
        rep = out.report
        assert out.rejected == () and not rep.certificate.passes
        assert (rep.ed_degree, rep.critical_poly_degree) == (34, 46)
        assert rep.removed_pole_factors == 4
        raw = reduce_critical_polynomial(f, arr, random_data_point(11, 4, 3)).raw
        t = sp.symbols("t")
        sqf = sp.sqf_part(sp.Poly([sp.Rational(str(c)) for c in reversed(raw.coeffs)], t))
        assert squarefree_part(raw).degree == sqf.degree() == 38


def _view_minor_gcd(view) -> HomPoly2 | None:
    """gcd of the homogeneous 2x2 minors of [dF/ds; dF/dt] for one view's
    forms F, or None when they all vanish (the view is a point)."""
    ds = [c.partial_s() for c in view]
    dt = [c.partial_t() for c in view]
    minors = [ds[i] * dt[j] - ds[j] * dt[i]
              for i in range(len(view)) for j in range(i + 1, len(view))]
    if all(m.is_zero for m in minors):
        return None
    return hom_gcd_many(minors)


def minor_gcd_oracle(views) -> HomPoly2:
    """The multiview cusp form from the homogeneous minors, view by view:
    the oracle for ``scene.cusp_form``, which works on the charts."""
    per_view = [g for g in map(_view_minor_gcd, views) if g is not None]
    if not per_view:
        raise ValueError("every view is a point")
    return hom_gcd_many(per_view)


def _images(f, arr):
    return [apply_camera(c, f) for c in arr.cameras]


def _per_camera_reduction(f, arr, u) -> eddeg.ReducedCritical:
    """The pole and cusp saturation without the one-gcd pole test, on the
    term-by-term critical polynomial: every non-constant chart in turn, then
    the cusps of the multiview map."""
    g = critical_polynomial_oracle(f, arr, u)
    red = squarefree_part(g)
    removed = [0, 0]
    w = minor_gcd_oracle(_images(f, arr)).dehom()
    charts = [img[0].dehom() for img in _images(f, arr)]
    for slot, factors in ((0, charts), (1, [w])):
        for q in factors:
            if q.degree:
                common = poly_gcd(red, q)
                red = red.exact_div(common)
                removed[slot] += common.degree
    return eddeg.ReducedCritical(raw=g, reduced=red, removed_pole_factors=removed[0],
                                 removed_immersion_factors=removed[1])


def _tw_camera(row0) -> Camera:
    """A twisted-cubic camera whose chart row is row0: (0, 0, 0, 1) gives the
    constant chart 1, (1, 0, 0, 0) the chart t^3."""
    return Camera(2, 3, (tuple(F(x) for x in row0), (F(2), F(-1), F(3), F(1)),
                         (F(1), F(4), F(-2), F(5))))


class TestPoleShortcut:
    """reduce_critical_polynomial removes every pole factor with one gcd
    against the product of the charts, as a chart-by-chart loop would."""

    SCENES = {
        # (curve, arrangement, data seed, removed pole degree)
        "block-pair": (rational_normal_curve(5, 5),
                       Arrangement((random_camera_block_pairs(0),)), 100, 1),
        "two block-pairs": (rational_normal_curve(5, 5),
                            Arrangement((random_camera_block_pairs(0),
                                         random_camera_block_pairs(1))), 5, 1),
        "constant chart": (twisted_cubic(),
                           Arrangement((_tw_camera((0, 0, 0, 1)), random_camera(5, 2, 3))),
                           3, 0),
        "constant chart and t^3": (twisted_cubic(),
                                   Arrangement((_tw_camera((0, 0, 0, 1)),
                                                _tw_camera((1, 0, 0, 0)))), 3, 1),
        "generic": (twisted_cubic(), generic_arrangement(40, 3, 2, 3), 3, 0),
        "cusp": (cuspidal_cubic(), Arrangement((random_camera(8, 2, 2),)), 4, 0),
    }

    @pytest.mark.parametrize("name", SCENES)
    def test_matches_the_per_camera_loop(self, monkeypatch, name):
        f, arr, seed, removed = self.SCENES[name]
        u = random_data_point(seed, arr.n, arr.h)
        expected = _per_camera_reduction(f, arr, u)
        gcds = []

        def spy(a, b):
            gcds.append(b)
            return poly_gcd(a, b)

        monkeypatch.setattr(eddeg, "poly_gcd", spy)
        rc = reduce_critical_polynomial(f, arr, u)
        assert rc == expected
        assert rc.removed_pole_factors == removed
        cusp_gcds = int(bool(minor_gcd_oracle(_images(f, arr)).dehom().degree))
        assert len(gcds) == 1 + cusp_gcds

    def test_block_pair_count_removes_the_pole(self):
        # the block-pair camera's chart has a repeated zero: the certificate
        # fails, and the count without it saturates one pole factor per sample
        f5 = rational_normal_curve(5, 5)
        arr = Arrangement((random_camera_block_pairs(0),))
        out = count_cell(f5, arr, lambda k: 100 + k, 1, require_certificate=False)
        assert not out.report.certificate.passes
        assert out.report.removed_pole_factors == 1
        for seed in (100, 101):
            u = random_data_point(seed, arr.n, arr.h)
            assert reduce_critical_polynomial(f5, arr, u) == _per_camera_reduction(f5, arr, u)


def two_to_one_scene() -> tuple[RationalCurve, Arrangement]:
    """A conic in P^3 and a camera whose rows see only s^2 and t^2: the view
    [s^2 + 2t^2 : s^2 - t^2 : 3s^2 + t^2] is 2:1, so it ramifies at [1:0] and
    [0:1] (Riemann-Hurwitz: 2k - 2 = 2 points), while every chart condition
    of the certificate holds."""
    f = RationalCurve(N=3, e=2, coords=(H(2, 1, 0, 0), H(2, 0, 0, 1),
                                        H(2, 0, 1, 0), H(2, 0, 1, 0)))
    cam = Camera(2, 3, ((F(1), F(2), F(0), F(0)),
                        (F(1), F(-1), F(0), F(0)),
                        (F(3), F(1), F(1), F(-1))))
    return f, Arrangement((cam,))


class TestOneToOneViews:
    def test_two_to_one_view_is_refused_and_redrawn(self):
        f, arr = two_to_one_scene()
        cert = genericity_certificate(arr, f)
        assert not cert.passes and cert.immersion_defect_degree == 2
        assert cert.reasons == ("parameterization is not an immersion (cusp present)",)
        assert not ed_degree_affine(f, arr, 3).certificate.passes
        draws = [arr, generic_arrangement(40, 1, 2, 3)]
        out = count_cell(f, lambda k: draws[k], lambda k: 3 + k, 2)
        assert out.rejected == ("certificate failed: parameterization is not an "
                                "immersion (cusp present)",)
        assert out.arrangement is draws[1] and out.report.ed_degree == 4

    def test_two_to_one_view_beside_a_generic_view_passes(self):
        # the second view separates the fibers and is immersive at both
        # ramification points, so the multiview map is an immersion
        f, arr = two_to_one_scene()
        for cams in ((arr.cameras[0], random_camera(40, 2, 3)),
                     (random_camera(40, 2, 3), arr.cameras[0])):
            pair = Arrangement(cams)
            rep = ed_degree_affine(f, pair, 3)
            assert rep.certificate.passes
            assert rep.ed_degree == rep.formula_value == 10
            assert euler_cross_check(f, pair, 3) == 10

    def test_one_image_per_view_and_one_cusp_form_per_reader(self, monkeypatch):
        calls = {"apply_camera": 0, "cusp_form": 0}
        apply, cusps = scene.apply_camera, scene.cusp_form

        def spy_apply(*args):
            calls["apply_camera"] += 1
            return apply(*args)

        def spy_cusps(*args):
            calls["cusp_form"] += 1
            return cusps(*args)

        monkeypatch.setattr(scene, "apply_camera", spy_apply)
        monkeypatch.setattr(scene, "cusp_form", spy_cusps)
        f = random_curve(77, 3, 3)
        arr = generic_arrangement(300, 3, 2, 3)
        rep = ed_degree_affine(f, arr, 5)
        assert rep.certificate.passes and rep.ed_degree == 3 * 3 * 3 - 2
        # one scene serves the saturation of both samples and the certificate
        assert calls == {"apply_camera": 3, "cusp_form": 1}
        # a repeated count, a triangulation and a cross-check on the same
        # objects read that scene and its certificate again, and build none
        assert ed_degree_affine(f, arr, 7).certificate is rep.certificate
        triangulate(f, arr, random_data_point(5, 3, 2), F(1, 64))
        assert euler_cross_check(f, arr, 5) == rep.ed_degree
        assert calls == {"apply_camera": 3, "cusp_form": 1}
        # an equal but distinct arrangement gets a scene of its own
        twin = Arrangement(arr.cameras)
        assert euler_cross_check(f, twin, 5) == rep.ed_degree
        assert calls == {"apply_camera": 6, "cusp_form": 2}
        # the cross-check fills only the caches it reads: the cusp form,
        # the product of the chart forms and the certificate
        assert set(vars(scene_for(f, twin))) == {
            "curve", "arrangement", "images", "charts", "cusps", "prod_q_form",
            "certificate"}
        assert ed_degree_affine(f, twin, 5) == rep
        assert calls == {"apply_camera": 6, "cusp_form": 2}
        # a cell's count and the cross-check on its outcome's arrangement
        # read that scene again
        out = count_cell(f, twin, lambda k: 5, 1)
        assert out.report == rep and out.arrangement is twin
        assert euler_cross_check(f, out.arrangement, 5) == rep.ed_degree
        assert calls == {"apply_camera": 6, "cusp_form": 2}

    def test_alternating_cells_count_on_their_own_scenes(self):
        # the remembered scene is matched by identity: alternating cells,
        # and an arrangement equal to another but distinct, each count on
        # a scene of their own objects, as on fresh twins of them; the
        # twins' cross-checks each compute the certificate of their scene
        f1, f2 = random_curve(77, 3, 3), twisted_cubic()
        a1, a2 = generic_arrangement(300, 3, 2, 3), generic_arrangement(100, 2, 2, 3)
        twin = Arrangement(a1.cameras)
        cells = ((f1, a1), (f2, a2), (f1, a1), (f1, twin), (f2, a2), (f2, twin))
        want = [(ed_degree_affine(f, Arrangement(arr.cameras), 5),
                 euler_cross_check(f, Arrangement(arr.cameras), 5)) for f, arr in cells]
        got = [(ed_degree_affine(f, arr, 5), euler_cross_check(f, arr, 5))
               for f, arr in cells]
        assert got == want
        for (rep, cross), (f, arr) in zip(want, cells):
            assert rep.ed_degree == cross == 3 * 3 * arr.n - 2


# The camera of the monomial cell of `edcurve sweep --e 3 --n 1 --h 2 --seed
# 1349692743621760768`: its centre (2 : -1 : 0 : 0) lies on the twisted
# cubic's tangent at (1 : 0 : 0 : 0), so the view has a cusp at t = infinity
# and counts 6 where 3en - 2 = 7.
TANGENT_CENTRE_ROWS = ((5, 10, -1, -10), (3, 6, -4, -8), (-2, -4, -3, 3))
# ac04's first camera, generic for the twisted cubic
GENERIC_ROWS = ((2, 0, 0, 1), (3, 0, 1, 0), (5, 1, 0, 0))
RECOUNT_DATA = (((1, 2), (3, -1)), ((F(-5, 3), F(7, 2)), (F(1, 4), -2)))


def _sympy_recount(camera_rows, u) -> int:
    """Distinct critical points on P^1 of the squared distance from u to the
    twisted cubic's multiview image, in sympy alone.

    In each chart X of the cubic, view i has q_i = row_0 . X and
    p_ij = row_j . X.  The numerator of d/dx sum_ij (p_ij/q_i - u_ij)^2 is
    saturated by every q_i and by the gcd over every view of the Wronskians
    of its coordinates (the cusps).  The chart (x^3, x^2, x, 1) is the one
    edcurve counts in; the chart (1, x, x^2, x^3) adds only its point
    x = 0, the parameter t = infinity.
    """
    sp = pytest.importorskip("sympy")
    x = sp.symbols("x")
    count = 0
    for chart in ((x**3, x**2, x, sp.Integer(1)), (sp.Integer(1), x, x**2, x**3)):
        views = [[sp.Poly(sum(c * xk for c, xk in zip(row, chart)), x) for row in rows]
                 for rows in camera_rows]
        dist = sum((p.as_expr() / v[0].as_expr() - sp.Rational(uij)) ** 2
                   for v, ui in zip(views, u) for p, uij in zip(v[1:], ui))
        num, _ = sp.fraction(sp.together(sp.diff(dist, x)))
        g = sp.Poly(sp.expand(num), x)
        cusps = sp.Poly(0, x)
        for v in views:
            for i in range(len(v)):
                for j in range(i + 1, len(v)):
                    cusps = sp.gcd(cusps, v[i].diff(x) * v[j] - v[i] * v[j].diff(x))
        for factor in [v[0] for v in views] + [cusps]:
            while (common := sp.gcd(g, factor)).degree() > 0:
                g = sp.div(g, common)[0]
        if chart[0] == x**3:
            count += sp.sqf_part(g).degree()
        else:
            count += g.eval(0) == 0
    return count


_SMALL = st.integers(-2, 2)


@st.composite
def _small_views(draw):
    """(e, views): one to three views of two to four degree-e forms with
    entries in [-2, 2], so that cusps, zeros at t = infinity, base points
    and point images are common."""
    e = draw(st.integers(1, 4))
    form = st.lists(_SMALL, min_size=e + 1, max_size=e + 1).map(lambda c: HomPoly2(e, c))
    return e, draw(st.lists(st.lists(form, min_size=2, max_size=4), min_size=1, max_size=3))


@st.composite
def _small_cells(draw):
    """A monomial or random curve with e <= 4 and n <= 3 cameras of height
    h in {2, 3}, every entry in [-2, 2]."""
    e = draw(st.integers(1, 4))
    n = draw(st.integers(1, 3))
    h = draw(st.sampled_from((2, 3)))
    if e >= h and draw(st.booleans()):
        f, N = rational_normal_curve(e, e), e
    else:
        N = draw(st.integers(h, 4))
        coords = draw(st.lists(st.lists(_SMALL, min_size=e + 1, max_size=e + 1),
                               min_size=N + 1, max_size=N + 1))
        try:
            f = RationalCurve(N=N, e=e, coords=tuple(HomPoly2(e, c) for c in coords))
        except ValueError:
            assume(False)
    rows = st.lists(_SMALL, min_size=N + 1, max_size=N + 1)
    cams = []
    for _ in range(n):
        try:
            cams.append(Camera(h, N, draw(st.lists(rows, min_size=h + 1, max_size=h + 1))))
        except ValueError:
            assume(False)
    return f, Arrangement(tuple(cams))


class TestMultiviewImmersion:
    """The certificate requires the multiview map to be an immersion; its
    cusp form also drives the cusp saturation and the cross-check guard."""

    @settings(max_examples=300)
    @given(_small_views())
    @example((3, [[H(3, *r) for r in ((-10, -1, 10, 5), (-8, -4, 6, 3), (3, -3, -4, -2))]]))
    @example((3, [[H(3, 0, 0, 0, 1), H(3, 0, 1, 0, 0), H(3, 1, 0, 0, 0)]]))
    @example((3, [[H(3, 0, 0, 0, 1), H(3, 0, 1, 0, 0), H(3, 1, 0, 0, 0)],
                  [H(3, 1, 2, 0, 1), H(3, 0, 1, 3, 0), H(3, 2, 0, 1, 1)]]))
    @example((2, [[H(2, 1, 0, 2), H(2, 1, 0, -1), H(2, 3, 0, 1)]]))
    @example((2, [[H(2, 1, 1, 0), H(2, 2, 2, 0)], [H(2, 0, 1, 0), H(2, 0, 0, 1)]]))
    def test_cusp_form_matches_the_minor_oracle(self, case):
        # examples: the tangent-centre view (cusp at t = infinity), the
        # cuspidal cubic with its cusp at t = infinity, alone and beside an
        # immersive view, the 2:1 conic view, and a point view with another
        e, views = case
        charts = [[c.dehom() for c in view] for view in views]
        try:
            want = minor_gcd_oracle(views)
        except ValueError:
            with pytest.raises(ValueError, match="every view is a point"):
                cusp_form(chart_wronskians(charts), e)
            return
        assert cusp_form(chart_wronskians(charts), e) == want

    def test_a_node_is_not_a_cusp(self):
        # t = 0 and t = 1 share an image point: the view is one-to-one off
        # that node and immersive everywhere, so the certificate keeps it
        node = (H(3, 1, 0, 0, 0), H(3, 0, 1, -1, 0), H(3, 0, 0, 1, -1))
        assert cusp_form(chart_wronskians([[c.dehom() for c in node]]), 3).degree == 0
        assert node[1].evaluate(1, 0) == node[2].evaluate(1, 0) == 0
        assert node[1].evaluate(1, 1) == node[2].evaluate(1, 1) == 0

    def test_tangent_centre_view_is_refused(self):
        tw = twisted_cubic()
        arr = Arrangement((Camera(2, 3, TANGENT_CENTRE_ROWS),))
        assert minor_gcd_oracle(_images(tw, arr)) == H(1, 1, 0)  # s: t = infinity
        rep = ed_degree_affine(tw, arr, 4)
        assert rep.ed_degree == 6 and not rep.formula_match
        assert not rep.certificate.passes
        assert rep.certificate.immersion_defect_degree == 1
        with pytest.raises(CuspError):
            euler_cross_check(tw, arr, 4)

    def test_one_cusp_view_beside_a_generic_view_passes(self):
        # the cusp is joint: the generic view is immersive at t = infinity
        tw = twisted_cubic()
        cusp, generic = Camera(2, 3, TANGENT_CENTRE_ROWS), Camera(2, 3, GENERIC_ROWS)
        for cams in ((cusp, generic), (generic, cusp)):
            arr = Arrangement(cams)
            rep = ed_degree_affine(tw, arr, 4)
            assert rep.certificate.passes and rep.certificate.immersion_defect_degree == 0
            assert rep.ed_degree == rep.formula_value == 16
            assert euler_cross_check(tw, arr, 4) == 16

    def test_sympy_recount_of_the_view_cusp(self):
        tw = twisted_cubic()
        for rows, want in (((TANGENT_CENTRE_ROWS,), 6),
                           ((TANGENT_CENTRE_ROWS, GENERIC_ROWS), 16)):
            arr = Arrangement(tuple(Camera(2, 3, r) for r in rows))
            points = [DataPoint(u=u[:len(rows)]) for u in RECOUNT_DATA]
            for point in points:
                assert _sympy_recount(rows, point.u) == want
            assert ed_degree_affine(tw, arr, 0, data_points=points).ed_degree == want

    @settings(max_examples=150)
    @given(_small_cells(), st.integers(0, 2**32))
    def test_every_certified_count_is_the_closed_form(self, cell, seed):
        f, arr = cell
        try:
            rep = ed_degree_affine(f, arr, seed)
        except (ValueError, DataInstabilityError):
            return  # a refused scene or a degenerate data sample
        if not rep.certificate.passes:
            return
        assert rep.ed_degree == 3 * f.e * arr.n - 2
        try:
            cross = euler_cross_check(f, arr, seed)
        except NonGenericBetaError:
            return
        assert cross == rep.ed_degree


_DATA = st.builds(F, st.integers(-64, 64), st.integers(1, 8))


@st.composite
def _assembly_cells(draw):
    """(curve, arrangement, data): e <= 3, n in 1..9 cameras (an odd n leaves
    a fraction to carry up the pairwise merge), h in {2, 3}, curve entries in
    [-2, 2], seeded cameras with entries in [-2, 2] (a zero chart is
    possible) and rational data.  With ``constant`` the curve's last
    coordinate is s^e and the first camera's chart row picks it, so that
    view's chart is the constant 1."""
    e = draw(st.integers(1, 3))
    h = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(1, 9))
    N = draw(st.integers(h, 4))
    constant = draw(st.booleans())
    rows = draw(st.lists(st.lists(_SMALL, min_size=e + 1, max_size=e + 1),
                         min_size=N + 1, max_size=N + 1))
    if constant:
        rows[N] = [1] + [0] * e
    try:
        f = RationalCurve(N=N, e=e, coords=tuple(HomPoly2(e, r) for r in rows))
    except ValueError:
        assume(False)
    cams = [random_camera(draw(st.integers(0, 2**32)), h, N, bound=2) for _ in range(n)]
    if constant:
        try:
            cams[0] = Camera(h, N, ((0,) * N + (1,),) + cams[0].entries[1:])
        except ValueError:
            assume(False)
    u = DataPoint(u=tuple(tuple(draw(_DATA) for _ in range(h)) for _ in range(n)))
    return f, Arrangement(tuple(cams)), u


# 10^3000 - 1, an entry far wider than every other
_BIG = 10**3000 - 1

_ENTRY = st.builds(F, st.integers(-3, 3), st.sampled_from((1, 1, 2, 3, 7)))


@st.composite
def _edge_cells(draw):
    """(curve, arrangement, data) with the shapes that the Kronecker assembly
    must clear and bound right: e <= 3, n in 1..3, h = 2, N = 3, rational
    curve and camera entries (chart denominators above 1), data with
    denominators of up to 40 digits, and each of these when drawn:

    * ``zero_row``: the curve's last coordinate is 0 and camera 0's row 1
      picks it, so that p_01 = 0;
    * ``constant``: the first coordinate is s^e and camera 0's chart row
      picks it, so that q_0 = 1;
    * ``drop``: the last camera's chart row kills every t^e coefficient, so
      that its chart has a zero at [0:1];
    * ``big``: one curve or camera entry is 10^3000 - 1, or one data entry
      is 1 / (10^3000 - 1)."""
    e = draw(st.integers(1, 3))
    n = draw(st.integers(1, 3))
    zero_row, constant, drop = (draw(st.booleans()) for _ in range(3))
    big = draw(st.sampled_from((None, None, None, "curve", "camera", "data")))
    rows = [[draw(_ENTRY) for _ in range(e + 1)] for _ in range(4)]
    if constant:
        rows[0] = [F(1)] + [F(0)] * e
    if zero_row:
        rows[3] = [F(0)] * (e + 1)
    if big == "curve":
        rows[1][draw(st.integers(0, e))] = F(_BIG)
    try:
        f = RationalCurve(N=3, e=e, coords=tuple(HomPoly2(e, r) for r in rows))
    except ValueError:
        assume(False)
    cams = [[[draw(_ENTRY) for _ in range(4)] for _ in range(3)] for _ in range(n)]
    if constant:
        cams[0][0] = [F(1), F(0), F(0), F(0)]
    if zero_row:
        cams[0][1] = [F(0), F(0), F(0), F(1)]
    if drop:
        # the t^e coefficient of the chart is sum_k row[k] * rows[k][e]
        top = [r[e] for r in rows]
        k = next(k for k, c in enumerate(top) if c)
        row = cams[-1][0]
        row[k] = F(0)
        row[k] = -sum(a * c for a, c in zip(row, top)) / top[k]
    if big == "camera":
        i, j, k = (draw(st.integers(0, m)) for m in (n - 1, 2, 3))
        cams[i][j][k] = F(_BIG)
    try:
        arr = Arrangement(tuple(Camera(2, 3, c) for c in cams))
    except ValueError:
        assume(False)
    data = st.builds(F, st.integers(-10**40, 10**40), st.integers(1, 10**40))
    u = [[draw(data) for _ in range(2)] for _ in range(n)]
    if big == "data":
        u[draw(st.integers(0, n - 1))][draw(st.integers(0, 1))] = F(1, _BIG)
    return f, arr, DataPoint(u=tuple(tuple(row) for row in u))


# every phase but shrinking, for tests whose failing example would shrink
# for minutes before it is reported: each shrink step of ``_edge_cells``
# redraws 40-digit data and reassembles 3000-digit entries, and a wrong
# slot width took one to four minutes to shrink on ``_assembly_cells``;
# a failing term-by-term sum, triangulation reference and small-cell exact
# path shrank for 151 s, 79 s and 39 s
_NO_SHRINK = tuple(p for p in Phase if p is not Phase.shrink)


# an edge cell whose second chart vanishes: camera 1's chart row picks a
# zero coordinate of the curve
_CHART_AT_INFINITY = (
    RationalCurve(N=3, e=3, coords=(H(3, 1, 0, 0, 0), H(3, 0, 0, 0, 1),
                                    H(3, 0, 0, 0, 0), H(3, 0, 0, 0, 0))),
    Arrangement((Camera(2, 3, ((1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))),
                 Camera(2, 3, ((0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0))))),
    DataPoint(u=((0, 0), (0, 0))),
)


def _monomial_cell(a: int, n: int):
    """A cell where the bound of the Kronecker assembly is attained: on the
    twisted cubic, every camera's chart row picks s^3 (q_i = 1) and its rows
    pick a t^3 and a t^2, so that p_i1 = a t^3 and p_i2 = a t^2, with zero
    data.  g = n a^2 (3 t^5 + 2 t^3) has no cancellation, and its largest
    coefficient 3 n a^2 is within a factor 5/3 of the ell-1 bound 5 n a^2."""
    cams = tuple(Camera(2, 3, ((0, 0, 0, 1), (a, 0, 0, 0), (0, a, 0, 0)))
                 for _ in range(n))
    return twisted_cubic(), Arrangement(cams), DataPoint(u=((0, 0),) * n)


class TestTreeAssembly:
    """The Kronecker assemblies of g and of the cross-check's G_beta, one
    evaluation at a packing point each, are the same polynomials as the
    term-by-term sums, and their slots have the width that the norm loop
    written out gives (``l1_bound_oracle``)."""

    @settings(max_examples=150, phases=_NO_SHRINK)
    @given(_assembly_cells())
    def test_critical_polynomial_matches_the_term_by_term_sum(self, cell):
        f, arr, u = cell
        try:
            want = critical_polynomial_oracle(f, arr, u)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                critical_polynomial(f, arr, u)
            return
        assert critical_polynomial(f, arr, u) == want

    def test_constant_chart_and_odd_camera_counts(self):
        tw = twisted_cubic()
        for n in (1, 2, 3, 5, 7, 9):
            cams = (_tw_camera((0, 0, 0, 1)),) + tuple(
                random_camera(60 + i, 2, 3) for i in range(n - 1))
            arr = Arrangement(cams)
            u = random_data_point(n, n, 2)
            assert critical_polynomial(tw, arr, u) == critical_polynomial_oracle(tw, arr, u)

    @settings(max_examples=100)
    @given(_assembly_cells(), st.integers(1, 64))
    def test_perturbed_numerator_matches_the_cofactor_sum(self, cell, beta0):
        f, arr, beta = cell
        images = [apply_camera(c, f) for c in arr.cameras]
        got = eddeg._perturbed_numerator(images, beta.u, F(beta0))
        assert got == perturbed_numerator_oracle(images, beta.u, F(beta0))

    @settings(max_examples=120, phases=_NO_SHRINK)
    @given(_edge_cells(), st.sampled_from((F(0), F(3), F(-7, 5), F(_BIG, 3))))
    @example(_CHART_AT_INFINITY, F(0))
    def test_both_assemblies_on_edge_cells(self, cell, beta0):
        f, arr, u = cell
        try:
            want = critical_polynomial_oracle(f, arr, u)
        except ValueError as exc:
            # a drawn curve can lie in a camera's plane at infinity
            with pytest.raises(ValueError, match=str(exc)):
                critical_polynomial(f, arr, u)
        else:
            assert critical_polynomial(f, arr, u) == want
        images = [apply_camera(c, f) for c in arr.cameras]
        got = eddeg._perturbed_numerator(images, u.u, beta0)
        assert got == perturbed_numerator_oracle(images, u.u, beta0)

    @settings(max_examples=150, phases=_NO_SHRINK)
    @given(_assembly_cells(), st.sampled_from((F(0), F(3), F(-7, 5))))
    def test_l1_bound_matches_the_norm_loop(self, cell, beta0):
        check_l1_bound(*cell, beta0)

    @settings(max_examples=100, phases=_NO_SHRINK)
    @given(_edge_cells(), st.sampled_from((F(0), F(3), F(-7, 5), F(_BIG, 3))))
    @example(_CHART_AT_INFINITY, F(0))
    def test_l1_bound_on_edge_cells(self, cell, beta0):
        check_l1_bound(*cell, beta0)

    @pytest.mark.parametrize("a", [1, 7, 2**40 + 1, 10**50, 3**700],
                             ids=["1", "7", "2^40+1", "10^50", "3^700"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_a_cell_that_attains_the_bound(self, a, n):
        f, arr, u = _monomial_cell(a, n)
        g = critical_polynomial(f, arr, u)
        assert g == critical_polynomial_oracle(f, arr, u)
        assert g == UniPoly((0, 0, 0, 2 * n * a * a, 0, 3 * n * a * a))


def _spy_kron_sum(monkeypatch) -> list:
    """Patch ``eddeg._kron_sum`` to record each call's size; the list."""
    sizes, exact = [], eddeg._kron_sum

    def spy(views, rows, size, **kwargs):
        sizes.append(size)
        return exact(views, rows, size, **kwargs)

    monkeypatch.setattr(eddeg, "_kron_sum", spy)
    return sizes


class TestModularCertificate:
    """A count or a cross-check proved from residues mod 2**17 - 1 is the
    one the exact path gives, and anything the residues do not prove falls
    through to that path."""

    @settings(max_examples=150, deadline=None, phases=_NO_SHRINK)
    @given(_small_cells(), st.integers(0, 2**32))
    def test_small_cells_match_the_exact_path(self, cell, seed):
        f, arr = cell
        for fn in (ed_degree_affine, euler_cross_check):
            assert outcome(fn, f, arr, seed) == exact_outcome(fn, f, arr, seed)

    @settings(max_examples=40, deadline=None, phases=_NO_SHRINK)
    @given(_edge_cells(), st.integers(0, 2**32))
    def test_edge_cells_match_the_exact_path(self, cell, seed):
        f, arr, u = cell
        points = (u, random_data_point(seed, arr.n, arr.h))
        assert (outcome(ed_degree_affine, f, arr, seed, data_points=points)
                == exact_outcome(ed_degree_affine, f, arr, seed, data_points=points))
        assert (outcome(euler_cross_check, f, arr, seed)
                == exact_outcome(euler_cross_check, f, arr, seed))

    @settings(max_examples=100, deadline=None, phases=_NO_SHRINK)
    @given(_edge_cells(), st.sampled_from((F(0), F(3), F(-7, 5), F(_BIG, 3))),
           st.integers(0, 2**32))
    def test_residues_are_the_exact_sum_mod_p(self, cell, beta0, seed):
        # each data point reads one shared view pass, as the samples of a
        # count and the attempts of a cross-check do, and a data pass must
        # leave it as it found it
        f, arr, u = cell
        rows = (u.u, random_data_point(seed, arr.n, arr.h).u, u.u)
        charts, images = charts_and_images(f, arr)
        for views, size, wronskian, constant in (
                (charts, 3 * f.e * arr.n - 1, True, F(0)),
                (images, 2 * f.e * arr.n + 1, False, beta0)):
            shared = eddeg._mod_views(views, size, wronskian=wronskian)
            assert shared.p == 2**17 - 1
            for row in rows:
                h, p = eddeg._kron_sum_mod(shared, row, constant=constant)
                exact = eddeg._kron_sum(views, row, size, wronskian=wronskian,
                                        constant=constant)[0]
                assert h == [c % p for c in exact]

    @pytest.mark.parametrize("size, k", [(2047, 17), (2048, 19)])
    def test_the_slot_width_picks_the_prime(self, size, k):
        # 2k + 3 + bitlen(size) <= 8 nb <= 3k - 1 has no solution at k = 17
        # once size has 12 bits
        tw = twisted_cubic()
        arr = generic_arrangement(11, 1, 2, 3)
        views = Scene(tw, arr).charts
        u = random_data_point(3, 1, 2).u
        h, p = kron_sum_mod(views, u, size, wronskian=True)
        assert p == 2**k - 1
        assert h == [c % p for c in eddeg._kron_sum(views, u, size, wronskian=True)[0]]

    def test_a_generic_large_cell_builds_no_exact_polynomial(self, monkeypatch):
        f = random_curve(2024, 6, 5)
        arr = generic_arrangement(700, 8, 3, 5)
        sizes = _spy_kron_sum(monkeypatch)
        rep, cross = ed_degree_affine(f, arr, 3), euler_cross_check(f, arr, 3)
        assert sizes == []
        assert rep.certificate.passes
        assert rep.ed_degree == rep.critical_poly_degree == cross == 142
        assert (rep.removed_pole_factors, rep.removed_immersion_factors) == (0, 0)
        assert exact_outcome(ed_degree_affine, f, arr, 3) == rep
        assert exact_outcome(euler_cross_check, f, arr, 3) == cross
        assert sizes == [143, 143, 97]

    def test_a_squared_chart_falls_through(self, monkeypatch):
        # the cell of test_a_squared_chart_counts_through_the_modular_gcd:
        # q_0^3 divides g, so no sample can be proved mod p
        f = random_curve(7, 4, 4)
        cams = [random_camera(300 + i, 3, 4) for i in range(4)]
        cams[1] = Camera(3, 4, (cams[0].entries[0], *cams[1].entries[1:]))
        arr = Arrangement(tuple(cams))
        sizes = _spy_kron_sum(monkeypatch)
        rep = count_cell(f, arr, lambda k: 11 + k, 3, require_certificate=False).report
        assert sizes == [47, 47]
        assert (rep.ed_degree, rep.critical_poly_degree, rep.removed_pole_factors) == (34, 46, 4)
        assert exact_outcome(ed_degree_affine, f, arr, 11) == rep

    def test_a_zero_top_residue_falls_through(self, monkeypatch):
        tw = twisted_cubic()
        arr = generic_arrangement(100, 2, 2, 3)
        proved = ed_degree_affine(tw, arr, 5), euler_cross_check(tw, arr, 5)
        residues = eddeg._kron_sum_mod

        def zero_top(*args, **kwargs):
            h, p = residues(*args, **kwargs)
            return h[:-1] + [0], p

        monkeypatch.setattr(eddeg, "_kron_sum_mod", zero_top)
        sizes = _spy_kron_sum(monkeypatch)
        assert (ed_degree_affine(tw, arr, 5), euler_cross_check(tw, arr, 5)) == proved
        assert sizes == [17, 17, 13]
        assert proved[0].ed_degree == proved[1] == 16

    def test_a_double_root_falls_through(self, monkeypatch):
        # only the gcd with H' refuses: g has full degree and a double root
        tw, arr = twisted_cubic(), generic_arrangement(100, 2, 2, 3)
        u = double_root_data(tw, arr, F(1, 2), random.Random(1))
        rc = reduce_critical_polynomial(tw, arr, u)
        assert (rc.raw.degree, rc.reduced.degree) == (16, 15)
        assert (rc.removed_pole_factors, rc.removed_immersion_factors) == (0, 0)
        sizes = _spy_kron_sum(monkeypatch)
        points = (u, random_data_point(5, 2, 2))
        got = outcome(ed_degree_affine, tw, arr, 5, data_points=points)
        assert got == (DataInstabilityError, "data not generic; reseed")
        assert sizes == [17]
        assert exact_outcome(ed_degree_affine, tw, arr, 5, data_points=points) == got

    def test_a_root_at_a_pole_falls_through(self, monkeypatch):
        # the circle (1, t) / (1 + t^2): only the gcd with prod q_i refuses
        # the count, and every G_beta vanishes at the chart's zeros +-i,
        # which only the gcd with the chart of prod Q_k refuses
        circle = RationalCurve(N=2, e=2, coords=(H(2, 1, 0, 1), H(2, 1, 0, 0), H(2, 0, 1, 0)))
        arr = Arrangement((Camera(2, 2, ((1, 0, 0), (0, 1, 0), (0, 0, 1))),
                           random_camera(5, 2, 2)))
        sizes = _spy_kron_sum(monkeypatch)
        rep = ed_degree_affine(circle, arr, 3)
        assert (rep.ed_degree, rep.critical_poly_degree) == (8, 10)
        assert (rep.removed_pole_factors, rep.removed_immersion_factors) == (2, 0)
        with pytest.raises(NonGenericBetaError):
            euler_cross_check(circle, arr, 3)
        assert sizes == [11, 11, 9, 9, 9, 9]
        assert exact_outcome(ed_degree_affine, circle, arr, 3) == rep

    def test_a_cusp_falls_through(self, monkeypatch):
        # every view of the cuspidal cubic has its cusp at t = 0: only the
        # gcd with the cusp chart refuses
        arr = generic_arrangement(9, 2, 2, 2)
        sizes = _spy_kron_sum(monkeypatch)
        rep = ed_degree_affine(cuspidal_cubic(), arr, 3)
        assert (rep.ed_degree, rep.critical_poly_degree) == (15, 16)
        assert (rep.removed_pole_factors, rep.removed_immersion_factors) == (0, 1)
        assert sizes == [17, 17]
        assert exact_outcome(ed_degree_affine, cuspidal_cubic(), arr, 3) == rep

    def test_refusals_keep_their_order_and_messages(self):
        line = line_in_p3()
        # every row restricts to a multiple of s on the line: a point image
        point_rows = ((1, 0, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1))
        # the unit circle (s^2 - t^2, 2st) / (s^2 + t^2) with its centre as
        # data: the distance is constant, so g vanishes identically
        circle = RationalCurve(N=2, e=2, coords=(H(2, 1, 0, -1), H(2, 0, 2, 0),
                                                 H(2, 1, 0, 1)))
        ring = Arrangement((Camera(2, 2, ((0, 0, 1), (1, 0, 0), (0, 1, 0))),))
        centre = DataPoint(u=((0, 0),))
        cases = [
            (line, Arrangement((Camera(1, 3, point_rows[:2]),)), None,
             "h = 1 arrangements are refused"),
            (line, Arrangement((Camera(2, 3, point_rows),)), None,
             "the image of the curve in every view is a point"),
            (circle, ring, (centre, random_data_point(5, 1, 2)),
             "critical polynomial vanished identically"),
        ]
        for f, arr, points, message in cases:
            got = outcome(ed_degree_affine, f, arr, 5, data_points=points)
            assert got[0] is ValueError and got[1].startswith(message)
            assert exact_outcome(ed_degree_affine, f, arr, 5, data_points=points) == got

    def test_a_3000_digit_camera_entry(self, tmp_path, capsys, monkeypatch):
        # eddeg --seed 3 on the twisted cubic, with camera 0's rows[1][2]
        # of two_generic.json replaced by 10^3000 - 1: the residues prove
        # the count and the cross-check, and the exact path prints the same
        sizes = _spy_kron_sum(monkeypatch)
        cameras = _load("two_generic.json")
        cameras["cameras"][0]["rows"][1][2] = str(_BIG)
        (tmp_path / "cameras.json").write_text(json.dumps(cameras))
        argv = ["eddeg", "--curve", str(Path(__file__).parent / "data" / "twisted_cubic.json"),
                "--cameras", str(tmp_path / "cameras.json"), "--seed", "3", "--json"]
        outputs = []
        for run in (outcome, exact_outcome):
            assert run(cli.main, argv) == 0
            outputs.append(capsys.readouterr().out)
        assert sizes == [17, 17, 13]
        assert outputs[0] == outputs[1]
        results = json.loads(outputs[0])["results"]
        assert results["ed_degree"] == results["cross_check"] == 16


def _spy_mod_gcd(monkeypatch) -> list:
    """Patch ``eddeg._mod_gcd`` to record each (b, result); the list."""
    seen, mod_gcd = [], eddeg._mod_gcd

    def spy(a, b, p):
        seen.append((list(b), mod_gcd(a, b, p)))
        return seen[-1][1]

    monkeypatch.setattr(eddeg, "_mod_gcd", spy)
    return seen


def _sympy_chart(form, x):
    sp = pytest.importorskip("sympy")
    return sp.Poly(list(reversed([sp.Rational(c.numerator, c.denominator)
                                  for c in form.dehom().coeffs])) or [0], x)


_SMALL_RAT = st.builds(F, st.integers(-9, 9), st.integers(1, 4))


def _sympy_critical(views, u, x):
    """g = sum_ij (p_ij - u_ij q_i) W_ij prod_{k != i} q_k^3 in sympy, for
    the sympy charts (q_i, p_i1, ...) of each view and the data rows u."""
    sp = pytest.importorskip("sympy")
    qs = [v[0] for v in views]
    return sum(((p - sp.Rational(uij.numerator, uij.denominator) * q)
                * (p.diff(x) * q - p * q.diff(x))
                * sp.prod([r ** 3 for k, r in enumerate(qs) if k != i]))
               for i, ((q, *ps), ui) in enumerate(zip(views, u))
               for p, uij in zip(ps, ui))


class TestCertificateDischargesThePoleGcds:
    """A passing certificate proves that g shares no root with prod q_i and
    G_beta none with the chart of prod Q_k, so the residue proof of a count
    or a cross-check takes only the gcd with H'; a failing certificate
    takes no residue proof at all, and its outcome is the exact path's."""

    @settings(max_examples=60, deadline=None)
    @given(_small_cells(), st.data())
    def test_the_lemma_on_small_cells(self, cell, data):
        sp = pytest.importorskip("sympy")
        f, arr = cell
        try:
            assume(genericity_certificate(arr, f).passes)
        except ValueError:
            assume(False)  # a vanishing chart, or a point image
        x = sp.symbols("x")
        views = [[_sympy_chart(c, x) for c in apply_camera(cam, f)] for cam in arr.cameras]
        rows = st.lists(_SMALL_RAT, min_size=arr.h, max_size=arr.h)
        u = data.draw(st.lists(rows, min_size=arr.n, max_size=arr.n))
        beta = data.draw(st.lists(rows, min_size=arr.n, max_size=arr.n))
        beta0 = data.draw(_SMALL_RAT)
        qs = [v[0] for v in views]
        prod_q = sp.prod(qs)

        g = _sympy_critical(views, u, x)
        g_beta = sp.Rational(beta0.numerator, beta0.denominator) * prod_q ** 2 + sum(
            ((p - sp.Rational(b.numerator, b.denominator) * q) ** 2
             * sp.prod([r ** 2 for k, r in enumerate(qs) if k != i]))
            for i, ((q, *ps), bi) in enumerate(zip(views, beta))
            for p, b in zip(ps, bi))
        assert sp.gcd(g, prod_q).degree() == 0
        assert sp.gcd(g_beta, prod_q).degree() == 0

    def test_a_certified_count_and_cross_check_take_only_the_gcd_with_h_prime(
            self, monkeypatch):
        tw, arr = twisted_cubic(), generic_arrangement(100, 2, 2, 3)
        want = (exact_outcome(ed_degree_affine, tw, arr, 5),
                exact_outcome(euler_cross_check, tw, arr, 5))
        gcds = _spy_mod_gcd(monkeypatch)
        rep = ed_degree_affine(tw, arr, 5)
        assert rep.certificate.passes
        assert (rep, euler_cross_check(tw, arr, 5)) == want
        # two samples and the cross-check, each proved by the gcd with its
        # derivative alone
        assert [(len(b), r) for b, r in gcds] == [(16, [1]), (16, [1]), (12, [1])]

    def test_a_root_at_a_pole_is_found_without_residues(self, monkeypatch):
        # the circle of test_a_root_at_a_pole_falls_through: its chart
        # 1 + t^2 shares its zeros with 1 + t^2 = p_1^2 + p_2^2, so the
        # certificate fails, and both samples take the exact path, whose
        # saturation removes the two roots at the poles
        circle = RationalCurve(N=2, e=2, coords=(H(2, 1, 0, 1), H(2, 1, 0, 0),
                                                 H(2, 0, 1, 0)))
        arr = Arrangement((Camera(2, 2, ((1, 0, 0), (0, 1, 0), (0, 0, 1))),
                           random_camera(5, 2, 2)))
        calls = _spy_calls(monkeypatch, ("_kron_sum_mod",))
        rep = ed_degree_affine(circle, arr, 3)
        assert not rep.certificate.passes
        assert (rep.ed_degree, rep.removed_pole_factors) == (8, 2)
        assert calls == {"_kron_sum_mod": 0}

    @pytest.mark.parametrize("name", ["shared chart row", "conic"])
    def test_a_failing_certificate_takes_no_residue_pass(self, monkeypatch, name):
        if name == "conic":
            f = curve_from_dict(_load("conic.json"))
            arr = arrangement_from_dict(_load("parabola_cam.json"))
        else:
            f = random_curve(7, 4, 4)
            cams = [random_camera(300 + i, 3, 4) for i in range(4)]
            cams[1] = Camera(3, 4, (cams[0].entries[0], *cams[1].entries[1:]))
            arr = Arrangement(tuple(cams))
        want = (exact_outcome(count_cell, f, arr, lambda k: 11 + k, 3,
                              require_certificate=False),
                exact_outcome(euler_cross_check, f, arr, 11))
        calls = _spy_calls(monkeypatch, ("_mod_views", "_kron_sum_mod"))
        out = count_cell(f, arr, lambda k: 11 + k, 3, require_certificate=False)
        assert not out.report.certificate.passes
        # the shared row's cross-check ends in NonGenericBetaError
        assert (out, outcome(euler_cross_check, f, arr, 11)) == want
        assert calls == {"_mod_views": 0, "_kron_sum_mod": 0}

    def test_a_lone_cross_check_computes_one_certificate(self, monkeypatch):
        # on objects no count has seen, or on their twins, a cross-check
        # computes the scene's certificate once and takes the certified
        # path: the gcd with G_beta' alone, and #S_inf from the formal degree
        tw, arr = twisted_cubic(), generic_arrangement(100, 2, 2, 3)
        certified, certify = [], scene._certify
        monkeypatch.setattr(scene, "_certify",
                            lambda sc: certified.append(sc) or certify(sc))
        gcds = _spy_mod_gcd(monkeypatch)
        assert euler_cross_check(tw, arr, 5) == 16
        assert certified == [scene_for(tw, arr)]
        assert euler_cross_check(tw, arr, 5) == 16
        assert euler_cross_check(tw, Arrangement(arr.cameras), 5) == 16
        assert len(certified) == 2 and certified[1] is not certified[0]
        assert [(len(b), r) for b, r in gcds] == [(12, [1])] * 3

    @pytest.mark.parametrize("name, want", [
        ("generic", 16), ("conic", 3),
        ("shared chart row", (NonGenericBetaError, "non-generic beta"))])
    def test_a_lone_cross_check_is_the_exact_one(self, name, want):
        def cell():
            # new objects on every call, so that no scene is shared
            if name == "generic":
                return twisted_cubic(), generic_arrangement(100, 2, 2, 3)
            if name == "conic":
                return (curve_from_dict(_load("conic.json")),
                        arrangement_from_dict(_load("parabola_cam.json")))
            cams = [random_camera(300 + i, 3, 4) for i in range(4)]
            cams[1] = Camera(3, 4, (cams[0].entries[0], *cams[1].entries[1:]))
            return random_curve(7, 4, 4), Arrangement(tuple(cams))

        assert outcome(euler_cross_check, *cell(), 11) == want
        assert exact_outcome(euler_cross_check, *cell(), 11) == want


def _perpendicular(row, vectors) -> list:
    """``row`` minus its orthogonal projection onto the span of ``vectors``,
    over Q (Gram-Schmidt)."""
    basis = []
    for v in [*vectors, row]:
        for b in basis:
            c = sum(x * y for x, y in zip(v, b)) / sum(y * y for y in b)
            v = [x - c * y for x, y in zip(v, b)]
        if any(v):
            basis.append(v)
    return v


def _point_and_tangent(f: RationalCurve, t0) -> tuple[list, list]:
    """f at the parameter t0, or at [0:1] when t0 is None, and the
    derivative of f there in the local parameter: t at [1:t0], s at [0:1]."""
    local = [c.dehom() if t0 is not None else UniPoly(tuple(reversed(c.coeffs)))
             for c in f.coords]
    x = F(0) if t0 is None else t0
    return [c.evaluate(x) for c in local], [c.derivative().evaluate(x) for c in local]


_FAULTS = ("repeated zero", "shared zero", "shared chart row", "sum of squares", "cusp")


@st.composite
def _failing_cells(draw):
    """(curve, arrangement, fault, t0): a conic or cubic in P^3 with
    entries in [-3, 3], under one to three cameras of height 2, with one
    fault that breaks the certificate at the parameter t0, a rational, or
    at [0:1] when t0 is None:

    * ``repeated zero``: camera 0's chart row kills f and f' at t0, so q_0
      has a double zero there;
    * ``shared zero``: the chart rows of cameras 0 and 1 kill f at t0 (at
      [0:1], two degree-drop rows);
    * ``shared chart row``: camera 1 takes camera 0's chart row (t0 is
      None, and not a fault's place);
    * ``sum of squares``: camera 0's centre is f(t0), so q_0 and every
      p_0j vanish there;
    * ``cusp``: every camera's centre lies on the tangent line of f at t0.
    """
    fault = draw(st.sampled_from(_FAULTS))
    e = draw(st.integers(2, 3))
    n = draw(st.integers(2 if fault.startswith("shared") else 1, 3))
    entry = st.integers(-3, 3)
    coords = draw(st.lists(st.lists(entry, min_size=e + 1, max_size=e + 1),
                           min_size=4, max_size=4))
    try:
        f = RationalCurve(N=3, e=e, coords=tuple(HomPoly2(e, c) for c in coords))
    except ValueError:
        assume(False)
    finite = fault != "shared chart row" and draw(st.booleans())
    t0 = draw(_SMALL_RAT) if finite else None
    point, tangent = _point_and_tangent(f, t0)
    row = st.lists(entry.map(F), min_size=4, max_size=4)
    cams = [draw(st.lists(row, min_size=3, max_size=3)) for _ in range(n)]
    if fault == "repeated zero":
        cams[0][0] = _perpendicular(cams[0][0], (point, tangent))
    elif fault == "shared zero":
        for cam in cams[:2]:
            cam[0] = _perpendicular(cam[0], (point,))
    elif fault == "shared chart row":
        cams[1][0] = cams[0][0]
    elif fault == "sum of squares":
        cams[0] = [_perpendicular(r, (point,)) for r in cams[0]]
    else:
        a, b = draw(_SMALL_RAT), draw(_SMALL_RAT.filter(bool))
        centre = [a * x + b * y for x, y in zip(point, tangent)]
        assume(any(centre))
        cams = [[_perpendicular(r, (centre,)) for r in cam] for cam in cams]
    try:
        arr = Arrangement(tuple(Camera(2, 3, cam) for cam in cams))
    except ValueError:
        assume(False)  # a camera not of full rank
    return f, arr, fault, t0


class TestAFailingCertificateBoundsTheCount:
    """The second lemma of ``scene.Scene``: a failing certificate gives
    deg g < 3en - 2, or g a root in common with prod q_i or the cusp chart,
    so the count is below 3en - 2 and no residue proof is lost by skipping
    it."""

    REASONS = {
        "repeated zero": ("has a repeated zero",),
        "shared zero": ("share a zero at infinity",),
        "shared chart row": ("share a zero at infinity",),
        "sum of squares": ("shares a zero with its view's sum of squares",
                           "image coordinates vanish identically"),
        "cusp": ("not an immersion",),
    }

    @settings(max_examples=100, deadline=None)
    @given(_failing_cells(), st.data())
    def test_the_lemma_on_small_cells(self, cell, data):
        sp = pytest.importorskip("sympy")
        f, arr, fault, t0 = cell
        try:
            cert = genericity_certificate(arr, f)
        except ValueError:
            assume(False)  # a vanishing chart, or a point image
        assert not cert.passes
        assert any(want in reason for want in self.REASONS[fault] for reason in cert.reasons)
        x = sp.symbols("x")
        views = [[_sympy_chart(c, x) for c in apply_camera(cam, f)] for cam in arr.cameras]
        rows = st.lists(_SMALL_RAT, min_size=arr.h, max_size=arr.h)
        u = data.draw(st.lists(rows, min_size=arr.n, max_size=arr.n))
        g = _sympy_critical(views, u, x)
        prod_q = sp.prod([v[0] for v in views])
        cusps = sp.Poly(0, x)
        for v in views:
            for a, b in ((a, b) for k, a in enumerate(v) for b in v[k + 1:]):
                cusps = sp.gcd(cusps, a * b.diff(x) - a.diff(x) * b)
        bound = 3 * f.e * arr.n - 2
        assert (g.degree() < bound or sp.gcd(g, prod_q).degree() > 0
                or sp.gcd(g, cusps).degree() > 0)
        # each fault in its own place: a root of g at t0, where prod q_i or
        # the cusp chart vanishes, or a degree drop at [0:1]
        if t0 is not None:
            r = sp.Rational(t0.numerator, t0.denominator)
            assert g.eval(r) == 0 and (prod_q.eval(r) == 0 or cusps.eval(r) == 0)
        elif fault != "shared chart row":
            assert g.degree() <= bound - 1
        second = random_data_point(data.draw(st.integers(0, 2**32)), arr.n, arr.h)
        got = outcome(ed_degree_affine, f, arr, 0,
                      data_points=(DataPoint(u=tuple(map(tuple, u))), second))
        if isinstance(got, EDReport):
            assert got.ed_degree < bound
        else:
            assert got in ((DataInstabilityError, "data not generic; reseed"),
                           (ValueError, "critical polynomial vanished identically; data "
                                        "sits on the variety's symmetry locus"))


def _spy_calls(monkeypatch, names) -> dict:
    """Patch each ``eddeg`` function of ``names`` to count its calls; the
    counts by name."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def spy(*args, _name=name, _fn=getattr(eddeg, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(eddeg, name, spy)
    return calls


class TestOneViewPassPerCount:
    """The data-free half of the residue assembly, the view pass, runs once
    per count and once per cross-check
    (``TestModularCertificate::test_residues_are_the_exact_sum_mod_p``
    checks the residues that each data point reads from it)."""

    @pytest.mark.parametrize("proved", [True, False], ids=["proved", "exact"])
    def test_the_view_pass_runs_once_per_count(self, monkeypatch, proved):
        # the cuspidal cubic's certificate fails, so its samples take the
        # exact path alone, whose own view passes run in the integer rings
        f = twisted_cubic() if proved else cuspidal_cubic()
        arr = generic_arrangement(100, 2, 2, 3) if proved else generic_arrangement(9, 2, 2, 2)
        calls = _spy_calls(monkeypatch, ("_mod_views", "_kron_sum_mod", "_kron_sum"))
        rep = ed_degree_affine(f, arr, 5)
        assert rep.certificate.passes is proved
        assert calls == ({"_mod_views": 1, "_kron_sum_mod": 2, "_kron_sum": 0} if proved
                         else {"_mod_views": 0, "_kron_sum_mod": 0, "_kron_sum": 2})
        assert exact_outcome(ed_degree_affine, f, arr, 5) == rep
        if proved:
            calls.update(dict.fromkeys(calls, 0))
            assert euler_cross_check(f, arr, 5) == 16
            assert calls == {"_mod_views": 1, "_kron_sum_mod": 1, "_kron_sum": 0}


class TestSInfFromTheCertificate:
    """A passing certificate gives prod Q_k exactly en distinct zeros on
    P^1, so a cross-check on a certified scene takes #S_inf from the formal
    degree and takes no squarefree part of prod q."""

    @settings(max_examples=80, deadline=None)
    @given(_small_cells())
    def test_the_lemma_on_small_cells(self, cell):
        sp = pytest.importorskip("sympy")
        f, arr = cell
        try:
            assume(genericity_certificate(arr, f).passes)
        except ValueError:
            assume(False)  # a vanishing chart, or a point image
        form = Scene(f, arr).prod_q_form
        x = sp.symbols("x")
        chart = _sympy_chart(form, x)
        distinct = sp.sqf_part(chart).degree() + (chart.degree() < form.degree)
        assert distinct == form.degree == f.e * arr.n

    def _squarefree_parts(self, monkeypatch) -> list:
        seen, squarefree = [], exactnum.squarefree_part
        monkeypatch.setattr(exactnum, "squarefree_part",
                            lambda p: seen.append(p) or squarefree(p))
        return seen

    def test_a_lone_cross_check_on_a_generic_scene_counts_no_zeros(self, monkeypatch):
        # no certificate is held yet: the cross-check computes one, and it
        # passes, so #S_inf is the formal degree
        tw, arr = twisted_cubic(), generic_arrangement(100, 2, 2, 3)
        seen = self._squarefree_parts(monkeypatch)
        assert euler_cross_check(tw, arr, 5) == 16
        assert "certificate" in vars(scene_for(tw, arr))
        assert seen == []

    def test_a_failing_certificate_counts_the_zeros(self, monkeypatch):
        # Q = s^2 on the conic: one distinct zero, where the formal degree is 2
        f = curve_from_dict(_load("conic.json"))
        arr = arrangement_from_dict(_load("parabola_cam.json"))
        assert not genericity_certificate(arr, f).passes
        seen = self._squarefree_parts(monkeypatch)
        assert outcome(euler_cross_check, f, arr, 11) == \
            exact_outcome(euler_cross_check, f, arr, 11)
        form = scene_for(f, arr).prod_q_form
        assert form.dehom() in seen
        assert hom_distinct_root_count(form) == 1

class TestSumSquaresModPOnCells:
    """The certificate with its sum-of-squares test proved mod p where the
    residues prove it (``scene._sum_square_coprime_mod_p``) is the exact one;
    ``tests/test_scene.py`` tests the proof itself."""

    @settings(max_examples=60, deadline=None, phases=_NO_SHRINK)
    @given(_small_cells())
    def test_small_cells_give_the_exact_certificate(self, cell):
        # the certificate's sum-of-squares test proved mod p gives the
        # certificate of the exact hom_gcd, reasons and all
        # the scene is built inside ``outcome``: it refuses a vanishing chart
        f, arr = cell

        def certify():
            return scene._certify(Scene(f, arr))

        got = outcome(certify)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(scene, "_sum_square_coprime_mod_p", lambda q, ps: False)
            assert got == outcome(certify)


def _double_faults() -> dict:
    """name -> (arrangement, data point, the error reported first) for the
    line [t:s:0:0], each with two refusable faults."""
    def arr(h, *rows):
        return Arrangement((Camera(h, 3, rows),))

    shape, chart, h1 = ("data shape does not match", "curve at infinity of camera 0",
                        "h = 1 arrangements are refused")
    fits, misfit = DataPoint(u=((1,),)), DataPoint(u=((1, 2),))
    return {
        "shape before chart": (arr(2, (0, 0, 1, 0), (1, 0, 0, 0), (0, 1, 0, 0)), fits, shape),
        "chart before h = 1": (arr(1, (0, 0, 1, 0), (1, 0, 0, 0)), fits, chart),
        "shape before h = 1": (arr(1, (0, 1, 0, 0), (1, 0, 0, 0)), misfit, shape),
        # the line images to the point [1:0]
        "h = 1 before point": (arr(1, (0, 1, 0, 0), (0, 0, 1, 0)), fits, h1),
    }


class TestOneRefusalOrder:
    """Every entry that counts or reduces refuses through
    ``eddeg._reduction_scene``, in one order: the samples' shapes, a
    vanishing chart, h = 1, a point image.  Each case has two faults, and
    the one earlier in that order is reported."""

    ENTRIES = {
        "ed_degree_affine": lambda f, arr, u: ed_degree_affine(f, arr, 0, data_points=(u, u)),
        "reduce_critical_polynomial": reduce_critical_polynomial,
        "triangulate": lambda f, arr, u: triangulate(f, arr, u, F(1, 1024)),
        "count_cell": lambda f, arr, u: count_cell(f, arr, lambda k: k, 2, first_data=u),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    @pytest.mark.parametrize("case", sorted(_double_faults()))
    def test_the_first_fault_in_the_order_is_reported(self, entry, case):
        arr, u, first = _double_faults()[case]
        with pytest.raises(ValueError, match=first):
            self.ENTRIES[entry](line_in_p3(), arr, u)

    @pytest.mark.parametrize("case", ["chart before point", "chart before cusp",
                                      "point", "cusp"])
    def test_a_lone_cross_check_refuses_before_its_certificate(self, monkeypatch, case):
        """On objects no count has seen, the cross-check refuses a
        vanishing chart, then a point image, then a cusp, and computes no
        certificate first."""
        cusped = RationalCurve(N=3, e=3, coords=(H(3, 1, 0, 0, 0), H(3, 0, 0, 1, 0),
                                                 H(3, 0, 0, 0, 1), HomPoly2(3)))
        # the line [t:s:0:0]: these rows give [0:0:t], a vanishing chart
        # and a point image, and [t:t:t], a point image alone
        chart_and_point = Camera(2, 3, ((0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0)))
        point = Camera(2, 3, ((1, 0, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1)))
        # the cusped cubic's chart row picks its zero coordinate
        at_infinity = Camera(2, 3, ((0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0)))
        f, cams, error, message = {
            "chart before point": (line_in_p3(), (chart_and_point,), ValueError,
                                   "curve at infinity of camera 0"),
            "chart before cusp": (cusped, (random_camera(7, 2, 3), at_infinity), ValueError,
                                  "curve at infinity of camera 1"),
            "point": (line_in_p3(), (point,), ValueError,
                                  "the image of the curve in every view is a point"),
            "cusp": (cusped, (random_camera(7, 2, 3),), CuspError,
                     "cross-check requires immersion"),
        }[case]
        certified = []
        monkeypatch.setattr(scene, "_certify", certified.append)
        assert outcome(euler_cross_check, f, Arrangement(cams), 0) == (error, message)
        assert certified == []

    def test_differing_dimensions_are_refused_with_one_message(self):
        """The certificate has no check of its own: every entry refuses a
        curve in P^2 under cameras from P^3 where the scene applies them."""
        f, arr = rational_normal_curve(2, 2), Arrangement((random_camera(1, 2, 3),))
        entries = (lambda: scene_for(f, arr), lambda: genericity_certificate(arr, f),
                   lambda: ed_degree_affine(f, arr, 0), lambda: euler_cross_check(f, arr, 0))
        for entry in entries:
            with pytest.raises(ValueError) as exc:
                entry()
            assert str(exc.value) == "camera expects world dimension 3, curve has 2"


class TestEulerCrossCheck:
    def test_twisted_cubic(self):
        assert euler_cross_check(twisted_cubic(), generic_arrangement(11, 1, 2, 3), 5) == 7

    def test_line_two_cameras(self):
        assert euler_cross_check(line_in_p3(), generic_arrangement(100, 2, 2, 3), 1) == 4

    def test_matches_direct_count_on_random_quadric(self):
        f = random_curve(404, 2, 4)
        arr = generic_arrangement(505, 2, 2, 4)
        value = euler_cross_check(f, arr, 9)
        assert value == 10
        assert value == ed_degree_affine(f, arr, 9).ed_degree

    def test_refuses_cusps(self):
        arr = Arrangement((random_camera(1234, 2, 2),))
        with pytest.raises(CuspError, match="cross-check requires immersion"):
            euler_cross_check(cuspidal_cubic(), arr, 0)


class TestProjectiveSmoothCurve:
    def test_monomial_curves(self):
        for e in range(1, 6):
            assert projective_ed_degree_smooth_curve(
                rational_normal_curve(e, e)) == 3 * e - 2

    def test_padded_line(self):
        assert projective_ed_degree_smooth_curve(line_in_p3()) == 1

    def test_refuses_cusp(self):
        with pytest.raises(CuspError):
            projective_ed_degree_smooth_curve(cuspidal_cubic())


class TestAlgebraicLaws:
    def test_wronskian_degree_drop(self):
        rng = random.Random(13)
        for e in range(1, 9):
            for _ in range(5):
                p = UniPoly(tuple(F(rng.randint(-9, 9)) for _ in range(e))
                            + (F(rng.randint(1, 9)),))
                q = UniPoly(tuple(F(rng.randint(-9, 9)) for _ in range(e))
                            + (F(rng.randint(1, 9)),))
                w = p.derivative() * q - p * q.derivative()
                assert w.is_zero or w.degree <= 2 * e - 2

    def test_reduction_bookkeeping(self):
        f = cuspidal_cubic()
        arr = Arrangement((random_camera(1234, 2, 2),))
        rc = reduce_critical_polynomial(f, arr, random_data_point(3, 1, 2))
        assert rc.raw.degree == 7
        assert rc.reduced.degree == 6
        assert rc.removed_immersion_factors == 1


class TestTriangulate:
    def test_orthogonal_foot(self):
        u = DataPoint(u=((F(0), F(5)),))
        res = triangulate(line_in_p3(), Arrangement((axis_camera(),)),
                          u, F(1, 1000))
        assert not res.no_finite_minimizer
        assert len(res.critical_parameters) == 1
        iv = res.critical_parameters[0]
        assert iv.lo <= 0 <= iv.hi
        assert F(25) <= res.distances[0] <= F(25) + F(1, 10**5)
        assert res.min_lower_bound <= 25

    def test_zero_distance_at_known_parameter(self):
        f = twisted_cubic()
        arr = generic_arrangement(23, 2, 2, 3)
        t0 = F(1, 2)
        res = triangulate(f, arr, image_of(f, arr, t0), F(1, 512))
        best = res.critical_parameters[res.argmin_index]
        assert best.lo <= t0 <= best.hi
        d = res.distances[res.argmin_index]
        err = res.distance_error_bounds[res.argmin_index]
        assert 0 <= d <= err
        assert res.min_lower_bound <= 0

    def test_argmin_beats_dense_grid(self):
        f = twisted_cubic()
        arr = generic_arrangement(11, 1, 2, 3)
        u = random_data_point(8, 1, 2)
        res = triangulate(f, arr, u, F(1, 1024))
        n_real = len(res.critical_parameters)
        assert 1 <= n_real <= 7
        d_best = res.distances[res.argmin_index]
        err = res.distance_error_bounds[res.argmin_index]
        img = apply_camera(arr.cameras[0], f)
        q = img[0].dehom()
        for k in range(1000):
            t = F(k - 500, 100)  # -5.00 .. 4.99 in steps of 1/100
            if q.evaluate(t) == 0:
                continue
            assert d_best - err <= exact_distance(f, arr, u, t)

    def test_widths_respected_and_world_point(self):
        f = twisted_cubic()
        arr = generic_arrangement(11, 1, 2, 3)
        res = triangulate(f, arr, random_data_point(8, 1, 2), F(1, 4096))
        for iv in res.critical_parameters:
            assert iv.hi - iv.lo <= F(1, 4096)
        assert res.world_point is not None
        assert len(res.world_point) == 4
        assert len(res.image_blocks) == 1 and len(res.image_blocks[0]) == 2

    def test_distances_sorted_consistently(self):
        f = twisted_cubic()
        arr = generic_arrangement(11, 1, 2, 3)
        res = triangulate(f, arr, random_data_point(12, 1, 2), F(1, 1024))
        d_best = res.distances[res.argmin_index]
        assert all(d_best <= d for d in res.distances)
        params = [iv.lo for iv in res.critical_parameters]
        assert params == sorted(params)

    @pytest.mark.parametrize("seed,width", [(0, F(1, 1024)), (1, F(1, 4)), (4, F(1, 4)),
                                            (5, F(1))])
    def test_error_bounds_hold_at_a_fine_refinement(self, seed, width):
        # |d_k - D(r_k)| <= err_k for every critical point r_k, with D(r_k)
        # read at the midpoint of r_k refined to width 1e-60
        f = twisted_cubic()
        arr = generic_arrangement(11 + seed, 2, 2, 3)
        u = random_data_point(8 + seed, 2, 2)
        res = triangulate(f, arr, u, width)
        reduced = reduce_critical_polynomial(f, arr, u).reduced
        assert res.critical_parameters
        for iv, d, err in zip(res.critical_parameters, res.distances,
                              res.distance_error_bounds):
            fine = refine_root(reduced, iv, F(1, 10**60))
            assert abs(d - exact_distance(f, arr, u, fine.midpoint)) <= err

    def test_first_order_bound_when_the_second_order_test_fails(self):
        # the parabola t -> (t, t^2) under an affine camera: Q = 1, so the
        # floor is 1 and no pole shrinks the interval.  At u = (1/3, -1),
        # g = 2t^3 + 3t - 1/3 has one real root, and a width bound of 8 keeps
        # its Cauchy box (-3, 3).  There G1 w = 57 * 6 > 2 g_upper = 380/3,
        # so the bound is the first-order g_upper w / floor = 380
        cam = Camera(2, 3, ((F(0), F(0), F(0), F(1)),
                            (F(0), F(0), F(1), F(0)),
                            (F(0), F(1), F(0), F(0))))
        f, arr, u = twisted_cubic(), Arrangement((cam,)), DataPoint(u=((F(1, 3), F(-1)),))
        res = triangulate(f, arr, u, F(8))
        rc = reduce_critical_polynomial(f, arr, u)
        assert rc.raw == UniPoly((F(-1, 3), 3, 0, 2))
        (iv,) = res.critical_parameters
        assert (iv.lo, iv.hi) == (-3, 3)
        g_upper = ref_abs_upper(rc.raw, iv.lo, iv.hi)
        g1 = ref_abs_upper(rc.raw.derivative(), iv.lo, iv.hi)
        assert g1 * iv.width > 2 * g_upper
        assert res.distance_error_bounds == (g_upper * iv.width,) == (380,)
        fine = refine_root(rc.reduced, iv, F(1, 10**60))
        assert abs(res.distances[0] - exact_distance(f, arr, u, fine.midpoint)) <= 380

    def test_json_shape(self):
        f = twisted_cubic()
        arr = generic_arrangement(11, 1, 2, 3)
        res = triangulate(f, arr, random_data_point(8, 1, 2), F(1, 1024))
        d = res.to_json_dict()
        assert d["no_finite_minimizer"] is False
        assert len(d["critical_parameters"]) == len(res.critical_parameters)
        assert isinstance(d["distances"][0], str)

    # SHA-256 of json.dumps(triangulate(...).to_json_dict(), sort_keys=True),
    # recorded before integer sign evaluation replaced the Fraction one in
    # isolation and refinement: every interval, refinement count and exact
    # value must stay byte-identical.  In the near-pole scene the data point
    # is 10^155 away, so the nearest critical parameter sits about 2^-1541
    # from a pole and both shrink loops run for hundreds of steps; its exact
    # values have more digits than int-to-str converts by default, so that
    # digest was recorded with the limit lifted.
    GOLDEN = {
        "twisted-cubic-two-views":
            "56859f869fb9da75c65ebe84831ee8c624b41d113cb4e986ba69a17377de9ee1",
        "quartic-four-views":
            "f9c77f3f5031ce09b79edeef71900a291e4468a22563e2f530f3eedbf4b3689f",
        "twisted-cubic-near-pole":
            "28646c9f64da94c3e37c835da7e9f240b35b8be0af77853e3a77174663671411",
    }

    @pytest.mark.parametrize("scene", sorted(GOLDEN))
    def test_golden_bytes(self, scene):
        res = triangulate(*_golden_scene(scene), F(1, 10**12))
        text = json.dumps(res.to_json_dict(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == self.GOLDEN[scene]

    # -- every exact value against its Fraction expression ------------------

    @pytest.mark.parametrize("scene", sorted(GOLDEN))
    def test_golden_values_match_the_fraction_reference(self, scene):
        f, arr, u = _golden_scene(scene)
        assert triangulate(f, arr, u, F(1, 10**12)) == ref_triangulate(f, arr, u, F(1, 10**12))

    @settings(max_examples=60, deadline=None, phases=_NO_SHRINK)
    @given(curve_seed=st.integers(0, 50), camera_seed=st.integers(0, 500),
           n=st.integers(1, 2), data_seed=st.integers(0, 500),
           width=st.sampled_from((F(1), F(1, 4), F(1, 1000), F(3, 2**20), F(1, 10**12))))
    def test_cell_values_match_the_fraction_reference(self, curve_seed, camera_seed, n,
                                                      data_seed, width):
        f = twisted_cubic() if curve_seed == 0 else random_curve(curve_seed, 3, 3)
        arr = generic_arrangement(camera_seed, n, 2, 3)
        u = random_data_point(data_seed, n, 2)
        try:
            want = ref_triangulate(f, arr, u, width)
        except ValueError:
            assume(False)
        assert triangulate(f, arr, u, width) == want

    def test_window_ends_that_are_not_dyadic(self):
        # the parabola t -> (t, t^2) with u = (0, 1) has g = 2t^3 - t, whose
        # root 0 is the first midpoint of the Cauchy box (-2, 2) and of the
        # fenced interval (-1/2, 1/2).  Refinement to width 1/1000 meets it
        # again and returns _bisect's window (-1/2000, 1/2000): the midpoint is
        # the dyadic root, but its ends, the width, the half-width and the
        # bound point M = 1/2000 have denominators that are not powers of two
        cam = Camera(2, 3, ((F(0), F(0), F(0), F(1)),
                            (F(0), F(0), F(1), F(0)),
                            (F(0), F(1), F(0), F(0))))
        f, arr, u = twisted_cubic(), Arrangement((cam,)), DataPoint(u=((F(0), F(1)),))
        res = triangulate(f, arr, u, F(1, 1000))
        assert [(iv.hi, iv.lo) for iv in res.critical_parameters][1] == (F(1, 2000), F(-1, 2000))
        assert res == ref_triangulate(f, arr, u, F(1, 1000))

    # -- exact width bounds ---------------------------------------------------

    @pytest.mark.parametrize("width", [1e-3, 0.5])
    def test_a_float_width_bound_is_refused(self, width):
        with pytest.raises(TypeError, match="exact rational"):
            triangulate(twisted_cubic(), generic_arrangement(11, 1, 2, 3),
                        random_data_point(8, 1, 2), width)

    def test_a_width_bound_string_must_be_a_rational_literal(self):
        f, arr, u = twisted_cubic(), generic_arrangement(11, 1, 2, 3), random_data_point(8, 1, 2)
        with pytest.raises(ValueError, match="not a rational literal"):
            triangulate(f, arr, u, "1e-3")
        assert triangulate(f, arr, u, "1/1024") == triangulate(f, arr, u, F(1, 1024))


def _plain_least(pairs):
    """The lower bound's selection with one exact cross-multiplication per
    comparison: the first pair (num, den) of least value."""
    low_n, low_d = pairs[0]
    for n, den in pairs[1:]:
        if n * low_d < low_n * den:
            low_n, low_d = n, den
    return low_n, low_d


@st.composite
def least_pairs(draw):
    """(num, den) pairs, den > 0, as the lower bound compares them: pairs of
    up to 5400 bits, one value at different scales and a unit of the last of
    up to 5400 bits away from it, and quotients beyond the float range."""
    n0 = draw(st.integers(min_value=-2**100, max_value=2**100))
    d0 = draw(st.integers(min_value=1, max_value=2**100))
    pairs = []
    for _ in range(draw(st.integers(min_value=1, max_value=10))):
        kind = draw(st.sampled_from(("near", "free", "overflow", "underflow")))
        scale = 1 << draw(st.integers(min_value=0, max_value=5300))
        if kind == "near":
            pairs.append((n0 * scale + draw(st.integers(min_value=-1, max_value=1)), d0 * scale))
        elif kind == "free":
            pairs.append((draw(st.integers(min_value=-2**5400, max_value=2**5400)),
                          draw(st.integers(min_value=1, max_value=2**5400))))
        elif kind == "overflow":
            pairs.append((draw(st.sampled_from((1, -1))) * (d0 << 1100) * scale + n0, d0 * scale))
        else:
            pairs.append((n0 * scale, d0 << 1100))
    return pairs


class TestLeastLowerBound:
    @settings(max_examples=300)
    @given(pairs=least_pairs())
    @example(pairs=[(1, 3), (2, 6), (0, 1), (-1, 2**1100), (-2, 2**1101)])
    @example(pairs=[(2**1100, 1), (2**1100 + 1, 1), (-2**1100, 3), (-2**1101, 6)])
    @example(pairs=[(3 * 2**5300 + 1, 2**5300), (3 * 2**5300, 2**5300), (3, 1)])
    def test_matches_the_plain_comparison(self, pairs):
        assert eddeg._least(pairs) == _plain_least(pairs)


def _golden_scene(name: str) -> tuple[RationalCurve, Arrangement, DataPoint]:
    """(curve, arrangement, data) of a golden triangulation scene."""
    data = Path(__file__).parent / "data"
    if name.startswith("twisted-cubic"):
        if name == "twisted-cubic-two-views":
            arr = arrangement_from_dict(json.loads((data / "two_generic.json").read_text()))
            return twisted_cubic(), arr, random_data_point(5, 2, 2)
        arr = arrangement_from_dict(json.loads((data / "one_generic.json").read_text()))
        return twisted_cubic(), arr, DataPoint(u=((F(10**155), F(3)),))
    return random_curve(100, 4, 3), generic_arrangement(200, 4, 2, 3), random_data_point(300, 4, 2)


def ref_triangulate(f: RationalCurve, arr: Arrangement, u: DataPoint,
                    width_bound: F) -> TriangulationResult:
    """``triangulate`` with every value in Fraction arithmetic, as its bounds
    loop computed them before they became integer pairs: the floor
    |Q(m)| - S w / 2, the distance N(m) / Q2(m), both derivative bounds
    (``ref_abs_upper``), the error bound, the world point, the image blocks
    and the lower bound.  Isolation, refinement and the interval halvings
    are triangulate's own."""
    scene = scene_for(f, arr)
    rc = reduce_critical_polynomial(f, arr, u)
    intervals = sturm_isolate(rc.reduced)
    if not intervals:
        return TriangulationResult((), (), (), None, None, None, width_bound, True, None)

    def sign(x):
        return (x > 0) - (x < 0)

    qprod = scene.prod_q
    poles = squarefree_part(qprod) if qprod.degree else UniPoly((F(1),))
    pole_ivs = sturm_isolate(poles) if poles.degree else []
    pole_signs = [sign(poles.evaluate(pv.lo)) for pv in pole_ivs]
    pole_free = []
    for iv in intervals:
        iv = refine_root(rc.reduced, iv, width_bound)
        slo = sign(rc.reduced.evaluate(iv.lo))
        for idx, pv in enumerate(pole_ivs):
            while not (iv.hi <= pv.lo or pv.hi <= iv.lo):
                iv = eddeg._halve(rc.reduced.num, iv, slo)
                pv = eddeg._halve(poles.num, pv, pole_signs[idx])
            pole_ivs[idx] = pv
        pole_free.append((iv, slo))

    cubes, dist_den = UniPoly((1,)), HomPoly2(0, (1,))
    for (q, *_), img in zip(scene.charts, scene.images):
        cubes = cubes * q * q * q
        dist_den = dist_den * img[0] * img[0]
    dist_num = perturbed_numerator_oracle(scene.images, u.u, 0)
    slope = cubes.derivative()
    ivs, distances, bounds = [], [], []
    for iv, slo in pole_free:
        while True:
            m = iv.midpoint
            floor = abs(cubes.evaluate(m)) - ref_abs_upper(slope, iv.lo, iv.hi) * iv.width / 2
            if floor > 0:
                break
            iv = eddeg._halve(rc.reduced.num, iv, slo)
        g_upper = ref_abs_upper(rc.raw, iv.lo, iv.hi)
        g1 = ref_abs_upper(rc.raw.derivative(), iv.lo, iv.hi)
        err = g_upper / floor * iv.width / 2
        if g1 * iv.width > 2 * g_upper:
            err *= 2
        ivs.append(iv)
        distances.append(dist_num.evaluate(1, m) / dist_den.evaluate(1, m))
        bounds.append(err)
    argmin = min(range(len(distances)), key=lambda k: (distances[k], k))
    tstar = ivs[argmin].midpoint
    blocks = tuple(tuple(p.evaluate(tstar) / q.evaluate(tstar) for p in ps)
                   for q, *ps in scene.charts)
    return TriangulationResult(
        critical_parameters=tuple(ivs), distances=tuple(distances),
        distance_error_bounds=tuple(bounds), argmin_index=argmin,
        world_point=f.evaluate(F(1), tstar), image_blocks=blocks, width_bound=width_bound,
        no_finite_minimizer=False, min_lower_bound=min(d - b for d, b in zip(distances, bounds)))
