"""Tests for world curves, cameras, arrangements, and the genericity certificate."""

from __future__ import annotations

import json
import random
from fractions import Fraction as F
from math import lcm
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bulk_properties import ref_cusp_form
from edcurve import exactnum, scene
from edcurve.exactnum import HomPoly2, UniPoly, hom_gcd_many
from edcurve.scene import (
    Arrangement,
    Camera,
    RationalCurve,
    Scene,
    apply_camera,
    arrangement_from_dict,
    arrangement_to_dict,
    camera_from_dict,
    camera_to_dict,
    chart_wronskians,
    curve_from_dict,
    curve_to_dict,
    _exact_rank,
    cusp_form,
    genericity_certificate,
    random_camera,
    random_camera_block_pairs,
    random_camera_degree_drop,
    random_curve,
    rational_normal_curve,
    scene_for,
)

DATA = Path(__file__).parent / "data"
SCHEMAS = Path(__file__).parent.parent / "src" / "edcurve" / "schemas"


def H(e, *coeffs):
    return HomPoly2(e, tuple(F(c) for c in coeffs))


def twisted_cubic() -> RationalCurve:
    return rational_normal_curve(3, 3)


def cuspidal_cubic() -> RationalCurve:
    # [s^3 : s t^2 : t^3] — a cusp at [0:1] (the Jacobian minors share a factor)
    return RationalCurve(N=2, e=3, coords=(
        H(3, 1, 0, 0, 0), H(3, 0, 0, 1, 0), H(3, 0, 0, 0, 1)))


class TestRationalCurve:
    def test_monomial_curves(self):
        f = twisted_cubic()
        assert (f.N, f.e) == (3, 3)
        # coords[k] = s^k t^(e-k): [t^3, s t^2, s^2 t, s^3]
        assert f.coords[0] == H(3, 0, 0, 0, 1)
        assert f.coords[1] == H(3, 0, 0, 1, 0)
        assert f.coords[2] == H(3, 0, 1, 0, 0)
        assert f.coords[3] == H(3, 1, 0, 0, 0)

    def test_line_and_quartic(self):
        line = rational_normal_curve(1, 1)
        assert line.coords == (H(1, 0, 1), H(1, 1, 0))  # [t, s]
        quartic = rational_normal_curve(4, 4)
        assert len(quartic.coords) == 5
        assert quartic.coords[2] == H(4, 0, 0, 1, 0, 0)  # s^2 t^2

    def test_monomial_curve_requires_matching_ambient(self):
        with pytest.raises(ValueError, match="pad explicitly"):
            rational_normal_curve(2, 3)

    def test_rejects_base_point(self):
        # common factor t: [t^2, st] has a base point at t = 0
        with pytest.raises(ValueError, match="base point"):
            RationalCurve(N=1, e=2, coords=(H(2, 0, 0, 1), H(2, 0, 1, 0)))

    def test_rejects_mixed_degrees_and_all_zero(self):
        with pytest.raises(ValueError, match="formal degree"):
            RationalCurve(N=1, e=2, coords=(H(2, 1, 0, 0), H(1, 1, 0)))
        with pytest.raises(ValueError, match="vanish"):
            RationalCurve(N=1, e=2, coords=(HomPoly2(2), HomPoly2(2)))

    def test_evaluate(self):
        f = twisted_cubic()
        assert f.evaluate(F(1), F(2)) == (F(8), F(4), F(2), F(1))

    def test_immersion_flags(self):
        assert twisted_cubic().is_immersion
        cusp = cuspidal_cubic()
        assert not cusp.is_immersion
        charts = [[c.dehom() for c in cusp.coords]]
        assert cusp_form(chart_wronskians(charts), cusp.e).degree >= 1

    def test_base_point_free_monomial_family(self):
        for e in range(1, 9):
            f = rational_normal_curve(e, e)
            assert hom_gcd_many(f.coords).degree == 0


@st.composite
def _wronskian_families(draw):
    """(e, Wronskians of degree <= 2e - 2): multiples of one shared chart
    factor, all of degree at most 2e - 2 - k for a shared power s^k, with
    zero members mixed in."""
    e = draw(st.integers(1, 4))
    top = 2 * e - 2
    shared = UniPoly(tuple(draw(st.lists(st.integers(-3, 3), min_size=1,
                                         max_size=top + 1).filter(any))))
    room = top - shared.degree
    k = draw(st.integers(0, room))
    ws = []
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.booleans()) and draw(st.booleans()):
            ws.append(UniPoly())
            continue
        cs = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=room - k + 1))
        ws.append(shared * UniPoly(tuple(cs)))
    return e, ws


def _stop_at_constant(ws, e):
    """Yield ws, and raise if asked for one more once the Wronskians read so
    far have a constant cusp form."""
    seen = []
    for w in ws:
        seen.append(w)
        yield w
        if any(seen) and ref_cusp_form(seen, e).degree == 0:
            raise AssertionError("read past the first constant gcd")


class TestCuspForm:
    @settings(max_examples=300)
    @given(_wronskian_families())
    @example((2, [UniPoly(), UniPoly()]))                         # all zero
    @example((2, []))                                             # no Wronskian
    @example((1, [UniPoly(), UniPoly((3,)), UniPoly((-5,))]))     # e = 1
    @example((2, [UniPoly((2,)), UniPoly((1, 1, 1))]))            # constant first
    @example((2, [UniPoly((1, 1)), UniPoly((-1, 1))]))            # shared s
    @example((3, [UniPoly((1, 0, 1)), UniPoly(),                  # shared s and chart
                  UniPoly((1, 0, 1)) * UniPoly((-2, 1))]))
    def test_matches_the_chart_loop(self, case):
        e, ws = case
        try:
            want = ref_cusp_form(ws, e)
        except ValueError:
            with pytest.raises(ValueError, match="every view is a point"):
                cusp_form(iter(ws), e)
            return
        assert cusp_form(iter(ws), e) == want

    def test_reads_no_further_than_the_first_constant_gcd(self):
        ws = [UniPoly((1, 0, 1)), UniPoly((-1, 0, 1)), UniPoly((2, 3))]
        assert cusp_form(_stop_at_constant(ws, 2), 2) == HomPoly2(0, (1,))
        forms = (HomPoly2(2, w.coeffs) for w in _stop_at_constant(ws, 2))
        assert hom_gcd_many(forms) == HomPoly2(0, (1,))

    def test_scene_cusps_read_no_further(self, monkeypatch):
        f = twisted_cubic()
        arr = Arrangement(tuple(random_camera(s, 2, 3) for s in (5, 6, 7)))
        want = Scene(f, arr).cusps
        assert want.degree == 0
        wronskians = scene.chart_wronskians
        monkeypatch.setattr(scene, "chart_wronskians",
                            lambda views: _stop_at_constant(wronskians(views), f.e))
        assert Scene(f, arr).cusps == want

    def test_a_gcd_error_is_not_a_point_image(self, monkeypatch):
        def refuse(a, b):
            raise ValueError("coefficients too large for the modular gcd")

        monkeypatch.setattr(exactnum, "poly_gcd", refuse)
        ws = [UniPoly((1, 0, 1)), UniPoly((-1, 0, 1))]
        with pytest.raises(ValueError, match="too large"):
            cusp_form(iter(ws), 2)


@st.composite
def _low_rank_rows(draw):
    """Rows of rational entries, products of a k x c basis and integer
    combinations (zero rows and rank below k among them), with some columns
    set to zero."""
    r, c = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    k = draw(st.integers(0, min(r, c)))
    entry = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    basis = [[draw(entry) for _ in range(c)] for _ in range(k)]
    zero_cols = draw(st.sets(st.integers(0, c - 1)))
    rows = []
    for _ in range(r):
        coeffs = [draw(st.integers(-3, 3)) for _ in range(k)]
        rows.append([F(0) if j in zero_cols else
                     sum((a * b[j] for a, b in zip(coeffs, basis)), F(0))
                     for j in range(c)])
    return rows


class TestCamera:
    def test_full_rank_enforced(self):
        with pytest.raises(ValueError, match="full rank"):
            Camera(1, 2, ((F(1), F(2), F(3)), (F(2), F(4), F(6))))

    def test_shape_enforced(self):
        with pytest.raises(ValueError, match=r"\(h\+1\) x \(N\+1\)"):
            Camera(2, 3, ((F(1), F(0), F(0), F(0)),) * 2)
        # a string row, or a string for the rows, is not read digit by digit
        # as [[1, 2], [3, 4]]
        with pytest.raises(TypeError, match="string"):
            Camera(1, 1, ["12", "34"])
        with pytest.raises(TypeError, match="string"):
            Camera(1, 1, "12")
        with pytest.raises(TypeError, match="string"):
            Camera(1, 1, [[1, 2], "34"])

    @settings(max_examples=300)
    @given(_low_rank_rows())
    @example([[F(0)] * 3] * 2)
    @example([[F(0), F(1, 2), F(0)], [F(0), F(-1, 3), F(0)], [F(0), F(0), F(0)]])
    def test_rank_matches_sympy(self, rows):
        sp = pytest.importorskip("sympy")
        matrix = sp.Matrix([[sp.Rational(x.numerator, x.denominator) for x in row]
                            for row in rows])
        # each row cleared to integers by the lcm of its denominators, which
        # keeps the rank
        ints = [[x.numerator * (lcm(*(y.denominator for y in row)) // x.denominator)
                 for x in row] for row in rows]
        assert _exact_rank(ints) == matrix.rank()

    def test_forty_rows_construct(self):
        """Fraction-free elimination without division doubled the entry sizes
        with every pivot row: a 31 x 32 camera took minutes."""
        rng = random.Random(40)
        rows = [[rng.randint(-10, 10) for _ in range(41)] for _ in range(40)]
        assert Camera(39, 40, rows).h == 39


class TestArrangement:
    def test_dimensions_shared(self):
        a = random_camera(1, 2, 3)
        b = random_camera(2, 2, 3)
        arr = Arrangement((a, b))
        assert (arr.n, arr.h, arr.N) == (2, 2, 3)

    def test_rejects_empty_and_mismatched(self):
        with pytest.raises(ValueError):
            Arrangement(())
        with pytest.raises(ValueError):
            Arrangement((random_camera(1, 2, 3), random_camera(2, 1, 3)))


class TestApplyCamera:
    def test_identity_like_rows_select_coordinates(self):
        rows = ((F(1), F(0), F(0), F(0)),
                (F(0), F(1), F(0), F(0)),
                (F(0), F(0), F(1), F(0)))
        img = apply_camera(Camera(2, 3, rows), twisted_cubic())
        assert img == (H(3, 0, 0, 0, 1), H(3, 0, 0, 1, 0), H(3, 0, 1, 0, 0))

    def test_last_basis_row_selects_last_coordinate(self):
        rows = ((F(0), F(0), F(0), F(1)), (F(1), F(0), F(0), F(0)))
        img = apply_camera(Camera(1, 3, rows), twisted_cubic())
        assert img[0] == H(3, 1, 0, 0, 0)  # s^3

    def test_explicit_integer_camera_blocks(self):
        c1 = Camera(2, 3, ((F(2), F(0), F(0), F(1)),
                           (F(3), F(0), F(1), F(0)),
                           (F(5), F(1), F(0), F(0))))
        img = apply_camera(c1, twisted_cubic())
        assert img[0] == H(3, 1, 0, 0, 2)  # s^3 + 2 t^3
        assert img[1] == H(3, 0, 1, 0, 3)  # s^2 t + 3 t^3
        assert img[2] == H(3, 0, 0, 1, 5)  # s t^2 + 5 t^3

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            apply_camera(random_camera(1, 2, 4), twisted_cubic())

    def test_linear_in_the_camera(self):
        f = twisted_cubic()
        a = random_camera(3, 2, 3)
        b = random_camera(4, 2, 3)
        summed = Camera(2, 3, tuple(
            tuple(x + y for x, y in zip(ra, rb))
            for ra, rb in zip(a.entries, b.entries)))
        lhs = apply_camera(summed, f)
        rhs = tuple(p + q for p, q in zip(apply_camera(a, f), apply_camera(b, f)))
        assert lhs == rhs


class TestRandomGeneration:
    def test_determinism_and_golden_values(self):
        golden = json.loads((DATA / "golden_cameras.json").read_text())
        assert camera_to_dict(random_camera(7, 2, 3)) == golden["seed7"]
        assert camera_to_dict(random_camera(8, 2, 3)) == golden["seed8"]
        assert golden["seed7"] != golden["seed8"]

    def test_same_seed_same_camera(self):
        assert random_camera(7, 2, 3) == random_camera(7, 2, 3)

    def test_rank_and_bounds(self):
        for seed in range(20):
            c = random_camera(seed, 2, 4, bound=5)
            assert all(abs(x) <= 5 for row in c.entries for x in row)
        with pytest.raises(ValueError, match="bound"):
            random_camera(0, 2, 3, bound=1)

    def test_degree_drop_family_shape(self):
        c = random_camera_degree_drop(11)
        assert (c.h, c.N) == (2, 3)
        assert c.entries[0][0] == 0

    def test_block_pairs_family_shape(self):
        c = random_camera_block_pairs(13)
        assert (c.h, c.N) == (2, 5)
        for j, row in enumerate(c.entries):
            support = {k for k, x in enumerate(row) if x != 0}
            assert support <= {2 * j, 2 * j + 1}
            assert support  # full rank needs a nonzero entry per row

    def test_random_curve_determinism_and_shape(self):
        f = random_curve(5, 3, 4)
        assert f == random_curve(5, 3, 4)
        assert (f.e, f.N) == (3, 4)


def _at_infinity() -> tuple[RationalCurve, Arrangement]:
    """A curve whose last world coordinate vanishes identically, and one
    camera whose chart row selects it: the chart polynomial vanishes."""
    f = RationalCurve(N=3, e=2, coords=(
        H(2, 0, 0, 1), H(2, 0, 1, 0), H(2, 1, 0, 0), HomPoly2(2)))
    cam = Camera(2, 3, ((F(0), F(0), F(0), F(1)),
                        (F(1), F(0), F(0), F(0)),
                        (F(0), F(1), F(0), F(0))))
    return f, Arrangement((cam,))


class TestGenericityCertificate:
    def test_generic_cameras_pass(self):
        arr = Arrangement((random_camera(101, 2, 3), random_camera(102, 2, 3)))
        cert = genericity_certificate(arr, twisted_cubic())
        assert cert.passes
        assert cert.immersion_ok
        assert cert.reasons == ()

    def test_identical_cameras_fail(self):
        c = random_camera(7, 2, 3)
        cert = genericity_certificate(Arrangement((c, c)), twisted_cubic())
        assert not cert.passes
        assert any(r == 0 for _, _, r in cert.pairwise_resultants)
        assert any("share a zero" in reason for reason in cert.reasons)

    def test_cusp_passes_camera_conditions_but_not_immersion(self):
        # every chart condition holds, but the cusp of the curve is a cusp of
        # the multiview map, so the certificate fails
        arr = Arrangement((random_camera(1234, 2, 2),))
        cert = genericity_certificate(arr, cuspidal_cubic())
        assert all(d != 0 for d in cert.discriminants)
        assert all(cert.sum_square_gcd_trivial) and cert.base_point_free
        assert not cert.passes
        assert not cert.immersion_ok
        assert cert.immersion_defect_degree >= 1
        assert any("not an immersion" in reason for reason in cert.reasons)

    def test_curve_in_image_plane_at_infinity(self):
        # refused as the scene is built, before any certificate is formed
        f, arr = _at_infinity()
        with pytest.raises(ValueError, match="curve at infinity of camera 0"):
            genericity_certificate(arr, f)

    def test_pass_rate_on_monomial_curves(self):
        # exact conditions hold for nearly every integer camera draw
        for e in range(1, 6):
            f = rational_normal_curve(e, e)
            h = 1 if e == 1 else 2
            passed = 0
            for seed in range(100):
                arr = Arrangement((random_camera(1000 + seed, h, e),
                                   random_camera(5000 + seed, h, e)))
                if genericity_certificate(arr, f).passes:
                    passed += 1
            assert passed >= 95, (e, passed)

    def test_json_dict_shape(self):
        arr = Arrangement((random_camera(101, 2, 3), random_camera(102, 2, 3)))
        d = genericity_certificate(arr, twisted_cubic()).to_json_dict()
        assert d["passes"] is True
        assert len(d["discriminants"]) == 2
        assert d["pairwise_resultants"][0]["i"] == 0


_P17 = 2**17 - 1
# small entries make shared zeros, repeated zeros and zeros at [0:1]
# common; multiples of p make residues vanish that are not zero
_SSQ_ENTRY = st.one_of(st.integers(-2, 2), st.builds(F, st.integers(-9, 9), st.integers(1, 4)),
                       st.sampled_from((_P17, -2 * _P17, F(_P17, 3), 10**40 + 1)))


@st.composite
def _view_forms(draw):
    """(Q, [P_j]): one view's chart form and h in 1..3 image forms of degree e <= 4."""
    e = draw(st.integers(1, 4))
    form = st.lists(_SSQ_ENTRY, min_size=e + 1, max_size=e + 1).map(lambda c: HomPoly2(e, c))
    return draw(form), draw(st.lists(form, min_size=1, max_size=3))


def _exact_sum_square_trivial(q: HomPoly2, ps) -> bool:
    """The certificate's exact test: sum_j P_j^2 is not zero and its gcd
    with Q is constant."""
    ssq = HomPoly2(2 * q.degree)
    for p in ps:
        ssq = ssq + p * p
    return not ssq.is_zero and exactnum.hom_gcd(q, ssq).degree == 0


def _exact_certificate(monkeypatch, f, arr):
    """The certificate of a fresh scene with no sum-of-squares test proved
    mod p."""
    with monkeypatch.context() as m:
        m.setattr(scene, "_sum_square_coprime_mod_p", lambda q, ps: False)
        return scene._certify(Scene(f, arr))


class TestSumSquaresModP:
    """The certificate's sum-of-squares test is proved from residues mod
    2**17 - 1 where they can prove it, and takes the exact gcd otherwise;
    the certificate is the exact one either way."""

    @settings(max_examples=300, deadline=None)
    @given(_view_forms())
    @example((H(2, 1, 0, 1), [H(2, 1, 0, 0), H(2, 0, 1, 0)]))
    @example((H(1, 1, 2), [H(1, 0, _P17), H(1, _P17, _P17)]))
    def test_a_proof_agrees_with_the_exact_gcd(self, view):
        # the examples: the circle, whose chart 1 + t^2 is p_1^2 + p_2^2;
        # a sum of squares that vanishes mod p but is coprime to Q
        q, ps = view
        if q.is_zero:
            return
        exact = _exact_sum_square_trivial(q, ps)
        proved = scene._sum_square_coprime_mod_p(q, ps)
        assert not proved or exact

    @pytest.mark.parametrize("case", ["conic", "degree drop", "vanishing", "zero mod p"])
    def test_planted_failures_fall_through(self, monkeypatch, case):
        if case == "conic":
            # Q = s^2: a double zero at [0:1], where t^4 + s^2 t^2 is 1
            f = curve_from_dict(json.loads((DATA / "conic.json").read_text()))
            arr = arrangement_from_dict(json.loads((DATA / "parabola_cam.json").read_text()))
        elif case == "degree drop":
            # every chart vanishes at [0:1]
            f = twisted_cubic()
            arr = Arrangement((random_camera_degree_drop(3),))
        elif case == "vanishing":
            # camera 0's image rows pick the line's two zero coordinates
            f = RationalCurve(N=3, e=1, coords=(H(1, 1, 0), H(1, 0, 1), HomPoly2(1), HomPoly2(1)))
            arr = Arrangement((Camera(2, 3, ((1, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))),
                               random_camera(5, 2, 3)))
        else:
            # Q = s + 2t, P = (p t, p (s + t)): sum P^2 = 0 mod p, yet
            # coprime to Q
            f = RationalCurve(N=2, e=1, coords=(H(1, 1, 0), H(1, 0, 1), H(1, 1, 1)))
            arr = Arrangement((Camera(2, 2, ((1, 2, 0), (0, _P17, 0), (0, 0, _P17))),))
        proofs, gcds = [], []
        prove, exact_gcd = scene._sum_square_coprime_mod_p, scene.hom_gcd
        monkeypatch.setattr(scene, "_sum_square_coprime_mod_p",
                            lambda q, ps: proofs.append(prove(q, ps)) or proofs[-1])
        monkeypatch.setattr(scene, "hom_gcd",
                            lambda a, b: gcds.append(exact_gcd(a, b)) or gcds[-1])
        cert = scene._certify(Scene(f, arr))
        assert proofs[0] is False
        want = {"conic": [True], "degree drop": [True], "vanishing": [False, True],
                "zero mod p": [True]}[case]
        assert list(cert.sum_square_gcd_trivial) == want
        if case == "vanishing":
            # the zero sum of squares needs no gcd, and camera 1 is proved
            assert proofs == [False, True] and gcds == []
            assert "camera 0 image coordinates vanish identically" in cert.reasons
        else:
            assert proofs == [False] and len(gcds) == 1
        assert cert == _exact_certificate(monkeypatch, f, arr)

    def test_a_proved_view_builds_no_exact_sum_of_squares(self, monkeypatch):
        f = random_curve(2024, 6, 5)
        arr = Arrangement(tuple(random_camera(700 + i, 3, 5) for i in range(8)))
        fresh = Scene(f, arr)
        fresh.cusps  # computed first, so that only the certificate's own work is counted
        products, gcds = [], []
        mul = HomPoly2.__mul__
        monkeypatch.setattr(HomPoly2, "__mul__", lambda a, b: products.append(1) or mul(a, b))
        monkeypatch.setattr(scene, "hom_gcd", lambda a, b: gcds.append(1))
        cert = fresh.certificate
        assert cert.passes and all(cert.sum_square_gcd_trivial)
        assert (products, gcds) == ([], [])
        monkeypatch.undo()
        assert cert == _exact_certificate(monkeypatch, f, arr)


class TestProdQModP:
    """``scene._prod_q_squarefree_mod_p`` proves prod Q_i squarefree on P^1
    with no zero at [0:1] from one gcd mod 2**17 - 1, and proves nothing
    where its slots would not fold."""

    def test_each_fault_is_not_proved(self):
        generic = (H(2, 1, 0, -1), H(2, 1, 1, 1))
        assert scene._prod_q_squarefree_mod_p(generic)
        for qs in ((H(2, 1, 0, -1), H(2, 2, -3, 1)),   # a shared zero t = 1
                   (H(2, 1, 2, 1),),                     # a double zero t = -1
                   (H(2, 1, 1, 0),),                     # a zero at [0:1]
                   (H(1, 1, _P17),)):                    # top residue 0, not a zero
            assert not scene._prod_q_squarefree_mod_p(qs)

    def test_forms_past_the_widest_slot_are_not_proved(self):
        # s^e + t^e is squarefree; at e = 8191 a slot would need 56 bits,
        # past the 50 that fold at k = 17
        for e, proved in ((8190, True), (8191, False)):
            q = HomPoly2(e, (1,) + (0,) * (e - 1) + (1,))
            assert scene._prod_q_squarefree_mod_p((q,)) is proved


class TestSceneFor:
    """``scene_for`` hands back the one scene it built last when asked for
    the very same curve and arrangement objects, and builds one otherwise."""

    def test_the_same_objects_share_one_scene_and_one_certificate(self):
        f = twisted_cubic()
        arr = Arrangement((random_camera(101, 2, 3), random_camera(102, 2, 3)))
        shared = scene_for(f, arr)
        assert scene_for(f, arr) is shared
        cert = genericity_certificate(arr, f)
        assert shared.certificate is cert and genericity_certificate(arr, f) is cert
        # a scene that cannot be built leaves the remembered one in place
        with pytest.raises(ValueError, match="world dimension"):
            scene_for(cuspidal_cubic(), arr)
        assert scene_for(f, arr) is shared
        # so does one with a vanishing chart
        with pytest.raises(ValueError, match="curve at infinity of camera 0"):
            scene_for(*_at_infinity())
        assert scene_for(f, arr) is shared

    def test_alternating_pairs_and_an_equal_arrangement_get_their_own_scenes(self):
        f1, f2 = twisted_cubic(), random_curve(5, 3, 3)
        a1 = Arrangement((random_camera(101, 2, 3), random_camera(102, 2, 3)))
        a2 = Arrangement((random_camera(103, 2, 3), random_camera(104, 2, 3)))
        twin = Arrangement(a1.cameras)
        assert twin == a1 and twin is not a1
        built = []
        for f, arr in ((f1, a1), (f2, a2), (f1, a1), (f1, twin), (f1, a1), (f2, a1),
                       (f2, a1)):
            got = scene_for(f, arr)
            assert got.curve is f and got.arrangement is arr
            fresh = Scene(f, arr)
            assert got.images == fresh.images and got.charts == fresh.charts
            assert genericity_certificate(arr, f) is got.certificate
            assert got.certificate == fresh.certificate
            built.append(got)
        # one slot: only a repeat of the pair just asked for is not rebuilt
        assert built[-1] is built[-2]
        assert len({id(x) for x in built}) == len(built) - 1


class TestSerialization:
    def test_curve_round_trip_and_schema(self):
        f = random_curve(9, 3, 4)
        d = curve_to_dict(f)
        jsonschema.validate(d, json.loads((SCHEMAS / "curve.schema.json").read_text()))
        assert curve_from_dict(d) == f

    def test_camera_round_trip(self):
        c = random_camera(7, 2, 3)
        assert camera_from_dict(camera_to_dict(c)) == c

    def test_arrangement_round_trip_and_schema(self):
        arr = Arrangement((random_camera(1, 2, 3), random_camera(2, 2, 3)))
        d = arrangement_to_dict(arr)
        jsonschema.validate(
            d, json.loads((SCHEMAS / "arrangement.schema.json").read_text()))
        assert arrangement_from_dict(d) == arr

    def test_malformed_dicts_rejected(self):
        with pytest.raises(ValueError):
            curve_from_dict({"N": 1, "coords": [["1", "0"]]})
        # a row must hold degree + 1 coefficients: a short one is not padded
        for degree in (2, 10**9):
            with pytest.raises(ValueError, match="not degree \\+ 1"):
                curve_from_dict({"N": 1, "degree": degree, "coords": [["1", "0"], ["0", "1"]]})
        with pytest.raises(ValueError):
            camera_from_dict({"h": 1, "rows": [["1", "0"], ["0", "1"]]})
        # the rows "10" and "01" are not read digit by digit as [1, 0], [0, 1]
        with pytest.raises(ValueError, match="malformed curve object.*array"):
            curve_from_dict({"N": 1, "degree": 1, "coords": ["10", "01"]})
        with pytest.raises(ValueError, match="malformed camera object.*array"):
            camera_from_dict({"h": 1, "N": 1, "rows": ["10", "01"]})

    # int() reads the first four as the valid 1
    NOT_JSON_INTS = [1.5, 1.0, "1", True, None, [1]]

    @pytest.mark.parametrize("value", NOT_JSON_INTS)
    @pytest.mark.parametrize("key", ["N", "degree"])
    def test_curve_integers_are_json_integers(self, key, value):
        d = {"N": 1, "degree": 1, "coords": [["1", "0"], ["0", "1"]]}
        assert curve_from_dict(d).N == 1
        with pytest.raises(ValueError, match="malformed curve object"):
            curve_from_dict({**d, key: value})

    @pytest.mark.parametrize("value", NOT_JSON_INTS)
    @pytest.mark.parametrize("key", ["h", "N"])
    def test_camera_integers_are_json_integers(self, key, value):
        d = {"h": 1, "N": 1, "rows": [["1", "0"], ["0", "1"]]}
        assert camera_from_dict(d).h == 1
        with pytest.raises(ValueError, match="malformed camera object"):
            camera_from_dict({**d, key: value})
