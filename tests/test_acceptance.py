"""Acceptance battery: end-to-end checks of every shipped behavior.

Each test pins the published value of one workflow (counts, displays,
coefficient laws, certified minimization) together with a wall-clock budget,
using only the public API and the command-line entry point.  Budgets are
asserted with ``time.perf_counter`` so a regression in exact-arithmetic
performance fails loudly rather than silently slowing the suite.
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction as F

import pytest

import bulk_properties
from edcurve.cli import derive_seed, main
from edcurve.eddeg import (
    CuspError,
    DataPoint,
    count_cell,
    ed_degree_affine,
    euler_cross_check,
    projective_ed_degree_smooth_curve,
    random_data_point,
    triangulate,
)
from edcurve.exactnum import HomPoly2
from edcurve.grassmann import BezierCurve, bezier_scroll, wedge_camera
from edcurve.multidegree import (
    MultiDeg,
    curve_multidegree,
    isotropic_hypersurface_multidegree,
    md_mul,
    md_top_coefficient,
)
from edcurve.scene import (
    Arrangement,
    Camera,
    RationalCurve,
    apply_camera,
    random_camera,
    random_camera_block_pairs,
    random_camera_degree_drop,
    random_curve,
    rational_normal_curve,
)


def _H(e, *coeffs):
    return HomPoly2(e, tuple(F(c) for c in coeffs))


def _run_cli_json(capsys, *argv):
    rc = main([*argv, "--json"])
    out = capsys.readouterr().out
    return rc, json.loads(out)


def _counted_with_retries(f, arr_factory, base_seed, label, require_certificate=True):
    """The accepted count over eight attempts, cameras and data redrawn on each."""
    return count_cell(
        f, arr_factory, lambda k: derive_seed(base_seed, f"{label}:a{k}:data"), 8,
        require_certificate=require_certificate,
    ).report


# -- 1. twisted cubic, one generic camera ------------------------------------

def test_ac01_twisted_cubic_one_camera_is_seven_every_seed():
    tw = rational_normal_curve(3, 3)
    for seed in range(1, 6):
        t0 = time.perf_counter()
        arr = Arrangement((random_camera(seed, 2, 3),))
        rep = ed_degree_affine(tw, arr, seed)
        elapsed = time.perf_counter() - t0
        assert rep.certificate.passes
        assert rep.ed_degree == 7, f"seed {seed}"
        assert rep.formula_match is True
        assert elapsed < 1.0, f"seed {seed} took {elapsed:.2f}s"


# -- 2. line in P^3, n = 1..6 ------------------------------------------------

def test_ac02_line_in_p3_counts_3n_minus_2():
    line = RationalCurve(N=3, e=1, coords=(
        _H(1, 0, 1), _H(1, 1, 0), HomPoly2(1), HomPoly2(1)))
    t0 = time.perf_counter()
    for n in range(1, 7):
        rep = _counted_with_retries(
            line,
            lambda attempt, n=n: Arrangement(tuple(
                random_camera(derive_seed(2, f"line:n{n}:a{attempt}:cam{i}"), 2, 3)
                for i in range(n))),
            2, f"line:n{n}")
        assert rep.ed_degree == 3 * n - 2, f"n={n}"
        assert rep.formula_match is True
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


# -- 3. full (e, n, h) sweep against the closed form -------------------------

def test_ac03_theorem_sweep_all_certified_cells_match(capsys):
    t0 = time.perf_counter()
    rc, env = _run_cli_json(capsys, "sweep", "--e", "1..4", "--n", "1..4",
                            "--h", "2,3")
    elapsed = time.perf_counter() - t0
    assert rc == 0
    cells = env["results"]["cells"]
    assert len(cells) == 48  # generic cell per (e, n, h) + monomial cell once e >= 3
    assert env["results"]["all_certified_match"] is True
    for c in cells:
        assert c["status"] == "ok", c
        assert c["certificate_passes"] is True
        assert c["ed_degree"] == 3 * c["e"] * c["n"] - 2, c
        assert c["match"] is True
        # every sweep curve is immersed, so the parameter-space recount
        # must be present and agree on every cell
        assert c["cross_check"] == c["ed_degree"], c
    assert elapsed < 600.0, f"took {elapsed:.2f}s"


# -- 4. explicit two-camera arrangement, pinned count ------------------------

# The cameras of tests/data/explicit_pair.json: row 0 is the chart
# denominator q_i, rows 1..2 the numerators p_ij.
_PAIR_ROWS = (((2, 0, 0, 1), (3, 0, 1, 0), (5, 1, 0, 0)),
              ((7, 0, 0, 1), (11, 0, 1, 0), (13, 1, 0, 0)))

# Fixed rational data points (u_11, u_12), (u_21, u_22) for the recount.
_PAIR_DATA = (((1, 2), (3, -1)),
              ((F(-5, 3), F(7, 2)), (F(1, 4), -2)),
              ((F(9, 5), 0), (F(-3, 7), F(11, 6))))


def _pair_arrangement():
    return Arrangement(tuple(Camera(2, 3, rows) for rows in _PAIR_ROWS))


def test_ac04_explicit_camera_pair_pinned_count():
    # The twisted cubic under one explicit, non-random camera pair has ED
    # degree 16 = 3en - 2 = 3*3*2 - 2.  Three routes agree on it: the
    # certified closed form, the parameter-line Euler count, and a recount
    # in sympy alone (test_ac04_sympy_recount_of_explicit_pair), which finds
    # 16 distinct critical parameters at three fixed data points.  An
    # earlier pinned value of 10 is contradicted by all three.
    tw = rational_normal_curve(3, 3)
    arr = _pair_arrangement()
    rep = ed_degree_affine(tw, arr, 4)
    assert rep.certificate.passes
    assert rep.stable
    assert rep.ed_degree == 16
    assert euler_cross_check(tw, arr, 4) == 16


def test_ac04_sympy_recount_of_explicit_pair():
    """Independent oracle for ac04: the recount uses sympy alone, and edcurve
    is called only for the final comparison.

    On the chart X = (1, s, s^2, s^3) of the twisted cubic, view i has
    q_i = row_0 . X and p_ij = row_j . X.  The numerator of
    d/ds sum_ij (p_ij/q_i - u_ij)^2, saturated by q_1 and q_2, has degree at
    most 3en - 2 = 16; 16 distinct roots there leave no room for a critical
    point at s = infinity, so the count is exactly 16.
    """
    sp = pytest.importorskip("sympy")
    s = sp.symbols("s")
    x = (sp.Integer(1), s, s**2, s**3)
    qs = [sum(c * xk for c, xk in zip(rows[0], x)) for rows in _PAIR_ROWS]
    for u in _PAIR_DATA:
        dist = 0
        for rows, q, ui in zip(_PAIR_ROWS, qs, u):
            for row, uij in zip(rows[1:], ui):
                p = sum(c * xk for c, xk in zip(row, x))
                dist += (p / q - sp.Rational(uij)) ** 2
        num, _ = sp.fraction(sp.together(sp.diff(dist, s)))
        g = sp.Poly(sp.expand(num), s)
        for q in qs:
            q = sp.Poly(q, s)
            while (common := sp.gcd(g, q)).degree() > 0:
                g = sp.div(g, common)[0]
        assert g.degree() == 16, u
        assert sp.sqf_part(g).degree() == 16, u  # 16 distinct roots

    rep = ed_degree_affine(rational_normal_curve(3, 3), _pair_arrangement(), 4,
                           data_points=[DataPoint(u=u) for u in _PAIR_DATA[:2]])
    assert rep.ed_degree == 16


# -- 5. constrained camera families ------------------------------------------

def test_ac05_constrained_families_drop_and_block():
    tw = rational_normal_curve(3, 3)
    expected = {1: 7, 2: 13}
    for n, want in expected.items():
        rep = _counted_with_retries(
            tw,
            lambda attempt, n=n: Arrangement(tuple(
                random_camera_degree_drop(
                    derive_seed(5, f"drop:n{n}:a{attempt}:cam{i}"), 3)
                for i in range(n))),
            5, f"drop:n{n}", require_certificate=False)
        assert rep.ed_degree == want, f"degree-drop family, n={n}"

    quintic = rational_normal_curve(5, 5)
    rep = _counted_with_retries(
        quintic,
        lambda attempt: Arrangement(
            (random_camera_block_pairs(derive_seed(5, f"block:a{attempt}")),)),
        5, "block", require_certificate=False)
    assert rep.ed_degree == 9, "block family on the degree-5 curve"


# -- 6. cuspidal cubic -------------------------------------------------------

def test_ac06_cuspidal_cubic_six_and_cross_check_refusal():
    cusp = RationalCurve(N=2, e=3, coords=(
        _H(3, 1, 0, 0, 0), _H(3, 0, 0, 1, 0), _H(3, 0, 0, 0, 1)))
    rep = _counted_with_retries(
        cusp,
        lambda attempt: Arrangement(
            (random_camera(derive_seed(6, f"cusp:a{attempt}"), 2, 2),)),
        6, "cusp", require_certificate=False)
    assert rep.ed_degree == 6
    # the count drops from 7 because the cusp parameter is saturated away
    assert rep.removed_immersion_factors >= 1
    arr = Arrangement((random_camera(derive_seed(6, "cusp:a0"), 2, 2),))
    with pytest.raises(CuspError):
        euler_cross_check(cusp, arr, 99)


# -- 7. lines-meeting-three-lines pipeline -----------------------------------

def test_ac07_l3_pipeline_counts_6n_minus_2(capsys):
    t0 = time.perf_counter()
    rc, env = _run_cli_json(capsys, "l3", "--h", "2,3", "--n", "1..5")
    elapsed = time.perf_counter() - t0
    assert rc == 0
    rows = env["results"]["rows"]
    assert env["results"]["all_match"] is True
    got = {(r["h"], r["n"]): r["ed_degree"] for r in rows}
    for h in (2, 3):
        for n in range(1, 6):
            assert got[(h, n)] == 6 * n - 2, (h, n)
    assert got[(2, 1)] == 4 and got[(2, 2)] == 10
    assert got[(3, 1)] == 4 and got[(3, 2)] == 10
    assert elapsed < 120.0, f"took {elapsed:.2f}s"


# -- 8. wedge camera: pinned display + functoriality -------------------------

PINNED_WEDGE_DISPLAY = [
    [F(-1), F(0), F(0), F(3), F(4), F(0)],
    [F(0), F(5), F(0), F(10), F(0), F(-20)],
    [F(0), F(0), F(0), F(-5), F(0), F(0)],
]


def test_ac08_wedge_camera_pinned_matrix_and_functoriality():
    base = Camera(2, 3, ((F(1), F(2), F(3), F(4)),
                         (F(0), F(-1), F(0), F(0)),
                         (F(0), F(0), F(5), F(0))))
    w = wedge_camera(base, 2)
    assert [list(row) for row in w.lex_display()] == PINNED_WEDGE_DISPLAY

    def matmul(A, B):
        return tuple(tuple(sum(A[i][k] * B[k][j] for k in range(len(B)))
                           for j in range(len(B[0]))) for i in range(len(A)))

    rng = random.Random(808)
    for trial in range(50):
        C = Camera(2, 3, tuple(tuple(F(rng.randint(-9, 9)) for _ in range(4))
                               for _ in range(3)))
        while True:
            rows = tuple(tuple(F(rng.randint(-9, 9)) for _ in range(4))
                         for _ in range(4))
            try:
                D = Camera(3, 3, rows)
                break
            except ValueError:
                continue  # resample until the 4x4 factor is invertible
        left = wedge_camera(Camera(2, 3, matmul(C.entries, D.entries)), 2)
        right = matmul(wedge_camera(C, 2).entries, wedge_camera(D, 2).entries)
        assert left.entries == right, f"trial {trial}"


# -- 9. multidegree ring: pinned product + top-coefficient law ---------------

def test_ac09_multidegree_product_and_top_coefficient_law():
    v1 = MultiDeg.variable(1, 2, 3)
    v2 = MultiDeg.variable(2, 2, 3)
    prod = (v1 + v2) * (v1 + 2 * v2) * (v1 + 3 * v2)
    assert prod.render() == "T1^3 + 6*T1^2*T2 + 11*T1*T2^2 + 6*T2^3"
    assert prod.terms == {(3, 0): 1, (2, 1): 6, (1, 2): 11, (0, 3): 6}
    for h in (2, 3):
        for e in range(1, 6):
            for n in range(1, 6):
                top = md_top_coefficient(md_mul(
                    curve_multidegree(e, n, h),
                    isotropic_hypersurface_multidegree(n, h)))
                assert top == 2 * e * n, (e, n, h)


# -- 10. Bezier scrolls ------------------------------------------------------

def test_ac10_bezier_scrolls_count_and_degree():
    b_line1 = BezierCurve(1, ((F(0), F(0), F(0)), (F(1), F(0), F(0))))
    b_line2 = BezierCurve(1, ((F(0), F(1), F(1)), (F(1), F(2), F(1))))
    b_quad1 = BezierCurve(2, ((F(3), F(1), F(2)), (F(1), F(2), F(0)),
                              (F(2), F(1), F(3))))
    b_quad2 = BezierCurve(2, ((F(1), F(0), F(1)), (F(0), F(1), F(2)),
                              (F(2), F(2), F(0))))
    pairs = {(1, 1): (b_line1, b_line2),
             (1, 2): (b_line1, b_quad1),
             (2, 2): (b_quad1, b_quad2)}
    for (e1, e2), (a, b) in pairs.items():
        f = bezier_scroll(a, b)
        assert f.e == e1 + e2, f"scroll degree for ({e1},{e2})"
        for n in (1, 2):
            rep = _counted_with_retries(
                f,
                lambda attempt, n=n: Arrangement(tuple(
                    random_camera(
                        derive_seed(7, f"s{e1}{e2}n{n}a{attempt}c{i}"), 2, 5)
                    for i in range(n))),
                7, f"s{e1}{e2}n{n}")
            assert rep.ed_degree == 3 * (e1 + e2) * n - 2, (e1, e2, n)


# -- 11. projective smooth-curve count ---------------------------------------

def test_ac11_projective_count_rational_normal_curves():
    got = [projective_ed_degree_smooth_curve(rational_normal_curve(e, e))
           for e in range(1, 6)]
    assert got == [3 * e - 2 for e in range(1, 6)]
    assert got[3] == 10  # e = 4: projective and affine counts both equal 10


# -- 12. certified triangulation vs. brute-force grid ------------------------

def test_ac12_triangulation_beats_grid_on_twenty_instances():
    t0 = time.perf_counter()
    for k in range(20):
        e = 1 + k % 3
        n = 1 + k % 2
        N = max(3, e)
        f = random_curve(derive_seed(12, f"t{k}:curve"), e, N)
        arr = Arrangement(tuple(
            random_camera(derive_seed(12, f"t{k}:cam{i}"), 2, N)
            for i in range(n)))
        u = random_data_point(derive_seed(12, f"t{k}:data"), n, 2)
        rep = ed_degree_affine(f, arr, derive_seed(12, f"t{k}:seed"))
        res = triangulate(f, arr, u, F(1, 4096))
        assert len(res.critical_parameters) <= rep.ed_degree, f"instance {k}"
        assert not res.no_finite_minimizer

        charts = []
        for cam in arr.cameras:
            img = apply_camera(cam, f)
            charts.append((img[0].dehom(), [p.dehom() for p in img[1:]]))
        grid_min = None
        for j in range(1000):
            t = F(j - 500, 100)
            if any(q.evaluate(t) == 0 for q, _ in charts):
                continue
            d = F(0)
            for (q, ps), urow in zip(charts, u.u):
                qv = q.evaluate(t)
                for p, uij in zip(ps, urow):
                    d += (p.evaluate(t) / qv - uij) ** 2
            grid_min = d if grid_min is None or d < grid_min else grid_min
        returned = res.distances[res.argmin_index]
        assert returned <= grid_min, f"instance {k}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"took {elapsed:.2f}s"


# -- 13. randomized law volume on the exact polynomial layer -----------------

def test_ac13_property_volume_at_least_ten_thousand():
    t0 = time.perf_counter()
    counts = bulk_properties.run_all()
    elapsed = time.perf_counter() - t0
    assert all(v > 0 for v in counts.values())
    assert sum(counts.values()) >= 10_000
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
