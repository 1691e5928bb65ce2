#!/usr/bin/env python3
"""Recompute every worked example end to end and compare to expected values.

Runs the whole gallery with exact arithmetic: the twisted cubic with one
camera, lines in P^3, the cuspidal cubic, both constrained camera families,
Bezier scrolls, the explicit two-camera arrangement, and a certified
triangulation demo.  Prints computed vs. expected for each case and exits
nonzero if any case fails to match.

Usage:
    python scripts/reproduce_examples.py [--seed BASE]
"""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction as F

from edcurve.cli import derive_seed
from edcurve.eddeg import (
    CuspError,
    count_cell,
    ed_degree_affine,
    euler_cross_check,
    projective_ed_degree_smooth_curve,
    random_data_point,
    triangulate,
)
from edcurve.exactnum import HomPoly2, hom_discriminant, hom_gcd
from edcurve.grassmann import BezierCurve, bezier_scroll
from edcurve.scene import (
    Arrangement,
    Camera,
    RationalCurve,
    Scene,
    random_camera,
    random_camera_block_pairs,
    random_camera_degree_drop,
    rational_normal_curve,
)


def H(e, *coeffs):
    return HomPoly2(e, tuple(F(c) for c in coeffs))


def count_with_retries(f, arr_factory, base_seed, label, require_certificate=True):
    """The accepted count of a cell whose cameras are redrawn on each of
    eight attempts."""
    return count_cell(
        f, arr_factory, lambda k: derive_seed(base_seed, f"{label}:a{k}:data"), 8,
        require_certificate=require_certificate,
    ).report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0,
                    help="base seed for all derived camera/data seeds")
    ns = ap.parse_args(argv)
    s = ns.seed
    failures = 0
    t_start = time.perf_counter()

    def report(name, got, want, note=""):
        nonlocal failures
        ok = got == want
        if not ok:
            failures += 1
        mark = "ok " if ok else "MISMATCH"
        print(f"  {name:<44} computed {got!s:>4}  expected {want!s:>4}  {mark}{note}")
        return ok

    print("== twisted cubic, one generic camera (count is 7) ==")
    tw = rational_normal_curve(3, 3)
    for seed in range(1, 6):
        rep = ed_degree_affine(tw, Arrangement((random_camera(seed, 2, 3),)), seed)
        report(f"camera seed {seed}", rep.ed_degree, 7)

    print("== line in P^3, n cameras (count is 3n-2) ==")
    line = RationalCurve(N=3, e=1, coords=(H(1, 0, 1), H(1, 1, 0),
                                           HomPoly2(1), HomPoly2(1)))
    for n in range(1, 7):
        rep = count_with_retries(
            line,
            lambda a, n=n: Arrangement(tuple(
                random_camera(derive_seed(s + 2, f"line:n{n}:a{a}:cam{i}"), 2, 3)
                for i in range(n))),
            s + 2, f"line:n{n}")
        report(f"n = {n}", rep.ed_degree, 3 * n - 2)

    print("== cuspidal cubic (count drops 7 -> 6; recount refuses) ==")
    cusp = RationalCurve(N=2, e=3, coords=(H(3, 1, 0, 0, 0), H(3, 0, 0, 1, 0),
                                           H(3, 0, 0, 0, 1)))
    rep = count_with_retries(
        cusp,
        lambda a: Arrangement(
            (random_camera(derive_seed(s + 6, f"cusp:a{a}"), 2, 2),)),
        s + 6, "cusp", require_certificate=False)
    report("one camera", rep.ed_degree, 6,
           f"  (saturated {rep.removed_immersion_factors} singular factor)")
    try:
        euler_cross_check(cusp, Arrangement(
            (random_camera(derive_seed(s + 6, "cusp:a0"), 2, 2),)), 99)
        report("parameter-space recount refusal", "ran", "refused")
    except CuspError:
        print(f"  {'parameter-space recount refusal':<44} refused as expected     ok")

    print("== constrained camera families on monomial curves ==")

    def degree_drop_cameras(n, a):
        """Attempt a of the vanishing-corner family; ValueError (a redraw)
        unless the designed zero at infinity is the only degeneracy: every
        chart form squarefree, and each pair sharing exactly one zero."""
        arr = Arrangement(tuple(
            random_camera_degree_drop(derive_seed(s + 5, f"drop:n{n}:a{a}:cam{i}"), 3)
            for i in range(n)))
        qs = [img[0] for img in Scene(tw, arr).images]
        if any(hom_discriminant(q) == 0 for q in qs) or any(
                hom_gcd(qs[i], qs[j]).degree != 1
                for i in range(n) for j in range(i + 1, n)):
            raise ValueError("degeneracy beyond the family's designed zero")
        return arr

    for n, want in ((1, 7), (2, 13)):
        rep = count_with_retries(
            tw, lambda a, n=n: degree_drop_cameras(n, a),
            s + 5, f"drop:n{n}", require_certificate=False)
        report(f"vanishing-corner family, n = {n}", rep.ed_degree, want)
    quintic = rational_normal_curve(5, 5)
    rep = count_with_retries(
        quintic,
        lambda a: Arrangement(
            (random_camera_block_pairs(derive_seed(s + 5, f"block:a{a}")),)),
        s + 5, "block", require_certificate=False)
    report("2x2-block family, degree-5 curve", rep.ed_degree, 9)

    print("== Bezier scrolls (count is 3(E1+E2)n - 2) ==")
    b_line1 = BezierCurve(1, ((F(0), F(0), F(0)), (F(1), F(0), F(0))))
    b_line2 = BezierCurve(1, ((F(0), F(1), F(1)), (F(1), F(2), F(1))))
    b_quad1 = BezierCurve(2, ((F(3), F(1), F(2)), (F(1), F(2), F(0)),
                              (F(2), F(1), F(3))))
    b_quad2 = BezierCurve(2, ((F(1), F(0), F(1)), (F(0), F(1), F(2)),
                              (F(2), F(2), F(0))))
    for a, b in ((b_line1, b_line2), (b_line1, b_quad1), (b_quad1, b_quad2)):
        f = bezier_scroll(a, b)
        for n in (1, 2):
            rep = count_with_retries(
                f,
                lambda at, n=n: Arrangement(tuple(
                    random_camera(
                        derive_seed(s + 7, f"s{a.E}{b.E}n{n}a{at}c{i}"), 2, 5)
                    for i in range(n))),
                s + 7, f"s{a.E}{b.E}n{n}")
            report(f"(E1,E2) = ({a.E},{b.E}), n = {n}",
                   rep.ed_degree, 3 * (a.E + b.E) * n - 2)

    print("== projective counts for monomial curves (3e-2) ==")
    for e in range(1, 6):
        got = projective_ed_degree_smooth_curve(rational_normal_curve(e, e))
        report(f"degree e = {e}", got, 3 * e - 2)

    print("== explicit two-camera arrangement on the twisted cubic ==")
    c1 = Camera(2, 3, ((F(2), F(0), F(0), F(1)), (F(3), F(0), F(1), F(0)),
                       (F(5), F(1), F(0), F(0))))
    c2 = Camera(2, 3, ((F(7), F(0), F(0), F(1)), (F(11), F(0), F(1), F(0)),
                       (F(13), F(1), F(0), F(0))))
    rep = ed_degree_affine(tw, Arrangement((c1, c2)), 4)
    print(f"  {'closed form 3en-2 for (e,n) = (3,2)':<44} computed "
          f"{rep.ed_degree:>4}  expected   16  "
          f"{'ok' if rep.ed_degree == 16 else 'MISMATCH'}")
    if rep.ed_degree != 16:
        failures += 1

    print("== certified triangulation demo (twisted cubic, two cameras) ==")
    arr = Arrangement(tuple(
        random_camera(derive_seed(s + 12, f"demo:cam{i}"), 2, 3)
        for i in range(2)))
    u = random_data_point(derive_seed(s + 12, "demo:data"), 2, 2)
    res = triangulate(tw, arr, u, F(1, 1 << 20))
    k = res.argmin_index
    iv = res.critical_parameters[k]
    print(f"  real critical parameters: {len(res.critical_parameters)}")
    print(f"  argmin interval: [{iv.lo}, {iv.hi}]  (width {iv.hi - iv.lo})")
    print(f"  squared distance at argmin: {res.distances[k]} "
          f"~= {float(res.distances[k]):.6f}")
    print(f"  certified lower bound for the minimum: "
          f"~{float(res.min_lower_bound):.6f}")
    print(f"  recovered world point: "
          f"({', '.join(str(x) for x in res.world_point)})")

    print(f"\n{failures} unexpected mismatch(es)")
    # wall time goes to stderr so that stdout is a function of the seed
    print(f"total time {time.perf_counter() - t_start:.2f}s", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
