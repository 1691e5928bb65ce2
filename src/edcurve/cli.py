"""Seeded, reproducible command-line drivers.

Subcommands::

    eddeg        count critical points for a curve + camera file pair
    sweep        grid of (e, n, h) cells comparing counts to 3en-2
    l3           lines-meeting-three-skew-lines pipeline (wedge cameras), 6n-2
    triangulate  certified nearest-point recovery for a data point
    wedge        minor matrix of a camera
    multidegree  product of linear classes in the truncated multigraded ring
    scroll       ruled-surface (Bezier scroll) line family, 3(E1+E2)n-2

Exit codes: 0 success; 1 input/usage error or a certified-count mismatch;
2 exhausted genericity retries (unstable data or persistently degenerate
samples).  All randomness flows from ``--seed`` through SHA-256 derived
per-cell seeds, so identical invocations give byte-identical output.
"""

from __future__ import annotations

import argparse
import decimal
import functools
import hashlib
import json
import os
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .eddeg import (
    CellExhaustedError,
    CellOutcome,
    DataPoint,
    EDReport,
    NonGenericBetaError,
    count_cell,
    euler_cross_check,
    random_data_point,
    triangulate,
)
from .exactnum import rat_from_str
from .grassmann import BezierCurve, bezier_scroll, l3_curve, wedge_camera
from .multidegree import MultiDeg, curve_multidegree
from .scene import (
    Arrangement,
    Camera,
    RationalCurve,
    arrangement_from_dict,
    camera_to_dict,
    curve_from_dict,
    random_camera,
    random_curve,
    rational_normal_curve,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_GENERICITY = 2


def derive_seed(master: int, label: str) -> int:
    """Deterministic per-cell seed: first 8 bytes of SHA-256 of 'master:label'."""
    digest = hashlib.sha256(f"{master}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class _CliError(Exception):
    """Input-level failure carrying the exit code."""

    def __init__(self, message: str, code: int = EXIT_INPUT):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the documented input-error code is 1.

    Every usage error starts ``edcurve: error:``, as every other error does;
    a subcommand's names the subcommand next (``edcurve: error: sweep: ...``).
    """

    def error(self, message):
        command = self.prog.partition(" ")[2]
        where = f"{command}: " if command else ""
        self.exit(EXIT_INPUT, f"edcurve: error: {where}{message}\n")


# ---------------------------------------------------------------------------
# small parsing helpers
# ---------------------------------------------------------------------------

# Size caps of the grid commands.  A cell's critical polynomial has degree
# 3en - 2, so the caps bound the work of one command; every fixture, golden
# and benchmark cell lies well inside them.
MAX_E = 12      # --e of sweep: curve degree
MAX_N = 12      # --n of sweep, l3 and scroll: number of cameras
MAX_H = 12      # each --h value of sweep: image dimension
MAX_H_LIST = 8  # entries of an --h list (sweep, l3)


def _parse_range(text: str, what: str, cap: int) -> list[int]:
    """A..B or A as the list of its integers, every one of them at least 1
    (a degree or a camera count) and at most cap, checked before the list
    is built."""
    try:
        if ".." in text:
            a_str, b_str = text.split("..", 1)
            a, b = int(a_str), int(b_str)
        else:
            a = b = int(text)
    except ValueError:
        raise _CliError(f"invalid {what} range {text!r} (expected A..B or A)")
    if b < a:
        raise _CliError(f"empty {what} range {text!r}")
    if a < 1:
        raise _CliError(f"{what} values must be at least 1, got {text!r}")
    if b > cap:
        raise _CliError(f"{what} values must be at most {cap}, got {text!r}")
    return list(range(a, b + 1))


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        vals = [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise _CliError(f"invalid {what} list {text!r} (expected comma-separated integers)")
    if not vals:
        raise _CliError(f"empty {what} list {text!r}")
    if len(vals) > MAX_H_LIST:
        raise _CliError(f"a {what} list holds at most {MAX_H_LIST} values, got {len(vals)}")
    return vals


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc.strerror or exc}")
    except json.JSONDecodeError as exc:
        raise _CliError(f"{path}: not valid JSON (line {exc.lineno}, column {exc.colno})")


def _load_curve(path: str) -> RationalCurve:
    try:
        return curve_from_dict(_load_json(path))
    except ValueError as exc:
        raise _CliError(f"{path}: {exc}")


def _load_arrangement(path: str) -> Arrangement:
    try:
        return arrangement_from_dict(_load_json(path))
    except ValueError as exc:
        raise _CliError(f"{path}: {exc}")


def _load_data(path: str) -> DataPoint:
    try:
        return DataPoint.from_dict(_load_json(path))
    except ValueError as exc:
        raise _CliError(f"{path}: {exc}")


def _load_bezier(path: str) -> BezierCurve:
    try:
        return BezierCurve.from_dict(_load_json(path))
    except ValueError as exc:
        raise _CliError(f"{path}: {exc}")


def _emit(ns, text_lines: list[str], envelope: dict) -> None:
    if ns.json:
        print(json.dumps(envelope, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _report_text(rep: EDReport) -> list[str]:
    lines = [
        f"ed_degree            = {rep.ed_degree}",
        f"critical poly degree = {rep.critical_poly_degree}",
        f"removed at poles     = {rep.removed_pole_factors}",
        f"removed at cusps     = {rep.removed_immersion_factors}",
        f"closed form 3en-2    = {rep.formula_value}"
        f"  ({'match' if rep.formula_match else 'MISMATCH'})",
        f"certificate passes   = {rep.certificate.passes}",
        f"immersion            = {rep.certificate.immersion_ok}",
    ]
    if rep.cross_check is not None:
        agree = "agrees" if rep.cross_check == rep.ed_degree else "DISAGREES"
        lines.append(f"euler cross-check    = {rep.cross_check}  ({agree})")
    for reason in rep.certificate.reasons:
        lines.append(f"note: {reason}")
    return lines


def _count(
    f: RationalCurve,
    arr: Arrangement,
    master: int,
    label: str,
    retries: int,
    *,
    first_data: Optional[DataPoint] = None,
) -> CellOutcome:
    """The cell's count on a fixed arrangement, reseeding only the data.

    A degenerate scene (``ValueError``, such as an image that is a point) is an
    input error: reseeding the data cannot repair it.
    """
    try:
        return count_cell(
            f, arr, lambda k: derive_seed(master, f"{label}:data:attempt{k}"),
            retries, require_certificate=False, first_data=first_data,
        )
    except ValueError as exc:
        raise _CliError(str(exc))


def _count_redrawn(f: RationalCurve, draw, master: int, label: str,
                   retries: int) -> CellOutcome:
    """The cell's certified count, redrawing cameras and data each attempt."""
    try:
        return count_cell(
            f, draw, lambda k: derive_seed(master, f"{label}:attempt{k}:data"),
            retries,
        )
    except CellExhaustedError as exc:
        raise _CliError(f"{label}: {exc}", EXIT_GENERICITY)


def _attach_cross_check(outcome: CellOutcome, master: int, label: str) -> EDReport:
    """The outcome's report with ``cross_check`` filled when the check
    applies, read from the count's scene; genericity failures escalate."""
    rep, scene = outcome.report, outcome.scene
    if not rep.certificate.passes:
        return rep
    try:
        value = euler_cross_check(scene.curve, scene.arrangement,
                                  derive_seed(master, f"{label}:beta"), scene=scene)
    except NonGenericBetaError as exc:
        raise _CliError(str(exc), EXIT_GENERICITY)
    return EDReport(**{**rep.__dict__, "cross_check": value})


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_eddeg(ns) -> int:
    f = _load_curve(ns.curve)
    arr = _load_arrangement(ns.cameras)
    if arr.N != f.N:
        raise _CliError(
            f"{ns.cameras}: cameras expect ambient dimension N={arr.N} "
            f"but the curve lives in N={f.N}"
        )
    first = _load_data(ns.data) if ns.data else None
    if first is not None:
        try:
            first.check_shape(arr)
        except ValueError as exc:
            raise _CliError(f"{ns.data}: {exc}")
    outcome = _count(f, arr, ns.seed, "eddeg", ns.retries, first_data=first)
    rep = _attach_cross_check(outcome, ns.seed, "eddeg")
    envelope = {
        "command": "eddeg",
        "seed": ns.seed,
        "options": {
            "curve": ns.curve,
            "cameras": ns.cameras,
            "data": ns.data,
            "retries": ns.retries,
        },
        "results": rep.to_json_dict(),
    }
    _emit(ns, _report_text(rep), envelope)
    return EXIT_OK


def _sweep_cells(es: list[int], nss: list[int], hs: list[int]):
    """Cell plan: generic-coefficient curve in P^min(e+2,5) always, plus the
    monomial curve in P^e once e >= 3 (so the camera can still lose rank h)."""
    for h in hs:
        for e in es:
            variants = [("generic", min(e + 2, 5))]
            if e >= 3:
                variants.append(("monomial", e))
            for variant, N in variants:
                if N < h:
                    continue  # no full-rank (h+1) x (N+1) camera exists
                for n in nss:
                    yield h, e, n, variant, N


def cmd_sweep(ns) -> int:
    es = _parse_range(ns.e, "--e", MAX_E)
    nss = _parse_range(ns.n, "--n", MAX_N)
    hs = _parse_int_list(ns.h, "--h")
    if any(h < 2 for h in hs):
        raise _CliError("sweep restricts --h to values >= 2 (closed form regime)")
    if any(h > MAX_H for h in hs):
        raise _CliError(f"--h values must be at most {MAX_H}, got {ns.h!r}")
    cells = []
    all_ok = True
    for h, e, n, variant, N in _sweep_cells(es, nss, hs):
        label = f"sweep:h{h}:e{e}:n{n}:{variant}"
        if variant == "monomial":
            f = rational_normal_curve(e, N)
        else:
            f = random_curve(derive_seed(ns.seed, f"{label}:curve"), e, N)
        arr = Arrangement(tuple(
            random_camera(derive_seed(ns.seed, f"{label}:cam{i}"), h, N)
            for i in range(n)
        ))
        cell = {"e": e, "n": n, "h": h, "variant": variant, "cell_seed":
                derive_seed(ns.seed, label)}
        try:
            rep = _attach_cross_check(_count(f, arr, ns.seed, label, ns.retries),
                                      ns.seed, label)
        except (_CliError, CellExhaustedError) as exc:
            cell["status"] = "error"
            # one table line per cell: an exhausted cell shows its last reason
            cell["error"] = (exc.reasons[-1] if isinstance(exc, CellExhaustedError)
                             else str(exc))
            cells.append(cell)
            continue
        cell["ed_degree"] = rep.ed_degree
        cell["formula_value"] = rep.formula_value
        cell["match"] = rep.formula_match
        cell["cross_check"] = rep.cross_check
        cell["certificate_passes"] = rep.certificate.passes
        if rep.certificate.passes:
            cell["status"] = "ok"
            if not rep.formula_match:
                all_ok = False
            if rep.cross_check is not None and rep.cross_check != rep.ed_degree:
                all_ok = False
        else:
            cell["status"] = "certificate-failed"
        cells.append(cell)

    lines = [f"{'h':>2} {'e':>2} {'n':>2} {'variant':<9} {'ed':>4} "
             f"{'3en-2':>5} {'match':<5} {'cross':>5} status"]
    for c in cells:
        if c["status"] == "error":
            lines.append(f"{c['h']:>2} {c['e']:>2} {c['n']:>2} {c['variant']:<9} "
                         f"{'-':>4} {'-':>5} {'-':<5} {'-':>5} error: {c['error']}")
        else:
            cross = "-" if c["cross_check"] is None else str(c["cross_check"])
            lines.append(
                f"{c['h']:>2} {c['e']:>2} {c['n']:>2} {c['variant']:<9} "
                f"{c['ed_degree']:>4} {c['formula_value']:>5} "
                f"{str(c['match']).lower():<5} {cross:>5} {c['status']}"
            )
    lines.append(f"certified cells all match: {all_ok}")
    envelope = {
        "command": "sweep",
        "seed": ns.seed,
        "options": {"e": ns.e, "n": ns.n, "h": ns.h, "retries": ns.retries},
        "results": {"cells": cells, "all_certified_match": all_ok},
    }
    _emit(ns, lines, envelope)
    return EXIT_OK if all_ok else EXIT_INPUT


def cmd_l3(ns) -> int:
    hs = _parse_int_list(ns.h, "--h")
    if any(h not in (2, 3) for h in hs):
        raise _CliError("l3 supports --h values 2 and 3 only")
    nss = _parse_range(ns.n, "--n", MAX_N)
    f = l3_curve()
    rows = []
    all_match = True
    for h in hs:
        for n in nss:
            label = f"l3:h{h}:n{n}"

            def draw(k):
                return Arrangement(tuple(
                    wedge_camera(random_camera(
                        derive_seed(ns.seed, f"{label}:attempt{k}:cam{i}"), h, 3
                    ), 2).as_camera()
                    for i in range(n)
                ))

            outcome = _count_redrawn(f, draw, ns.seed, label, ns.retries)
            rep = outcome.report
            wedge_h = outcome.arrangement.h
            formula = 6 * n - 2
            match = rep.ed_degree == formula
            all_match = all_match and match
            cls = curve_multidegree(2, n, wedge_h)
            rows.append({
                "h": h,
                "n": n,
                "cell_seed": derive_seed(ns.seed, label),
                "ambient": f"(P^{wedge_h})^{n}",
                "ed_degree": rep.ed_degree,
                "formula_value": formula,
                "match": match,
                "curve_class": cls.render(),
                "curve_class_shorthand": cls.render_dual(),
            })
    lines = [f"{'h':>2} {'n':>2} {'ambient':<10} {'class (shorthand)':<24} "
             f"{'ed':>4} {'6n-2':>4} match"]
    for r in rows:
        lines.append(
            f"{r['h']:>2} {r['n']:>2} {r['ambient']:<10} "
            f"{r['curve_class_shorthand']:<24} {r['ed_degree']:>4} "
            f"{r['formula_value']:>4} {str(r['match']).lower()}"
        )
    lines.append(f"all match: {all_match}")
    envelope = {
        "command": "l3",
        "seed": ns.seed,
        "options": {"h": ns.h, "n": ns.n, "retries": ns.retries},
        "results": {"rows": rows, "all_match": all_match},
    }
    _emit(ns, lines, envelope)
    return EXIT_OK if all_match else EXIT_INPUT


def cmd_triangulate(ns) -> int:
    f = _load_curve(ns.curve)
    arr = _load_arrangement(ns.cameras)
    if arr.N != f.N:
        raise _CliError(
            f"{ns.cameras}: cameras expect ambient dimension N={arr.N} "
            f"but the curve lives in N={f.N}"
        )
    try:
        tol = rat_from_str(ns.tol)
    except ValueError:
        raise _CliError(f"invalid --tol {ns.tol!r} (expected a rational like 1/1000000000)")
    if tol <= 0:
        raise _CliError("--tol must be positive")
    if ns.data:
        u = _load_data(ns.data)
        try:
            u.check_shape(arr)
        except ValueError as exc:
            raise _CliError(f"{ns.data}: {exc}")
    else:
        u = random_data_point(derive_seed(ns.seed, "triangulate:data"), arr.n, arr.h)
    try:
        res = triangulate(f, arr, u, tol)
    except ValueError as exc:
        raise _CliError(str(exc))
    lines = [] if ns.json else _triangulation_text(res)
    envelope = {
        "command": "triangulate",
        "seed": ns.seed,
        "options": {
            "curve": ns.curve,
            "cameras": ns.cameras,
            "data": ns.data,
            "tol": ns.tol,
        },
        "results": res.to_json_dict(),
    }
    _emit(ns, lines, envelope)
    return EXIT_OK


def _approx(x: Fraction, digits: int) -> str:
    """``format(float(x), f".{digits}g")``; outside the float range (overflow,
    or a nonzero x that underflows to 0) the same style from a decimal
    rounded once to ``digits`` digits."""
    try:
        approx = float(x)
        if approx or not x:
            return format(approx, f".{digits}g")
    except OverflowError:
        pass
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        return format((decimal.Decimal(x.numerator) / x.denominator).normalize(), "g")


def _triangulation_text(res) -> list[str]:
    """Text-mode preview of the exact values; --json carries them exactly."""
    if res.no_finite_minimizer:
        return ["no finite minimizer: no real critical parameter on the chart"]
    lines = [f"real critical points: {len(res.critical_parameters)}"]
    for k, (iv, d, b) in enumerate(zip(
            res.critical_parameters, res.distances, res.distance_error_bounds)):
        tag = "  <-- argmin" if k == res.argmin_index else ""
        lines.append(
            f"  [{k}] t ~= {_approx(iv.midpoint, 12)} "
            f"(width <= {_approx(iv.width, 3)})  "
            f"dist^2 ~= {_approx(d, 12)} (+-{_approx(b, 3)}){tag}"
        )
    lines.append(
        "world point at argmin midpoint ~= ["
        + " : ".join(_approx(x, 12) for x in res.world_point) + "]"
    )
    for i, block in enumerate(res.image_blocks):
        lines.append(
            f"image {i} ~= (" + ", ".join(_approx(x, 12) for x in block) + ")"
        )
    lines.append(f"certified minimum lower bound ~= {_approx(res.min_lower_bound, 12)}")
    lines.append("(exact rationals available with --json)")
    return lines


def cmd_wedge(ns) -> int:
    arr = _load_arrangement(ns.cameras)
    if arr.n != 1:
        raise _CliError("wedge expects a file with exactly one camera")
    cam = arr.cameras[0]
    try:
        w = wedge_camera(cam, ns.k)
    except ValueError as exc:
        raise _CliError(str(exc))
    display = w.lex_display()
    lines = [f"{len(w.entries)} x {len(w.entries[0])} minor matrix "
             f"(k={ns.k}, subsets in lexicographic order):"]
    widths = [max(len(str(display[r][c])) for r in range(len(display)))
              for c in range(len(display[0]))]
    for row in display:
        lines.append("  [ " + "  ".join(str(x).rjust(w_) for x, w_ in zip(row, widths))
                     + " ]")
    envelope = {
        "command": "wedge",
        "seed": ns.seed,
        "options": {"cameras": ns.cameras, "k": ns.k},
        "results": {
            "k": ns.k,
            "rows": len(w.entries),
            "cols": len(w.entries[0]),
            "entries": [[str(x) for x in row] for row in w.entries],
            "display": [[str(x) for x in row] for row in display],
        },
    }
    _emit(ns, lines, envelope)
    return EXIT_OK


def cmd_multidegree(ns) -> int:
    if not ns.factors:
        raise _CliError("need at least one linear factor, e.g. '1,1' for T1+T2")
    coeff_rows = []
    for text in ns.factors:
        try:
            coeffs = [int(x) for x in text.split(",")]
        except ValueError:
            raise _CliError(f"invalid factor {text!r} (expected comma-separated integers)")
        if not coeffs:
            raise _CliError(f"invalid factor {text!r} (no coefficients)")
        coeff_rows.append(coeffs)
    nvars = len(coeff_rows[0])
    if any(len(row) != nvars for row in coeff_rows):
        raise _CliError("all factors must name the same number of variables")
    if ns.ring_h < 1:
        raise _CliError("--h must be >= 1")
    product = MultiDeg.one(nvars, ns.ring_h)
    for row in coeff_rows:
        product = product * MultiDeg.linear_form(row, ns.ring_h)
    lines = [f"product  = {product.render()}",
             f"dual     = {product.render_dual()}"]
    envelope = {
        "command": "multidegree",
        "seed": ns.seed,
        "options": {"factors": list(ns.factors), "h": ns.ring_h},
        "results": {
            "factors": list(ns.factors),
            "h": ns.ring_h,
            "product": product.render(),
            "product_shorthand": product.render_dual(),
        },
    }
    _emit(ns, lines, envelope)
    return EXIT_OK


def cmd_scroll(ns) -> int:
    b1 = _load_bezier(ns.bezier1)
    b2 = _load_bezier(ns.bezier2)
    nss = _parse_range(ns.n, "--n", MAX_N)
    try:
        f = bezier_scroll(b1, b2)
    except ValueError as exc:
        raise _CliError(str(exc))
    expected = b1.E + b2.E
    rows = []
    all_match = True
    for n in nss:
        label = f"scroll:n{n}"

        def draw(k):
            return Arrangement(tuple(
                random_camera(derive_seed(ns.seed, f"{label}:attempt{k}:cam{i}"), 2, 5)
                for i in range(n)
            ))

        rep = _count_redrawn(f, draw, ns.seed, label, ns.retries).report
        formula = 3 * expected * n - 2
        match = rep.ed_degree == formula
        all_match = all_match and match
        rows.append({
            "n": n,
            "cell_seed": derive_seed(ns.seed, label),
            "ed_degree": rep.ed_degree,
            "formula_value": formula,
            "match": match,
        })
    lines = [f"scroll curve degree {f.e} (E1+E2 = {expected})"]
    lines.append(f"{'n':>2} {'ed':>4} {'3(E1+E2)n-2':>12} match")
    for r in rows:
        lines.append(f"{r['n']:>2} {r['ed_degree']:>4} {r['formula_value']:>12} "
                     f"{str(r['match']).lower()}")
    lines.append(f"all match: {all_match}")
    envelope = {
        "command": "scroll",
        "seed": ns.seed,
        "options": {
            "bezier1": ns.bezier1,
            "bezier2": ns.bezier2,
            "n": ns.n,
            "retries": ns.retries,
        },
        "results": {
            "scroll_degree": f.e,
            "expected_degree": expected,
            "rows": rows,
            "all_match": all_match,
        },
    }
    _emit(ns, lines, envelope)
    return EXIT_OK if all_match else EXIT_INPUT


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(
        prog="edcurve",
        description="Exact critical-point counts and certified triangulation "
                    "for curve multiview varieties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, retries=True):
        p.add_argument("--seed", type=int, default=0,
                       help="master seed; all sampling derives from it (default 0)")
        p.add_argument("--json", action="store_true",
                       help="emit a machine-readable JSON envelope")
        if retries:
            p.add_argument("--retries", type=int, default=8,
                           help="genericity reseeding budget (default 8)")

    p = sub.add_parser("eddeg", help="critical-point count for curve + cameras")
    p.add_argument("--curve", required=True, help="curve JSON file")
    p.add_argument("--cameras", required=True, help="arrangement JSON file")
    p.add_argument("--data", help="optional explicit data-point JSON file")
    common(p)
    p.set_defaults(func=cmd_eddeg)

    p = sub.add_parser("sweep", help="(e, n, h) grid compared against 3en-2")
    p.add_argument("--e", default="1..4",
                   help=f"degree range A..B, at most {MAX_E} (default 1..4)")
    p.add_argument("--n", default="1..4",
                   help=f"camera-count range A..B, at most {MAX_N} (default 1..4)")
    p.add_argument("--h", default="2,3",
                   help=f"image dimensions, comma list of at most {MAX_H_LIST}, each at most "
                        f"{MAX_H} (default 2,3)")
    common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("l3", help="lines meeting three skew lines: wedge pipeline, 6n-2")
    p.add_argument("--h", default="2,3", help="base image dimensions from {2,3} (default 2,3)")
    p.add_argument("--n", default="1..2",
                   help=f"camera-count range A..B, at most {MAX_N} (default 1..2)")
    common(p)
    p.set_defaults(func=cmd_l3)

    p = sub.add_parser("triangulate", help="certified nearest point on the image curve")
    p.add_argument("--curve", required=True, help="curve JSON file")
    p.add_argument("--cameras", required=True, help="arrangement JSON file")
    p.add_argument("--data", help="data-point JSON file (sampled from seed if absent)")
    p.add_argument("--tol", default="1/1000000000",
                   help="isolating-interval width bound, a rational (default 1/10^9)")
    common(p, retries=False)
    p.set_defaults(func=cmd_triangulate)

    p = sub.add_parser("wedge", help="matrix of k x k minors of a camera")
    p.add_argument("--cameras", required=True, help="arrangement JSON file with one camera")
    p.add_argument("--k", type=int, required=True, help="minor order k")
    common(p, retries=False)
    p.set_defaults(func=cmd_wedge)

    p = sub.add_parser("multidegree",
                       help="product of linear classes in the truncated ring")
    p.add_argument("factors", nargs="*",
                   help="linear factors as comma lists, e.g. 1,1 1,2 1,3")
    p.add_argument("--h", dest="ring_h", type=int, default=3,
                   help="per-factor truncation exponent (default 3)")
    common(p, retries=False)
    p.set_defaults(func=cmd_multidegree)

    p = sub.add_parser("scroll", help="Bezier-scroll line family, 3(E1+E2)n-2")
    p.add_argument("--bezier1", required=True, help="first Bezier control file")
    p.add_argument("--bezier2", required=True, help="second Bezier control file")
    p.add_argument("--n", default="1..2",
                   help=f"camera-count range A..B, at most {MAX_N} (default 1..2)")
    common(p)
    p.set_defaults(func=cmd_scroll)

    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser of every ``main`` call in this process, built on the first.

    ``parse_args`` leaves a parser unchanged and returns a fresh namespace, so
    one parser serves any number of in-process calls, usage errors included.
    """
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    ns = _parser().parse_args(argv)
    try:
        if getattr(ns, "retries", 1) < 1:
            raise _CliError(f"--retries must be at least 1, got {ns.retries}")
        code = ns.func(ns)
        sys.stdout.flush()  # a closed pipe fails here, not at shutdown
        return code
    except BrokenPipeError:
        # the reader went away; the interpreter flushes stdout again at exit,
        # so point it at devnull to keep that flush from raising too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("edcurve: error: output pipe closed before all output was written",
              file=sys.stderr)
        return EXIT_INPUT
    except _CliError as exc:
        print(f"edcurve: error: {exc}", file=sys.stderr)
        return exc.code
    except CellExhaustedError as exc:
        print(f"edcurve: error: {exc}", file=sys.stderr)
        return EXIT_GENERICITY


if __name__ == "__main__":
    sys.exit(main())
