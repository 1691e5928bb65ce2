"""Seeded bulk law-checking for the exact polynomial layer and for the two
closed forms that ``eddeg`` assembles from it.

Each function runs a batch of exact identity checks driven by one Mersenne-
Twister seed and returns the number of cases executed, so callers (including
the acceptance gate) can assert both correctness and case volume.  Any
violated law raises AssertionError immediately with the offending operands.
"""

from __future__ import annotations

import random
from fractions import Fraction as F
from itertools import product
from math import gcd, isqrt
from unittest import mock

from edcurve import eddeg, exactnum
from edcurve.eddeg import DataPoint, critical_polynomial
from edcurve.exactnum import (
    UNI_ONE,
    HomPoly2,
    IsolatingInterval,
    UniPoly,
    distinct_root_count,
    hom_discriminant,
    hom_distinct_root_count,
    hom_resultant,
    poly_gcd,
    refine_root,
    squarefree_part,
    sturm_isolate,
)
from edcurve.grassmann import subset_order, wedge_camera
from edcurve.scene import (
    Arrangement,
    Camera,
    GenericityCertificate,
    RationalCurve,
    Scene,
    _by_rejection,
    apply_camera,
    camera_from_dict,
    camera_to_dict,
    random_camera,
    random_curve,
)


def poly_from_roots(roots) -> UniPoly:
    """The monic polynomial prod (t - r) over the given roots."""
    p = UNI_ONE
    for r in roots:
        p = p * UniPoly((-F(r), 1))
    return p


def ref_refine(p: UniPoly, iv: IsolatingInterval, width_bound) -> IsolatingInterval:
    """Plain bisection of iv down to the width bound, every sign by Fraction
    evaluation: the interval ``refine_root`` must return."""
    def sign(x):
        return (x > 0) - (x < 0)

    lo, hi = iv.lo, iv.hi
    slo, shi = sign(p.evaluate(lo)), sign(p.evaluate(hi))
    if slo == 0 or shi == 0 or slo == shi:
        raise ValueError("invalid interval (sign conditions fail)")
    steps = iv.refinements
    while hi - lo > width_bound:
        m = (lo + hi) / 2
        sm = sign(p.evaluate(m))
        steps += 1
        if sm == 0:
            eps = min(width_bound, hi - m, m - lo) / 2
            while p.evaluate(m - eps) == 0 or p.evaluate(m + eps) == 0:
                eps /= 2
            return IsolatingInterval(m - eps, m + eps, steps)
        if sm == slo:
            lo = m
        else:
            hi = m
    return IsolatingInterval(lo, hi, steps)


def ref_abs_upper(p: UniPoly, lo, hi) -> F:
    """sum |c_k| M^k with M = max(|lo|, |hi|), in Fraction arithmetic: the
    upper bound for |p| on [lo, hi] that ``eddeg._abs_upper_parts`` sums in
    integers."""
    m = max(abs(lo), abs(hi))
    acc, power = F(0), F(1)
    for c in p.coeffs:
        acc += abs(c) * power
        power *= m
    return acc


def _sgn(x) -> int:
    return (x > 0) - (x < 0)


def _ref_taylor_shift(a: list[int], c: int) -> list[int]:
    """Coefficients of a(x + c), by repeated synthetic division: d(d+1)/2
    multiply-adds on a plain list, no packing."""
    b = list(a)
    for i in range(len(b) - 1):
        for j in range(len(b) - 2, i - 1, -1):
            b[j] += c * b[j + 1]
    return b


def _ref_variations(a: list[int]) -> int:
    signs = [_sgn(x) for x in a if x]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def ref_descartes_roots(a: list[int]) -> list[list[int]]:
    """The Vincent-Collins-Akritas loop ``exactnum._descartes_roots`` ran
    before its packed sign read and its skip rules: every node is tested by
    a Taylor shift of its reversed coefficients, here ``_ref_taylor_shift``,
    and both children of a split are made and tested.  Same entries."""
    e = exactnum._root_bound_exponent(a)

    def at(k: int, j: int) -> tuple[int, int]:
        x = F((2 * k - (1 << j)) << e, 1 << j)
        return x.numerator, x.denominator

    shifted = _ref_taylor_shift([x << (e * i) for i, x in enumerate(a)], -1)
    roots: list[list[int]] = []
    stack = [(exactnum._drop_twos([x << i for i, x in enumerate(shifted)]), 0, 0)]
    while stack:
        q, k, j = stack.pop()
        v = _ref_variations(_ref_taylor_shift(q[::-1], 1))
        if v == 0:
            continue
        if v == 1:
            roots.append([*at(k, j), *at(k + 1, j), _sgn(q[0])])
            continue
        d = len(q) - 1
        left = [x << (d - i) for i, x in enumerate(q)]
        right = _ref_taylor_shift(left, 1)
        if not right[0]:
            m = at(2 * k + 1, j + 1)
            roots.append([*m, *m, 0])
            del right[0]
        stack.append((exactnum._drop_twos(left), 2 * k, j + 1))
        stack.append((exactnum._drop_twos(right), 2 * k + 1, j + 1))
    return roots


def _holds(outer: list[int], inner: list[int]) -> bool:
    """Whether the one root of the entry ``inner`` provably lies in the entry
    ``outer`` (entries as ``_descartes_roots`` returns them)."""
    a, b = F(outer[0], outer[1]), F(outer[2], outer[3])
    x, y = F(inner[0], inner[1]), F(inner[2], inner[3])
    if not outer[4]:
        return x == y == a if not inner[4] else x < a < y
    if not inner[4]:
        return a < x < b
    return a <= x and y <= b


def assert_same_roots(got: list[list[int]], want: list[list[int]]) -> None:
    """Each root of ``want`` lies in exactly one entry of ``got``, and vice versa."""
    for inner in want:
        assert sum(_holds(g, inner) for g in got) == 1, (got, want, inner)
    for inner in got:
        assert sum(_holds(w, inner) for w in want) == 1, (got, want, inner)


def _int_sturm_chain(p: UniPoly) -> list[list[int]]:
    # each remainder of UniPoly's division is the Euclidean remainder over Q,
    # and its numerators a positive multiple of it: the chain's signs are
    # those of the negated remainders
    chain = [exactnum._int_primitive(p.num)]
    if p.degree:
        chain.append(exactnum._int_primitive(p.derivative().num))
    while len(chain[-1]) > 1:
        r = divmod(UniPoly(chain[-2]), UniPoly(chain[-1]))[1]
        if r.is_zero:
            break
        chain.append(exactnum._int_primitive([-x for x in r.num]))
    return chain


def _int_variations(chain, x) -> int:
    if x == "+inf":
        signs = [_sgn(c[-1]) for c in chain]
    elif x == "-inf":
        signs = [_sgn(c[-1]) * (-1) ** (len(c) - 1) for c in chain]
    else:
        signs = [_sgn(exactnum._eval_int(c, x)) for c in chain]
    signs = [s for s in signs if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def ref_sturm_isolate(p: UniPoly) -> list[IsolatingInterval]:
    """The Sturm-chain isolator whose bisection tree ``sturm_isolate`` replays:
    a Sturm chain of primitive integer polynomials, and the same stack,
    midpoint fence and stopping rules.  Both return identical intervals."""
    if p.degree == 0:
        return []
    chain = _int_sturm_chain(p)
    if _int_variations(chain, "-inf") == _int_variations(chain, "+inf"):
        return []
    b = F(int(1 + max(abs(c / p.lc) for c in p.coeffs)) + 1)
    out = []
    stack = [(-b, _int_variations(chain, -b), b, _int_variations(chain, b))]
    while stack:
        a, va, c, vc = stack.pop()
        if va - vc == 0:
            continue
        if va - vc == 1:
            out.append(IsolatingInterval(a, c))
            continue
        m = (a + c) / 2
        if exactnum._eval_int(chain[0], m) == 0:
            delta = (c - a) / 4
            while (exactnum._eval_int(chain[0], m - delta) == 0
                   or exactnum._eval_int(chain[0], m + delta) == 0
                   or _int_variations(chain, m - delta)
                   - _int_variations(chain, m + delta) != 1):
                delta /= 2
            out.append(IsolatingInterval(m - delta, m + delta))
            stack.append((a, va, m - delta, _int_variations(chain, m - delta)))
            stack.append((m + delta, _int_variations(chain, m + delta), c, vc))
        else:
            vm = _int_variations(chain, m)
            stack.append((a, va, m, vm))
            stack.append((m, vm, c, vc))
    out.sort(key=lambda iv: iv.lo)
    return out


def _bareiss_det(m: list[list[int]]) -> int:
    """Fraction-free determinant of an integer matrix (exact divisions only)."""
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            row_i = m[i]
            row_k = m[k]
            lead = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - lead * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def ref_resultant(f: HomPoly2, g: HomPoly2) -> F:
    """Res of two nonzero binary forms w.r.t. their formal degrees m, n: the
    determinant of the (m + n)-square Sylvester matrix of their coefficients,
    leading zeros included, by Bareiss elimination.  The oracle for
    ``hom_resultant``."""
    m, n = f.degree, g.degree
    a, b = list(reversed(f.num)), list(reversed(g.num))  # descending
    rows = [[0] * i + a + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + b + [0] * (m - 1 - i) for i in range(m)]
    return F(_bareiss_det(rows), f.den ** n * g.den ** m)


def ref_bounded_gcd(p: UniPoly, q: UniPoly) -> UniPoly:
    """``poly_gcd`` with the prime of its lift chosen by the Landau-Mignotte
    bound (von zur Gathen & Gerhard, Modern Computer Algebra, section 6.6):
    once a common factor shows mod some prime, every prime up to twice
    gamma * 2**d * min(||a||_2, ||b||_2) is skipped, d the least degree seen
    mod a prime.  The oracle for ``poly_gcd``, which lifts at every prime."""
    if p.is_zero or q.is_zero:
        return poly_gcd(p, q)
    if p.degree == 0 or q.degree == 0:
        return UNI_ONE
    a, b = p.num, q.num
    d = min(len(a), len(b)) - 1
    bound = 0  # until a common factor shows mod some prime
    for prime in exactnum._PRIMES:
        if prime <= bound:
            continue
        v = exactnum._mod_gcd(a, b, prime)
        if v is None:
            continue
        if len(v) == 1:
            return UNI_ONE
        if not bound:
            a, b = exactnum._int_primitive(a), exactnum._int_primitive(b)
            gamma = gcd(a[-1], b[-1])
            norm = isqrt(min(sum(x * x for x in a), sum(x * x for x in b))) + 1
        d = min(d, len(v) - 1)
        bound = 2 * gamma * norm << d
        if prime > bound:
            lifted = (gamma * x % prime for x in v)
            h = UniPoly(exactnum._int_primitive(
                [c - prime if 2 * c > prime else c for c in lifted]))
            if not divmod(p, h)[1] and not divmod(q, h)[1]:
                return h.monic()
    raise ValueError("coefficients too large for the modular gcd")


def ref_cusp_form(wronskians, e: int) -> HomPoly2:
    """The cusp form by a chart loop of its own: the ``poly_gcd`` of the
    nonzero Wronskians, and the power of s kept by hand as 2e - 2 minus the
    largest Wronskian degree, stopping once both are trivial.  The oracle for
    ``scene.cusp_form``, which takes each Wronskian as a binary form of
    formal degree 2e - 2 and leaves the gcd to ``hom_gcd_many``."""
    g, s_power = None, 2 * e - 2
    for w in wronskians:
        if w.is_zero:
            continue
        s_power = min(s_power, 2 * e - 2 - w.degree)
        g = w if g is None else poly_gcd(g, w)
        if g.degree == 0 and s_power == 0:
            break
    if g is None:
        raise ValueError("the image of the curve in every view is a point")
    return HomPoly2(g.degree + s_power, g.monic().coeffs)


def _rand_form(rng: random.Random, max_deg: int) -> HomPoly2:
    """A nonzero binary form of formal degree 0..max_deg with planted zero
    coefficients (the top one too, a chart-degree drop) and denominators."""
    while True:
        e = rng.randint(0, max_deg)
        cs = [F(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 7))) if rng.random() < 0.7
              else F(0) for _ in range(e + 1)]
        if any(cs):
            return HomPoly2(e, cs)


def _form(p: UniPoly) -> HomPoly2:
    """p as a binary form of its own degree: no zero at t = infinity, so the
    form's resultants and discriminant vanish exactly where p's would."""
    return HomPoly2(p.degree, p.coeffs)


def _rand_poly(rng: random.Random, max_deg: int, bound: int = 9,
               min_deg: int = 0) -> UniPoly:
    """Random integer-coefficient polynomial with degree in [min_deg, max_deg]."""
    while True:
        deg = rng.randint(min_deg, max_deg)
        coeffs = [F(rng.randint(-bound, bound)) for _ in range(deg)]
        lead = rng.randint(1, bound) * rng.choice((1, -1))
        p = UniPoly(tuple(coeffs + [F(lead)]))
        if p.degree is not None and p.degree >= min_deg:
            return p


def gcd_laws(seed: int, cases: int) -> int:
    """gcd divides both operands exactly; a planted common factor reappears."""
    rng = random.Random(seed)
    done = 0
    for _ in range(cases):
        p = _rand_poly(rng, 6)
        q = _rand_poly(rng, 6)
        r = _rand_poly(rng, 3, min_deg=1)
        g = poly_gcd(p, q)
        # divisibility, exactly
        assert divmod(p, g)[1] == UniPoly(), (p, q, g)
        assert divmod(q, g)[1] == UniPoly(), (p, q, g)
        assert g.coeffs[-1] == 1
        # common-factor law: gcd(pr, qr) == monic(r) * gcd(p, q)
        g2 = poly_gcd(p * r, q * r)
        expect = (r.monic() * g).monic()
        assert g2 == expect, (p, q, r, g2, expect)
        done += 2
    return done


def resultant_multiplicativity(seed: int, cases: int) -> int:
    """res(p*q, r) = res(p, r) * res(q, r), on forms of full degree."""
    rng = random.Random(seed)
    done = 0
    for _ in range(cases):
        p = _rand_poly(rng, 4, min_deg=1)
        q = _rand_poly(rng, 4, min_deg=1)
        r = _rand_poly(rng, 4, min_deg=1)
        pq, pr, qr = (hom_resultant(_form(a), _form(b)) for a, b in ((p * q, r), (p, r), (q, r)))
        assert pq == pr * qr, (p, q, r)
        done += 1
    return done


def resultant_gcd_random(seed: int, cases: int) -> int:
    """res(p, q) = 0 exactly when p, q share a root (deg gcd >= 1); half the
    cases plant a shared linear factor so both branches stay exercised."""
    rng = random.Random(seed)
    done = 0
    for k in range(cases):
        p = _rand_poly(rng, 5, min_deg=1)
        q = _rand_poly(rng, 5, min_deg=1)
        if k % 2 == 0:
            shared = UniPoly((F(rng.randint(-5, 5)), F(1)))
            p, q = p * shared, q * shared
        vanishes = hom_resultant(_form(p), _form(q)) == 0
        has_common = poly_gcd(p, q).degree >= 1
        assert vanishes == has_common, (p, q)
        done += 1
    return done


def resultant_gcd_exhaustive() -> int:
    """The same equivalence, exhaustively over small monic quadratics."""
    span = range(-2, 3)
    quads = [UniPoly((F(c), F(b), F(1))) for b, c in product(span, span)]
    done = 0
    for p in quads:
        for q in quads:
            vanishes = hom_resultant(_form(p), _form(q)) == 0
            has_common = poly_gcd(p, q).degree >= 1
            assert vanishes == has_common, (p, q)
            done += 1
    return done


def resultant_oracle(seed: int, cases: int) -> int:
    """hom_resultant equals the Sylvester determinant (``ref_resultant``) on
    random forms of formal degrees 0..9; every third pair shares a planted
    linear factor, and every fifth has both top coefficients zeroed (a
    common zero at [0:1])."""
    rng = random.Random(seed)
    done = 0
    for k in range(cases):
        f, g = _rand_form(rng, 9), _rand_form(rng, 9)
        if k % 3 == 0:
            lin = HomPoly2(1, (rng.randint(-3, 3), rng.choice((-2, -1, 1, 2))))
            f, g = f * lin, g * lin
        if k % 5 == 0 and f.degree and g.degree:
            f2 = HomPoly2(f.degree, f.coeffs[:-1])
            g2 = HomPoly2(g.degree, g.coeffs[:-1])
            if not (f2.is_zero or g2.is_zero):
                f, g = f2, g2
        assert hom_resultant(f, g) == ref_resultant(f, g), (f, g)
        done += 1
    return done


def distinct_count_square_law(seed: int, cases: int) -> int:
    """distinct_root_count(p*p) == distinct_root_count(p)."""
    rng = random.Random(seed)
    done = 0
    for _ in range(cases):
        p = _rand_poly(rng, 5, min_deg=1)
        assert distinct_root_count(p * p) == distinct_root_count(p), p
        done += 1
    return done


def squarefree_laws(seed: int, cases: int) -> int:
    """squarefree_part is idempotent and annihilates planted multiplicity."""
    rng = random.Random(seed)
    done = 0
    for _ in range(cases):
        p = _rand_poly(rng, 4, min_deg=1)
        sf = squarefree_part(p)
        assert squarefree_part(sf) == sf, p
        assert squarefree_part(p * p) == sf, p
        done += 2
    return done


def discriminant_laws(seed: int, cases: int) -> int:
    """disc vanishes exactly on repeated roots: planted squares vanish, and
    random squarefree draws match the gcd(p, p') criterion."""
    rng = random.Random(seed)
    done = 0
    for _ in range(cases):
        p = _rand_poly(rng, 4, min_deg=1)
        lin = UniPoly((F(rng.randint(-4, 4)), F(1)))
        assert hom_discriminant(_form(p * lin * lin)) == 0, (p, lin)
        if p.degree >= 1:
            repeated = poly_gcd(p, p.derivative()).degree >= 1
            assert (hom_discriminant(_form(p)) == 0) == repeated, p
        done += 2
    return done


def sturm_grid_scan(seed: int, cases: int) -> int:
    """Isolation agrees with exhaustive sign-change scanning for integer roots."""
    rng = random.Random(seed)
    done = 0
    for _ in range(cases):
        k = rng.randint(1, 5)
        roots = sorted(rng.sample(range(-6, 7), k))
        p = poly_from_roots([F(r) for r in roots])
        ivs = sturm_isolate(p)
        assert len(ivs) == k, (roots, ivs)
        for root, iv in zip(roots, ivs):
            assert iv.lo < root < iv.hi, (roots, ivs)
        done += 1
    return done


def hom_consistency(seed: int, cases: int) -> int:
    """hom_distinct_root_count(H) = distinct_root_count(H(1, t)) + [s | H]."""
    rng = random.Random(seed)
    done = 0
    for _ in range(cases):
        base = _rand_poly(rng, 4, min_deg=1)
        sval = rng.randint(0, 2)
        e = base.degree + sval
        # homogenize base to degree e: s^sval * sum base_k s^(deg-k) t^k
        coeffs = [F(0)] * (e + 1)
        for k, c in enumerate(base.coeffs):
            coeffs[k] = c
        h = HomPoly2(e, tuple(coeffs))
        expect = distinct_root_count(h.dehom()) + (1 if sval > 0 else 0)
        assert hom_distinct_root_count(h) == expect, (base, sval)
        done += 1
    return done


def ref_minor(rows, ri, ci) -> F:
    """The minor of the Fraction matrix rows on rows ri and columns ci, by
    Laplace expansion along its first row."""
    if len(ri) == 1:
        return F(rows[ri[0]][ci[0]])
    return sum(((-1) ** pos * rows[ri[0]][c]
                * ref_minor(rows, ri[1:], ci[:pos] + ci[pos + 1:])
                for pos, c in enumerate(ci)), F(0))


def _rand_camera(rng: random.Random) -> Camera:
    """A full-rank camera with rational entries, denominators 1..12 and
    either sign, some columns zero, by rejection."""
    while True:
        h = rng.randint(1, 3)
        N = rng.randint(h, 5)
        zero = {k for k in range(N + 1) if rng.random() < 0.2}
        rows = [[F(0) if k in zero else F(rng.randint(-9, 9), rng.randint(1, 12))
                 for k in range(N + 1)] for _ in range(h + 1)]
        try:
            cam = Camera(h, N, rows)
        except ValueError:  # not full rank
            continue
        assert cam.entries == tuple(map(tuple, rows)), rows
        return cam


def camera_laws(seed: int, cases: int) -> int:
    """Cameras with rational entries against Fraction references: the image
    of a curve is sum_k c_jk f_k, the wedge entries are Fraction Laplace
    minors in ``subset_order``, the stored numerators and denominator are
    canonical, and rebuilding a camera from its entries or from its JSON
    object gives an equal camera with an equal hash."""
    rng = random.Random(seed)
    for _ in range(cases):
        cam = _rand_camera(rng)
        rows = cam.entries
        assert cam.den > 0 and gcd(cam.den, *cam.num) == 1, rows
        twin = Camera(cam.h, cam.N, rows)
        assert twin == cam and hash(twin) == hash(cam), rows
        assert camera_from_dict(camera_to_dict(cam)) == cam, rows
        e = rng.randint(1, 4)
        f = _by_rejection("curve", lambda: RationalCurve(cam.N, e, tuple(
            HomPoly2(e, [F(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(e + 1)])
            for _ in range(cam.N + 1))))
        want = tuple(sum((g * c for c, g in zip(row, f.coords)), HomPoly2(e)) for row in rows)
        assert apply_camera(cam, f) == want, (rows, f)
        for k in range(1, cam.h + 2):
            want = tuple(tuple(ref_minor(rows, [r - 1 for r in ri], [c - 1 for c in ci])
                               for ci in subset_order(cam.N + 1, k))
                         for ri in subset_order(cam.h + 1, k))
            assert wedge_camera(cam, k).entries == want, (rows, k)
    return cases


def refine_agreement(seed: int, cases: int) -> int:
    """refine_root returns the interval of plain bisection (``ref_refine``) on
    every root ``sturm_isolate`` finds, from the proved interval and from one
    bisected once by hand (which carries no proof), at random width bounds.
    Half the polynomials plant two roots 2^-k apart, some of them dyadic."""
    rng = random.Random(seed)
    done = 0
    for k in range(cases):
        roots = {F(rng.randint(-64, 64), rng.choice((1, 3, 4, 7, 32)))
                 for _ in range(rng.randint(1, 4))}
        if k % 2 == 0:
            r = min(roots)
            roots.add(r + F(1, 2 ** rng.randint(4, 40)))
        p = poly_from_roots(sorted(roots)) * _rand_poly(rng, 2).scale(F(1, rng.randint(1, 9)))
        p = squarefree_part(p)
        w = F(1, rng.choice((2, 3, 10)) ** rng.randint(1, 60))
        for iv in sturm_isolate(p):
            assert refine_root(p, iv, w) == ref_refine(p, iv, w), (p, iv, w)
            half = ref_refine(p, iv, iv.width / 2)
            assert refine_root(p, half, w) == ref_refine(p, half, w), (p, half, w)
            done += 1
    return done


def descartes_oracle(seed: int, cases: int) -> int:
    """``_descartes_roots`` finds the roots of ``ref_descartes_roots``, and
    ``sturm_isolate`` returns the intervals of ``ref_sturm_isolate``.  The
    planted roots sit on the subdivision points of the Descartes boxes, some
    with a neighbour 2^-k away, beside random rationals and a random
    cofactor, which adds complex roots."""
    rng = random.Random(seed)
    done = 0
    for _ in range(cases):
        roots = set()
        for _ in range(rng.randint(1, 5)):
            x = F(rng.randint(-16, 16), rng.choice((1, 2, 4, 8, 3, 7)))
            roots.add(x)
            if rng.random() < 0.3:
                roots.add(x + rng.choice((1, -1)) * F(1, 2 ** rng.randint(3, 40)))
        p = squarefree_part(poly_from_roots(sorted(roots)) * _rand_poly(rng, 3, min_deg=0))
        if p.degree == 0:
            continue
        assert_same_roots(exactnum._descartes_roots(p.num), ref_descartes_roots(p.num))
        assert sturm_isolate(p) == ref_sturm_isolate(p), p
        done += 1
    return done


def critical_polynomial_oracle(f, arr, u: DataPoint) -> UniPoly:
    """g = sum_{i,j} (p_ij - u_ij q_i)(p'_ij q_i - p_ij q'_i) prod_{k != i} q_k^3,
    term by term, with each prod_{k != i} q_k^3 built directly: the oracle
    for the Kronecker assembly of ``eddeg.critical_polynomial``."""
    charts = []
    for i, cam in enumerate(arr.cameras):
        img = apply_camera(cam, f)
        if img[0].is_zero:
            raise ValueError(f"curve at infinity of camera {i}")
        charts.append((img[0].dehom(), [p.dehom() for p in img[1:]]))
    g = UniPoly()
    for i, (q, ps) in enumerate(charts):
        outer = UniPoly((1,))
        for k, (qk, _) in enumerate(charts):
            if k != i:
                outer = outer * qk * qk * qk
        dq = q.derivative()
        for j, p in enumerate(ps):
            g = g + (p - u.u[i][j] * q) * (p.derivative() * q - p * dq) * outer
    return g


def _products_excluding_each(factors, one) -> list:
    """[prod_{k != i} factors[k] for each i] from prefix and suffix products:
    the cofactors of ``perturbed_numerator_oracle``."""
    n = len(factors)
    out = [one] * n
    for i in range(1, n):
        out[i] = out[i - 1] * factors[i - 1]
    suffix = one
    for i in range(n - 2, -1, -1):
        suffix = suffix * factors[i + 1]
        out[i] = out[i] * suffix
    return out


def perturbed_numerator_oracle(images, beta, beta0) -> HomPoly2:
    """The cross-check's G = beta0 * prod Q_k^2 + sum_i [prod_{k != i} Q_k^2]
    sum_j (P_ij - beta_ij Q_i)^2, with the prefix and suffix cofactors: the
    oracle for ``eddeg._perturbed_numerator``."""
    qs = [img[0] for img in images]
    outers = _products_excluding_each([q * q for q in qs], HomPoly2(0, (1,)))
    prod_q = qs[0]
    for q in qs[1:]:
        prod_q = prod_q * q
    g = beta0 * (prod_q * prod_q)
    for i, (img, outer) in enumerate(zip(images, outers)):
        inner = HomPoly2(2 * qs[i].degree)
        for j, p in enumerate(img[1:]):
            lin = p - beta[i][j] * qs[i]
            inner = inner + lin * lin
        g = g + inner * outer
    return g


def _rand_rat(rng: random.Random, bound: int = 5) -> F:
    return F(rng.randint(-bound, bound), rng.choice((1, 1, 2, 3, 7)))


def _non_generic_cell(rng: random.Random):
    """(curve, arrangement, data) of a kind a generic draw almost never
    gives: rational curve, camera and data entries (some data denominators
    of 13 digits), with probability 1/2 a curve coordinate s^e, and each
    camera's chart row either random, the chart row of camera 0 (charts
    sharing every zero), the row picking s^e (a constant chart), or a row
    whose chart drops below degree e (a zero at [0:1], which two such
    charts share).  None when the draw is not a curve or a camera."""
    e, h, n = rng.randint(1, 3), rng.choice((2, 3)), rng.randint(1, 4)
    N = h + 1
    rows = [[_rand_rat(rng) for _ in range(e + 1)] for _ in range(N + 1)]
    if rng.random() < 0.5:
        rows[0] = [F(1)] + [F(0)] * e
    cams = []
    for i in range(n):
        entries = [[_rand_rat(rng) for _ in range(N + 1)] for _ in range(h + 1)]
        kind = rng.choice(("random", "repeat", "constant", "drop"))
        if kind == "repeat" and cams:
            entries[0] = list(cams[0].entries[0])
        elif kind == "constant" and rows[0][1:] == [0] * e:
            entries[0] = [F(1)] + [F(0)] * N
        elif kind == "drop":
            # the t^e coefficient of the chart is sum_k row[k] * rows[k][e]
            top = [r[e] for r in rows]
            k = next((k for k, c in enumerate(top) if c), None)
            if k is not None:
                entries[0][k] = 0
                entries[0][k] = -sum(a * c for a, c in zip(entries[0], top)) / top[k]
        try:
            cams.append(Camera(h, N, entries))
        except ValueError:
            return None
    try:
        f = RationalCurve(N=N, e=e, coords=tuple(HomPoly2(e, r) for r in rows))
    except ValueError:
        return None
    den = rng.choice((1, 8, 10**12 + 39))
    u = DataPoint(u=tuple(tuple(F(rng.randint(-64 * den, 64 * den), rng.randint(1, den))
                                for _ in range(h)) for _ in range(n)))
    return f, Arrangement(tuple(cams)), u


def assembly_oracle(seed: int, cases: int) -> int:
    """``critical_polynomial`` and the cross-check's perturbed numerator
    equal their term-by-term sums (``critical_polynomial_oracle``,
    ``perturbed_numerator_oracle``) on non-generic cells
    (``_non_generic_cell``); a chart that vanishes is refused by both."""
    rng = random.Random(seed)
    done = 0
    while done < cases:
        cell = _non_generic_cell(rng)
        if cell is None:
            continue
        f, arr, u = cell
        try:
            want = critical_polynomial_oracle(f, arr, u)
        except ValueError:
            try:
                critical_polynomial(f, arr, u)
            except ValueError:
                pass
            else:
                raise AssertionError(f"a vanishing chart was not refused: {f}, {arr}")
        else:
            assert critical_polynomial(f, arr, u) == want, (f, arr, u)
        images = [apply_camera(c, f) for c in arr.cameras]
        beta0 = rng.choice((F(0), _rand_rat(rng)))
        got = eddeg._perturbed_numerator(images, u.u, beta0)
        assert got == perturbed_numerator_oracle(images, u.u, beta0), (f, arr, u, beta0)
        done += 1
    return done


def l1_bound_oracle(views, rows, *, wronskian: bool, constant=F(0)) -> tuple[int, int]:
    """(bound, nb) of ``eddeg._kron_sum``, from the norm loop written out:
    bound, the ell-1 bound on H built from the norms of each view's
    cleared lists, and nb, the slot bytes that make it and every packed
    list's norm less than half a slot.  The oracle for the ell-1 run of
    ``eddeg._assemble``."""
    def norm(a):
        return sum(map(abs, a))

    pairs, top = [], 0
    for (q, ps, _, *derivs), (b, rs) in zip(eddeg._cleared_views(views, wronskian),
                                            eddeg._cleared_rows(rows)):
        nq, nps = norm(q), [norm(p) for p in ps]
        nls = [b * n + abs(r) * nq for n, r in zip(nps, rs)]
        if wronskian:
            dq, dps = derivs
            ndq, ndps = norm(dq), [norm(dp) for dp in dps]
            nws = [ndp * nq + n * ndq for n, ndp in zip(nps, ndps)]
            pairs.append((sum(nl * nw for nl, nw in zip(nls, nws)), b * nq ** 3))
            top = max(top, ndq, *ndps)
        else:
            pairs.append((sum(nl * nl for nl in nls), (b * nq) ** 2))
        top = max(top, nq, *nps)
    if constant:
        pairs.append((abs(constant.numerator), constant.denominator))
    bound = eddeg._fraction_sum(pairs)
    return bound, (max(top, bound).bit_length() + 8) // 8


def charts_and_images(f, arr) -> tuple[list, list]:
    """The charts and the images of every view of (f, arr), as a
    ``Scene`` holds them, but also where a chart vanishes, which an edge
    cell may have and a scene refuses."""
    images = [apply_camera(c, f) for c in arr.cameras]
    return [[c.dehom() for c in img] for img in images], images


def check_l1_bound(f, arr, u: DataPoint, beta0) -> None:
    """On the critical polynomial's assembly (the charts) and the
    cross-check's (the images, with constant beta0), ``eddeg._kron_sum``'s
    ell-1 run of ``eddeg._assemble`` gives ``l1_bound_oracle``'s bound and
    its exact run is unpacked at the oracle's nb."""
    assemble = eddeg._assemble
    charts, images = charts_and_images(f, arr)
    for views, size, kwargs in (
            (charts, 3 * f.e * arr.n - 1, {"wronskian": True}),
            (images, 2 * f.e * arr.n + 1, {"wronskian": False, "constant": beta0})):
        runs = []

        def spy(*args, **kw):
            runs.append(assemble(*args, **kw))
            return runs[-1]

        with mock.patch.object(eddeg, "_assemble", spy), \
                mock.patch.object(eddeg, "_kron_unpack", wraps=eddeg._kron_unpack) as unpack:
            eddeg._kron_sum(views, u.u, size, **kwargs)
        bound, nb = l1_bound_oracle(views, u.u, **kwargs)
        assert (runs[0], unpack.call_args.args[1]) == (bound, nb), (f, arr, u, kwargs)


def l1_bound(seed: int, cases: int) -> int:
    """``check_l1_bound`` on generic and non-generic cells
    (``_generic_cell``, ``_non_generic_cell``)."""
    rng = random.Random(seed)
    done = 0
    while done < cases:
        cell = rng.choice((_generic_cell, _non_generic_cell))(rng)
        if cell is None:
            continue
        check_l1_bound(*cell, rng.choice((F(0), _rand_rat(rng))))
        done += 1
    return done


def kron_sum_mod(views, rows, size: int, *, wronskian: bool, constant=F(0)):
    """(h, p) of ``eddeg._kron_sum_mod`` on the ``eddeg._mod_views`` of
    ``views``."""
    mod_views = eddeg._mod_views(views, size, wronskian=wronskian)
    return eddeg._kron_sum_mod(mod_views, rows, constant=constant)


def outcome(fn, *args, **kwargs):
    """fn's value, or the type and message of the error it raises."""
    try:
        return fn(*args, **kwargs)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def exact_outcome(fn, *args, **kwargs):
    """:func:`outcome` with no count or cross-check proved mod p, so that
    each takes its exact path."""
    with mock.patch.object(eddeg, "_squarefree_mod_p", lambda *a, **k: False):
        return outcome(fn, *args, **kwargs)


def _generic_cell(rng: random.Random):
    """(curve, arrangement, data) from the seeded samplers: e <= 3, n <= 4,
    h in {2, 3}, N = h + 1, integer entries, the data of
    ``random_data_point``."""
    e, h, n = rng.randint(1, 3), rng.choice((2, 3)), rng.randint(1, 4)
    f = random_curve(rng.randrange(2**32), e, h + 1)
    arr = Arrangement(tuple(random_camera(rng.randrange(2**32), h, h + 1)
                            for _ in range(n)))
    return f, arr, eddeg.random_data_point(rng.randrange(2**32), n, h)


def double_root_data(f: RationalCurve, arr: Arrangement, t0: F,
                     rng: random.Random) -> DataPoint | None:
    """Data at which t0 is a degenerate critical point, so that the critical
    polynomial has a double root at t0; None when t0 is a pole of a chart
    or the system below is singular.

    For D the squared distance, D'/2 = sum (x_ij - u_ij) x'_ij and
    D''/2 = sum x'_ij^2 + (x_ij - u_ij) x''_ij with x_ij = p_ij / q_i.  Every
    u_ij but u_00 and u_01 is drawn, and those two solve D'(t0) = 0 and
    D''(t0) = 0, which are linear in them."""
    views = []
    for q, *ps in Scene(f, arr).charts:
        q0, q1, q2 = (q.evaluate(t0), q.derivative().evaluate(t0),
                      q.derivative().derivative().evaluate(t0))
        if not q0:
            return None
        row = []
        for p in ps:
            p0, p1, p2 = (p.evaluate(t0), p.derivative().evaluate(t0),
                          p.derivative().derivative().evaluate(t0))
            w = (p1 * q0 - p0 * q1) / q0**2
            row.append((p0 / q0, w, (p2 * q0 - p0 * q2) / q0**2 - 2 * q1 * w / q0))
        views.append(row)
    u = [[_rand_rat(rng) for _ in range(arr.h)] for _ in range(arr.n)]
    a = b = F(0)  # D'/2 and D''/2 without the terms of u_00 and u_01
    for i, row in enumerate(views):
        for j, (x, x1, x2) in enumerate(row):
            b += x1 * x1
            if i or j >= 2:
                a += (x - u[i][j]) * x1
                b += (x - u[i][j]) * x2
    (x0, a0, b0), (y0, a1, b1) = views[0][:2]
    det = a0 * b1 - a1 * b0
    if not det:
        return None
    # (v0, v1) = (x_00 - u_00, x_01 - u_01) solves a0 v0 + a1 v1 = -a, b0 v0 + b1 v1 = -b
    u[0][0] = x0 - (a1 * b - a * b1) / det
    u[0][1] = y0 - (a * b0 - a0 * b) / det
    return DataPoint(u=tuple(map(tuple, u)))


# the circle (1, t) / (1 + t^2) through the identity, whose chart's zeros
# +-i lie on the isotropic cone: they are simple roots of the critical
# polynomial, and zeros of every perturbed numerator G_beta
_CIRCLE = RationalCurve(N=2, e=2, coords=(HomPoly2(2, (1, 0, 1)), HomPoly2(2, (1, 0, 0)),
                                         HomPoly2(2, (0, 1, 0))))
_IDENTITY = Camera(2, 2, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
# the cuspidal cubic (s^3, s t^2, t^3): every view has the cusp at t = 0,
# a simple root of the critical polynomial
_CUSPIDAL = RationalCurve(N=2, e=3, coords=(HomPoly2(3, (1, 0, 0, 0)),
                                           HomPoly2(3, (0, 0, 1, 0)),
                                           HomPoly2(3, (0, 0, 0, 1))))


def _special_cell(rng: random.Random):
    """(curve, arrangement, data) where the critical polynomial has full
    degree and exactly one kind of root that the count must not keep: a
    double root (``double_root_data`` on a generic cell), a root at a pole
    (``_CIRCLE`` beside random views) or a cusp (``_CUSPIDAL`` under random
    cameras).  None when the draw fails."""
    kind = rng.choice(("double", "pole", "cusp"))
    if kind == "double":
        f, arr, _ = _generic_cell(rng)
        return f, arr, double_root_data(f, arr, _rand_rat(rng, 3), rng)
    n = rng.randint(1, 3)
    cams = [random_camera(rng.randrange(2**32), 2, 2) for _ in range(n)]
    if kind == "pole":
        f, cams[0] = _CIRCLE, _IDENTITY
    else:
        f = _CUSPIDAL
    return f, Arrangement(tuple(cams)), eddeg.random_data_point(rng.randrange(2**32), n, 2)


def modular_count(seed: int, cases: int) -> int:
    """The residues of both Kronecker assemblies mod p are the exact sums
    mod p, and ``ed_degree_affine`` and ``euler_cross_check`` give what
    their exact paths give (``exact_outcome``): every report field, or the
    same error with the same message, with the cell's data as the first
    sample.  The cells are seeded generic ones, non-generic ones (``_non_generic_cell``)
    and ones with a double root, a root at a pole or a cusp
    (``_special_cell``).  On a cell whose genericity certificate fails, a
    count is below 3en - 2 and neither call takes a residue proof
    (``scene.Scene``).  Both outcomes of the residue proof must occur: a
    double root refuses it on a certified scene."""
    rng = random.Random(seed)
    draws = (_generic_cell, _non_generic_cell, _special_cell)
    proved = {True: 0, False: 0}
    certify = eddeg._squarefree_mod_p

    def spy(*args, **kwargs):
        ok = certify(*args, **kwargs)
        proved[ok] += 1
        return ok

    done = failed = 0
    while done < cases:
        cell = rng.choice(draws)(rng)
        if cell is None or cell[2] is None:
            continue
        f, arr, u = cell
        charts, images = charts_and_images(f, arr)
        for views, size, kwargs in (
                (charts, 3 * f.e * arr.n - 1, {"wronskian": True}),
                (images, 2 * f.e * arr.n + 1, {"wronskian": False, "constant": _rand_rat(rng)})):
            h, p = kron_sum_mod(views, u.u, size, **kwargs)
            assert h == [c % p for c in eddeg._kron_sum(views, u.u, size, **kwargs)[0]], cell
        s = rng.randrange(2**32)
        points = (u, eddeg.random_data_point(s, arr.n, arr.h))
        cert = outcome(lambda: Scene(f, arr).certificate)
        failing = isinstance(cert, GenericityCertificate) and not cert.passes
        failed += failing
        for fn, kwargs in ((eddeg.ed_degree_affine, {"data_points": points}),
                           (eddeg.euler_cross_check, {})):
            before = dict(proved)
            with mock.patch.object(eddeg, "_squarefree_mod_p", spy):
                got = outcome(fn, f, arr, s, **kwargs)
            assert got == exact_outcome(fn, f, arr, s, **kwargs), (f, arr, u, s, got)
            if failing:
                assert proved == before, (f, arr, u, s)
                if isinstance(got, eddeg.EDReport):
                    assert got.ed_degree < 3 * f.e * arr.n - 2, (f, arr, u, s, got)
        done += 1
    assert proved[True] and proved[False] and failed, (proved, failed)
    return done


def run_all(seed: int = 20260823) -> dict[str, int]:
    """Run every suite; the value is the per-suite executed-case count."""
    return {
        "gcd_laws": gcd_laws(seed + 1, 1600),
        "resultant_multiplicativity": resultant_multiplicativity(seed + 2, 1400),
        "resultant_gcd_random": resultant_gcd_random(seed + 3, 1500),
        "resultant_gcd_exhaustive": resultant_gcd_exhaustive(),
        "resultant_oracle": resultant_oracle(seed + 10, 1500),
        "distinct_count_square_law": distinct_count_square_law(seed + 4, 1200),
        "squarefree_laws": squarefree_laws(seed + 5, 800),
        "discriminant_laws": discriminant_laws(seed + 6, 700),
        "sturm_grid_scan": sturm_grid_scan(seed + 7, 700),
        "hom_consistency": hom_consistency(seed + 8, 1000),
        "refine_agreement": refine_agreement(seed + 9, 150),
        "descartes_oracle": descartes_oracle(seed + 11, 600),
        "assembly_oracle": assembly_oracle(seed + 12, 150),
        "modular_count": modular_count(seed + 13, 150),
        "l1_bound": l1_bound(seed + 14, 300),
        "camera_laws": camera_laws(seed + 15, 300),
    }
