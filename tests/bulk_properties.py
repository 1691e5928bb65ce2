"""Seeded bulk law-checking for the exact polynomial layer.

Each function runs a batch of exact identity checks driven by one Mersenne-
Twister seed and returns the number of cases executed, so callers (including
the acceptance gate) can assert both correctness and case volume.  Any
violated law raises AssertionError immediately with the offending operands.
"""

from __future__ import annotations

import random
from fractions import Fraction as F
from itertools import product

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


def run_all(seed: int = 20260823) -> dict[str, int]:
    """Run every suite; the value is the per-suite executed-case count."""
    return {
        "gcd_laws": gcd_laws(seed + 1, 1600),
        "resultant_multiplicativity": resultant_multiplicativity(seed + 2, 1400),
        "resultant_gcd_random": resultant_gcd_random(seed + 3, 1500),
        "resultant_gcd_exhaustive": resultant_gcd_exhaustive(),
        "distinct_count_square_law": distinct_count_square_law(seed + 4, 1200),
        "squarefree_laws": squarefree_laws(seed + 5, 800),
        "discriminant_laws": discriminant_laws(seed + 6, 700),
        "sturm_grid_scan": sturm_grid_scan(seed + 7, 700),
        "hom_consistency": hom_consistency(seed + 8, 1000),
        "refine_agreement": refine_agreement(seed + 9, 150),
    }
