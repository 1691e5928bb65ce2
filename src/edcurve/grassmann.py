"""Lines in P^3, wedge cameras, the conic of a ruled quadric, Bezier scrolls.

Coordinate conventions, fixed once for the whole package:

* Plucker coordinates of a line are the six 2x2 minors of a spanning 2x4
  matrix in the order (p12, p13, p23, p14, p24, p34), with minor(i,j) =
  X1_i*X2_j - X1_j*X2_i for i < j (1-based).  That index order lists 2-subsets
  sorted by largest element first, then recursively — the *internal* basis
  order used for every wedge-matrix row and column, so Cauchy-Binet and the
  line-transformation identity hold verbatim as matrix algebra.
* ``WedgeCamera.lex_display()`` re-orders rows and columns into plain
  lexicographic subset order — the layout used when such matrices are printed
  as tables — without touching the internal algebra.

The Grassmann-Plucker relation in this basis is p12*p34 - p13*p24 + p14*p23 = 0
and two lines meet iff the polarized form
p12*q34 - p13*q24 + p14*q23 + p23*q14 - p24*q13 + p34*q12 vanishes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Sequence

from .exactnum import HomPoly2, Rat, _as_rat, _rat_array, _rats, rat_to_str
from .scene import Camera, RationalCurve, _split

# ---------------------------------------------------------------------------
# subset orderings
# ---------------------------------------------------------------------------

def subset_order(m: int, k: int) -> list[tuple[int, ...]]:
    """All k-subsets of {1..m}, sorted by largest element first, then recursively.

    For (m,k) = (4,2): (1,2),(1,3),(2,3),(1,4),(2,4),(3,4) — the Plucker
    coordinate order.
    """
    subs = [tuple(c) for c in itertools.combinations(range(1, m + 1), k)]
    subs.sort(key=lambda s: tuple(reversed(s)))
    return subs


def subset_order_lex(m: int, k: int) -> list[tuple[int, ...]]:
    """Plain lexicographic k-subset order (display layout for wedge matrices)."""
    return [tuple(c) for c in itertools.combinations(range(1, m + 1), k)]


PLUECKER_INDEX_ORDER = tuple(subset_order(4, 2))  # ((1,2),(1,3),(2,3),(1,4),(2,4),(3,4))


# ---------------------------------------------------------------------------
# Plucker lines
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlueckerLine:
    """Line in P^3 by its six Plucker coordinates (p12, p13, p23, p14, p24, p34)."""

    p: tuple[Rat, ...]

    def __post_init__(self):
        ps = tuple(_as_rat(x) for x in self.p)
        if len(ps) != 6:
            raise ValueError("need six Plucker coordinates")
        if all(x == 0 for x in ps):
            raise ValueError("zero vector is not a line")
        object.__setattr__(self, "p", ps)
        if self.pluecker_relation_value() != 0:
            raise ValueError("coordinates violate the Plucker relation")

    def pluecker_relation_value(self) -> Rat:
        p12, p13, p23, p14, p24, p34 = self.p
        return p12 * p34 - p13 * p24 + p14 * p23

    def meet_value(self, other: "PlueckerLine") -> Rat:
        """Polarized Plucker form; zero iff the two lines intersect in P^3."""
        p12, p13, p23, p14, p24, p34 = self.p
        q12, q13, q23, q14, q24, q34 = other.p
        return (p12 * q34 - p13 * q24 + p14 * q23
                + p23 * q14 - p24 * q13 + p34 * q12)

    def meets(self, other: "PlueckerLine") -> bool:
        return self.meet_value(other) == 0


def pluecker_from_span(x1: Sequence[Rat], x2: Sequence[Rat]) -> PlueckerLine:
    """Six minors of [X1; X2] in the fixed index order; inputs must be independent."""
    a = [_as_rat(v) for v in x1]
    b = [_as_rat(v) for v in x2]
    if len(a) != 4 or len(b) != 4:
        raise ValueError("need points of P^3 (four coordinates)")
    minors = []
    for (i, j) in PLUECKER_INDEX_ORDER:
        minors.append(a[i - 1] * b[j - 1] - a[j - 1] * b[i - 1])
    if all(m == 0 for m in minors):
        raise ValueError("spanning points are linearly dependent")
    return PlueckerLine(tuple(minors))


# ---------------------------------------------------------------------------
# wedge cameras
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WedgeCamera:
    """All k x k minors of a camera, indexed by the internal subset order.

    entries[I][J] is the minor of ``base`` with 1-based row subset I and column
    subset J, rows and columns each listed in ``subset_order``.  Full rank is
    inherited from the base camera (compound of a full-row-rank matrix).
    """

    base: Camera
    k: int
    entries: tuple[tuple[Rat, ...], ...]

    @property
    def row_subsets(self) -> list[tuple[int, ...]]:
        return subset_order(self.base.h + 1, self.k)

    @property
    def col_subsets(self) -> list[tuple[int, ...]]:
        return subset_order(self.base.N + 1, self.k)

    def as_camera(self) -> Camera:
        """The minor matrix as a camera between the wedge-power spaces."""
        return Camera(len(self.entries) - 1, len(self.entries[0]) - 1, self.entries)

    def lex_display(self) -> list[list[Rat]]:
        """Rows and columns re-ordered into plain lexicographic subset order."""
        rs = self.row_subsets
        cs = self.col_subsets
        r_perm = [rs.index(s) for s in subset_order_lex(self.base.h + 1, self.k)]
        c_perm = [cs.index(s) for s in subset_order_lex(self.base.N + 1, self.k)]
        return [[self.entries[i][j] for j in c_perm] for i in r_perm]


def _minor(rows: Sequence[Sequence[int]], ri: Sequence[int], ci: Sequence[int]) -> int:
    """Laplace along the first row; k <= 4 in every use, so no pivoting needed."""
    if len(ri) == 1:
        return rows[ri[0]][ci[0]]
    return sum((-1) ** pos * rows[ri[0]][c] * _minor(rows, ri[1:], ci[:pos] + ci[pos + 1:])
               for pos, c in enumerate(ci))


def wedge_camera(camera: Camera, k: int) -> WedgeCamera:
    """Matrix of all k x k minors (the induced map on k-th exterior powers):
    each minor of the camera's integer numerators, over den**k."""
    if not 1 <= k <= camera.h + 1:
        raise ValueError("wedge order k must satisfy 1 <= k <= h+1")
    rows = subset_order(camera.h + 1, k)
    cols = subset_order(camera.N + 1, k)
    num, den = _split(camera.num, camera.N + 1), camera.den ** k
    entries = tuple(
        _rats([_minor(num, [r - 1 for r in ri], [c - 1 for c in ci]) for ci in cols], den)
        for ri in rows
    )
    return WedgeCamera(base=camera, k=k, entries=entries)


# ---------------------------------------------------------------------------
# the ruled-quadric conic and three skew lines
# ---------------------------------------------------------------------------

def l3_curve() -> RationalCurve:
    """Degree-2 curve (s^2, 0, -st, st, 0, t^2) in P^5: the lines meeting three
    fixed pairwise-skew lines, under the Plucker embedding.

    Every point satisfies the Plucker relation and is the line spanned by
    [s:0:t:0] and [0:s:0:t] — one ruling of the quadric x0*x3 - x1*x2 = 0.
    """
    e = 2
    z = HomPoly2(e)
    s2 = HomPoly2(e, (1, 0, 0))
    st = HomPoly2(e, (0, 1, 0))
    t2 = HomPoly2(e, (0, 0, 1))
    return RationalCurve(N=5, e=e, coords=(s2, z, -1 * st, st, z, t2))


def three_skew_lines(params: Sequence[tuple[Rat, Rat]]) -> tuple[PlueckerLine, ...]:
    """Lines span([u:v:0:0], [0:0:u:v]) for three pairwise-distinct [u:v] in P^1."""
    if len(params) != 3:
        raise ValueError("need exactly three parameter points")
    pts = [(_as_rat(u), _as_rat(v)) for (u, v) in params]
    for (u1, v1), (u2, v2) in itertools.combinations(pts, 2):
        if u1 * v2 - u2 * v1 == 0:
            raise ValueError("parameter points must be pairwise distinct")
    lines = []
    for (u, v) in pts:
        lines.append(pluecker_from_span((u, v, 0, 0), (0, 0, u, v)))
    return tuple(lines)


def l3_meet_form(line: PlueckerLine) -> HomPoly2:
    """Polarized Plucker form of ``line`` against the curve point of l3_curve().

    The zero form exactly when the fixed line meets *every* line of the family;
    this is the identity behind the three-skew-lines construction.
    """
    coords = l3_curve().coords
    p12, p13, p23, p14, p24, p34 = line.p
    weights = (p34, -p24, p14, p23, -p13, p12)  # pairs coords in meet order
    acc = HomPoly2(2)
    for w, c in zip(weights, coords):
        if w:
            acc = acc + w * c
    return acc


def segre_quadric_eval(x: Sequence[Rat]) -> Rat:
    """x0*x3 - x1*x2, the equation of the ruled quadric through the skew lines."""
    a = [_as_rat(v) for v in x]
    if len(a) != 4:
        raise ValueError("need a point of P^3")
    return a[0] * a[3] - a[1] * a[2]


# ---------------------------------------------------------------------------
# Bezier scrolls
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BezierCurve:
    """Degree-E Bezier curve in affine 3-space from E+1 pairwise-distinct control points."""

    E: int
    control: tuple[tuple[Rat, Rat, Rat], ...]

    def __post_init__(self):
        if self.E < 1:
            raise ValueError("need degree E >= 1")
        pts = tuple(tuple(_as_rat(x) for x in p) for p in self.control)
        if len(pts) != self.E + 1:
            raise ValueError("need E+1 control points")
        if any(len(p) != 3 for p in pts):
            raise ValueError("control points live in affine 3-space")
        if len(set(pts)) != len(pts):
            raise ValueError("control points must be pairwise distinct")
        object.__setattr__(self, "control", pts)

    def components(self) -> tuple[HomPoly2, HomPoly2, HomPoly2]:
        """The three coordinates as binary forms in the Bernstein basis
        B_{i,E}(s,t) = C(E,i) (s-t)^(E-i) t^i."""
        comps = []
        for axis in range(3):
            acc = HomPoly2(self.E)
            for i, pt in enumerate(self.control):
                if pt[axis]:
                    acc = acc + pt[axis] * _bernstein(i, self.E)
            comps.append(acc)
        return tuple(comps)

    @classmethod
    def from_dict(cls, d: dict) -> "BezierCurve":
        try:
            pts = tuple(_rat_array(p) for p in d["control"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed bezier object: {exc}") from exc
        return cls(E=len(pts) - 1, control=pts)

    def to_dict(self) -> dict:
        return {"control": [[rat_to_str(x) for x in p] for p in self.control]}


def _bernstein(i: int, e: int) -> HomPoly2:
    """C(e,i) * (s-t)^(e-i) * t^i as a binary form of degree e."""
    s_minus_t = HomPoly2(1, (1, -1))
    t = HomPoly2(1, (0, 1))
    acc = HomPoly2(0, (Fraction(comb(e, i)),))
    for _ in range(e - i):
        acc = acc * s_minus_t
    for _ in range(i):
        acc = acc * t
    return acc


def bezier_scroll(b1: BezierCurve, b2: BezierCurve) -> RationalCurve:
    """Ruling lines of the scroll joining two Bezier curves, as a curve in P^5.

    Coordinates are the six 2x2 minors (Plucker order) of the 2x4 matrix with
    rows (s^E1, B1(s,t)) and (s^E2, B2(s,t)); the result has degree E1+E2 when
    the control data is generic, and degenerate data (a common factor across
    all six minors, e.g. identical curves) is rejected.
    """
    e1, e2 = b1.E, b2.E
    row1 = (_s_power(e1),) + b1.components()
    row2 = (_s_power(e2),) + b2.components()
    coords = []
    for (i, j) in PLUECKER_INDEX_ORDER:
        coords.append(row1[i - 1] * row2[j - 1] - row1[j - 1] * row2[i - 1])
    if all(c.is_zero for c in coords):
        raise ValueError("non-generic control points")
    try:
        return RationalCurve(N=5, e=e1 + e2, coords=tuple(coords))
    except ValueError as exc:
        raise ValueError(f"non-generic control points ({exc})") from exc


def _s_power(e: int) -> HomPoly2:
    cs = [Fraction(0)] * (e + 1)
    cs[0] = Fraction(1)
    return HomPoly2(e, tuple(cs))
