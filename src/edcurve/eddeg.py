"""Critical-point counts and certified nearest-point recovery on curve multiview varieties.

The distance from data u to the image of a degree-e curve under n cameras,
restricted to the affine charts, is a rational function of the curve
parameter; its derivative has a polynomial numerator

    g(t) = sum_{i,j} (p_ij - u_ij q_i) (p'_ij q_i - p_ij q'_i) prod_{k != i} q_k^3

with p_ij, q_i the dehomogenized image coordinates of view i.  The degree is
at most 3en-2: each Wronskian W_ij = p'_ij q_i - p_ij q'_i loses two degrees
to leading-term cancellation.  Everything but u is data-free and comes from
one ``scene.Scene`` per count.  g is the numerator of sum_i n_i / q_i^3 with
n_i = sum_j (p_ij - u_ij q_i) W_ij.  One straight-line program
(``_assemble``) forms an integer multiple H of g from the charts and the
data, in two passes: a view pass that reads no data and a data pass.
``_kron_sum`` and ``_kron_sum_mod`` are its front ends, which run it in
three rings: on ell-1 norms, which size the slots of X = 256**nb; on the
integers at X, so that H is assembled by Kronecker substitution as one
integer and its coefficients are read back from it; and on residues mod a
prime, in folded slots, where one view pass serves every data sample of a
count (``_mod_views``).

The count of the variety's critical points is the number of distinct complex
roots after removing two kinds of spurious parameters:

* roots at poles of some q_i (the curve point is at infinity of that view, so
  not on the affine variety) — removed by exact gcd saturation against q_i;
* cusps: parameters where no view is immersive, so the multiview map is
  singular there and the image point is excluded from critical-point
  counting — removed by saturation against the chart part of the cusp form
  (``scene.cusp_form``, the gcd over every view of the Jacobian 2x2 minors).
  With h = 1 a view onto a line ramifies at smooth image points, which this
  saturation would remove, so h = 1 arrangements are refused.

An independent cross-check counts Euler-characteristic contributions on the
parameter line instead: the count equals #{zeros of prod q_i on P^1} +
#{zeros of a generic perturbed squared-distance numerator} - 2.  Ordinary
double points of the image cancel from this balance identically, so the check
is valid whenever the multiview map is an immersion; cusps break it and are
refused.

Every result is exact.  On a scene whose genericity certificate passes, a
sample whose count reaches the bound 3en - 2 is proved so from residues
mod 2**17 - 1 without building g: H mod p (``_kron_sum_mod``) with a
nonzero top residue and a constant gcd mod p with H' proves that g has
degree 3en - 2 and no repeated root (``_squarefree_mod_p``), and the
certificate proves that there is nothing to saturate (``scene.Scene``).
A failing certificate proves the count below 3en - 2 (``scene.Scene``),
so such a scene, and any sample the residues do not prove, builds g and
reduces it exactly; the cross-check reads its perturbed numerator the
same way.  Data points are
sampled from a seeded Mersenne-Twister generator and each count is
recomputed with a second, independent data sample — a disagreement means
the sample was non-generic and surfaces as an error instead of a wrong
number.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, NamedTuple, Optional, Sequence, Union

from .exactnum import (
    HomPoly2,
    IsolatingInterval,
    Rat,
    UNI_ONE,
    UniPoly,
    _PRIMES,
    _as_rat,
    _bisect,
    _coprime_mod_p,
    _derivative,
    _eval_int,
    _fold_masks,
    _hom,
    _kron_pack,
    _kron_unpack,
    _mersenne_fold,
    _pack_residues,
    _rat_array,
    _rows,
    _sign,
    _uni,
    _unpack_residues,
    distinct_root_count,
    hom_distinct_root_count,
    hom_resultant_is_nonzero,
    poly_gcd,
    rat_from_str,
    rat_to_str,
    refine_root,
    squarefree_part,
    sturm_isolate,
)
from .scene import (
    Arrangement,
    GenericityCertificate,
    RationalCurve,
    Scene,
    genericity_certificate,
    scene_for,
)


class DataInstabilityError(RuntimeError):
    """Two independent data samples produced different counts."""


class CuspError(ValueError):
    """The parameter-space cross-check requires an immersed curve."""


class NonGenericBetaError(RuntimeError):
    """prod Q_k and the cross-check's perturbed numerator G_beta share a zero
    on P^1.  Such a zero is one of every G_beta, whatever beta is drawn
    (:func:`euler_cross_check`), so the cross-check does not apply."""


# ---------------------------------------------------------------------------
# data points
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class DataPoint:
    """Per camera i, the h affine image observations u_{i,1..h}.  The optional
    beta0 is parsed and validated only: the cross-check draws its own."""

    u: tuple[tuple[Rat, ...], ...]
    beta0: Rat = Fraction(0)

    def __post_init__(self):
        object.__setattr__(
            self, "u", tuple(tuple(_as_rat(x) for x in row) for row in _rows(self.u))
        )
        object.__setattr__(self, "beta0", _as_rat(self.beta0))

    def check_shape(self, arr: Arrangement):
        if len(self.u) != arr.n or any(len(row) != arr.h for row in self.u):
            raise ValueError("data shape does not match the arrangement")

    def to_json_dict(self) -> dict:
        return {
            "u": [[rat_to_str(x) for x in row] for row in self.u],
            "beta0": rat_to_str(self.beta0),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DataPoint":
        try:
            u = tuple(_rat_array(row) for row in d["u"])
            beta0 = rat_from_str(d.get("beta0", "0"))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed data object: {exc}") from exc
        return cls(u=u, beta0=beta0)


def _rational_rows(rng: random.Random, n: int, h: int) -> tuple[tuple[Rat, ...], ...]:
    """n rows of h rationals num/den with num in [-64, 64], den in [1, 8],
    drawn from ``rng`` row by row, each num before its den.

    Small denominators keep cleared-integer coefficient growth modest while the
    draws stay generic with probability 1 for every algebraic condition used.
    """
    return tuple(
        tuple(Fraction(rng.randint(-64, 64), rng.randint(1, 8)) for _ in range(h))
        for _ in range(n)
    )


def random_data_point(seed: int, n: int, h: int) -> DataPoint:
    """The rows of :func:`_rational_rows` from a Mersenne Twister seeded with ``seed``."""
    return DataPoint(u=_rational_rows(random.Random(seed), n, h))


# ---------------------------------------------------------------------------
# the critical polynomial and its reduction
# ---------------------------------------------------------------------------

def critical_polynomial(f: RationalCurve, arr: Arrangement, u: DataPoint) -> UniPoly:
    """Numerator of d/dt of the squared distance, assembled term-exactly.

    g = sum_i n_i prod_{k != i} q_k^3 with n_i = sum_j (p_ij - u_ij q_i) W_ij
    and W_ij = p'_ij q_i - p_ij q'_i: the numerator of sum_i n_i / q_i^3
    over prod q_k^3, evaluated at X and unpacked once (:func:`_kron_sum`).
    Its degree is at most 3en - 2: every chart has degree at most e, and the
    t^(2e-1) coefficients of p'_ij q_i and p_ij q'_i are both e times the
    product of the t^e coefficients, so deg W_ij <= 2e - 2.  The charts are
    those of :func:`scene_for`'s :class:`Scene` of (f, arr).
    """
    u.check_shape(arr)
    scene = scene_for(f, arr)
    return _uni(*_kron_sum(scene.charts, u.u, 3 * f.e * arr.n - 1, wronskian=True))


def _fraction_sum(pairs: Sequence[tuple[int, int]], fold=lambda x: x) -> int:
    """sum_i a_i prod_{k != i} b_k for pairs (a_i, b_i): the numerator of
    sum_i a_i / b_i over prod b_i.  Adjacent fractions merge as
    a/b + c/d = (ad + cb)/(bd), an odd last one carried up, so the operands
    of each level are balanced; the root's denominator is not formed.
    ``fold`` is applied to every numerator and denominator formed
    (:func:`_assemble`)."""
    while len(pairs) > 2:
        up = [(fold(a * d + c * b), fold(b * d))
              for (a, b), (c, d) in zip(pairs[::2], pairs[1::2])]
        if len(pairs) % 2:
            up.append(pairs[-1])
        pairs = up
    if len(pairs) == 1:
        return pairs[0][0]
    (a, b), (c, d) = pairs
    return fold(a * d + c * b)


def _cleared_views(views, wronskian: bool):
    """Each view of :func:`_kron_sum` cleared to integers, in order: with D
    the lcm of its polynomials' denominators, the lists Q = D q_i and
    [P_j = D p_ij], and D, then, for the Wronskian, the lists -Q' and
    [P_j']."""
    for polys in views:
        d = lcm(*(p.den for p in polys))
        q, *ps = [[x * (d // p.den) for x in p.num] for p in polys]
        if wronskian:
            yield q, ps, d, [-x for x in _derivative(q)], [_derivative(p) for p in ps]
        else:
            yield q, ps, d


def _cleared_rows(rows):
    """Each data row u_i of :func:`_kron_sum` cleared to integers: with B
    the lcm of its denominators, B and the list [B u_ij]."""
    for row in rows:
        b = lcm(*(x.denominator for x in row))
        yield b, [x.numerator * (b // x.denominator) for x in row]


def _assemble(views, rows, constant: Rat, pack, scalar=lambda x: x, fold=lambda x: x):
    """The one program that forms the H of :func:`_kron_sum` from the
    :func:`_cleared_views` views and the :func:`_cleared_rows` rows, run on
    the values that ``pack`` gives an integer list and ``scalar`` an
    integer, with ``fold`` applied to every sum and product formed.  Per
    view,

        W_j = P_j' Q + P_j (-Q') and Q^3    (Wronskian),
        Q^2                                 (otherwise)

    do not depend on the data: :func:`_view_pass` forms them, with the
    packed Q and P_j.  :func:`_data_pass` forms the rest,

        L_j = B P_j + (-B u_ij) Q,
        N_i = sum_j L_j W_j and C_i = B Q^3      (Wronskian),
        N_i = sum_j L_j^2 and C_i = B^2 Q^2      (otherwise),

    the constant a / b as one more fraction, and :func:`_fraction_sum` of
    the pairs (N_i, C_i), which is H = a prod C_i + b sum_i N_i prod_{k != i} C_k.
    Every step is a sum, a product or a scalar multiple, so one view pass
    serves every data point of a ring whose ``pack`` and ``fold`` do not
    depend on the data: :func:`_kron_sum_mod` takes it once per count
    (:func:`_mod_views`).
    """
    return _data_pass(_view_pass(views, pack, fold), rows, constant, scalar, fold)


def _view_pass(views, pack, fold) -> list:
    """The data-free half of :func:`_assemble`: per view, the packed Q and
    [P_j], then [W_j] and Q^3 for the Wronskian, or None and Q^2."""
    out = []
    for q, ps, _, *derivs in views:
        qx, pxs = pack(q), [pack(p) for p in ps]
        square = fold(qx * qx)
        if derivs:
            minus_dq, dps = derivs
            minus_dqx = pack(minus_dq)
            ws = [fold(pack(dp) * qx + px * minus_dqx) for px, dp in zip(pxs, dps)]
            out.append((qx, pxs, ws, fold(square * qx)))
        else:
            out.append((qx, pxs, None, square))
    return out


def _data_pass(viewed, rows, constant: Rat, scalar, fold) -> int:
    """The half of :func:`_assemble` that reads the data: H from the
    :func:`_view_pass` of the views and the cleared rows."""
    pairs = []
    for (qx, pxs, ws, power), (b, rs) in zip(viewed, rows):
        lins = [fold(scalar(b) * px + scalar(-r) * qx) for px, r in zip(pxs, rs)]
        num = 0
        if ws is None:
            for lin in lins:
                num = fold(num + lin * lin)
            pairs.append((num, fold(scalar(b * b) * power)))
        else:
            for lin, w in zip(lins, ws):
                num = fold(num + lin * w)
            pairs.append((num, fold(scalar(b) * power)))
    a, b = constant.numerator, constant.denominator
    if a:
        pairs.append((scalar(a), scalar(b)))
    return _fraction_sum(pairs, fold)


def _kron_sum(views, rows, size: int, *, wronskian: bool,
              constant: Rat = Fraction(0)) -> tuple[list[int], int]:
    """(H, den), H the ``size`` integer coefficients, with H / den equal to
    prod_i q_i^k times

        constant + sum_i sum_j (p_ij - u_ij q_i) W_ij / q_i^3   (wronskian, k = 3)
        constant + sum_i sum_j (p_ij - u_ij q_i)^2 / q_i^2      (otherwise, k = 2)

    for views i, each the polynomials (q_i, p_i1, ..., p_ih) (charts, or the
    coefficient lists of forms), and data rows u_i, given that this
    product has at most ``size`` coefficients.

    View i is cleared to integers (:func:`_cleared_views`): with D the lcm
    of its polynomials' denominators, Q = D q_i and P_j = D p_ij; with B
    the lcm of the denominators of u_i (:func:`_cleared_rows`),
    L_j = B P_j - (B u_ij) Q = B D (p_ij - u_ij q_i).  W is bilinear, so
    W(P_j, Q) = D^2 W_ij, and view i's fraction is N_i / C_i as
    :func:`_assemble` forms them.  H / den is the product above for
    den = b prod_i B D^3, or b prod_i B^2 D^2.  :func:`_assemble` runs
    twice, with X = 256**nb:

    * On ell-1 norms (``pack`` the norm, ``scalar`` abs): the norm is
      subadditive and submultiplicative, ||cf|| = |c| ||f|| and
      ||-f|| = ||f||, so by induction over the program each value bounds
      the norm of the polynomial the exact run forms there, and the result
      bounds ||H||_1 >= ||H||_inf.  nb makes it, and the norm of every
      packed list, less than 2**(8 nb - 1) = X / 2.
    * On the integers at X (``pack`` is ``_kron_pack``, exact as every
      packed coefficient is below X / 2): evaluation at X is a ring map
      Z[x] -> Z, so the run gives H(X), and each of H's ``size``
      coefficients, below X / 2, is one signed digit of it
      (``_kron_unpack``).
    """
    cleared, norms = list(_cleared_views(views, wronskian)), []
    rows = list(_cleared_rows(rows))

    def l1(a) -> int:
        norms.append(sum(map(abs, a)))
        return norms[-1]

    bound = _assemble(cleared, rows, constant, l1, abs)
    nb = (max([bound, *norms]).bit_length() + 8) // 8
    den = constant.denominator
    for (_, _, d, *_), (b, _) in zip(cleared, rows):
        den *= b * d ** 3 if wronskian else (b * d) ** 2
    h = _assemble(cleared, rows, constant, lambda a: _kron_pack(a, nb))
    return _kron_unpack(h, nb, size), den


class _ModViews(NamedTuple):
    """The data-free half of :func:`_kron_sum_mod` for one list of views
    and one ``size``: the prime p, the slot bytes nb, ``size``, the fold
    mod (p, t**size), and the :func:`_view_pass` of the views on residues."""

    p: int
    nb: int
    size: int
    fold: Callable[[int], int]
    viewed: list


def _mod_views(views, size: int, *, wronskian: bool) -> _ModViews:
    """The :class:`_ModViews` of ``views`` for H of at most ``size``
    coefficients, given that every polynomial of the views also has at most
    ``size`` coefficients: p, nb and the fold as :func:`_kron_sum_mod`
    chooses them, and the view pass on residues.  A count takes it once
    for both samples, a cross-check once for all its attempts."""
    for p in _PRIMES:
        k = p.bit_length()
        nb = (2 * k + 10 + size.bit_length()) // 8
        if 8 * nb <= 3 * k - 1:
            break
    low, high = _fold_masks(p, nb, size)

    def fold(x: int) -> int:
        return _mersenne_fold(x, k, low, high)

    return _ModViews(p, nb, size, fold, _view_pass(
        _cleared_views(views, wronskian), lambda a: _pack_residues(a, p, nb), fold))


def _kron_sum_mod(views: _ModViews, rows, *,
                  constant: Rat = Fraction(0)) -> tuple[list[int], int]:
    """(h, p): h the ``views.size`` residues in [0, p) of the H of
    :func:`_kron_sum` mod a prime p, for the views of :func:`_mod_views`.

    :func:`_assemble` runs on residues: its view pass once, in
    :func:`_mod_views`, and its data pass here.  p = 2**k - 1 is the first
    prime of ``_PRIMES`` that admits a slot of w = 8 nb bits with
    2k + 3 + bitlen(size) <= w <= 3k - 1: the upper end is the bound of
    ``_mersenne_fold``, the lower one is proved below (2**17 - 1 serves
    every size below 2048, and the last prime any size below 2**200000).
    A list's residues are packed into nonnegative w-bit slots
    (``_pack_residues``), a scalar is its residue, and a difference is a
    sum with the negated residues, so no slot is ever negative.  Every sum
    and product is followed by ``_mersenne_fold`` with masks of ``size``
    slots, which leaves every slot below 2**(k+1) with its residue mod p
    and drops every slot at or above ``size``: read with t = 2**w, that is
    the map Z[t] -> (Z/p)[t]/(t**size), a ring map.  So the result is
    H mod (p, t**size), which is H mod p, as H has at most ``size``
    coefficients.  The view pass depends on neither the data nor the
    constant, so one serves every data point.

    No slot overflows before its fold.  Every operand of a product has at
    most ``size`` slots, each below 2**(k+1), so each slot of the product
    is a sum of at most ``size`` terms below 2**(2k+2).  What is folded is a
    product, a sum of two products, or a product plus a folded value, each
    with slots below 2 * size * 2**(2k+2) <= 2**(2k + 3 + bitlen(size)) <= 2**w,
    or a sum of at most two scalars below p (B, -B u_ij, B^2 mod p) times
    operands, with slots below 2**(2k+2).  Slots never carry, so the slots
    of the packed int are the coefficients of the polynomial.
    """
    p = views.p
    h = _data_pass(views.viewed, _cleared_rows(rows), constant, lambda x: x % p, views.fold)
    return _unpack_residues(h, p, views.nb, views.size), p


def _squarefree_mod_p(views: _ModViews, rows, *, constant: Rat = Fraction(0)) -> bool:
    """Whether residues prove that the H of :func:`_kron_sum` has degree
    size - 1, for size = ``views.size``, and no repeated root; False means
    only "not proved".

    With (h, p) from :func:`_kron_sum_mod`, a nonzero h[size - 1] proves
    deg H = size - 1, since H has at most size coefficients.  The residues
    of H' are h', so ``_coprime_mod_p(h, h', p)`` proves H and H' coprime
    over Q: H is squarefree.
    """
    h, p = _kron_sum_mod(views, rows, constant=constant)
    return _coprime_mod_p(h, _derivative(h), p)


@dataclass(frozen=True)
class ReducedCritical:
    """Squarefree critical polynomial with spurious factors saturated away."""

    raw: UniPoly
    reduced: UniPoly
    removed_pole_factors: int       # total degree removed at poles of the q_i
    removed_immersion_factors: int  # total degree removed at cusp parameters


def reduce_critical_polynomial(
    f: RationalCurve, arr: Arrangement, u: DataPoint
) -> ReducedCritical:
    """Squarefree part of the critical polynomial, saturated against the
    poles and the cusps of :func:`scene_for`'s :class:`Scene` of (f, arr),
    once :func:`_reduction_scene`'s refusals have passed."""
    scene = _reduction_scene(f, arr, u)
    cusps = scene.cusp_chart
    g = critical_polynomial(f, arr, u)
    if g.is_zero:
        raise ValueError("critical polynomial vanished identically; data sits on "
                         "the variety's symmetry locus")
    red = squarefree_part(g)
    # red is squarefree, so each root it shares with some chart has
    # multiplicity one in gcd(red, prod q_i): one gcd removes every pole
    # factor, and a constant chart (or none) gives gcd 1
    common = poly_gcd(red, scene.prod_q)
    poles_removed = common.degree
    if poles_removed:
        red = red.exact_div(common)
    cusp_removed = 0
    if cusps.degree:
        common = poly_gcd(red, cusps)
        cusp_removed = common.degree
        if cusp_removed:
            red = red.exact_div(common)
    return ReducedCritical(
        raw=g,
        reduced=red,
        removed_pole_factors=poles_removed,
        removed_immersion_factors=cusp_removed,
    )


def _reduction_scene(f: RationalCurve, arr: Arrangement, *samples: DataPoint) -> Scene:
    """:func:`scene_for`'s scene of (f, arr), once the refusals that precede
    every count and reduction have passed, in their order: the shape of
    each sample, a vanishing chart (or differing dimensions) as the scene is
    built, h = 1 (module docstring), and a point image, by the first read of
    ``scene.cusp_chart``.  Every entry that counts or reduces refuses
    through this one routine."""
    for u in samples:
        u.check_shape(arr)
    scene = scene_for(f, arr)
    if arr.h < 2:
        raise ValueError("h = 1 arrangements are refused: a view onto a line "
                         "ramifies at smooth points, which the cusp saturation "
                         "would remove")
    scene.cusp_chart
    return scene


def _sample_count(f: RationalCurve, arr: Arrangement, u: DataPoint,
                  views: Optional[_ModViews]) -> tuple[int, int, int, int]:
    """(count, deg g, removed pole degree, removed cusp degree) of one data
    sample, as :func:`reduce_critical_polynomial` gives them, on the scene
    of (f, arr) once its refusals have passed (:func:`_reduction_scene`).
    ``views`` is the :func:`_mod_views` of the scene's charts for size
    3en - 1, which every sample of a count shares, when the scene's
    certificate passes, and None otherwise.

    With ``views``, first the residues of g's integer multiple H mod p
    (:func:`_squarefree_mod_p`): when they prove that g has the degree bound
    3en - 2 and no repeated root, g is its own squarefree part, and the
    passing certificate proves that it has no root in common with prod q_i
    or the cusp chart (``scene.Scene``), so the tuple is
    (3en - 2, 3en - 2, 0, 0) and g is never built.  Without ``views``, or
    when the residues prove nothing, the exact reduction runs.
    """
    bound = 3 * f.e * arr.n - 2
    if views is not None and _squarefree_mod_p(views, u.u):
        return bound, bound, 0, 0
    rc = reduce_critical_polynomial(f, arr, u)
    return (rc.reduced.degree, rc.raw.degree, rc.removed_pole_factors,
            rc.removed_immersion_factors)


# ---------------------------------------------------------------------------
# ED degree
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EDReport:
    """Everything one run of the affine count produces, exact and auditable."""

    ed_degree: int
    critical_poly_degree: int
    removed_pole_factors: int
    removed_immersion_factors: int
    certificate: GenericityCertificate
    formula_value: int                     # 3en-2
    formula_match: bool
    cross_check: Optional[int]             # filled by callers that also run it
    stable: bool                           # both data seeds agreed
    seeds: tuple[int, ...]
    e: int
    n: int
    h: int

    def to_json_dict(self) -> dict:
        return {
            "ed_degree": self.ed_degree,
            "critical_poly_degree": self.critical_poly_degree,
            "removed_pole_factors": self.removed_pole_factors,
            "removed_immersion_factors": self.removed_immersion_factors,
            "certificate": self.certificate.to_json_dict(),
            "formula_value": self.formula_value,
            "formula_match": self.formula_match,
            "cross_check": self.cross_check,
            "stable": self.stable,
            "seeds": list(self.seeds),
            "e": self.e,
            "n": self.n,
            "h": self.h,
        }


def ed_degree_affine(
    f: RationalCurve,
    arr: Arrangement,
    seed: int,
    *,
    data_points: Optional[Sequence[DataPoint]] = None,
) -> EDReport:
    """Distinct critical points of the squared distance to the affine multiview curve.

    Samples a data point from ``seed``, counts, then recounts with ``seed + 1``
    and requires agreement (raising :class:`DataInstabilityError` otherwise).
    ``data_points`` overrides the sampler with explicit data (reproduction and
    testing); exactly two points are used.  Both samples and the certificate
    read :func:`scene_for`'s :class:`Scene` of (f, arr).  The certificate is
    taken after the refusals of :func:`_reduction_scene` (each sample's
    shape, a vanishing chart, h = 1, a point image), and before the
    samples.  When it passes, the residue view pass of the charts
    (:func:`_mod_views`) is taken once and both samples read it
    (:func:`_sample_count`); when it fails, the count is below 3en - 2
    (``scene.Scene``), no residues can prove it, and both samples take the
    exact path.
    """
    if data_points is None:
        samples = [random_data_point(seed, arr.n, arr.h),
                   random_data_point(seed + 1, arr.n, arr.h)]
    else:
        if len(data_points) != 2:
            raise ValueError("need exactly two explicit data points")
        samples = list(data_points)

    scene = _reduction_scene(f, arr, *samples)
    cert = genericity_certificate(arr, f)
    views = (_mod_views(scene.charts, 3 * f.e * arr.n - 1, wronskian=True)
             if cert.passes else None)
    counts = [_sample_count(f, arr, s, views) for s in samples]
    if counts[0][0] != counts[1][0]:
        raise DataInstabilityError("data not generic; reseed")

    count, raw_deg, poles_removed, cusp_removed = counts[0]
    formula = 3 * f.e * arr.n - 2
    return EDReport(
        ed_degree=count,
        critical_poly_degree=raw_deg,
        removed_pole_factors=poles_removed,
        removed_immersion_factors=cusp_removed,
        certificate=cert,
        formula_value=formula,
        formula_match=count == formula,
        cross_check=None,
        stable=True,
        seeds=(seed, seed + 1),
        e=f.e,
        n=arr.n,
        h=arr.h,
    )


# ---------------------------------------------------------------------------
# one (e, n, h) cell: reseeded attempts until a count is accepted
# ---------------------------------------------------------------------------

class CellExhaustedError(RuntimeError):
    """Every attempt of a cell was rejected; ``reasons`` holds one per attempt."""

    def __init__(self, reasons: Sequence[str]):
        self.reasons = tuple(reasons)
        super().__init__("no attempt accepted ("
                         + " | ".join(f"attempt {k}: {r}"
                                      for k, r in enumerate(self.reasons)) + ")")


@dataclass(frozen=True)
class CellOutcome:
    """The accepted count, the arrangement it used, and why each earlier
    attempt was rejected, in order."""

    report: EDReport
    arrangement: Arrangement
    rejected: tuple[str, ...]


def count_cell(
    f: RationalCurve,
    arrangement: Union[Arrangement, Callable[[int], Arrangement]],
    data_seed: Callable[[int], int],
    retries: int,
    *,
    require_certificate: bool = True,
    first_data: Optional[DataPoint] = None,
) -> CellOutcome:
    """Count one cell, reseeding up to ``retries`` times.

    ``arrangement`` is fixed, or a function of the attempt number k that
    draws one; ``data_seed(k)`` seeds attempt k's data.  ``first_data`` pins
    the first sample of every attempt, and the second is drawn from
    ``data_seed(k) + 1``, as the report's ``seeds`` say, so a degenerate
    pinned point surfaces as instability.  Its shape is refused with every
    other refusal of the count (:func:`_reduction_scene`).  An attempt is
    rejected on :class:`DataInstabilityError`, on a failed certificate when
    ``require_certificate``, and on ``ValueError`` only when the cameras are
    redrawn: with a fixed arrangement a degenerate scene propagates, since
    reseeding the data cannot cure it.  Only what a reseed can change is
    retried: a fixed arrangement's failed certificate ends the cell after
    that attempt, with its one reason, since ``rep.certificate`` is the
    certificate of :func:`scene_for`'s scene, which reads only f and the
    arrangement.  Each attempt counts on that :class:`Scene`, so retries on
    a fixed arrangement share one, and its certificate, and a cross-check on
    the outcome's arrangement reads the accepted attempt's.  Raises
    :class:`CellExhaustedError` when no attempt is accepted.
    """
    redraw = not isinstance(arrangement, Arrangement)
    rejected: list[str] = []
    for k in range(retries):
        seed = data_seed(k)
        try:
            arr = arrangement(k) if redraw else arrangement
            samples = None
            if first_data is not None:
                samples = (first_data, random_data_point(seed + 1, arr.n, arr.h))
            rep = ed_degree_affine(f, arr, seed, data_points=samples)
        except DataInstabilityError as exc:
            rejected.append(str(exc))
            continue
        except ValueError as exc:
            if not redraw:
                raise
            rejected.append(str(exc))
            continue
        if require_certificate and not rep.certificate.passes:
            rejected.append("certificate failed: " + "; ".join(rep.certificate.reasons))
            if not redraw:
                break
            continue
        return CellOutcome(report=rep, arrangement=arr, rejected=tuple(rejected))
    raise CellExhaustedError(rejected)


# ---------------------------------------------------------------------------
# Euler-characteristic cross-check
# ---------------------------------------------------------------------------

def euler_cross_check(f: RationalCurve, arr: Arrangement, seed: int) -> int:
    """#S_inf + #S_Q - 2, the parameter-line Euler-characteristic count.

    #S_inf: distinct zeros on P^1 of prod_i q_i (parameters mapped to infinity
    of some view).  #S_Q: distinct zeros of the numerator of the perturbed
    squared distance

        G = beta0 * prod Q_k^2 + sum_i [prod_{k != i} Q_k^2] sum_j (P_ij - beta_ij Q_i)^2

    for rational beta and beta0 > 0 drawn once from ``seed``
    (:func:`_perturbed_numerator`).  The two sets must be disjoint, which a
    binary-form gcd verifies, and a second draw could not change its verdict:

    * G is never the zero form.  beta0 = a/b with a >= 1, so on real t,
      G(1, t) >= beta0 * prod q_k(t)^2, which is positive wherever
      prod q_k(t) != 0; such a t exists, since the scene refuses a
      vanishing chart.
    * A shared zero does not depend on beta.  At a zero t0 in P^1 of Q_i,
      every term of G but view i's carries Q_i^2, so
      G(t0) = prod_{k != i} Q_k(t0)^2 * sum_j P_ij(t0)^2 for every beta and
      beta0.  So when prod Q_k and G share a zero, every G does, and
      :class:`NonGenericBetaError` is raised at once.

    A multiview map that is not an immersion is refused: node contributions
    cancel from this balance, cusp contributions do not.  The images and
    pole products are those of :func:`scene_for`'s :class:`Scene` of
    (f, arr); its refusals come first, in their order: a vanishing chart (or
    differing dimensions) as the scene is built, a point image, then a cusp.
    The scene's certificate is read after them, and computed if the scene
    holds none yet.

    When the certificate passes, prod Q_k has exactly as many distinct
    zeros on P^1 as its formal degree en, which is #S_inf, read from the
    images' formal degrees without forming prod Q_k, and G mod p is
    read first (:func:`_squarefree_mod_p`), G of formal degree 2en, on the
    residue view pass of the images (:func:`_mod_views`).  A nonzero
    t^(2en) residue proves that G does not vanish at [0:1], so its zeros
    are those of its chart, of degree 2en; when that chart is also proved
    squarefree, #S_Q = 2en.  The sets are disjoint by the second fact
    above: the certificate makes both factors nonzero (``scene.Scene``).
    When the certificate fails, ``hom_distinct_root_count`` counts #S_inf
    on the scene's ``prod_q_form``, and G is built and its zeros counted
    exactly, as they are when the residues prove nothing; the gcd with G
    reads ``prod_q_form`` too.
    """
    scene = scene_for(f, arr)
    if scene.cusps.degree:
        raise CuspError("cross-check requires immersion")
    degree = 2 * sum(img[0].degree for img in scene.images)
    if scene.certificate.passes:
        s_inf, views = degree // 2, _mod_views(scene.images, degree + 1, wronskian=False)
    else:
        s_inf, views = hom_distinct_root_count(scene.prod_q_form), None

    rng = random.Random(f"{seed}:euler-beta:0")
    beta = _rational_rows(rng, arr.n, arr.h)
    beta0 = Fraction(rng.randint(1, 64), rng.randint(1, 8))
    if views is not None and _squarefree_mod_p(views, beta, constant=beta0):
        return s_inf + degree - 2
    g_beta = _perturbed_numerator(scene.images, beta, beta0)
    if not hom_resultant_is_nonzero(scene.prod_q_form, g_beta):
        raise NonGenericBetaError("non-generic beta")
    return s_inf + hom_distinct_root_count(g_beta) - 2


def _perturbed_numerator(images, beta, beta0: Rat) -> HomPoly2:
    """G = beta0 * prod Q_k^2 + sum_i [prod_{k != i} Q_k^2] sum_j (P_ij - beta_ij Q_i)^2
    for the view images (Q_i, P_i1, ...), a form of degree 2 sum_i deg Q_i:
    the numerator of beta0 + sum_i sum_j (P_ij - beta_ij Q_i)^2 / Q_i^2 over
    prod Q_k^2, read from one evaluation at X (:func:`_kron_sum`)."""
    degree = 2 * sum(img[0].degree for img in images)
    return _hom(degree, *_kron_sum(images, beta, degree + 1, wronskian=False,
                                   constant=_as_rat(beta0)))


# ---------------------------------------------------------------------------
# projective count for smooth curves
# ---------------------------------------------------------------------------

def projective_ed_degree_smooth_curve(f: RationalCurve) -> int:
    """e + #{isotropic-quadric intersections} - 2 for an immersed injective curve.

    The middle term counts distinct zeros on P^1 of sum_i f_i^2.  A curve with
    real (rational) coefficients can only lie inside the isotropic quadric if
    every coordinate vanishes — a sum of squares of real forms has no nonzero
    identically-zero instances — so the guard below is vacuous over Q but kept
    as the operation's contract.
    """
    if not f.is_immersion:
        raise CuspError("projective smooth-curve count requires an immersion")
    ssq = HomPoly2(2 * f.e)
    for c in f.coords:
        ssq = ssq + c * c
    if ssq.is_zero:
        raise ValueError("curve inside isotropic quadric")
    return f.e + hom_distinct_root_count(ssq) - 2


# ---------------------------------------------------------------------------
# certified triangulation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TriangulationResult:
    """Real critical parameters (isolated + refined), exact distances, argmin.

    ``no_finite_minimizer`` flags the structured degenerate outcome: the data
    point has no real critical parameter, so its infimum is approached at a
    pole/infinity rather than attained on the chart.
    """

    critical_parameters: tuple[IsolatingInterval, ...]
    distances: tuple[Rat, ...]
    distance_error_bounds: tuple[Rat, ...]
    argmin_index: Optional[int]
    world_point: Optional[tuple[Rat, ...]]
    image_blocks: Optional[tuple[tuple[Rat, ...], ...]]
    width_bound: Rat
    no_finite_minimizer: bool
    min_lower_bound: Optional[Rat]  # certified lower bound for the attained minimum

    def to_json_dict(self) -> dict:
        return {
            "critical_parameters": [
                {
                    "lo": rat_to_str(iv.lo),
                    "hi": rat_to_str(iv.hi),
                    "refinements": iv.refinements,
                }
                for iv in self.critical_parameters
            ],
            "distances": [rat_to_str(d) for d in self.distances],
            "distance_error_bounds": [rat_to_str(b) for b in self.distance_error_bounds],
            "argmin_index": self.argmin_index,
            "world_point": (
                None if self.world_point is None
                else [rat_to_str(x) for x in self.world_point]
            ),
            "image_blocks": (
                None if self.image_blocks is None
                else [[rat_to_str(x) for x in row] for row in self.image_blocks]
            ),
            "width_bound": rat_to_str(self.width_bound),
            "no_finite_minimizer": self.no_finite_minimizer,
            "min_lower_bound": (
                None if self.min_lower_bound is None else rat_to_str(self.min_lower_bound)
            ),
        }


def _value_parts(c: Sequence[int], d: int, x: Rat) -> tuple[int, int]:
    """(num, den), den > 0, with num/den the value at x of the polynomial with
    integer numerators c over the denominator d.

    Summed in integers as den(x)^deg * sum c[k] x^k (``_eval_int``); the pair
    is not reduced, so no gcd is taken.
    """
    return _eval_int(c, x), d * x.denominator ** max(len(c) - 1, 0)


def _abs_upper_parts(abs_c: Sequence[int], d: int, lo: Rat, hi: Rat) -> tuple[int, int]:
    """:func:`_value_parts` of sum (abs_c[k]/d) M^k at M = max(|lo|, |hi|): for
    abs_c the absolute numerators of p over d, an upper bound for |p| on [lo, hi]."""
    return _value_parts(abs_c, d, max(abs(lo), abs(hi)))


def _quotient(p, q, x: Rat) -> Rat:
    """p(x) / q(x) for polynomials, or forms at s = 1, with q(x) != 0.

    The two :func:`_value_parts` are cross-multiplied with their common power
    of x's denominator cancelled, so one gcd reduces the result.
    """
    a, b = len(p.num) - 1, len(q.num) - 1
    num, den = _eval_int(p.num, x) * q.den, _eval_int(q.num, x) * p.den
    if a < b:
        num *= x.denominator ** (b - a)
    else:
        den *= x.denominator ** (a - b)
    return Fraction(num, den)


def _fraction(num: int, den: int) -> Rat:
    """Fraction(num, den) for den != 0, with the power of two that num and den
    share shifted out first, so that its one gcd runs on the shorter pair."""
    x = num | den
    z = (x & -x).bit_length() - 1
    return Fraction(num >> z, den >> z)


def _least(pairs: Sequence[tuple[int, int]]) -> tuple[int, int]:
    """The first pair (num, den), den > 0, of least value num / den.

    Each comparison is screened by the two quotients correctly rounded to
    floats (a quotient beyond the float range taken as an infinity of its
    sign), which carry the sign, the bit length and the leading 53 bits.
    The rounding is monotonic, so fl(x) < fl(y) proves x < y; only a tie of
    the rounded values falls through to the exact cross-multiplication.
    """
    rounded = []
    for num, den in pairs:
        try:
            rounded.append(num / den)
        except OverflowError:
            rounded.append(float("inf") if num > 0 else float("-inf"))
    low = 0
    for k in range(1, len(pairs)):
        if rounded[k] < rounded[low] or (
                rounded[k] == rounded[low]
                and pairs[k][0] * pairs[low][1] < pairs[low][0] * pairs[k][1]):
            low = k
    return pairs[low]


def triangulate(
    f: RationalCurve, arr: Arrangement, u: DataPoint, width_bound: Rat
) -> TriangulationResult:
    """Certified global nearest-point recovery over the real points of the chart.

    Isolates every real critical parameter, refines to ``width_bound``,
    evaluates the exact squared distance at rational midpoints, and reports the
    argmin together with a certified interval for the true attained minimum:
    each midpoint value is within ``distance_error_bounds[k]`` of its exact
    critical value, so the true minimum lies in [min_k (d_k - err_k), d_argmin].
    A nonpositive width bound is refused first, then whatever
    :func:`_reduction_scene` refuses, in its order.  One :class:`Scene` of
    (f, arr) (:func:`scene_for`) serves the reduction and the bounds: its
    charts and its pole products prod q_i and prod Q_i, whose cube and
    square are Q and Q2 below.

    The bound: the squared distance D = N / Q2 (``_perturbed_numerator`` at
    beta = u, beta0 = 0, over prod Q_i^2) has D' = 2 g / Q for Q = prod q_i^3.
    On an interval of width w around the critical point r, with midpoint m,
    |g| <= g_upper and |Q| >= floor, so |D(m) - D(r)| <= g_upper w / floor.
    As g(r) = 0, also |g(x)| <= G1 |x - r| for G1 a bound on |g'| there, and
    integrating gives |D(m) - D(r)| <= G1 w^2 / (4 floor).  The printed bound
    is g_upper w / (2 floor), valid by the second-order bound whenever
    G1 w <= 2 g_upper, and g_upper w / floor when that test fails.
    """
    width_bound = _as_rat(width_bound)
    if width_bound <= 0:
        raise ValueError("width bound must be positive")
    rc = reduce_critical_polynomial(f, arr, u)
    scene = scene_for(f, arr)
    qprod = scene.prod_q
    intervals = sturm_isolate(rc.reduced)
    if not intervals:
        return TriangulationResult(
            critical_parameters=(), distances=(), distance_error_bounds=(),
            argmin_index=None, world_point=None, image_blocks=None,
            width_bound=width_bound, no_finite_minimizer=True, min_lower_bound=None,
        )

    pole_free = []
    qprod_sf = squarefree_part(qprod) if qprod.degree else UNI_ONE
    pole_ivs = sturm_isolate(qprod_sf) if qprod_sf.degree else []
    red_c, pole_c = rc.reduced.num, qprod_sf.num
    # the sign just right of lo, which every bisection keeps (``_bisect``)
    pole_signs = [_sign(_eval_int(pole_c, pv.lo)) for pv in pole_ivs]
    for iv in intervals:
        iv = refine_root(rc.reduced, iv, width_bound)
        slo = _sign(_eval_int(red_c, iv.lo))
        # shrink past every real pole interval so each q_i is nonzero on iv;
        # shrinking iv preserves disjointness from poles handled earlier, so
        # one pass suffices (shrunk pole intervals are written back).
        # Termination: saturation divided every common factor with each q_i
        # out of the reduced polynomial, so its root r and the pole z are
        # distinct.  Each step at least halves both intervals, which keep
        # bracketing r and z, so they are disjoint once the two widths sum
        # to less than |r - z|.
        for idx, pv in enumerate(pole_ivs):
            while not (iv.hi <= pv.lo or pv.hi <= iv.lo):
                iv = _halve(red_c, iv, slo)
                pv = _halve(pole_c, pv, pole_signs[idx])
            pole_ivs[idx] = pv
        pole_free.append((iv, slo))

    qcubes_all = qprod * qprod * qprod
    q3_c, q3_d = qcubes_all.int_coeffs()
    slope_c, slope_d = qcubes_all.derivative().int_coeffs()
    slope_abs = [abs(x) for x in slope_c]
    g_c, g_d = rc.raw.int_coeffs()
    g_abs = [abs(x) for x in g_c]
    dg_c, dg_d = rc.raw.derivative().int_coeffs()
    dg_abs = [abs(x) for x in dg_c]
    dist_num = _perturbed_numerator(scene.images, u.u, 0)
    dist_den = scene.prod_q_form * scene.prod_q_form

    # every bound below is an unreduced integer pair (num, den), den > 0, until
    # the one Fraction of each printed value
    distances = []
    bounds = []
    final_ivs = []
    midpoints = []
    for iv, slo in pole_free:
        # derivative bound needs a positive floor |Q(m)| - S * width/2 for
        # |Q| = |prod q^3| on the interval, S the slope bound of Q' on it.
        # Termination: the root r is pole-free, so Q(r) != 0; by the mean
        # value theorem |Q(m)| >= |Q(r)| - S * width/2, and S never grows
        # as the intervals nest, so the floor is positive once
        # S * width < |Q(r)|.
        while True:
            m = iv.midpoint
            qn, qd = _value_parts(q3_c, q3_d, m)
            sn, sd = _abs_upper_parts(slope_abs, slope_d, iv.lo, iv.hi)
            half = iv.width / 2
            floor_n = abs(qn) * sd * half.denominator - sn * half.numerator * qd
            if floor_n > 0:
                break
            iv = _halve(red_c, iv, slo)
        floor_d = qd * sd * half.denominator
        gn, gd = _abs_upper_parts(g_abs, g_d, iv.lo, iv.hi)
        g1n, g1d = _abs_upper_parts(dg_abs, dg_d, iv.lo, iv.hi)
        wn, wd = iv.width.numerator, iv.width.denominator
        # g_upper w / floor, halved when G1 w <= 2 g_upper (docstring)
        err_n, err_d = gn * wn * floor_d, gd * wd * floor_n
        if g1n * wn * gd <= 2 * gn * g1d * wd:
            err_d *= 2
        final_ivs.append(iv)
        midpoints.append(m)
        distances.append(_quotient(dist_num, dist_den, m))
        bounds.append(_fraction(err_n, err_d))

    argmin = min(range(len(distances)), key=lambda k: (distances[k], k))
    tstar = midpoints[argmin]
    world = f.evaluate(Fraction(1), tstar)
    blocks = tuple(tuple(_quotient(p, q, tstar) for p in ps)
                   for q, *ps in scene.charts)
    # min_k (d_k - b_k), compared as unreduced pairs
    lower = _fraction(*_least([
        (d.numerator * b.denominator - b.numerator * d.denominator,
         d.denominator * b.denominator) for d, b in zip(distances, bounds)]))
    return TriangulationResult(
        critical_parameters=tuple(final_ivs),
        distances=tuple(distances),
        distance_error_bounds=tuple(bounds),
        argmin_index=argmin,
        world_point=world,
        image_blocks=blocks,
        width_bound=width_bound,
        no_finite_minimizer=False,
        min_lower_bound=lower,
    )


def _halve(c, iv: IsolatingInterval, slo: int) -> IsolatingInterval:
    """One bisection step on iv, as ``refine_root(p, iv, iv.width / 2)`` takes
    it, for p with integer coefficients c and sign slo just right of iv.lo."""
    lo, hi = _bisect(c, iv.lo, iv.hi, slo, iv.width / 2)
    return IsolatingInterval(lo, hi, iv.refinements + 1)
