"""World curves, cameras, arrangements, and the exact genericity certificate.

A world curve is a base-point-free tuple of binary forms f: P^1 -> P^N; a
camera is an exact full-rank (h+1) x (N+1) rational matrix acting on the
homogeneous coordinates; an arrangement is an ordered list of cameras sharing
(h, N).  The genericity certificate collects the finite list of exact
nonvanishing conditions under which the 3en-2 count is guaranteed:

* each chart polynomial q_i = C_i^(0) . f has simple zeros on P^1,
* no two chart polynomials share a zero (not even at [0:1]),
* q_a shares no zero with the coordinate sum of squares of its own view,
* the curve has no base points,
* the multiview map P^1 -> (P^h)^n, t -> (C_1 f(t), ..., C_n f(t)), is an
  immersion: its cusp form (:func:`cusp_form`, the gcd over every view of
  the 2x2 Jacobian minors) is constant.

The immersion condition is joint: a parameter is a cusp only where no view
is immersive, so one cuspidal view beside a generic one costs nothing.  It
covers cusps of the curve itself (every view inherits them), cusps a view
creates (a camera centre on a tangent line), and maps that are not one-to-one
onto their image: a k:1 map from P^1 onto a rational curve factors through
the normalization as a degree-k self-map of P^1, which by Riemann-Hurwitz
ramifies at 2k - 2 points, and the differential of the map vanishes there.

Randomness: ``random.Random`` (Mersenne Twister) seeded explicitly; integer
draws use ``randint``, whose values are stable across supported Python
versions, so identical seeds reproduce identical scenes everywhere.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from math import lcm, prod
from typing import Iterable, Iterator, Sequence

from .exactnum import (
    HomPoly2,
    Rat,
    UniPoly,
    _PRIMES,
    _form,
    _hom,
    _integers,
    _mod_gcd,
    _pack_residues,
    _rat_array,
    _rats,
    _rows,
    _unpack_residues,
    hom_discriminant,
    hom_gcd,
    hom_gcd_many,
    hom_resultant,
    rat_to_str,
)

_MAX_REJECTION_TRIES = 1000


# ---------------------------------------------------------------------------
# core types
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class RationalCurve:
    """Parameterized curve f: P^1 -> P^N, N+1 binary forms of common degree e.

    Construction enforces: at least one nonzero coordinate, every coordinate of
    the same formal degree, and no base points (the gcd of all coordinates is
    constant — equivalently the map is defined everywhere and attains its
    degree).  A parameterization that is not generically one-to-one is
    accepted here, but its multiview map is not an immersion, so the
    genericity certificate refuses it (module docstring).
    """

    N: int
    e: int
    coords: tuple[HomPoly2, ...]

    def __post_init__(self):
        if self.N < 1 or self.e < 1:
            raise ValueError("need ambient dimension N >= 1 and degree e >= 1")
        if len(self.coords) != self.N + 1:
            raise ValueError("need exactly N+1 coordinate forms")
        if any(c.degree != self.e for c in self.coords):
            raise ValueError("all coordinates must have formal degree e")
        if all(c.is_zero for c in self.coords):
            raise ValueError("all coordinates vanish")
        g = hom_gcd_many(self.coords)
        if g.degree != 0:
            raise ValueError("parameterization has a base point (common factor "
                             f"of degree {g.degree})")

    def evaluate(self, s: Rat, t: Rat) -> tuple[Rat, ...]:
        return tuple(c.evaluate(s, t) for c in self.coords)

    @property
    def is_immersion(self) -> bool:
        """Whether f itself, taken as the one view, has no cusp."""
        views = [[c.dehom() for c in self.coords]]
        return cusp_form(chart_wronskians(views), self.e).degree == 0


def cusp_form(wronskians: Iterable[UniPoly], e: int) -> HomPoly2:
    """The cusp form of the multiview map: the gcd, over every view and every
    pair of its coordinates, of the 2x2 Jacobian minors, as a binary form.

    It is read from the chart Wronskians a b' - a' b of those pairs
    (:func:`chart_wronskians`), for the charts a(t) = F(1, t) of forms F of
    formal degree e.  Euler's identity gives
    s * (F_s G_t - G_s F_t) = e * (F G_t - G F_t), so a minor is, up to the
    factor e, the Wronskian taken as a form of formal degree 2e - 2: its
    power of s is the zero at t = infinity.  The map is an immersion exactly
    when the form is constant.  Zero Wronskians are skipped, and
    :func:`hom_gcd_many` stops at the first constant partial gcd, so a lazy
    iterable is read only that far.  The chart part is monic.  Raises
    ``ValueError`` when every Wronskian vanishes: every view maps the curve
    to a point.
    """
    forms = (_form(2 * e - 2, w) for w in wronskians if not w.is_zero)
    first = next(forms, None)
    if first is None:
        raise ValueError("the image of the curve in every view is a point")
    return hom_gcd_many(chain((first,), forms))


def chart_wronskians(views: Iterable[Sequence[UniPoly]]) -> Iterator[UniPoly]:
    """The a b' - a' b over every view and pair (a, b) of its charts, lazily,
    view after view, the pairs with the first chart first."""
    for coords in views:
        ds = [c.derivative() for c in coords]
        for i in range(len(coords)):
            for j in range(i + 1, len(coords)):
                yield coords[i] * ds[j] - ds[i] * coords[j]


@dataclass(frozen=True, slots=True, init=False)
class Camera:
    """Full-rank (h+1) x (N+1) exact rational matrix; row 0 is the chart row.

    Stored as polynomials are: entry (j, k) is num[j (N + 1) + k] / den, in
    canonical form, so equal cameras are equal objects.  The constructor
    takes any rational entries (ints, Fractions, "a/b") and proves the rank
    on the integer rows; ``entries`` gives the rows as Fractions.
    """

    h: int
    N: int
    num: tuple[int, ...]
    den: int

    def __init__(self, h: int, N: int, entries: Sequence[Sequence[Rat]]):
        if h < 1 or N < 1:
            raise ValueError("need h >= 1 and N >= 1")
        rows = _rows(entries)
        if len(rows) != h + 1 or any(len(r) != N + 1 for r in rows):
            raise ValueError("camera must be (h+1) x (N+1)")
        num, den = _integers(chain.from_iterable(rows))
        if _exact_rank(_split(num, N + 1)) != h + 1:
            raise ValueError("camera matrix not full rank")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "num", tuple(num))
        object.__setattr__(self, "den", den)

    @property
    def entries(self) -> tuple[tuple[Rat, ...], ...]:
        return tuple(_split(_rats(self.num, self.den), self.N + 1))


def _split(flat: Sequence, n: int) -> list:
    """The rows of n entries each of a matrix held row after row."""
    return [flat[k:k + n] for k in range(0, len(flat), n)]


def _exact_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix by fraction-free (Bareiss) elimination.
    Every row below the pivot is updated and divided exactly by the
    previous pivot, so each entry stays a minor of the input and entry
    sizes grow linearly, not doubling with each pivot row."""
    m = list(rows)
    rank, prev = 0, 1
    for col in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pr = m[rank]
        a = pr[col]
        for i in range(rank + 1, len(m)):
            b = m[i][col]
            m[i] = [(a * x - b * y) // prev for x, y in zip(m[i], pr)]
        prev = a
        rank += 1
        if rank == len(m):
            break
    return rank


@dataclass(frozen=True, slots=True)
class Arrangement:
    """Nonempty ordered list of cameras sharing (h, N)."""

    cameras: tuple[Camera, ...]

    def __post_init__(self):
        if not self.cameras:
            raise ValueError("arrangement needs at least one camera")
        h, N = self.cameras[0].h, self.cameras[0].N
        if any((c.h, c.N) != (h, N) for c in self.cameras):
            raise ValueError("cameras disagree on (h, N)")

    @property
    def n(self) -> int:
        return len(self.cameras)

    @property
    def h(self) -> int:
        return self.cameras[0].h

    @property
    def N(self) -> int:
        return self.cameras[0].N


def apply_camera(camera: Camera, f: RationalCurve) -> tuple[HomPoly2, ...]:
    """Row-by-row image of the curve: entry j is C^(j) . (f_0..f_N), degree e.

    One integer combination per row: with the camera's numerators a_jk over
    its denominator D and coordinate k equal to num_k / den_k, the image is
    sum_k a_jk (L / den_k) num_k over D L, L the lcm of the den_k.
    """
    if camera.N != f.N:
        raise ValueError(f"camera expects world dimension {camera.N}, curve has {f.N}")
    L = lcm(*(g.den for g in f.coords))
    cols = [g.num if g.den == L else [x * (L // g.den) for x in g.num] for g in f.coords]
    out = []
    for row in _split(camera.num, f.N + 1):
        acc = [0] * (f.e + 1)
        for a, col in zip(row, cols):
            if a:
                acc = [x + a * y for x, y in zip(acc, col)]
        out.append(_hom(f.e, acc, camera.den * L))
    return tuple(out)


# ---------------------------------------------------------------------------
# the scene: everything data-free about one (curve, arrangement)
# ---------------------------------------------------------------------------

class Scene:
    """The data-free part of every computation on one curve and arrangement.

    A count, its certificate and its cross-check read one scene, and so
    does a triangulation: :func:`scene_for` hands each of them the scene it
    built last for the same curve and arrangement objects.  Construction
    applies each camera once (``images``) and takes the charts, per view i
    the tuple (q_i, p_i1, ..., p_ih) of the image coordinates at s = 1
    (``charts``), the shape of ``images``.  The rest is computed on first
    use and kept for the scene's lifetime:

    * ``cusps``, :func:`cusp_form` read lazily from the :func:`chart_wronskians`
      of the charts, whose pairs with q_i come first, so on a generic scene
      it builds only the first view's; and ``cusp_chart``, its chart part;
    * ``prod_q_form``, the product of the chart forms Q_i, and ``prod_q``,
      its chart prod_i q_i;
    * ``certificate``, the :class:`GenericityCertificate` of the scene.

    The critical polynomial and the cross-check's perturbed numerator read
    only the charts and the images, through one program (``eddeg._assemble``)
    with two front ends: its exact value at a packing point
    (``eddeg._kron_sum``) and its residues mod 2**17 - 1 in folded slots
    (``eddeg._kron_sum_mod``).  Its data-free products, the residue view
    pass, are taken once per count or cross-check and not kept on the
    scene.

    A count or a cross-check takes a residue proof only on a scene whose
    certificate passes.  Such a certificate proves that neither has a root
    at a pole, and a failing one that the count is below 3en - 2, which no
    residue proof reaches.  Both lemmas follow.

    A passing certificate: let t0 be a zero of q_i.  Every term of
    g = sum_k n_k prod_{l != k} q_l^3 with k != i carries q_i^3, and
    q_i(t0) = 0 leaves n_i(t0) = sum_j p_ij(t0) (-p_ij(t0) q_i'(t0)), so

        g(t0) = -q_i'(t0) * sum_j p_ij(t0)^2 * prod_{k != i} q_k(t0)^3.

    Likewise every term of the cross-check's G_beta but view i's carries
    Q_i^2, so at a zero of Q_i on P^1, for every beta and beta0,

        G_beta = prod_{k != i} Q_k^2 * sum_j P_ij^2.

    A passing certificate makes every factor nonzero: the discriminant of
    Q_i makes its zeros simple, so q_i'(t0) != 0; the trivial gcd of Q_i
    with sum_j P_ij^2 gives sum_j p_ij(t0)^2 != 0; the pairwise resultants
    give Q_k != 0 at a zero of Q_i for k != i.  So g is coprime to prod q_i
    and G_beta to the chart of prod Q_k, for every data point, and
    ``immersion_ok`` makes the cusp chart constant.  The same conditions
    count the cross-check's #S_inf: each Q_i is a nonzero form of formal
    degree e whose nonzero discriminant gives it e distinct zeros on P^1,
    [0:1] included, and the nonzero pairwise resultants keep the zeros of
    different views apart, so prod Q_k has exactly en distinct zeros on
    P^1, its formal degree.

    A failing certificate gives deg g < 3en - 2, or g a root in common
    with prod q_i or the cusp chart, for every data point, so the count is
    below 3en - 2.  Take each broken condition.  At a finite t0, the
    formula for g(t0) above vanishes at a repeated zero of q_i
    (q_i'(t0) = 0), at a zero shared with q_k (q_k(t0) = 0) and at a zero
    of q_i and sum_j p_ij^2.  At a cusp t0 every W_ij(t0) is 0, since the
    cusp form divides every Wronskian, so every n_i(t0) is 0 and g(t0) = 0.
    At [0:1], with the charts of degree at most e and each W_ij of degree
    at most 2e - 2 (``eddeg.critical_polynomial``): a double zero gives
    deg q_i <= e - 2; a shared zero drops the degree of two charts; a zero
    of Q_i and sum_j P_ij^2 drops q_i and, as the squares of rationals sum
    to 0 only when each is 0, every p_ij; and a cusp is a zero of the
    t^(2e-2) coefficient a_e b_(e-1) - a_(e-1) b_e of every W_ij, for
    p_ij = sum a_k t^k and q_i = sum b_k t^k.  Each leaves every term
    n_k prod_(l != k) q_l^3 of g of degree at most 3en - 3.

    Construction refuses, with ``ValueError``, what ``apply_camera`` refuses
    and then the first view whose chart polynomial vanishes identically: the
    curve lies in that view's plane at infinity.  A point image is refused
    by the first read of ``cusps``.  A scene is not changed after
    construction, apart from filling these on first use.
    """

    def __init__(self, f: RationalCurve, arr: Arrangement):
        self.curve = f
        self.arrangement = arr
        self.images = tuple(apply_camera(cam, f) for cam in arr.cameras)
        for i, img in enumerate(self.images):
            if img[0].is_zero:
                raise ValueError(f"curve at infinity of camera {i}")
        self.charts = tuple(tuple(c.dehom() for c in img) for img in self.images)

    @cached_property
    def cusps(self) -> HomPoly2:
        """The multiview cusp form; raises ``ValueError`` when every view maps
        the curve to a point."""
        return cusp_form(chart_wronskians(self.charts), self.curve.e)

    @cached_property
    def cusp_chart(self) -> UniPoly:
        return self.cusps.dehom()

    @cached_property
    def prod_q_form(self) -> HomPoly2:
        return prod((img[0] for img in self.images), start=_hom(0, (1,), 1))

    @cached_property
    def prod_q(self) -> UniPoly:
        return self.prod_q_form.dehom()

    @cached_property
    def certificate(self) -> GenericityCertificate:
        """The genericity certificate; raises ``ValueError`` when every view
        maps the curve to a point, as its first step reads ``cusps``."""
        return _certify(self)


# the scene that scene_for built last; one slot, read and replaced whole,
# so a race between threads can only cost a rebuild
_last_scene: Scene | None = None


def scene_for(f: RationalCurve, arr: Arrangement) -> Scene:
    """The scene that this function built last if that was from these very
    objects (``is``, not ``==``), and a new one otherwise, which it
    remembers.  :func:`genericity_certificate` and every public function of
    ``eddeg`` that reads a scene get it here; none takes one as an argument.

    The one remembered scene is held strongly, so the identities it is
    compared by cannot be reused by other objects while it is held.  A
    scene depends only on its curve and arrangement, both immutable, so a
    count repeated on the same objects, its certificate, its cross-check and
    a triangulation all read one scene and its caches.  Equal but distinct
    objects get a scene of their own.
    """
    global _last_scene
    last = _last_scene
    if last is None or last.curve is not f or last.arrangement is not arr:
        last = _last_scene = Scene(f, arr)
    return last


# ---------------------------------------------------------------------------
# genericity certificate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GenericityCertificate:
    """Exact nonvanishing conditions for the closed-form critical count.

    ``passes`` requires every listed condition of the module docstring: the
    chart conditions, base-point-freeness, and ``immersion_ok``, that the
    multiview map is an immersion (``immersion_defect_degree`` is the degree
    of its cusp form, 0 when it is).  It is formed only on a scene, so every
    chart polynomial is nonzero and the image is not a point: those are
    refused, in that order, before any condition is tested.
    """

    discriminants: tuple[Rat, ...]                 # per camera, of q_i
    pairwise_resultants: tuple[tuple[int, int, Rat], ...]
    sum_square_gcd_trivial: tuple[bool, ...]       # per camera a: gcd(q_a, sum_j p_aj^2) == 1
    base_point_free: bool
    immersion_ok: bool
    immersion_defect_degree: int                   # deg of the multiview cusp form
    reasons: tuple[str, ...]                       # human-readable failure notes

    @property
    def passes(self) -> bool:
        return (
            all(d != 0 for d in self.discriminants)
            and all(r != 0 for _, _, r in self.pairwise_resultants)
            and all(self.sum_square_gcd_trivial)
            and self.base_point_free
            and self.immersion_ok
        )

    def to_json_dict(self) -> dict:
        return {
            "passes": self.passes,
            "discriminants": [rat_to_str(d) for d in self.discriminants],
            "pairwise_resultants": [
                {"i": i, "j": j, "value": rat_to_str(r)}
                for i, j, r in self.pairwise_resultants
            ],
            "sum_square_gcd_trivial": list(self.sum_square_gcd_trivial),
            "base_point_free": self.base_point_free,
            "immersion_ok": self.immersion_ok,
            "immersion_defect_degree": self.immersion_defect_degree,
            "reasons": list(self.reasons),
        }


def genericity_certificate(arr: Arrangement, f: RationalCurve) -> GenericityCertificate:
    """Every certificate quantity, exact and deterministic: the
    ``certificate`` of :func:`scene_for`'s scene of (f, arr), computed once
    per scene.  Raises ``ValueError`` before any certificate is formed: on
    differing dimensions (:func:`apply_camera`), then on a vanishing chart
    (:class:`Scene`), then when every view maps the curve to a point
    (:func:`cusp_form`).
    """
    return scene_for(f, arr).certificate


def _certify(scene: Scene) -> GenericityCertificate:
    """The certificate of ``scene``, computed (``Scene.certificate``).

    Each view's sum-of-squares condition is first proved from residues mod
    2**17 - 1 (:func:`_sum_square_coprime_mod_p`), which gives True only
    where the exact test gives True; anything it does not prove, such as a
    sum of squares that vanishes mod p, takes the exact ``hom_gcd``.  So the
    certificate, its reasons and their order are the exact ones.
    """
    arr, f = scene.arrangement, scene.curve
    reasons: list[str] = []
    images = scene.images
    defect = scene.cusps.degree
    immersion_ok = defect == 0
    qs = [img[0] for img in images]
    discs = tuple(hom_discriminant(q) for q in qs)
    for i, d in enumerate(discs):
        if d == 0:
            reasons.append(f"chart polynomial of camera {i} has a repeated zero")

    pres = []
    for i in range(arr.n):
        for j in range(i + 1, arr.n):
            r = hom_resultant(qs[i], qs[j])
            pres.append((i, j, r))
            if r == 0:
                reasons.append(f"cameras {i} and {j} share a zero at infinity")

    gcd_trivial = []
    for i, img in enumerate(images):
        if _sum_square_coprime_mod_p(img[0], img[1:]):
            gcd_trivial.append(True)
            continue
        ssq = HomPoly2(2 * f.e)
        for p in img[1:]:
            ssq = ssq + p * p
        if ssq.is_zero:
            gcd_trivial.append(False)
            reasons.append(f"camera {i} image coordinates vanish identically")
            continue
        trivial = hom_gcd(qs[i], ssq).degree == 0
        gcd_trivial.append(trivial)
        if not trivial:
            reasons.append(
                f"chart polynomial of camera {i} shares a zero with its view's "
                "sum of squares"
            )

    if not immersion_ok:
        reasons.append("parameterization is not an immersion (cusp present)")

    # base-point-freeness is a construction invariant of RationalCurve; recorded
    # honestly rather than assumed
    return GenericityCertificate(
        discriminants=discs,
        pairwise_resultants=tuple(pres),
        sum_square_gcd_trivial=tuple(gcd_trivial),
        base_point_free=True,
        immersion_ok=immersion_ok,
        immersion_defect_degree=defect,
        reasons=tuple(reasons),
    )


def _sum_square_coprime_mod_p(q: HomPoly2, ps: Sequence[HomPoly2]) -> bool:
    """Whether residues mod p = 2**17 - 1 prove that the form Q shares no
    zero on P^1 with sum_j P_j^2; False means only "not proved".

    Let a be the integer numerators of Q (a[k] multiplies s^(e-k) t^k) and
    S = sum_j (D P_j)^2 = D^2 sum_j P_j^2, with D the lcm of the P_j's
    denominators, an integer form with the zeros of sum_j P_j^2.  Its
    residues are read from one sum of squares of the packed residues of
    the D P_j: each slot of a square is a sum of at most e + 1 products
    below p^2, and the slots of the w = 8 nb bit layout below hold h of
    them without a carry.

    Q's value at [0:1] is a[e], so a top residue a[e] != 0 mod p rules out
    a zero there and makes the chart a(t) = Q(1, t) of degree e: every zero
    of Q is [1:t0] with a(t0) = 0.  (``_mod_gcd`` gives None when p
    divides a[e].)  So when s mod p, the chart of S mod p, is not zero,
    with its vanishing top residues dropped, ``_mod_gcd(a, s mod p, p) ==
    [1]`` proves a and the chart of S coprime over Q by the argument of
    ``poly_gcd``, which needs only that p not divide a[e]: so Q and
    sum_j P_j^2 share no zero on P^1.
    """
    p = _PRIMES[0]
    d = lcm(*(x.den for x in ps))
    size = 2 * q.degree + 1
    nb = (2 * p.bit_length() + len(ps).bit_length() + (q.degree + 1).bit_length() + 7) // 8
    packed = [_pack_residues([c * (d // x.den) for c in x.num], p, nb) for x in ps]
    s = _unpack_residues(sum(x * x for x in packed), p, nb, size)
    while s and not s[-1]:
        s.pop()
    return bool(s) and _mod_gcd(q.num, s, p) == [1]


# ---------------------------------------------------------------------------
# seeded generation
# ---------------------------------------------------------------------------

def _by_rejection(what: str, draw):
    """The first ``draw()`` that raises no ``ValueError``, in at most
    ``_MAX_REJECTION_TRIES`` draws."""
    for _ in range(_MAX_REJECTION_TRIES):
        try:
            return draw()
        except ValueError:
            continue
    raise RuntimeError(f"rejection sampling overflow: no {what} in "
                       f"{_MAX_REJECTION_TRIES} tries")


def random_camera(seed: int, h: int, N: int, bound: int = 10) -> Camera:
    """Uniform integer entries in [-bound, bound]; full rank by rejection.

    Mersenne-Twister ``random.Random(seed)``; at most 1000 rejection rounds
    (full-rank failure has probability ~0 for bound >= 2).
    """
    if bound < 2:
        raise ValueError("need bound >= 2")
    rng = random.Random(seed)
    return _by_rejection("full-rank camera", lambda: Camera(h, N, [
        [rng.randint(-bound, bound) for _ in range(N + 1)] for _ in range(h + 1)]))


def random_camera_degree_drop(seed: int, N: int = 3, bound: int = 10) -> Camera:
    """3-row camera whose chart row annihilates the leading world coordinate.

    Every member's chart polynomial drops degree, so the parameter [0:1] lies
    at infinity in every view; two independent members therefore always share
    that zero and any pair fails the certificate, while single members pass.
    """
    rng = random.Random(seed)

    def draw() -> Camera:
        entries = [[rng.randint(-bound, bound) for _ in range(N + 1)] for _ in range(3)]
        entries[0][0] = 0
        return Camera(2, N, entries)

    return _by_rejection("degree-drop camera", draw)


def random_camera_block_pairs(seed: int, bound: int = 10) -> Camera:
    """3x6 camera whose row j is supported on world coordinates {2j, 2j+1}.

    A proper subfamily of camera space: on the degree-5 monomial curve the
    image coordinates become consecutive two-term blocks, and the count drops
    below the generic value while remaining constant along the family.
    """
    rng = random.Random(seed)

    def draw() -> Camera:
        entries = [[0] * 6 for _ in range(3)]
        for j, row in enumerate(entries):
            row[2 * j] = rng.randint(-bound, bound)
            row[2 * j + 1] = rng.randint(-bound, bound)
        return Camera(2, 5, entries)

    return _by_rejection("block-pair camera", draw)


def rational_normal_curve(e: int, N: int) -> RationalCurve:
    """Monomial curve [t^e : s t^(e-1) : ... : s^e] in P^e (requires N = e)."""
    if e < 1:
        raise ValueError("need e >= 1")
    if N != e:
        raise ValueError("monomial curve lives in P^e; pad explicitly for N > e")
    coords = []
    for k in range(e + 1):
        cs = [0] * (e + 1)
        cs[e - k] = 1  # s^k t^(e-k)
        coords.append(HomPoly2(e, tuple(cs)))
    return RationalCurve(N=e, e=e, coords=tuple(coords))


def random_curve(seed: int, e: int, N: int, bound: int = 10) -> RationalCurve:
    """Random integer-coefficient degree-e curve in P^N, base-point-free by rejection."""
    if e < 1 or N < 1:
        raise ValueError("need e >= 1 and N >= 1")
    rng = random.Random(seed)

    def draw() -> RationalCurve:
        return RationalCurve(N=N, e=e, coords=tuple(
            HomPoly2(e, tuple(rng.randint(-bound, bound) for _ in range(e + 1)))
            for _ in range(N + 1)))

    return _by_rejection("base-point-free curve", draw)


# ---------------------------------------------------------------------------
# JSON (de)serialization — the wire schemas used by the CLI and fixtures
# ---------------------------------------------------------------------------

def curve_to_dict(f: RationalCurve) -> dict:
    return {
        "N": f.N,
        "degree": f.e,
        "coords": [c.to_strs() for c in f.coords],
    }


def _json_int(d: dict, key: str) -> int:
    """d[key] if it is a JSON integer (an int, not a bool), unconverted."""
    if not isinstance(x := d[key], int) or isinstance(x, bool):
        raise TypeError(f"{key} must be an integer, not {x!r}")
    return x


def curve_from_dict(d: dict) -> RationalCurve:
    """The curve of a curve object; a coordinate row must hold exactly
    degree + 1 coefficients, so a huge degree is refused before any padding."""
    try:
        N = _json_int(d, "N")
        e = _json_int(d, "degree")
        coords = []
        for row in d["coords"]:
            row = _rat_array(row)
            if len(row) != e + 1:
                raise ValueError(f"a coordinate row holds {len(row)} coefficients, "
                                 f"not degree + 1 = {e + 1}")
            coords.append(HomPoly2(e, row))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed curve object: {exc}") from exc
    return RationalCurve(N=N, e=e, coords=tuple(coords))


def camera_to_dict(c: Camera) -> dict:
    return {
        "h": c.h,
        "N": c.N,
        "rows": [[rat_to_str(x) for x in row] for row in c.entries],
    }


def camera_from_dict(d: dict) -> Camera:
    try:
        h = _json_int(d, "h")
        N = _json_int(d, "N")
        rows = tuple(_rat_array(row) for row in d["rows"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed camera object: {exc}") from exc
    return Camera(h=h, N=N, entries=rows)


def arrangement_to_dict(a: Arrangement) -> dict:
    return {"cameras": [camera_to_dict(c) for c in a.cameras]}


def arrangement_from_dict(d: dict) -> Arrangement:
    try:
        cams = tuple(camera_from_dict(c) for c in d["cameras"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed arrangement object: {exc}") from exc
    return Arrangement(cameras=cams)
