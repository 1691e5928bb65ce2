"""Exact rational scalar and polynomial arithmetic.

Everything downstream (cameras, critical polynomials, certificates, root
isolation) reduces to a handful of primitives implemented here over
arbitrary-precision rationals:

* ``UniPoly`` — univariate polynomials over Q, dense ascending coefficients;
* ``HomPoly2`` — homogeneous binary forms of a *formal* degree, so leading-zero
  coefficient data (roots at [0:1] or [1:0]) is never silently lost;
* one representation for both: a tuple of Python ints ``num`` over one
  positive int ``den``, in canonical form (gcd(content, den) = 1, den = 1
  for zero), so equal values are equal objects and the integer form every
  gcd, resultant and sign needs is stored, not recomputed.  Sums go over
  a common denominator, and derivatives, scaling, monic normalization,
  charts and evaluation stay in integers; ``coeffs`` builds the Fractions
  only for output and tests;
* one product kernel for both (Kronecker substitution): each operand's
  integers are packed into a single Python int, one slot per coefficient.
  A slot holds a signed value of absolute value up to
  min(len) * max|a| * max|b|, the bound on any product coefficient, so the
  slots of the one big-int product never interfere and unpack to the exact
  integer coefficients over the product of the two denominators.  CPython's
  Karatsuba does the multiplication (Harvey, JSC 2009; von zur Gathen &
  Gerhard, Modern Computer Algebra, section 8.4);
* gcd / squarefree part / distinct-root counts via one modular gcd (Brown,
  JACM 1971; von zur Gathen & Gerhard, Modern Computer Algebra, ch. 6):
  Euclid mod a prime p (below) gives the monic gcd mod p.  For p dividing
  neither leading coefficient, deg gcd mod p >= deg gcd over Q, so a
  constant gcd mod p proves coprimality.  Otherwise, at a p above the
  Landau-Mignotte bound, the gcd mod p scaled by gcd(lc a, lc b) and read
  in the symmetric range lifts to a candidate h of the same degree; h is
  accepted only once it divides both operands exactly, which makes it the
  gcd (proof in ``poly_gcd``);
* Sylvester resultants and discriminants via fraction-free (Bareiss)
  determinant elimination on integer matrices;
* Euclid mod a prime p on packed residues, for the gcd above and the
  resultant shortcut below: each operand's residues are packed into one
  Python int, one coefficient per w-bit slot (w = 8 * nb >= 2k + 6 for
  p = 2**k - 1, the byte packing of the product kernel), and an elimination
  row is a few whole-integer operations: read the top slot, add a multiple
  in [1, p - 1] of the shifted divisor, never subtract, so no slot borrows.
  Slots are reduced lazily, at each remainder and every 2**(w - 2k - 1)
  rows of a long quotient, which keeps every slot below 2**w (the overflow
  bound is in ``_mod_gcd``).  The primes are Mersenne primes so that one
  slot reduction serves them all, on every slot at once with two masks and
  a shift: x = (x & 2**k - 1) + (x >> k) (mod 2**k - 1).  This is Kronecker
  substitution applied to remaindering (von zur Gathen & Gerhard, Modern
  Computer Algebra, ch. 8);
* a nonvanishing test for binary-form resultants that first runs Euclid mod
  one prime p on the chart polynomials f(1, t), g(1, t).  Two forms share a
  zero on P^1 either at [0:1], where both top coefficients vanish, or at a
  common root of their chart polynomials.  When at most one top coefficient
  is 0 the first case is excluded, and when p divides neither chart leading
  coefficient, deg gcd mod p >= deg gcd over Q.  So a constant gcd mod p
  proves Res != 0 over Q; it is the only answer taken from the modular run,
  and every other outcome falls through to the exact resultant;
* real-root isolation: the intervals of Sturm's bisection tree, with every
  root count read off one Descartes (Vincent-Collins-Akritas) isolation
  instead of a Sturm chain, and refinement to plain bisection's intervals by
  quadratic interval refinement snapped to the bisection grid; every sign
  is taken in integer arithmetic, as the sign of a positive multiple of the
  polynomial (its numerators) at the rational point.

All values are immutable after construction and every operation is a pure
function, so everything here is safe to share between threads.

Scalars are ``fractions.Fraction`` (always lowest terms, positive
denominator); ``rat_from_str``/``rat_to_str`` fix the "a/b" wire format used
by every JSON schema in the package.
"""

from __future__ import annotations

import decimal
import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd as _int_gcd, isqrt, lcm
from typing import Iterable, Sequence

Rat = Fraction

_RAT_RE = re.compile(r"^[+-]?\d+(/\d+)?$")

# The primes of the modular gcd: 2**k - 1 for every Mersenne exponent k from
# 61 to 216091, the one kind ``_mod_gcd`` reduces (by ``_mersenne_fold``).
# For p not dividing the integer leading coefficients, deg gcd mod p >=
# deg gcd over Q, which needs every modulus to be prime.  The first prime
# proves coprimality (and, for binary forms without a common zero at [0:1],
# a nonzero resultant); the larger ones lift gcds whose coefficients have up
# to about 65,000 digits (``poly_gcd``).  About 88 KB in all.
_PRIMES = tuple((1 << k) - 1 for k in (
    61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217, 4253, 4423, 9689, 9941,
    11213, 19937, 21701, 23209, 44497, 86243, 110503, 132049, 216091))


def rat_from_str(s: str) -> Rat:
    """Parse a rational literal "a/b" or "a" (optional sign, decimal digits)."""
    if not isinstance(s, str) or not _RAT_RE.match(s.strip()):
        raise ValueError(f"not a rational literal: {s!r}")
    num, _, den = s.strip().partition("/")
    d = _str_to_int(den) if den else 1
    if d == 0:
        raise ValueError(f"zero denominator in rational literal: {s!r}")
    return Fraction(_str_to_int(num), d)


def rat_to_str(x: Rat) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return _int_to_str(x.numerator)
    return f"{_int_to_str(x.numerator)}/{_int_to_str(x.denominator)}"


def _str_to_int(s: str) -> int:
    """int(s), also past the interpreter's int-to-str digit limit, through an
    exact Decimal as in :func:`_int_to_str`."""
    try:
        return int(s)
    except ValueError:
        return int(decimal.Decimal(s))


def _int_to_str(n: int) -> str:
    """str(n), also past the interpreter's int-to-str digit limit: an integral
    Decimal (exponent 0) prints every digit and is not subject to it."""
    try:
        return str(n)
    except ValueError:
        return str(decimal.Decimal(n))


# One shared Fraction per small integer: seeded scenes are built from small
# integers, and a workload that keeps many scenes alive would otherwise hold a
# separate 48-byte Fraction (and often a separate int) for every entry.
_SMALL_RATS = tuple(Fraction(k) for k in range(-64, 65))


def _as_rat(x) -> Rat:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return _SMALL_RATS[x + 64] if -64 <= x <= 64 else Fraction(x)
    if isinstance(x, str):
        return rat_from_str(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


# ---------------------------------------------------------------------------
# integer-coefficient helpers (dense ascending lists, no trailing zeros)
# ---------------------------------------------------------------------------

def _int_primitive(a: Sequence[int]) -> list[int]:
    """A nonzero a divided by its positive content; keeps every sign."""
    c = _int_gcd(*a)
    return [x // c for x in a]


def _mod_gcd(a: Sequence[int], b: Sequence[int], p: int) -> list[int] | None:
    """Residues of the monic gcd(a mod p, b mod p), lowest first, or None if
    p kills a leading coefficient.

    Euclid on packed residues (module docstring); p must be a Mersenne prime
    2**k - 1 with k >= 14, as every entry of ``_PRIMES`` is.  a and b are
    reduced mod p once and packed into one int each, one coefficient per slot
    of w = 8 * nb >= 2k + 6 bits (``_pack_residues``).  The elimination row at
    slot j of A reads c = (slot j of A) mod p and adds
    m * (B << w*(j - deg B)), m = p - c / lc(B) mod p in [1, p - 1]: slot j
    becomes = 0 (mod p), and every such slot is masked off when the quotient
    ends.  Only m uses the inverse of lc(B); B is made monic only when it is
    returned.  Nothing is subtracted, so no slot ever borrows from its
    neighbour.

    Slots are reduced lazily by ``_mersenne_fold``, which leaves each slot
    below 2**(k+1): once per remainder, and after every R = 2**(w - 2k - 1)
    rows within one quotient.  Between folds a slot holds at most
    (2**(k+1) - 1) * (1 + R * (p - 1)) < 2**(k+1) * R * 2**k = 2**w, so no
    slot overflows into its neighbour either.
    """
    if a[-1] % p == 0 or b[-1] % p == 0:
        return None
    k = p.bit_length()
    nb, rows_per_fold = _slot_layout(p)
    w = 8 * nb
    size = max(len(a), len(b))
    low = int.from_bytes(p.to_bytes(nb, "little") * size, "little")
    high = int.from_bytes(((1 << (w - k)) - 1).to_bytes(nb, "little") * size, "little")
    slot = (1 << w) - 1
    if len(a) < len(b):
        a, b = b, a
    da, db = len(a) - 1, len(b) - 1
    A = _pack_residues(a, p, nb)
    B = _pack_residues(b, p, nb)
    while db:
        # A and B: slots below 2**(k+1); top slots da >= db nonzero mod p
        inv = pow((B >> w * db) % p, -1, p)
        rows = 0
        for top in range(w * da, w * db - 1, -w):
            c = (A >> top & slot) % p
            if c:
                A += ((p - c * inv % p) * B) << (top - w * db)
                rows += 1
                if rows == rows_per_fold:
                    A = _mersenne_fold(A, k, low, high)
                    rows = 0
        A = _mersenne_fold(A & ((1 << w * db) - 1), k, low, high)
        # the remainder's degree: drop top slots that are 0 mod p
        dr = (A.bit_length() - 1) // w
        while dr >= 0 and (A >> w * dr) % p == 0:
            A &= (1 << w * dr) - 1
            dr = (A.bit_length() - 1) // w
        if dr < 0:
            # B divides A mod p: B is the gcd, and inv makes it monic
            data = B.to_bytes(nb * (db + 1), "little")
            return [int.from_bytes(data[j:j + nb], "little") * inv % p
                    for j in range(0, len(data), nb)]
        A, B, da, db = B, A, db, dr
    return [1]


def _pack_residues(a: Sequence[int], p: int, nb: int) -> int:
    """sum (a[k] mod p) * 256**(nb*k): ``_kron_pack`` of residues, which are
    never negative."""
    return int.from_bytes(b"".join((x % p).to_bytes(nb, "little") for x in a), "little")


def _slot_layout(p: int) -> tuple[int, int]:
    """(nb, R) of ``_mod_gcd`` for p = 2**k - 1: slots of
    w = 8 * nb bits, 2k + 6 <= w <= 2k + 13, and a fold every
    R = 2**(w - 2k - 1) rows of a quotient."""
    k = p.bit_length()
    nb = (2 * k + 13) // 8
    return nb, 1 << (8 * nb - 2 * k - 1)


def _mersenne_fold(x: int, k: int, low: int, high: int) -> int:
    """Two folds s -> (s & 2**k - 1) + (s >> k) on every slot of x at once.

    ``low`` masks the low k bits and ``high`` the low w - k bits of every w-bit
    slot.  A fold keeps each slot's residue mod 2**k - 1, as 2**k = 1 there.
    From a slot below 2**w = 2**(2k + e), the first fold leaves less than
    2**k + 2**(k+e) and the second less than 2**k + 2**(e+1) <= 2**(k+1),
    as e + 1 <= k.
    """
    x = (x & low) + (x >> k & high)
    return (x & low) + (x >> k & high)


def _kron_pack(a: Sequence[int], nb: int) -> int:
    """sum a[k] * 256**(nb*k) for |a[k]| < 2**(8*nb - 1), built bytewise in O(len).

    Each slot holds a[k] + half, a digit in [1, 256**nb - 1], in one join;
    the bias of ``_slot_bias`` then takes every half back out.
    """
    half, bias = _slot_bias(nb, len(a))
    return int.from_bytes(b"".join((x + half).to_bytes(nb, "little") for x in a),
                          "little") - bias


def _slot_bias(nb: int, size: int) -> tuple[int, int]:
    """(half, bias): half = 2**(8*nb - 1), half a slot, and bias its sum over
    size slots, sum half * 256**(nb*k) for k < size."""
    half = 1 << (8 * nb - 1)
    return half, int.from_bytes(half.to_bytes(nb, "little") * size, "little")


def _kron_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Full product of two nonempty integer coefficient lists (Kronecker substitution).

    Every product coefficient has absolute value at most
    min(len) * max|a| * max|b| < 2**(8*nb - 1), so it is a signed digit of
    the packed product (``_kron_unpack``).
    """
    bound = min(len(a), len(b)) * max(map(abs, a)) * max(map(abs, b))
    size = len(a) + len(b) - 1
    if not bound:
        return [0] * size
    nb = (bound.bit_length() + 8) // 8
    return _kron_unpack(_kron_pack(a, nb) * _kron_pack(b, nb), nb, size)


def _kron_unpack(v: int, nb: int, size: int) -> list[int]:
    """The size signed digits of v = sum c[k] * 256**(nb*k), |c[k]| < 2**(8*nb - 1).

    Adding half a slot to every slot makes each one a nonnegative digit below
    256**nb: no borrows, and the digits read back directly from the bytes of
    the biased value.
    """
    half, bias = _slot_bias(nb, size)
    data = (v + bias).to_bytes(nb * size, "little")
    return [int.from_bytes(data[k:k + nb], "little") - half
            for k in range(0, nb * size, nb)]


def _clear_denominators(cs: Sequence[Rat]) -> tuple[list[int], int]:
    """(integer list, positive D) with D * cs integral, D the lcm of the denominators."""
    d = 1
    for c in cs:
        d = d * c.denominator // _int_gcd(d, c.denominator)
    return [c.numerator * (d // c.denominator) for c in cs], d


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


# ---------------------------------------------------------------------------
# the integer representation shared by UniPoly and HomPoly2
# ---------------------------------------------------------------------------

_set = object.__setattr__


# One shared int per small value, as ``_SMALL_RATS``: CPython caches only
# -5..256, and constructors keep their coefficients for as long as the curve
# or camera they build lives.
_SMALL_INTS = tuple(range(-64, 65))


def _integers(cs: Iterable) -> tuple[list[int], int]:
    """``_clear_denominators`` of the rationals cs; ints need no conversion."""
    cs = list(cs)
    den = 1
    if any(type(c) is not int for c in cs):
        cs, den = _clear_denominators([_as_rat(c) for c in cs])
    return [_SMALL_INTS[c + 64] if -64 <= c <= 64 else c for c in cs], den


def _reduced(num: Sequence[int], den: int) -> tuple[Sequence[int], int]:
    """num / den (den > 0) in canonical form: both divided by gcd(den, content)."""
    if den != 1:
        g = _int_gcd(den, *num)
        if g != 1:
            return [x // g for x in num], den // g
    return num, den


def _sum(a: Sequence[int], da: int, b: Sequence[int], db: int,
         sign: int = 1) -> tuple[list[int], int]:
    """Numerators over one common denominator of a / da + sign * b / db, any lengths."""
    if da == db:
        den = da
    else:
        g = _int_gcd(da, db)
        ma, mb = db // g, da // g
        den = da * ma
        a = [x * ma for x in a]
        b = [x * mb for x in b]
    out = list(a)
    if len(out) < len(b):
        out.extend([0] * (len(b) - len(out)))
    for k, x in enumerate(b):
        out[k] += sign * x
    return out, den


def _rats(num: Sequence[int], den: int) -> tuple[Rat, ...]:
    if den == 1:
        return tuple(_SMALL_RATS[x + 64] if -64 <= x <= 64 else Fraction(x) for x in num)
    return tuple(Fraction(x, den) for x in num)


# ---------------------------------------------------------------------------
# UniPoly
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True, init=False)
class UniPoly:
    """Dense univariate polynomial over Q: coefficient k of t^k is num[k] / den.

    Canonical form: num has no trailing zeros, den > 0, gcd(content, den) = 1,
    and den = 1 for the zero polynomial, so equal polynomials are equal
    objects and ``int_coeffs`` is (num, den) itself.  The zero polynomial has
    an empty ``num`` and its ``degree`` is the sentinel ``None`` rather than
    any integer, so degree formulas can never silently absorb it.  The
    constructor takes any rational coefficients (ints, Fractions, "a/b").
    """

    num: tuple[int, ...]
    den: int

    def __init__(self, coeffs: Iterable = ()):
        num, den = _integers(coeffs)
        while num and num[-1] == 0:
            num.pop()
        _set(self, "num", tuple(num))
        _set(self, "den", den)

    # -- basic structure ----------------------------------------------------

    @property
    def coeffs(self) -> tuple[Rat, ...]:
        """The coefficients as Fractions, lowest coefficient first."""
        return _rats(self.num, self.den)

    @property
    def is_zero(self) -> bool:
        return not self.num

    @property
    def degree(self) -> int | None:
        """Degree, or None (sentinel) for the zero polynomial."""
        return len(self.num) - 1 if self.num else None

    @property
    def lc(self) -> Rat:
        if not self.num:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self.num[-1], self.den)

    def __getitem__(self, k: int) -> Rat:
        return Fraction(self.num[k], self.den) if 0 <= k < len(self.num) else Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.num)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "UniPoly") -> "UniPoly":
        return _uni(*_sum(self.num, self.den, other.num, other.den))

    def __neg__(self) -> "UniPoly":
        return _uni([-x for x in self.num], self.den)

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return _uni(*_sum(self.num, self.den, other.num, other.den, -1))

    def __mul__(self, other):
        if isinstance(other, UniPoly):
            if not self.num or not other.num:
                return _UNI_ZERO
            return _uni(_kron_mul(self.num, other.num), self.den * other.den)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c: Rat) -> "UniPoly":
        c = _as_rat(c)
        n = c.numerator
        return _uni([n * x for x in self.num], self.den * c.denominator)

    def derivative(self) -> "UniPoly":
        num = self.num
        return _uni([k * num[k] for k in range(1, len(num))], self.den)

    def evaluate(self, x: Rat) -> Rat:
        x = _as_rat(x)
        if not self.num:
            return Fraction(0)
        return Fraction(_eval_int(self.num, x),
                        self.den * x.denominator ** (len(self.num) - 1))

    def __divmod__(self, other: "UniPoly"):
        """(quotient, remainder) over Q by integer pseudo-division:
        lc^(delta+1) * num = Q * other.num + R, exactly, for lc = other.num[-1]."""
        b = other.num
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        n, lc = len(b) - 1, b[-1]
        delta = len(self.num) - 1 - n
        if delta < 0:
            return _UNI_ZERO, self
        scale = lc ** (delta + 1)
        rem = [x * scale for x in self.num]
        quo = [0] * (delta + 1)
        for i in range(delta, -1, -1):
            c = rem[n + i] // lc
            if c:
                quo[i] = c
                for j in range(n + 1):
                    rem[i + j] -= c * b[j]
        if scale < 0:
            scale, quo, rem = -scale, [-x for x in quo], [-x for x in rem]
        return (_uni([x * other.den for x in quo], scale * self.den),
                _uni(rem[:n], scale * self.den))

    def exact_div(self, other: "UniPoly") -> "UniPoly":
        q, r = divmod(self, other)
        if not r.is_zero:
            raise ValueError("inexact polynomial division")
        return q

    def monic(self) -> "UniPoly":
        if not self.num:
            raise ValueError("cannot normalize the zero polynomial")
        lc = self.num[-1]
        if lc == self.den:
            return self
        if lc < 0:
            return _uni([-x for x in self.num], -lc)
        return _uni(self.num, lc)

    # -- conversions ---------------------------------------------------------

    def int_coeffs(self) -> tuple[list[int], int]:
        """(integer coefficient list, positive denominator D) with D*self integral.

        D is the least such denominator, as ``_clear_denominators`` gives it.
        """
        return list(self.num), self.den

    def to_strs(self) -> list[str]:
        return [rat_to_str(c) for c in self.coeffs]

    @classmethod
    def from_strs(cls, items: Iterable[str]) -> "UniPoly":
        return cls(tuple(rat_from_str(s) for s in items))

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        cs = self.coeffs
        parts = []
        for k in range(len(cs) - 1, -1, -1):
            c = cs[k]
            if not c:
                continue
            mono = "1" if k == 0 else ("t" if k == 1 else f"t^{k}")
            if k == 0:
                parts.append(rat_to_str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{rat_to_str(c)}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")


def _uni(num: Sequence[int], den: int) -> UniPoly:
    """The UniPoly num / den for any integers num and den > 0."""
    n = len(num)
    while n and not num[n - 1]:
        n -= 1
    num, den = _reduced(num[:n], den) if n else ((), 1)
    p = object.__new__(UniPoly)
    _set(p, "num", tuple(num))
    _set(p, "den", den)
    return p


_UNI_ZERO = _uni((), 1)
UNI_ONE = _uni((1,), 1)


# ---------------------------------------------------------------------------
# gcd / squarefree / resultants
# ---------------------------------------------------------------------------

def poly_gcd(p: UniPoly, q: UniPoly) -> UniPoly:
    """Monic greatest common divisor: the modular gcd of the integer numerators.

    For each prime p of ``_PRIMES`` that divides neither leading coefficient
    of the numerators a and b, ``_mod_gcd`` gives the monic gcd v mod p, and
    deg v >= d = deg gcd over Q: the primitive integer gcd g divides a and b
    in Z[t] (Gauss's lemma), and its leading coefficient divides theirs, so
    g mod p keeps its degree and divides both mod p.  A constant v therefore
    proves a and b coprime; that is the common case, and it costs one Euclid
    mod the first prime.

    Once v is not constant, a and b are made primitive and
    gamma = gcd(lc a, lc b).  As lc g divides gamma, gamma * g / lc g is an
    integer polynomial, and by the Landau-Mignotte bound (von zur Gathen &
    Gerhard, Modern Computer Algebra, section 6.6) its coefficients are at
    most gamma * 2**d * min(||a||_2, ||b||_2) in absolute value.  Primes up to
    twice that bound are skipped.  At a prime above it, the candidate h is
    the primitive part of gamma * v read in the symmetric range mod p (a
    smaller leading coefficient makes the pseudo-divisions below cheaper).
    gamma is nonzero mod p, so deg h = deg v >= d; and once h divides a and b
    exactly, h divides g, so deg h <= d and h is g up to a unit.  The bound
    only makes the first lucky prime (deg v = d) succeed: correctness rests
    on the division check alone, and a candidate that fails it moves on to
    the next prime.  Past the last prime, which takes gcd coefficients of
    about 65,000 digits, the gcd is refused with a ``ValueError``.
    """
    if p.is_zero and q.is_zero:
        raise ValueError("gcd of two zero polynomials")
    if p.is_zero:
        return q.monic()
    if q.is_zero:
        return p.monic()
    if p.degree == 0 or q.degree == 0:
        return UNI_ONE
    a, b = p.num, q.num
    d = min(len(a), len(b)) - 1
    bound = 0  # until a common factor shows mod some prime
    for prime in _PRIMES:
        if prime <= bound:
            continue
        v = _mod_gcd(a, b, prime)
        if v is None:
            continue
        if len(v) == 1:
            return UNI_ONE
        if not bound:
            a, b = _int_primitive(a), _int_primitive(b)
            gamma = _int_gcd(a[-1], b[-1])
            norm = isqrt(min(sum(x * x for x in a), sum(x * x for x in b))) + 1
        d = min(d, len(v) - 1)
        bound = 2 * gamma * norm << d
        if prime > bound:
            lifted = (gamma * x % prime for x in v)
            h = _uni(_int_primitive([c - prime if 2 * c > prime else c for c in lifted]), 1)
            if not divmod(p, h)[1] and not divmod(q, h)[1]:
                return h.monic()
    raise ValueError("coefficients too large for the modular gcd")


def squarefree_part(p: UniPoly) -> UniPoly:
    """Monic p / gcd(p, p'): same roots, every multiplicity one."""
    if p.is_zero:
        raise ValueError("squarefree part of the zero polynomial")
    if p.degree == 0:
        return UNI_ONE
    g = poly_gcd(p, p.derivative())
    if g.degree == 0:
        return p.monic()
    return p.exact_div(g).monic()


def distinct_root_count(p: UniPoly) -> int:
    """Number of distinct complex roots (degree of the squarefree part)."""
    if p.is_zero:
        raise ValueError("root count of the zero polynomial")
    d = squarefree_part(p).degree
    assert d is not None
    return d


def _sylvester_matrix(a: Sequence[int], b: Sequence[int], m: int, n: int) -> list[list[int]]:
    """Classical Sylvester matrix for coefficient lists of formal degrees m, n.

    ``a``/``b`` are ascending with length m+1 / n+1 (leading zeros allowed:
    this is what makes the binary-form resultant see roots at infinity).
    """
    size = m + n
    rows = []
    ad = list(reversed(a))  # descending
    bd = list(reversed(b))
    for i in range(n):
        rows.append([0] * i + ad + [0] * (size - m - 1 - i))
    for i in range(m):
        rows.append([0] * i + bd + [0] * (size - n - 1 - i))
    return rows


# ---------------------------------------------------------------------------
# HomPoly2
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True, init=False)
class HomPoly2:
    """Homogeneous binary form of *formal* degree e: num[k] / den multiplies s^(e-k) t^k.

    ``num`` always has length e+1 — zero entries anywhere are meaningful (they
    encode roots at [1:0]/[0:1]), and the zero form of formal degree e is
    allowed and flagged by ``is_zero``.  The pair (num, den) is canonical as
    for :class:`UniPoly`: den > 0, gcd(content, den) = 1, den = 1 for a zero
    form.
    """

    degree: int
    num: tuple[int, ...]
    den: int

    def __init__(self, degree: int, coeffs: Iterable = ()):
        if degree < 0:
            raise ValueError("formal degree must be nonnegative")
        num, den = _integers(coeffs)
        if len(num) < degree + 1:
            num.extend([0] * (degree + 1 - len(num)))
        if len(num) != degree + 1:
            raise ValueError("coefficient count must be formal degree + 1")
        _set(self, "degree", degree)
        _set(self, "num", tuple(num))
        _set(self, "den", den)

    @property
    def coeffs(self) -> tuple[Rat, ...]:
        """The coefficients as Fractions, that of s^e first."""
        return _rats(self.num, self.den)

    @property
    def is_zero(self) -> bool:
        return not any(self.num)

    def __add__(self, other: "HomPoly2") -> "HomPoly2":
        if self.degree != other.degree:
            raise ValueError("formal degrees differ")
        return _hom(self.degree, *_sum(self.num, self.den, other.num, other.den))

    def __neg__(self) -> "HomPoly2":
        return _hom(self.degree, [-x for x in self.num], self.den)

    def __sub__(self, other: "HomPoly2") -> "HomPoly2":
        if self.degree != other.degree:
            raise ValueError("formal degrees differ")
        return _hom(self.degree, *_sum(self.num, self.den, other.num, other.den, -1))

    def __mul__(self, other):
        if isinstance(other, HomPoly2):
            return _hom(self.degree + other.degree, _kron_mul(self.num, other.num),
                        self.den * other.den)
        c = _as_rat(other)
        n = c.numerator
        return _hom(self.degree, [n * x for x in self.num], self.den * c.denominator)

    __rmul__ = __mul__

    def partial_s(self) -> "HomPoly2":
        e = self.degree
        if e == 0:
            return _hom(0, (0,), 1)
        num = self.num
        return _hom(e - 1, [(e - k) * num[k] for k in range(e)], self.den)

    def partial_t(self) -> "HomPoly2":
        e = self.degree
        if e == 0:
            return _hom(0, (0,), 1)
        num = self.num
        return _hom(e - 1, [k * num[k] for k in range(1, e + 1)], self.den)

    def evaluate(self, s: Rat, t: Rat) -> Rat:
        """The value at (s, t): Horner in T = tn sd with powers of S = sn td."""
        s, t = _as_rat(s), _as_rat(t)
        e = self.degree
        big_s = s.numerator * t.denominator
        big_t = t.numerator * s.denominator
        acc, power = 0, 1
        for k in range(e, -1, -1):
            acc = acc * big_t + self.num[k] * power
            power *= big_s
        return Fraction(acc, self.den * (s.denominator * t.denominator) ** e)

    def dehom(self) -> UniPoly:
        """Restriction to the chart s = 1 (same coefficient list, as t-poly)."""
        return _uni(self.num, self.den)

    def int_coeffs(self) -> tuple[list[int], int]:
        """(all e+1 integer coefficients, positive denominator D), as for UniPoly."""
        return list(self.num), self.den

    @property
    def s_valuation(self) -> int:
        """Multiplicity of the root [0:1] (s-adic valuation); form must be nonzero."""
        if self.is_zero:
            raise ValueError("valuation of the zero form")
        d = self.dehom().degree
        assert d is not None
        return self.degree - d

    def to_strs(self) -> list[str]:
        return [rat_to_str(c) for c in self.coeffs]

    @classmethod
    def from_strs(cls, degree: int, items: Sequence[str]) -> "HomPoly2":
        return cls(degree, tuple(rat_from_str(s) for s in items))

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        e = self.degree
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            sm, tm = e - k, k
            mono = "*".join(
                ([f"s^{sm}" if sm > 1 else "s"] if sm else [])
                + ([f"t^{tm}" if tm > 1 else "t"] if tm else [])
            ) or "1"
            if c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{rat_to_str(c)}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")


def _hom(degree: int, num: Sequence[int], den: int) -> HomPoly2:
    """The HomPoly2 num / den for e+1 integers num and den > 0."""
    num, den = _reduced(num, den)
    h = object.__new__(HomPoly2)
    _set(h, "degree", degree)
    _set(h, "num", tuple(num))
    _set(h, "den", den)
    return h


def hom_distinct_root_count(h: HomPoly2) -> int:
    """Distinct zeros of a nonzero binary form on P^1 (chart count + [0:1] if s | h)."""
    if h.is_zero:
        raise ValueError("root count of the zero form")
    d = h.dehom()
    cnt = distinct_root_count(d)
    if d.degree < h.degree:  # s divides h: the extra root at [0:1]
        cnt += 1
    return cnt


def hom_resultant(f: HomPoly2, g: HomPoly2) -> Rat:
    """Resultant of two binary forms w.r.t. their formal degrees.

    Vanishes exactly when the (nonzero) forms share a zero on P^1, including
    at [0:1] — which the actual-degree univariate resultant would miss.
    """
    if f.is_zero or g.is_zero:
        raise ValueError("resultant of a zero form")
    m, n = f.degree, g.degree
    if m == 0:
        return Fraction(f.num[0], f.den) ** n
    if n == 0:
        return Fraction(g.num[0], g.den) ** m
    a, da = f.int_coeffs()
    b, db = g.int_coeffs()
    det = _bareiss_det(_sylvester_matrix(a, b, m, n))
    return Fraction(det, da**n * db**m)


def hom_resultant_is_nonzero(f: HomPoly2, g: HomPoly2) -> bool:
    """Exact nonvanishing test with a modular shortcut (coprime mod p => nonzero)."""
    if f.is_zero or g.is_zero:
        raise ValueError("resultant of a zero form")
    m, n = f.degree, g.degree
    if m == 0 or n == 0:
        return hom_resultant(f, g) != 0
    a, b = f.dehom().num, g.dehom().num
    # with no common zero at [0:1] (one form has full chart degree), a constant
    # chart gcd mod p proves Res != 0 (module docstring); None or a positive
    # degree is inconclusive
    if (len(a) == m + 1 or len(b) == n + 1) and _mod_gcd(a, b, _PRIMES[0]) == [1]:
        return True
    return hom_resultant(f, g) != 0


def hom_discriminant(f: HomPoly2) -> Rat:
    """Resultant of the two partials; vanishes iff the form has a repeated zero on P^1."""
    if f.is_zero:
        raise ValueError("discriminant of the zero form")
    if f.degree == 0:
        raise ValueError("discriminant requires degree >= 1")
    if f.degree == 1:
        return Fraction(1)  # a single simple zero, never repeated
    fs, ft = f.partial_s(), f.partial_t()
    if fs.is_zero or ft.is_zero:
        # only c*t^e / c*s^e with e >= 2 get here: an e-fold zero
        return Fraction(0)
    return hom_resultant(fs, ft)


def hom_gcd(f: HomPoly2, g: HomPoly2) -> HomPoly2:
    """Greatest common divisor of two binary forms (monic chart part, exact s-power)."""
    if f.is_zero and g.is_zero:
        raise ValueError("gcd of two zero forms")
    if f.is_zero:
        return _hom_monicish(g)
    if g.is_zero:
        return _hom_monicish(f)
    u = poly_gcd(f.dehom(), g.dehom())
    sval = min(f.s_valuation, g.s_valuation)
    return _hom(len(u.num) - 1 + sval, u.num + (0,) * sval, u.den)


def _hom_monicish(f: HomPoly2) -> HomPoly2:
    d = f.dehom().monic()
    return _hom(f.degree, d.num + (0,) * (f.degree + 1 - len(d.num)), d.den)


def hom_gcd_many(forms: Sequence[HomPoly2]) -> HomPoly2:
    """gcd of a family of binary forms, ignoring zero members; all-zero is an error."""
    alive = [f for f in forms if not f.is_zero]
    if not alive:
        raise ValueError("gcd of an all-zero family")
    g = _hom_monicish(alive[0])
    for f in alive[1:]:
        if g.degree == 0:
            break
        g = hom_gcd(g, f)
    return g


# ---------------------------------------------------------------------------
# sums of fractions over a product tree
# ---------------------------------------------------------------------------

def product_tree(leaves: Sequence) -> list[list]:
    """The levels of a product tree over a nonempty list of polynomials.

    Level 0 is the leaves; each next level multiplies adjacent pairs and
    carries an odd last node up unchanged, so the last level holds one node,
    the product of every leaf.
    """
    levels = [list(leaves)]
    while len(level := levels[-1]) > 1:
        up = [level[k] * level[k + 1] for k in range(0, len(level) - 1, 2)]
        if len(level) % 2:
            up.append(level[-1])
        levels.append(up)
    return levels


def tree_sum(nums: Sequence, tree: list[list]):
    """sum_i nums[i] * prod_{k != i} d_k for the leaves d_k of ``tree``.

    That is the numerator of sum_i nums[i] / d_i over the root: adjacent
    fractions merge up the tree as a/b + c/d = (ad + cb)/(bd), with the
    denominators read from the tree and an odd last fraction carried up
    unchanged (the linear combination of von zur Gathen & Gerhard, *Modern
    Computer Algebra*, ch. 10).  Two products per merge, n - 1 merges, and
    the operands of each level are balanced.
    """
    for level in tree[:-1]:
        up = [nums[k] * level[k + 1] + nums[k + 1] * level[k]
              for k in range(0, len(nums) - 1, 2)]
        if len(nums) % 2:
            up.append(nums[-1])
        nums = up
    return nums[0]


# ---------------------------------------------------------------------------
# real-root isolation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IsolatingInterval:
    """Open rational interval certified to contain exactly one real root.

    Endpoints are never roots of the tracked polynomial; ``refinements`` counts
    the bisection steps performed since construction.

    ``_isolates`` is set only by ``sturm_isolate`` and ``refine_root``: it is
    the integer numerators ``num`` of the polynomial for which they proved
    that the interval holds exactly one root.  It takes no part in equality,
    and an interval built by hand, or by ``dataclasses.replace``, has none.
    """

    lo: Rat
    hi: Rat
    refinements: int = 0
    _isolates: tuple[int, ...] | None = field(default=None, init=False, compare=False,
                                              repr=False)

    def __post_init__(self):
        object.__setattr__(self, "lo", _as_rat(self.lo))
        object.__setattr__(self, "hi", _as_rat(self.hi))
        if not self.lo < self.hi:
            raise ValueError("empty interval")

    @property
    def width(self) -> Rat:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Rat:
        return (self.lo + self.hi) / 2


def _isolating(lo: Rat, hi: Rat, refinements: int, num: tuple[int, ...] | None
               ) -> IsolatingInterval:
    """IsolatingInterval(lo, hi, refinements) proved to hold exactly one root
    of the polynomial with numerators num (no proof when num is None)."""
    iv = IsolatingInterval(lo, hi, refinements)
    object.__setattr__(iv, "_isolates", num)
    return iv


def _eval_grid(c: Sequence[int], n: int, j: int) -> int:
    """2^(j (len(c) - 1)) * c(n / 2^j), an integer with the sign of c(n / 2^j).

    Horner on n with a running shift for the powers of 2^j.
    """
    acc = 0
    shift = 0
    for k in range(len(c) - 1, -1, -1):
        acc = acc * n + (c[k] << shift)
        shift += j
    return acc


def _eval_int(c: Sequence[int], x: Rat) -> int:
    """Sign-faithful evaluation: den^(len(c)-1) * c(x), an integer.

    den is x's (positive) denominator, so the result has the sign of c(x).
    Horner on num/den with a running power of den; when den is a power of two
    (every point bisection produces), the power is a running shift instead.
    """
    num, den = x.numerator, x.denominator
    if den & (den - 1) == 0:
        return _eval_grid(c, num, den.bit_length() - 1)
    acc = 0
    power = 1
    for k in range(len(c) - 1, -1, -1):
        acc = acc * num + c[k] * power
        power *= den
    return acc


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _taylor_shift(a: Sequence[int], c: int) -> list[int]:
    """Coefficients of a(x + c) for a nonempty integer list (Kronecker substitution).

    Every coefficient of a(x + c) has absolute value at most
    max|a| * (d + 1) * (1 + |c|)^d for d = len(a) - 1, so one Horner pass at
    the big integer X + c, X = 256**nb with that bound below X / 2, leaves
    the shifted coefficients as the signed base-X digits of the result.
    """
    d = len(a) - 1
    bound = max(map(abs, a)) * (d + 1) * (1 + abs(c)) ** d
    nb = (bound.bit_length() + 8) // 8
    k = 8 * nb
    acc = 0
    for x in reversed(a):
        acc = (acc << k) + acc * c + x
    return _kron_unpack(acc, nb, d + 1)


def _sign_changes(a: Sequence[int]) -> int:
    """Sign variations of a coefficient sequence, zeros skipped."""
    signs = [x > 0 for x in a if x]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _drop_twos(q: list[int]) -> list[int]:
    """q divided by the largest power of two dividing every coefficient."""
    t = 0
    for x in q:
        t |= x
    z = (t & -t).bit_length() - 1
    return [x >> z for x in q] if z > 0 else q


def _root_bound_exponent(a: Sequence[int]) -> int:
    """e >= 1 with |z| < 2^e for every complex root z of the integer polynomial a.

    Fujiwara's bound |z| <= 2 max_i |a[d-i] / a[d]|^(1/i), i = 1..d, with
    |a[d-i] / a[d]| < 2^t_i for t_i = bitlen a[d-i] - bitlen a[d] + 1.
    """
    d = len(a) - 1
    top = abs(a[d]).bit_length()
    e = 0
    for i in range(1, d + 1):
        if a[d - i]:
            t = abs(a[d - i]).bit_length() - top + 1
            e = max(e, -(-t // i))
    return e + 1


def _descartes_roots(a: list[int]) -> list[list[int]]:
    """Every real root of the squarefree integer polynomial a, as disjoint entries.

    Vincent-Collins-Akritas bisection (Collins & Akritas, SYMSAC 1976;
    Rouillier & Zimmermann, JCAM 2004) of the box (-2^e, 2^e) of
    :func:`_root_bound_exponent`; on a power-of-two box the integer
    coefficients shrink as the intervals do.  A node is the interval
    (-2^e + 2^(e+1) k / 2^j, -2^e + 2^(e+1) (k+1) / 2^j) with a positive
    multiple q of a pulled back to (0, 1).  The sign variations of
    (x + 1)^d q(1 / (x + 1)) bound the roots in (0, 1) and share their parity,
    so 0 discards the node and 1 certifies one root.  A bisection point that
    is a root is recorded as a point and divided out of the right half, so
    q(0) is never 0 and has a's sign just inside the left end (the sign of
    a' there when that end is a root).

    Each entry is [lo_num, lo_den, hi_num, hi_den, s] for lowest-terms ends:
    s = 0 for an exact root lo = hi, else the open interval (lo, hi) holds one
    root and a has sign s between lo and that root.  Every end of an interval
    is a non-root or an exact root listed as a point.
    """
    e = _root_bound_exponent(a)

    def at(k: int, j: int) -> tuple[int, int]:
        x = Fraction((2 * k - (1 << j)) << e, 1 << j)
        return x.numerator, x.denominator

    # the root node: a(2^e (y - 1)) at y = 2x is a(2^e (2x - 1)) on (0, 1)
    shifted = _taylor_shift([x << (e * i) for i, x in enumerate(a)], -1)
    roots: list[list[int]] = []
    stack = [(_drop_twos([x << i for i, x in enumerate(shifted)]), 0, 0)]
    while stack:
        q, k, j = stack.pop()
        v = _sign_changes(_taylor_shift(q[::-1], 1))
        if v == 0:
            continue
        if v == 1:
            roots.append([*at(k, j), *at(k + 1, j), _sign(q[0])])
            continue
        d = len(q) - 1
        left = [x << (d - i) for i, x in enumerate(q)]  # 2^d q(x / 2)
        right = _taylor_shift(left, 1)                   # 2^d q((x + 1) / 2)
        if not right[0]:
            m = at(2 * k + 1, j + 1)
            roots.append([*m, *m, 0])
            del right[0]
        stack.append((_drop_twos(left), 2 * k, j + 1))
        stack.append((_drop_twos(right), 2 * k + 1, j + 1))
    return roots


def _place(roots: list[list[int]], a: Sequence[int], x: Rat) -> bool:
    """Whether x is a root of a; first splits the one root interval around x.

    ``roots`` is the list of :func:`_descartes_roots`.  Only an interval that
    holds x strictly inside needs a sign: the sign of a at x, against the sign
    s just right of lo, puts its root on one side of x.  Afterwards no
    interval of ``roots`` has x strictly inside.
    """
    xn, xd = x.numerator, x.denominator
    for r in roots:
        ln, ld, hn, hd, s = r
        if not s:
            if ln == xn and ld == xd:
                return True
        elif ln * xd < xn * ld and xn * hd < hn * xd:
            sx = _sign(_eval_int(a, x))
            if not sx:
                r[:] = [xn, xd, xn, xd, 0]
                return True
            if sx == s:
                r[0], r[1] = xn, xd
            else:
                r[2], r[3] = xn, xd
            return False
    return False


def _count_between(roots: list[list[int]], lo: Rat, hi: Rat) -> int:
    """Roots in (lo, hi), for non-root ends already given to :func:`_place`."""
    an, ad, cn, cd = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    return sum(1 for ln, ld, hn, hd, _ in roots if an * ld <= ln * ad and hn * cd <= cn * hd)


def sturm_isolate(p: UniPoly) -> list[IsolatingInterval]:
    """Disjoint open rational intervals, one per real root of a squarefree p.

    The intervals are the leaves of a bisection of the Cauchy box (-b, b): an
    interval with one root is returned, one without is dropped, and any other
    is split at its midpoint, or around a window fenced symmetrically about
    the midpoint when the midpoint is itself a root.  This is the tree of
    Sturm's method, and its leaves depend only on where p's real roots lie;
    the counts come from one Descartes isolation of every root
    (:func:`_descartes_roots`), narrowed at the tree's points by ``_place``.
    Each interval carries that proof of one root for ``refine_root``.
    """
    if p.is_zero:
        raise ValueError("cannot isolate roots of the zero polynomial")
    if p.degree >= 1 and poly_gcd(p, p.derivative()).degree != 0:
        raise ValueError("apply squarefree_part first")
    if p.degree == 0:
        return []
    a = p.num
    roots = _descartes_roots(a)
    if not roots:
        return []
    # one more than the integer part of the Cauchy bound 1 + max |a_k / lc|
    b = Fraction(2 + max(map(abs, a)) // abs(a[-1]))
    # endpoints of the Cauchy box are non-roots by construction (|root| < b);
    # every point pushed on the stack has been placed, so the counts are exact
    _place(roots, a, -b)
    _place(roots, a, b)
    out: list[IsolatingInterval] = []
    stack = [(-b, b)]
    while stack:
        lo, hi = stack.pop()
        n = _count_between(roots, lo, hi)
        if n == 0:
            continue
        if n == 1:
            out.append(_isolating(lo, hi, 0, a))
            continue
        m = (lo + hi) / 2
        if _place(roots, a, m):
            # the midpoint is itself a root: fence it off symmetrically.
            # Termination: m is one of finitely many roots, so once delta is
            # below its distance to every other root, m - delta and m + delta
            # are non-roots and (m - delta, m + delta) holds m alone.
            delta = (hi - lo) / 4
            while (
                _place(roots, a, m - delta)
                or _place(roots, a, m + delta)
                or _count_between(roots, m - delta, m + delta) != 1
            ):
                delta /= 2
            out.append(_isolating(m - delta, m + delta, 0, a))
            stack.append((lo, m - delta))
            stack.append((m + delta, hi))
        else:
            stack.append((lo, m))
            stack.append((m, hi))
    out.sort(key=lambda iv: iv.lo)
    return out


def _bisect(c: Sequence[int], lo: Rat, hi: Rat, slo: int, width_bound: Rat) -> tuple[Rat, Rat]:
    """One bisection step on (lo, hi), which brackets one simple root of the
    integer polynomial c, with c of sign slo just right of lo.

    Returns the half that holds the root or, when the midpoint is the root, a
    symmetric window of width at most ``width_bound`` around it whose ends
    are not roots.  Either way c keeps the sign slo just right of the new lo.
    """
    m = (lo + hi) / 2
    sm = _sign(_eval_int(c, m))
    if sm == 0:
        eps = min(width_bound, hi - m, m - lo) / 2
        while _eval_int(c, m - eps) == 0 or _eval_int(c, m + eps) == 0:
            eps /= 2
        return m - eps, m + eps
    return (m, hi) if sm == slo else (lo, m)


def refine_root(p: UniPoly, iv: IsolatingInterval, width_bound: Rat) -> IsolatingInterval:
    """Narrow iv, which must bracket one simple root of p, to the width bound.

    The result is the interval plain bisection reaches.  Let K be the least
    k >= 0 with width(iv) / 2^k <= width_bound.  Bisection takes K steps and
    ends in the depth-K cell of the dyadic grid on iv that holds the root,
    with ``refinements`` raised by K.  When a midpoint of depth j is itself
    the root, it ends with the window ``_bisect`` fences around it instead,
    with ``refinements`` raised by j.

    Write lo = L / D and hi = (L + W) / D over a common denominator D.  The
    grid point (j, i) is x = (L 2^j + i W) / (D 2^j).  The sign of p there is
    that of the integer (D 2^j)^d c(x), for c the integer numerators of p of
    degree d, which ``_eval_grid`` computes from the coefficients of
    D^d c(x / D).  One depth deeper the same point's value is 2^d times as
    large, so the values at a cell's ends carry over with a shift.  No
    Fraction is built before the result.

    Inside an interval ``sturm_isolate`` proved to isolate a root of p, each
    step first tries a jump of Abbott's quadratic interval refinement (QIR;
    Abbott 2006; Kerber & Sagraloff, ISSAC 2011), snapped to the grid.  From
    the current cell, with end values f_lo and f_hi and a step s that starts
    at 2, take m = min(s, K - j) and the secant's cell
    floor(2^m f_lo / (f_lo - f_hi)) among the 2^m cells of depth j + m inside
    it.  Evaluate its ends; if both have the sign of f_lo, move one cell to
    the right, and if both have the sign of f_hi, one to the left, at one
    more evaluation.  A cell whose ends are nonzero with the signs of f_lo
    and f_hi is accepted and s doubles.  Otherwise s halves (down to 2) and
    one bisection step follows.

    Why an accepted cell is bisection's: the cells of one depth partition iv,
    a cell whose ends are nonzero and of opposite signs holds a root, and iv
    holds only one, so it is the cell bisection passes through at that depth.
    A root on the grid is first met by bisection as a midpoint of some depth
    j.  No cell of depth j or deeper has it inside, so every jump that deep is
    rejected, and the bisection step meets the root at the same midpoint.

    Without that proof iv may hold three or more roots.  Bisection's choice
    among them depends on the sign at every midpoint it visits, so only
    bisection steps are taken.
    """
    width_bound = _as_rat(width_bound)
    if width_bound <= 0:
        raise ValueError("width bound must be positive")
    c = p.num
    d = len(c) - 1
    D = lcm(iv.lo.denominator, iv.hi.denominator)
    n = iv.lo.numerator * (D // iv.lo.denominator)
    w = iv.hi.numerator * (D // iv.hi.denominator) - n
    cd = [ck * D ** (d - k) for k, ck in enumerate(c)]
    flo, fhi = _eval_grid(cd, n, 0), _eval_grid(cd, n + w, 0)
    slo = _sign(flo)
    if slo == 0 or _sign(fhi) != -slo:
        raise ValueError("invalid interval (sign conditions fail)")
    # K, from bit lengths: the least k >= 0 with w / (D 2^k) <= width_bound
    a, b = w * width_bound.denominator, width_bound.numerator * D
    depth = max(0, a.bit_length() - b.bit_length())
    while b << depth < a:
        depth += 1
    qir = iv._isolates == c

    def value(k: int, m: int) -> int:
        """The value at the k-th of the 2^m + 1 depth-(j + m) points of the cell."""
        if k == 0:
            return flo << d * m
        if k == 1 << m:
            return fhi << d * m
        return _eval_grid(cd, (n << m) + k * w, j + m)

    j, s = 0, 2
    while j < depth:
        if qir:
            m = min(s, depth - j)
            # flo and fhi are nonzero of opposite signs, so 0 <= k < 2^m
            k = (flo << m) // (flo - fhi)
            gl, gh = value(k, m), value(k + 1, m)
            if _sign(gl) == _sign(gh) == slo:
                k, gl, gh = k + 1, gh, value(k + 2, m)
            elif _sign(gl) == _sign(gh) == -slo:
                k, gl, gh = k - 1, value(k - 1, m), gl
            if _sign(gl) == slo and _sign(gh) == -slo:
                n, j, flo, fhi, s = (n << m) + k * w, j + m, gl, gh, 2 * s
                continue
            s = max(2, s // 2)
        fm = _eval_grid(cd, 2 * n + w, j + 1)
        if fm == 0:
            lo, hi = _bisect(c, Fraction(n, D << j), Fraction(n + w, D << j), slo, width_bound)
            return _isolating(lo, hi, iv.refinements + j + 1, c if qir else None)
        j += 1
        if _sign(fm) == slo:
            n, flo, fhi = 2 * n + w, fm, fhi << d
        else:
            n, flo, fhi = 2 * n, flo << d, fm
    return _isolating(Fraction(n, D << j), Fraction(n + w, D << j), iv.refinements + j,
                      c if qir else None)
