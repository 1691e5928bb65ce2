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
  constant gcd mod p proves coprimality however small p is; the first
  prime, 2**17 - 1, is the smallest.  Otherwise, at that prime and each
  later one, the gcd mod p scaled by gcd(lc a, lc b) and read in the
  symmetric range lifts to a candidate h of the same degree; h is accepted
  only once it divides both operands exactly, which makes it the gcd
  (proof in ``poly_gcd``), so no coefficient bound chooses the prime.
  Binary forms share a zero on P^1 exactly when their gcd (``hom_gcd``)
  is not constant;
* binary-form resultants and discriminants from the subresultant chain on
  the one integer pseudo-division that also divides polynomials;
* Euclid mod a prime p on packed residues, for the gcd above: each
  operand's residues are packed into one Python int, one coefficient per
  w-bit slot (w = 8 * nb >= 2k + 6 for p = 2**k - 1, the byte packing of
  the product kernel), and an elimination row is a few whole-integer
  operations: read the top slot, add a multiple in [1, p - 1] of the
  shifted divisor, never subtract, so no slot borrows.
  Slots are reduced lazily, at each remainder and every 2**(w - 2k - 1)
  rows of a long quotient, which keeps every slot below 2**w (the overflow
  bound is in ``_mod_gcd``).  The primes are Mersenne primes so that one
  slot reduction serves them all, on every slot at once with two masks and
  a shift: x = (x & 2**k - 1) + (x >> k) (mod 2**k - 1).  This is Kronecker
  substitution applied to remaindering (von zur Gathen & Gerhard, Modern
  Computer Algebra, ch. 8);
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
from math import gcd as _int_gcd, lcm
from typing import Iterable, Sequence

Rat = Fraction

# ASCII digits only, as the schemas' rational pattern: without re.ASCII, \d
# matches every Unicode decimal digit, and int() reads "٣" as 3; matched
# with fullmatch, as "$" alone also matches before a trailing newline
_RAT_RE = re.compile(r"[+-]?\d+(/\d+)?", re.ASCII)

# The primes of the modular gcd: 2**k - 1 for every Mersenne exponent k from
# 17 to 216091, the one kind ``_mod_gcd`` reduces (by ``_mersenne_fold``,
# which needs k >= 14).  For p not dividing the integer leading coefficients,
# deg gcd mod p >= deg gcd over Q, which needs every modulus to be prime but
# not large: so the first prime, the smallest, proves coprimality in the
# narrowest slots (40 bits against 128 for 2**61 - 1).  An unlucky first
# prime, one that divides the resultant, costs one more Euclid at the next
# prime, never a wrong answer.  A common factor is lifted at the first prime
# above four times its height; the larger primes lift gcds whose
# coefficients have up to about 65,000 digits (``poly_gcd``).
# About 88 KB in all.
_PRIMES = tuple((1 << k) - 1 for k in (
    17, 19, 31, 61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217, 4253, 4423,
    9689, 9941, 11213, 19937, 21701, 23209, 44497, 86243, 110503, 132049, 216091))


def rat_from_str(s: str) -> Rat:
    """Parse a rational literal "a/b" or "a" (optional sign, decimal digits,
    no surrounding whitespace)."""
    if not isinstance(s, str) or not _RAT_RE.fullmatch(s):
        raise ValueError(f"not a rational literal: {s!r}")
    num, _, den = s.partition("/")
    d = _str_to_int(den) if den else 1
    if d == 0:
        raise ValueError(f"zero denominator in rational literal: {s!r}")
    return Fraction(_str_to_int(num), d)


def _rat_array(row) -> tuple[Rat, ...]:
    """The rationals of a JSON array of rational literals.  Raises
    ``TypeError`` on anything but a list: a string would otherwise be read
    character by character, "1000" as four literals."""
    if not isinstance(row, list):
        raise TypeError("expected an array of rational literals, "
                        f"not {type(row).__name__}")
    return tuple(rat_from_str(x) for x in row)


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


# One shared Fraction per small integer: seeded data points and the Fraction
# views of seeded curves and cameras hold mostly small integers, and would
# otherwise hold a separate 48-byte Fraction (and often an int) per entry.
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
    low, high = _fold_masks(p, nb, max(len(a), len(b)))
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
            return [x * inv % p for x in _unpack_residues(B, p, nb, db + 1)]
        A, B, da, db = B, A, db, dr
    return [1]


def _pack_residues(a: Sequence[int], p: int, nb: int) -> int:
    """sum (a[k] mod p) * 256**(nb*k): ``_kron_pack`` of residues, which are
    never negative."""
    return int.from_bytes(b"".join((x % p).to_bytes(nb, "little") for x in a), "little")


def _unpack_residues(x: int, p: int, nb: int, size: int) -> list[int]:
    """The residues mod p of the ``size`` nonnegative nb-byte slots of x,
    lowest first: ``_pack_residues`` read back, where a slot may also hold
    a sum or product not yet reduced mod p."""
    data = x.to_bytes(nb * size, "little")
    return [int.from_bytes(data[j:j + nb], "little") % p for j in range(0, nb * size, nb)]


def _slot_layout(p: int) -> tuple[int, int]:
    """(nb, R) of ``_mod_gcd`` for p = 2**k - 1: slots of
    w = 8 * nb bits, 2k + 6 <= w <= 2k + 13, and a fold every
    R = 2**(w - 2k - 1) rows of a quotient."""
    k = p.bit_length()
    nb = (2 * k + 13) // 8
    return nb, 1 << (8 * nb - 2 * k - 1)


def _fold_masks(p: int, nb: int, size: int) -> tuple[int, int]:
    """(low, high) of ``_mersenne_fold`` for p = 2**k - 1 over ``size`` slots
    of w = 8 * nb bits: the low k bits and the low w - k bits of each."""
    k = p.bit_length()
    return (int.from_bytes(p.to_bytes(nb, "little") * size, "little"),
            int.from_bytes(((1 << (8 * nb - k)) - 1).to_bytes(nb, "little") * size,
                           "little"))


def _mersenne_fold(x: int, k: int, low: int, high: int) -> int:
    """Two folds s -> (s & 2**k - 1) + (s >> k) on every slot of x at once.

    x is a sum of nonnegative slots s_j * 2**(w*j) with every s_j < 2**w,
    and ``low`` and ``high`` are the masks of ``_fold_masks``: the low k
    bits and the low w - k bits of each of ``size`` w-bit slots.  Slot j of
    x >> k holds bits k..w-1 of s_j below the low k bits of s_(j+1), and
    ``high`` keeps only the former, so the slots fold independently.  A
    fold keeps each slot's residue mod 2**k - 1, as 2**k = 1 there.  From a
    slot below 2**w = 2**(2k + e), the first fold leaves less than
    2**k + 2**(k+e) and the second less than 2**k + 2**(e+1) <= 2**(k+1),
    as e + 1 <= k: so any width 2k < w <= 3k - 1 folds, the layout of
    ``_mod_gcd`` (``_slot_layout``) among them.  Slots at or above ``size``
    meet no mask and are dropped: read as the coefficients of a polynomial
    in t = 2**w, x is reduced mod (p, t**size), and truncation mod t**size
    is a ring map, so products and sums may be folded this way after every
    step (``eddeg._kron_sum_mod``).
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


def _pseudo_divmod(a: Sequence[int], b: Sequence[int]) -> tuple[int, list[int], list[int]]:
    """(scale, quo, rem) with scale * a = quo * b + rem, for integer lists with
    len(a) >= len(b) and b[-1] != 0.  scale = b[-1]^(len(a) - len(b) + 1)
    makes every quotient step an exact division; rem has len(b) - 1 entries."""
    n, lc = len(b) - 1, b[-1]
    scale = lc ** (len(a) - n)
    rem = [x * scale for x in a]
    quo = [0] * (len(a) - n)
    for i in range(len(quo) - 1, -1, -1):
        quo[i] = c = rem[n + i] // lc
        for j in range(n + 1):
            rem[i + j] -= c * b[j]
    return scale, quo, rem[:n]


def _resultant(a: Sequence[int], b: Sequence[int]) -> int:
    """Res(a, b) for integer lists of their actual degrees: the subresultant
    chain (Collins, JACM 1967; Brown & Traub, JACM 1971; Cohen, GTM 138,
    Algorithm 3.3.7) on the primitive parts.  Every division by g h^delta is
    exact, and s collects the sign (-1)^(deg a deg b) of every swap."""
    da, db = len(a) - 1, len(b) - 1
    if not da or not db:
        return a[0] ** db * b[0] ** da
    ca, cb = _int_gcd(*a), _int_gcd(*b)
    t = ca ** db * cb ** da
    a, b = [x // ca for x in a], [x // cb for x in b]
    a, b, s = (b, a, (-1) ** (da * db)) if da < db else (a, b, 1)
    g = h = 1
    while len(b) > 1:
        delta = len(a) - len(b)
        s *= (-1) ** ((len(a) - 1) * (len(b) - 1))
        r = _pseudo_divmod(a, b)[2]
        while r and not r[-1]:
            r.pop()
        if not r:
            return 0
        div = g * h ** delta
        a, b, g = b, [x // div for x in r], b[-1]
        h = g ** delta // h ** (delta - 1) if delta else h
    da = len(a) - 1
    return s * t * b[0] ** da // h ** (da - 1)


# ---------------------------------------------------------------------------
# the integer representation shared by UniPoly and HomPoly2
# ---------------------------------------------------------------------------

_set = object.__setattr__


# One shared int per small value, as ``_SMALL_RATS``: CPython caches only
# -5..256, and constructors keep their numerators, a polynomial's
# coefficients or a camera's entries, for as long as what they build lives.
_SMALL_INTS = tuple(range(-64, 65))


def _integers(cs: Iterable) -> tuple[list[int], int]:
    """(integer list, D) with D * cs integral, D the lcm of the denominators
    of the rationals cs, so gcd(D, content) = 1; ints need no conversion.
    Raises ``TypeError`` on a string, which would otherwise be read
    character by character, "123" as 1, 2, 3 (as :func:`_rat_array`)."""
    if isinstance(cs, str):
        raise TypeError(f"expected a sequence of rationals, not the string {cs!r}")
    cs = list(cs)
    den = 1
    if any(type(c) is not int for c in cs):
        cs = [_as_rat(c) for c in cs]
        den = lcm(*(c.denominator for c in cs))
        cs = [c.numerator * (den // c.denominator) for c in cs]
    return [_SMALL_INTS[c + 64] if -64 <= c <= 64 else c for c in cs], den


def _rows(rows) -> list[list]:
    """The rows of a matrix as lists, entries unconverted.  Raises
    ``TypeError`` on a string for the rows or a row (as :func:`_integers`)."""
    rows = [rows] if isinstance(rows, str) else list(rows)
    if any(isinstance(r, str) for r in rows):
        raise TypeError("expected rows of rationals, not a string")
    return [list(r) for r in rows]


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
        if len(self.num) < len(b):
            return _UNI_ZERO, self
        scale, quo, rem = _pseudo_divmod(self.num, b)
        if scale < 0:
            scale, quo, rem = -scale, [-x for x in quo], [-x for x in rem]
        return (_uni([x * other.den for x in quo], scale * self.den),
                _uni(rem, scale * self.den))

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

        D is the least such denominator, as ``_integers`` gives it.
        """
        return list(self.num), self.den

    def to_strs(self) -> list[str]:
        return [rat_to_str(c) for c in self.coeffs]

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
    proves a and b coprime whatever the size of p; that is the common case,
    and it costs one Euclid mod the first prime, 2**17 - 1, the smallest the
    kernel folds and so the one with the narrowest slots.

    Once v is not constant, a and b are made primitive and
    gamma = gcd(lc a, lc b).  As lc g divides gamma, gamma * g / lc g is an
    integer polynomial, and at this prime and every later one the candidate
    h is the primitive part of gamma * v read in the symmetric range mod p
    (a smaller leading coefficient makes the pseudo-divisions below
    cheaper).  gamma is nonzero mod p, so deg h = deg v >= d; and once h
    divides a and b exactly, h divides g, so deg h <= d and h is g up to a
    unit.  Correctness rests on the division check alone, so any prime may
    lift, and no coefficient bound picks one.  The check runs only when
    every coefficient of gamma * v read so is below p / 4: a correct lift
    passes that at every prime above four times its height, so the gate
    only spares divisions that would fail.  An unlucky prime, at which
    deg v > d, costs one more Euclid at the next prime.  Past the last
    prime, which reads coefficients of about 65,000 digits, the gcd is
    refused with a ``ValueError``.
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
    gamma = 0  # until a common factor shows mod some prime
    for prime in _PRIMES:
        v = _mod_gcd(a, b, prime)
        if v is None:
            continue
        if len(v) == 1:
            return UNI_ONE
        if not gamma:
            a, b = _int_primitive(a), _int_primitive(b)
            gamma = _int_gcd(a[-1], b[-1])
        lifted = [c - prime if 2 * c > prime else c for c in (gamma * x % prime for x in v)]
        if all(4 * abs(c) < prime for c in lifted):
            h = _uni(_int_primitive(lifted), 1)
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
        """Restriction to the chart s = 1 (same coefficient list, as t-poly).
        Trailing zeros leave gcd(den, content) alone: no gcd is taken."""
        num, n = self.num, self.degree + 1
        while n and not num[n - 1]:
            n -= 1
        p = object.__new__(UniPoly)
        _set(p, "num", num[:n])
        _set(p, "den", self.den)
        return p

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


def _form(degree: int, chart: UniPoly) -> HomPoly2:
    """The form of formal degree ``degree`` >= deg chart whose chart at s = 1
    is ``chart``: its numerators padded with zeros, one per power of s.  The
    pair stays canonical, so no gcd is taken."""
    h = object.__new__(HomPoly2)
    _set(h, "degree", degree)
    _set(h, "num", chart.num + (0,) * (degree + 1 - len(chart.num)))
    _set(h, "den", chart.den)
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
    at [0:1] — which the actual-degree univariate resultant would miss.  From
    the chart resultant of actual degrees m' <= m, n' <= n: 0 if both drop,
    else (-1)^(n (m - m')) lc(g)^(m - m') Res_{m',n} or lc(f)^(n - n') Res_{m,n'}.
    """
    if f.is_zero or g.is_zero:
        raise ValueError("resultant of a zero form")
    m, n = f.degree, g.degree
    a, b = f.dehom().num, g.dehom().num
    drop_f, drop_g = m + 1 - len(a), n + 1 - len(b)
    if drop_f and drop_g:
        return Fraction(0)
    res = _resultant(a, b)
    if drop_f:
        res *= (-1) ** (n * drop_f) * b[-1] ** drop_f
    elif drop_g:
        res *= a[-1] ** drop_g
    return Fraction(res, f.den ** n * g.den ** m)


def hom_resultant_is_nonzero(f: HomPoly2, g: HomPoly2) -> bool:
    """Whether Res(f, g) != 0: the nonzero forms have a constant gcd."""
    if f.is_zero or g.is_zero:
        raise ValueError("resultant of a zero form")
    return hom_gcd(f, g).degree == 0


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
    """Greatest common divisor of two binary forms, not both zero: the monic
    chart gcd times the lower power of s.  For nonzero forms it is constant
    exactly when they share no zero on P^1."""
    a, b = f.dehom(), g.dehom()
    u = poly_gcd(a, b)  # refuses two zero forms
    if not a or not b:  # a zero form is divisible by every power of s
        return _form((f if a else g).degree, u)
    return _form(u.degree + min(f.degree - a.degree, g.degree - b.degree), u)


def hom_gcd_many(forms: Iterable[HomPoly2]) -> HomPoly2:
    """gcd of a family of binary forms, ignoring zero members; all-zero is an
    error.  The family is read lazily, up to the first constant gcd."""
    g = None
    for f in forms:
        if not f.is_zero:
            g = _form(f.degree, f.dehom().monic()) if g is None else hom_gcd(g, f)
            if g.degree == 0:
                break
    if g is None:
        raise ValueError("gcd of an all-zero family")
    return g


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


def _packed_shift(a: Sequence[int], c: int) -> tuple[int, int]:
    """(a(X + c), nb) for c = 1 or -1, a nonempty integer list and X = 256**nb.

    Every coefficient of a(x + c) has absolute value at most
    max|a| * (d + 1) * 2^d for d = len(a) - 1, and nb is chosen with that
    bound below X / 2, so the shifted coefficients are the signed base-X
    digits of a(X + c) (``_kron_unpack``).  Horner's step acc * (X + c) is
    a shift and one addition or subtraction.
    """
    d = len(a) - 1
    bound = max(map(abs, a)) * (d + 1) << d
    nb = (bound.bit_length() + 8) // 8
    k = 8 * nb
    acc = 0
    if c == 1:
        for x in reversed(a):
            acc = (acc << k) + acc + x
    else:
        for x in reversed(a):
            acc = (acc << k) - acc + x
    return acc, nb


def _taylor_shift(a: Sequence[int], c: int) -> list[int]:
    """Coefficients of a(x + c) for c = 1 or -1 and a nonempty integer list."""
    acc, nb = _packed_shift(a, c)
    return _kron_unpack(acc, nb, len(a))


def _sign_changes(a: Sequence[int]) -> int:
    """Sign variations of a coefficient sequence, zeros skipped."""
    signs = [x > 0 for x in a if x]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _shift_variations(q: Sequence[int]) -> int:
    """Sign variations of (x + 1)^d q(1 / (x + 1)), d = len(q) - 1, for q != 0.

    They are the sign variations of the Taylor shift by 1 of q reversed, whose
    coefficients are the signed digits b_i of v = acc + H for (acc, nb) of
    ``_packed_shift`` and H the top bit of every slot (the bias of
    ``_slot_bias``): slot i of v holds b_i + 2^(k-1), k = 8 nb, which has its
    top bit set exactly when b_i >= 0.  With T = v & H, the top bits of
    T ^ (T >> k) below the top slot mark the neighbours of different sign.
    That count skips no zero, so it is used only when no b_i is 0, that is
    when no slot of z = v ^ H is 0.  The SWAR test (z - L) & ~z & H, L the
    low bit of every slot, is nonzero exactly then: subtracting 1 from every
    slot borrows only out of a zero slot, and the lowest zero slot is the
    first, with no borrow coming in, to turn 0 into a set top bit, while a
    nonzero slot without a borrow coming in sets its top bit only if it was
    set.  Otherwise the digits are unpacked and counted with zeros skipped.

    A q whose coefficients all have one sign (zeros aside) gives 0 untested:
    its reverse and that reverse's shift have only coefficients of that sign.
    """
    if min(q) >= 0 or max(q) <= 0:
        return 0
    acc, nb = _packed_shift(q[::-1], 1)
    k = 8 * nb
    top = _slot_bias(nb, len(q))[1]
    v = acc + top
    z = v ^ top
    if (z - (top >> (k - 1))) & ~z & top:
        return _sign_changes(_kron_unpack(acc, nb, len(q)))
    t = v & top
    return ((t ^ (t >> k)) & (top >> k)).bit_count()


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
    multiple q of a pulled back to (0, 1).  Its test v is the number of sign
    variations of (x + 1)^d q(1 / (x + 1)) (:func:`_shift_variations`, read
    from the packed Taylor shift), which bounds the roots in (0, 1) and
    shares their parity, so 0 discards the node and 1 certifies one root.  A
    bisection point that is a root is recorded as a point and divided out of
    the right half, so q(0) is never 0 and has a's sign just inside the left
    end (the sign of a' there when that end is a root).

    A node with v >= 2 splits into left = 2^d q(x / 2) and
    right = left(x + 1), whose tests are taken when they are made.  The
    midpoint is a root exactly when left(1) = sum(left) is 0.  Two rules spare
    work without changing a test:

    * A q whose coefficients all have one sign gets 0 without a shift: the
      coefficients of (x + 1)^d q(1 / (x + 1)) then all have that sign too.
    * Subadditivity (Eigenwillig, Sharma & Yap, ISSAC 2006): the left and
      right tests and the midpoint, when it is a root, sum to at most v.  For
      disjoint open subintervals the tests sum to at most v.  Around a root m
      take (m - t, m + t), whose test is at least 1 as it holds m.  For small
      t, the transformed coefficients of (lo, m - t) and (m + t, hi) are
      close to those of (lo, m) and (m, hi), where m's root makes one end
      coefficient 0: the nonzero ones keep their signs, and a zero turning
      nonzero adds variations and removes none, so those tests are at least
      the tests of (lo, m) and (m, hi).  (Dividing the root at 0 out of the
      right half changes neither its transformed polynomial nor its test.)
      So when the left test plus [midpoint is a root] is already v, the
      right half has test 0 and holds no root: it is neither shifted nor
      tested.

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
    q = _drop_twos([x << i for i, x in enumerate(shifted)])
    roots: list[list[int]] = []
    stack = [(q, 0, 0, _shift_variations(q))]
    while stack:
        q, k, j, v = stack.pop()
        if v == 0:
            continue
        if v == 1:
            roots.append([*at(k, j), *at(k + 1, j), _sign(q[0])])
            continue
        d = len(q) - 1
        left = [x << (d - i) for i, x in enumerate(q)]  # 2^d q(x / 2)
        mid = sum(left) == 0                             # left(1) = 2^d q(1/2)
        if mid:
            m = at(2 * k + 1, j + 1)
            roots.append([*m, *m, 0])
        q_left = _drop_twos(left)
        v_left = _shift_variations(q_left)
        stack.append((q_left, 2 * k, j + 1, v_left))
        if v_left + mid < v:                             # else no root right
            right = _taylor_shift(left, 1)               # 2^d q((x + 1) / 2)
            if mid:
                del right[0]
            right = _drop_twos(right)
            stack.append((right, 2 * k + 1, j + 1, _shift_variations(right)))
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
