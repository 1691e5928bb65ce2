"""Arithmetic in the truncated multigraded ring Z[T1..Tn]/(T1^(h+1),..,Tn^(h+1)).

Multidegrees of multiprojective varieties live here: a class is a finite sum
of integer-coefficient monomials in the hyperplane classes T_i, with every
exponent capped at the factor dimension h (products silently drop any term
that overflows the cap — that is the ring structure, not a lossy shortcut).

Two renderings are provided: the explicit monomial sum, and the complementary
"dual shorthand" that abbreviates a class c*T^alpha as c*T^(h*1 - alpha) —
curve classes read e.g. "2*T1 + 2*T2" in the shorthand while being stored as
2*T1^(h-1)*T2^h + 2*T1^h*T2^(h-1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .exactnum import _int_to_str

Expo = tuple[int, ...]


@dataclass(frozen=True)
class MultiDeg:
    """Element of Z[T1..Tn]/(Ti^(h+1)): sparse map from exponent tuples to ints."""

    n: int
    h: int
    terms: Mapping[Expo, int]

    def __post_init__(self):
        if self.n < 1 or self.h < 0:
            raise ValueError("need n >= 1 factors and h >= 0")
        clean = {}
        for expo, c in self.terms.items():
            expo = tuple(int(a) for a in expo)
            if len(expo) != self.n:
                raise ValueError(f"exponent tuple {expo} has wrong length")
            if any(a < 0 or a > self.h for a in expo):
                raise ValueError(f"exponent tuple {expo} outside the truncation")
            if c:
                clean[expo] = clean.get(expo, 0) + int(c)
        object.__setattr__(self, "terms", {e: c for e, c in clean.items() if c})

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, n: int, h: int) -> "MultiDeg":
        return cls(n, h, {})

    @classmethod
    def one(cls, n: int, h: int) -> "MultiDeg":
        return cls(n, h, {(0,) * n: 1})

    @classmethod
    def variable(cls, i: int, n: int, h: int) -> "MultiDeg":
        """T_i (1-based)."""
        if not 1 <= i <= n:
            raise ValueError("variable index out of range")
        if h < 1:
            raise ValueError("T_i is truncated away when h = 0")
        e = [0] * n
        e[i - 1] = 1
        return cls(n, h, {tuple(e): 1})

    @classmethod
    def linear_form(cls, coeffs, h: int) -> "MultiDeg":
        """c1*T1 + ... + cn*Tn from a coefficient sequence."""
        cs = [int(c) for c in coeffs]
        n = len(cs)
        terms: dict[Expo, int] = {}
        for i, c in enumerate(cs):
            if c:
                e = [0] * n
                e[i] = 1
                terms[tuple(e)] = c
        return cls(n, h, terms)

    # -- ring ops ------------------------------------------------------------

    def _check(self, other: "MultiDeg"):
        if (self.n, self.h) != (other.n, other.h):
            raise ValueError("mismatched (n, h) rings")

    def __add__(self, other: "MultiDeg") -> "MultiDeg":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return MultiDeg(self.n, self.h, out)

    def __neg__(self) -> "MultiDeg":
        return MultiDeg(self.n, self.h, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MultiDeg") -> "MultiDeg":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return MultiDeg(self.n, self.h, {e: other * c for e, c in self.terms.items()})
        self._check(other)
        out: dict[Expo, int] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                if any(a > self.h for a in e):
                    continue  # truncated away
                out[e] = out.get(e, 0) + ca * cb
        return MultiDeg(self.n, self.h, out)

    __rmul__ = __mul__

    def coefficient(self, expo: Expo) -> int:
        return self.terms.get(tuple(expo), 0)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    # -- rendering -----------------------------------------------------------

    def _monomial_str(self, expo: Expo) -> str:
        factors = []
        for i, a in enumerate(expo, start=1):
            if a == 1:
                factors.append(f"T{i}")
            elif a > 1:
                factors.append(f"T{i}^{a}")
        return "*".join(factors)

    def render(self) -> str:
        """Deterministic text form: terms in descending lexicographic exponent order."""
        if not self.terms:
            return "0"
        parts = []
        for expo in sorted(self.terms, reverse=True):
            c = self.terms[expo]
            mono = self._monomial_str(expo)
            if not mono:
                parts.append(_int_to_str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{_int_to_str(c)}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")

    def render_dual(self) -> str:
        """Complementary-exponent shorthand: c*T^alpha shown as c*T^(h*1-alpha)."""
        if not self.terms:
            return "0"
        dual = MultiDeg(
            self.n,
            self.h,
            {tuple(self.h - a for a in e): c for e, c in self.terms.items()},
        )
        return dual.render()

    def __str__(self) -> str:
        return self.render()


# ---------------------------------------------------------------------------
# the specific classes the pipeline uses
# ---------------------------------------------------------------------------

def md_mul(a: MultiDeg, b: MultiDeg) -> MultiDeg:
    """Truncated product (the transversal-intersection rule for multidegrees)."""
    return a * b


def curve_multidegree(e: int, n: int, h: int) -> MultiDeg:
    """Class of a degree-e curve in (P^h)^n: sum_i e * T1^h...Tn^h / T_i."""
    if e < 1 or n < 1 or h < 1:
        raise ValueError("need e, n, h >= 1")
    terms: dict[Expo, int] = {}
    for i in range(n):
        expo = tuple(h - 1 if j == i else h for j in range(n))
        terms[expo] = e
    return MultiDeg(n, h, terms)


def isotropic_hypersurface_multidegree(n: int, h: int) -> MultiDeg:
    """Class of the isotropic hypersurface in (P^h)^n: sum_i 2*T_i.

    One hypersurface of multidegree (2,...,2); pairing against
    ``curve_multidegree(e, n, h)`` has top coefficient 2en, the
    Euler-characteristic count of curve-quadric intersection points.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if h < 2:
        raise ValueError("need h >= 2")
    terms: dict[Expo, int] = {}
    for i in range(n):
        expo = tuple(1 if j == i else 0 for j in range(n))
        terms[expo] = 2
    return MultiDeg(n, h, terms)


def point_multiview_multidegree(n: int) -> MultiDeg:
    """Class of the point multiview variety of n >= 2 planar views (h = 2 ring).

    Sum over integer tuples (a1..an) with max a_i = 2 and sum a_i = 3 of the
    monomial T1^(2-a1)***Tn^(2-an), each with coefficient 1.
    """
    if n < 2:
        raise ValueError("need n >= 2 views")
    h = 2
    terms: dict[Expo, int] = {}

    def rec(prefix: list[int], remaining: int):
        if len(prefix) == n:
            if remaining == 0 and max(prefix) == 2:
                expo = tuple(2 - a for a in prefix)
                terms[expo] = terms.get(expo, 0) + 1
            return
        for a in range(0, min(2, remaining) + 1):
            rec(prefix + [a], remaining - a)

    rec([], 3)
    return MultiDeg(n, h, terms)


def md_top_coefficient(a: MultiDeg) -> int:
    """Coefficient of T1^h * ... * Tn^h (0 if absent)."""
    return a.coefficient((a.h,) * a.n)
