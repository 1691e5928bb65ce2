"""The benchmark's workloads: seeded inputs, one operation each, and its check.

Every input is derived from the benchmark seed through
``edcurve.cli.derive_seed``; the program only ever receives the generated
curves, cameras and data points, or a CLI ``--seed``.  Program functions are
called through their modules (``eddeg.triangulate``, ``cli.main``) so that the
tracer, which rebinds module attributes, sees every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction

from edcurve import cli, eddeg, scene

BEZIER_FIXTURES = ("tests/data/bez1.json", "tests/data/bez2.json")


class VerificationError(Exception):
    """The op ran but its output is wrong; the op counts as failed."""


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# generic cells
# ---------------------------------------------------------------------------

# Integer cameras with entries in [-10, 10] put a chart zero at a small
# rational parameter (0, infinity, +-1, ...) with probability about 1/50 per
# camera and point, so an 8-camera cell has two charts sharing a zero about
# once in 30 draws.  Such a cell is not generic: its certificate fails, its
# count is not 3en-2, and its squarefree part takes the exact integer gcd
# path, which runs for minutes at (e, n) = (6, 8).  The generators redraw the
# cameras until the charts pass this independent mod-p test, which is exactly
# the certificate's discriminant and pairwise-resultant condition.
_P = (1 << 61) - 1


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _gcd_degree_mod_p(a: list[int], b: list[int]) -> int:
    a = _trim([x % _P for x in a])
    b = _trim([x % _P for x in b])
    while b:
        inv = pow(b[-1], -1, _P)
        while len(a) >= len(b):
            f = a[-1] * inv % _P
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] = (a[shift + i] - f * c) % _P
            _trim(a)
        a, b = b, a
    return len(a) - 1


def _chart(camera, curve) -> list[int]:
    """Integer coefficients of the camera's first row applied to the curve."""
    row = [int(c) for c in camera.entries[0]]
    return [
        sum(r * int(coord.coeffs[k]) for r, coord in zip(row, curve.coords))
        for k in range(curve.e + 1)
    ]


def charts_generic(curve, cameras) -> bool:
    """Every chart form is squarefree on P^1 and no two share a zero."""
    e = curve.e
    qs = [_chart(c, curve) for c in cameras]
    for q in qs:
        if not any(q) or q[e] == q[e - 1] == 0:
            return False
        dq = [k * c for k, c in enumerate(q)][1:]
        if _gcd_degree_mod_p(q, dq) != 0:
            return False
    for i in range(len(qs)):
        for j in range(i + 1, len(qs)):
            if qs[i][e] == qs[j][e] == 0 or _gcd_degree_mod_p(qs[i], qs[j]) != 0:
                return False
    return True


@dataclass(frozen=True)
class Cell:
    curve: object
    arr: object


def generic_cell(seed: int, label: str, e: int, N: int, n: int, h: int) -> Cell:
    curve = scene.random_curve(cli.derive_seed(seed, f"{label}:curve"), e, N)
    attempt = 0
    while True:
        cams = tuple(
            scene.random_camera(cli.derive_seed(seed, f"{label}:a{attempt}:cam{i}"), h, N)
            for i in range(n)
        )
        if charts_generic(curve, cams):
            return Cell(curve, scene.Arrangement(cams))
        attempt += 1


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    """One named workload.  ``build`` makes op k's input from the seed, ``run``
    is the timed call into the program, ``check`` raises VerificationError on
    a wrong output, and ``record`` is the JSON text whose SHA-256 is compared
    against the digests recorded on the default seed."""

    name: str
    pool: int          # inputs built during set-up; later ones are built lazily
    trace_ops: float   # ops per second of --seconds in each traced-run pass
    # op_tail_s percentile: about the highest with at least 10 ops beyond it in a
    # run of BENCHMARK.json's run_seconds while the host is in its slow state.
    # It is fixed, not derived from each run's op count, so that a slower
    # program is not measured at a lower percentile.
    tail_percentile: float

    def build(self, seed: int, k: int):
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> None:
        raise NotImplementedError

    def record(self, out) -> str:
        raise NotImplementedError

    def cells(self, out) -> int:
        """Cells the op emitted (CLI rows); 0 where the op is not a CLI call."""
        return 0


class CountLarge(Workload):
    """Certified count of a fresh generic (e, n, h) = (6, 8, 3) cell in P^5,
    then the Euler cross-check: polynomial products, modular resultants and
    gcds; no root isolation."""

    name = "count-large"
    pool = 16
    trace_ops = 0.35
    tail_percentile = 55
    E, N, NCAM, H = 6, 5, 8, 3

    def build(self, seed, k):
        label = f"{self.name}:{k}"
        cell = generic_cell(seed, label, self.E, self.N, self.NCAM, self.H)
        return cell, cli.derive_seed(seed, f"{label}:data"), cli.derive_seed(seed, f"{label}:beta")

    def run(self, inp):
        cell, data_seed, beta_seed = inp
        rep = eddeg.ed_degree_affine(cell.curve, cell.arr, data_seed)
        cross = eddeg.euler_cross_check(cell.curve, cell.arr, beta_seed)
        return rep, cross

    def check(self, inp, out):
        rep, cross = out
        expected = 3 * self.E * self.NCAM - 2
        if not rep.certificate.passes:
            raise VerificationError(f"certificate fails: {list(rep.certificate.reasons)}")
        if not rep.ed_degree == expected == cross:
            raise VerificationError(
                f"count {rep.ed_degree}, cross-check {cross}, expected {expected}")

    def record(self, out):
        rep, cross = out
        return json.dumps({**rep.to_json_dict(), "cross_check": cross}, sort_keys=True)


class CliSmallCells(Workload):
    """One in-process ``edcurve ... --json`` call per cell, cycling through the
    default sweep grid, the l3 grid and the scroll fixtures in a seeded order."""

    name = "cli-small-cells"
    pool = 0
    trace_ops = 8.0
    tail_percentile = 97.5
    MIX = (
        [("sweep", "--e", str(e), "--n", str(n), "--h", str(h))
         for e in range(1, 5) for n in range(1, 5) for h in (2, 3)]
        + [("l3", "--h", str(h), "--n", str(n)) for h in (2, 3) for n in range(1, 6)]
        + [("scroll", "--bezier1", BEZIER_FIXTURES[0], "--bezier2", BEZIER_FIXTURES[1],
            "--n", str(n)) for n in range(1, 4)]
    )

    def build(self, seed, k):
        cycle, pos = divmod(k, len(self.MIX))
        order = list(range(len(self.MIX)))
        random.Random(cli.derive_seed(seed, f"{self.name}:cycle{cycle}")).shuffle(order)
        argv = list(self.MIX[order[pos]])
        return argv + ["--seed", str(cli.derive_seed(seed, f"{self.name}:{k}")), "--json"]

    def run(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def check(self, argv, out):
        code, text, err = out
        if code != 0:
            raise VerificationError(f"exit {code}: {err.strip()}")
        try:
            results = json.loads(text)["results"]
        except (ValueError, KeyError) as exc:
            raise VerificationError(f"bad JSON envelope: {exc}")
        if not results.get("all_certified_match", results.get("all_match")):
            raise VerificationError("certified counts do not match the closed form")

    def record(self, out):
        return out[1]

    def cells(self, out):
        results = json.loads(out[1])["results"]
        return len(results.get("cells", results.get("rows", ())))


class TriangulateTight(Workload):
    """Certified triangulation of a generic degree-4 space curve seen by 4
    cameras (h = 2) with width bound 1/10^12: Sturm isolation, bisection and
    exact evaluation; the count pipeline runs only once, for the reduction."""

    name = "triangulate-tight"
    pool = 32
    trace_ops = 0.6
    tail_percentile = 75
    E, N, NCAM, H = 4, 3, 4, 2
    WIDTH = Fraction(1, 10**12)

    def build(self, seed, k):
        label = f"{self.name}:{k}"
        cell = generic_cell(seed, label, self.E, self.N, self.NCAM, self.H)
        u = eddeg.random_data_point(cli.derive_seed(seed, f"{label}:data"), self.NCAM, self.H)
        return cell, u

    def run(self, inp):
        cell, u = inp
        return eddeg.triangulate(cell.curve, cell.arr, u, self.WIDTH)

    def check(self, inp, res):
        cell, u = inp
        ivs = res.critical_parameters
        if len(ivs) > 3 * self.E * self.NCAM - 2:
            raise VerificationError(f"{len(ivs)} real critical points exceed 3en-2")
        if res.no_finite_minimizer:
            if ivs:
                raise VerificationError("intervals reported without a finite minimizer")
            return
        if res.min_lower_bound > res.distances[res.argmin_index]:
            raise VerificationError("certified lower bound exceeds the argmin distance")
        reduced = eddeg.reduce_critical_polynomial(cell.curve, cell.arr, u).reduced
        for iv in ivs:
            if iv.width > self.WIDTH:
                raise VerificationError(f"interval wider than the bound: {iv.width}")
            lo, hi = reduced.evaluate(iv.lo), reduced.evaluate(iv.hi)
            if not lo * hi < 0:
                raise VerificationError(f"no sign change on [{iv.lo}, {iv.hi}]")

    def record(self, res):
        return json.dumps(res.to_json_dict(), sort_keys=True)


WORKLOADS = {w.name: w for w in (CountLarge(), CliSmallCells(), TriangulateTight())}
