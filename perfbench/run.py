#!/usr/bin/env python3
"""edcurve benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--workload all`` runs every workload in turn.  Workloads are defined in
``workloads.py`` and described in ``README.md``.

``--trace 0`` runs a closed loop with one client for ``--seconds`` seconds in
this process and prints the end-to-end metrics, with times normalised to the
reference host speed (see ``REFERENCE_S``).  ``--trace 1`` runs a fixed
number of ops three times, each in a fresh interpreter: traced, untraced,
traced, with spans around every call into the layers, and prints the per-layer
metrics, the tracing overhead and any count that differs between the two
traced passes.  Either way the last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the full record,
with the environment, is written to ``perfbench/out/``.  The exit code is 1 if
an op failed verification, and 2 (with no result) if set-up failed.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 0
SETUP_SAMPLES = 5  # per side of the timed loop
CHILD_TIMEOUT_S = 170

# The host's CPU speed switches between states up to about 1.9x apart that
# last from seconds to minutes, so a run often spans several of them.  Each op
# is therefore normalised by a fixed reference kernel that uses no edcurve
# code, timed just before and just after it: the op's time is multiplied by
# REFERENCE_S over the mean of those two kernel times.  A set-up probe times
# the kernel in its own interpreter instead.  The kernel mixes the kinds of
# work the workloads do (Fraction products with small and with big integers,
# Horner evaluation at dyadic points, plain interpreter work), because each
# kind slows by its own amount when the host is slow.  REFERENCE_S is about
# the kernel's time on this host in its fast state; the raw values are kept in
# the record.
REFERENCE_S = 0.0085
REFERENCE_EVERY_S = 0.2
_rng = random.Random(1)


def _fractions(n: int, num_bits: int, den_bits: int) -> list[Fraction]:
    return [Fraction(_rng.randint(-2**num_bits, 2**num_bits), _rng.randint(1, 2**den_bits))
            for _ in range(n)]


_SMALL = (_fractions(24, 40, 20), _fractions(24, 40, 20))
_BIG = (_fractions(12, 300, 200), _fractions(12, 300, 200))
_HORNER = (_fractions(47, 60, 30), [Fraction(_rng.randrange(1, 2**40, 2), 2**40) for _ in range(4)])


def _product(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _horner(coeffs, points):
    for x in points:
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * x + c
    return acc


def _interpreter():
    return json.dumps({str(i): [i, 2 * i, (i, "x")] for i in range(3000)})


_KERNEL_PARTS = ((_product, _SMALL), (_product, _BIG), (_horner, _HORNER), (_interpreter, ()))


def reference_kernel() -> float:
    """Summed wall time of the kernel's parts, each the faster of two runs."""
    total = 0.0
    for part, args in _KERNEL_PARTS:
        best = float("inf")
        for _ in range(2):
            t0 = time.perf_counter()
            part(*args)
            best = min(best, time.perf_counter() - t0)
        total += best
    return total


class HostSpeed:
    """Reference-kernel samples taken between the timed intervals of a run."""

    def __init__(self):
        self.ends: list[float] = []
        self.kernel_s: list[float] = []

    def sample(self) -> None:
        self.kernel_s.append(reference_kernel())
        self.ends.append(time.perf_counter())

    def at(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean kernel time of the last sample before
        ``start`` and the first after ``end``; below 1 on a slow host."""
        before = bisect.bisect_right(self.ends, start) - 1
        after = bisect.bisect_left(self.ends, end)
        return REFERENCE_S / ((self.kernel_s[before] + self.kernel_s[after]) / 2)


class SetupError(Exception):
    pass


def import_program():
    """Import edcurve from this checkout's src/, never from elsewhere."""
    if not (SRC / "edcurve" / "__init__.py").is_file():
        raise SetupError(f"no edcurve sources under {SRC}")
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)  # the CLI echoes fixture paths, so digests need a fixed cwd
    import edcurve
    if Path(edcurve.__file__).resolve().parent != SRC / "edcurve":
        raise SetupError(f"imported edcurve from {edcurve.__file__}, not from {SRC}")


def setup(name: str, seed: int):
    """Everything between a fresh interpreter and the first timed op: import
    edcurve, load the fixtures and digests, build the input pool."""
    import_program()
    from workloads import BEZIER_FIXTURES, WORKLOADS
    if name not in WORKLOADS:
        raise SetupError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    for fixture in BEZIER_FIXTURES:
        json.loads((ROOT / fixture).read_text())
    digests = json.loads(DIGESTS.read_text())
    wl = WORKLOADS[name]
    inputs = [wl.build(seed, k) for k in range(wl.pool)]
    expected = digests["workloads"][name] if seed == digests["seed"] else []
    return wl, inputs, expected


class Runner:
    """Runs and verifies ops; a failure is logged and counted, never raised."""

    def __init__(self, wl, seed, inputs, expected, tracer=None):
        self.wl, self.seed, self.inputs, self.expected = wl, seed, inputs, expected
        self.tracer = tracer
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.failures: list[str] = []

    def op(self, k: int) -> None:
        from workloads import VerificationError, sha256
        tracer = self.tracer
        if k == len(self.inputs):
            self.inputs.append(self.wl.build(self.seed, k))
        inp = self.inputs[k]
        out, error = None, None
        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter()
        self.starts.append(t0)
        try:
            if tracer is not None:
                out = tracer.run_op(k, self.wl.run, inp)
            else:
                out = self.wl.run(inp)
        except Exception as exc:  # any exception is a failed op, not a crash
            error = f"{type(exc).__name__}: {exc}"
        self.durations.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.active = False
        if error is None:
            try:
                self.wl.check(inp, out)
                if k < len(self.expected) and sha256(self.wl.record(out)) != self.expected[k]:
                    raise VerificationError("output digest differs from the recorded one")
                if tracer is not None:
                    tracer.cells += self.wl.cells(out)
            except VerificationError as exc:
                error = f"wrong output: {exc}"
        if error is not None:
            self.failures.append(f"op {k}: {error}")
            print(f"perfbench: {self.wl.name} op {k} failed: {error}", file=sys.stderr)


def environment(seed: int) -> dict:
    sha = "unknown"
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        sha = (ROOT / ".git" / head[5:]).read_text().strip() if head.startswith("ref: ") else head
    except OSError:
        pass
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(), "git_sha": sha, "nproc": os.cpu_count(),
            "cpu": cpu, "seed": seed}


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def child(args, *extra) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)


def finish(args, result: dict, detail: dict) -> int:
    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "trace": args.trace,
              "env": environment(args.seed), **detail, "result": result}
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    for name, m in result["metrics"].items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    print(f"env: {json.dumps(record['env'], sort_keys=True)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_end_to_end(args) -> int:
    wl, inputs, expected = setup(args.workload, args.seed)
    setups = []  # (raw seconds, host speed) of each set-up probe

    def probe_setup():
        # a probe is a child interpreter, which may run on the other CPU, so
        # it times the reference kernel itself, right after its set-up
        for _ in range(SETUP_SAMPLES):
            t0 = time.perf_counter()
            proc = child(args, "--setup-only")
            wall = time.perf_counter() - t0
            if proc.returncode != 0:
                raise SetupError(f"set-up child failed: {proc.stderr.strip()}")
            probe = json.loads(proc.stdout.strip().splitlines()[-1])
            setups.append((wall - probe["kernel_wall_s"], REFERENCE_S / probe["kernel_s"]))

    # half the set-up probes before the loop and half after, so that their
    # median sees the machine over the whole run, not one moment of it
    probe_setup()
    host = HostSpeed()
    host.sample()
    runner = Runner(wl, args.seed, inputs, expected)
    deadline = time.perf_counter() + args.seconds
    k = 0
    while k == 0 or time.perf_counter() < deadline:
        if time.perf_counter() - host.ends[-1] >= REFERENCE_EVERY_S:
            host.sample()
        runner.op(k)
        k += 1
    host.sample()
    probe_setup()

    n = len(runner.durations)
    failed = len(runner.failures)
    tail_index = math.ceil(round(wl.tail_percentile * n / 100, 9)) - 1  # nearest rank

    def summary(setup_s, op_s):
        times = sorted(op_s)
        return {
            "setup_s": statistics.median(setup_s),
            "ops_per_s": (n - failed) / sum(times),
            "op_p50_s": statistics.median(times),
            "op_tail_s": times[tail_index],
        }

    speeds = [host.at(t, t + d) for t, d in zip(runner.starts, runner.durations)]
    raw = summary([d for d, _ in setups], runner.durations)
    norm = summary([d * speed for d, speed in setups],
                   [d * speed for d, speed in zip(runner.durations, speeds)])
    units = {"setup_s": "s", "ops_per_s": "ops/s", "op_p50_s": "s", "op_tail_s": "s"}
    metrics = {m: metric(v, units[m]) for m, v in norm.items()}
    metrics["peak_rss_mb"] = metric(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
    result = {"correct": failed == 0, "attempted": n, "failed": failed, "metrics": metrics}
    detail = {
        "raw_metrics": raw,
        "host_speed": statistics.median(speeds),
        "op_host_speeds": speeds,
        "reference_samples_s": host.kernel_s,
        "setup_samples_s": [d for d, _ in setups],
        "setup_host_speeds": [speed for _, speed in setups],
        "op_tail_percentile": wl.tail_percentile,
        "op_count": n,
        "ops_beyond_tail": n - tail_index - 1,
        "failed_ratio": failed / n,
        "failures": runner.failures,
        "op_durations_s": runner.durations,
        "digests_checked": min(n, len(expected)),
    }
    print(f"{args.workload}: {n} ops, {failed} failed; op_tail_s is p{wl.tail_percentile} of {n},"
          f" {detail['ops_beyond_tail']} ops beyond it; {detail['digests_checked']} digests"
          f" checked; median host speed {detail['host_speed']:.3f} of the reference; raw: "
          + ", ".join(f"{m} {v:.6g}" for m, v in raw.items()))
    return finish(args, result, detail)


def run_pass(args) -> int:
    """One pass of a traced run, in its own interpreter."""
    wl, inputs, expected = setup(args.workload, args.seed)
    tracer = None
    if args.run_pass == "traced":
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    runner = Runner(wl, args.seed, inputs, expected, tracer)
    for k in range(args.ops):
        runner.op(k)
    out = {"attempted": args.ops, "failed": len(runner.failures),
           "op_wall_s": sum(runner.durations)}
    if tracer is not None:
        tracer.uninstall()
        out.update(tracer.summary())
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}-pass{args.pass_index}.tsv")
    print(json.dumps(out))
    return 0


def run_traced(args) -> int:
    wl, _, _ = setup(args.workload, args.seed)
    from spans import COUNT_METRICS, FUNCTIONS
    ops = max(1, round(args.seconds * wl.trace_ops))
    passes = []
    # the untraced pass sits between the traced ones, so that a drift in
    # machine speed cancels from the overhead
    for i, kind in enumerate(("traced", "plain", "traced")):
        proc = child(args, "--pass", kind, "--pass-index", str(i), "--ops", str(ops))
        if proc.returncode != 0:
            raise SetupError(f"{kind} pass failed: {proc.stderr.strip()}")
        sys.stderr.write(proc.stderr)
        passes.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    plain, traced = passes[1], passes[::2]
    mismatches = [m for m in COUNT_METRICS if traced[0]["counts"][m] != traced[1]["counts"][m]]
    for m in mismatches:
        print(f"perfbench: count {m} differs between traced passes: "
              f"{traced[0]['counts'][m]} vs {traced[1]['counts'][m]}", file=sys.stderr)
    wall = statistics.fmean(p["op_wall_s"] for p in traced)
    metrics = {}
    for f in FUNCTIONS:
        metrics[f"{f}.calls"] = metric(traced[0]["counts"][f"{f}.calls"], "count")
        share = statistics.fmean(p["self_s"][f] for p in traced) / wall
        metrics[f"{f}.self_share"] = metric(share, "1")
    for m in COUNT_METRICS[len(FUNCTIONS):]:
        unit = "1" if m.endswith(("_ratio", "_per_count", "_per_cell")) else "count"
        metrics[m] = metric(traced[0]["counts"][m], unit)
    metrics["trace.op_wall_s"] = metric(wall, "s")
    metrics["trace.overhead_s"] = metric(wall - plain["op_wall_s"], "s")
    metrics["trace.overhead_ratio"] = metric(wall / plain["op_wall_s"] - 1, "1")
    metrics["trace.count_mismatches"] = metric(len(mismatches), "count")
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    self_s = {f: statistics.fmean(p["self_s"][f] for p in traced) for f in traced[0]["self_s"]}
    top = sorted(self_s.items(), key=lambda kv: -kv[1])[:8]
    print(f"{args.workload}: {ops} ops per pass; largest self-time shares: "
          + ", ".join(f"{f} {s / wall:.1%}" for f, s in top))
    detail = {"ops_per_pass": ops, "passes": passes, "count_mismatches": mismatches,
              "self_s": self_s}
    return finish(args, result, detail)


def run_all(args) -> int:
    """Every workload, each in its own interpreter so that peak_rss_mb stays
    per workload; metrics are prefixed with the workload's name."""
    import_program()
    from workloads import WORKLOADS
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            raise SetupError(f"{name} exited with {proc.returncode}")
        print("\n".join(f"{name}: {line}" for line in lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{m}": v for m, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="a workload name, or all")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: the children this script starts
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--pass", dest="run_pass", choices=("plain", "traced"), help=argparse.SUPPRESS)
    p.add_argument("--pass-index", type=int, default=0, help=argparse.SUPPRESS)
    p.add_argument("--ops", type=int, default=1, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    try:
        if args.setup_only:
            setup(args.workload, args.seed)
            t0 = time.perf_counter()
            kernel_s = reference_kernel()
            print(json.dumps({"kernel_s": kernel_s, "kernel_wall_s": time.perf_counter() - t0}))
            return 0
        if args.run_pass:
            return run_pass(args)
        if args.workload == "all":
            return run_all(args)
        return run_traced(args) if args.trace else run_end_to_end(args)
    except (SetupError, OSError, ImportError, subprocess.SubprocessError) as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
