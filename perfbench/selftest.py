#!/usr/bin/env python3
"""Smoke self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload briefly, untraced and traced, and checks that each metric
named in BENCHMARK.json appears with its unit; checks that verification
rejects corrupted outputs (a wrong count, a false match flag, an interval
without a sign change, a changed digest); and checks that the benchmark
refuses to run, without printing a result, where the program's sources are
missing.  Exits 0 when every check passes.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import run

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
BENCH_WORKLOADS = [w["name"] for w in BENCH["workloads"]]
SEED = 3


class SelfTestError(Exception):
    pass


def check(ok: bool, message) -> None:
    if not ok:
        raise SelfTestError(message)


def bench(*args: str, cwd=run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def check_metrics(workload: str, trace: int) -> None:
    proc = bench("--workload", workload, "--seed", str(SEED), "--seconds", "0.5",
                 "--trace", str(trace))
    check(proc.returncode == 0, proc.stderr)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(sorted(result) == ["attempted", "correct", "failed", "metrics"], result)
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result)
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    check(sorted(result["metrics"]) == sorted(m["name"] for m in wanted), result["metrics"])
    for m in wanted:
        got = result["metrics"][m["name"]]
        check(got["unit"] == m["unit"], (m, got))
        check(isinstance(got["value"], (int, float)), got)
    if trace:
        check(result["metrics"]["trace.count_mismatches"]["value"] == 0, result)
    print(f"ok: {workload} --trace {trace}: {len(wanted)} metrics, "
          f"{result['attempted']} ops")


def rejects(wl, inp, out) -> bool:
    from workloads import VerificationError
    try:
        wl.check(inp, out)
    except VerificationError:
        return True
    return False


def check_verification() -> None:
    for name in BENCH_WORKLOADS:
        wl, inputs, _ = run.setup(name, SEED)
        inp = inputs[0] if inputs else wl.build(SEED, 0)
        out = wl.run(inp)
        check(not rejects(wl, inp, out), f"{name}: a correct output was rejected")
        if name == "count-large":
            rep, cross = out
            bad = (dataclasses.replace(rep, ed_degree=rep.ed_degree - 1), cross)
        elif name == "cli-small-cells":
            code, text, err = out
            bad = (code, text.replace(": true", ": false"), err)
        else:
            iv = out.critical_parameters[0]
            shifted = dataclasses.replace(iv, lo=iv.hi, hi=iv.hi + iv.width)
            bad = dataclasses.replace(out, critical_parameters=(shifted,))
        check(rejects(wl, inp, bad), f"{name}: a corrupted output was accepted")
        runner = run.Runner(wl, SEED, [inp], ["0" * 64])
        runner.op(0)
        check(len(runner.failures) == 1, f"{name}: a changed digest was accepted")
        print(f"ok: {name} verification rejects a wrong output and a changed digest")


def check_bare_directory() -> None:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = bench("--workload", BENCH_WORKLOADS[0], "--seed", str(SEED), "--seconds", "1",
                     "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout, proc)
    print("ok: no result and a non-zero exit without the program's sources")


def main() -> int:
    for name in BENCH_WORKLOADS:
        for trace in (0, 1):
            check_metrics(name, trace)
    check_verification()
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
