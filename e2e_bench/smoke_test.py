#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark.

Runs a short-Tsim pass of every workload, untraced and traced, through
run.py and checks that:
  * every end-to-end (untraced) and per-layer (traced) metric named in
    BENCHMARK.json is printed with its unit, and nothing else is;
  * every op passes its answer check and every traced replay matches
    the program's counters;
  * layer_map.json maps every per-layer metric;
  * a deliberately corrupted answer (--corrupt) is counted as failed.

Usage, from the root of the checkout:  python3 e2e_bench/smoke_test.py
Exits 0 when every check passes.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TSIM = "2"  # seconds simulated per run; must exceed the 1 s generation guard
SEED = "3"

failures = []


def check(ok, what):
    if not ok:
        failures.append(what)
        print(f"FAIL: {what}", file=sys.stderr)


def bench(workload, trace, *extra):
    """Runs one benchmark pass; returns (result dict, '#' lines)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", SEED, "--seconds", "0.5",
           "--trace", str(trace), "--tsim", TSIM, *extra]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}")
    return json.loads(lines[-1]), [l for l in lines[:-1] if l.startswith("#")]


def expect_metrics(result, declared, what):
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    check(got == want, f"{what}: metrics {sorted(got.items())} != "
                       f"{sorted(want.items())}")
    for name, v in result["metrics"].items():
        check(isinstance(v["value"], (int, float)), f"{what}: {name} value")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "layer_map.json")) as f:
        mapped = {e["metric"] for entries in json.load(f)["layers"].values()
                  for e in entries}
    check(mapped == {m["name"] for m in spec["per_layer"]},
          "layer_map.json does not cover exactly the per-layer metrics")

    for w in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]),
                                (1, spec["per_layer"])):
            what = f"{w} --trace {trace}"
            result, notes = bench(w, trace)
            check(result["correct"] is True and result["failed"] == 0,
                  f"{what}: not correct: {result}")
            check(result["attempted"] >= 2, f"{what}: too few ops")
            expect_metrics(result, declared, what)
            for figure in ("fail_ratio", "sims_per_op", "events_per_op",
                           "milp_solves_per_op", "events_per_s"):
                check(any(n.split()[1:2] == [figure] for n in notes),
                      f"{what}: no '# {figure}' line")
        result, notes = bench(w, 0, "--corrupt")
        check(result["correct"] is False and result["failed"] >= 1,
              f"{w} --corrupt: corruption not caught: {result}")
        check(any(n.startswith("# fail_ratio") and not n.endswith("= 0")
                  for n in notes), f"{w} --corrupt: fail_ratio stayed 0")
        print(f"ok: {w}")

    if failures:
        print(f"{len(failures)} check(s) failed", file=sys.stderr)
        return 1
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
