#!/usr/bin/env python3
"""Schema validator and regression gate for hi-bench/v1 reports.

Usage:
  bench_gate.py validate FILE
      Exit 0 iff FILE is a well-formed hi-bench/v1 document.
  bench_gate.py compare BASE NEW [--tolerance T]
      Exit 0 iff no gated metric in NEW regressed against BASE by more
      than T (default 0.10).  A metric is gated when `gate` is true in
      BOTH files — quick runs mark their non-comparable (extensive)
      metrics gate=false, which exempts them here without loosening the
      committed baseline.  Gate rules by `better`:
        higher: fail if new < base * (1 - T)
        lower:  fail if new > base * (1 + T)
        exact:  fail unless new == base (bit-for-bit; deterministic
                outputs such as simulation counts and optimizer results)
      A gated baseline metric missing from NEW is a failure: renaming or
      dropping a metric must be an explicit baseline update, not a
      silent pass.
  bench_gate.py paired --parent P1 [P2 ...] --change C1 [C2 ...]
                       [--base BASE] [--tolerance T] [--out OUT]
      Pi and Ci are one pair: two runs made back to back on one host.
      Exit 0 iff, for every gated rate metric (better higher/lower), the
      median over the pairs of Ci/Pi is within T (default 0.10) of 1 on
      the worse side, and every gated exact metric of every change run
      equals BASE (when given) as in compare.  A ratio within a pair
      cancels host speed phases that last longer than the pair, which a
      ratio of the two sides' medians does not.  OUT receives the
      change's first run with every value replaced by the median over
      the change's runs: the candidate baseline.  A rate row gated in
      BASE keeps BASE's value where that is better than the change's
      median, so a refresh never lowers a committed rate.  Parent runs
      that are not hi-bench/v1 documents at all (REV's bench predates
      its report) contribute no rows: the change's rate rows are then
      not gated, and its exact rows still are against BASE.

Schema and workflow: DESIGN.md section 11; runner: scripts/bench.sh.
Stdlib only — no third-party packages.
"""

import argparse
import json
import statistics
import sys

SCHEMA = "hi-bench/v1"
BETTER = ("higher", "lower", "exact")


def fail(msg):
    print(f"bench_gate: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")


def check_schema(doc, path):
    def need(cond, what):
        if not cond:
            fail(f"{path}: {what}")

    need(isinstance(doc, dict), "top level is not an object")
    need(doc.get("schema") == SCHEMA, f'"schema" must be "{SCHEMA}"')
    need(isinstance(doc.get("bench"), str) and doc["bench"],
         '"bench" must be a non-empty string')
    need(isinstance(doc.get("quick"), bool), '"quick" must be a boolean')
    settings = doc.get("settings")
    need(isinstance(settings, dict), '"settings" must be an object')
    for key in ("tsim_s", "runs", "seed"):
        need(isinstance(settings.get(key), (int, float))
             and not isinstance(settings.get(key), bool),
             f'settings.{key} must be a number')
    metrics = doc.get("metrics")
    need(isinstance(metrics, list) and metrics,
         '"metrics" must be a non-empty array')
    seen = set()
    for i, m in enumerate(metrics):
        where = f"metrics[{i}]"
        need(isinstance(m, dict), f"{where} is not an object")
        name = m.get("name")
        need(isinstance(name, str) and name,
             f"{where}.name must be a non-empty string")
        need(name not in seen, f"duplicate metric name {name!r}")
        seen.add(name)
        need(isinstance(m.get("unit"), str) and m["unit"],
             f"{where}.unit must be a non-empty string")
        need(isinstance(m.get("value"), (int, float))
             and not isinstance(m.get("value"), bool),
             f"{where}.value must be a number")
        need(m.get("better") in BETTER,
             f"{where}.better must be one of {BETTER}")
        need(isinstance(m.get("gate"), bool),
             f"{where}.gate must be a boolean")
        need(isinstance(m.get("items"), int) and m["items"] >= 0,
             f"{where}.items must be a non-negative integer")
        need(isinstance(m.get("wall_s"), (int, float))
             and not isinstance(m.get("wall_s"), bool) and m["wall_s"] >= 0,
             f"{where}.wall_s must be a non-negative number")


def cmd_validate(args):
    doc = load(args.file)
    check_schema(doc, args.file)
    print(f"bench_gate: OK: {args.file} is valid {SCHEMA} "
          f"({len(doc['metrics'])} metrics)")


def cmd_compare(args):
    base = load(args.base)
    new = load(args.new)
    check_schema(base, args.base)
    check_schema(new, args.new)
    if base["bench"] != new["bench"]:
        fail(f'bench mismatch: {base["bench"]!r} vs {new["bench"]!r}')
    tol = args.tolerance
    new_by_name = {m["name"]: m for m in new["metrics"]}
    failures = []
    compared = 0
    for bm in base["metrics"]:
        if not bm["gate"]:
            continue
        nm = new_by_name.get(bm["name"])
        if nm is None:
            failures.append(f'{bm["name"]}: missing from {args.new}')
            continue
        if not nm["gate"]:  # quick run marked it non-comparable
            continue
        compared += 1
        bv, nv = bm["value"], nm["value"]
        if bm["better"] == "exact":
            if nv != bv:
                failures.append(
                    f'{bm["name"]}: exact mismatch (base {bv!r}, new {nv!r})')
        elif bm["better"] == "higher":
            if nv < bv * (1.0 - tol):
                failures.append(
                    f'{bm["name"]}: regressed {bv:.6g} -> {nv:.6g} '
                    f"({nv / bv - 1.0:+.1%}, tolerance -{tol:.0%})")
        else:  # lower
            if nv > bv * (1.0 + tol):
                failures.append(
                    f'{bm["name"]}: regressed {bv:.6g} -> {nv:.6g} '
                    f"({nv / bv - 1.0:+.1%}, tolerance +{tol:.0%})")
    for f in failures:
        print(f"bench_gate: FAIL: {f}", file=sys.stderr)
    if failures:
        sys.exit(1)
    print(f"bench_gate: OK: {new['bench']}: {compared} gated metrics "
          f"within {tol:.0%} of {args.base}")


def exact_failures(base, new, where):
    """Gated exact metrics of BASE that NEW lacks or does not bit-equal."""
    new_by_name = {m["name"]: m for m in new["metrics"]}
    out = []
    for bm in base["metrics"]:
        if not bm["gate"] or bm["better"] != "exact":
            continue
        nm = new_by_name.get(bm["name"])
        if nm is None:
            out.append(f'{bm["name"]}: missing from {where}')
        elif nm["gate"] and nm["value"] != bm["value"]:
            out.append(f'{bm["name"]}: exact mismatch in {where} '
                       f'(base {bm["value"]!r}, new {nm["value"]!r})')
    return out


def medians(docs):
    """Metric name -> median value over docs (metrics present in all)."""
    values = {}
    for doc in docs:
        for m in doc["metrics"]:
            values.setdefault(m["name"], []).append(m["value"])
    return {k: statistics.median(v) for k, v in values.items()
            if len(v) == len(docs)}


def cmd_paired(args):
    parents = [load(p) for p in args.parent]
    changes = [load(c) for c in args.change]
    for doc, path in zip(changes, args.change):
        check_schema(doc, path)
    bench = changes[0]["bench"]
    if all(isinstance(doc, dict) and "schema" in doc for doc in parents):
        for doc, path in zip(parents, args.parent):
            check_schema(doc, path)
    else:
        print(f"bench_gate: the parent's runs are not {SCHEMA} reports; "
              f"its rows are not gated")
        parents = [{"bench": bench, "metrics": []} for _ in parents]
    for doc, path in zip(parents + changes, args.parent + args.change):
        if doc["bench"] != bench:
            fail(f'bench mismatch: {path} is {doc["bench"]!r}, not {bench!r}')
    tol = args.tolerance
    failures = []
    base = None
    if args.base:
        base = load(args.base)
        check_schema(base, args.base)
        for doc, path in zip(changes, args.change):
            failures += exact_failures(base, doc, path)
    if len(parents) != len(changes):
        fail(f"{len(parents)} parent runs but {len(changes)} change runs")
    pmed = medians(parents)
    cmed = medians(changes)
    rates = 0
    for m in changes[0]["metrics"]:
        name = m["name"]
        if not m["gate"] or m["better"] == "exact":
            continue
        if name not in pmed:
            print(f"bench_gate: {name}: not in the parent's runs; not gated")
            continue
        if name not in cmed:
            failures.append(f"{name}: missing from some change runs")
            continue
        rates += 1
        value = lambda doc: next(x["value"] for x in doc["metrics"]
                                 if x["name"] == name)
        ratio = statistics.median(
            value(c) / value(p) if value(p) else float("inf")
            for p, c in zip(parents, changes))
        if m["better"] == "higher":
            bad = ratio < 1.0 - tol
        else:
            bad = ratio > 1.0 + tol
        line = (f"{name}: parent {pmed[name]:.6g}, change {cmed[name]:.6g} "
                f"{m['unit']} (median pair ratio x{ratio:.3f}, better "
                f"{m['better']})")
        print(f"bench_gate: {'FAIL' if bad else 'ok'}: {line}")
        if bad:
            failures.append(f"{line}: worse than the parent by more than "
                            f"{tol:.0%}")
    for f in failures:
        print(f"bench_gate: FAIL: {f}", file=sys.stderr)
    if args.out:
        # Exact rows keep the (identical) value of the first run.
        doc = changes[0]
        committed = {m["name"]: m for m in base["metrics"]
                     if m["gate"]} if base else {}
        walls = {}
        for c in changes:
            for m in c["metrics"]:
                walls.setdefault(m["name"], []).append(m["wall_s"])
        for m in doc["metrics"]:
            if m["better"] != "exact":
                m["value"] = cmed.get(m["name"], m["value"])
                bm = committed.get(m["name"])
                if m["gate"] and bm and bm["better"] == m["better"]:
                    pick = max if m["better"] == "higher" else min
                    m["value"] = pick(m["value"], bm["value"])
            m["wall_s"] = statistics.median(walls[m["name"]])
        with open(args.out, "w", encoding="utf-8") as f:
            write_doc(doc, f)
    if failures:
        sys.exit(1)
    print(f"bench_gate: OK: {bench}: {rates} rate metrics' median pair "
          f"ratio within {tol:.0%} over {len(changes)} pairs")


def write_doc(doc, f):
    """Writes DOC in the benches' own layout: one metric per line."""
    f.write("{\n")
    for key in ("schema", "bench", "quick", "settings"):
        f.write(f'  {json.dumps(key)}: {json.dumps(doc[key])},\n')
    f.write('  "metrics": [\n')
    rows = [json.dumps(m) for m in doc["metrics"]]
    f.write(",\n".join(f"    {r}" for r in rows))
    f.write("\n  ]\n}\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)
    v = sub.add_parser("validate")
    v.add_argument("file")
    v.set_defaults(func=cmd_validate)
    c = sub.add_parser("compare")
    c.add_argument("base")
    c.add_argument("new")
    c.add_argument("--tolerance", type=float, default=0.10)
    c.set_defaults(func=cmd_compare)
    pr = sub.add_parser("paired")
    pr.add_argument("--parent", nargs="+", required=True)
    pr.add_argument("--change", nargs="+", required=True)
    pr.add_argument("--base")
    pr.add_argument("--tolerance", type=float, default=0.10)
    pr.add_argument("--out")
    pr.set_defaults(func=cmd_paired)
    args = ap.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
