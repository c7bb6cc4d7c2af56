#!/usr/bin/env bash
# Runs the tier-1 test suite under AddressSanitizer, ThreadSanitizer and
# UndefinedBehaviorSanitizer in sequence — the pre-merge confidence
# sweep for the concurrency, memory-safety and defined-behaviour
# guarantees the code comments promise — plus a
# store fuzz sweep (hi::store corruption handling and the CRC-32 oracle,
# under ASan and UBSan, wider than the tier-1 smoke run).
#
#   scripts/check.sh [--extended] [extra ctest args...]
#
# --extended additionally runs the `extended` ctest label (the long
# fuzz_dse / fuzz_store sweeps) in every sanitizer tree.
#
# Build trees live in build-address/, build-thread/ and build-undefined/
# next to build/ (all gitignored); each is configured on first use and
# reused afterwards.
#
# Also runs the cheap documentation-consistency check (docs_check.sh)
# up front and the quick paired perf-regression smoke (bench.sh --quick
# --against the parent commit) at the end.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> docs_check"
./scripts/docs_check.sh

extended=0
if [[ "${1:-}" == "--extended" ]]; then
  extended=1
  shift
fi

run_suite() {
  local sanitizer="$1"
  shift
  local dir="build-${sanitizer}"
  echo "==> ${sanitizer}: configure + build (${dir})"
  cmake -B "${dir}" -S . -DHI_SANITIZE="${sanitizer}" \
        -DHI_BUILD_BENCH=OFF -DHI_BUILD_EXAMPLES=OFF
  cmake --build "${dir}" -j "$(nproc)"
  echo "==> ${sanitizer}: ctest -L tier1"
  ctest --test-dir "${dir}" -L tier1 --output-on-failure -j "$(nproc)" "$@"
  if [[ "${extended}" == 1 ]]; then
    echo "==> ${sanitizer}: ctest -L extended"
    ctest --test-dir "${dir}" -L extended --output-on-failure \
          -j "$(nproc)" "$@"
  fi
}

run_suite address "$@"
run_suite thread "$@"
run_suite undefined "$@"

# Store-recovery fuzzing beyond the tier-1 smoke run: seeded torn-write /
# bit-flip corruption against hi::store's recovery contract, plus the
# CRC-32 oracle property (every length 0-1,100 at every start offset
# 0-15 per seed), under ASan so any parsing overrun in the framing or
# codecs is caught outright, and under UBSan for the word-wide CRC and
# codec loads.
fuzz_dir="$(mktemp -d)"
trap 'rm -rf "${fuzz_dir}"' EXIT
for sanitizer in address undefined; do
  echo "==> ${sanitizer}: fuzz_store recovery + CRC-32 sweep"
  "./build-${sanitizer}/tests/fuzz_store" --seed 1 --scenarios 25 \
      --trials 12 --dir "${fuzz_dir}"
done

# Robustness property sweep beyond the tier-1 smoke run: the Γ>0
# battery (Bertsimas–Sim counterpart differential, robust Alg 1 vs
# robust exhaustive, Γ/K monotonicity, Γ=0 collapse) at a deeper
# protection budget and realization fold, under ASan.  The full
# 200-seed acceptance sweep is ctest's fuzz_dse_robust_extended.
echo "==> address: fuzz_dse robust sweep"
./build-address/tests/fuzz_dse --seed 1 --scenarios 40 --gamma 2 \
                               --realizations 3

# hi_campaign's SIGKILL/resume path needs no separate smoke here:
# run_suite address already runs tier-1 test_store_campaign, which
# SIGKILLs the ASan-built CLI mid-grid (nominal and robust grids) and
# resumes it on the same store.

# Pareto frontier crash/resume smoke (DESIGN.md §14): a tiny generated
# scenario on the ASan-built CLI.  The first run SIGKILLs itself after
# one completed MILP round (--kill-after-rounds; the store is synced
# after every round first), so it must die on signal 9 (exit 137).  The
# rerun warm-starts from the same store, finishes the ladder (exit 0),
# and its report must show the store actually serving points.
echo "==> pareto frontier crash/resume smoke (ASan CLI)"
pareto_cli=./build-address/tools/hi_pareto
pareto_store="${fuzz_dir}/pareto-smoke.store"
pareto_args=(--gen-seed 7 --tsim 2 --runs 1 --pdr-min 0.5,0.7,0.9)
pareto_rc=0
"${pareto_cli}" "${pareto_args[@]}" --store "${pareto_store}" \
     --kill-after-rounds 1 >/dev/null || pareto_rc=$?
if [[ "${pareto_rc}" != 137 ]]; then
  echo "pareto smoke: killed run exited ${pareto_rc}, expected 137" >&2
  exit 1
fi
pareto_out="${fuzz_dir}/pareto-smoke.json"
"${pareto_cli}" "${pareto_args[@]}" --store "${pareto_store}" \
     --out "${pareto_out}"
grep -q '"schema": "hi-pareto/v1"' "${pareto_out}"
grep -q '"complete": true' "${pareto_out}"
grep -Eq '"store_hits": [1-9]' "${pareto_out}"

# Crowd sweep crash/resume smoke (DESIGN.md §15): a short M=1..3 sweep
# on the ASan-built CLI.  The first run SIGKILLs itself after one
# completed point (--kill-after-points; the store is synced after every
# point first), so it must die on signal 9 (exit 137).  The --resume
# rerun must serve the completed point from the store (one hit, two
# fresh simulations — no re-simulation of finished work) and finish the
# sweep; a second, fully-warm rerun must then be pure hits.
echo "==> crowd sweep crash/resume smoke (ASan CLI)"
crowd_cli=./build-address/tools/hi_crowd
crowd_store="${fuzz_dir}/crowd-smoke.store"
crowd_args=(--list 1,2,3 --tsim 2 --runs 1 --seed 5)
crowd_rc=0
"${crowd_cli}" "${crowd_args[@]}" --store "${crowd_store}" \
     --kill-after-points 1 >/dev/null || crowd_rc=$?
if [[ "${crowd_rc}" != 137 ]]; then
  echo "crowd smoke: killed run exited ${crowd_rc}, expected 137" >&2
  exit 1
fi
crowd_out="${fuzz_dir}/crowd-smoke.json"
"${crowd_cli}" "${crowd_args[@]}" --store "${crowd_store}" --resume \
     --out "${crowd_out}"
grep -q '"schema": "hi-crowd/v1"' "${crowd_out}"
grep -q '"complete": true' "${crowd_out}"
grep -q '"store": {"store_hits": 1, "simulations": 2}' "${crowd_out}"
"${crowd_cli}" "${crowd_args[@]}" --store "${crowd_store}" --resume \
     --out "${crowd_out}"
grep -q '"store": {"store_hits": 3, "simulations": 0}' "${crowd_out}"
if grep -q '"from_store": false' "${crowd_out}"; then
  echo "crowd smoke: warm rerun re-simulated a completed point" >&2
  exit 1
fi

# Perf-regression smoke: scaled-down benches, alternated with the same
# benches built from the parent commit on this host, rate rows gated at
# 10% on the paired medians and exact rows against the committed
# baselines.  The parent is HEAD while the tree has uncommitted changes
# to tracked files, else HEAD~1.
parent_rev=HEAD~1
if ! git diff --quiet HEAD --; then
  parent_rev=HEAD
fi
echo "==> bench smoke (scripts/bench.sh --quick --against ${parent_rev})"
./scripts/bench.sh --quick --against "${parent_rev}"

echo "==> all sanitizer suites passed"
