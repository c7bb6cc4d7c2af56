#!/usr/bin/env bash
# Canonical perf-benchmark runner and regression gate (DESIGN.md §11).
#
#   scripts/bench.sh          full run: rebuild, run the perf
#                             benches with pinned seeds, validate the
#                             hi-bench/v1 schema, gate against the
#                             committed BENCH_*.json baselines (>10%
#                             regression on any gated metric fails),
#                             then refresh the baselines in place.
#   scripts/bench.sh --quick  CI smoke: scaled-down workloads
#                             (HI_BENCH_QUICK=1), wider 40% tolerance,
#                             reports written to a temp dir; committed
#                             baselines are never touched.
#   scripts/bench.sh [--quick] --against REV
#                             paired mode: builds REV's benches in a
#                             temporary git worktree and this tree's in a
#                             temporary build directory, both with the
#                             same settings (RelWithDebInfo, no
#                             sanitizer), and runs each bench in 9 pairs
#                             of back-to-back runs, REV first in odd
#                             pairs.  A rate row fails when the
#                             median over the pairs of this tree's value
#                             over REV's is more than 10% worse; exact
#                             rows are gated against the
#                             committed baselines as in the absolute
#                             mode.  A full run refreshes the baselines
#                             from this tree's medians only when every
#                             bench passes, and never lowers a committed
#                             rate.
#                             A REV whose bench predates its
#                             hi-bench/v1 report gates nothing of it but
#                             the exact rows.
#   --only NAME[,NAME...]     runs just these benches (des_perf,
#                             milp_perf, parallel, robust, fig3, pdrmin,
#                             pareto, store), in either mode.
#
# Environment: HI_BENCH_TOLERANCE overrides the gate tolerance.
# Benches: bench_des_perf (DES kernel + end-to-end sim + channel),
# bench_milp_perf (simplex / branch-and-bound / DSE MILP round),
# bench_parallel_speedup (hi::exec thread sweep + determinism gate),
# bench_robust_dse (multi-realization K sweep, robust Alg 1 vs
# fast-ILP), bench_fig3_tradeoff (paper Fig. 3 scatter + arrows),
# bench_optimal_vs_pdrmin (Sec. 4.2 PDRmin ladder),
# bench_pareto_front (exhaustive vs ladder Pareto front),
# bench_store_warmstart (cold vs warm Algorithm 1 through hi::store,
# store CRC-32 and reopen rates).
set -euo pipefail

cd "$(dirname "$0")/.."

quick=0
against=""
only="des_perf,milp_perf,parallel,robust,fig3,pdrmin,pareto,store"
while [[ $# -gt 0 ]]; do
  case "$1" in
    --quick) quick=1 ;;
    --against) against="${2:?--against needs a revision}"; shift ;;
    --only) only="${2:?--only needs bench names}"; shift ;;
    *) echo "bench.sh: unknown argument $1" >&2; exit 2 ;;
  esac
  shift
done
IFS=, read -r -a benches <<< "${only}"
for name in "${benches[@]}"; do
  case "${name}" in
    des_perf|milp_perf|parallel|robust|fig3|pdrmin|pareto|store) ;;
    *) echo "bench.sh: unknown bench ${name}" >&2; exit 2 ;;
  esac
done

tolerance="${HI_BENCH_TOLERANCE:-}"
if [[ -z "${tolerance}" ]]; then
  if [[ "${quick}" == 1 && -z "${against}" ]]; then
    tolerance=0.40
  else
    tolerance=0.10
  fi
fi

bench_bin() {
  case "$1" in
    parallel) echo bench_parallel_speedup ;;
    robust) echo bench_robust_dse ;;
    fig3) echo bench_fig3_tradeoff ;;
    pdrmin) echo bench_optimal_vs_pdrmin ;;
    pareto) echo bench_pareto_front ;;
    store) echo bench_store_warmstart ;;
    *) echo "bench_$1" ;;
  esac
}
targets=()
for name in "${benches[@]}"; do targets+=("$(bench_bin "${name}")"); done
out_dir="$(mktemp -d)"
parent_tree=""
cleanup() {
  if [[ -n "${parent_tree}" ]]; then
    git worktree remove --force "${parent_tree}" 2>/dev/null || true
    git worktree prune
  fi
  rm -rf "${out_dir}"
}
trap cleanup EXIT

if [[ -n "${against}" ]]; then
  # Both sides get fresh build trees with one set of settings, so a pair
  # compares the code, not whatever build/'s cache was configured with.
  paired_config=(-DCMAKE_BUILD_TYPE=RelWithDebInfo -DHI_SANITIZE=
                 -DHI_COVERAGE=OFF -DCMAKE_CXX_FLAGS=
                 -DHI_BUILD_BENCH=ON -DHI_BUILD_TESTS=OFF
                 -DHI_BUILD_EXAMPLES=OFF)
  parent_rev="$(git rev-parse --verify "${against}^{commit}")"
  parent_tree="${out_dir}/parent"
  echo "==> paired mode: building ${against} (${parent_rev:0:12}) in ${parent_tree}"
  git worktree add --detach "${parent_tree}" "${parent_rev}" >/dev/null
  cmake -B "${parent_tree}/build" -S "${parent_tree}" "${paired_config[@]}" \
        >/dev/null
  cmake --build "${parent_tree}/build" -j "$(nproc)" --target "${targets[@]}"
  build_dir="${out_dir}/change-build"
  echo "==> paired mode: building this tree in ${build_dir}"
  cmake -B "${build_dir}" -S . "${paired_config[@]}" >/dev/null
  pairs=9
else
  build_dir=build
  cmake -B "${build_dir}" -S . -DHI_BUILD_BENCH=ON >/dev/null
fi
cmake --build "${build_dir}" -j "$(nproc)" --target "${targets[@]}"

if [[ "${quick}" == 1 ]]; then
  export HI_BENCH_QUICK=1
  # Short thread sweep so the smoke run stays fast on small CI boxes.
  parallel_env=(HI_TSIM=2 HI_THREADS_MAX=2)
  echo "==> quick mode: reports in ${out_dir}, tolerance ${tolerance}"
else
  # Pinned settings — the committed baselines' exact-gated metrics
  # (simulation counts, best power) are only reproducible under these.
  parallel_env=(HI_TSIM=5 HI_THREADS_MAX=2)
  echo "==> full mode: tolerance ${tolerance}, baselines refreshed on pass"
fi

declare -A bench_env=(
  [des_perf]=""
  [milp_perf]=""
  [parallel]="${parallel_env[*]}"
  [robust]=""
  [fig3]=""
  [pdrmin]=""
  [pareto]=""
  # The Tsim of e2e_bench's certify and requery stores.
  [store]="HI_TSIM=5"
)
# Runs bench $1 from build tree $2 into report $3.
run_bench() {
  env ${bench_env[$1]} "$2/bench/$(bench_bin "$1")" > "$3"
}

status=0
for name in "${benches[@]}"; do
  new="${out_dir}/BENCH_${name}.json"
  base="BENCH_${name}.json"
  if [[ -n "${against}" ]]; then
    parent_runs=()
    change_runs=()
    for ((i = 1; i <= pairs; ++i)); do
      echo "==> bench_${name}: pair ${i}/${pairs}"
      parent_runs+=("${out_dir}/parent-${name}-${i}.json")
      change_runs+=("${out_dir}/change-${name}-${i}.json")
      # REV first in odd pairs, this tree first in even ones: the
      # second run of a pair reads slower on some hosts.  The paired
      # gate checks REV's reports (see the header on older benches).
      if (( i % 2 )); then
        run_bench "${name}" "${parent_tree}/build" "${parent_runs[-1]}"
        run_bench "${name}" "${build_dir}" "${change_runs[-1]}"
      else
        run_bench "${name}" "${build_dir}" "${change_runs[-1]}"
        run_bench "${name}" "${parent_tree}/build" "${parent_runs[-1]}"
      fi
      python3 scripts/bench_gate.py validate "${change_runs[-1]}"
    done
    base_args=()
    [[ -f "${base}" ]] && base_args=(--base "${base}")
    if ! python3 scripts/bench_gate.py paired "${base_args[@]}" \
         --parent "${parent_runs[@]}" --change "${change_runs[@]}" \
         --tolerance "${tolerance}" --out "${new}"; then
      status=1
    fi
    continue
  fi
  echo "==> running bench_${name}"
  run_bench "${name}" "${build_dir}" "${new}"
  python3 scripts/bench_gate.py validate "${new}"
  if [[ -f "${base}" ]]; then
    if ! python3 scripts/bench_gate.py compare "${base}" "${new}" \
         --tolerance "${tolerance}"; then
      status=1
      continue
    fi
  else
    echo "==> no committed baseline ${base}; skipping gate"
  fi
  if [[ "${quick}" == 0 ]]; then
    cp "${new}" "${base}"
    echo "==> refreshed ${base}"
  fi
done

if [[ "${status}" != 0 ]]; then
  echo "==> bench gate FAILED (see bench_gate output above)" >&2
  exit 1
fi
if [[ -n "${against}" && "${quick}" == 0 ]]; then
  for name in "${benches[@]}"; do
    cp "${out_dir}/BENCH_${name}.json" "BENCH_${name}.json"
    echo "==> refreshed BENCH_${name}.json from this tree's medians"
  done
fi
echo "==> all bench gates passed"
