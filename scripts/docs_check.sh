#!/usr/bin/env bash
# Documentation consistency check.
#
#   scripts/docs_check.sh
#
# Verifies seven invariants that otherwise rot silently:
#   1. Every subsystem directory `src/<name>` has a DESIGN.md §2
#      inventory row (a table row quoting `src/<name>`), not merely a
#      passing mention.
#   2. Every repo-relative file path mentioned in README.md or DESIGN.md
#      (backtick-quoted, e.g. `src/des/kernel.hpp` or `scripts/bench.sh`)
#      resolves to a real file or directory — so the docs' cross-links
#      never point at renamed or deleted code.
#   3. Every report schema name the docs quote (`hi-<name>/v<N>`) is
#      emitted somewhere in the source tree — a renamed schema must
#      rename its documentation.
#   4. Every committed benchmark baseline the docs reference
#      (`BENCH_<name>.json`) exists at the repo root.
#   5. Every counter name in DESIGN.md §8's metric name inventory
#      (`prefix.` + each backticked name, `{a, b}` expanded) occurs as a
#      string literal in src/ — a renamed counter must rename its row.
#   6. No file tracked by git is a run artifact: a store (`*.store`,
#      `*.histore`), a log (`*.log`) or a `fleet.json` report — tests
#      and tools write those under temp or build directories.
#   7. Every MILP encoding shape README.md or DESIGN.md states
#      ("N variables × M rows", or columns) equals the pins of
#      MilpEncoding.ModelKeepsItsShapeAcrossTheWalk.
# Paths under build*/ (generated trees) and placeholders containing
# <...> or * are exempt.
set -euo pipefail

cd "$(dirname "$0")/.."

status=0
doc_files=(README.md DESIGN.md EXPERIMENTS.md)

# --- 1. every src subsystem has a DESIGN.md §2 inventory row -------------
for dir in src/*/; do
  name="$(basename "${dir}")"
  if ! grep -qE "^\| [0-9]+ \| .src/${name}. \|" DESIGN.md; then
    echo "docs_check: FAIL: src/${name} has no DESIGN.md §2 inventory row" >&2
    status=1
  fi
done

# --- 2. backticked file paths in README.md / DESIGN.md resolve -----------
# A "path" is a backticked token with at least one '/' or a known
# top-level doc/config file, made only of path-safe characters.
paths="$(grep -ohE '`[A-Za-z0-9_][A-Za-z0-9_./-]*`' README.md DESIGN.md \
         | tr -d '\`' \
         | grep -E '/|^[A-Z]+[A-Za-z_]*\.(md|json)$|^CMakeLists\.txt$' \
         | grep -vE '^(build|http|https)' \
         | sort -u)"
for p in ${paths}; do
  # Trailing slash = directory reference; tokens with an extension-less
  # last component that are not on disk are treated as identifiers
  # (e.g. `hi::obs`, `a/b` ratios) only when they contain no '.' at all
  # and no such file exists — otherwise flag them.
  candidate="${p%/}"
  # Accept three spellings: the literal repo-relative path, an include
  # path relative to src/ (docs quote headers as `obs/trace.hpp`), and a
  # binary target named after its source (`bench/bench_table1_radio`,
  # `tools/hi_campaign`).
  if [[ -e "${candidate}" || -e "src/${candidate}" ||
        -e "${candidate}.cpp" ]]; then
    continue
  fi
  # Only enforce tokens that look like real file references: they have a
  # file extension somewhere or start with a known tree root.
  if [[ "${candidate}" == */*.* || "${candidate}" =~ ^(src|tests|bench|scripts|tools|examples)/ || "${candidate}" =~ ^[A-Z]+[A-Za-z_]*\.(md|json)$ || "${candidate}" == "CMakeLists.txt" ]]; then
    echo "docs_check: FAIL: ${candidate} referenced in docs but not on disk" >&2
    status=1
  fi
done

# --- 3. every schema name quoted in docs is emitted by the tree ----------
schemas="$(grep -ohE 'hi-[a-z0-9-]+/v[0-9]+' "${doc_files[@]}" | sort -u)"
for s in ${schemas}; do
  if ! grep -rqF "${s}" src/ tools/ bench/; then
    echo "docs_check: FAIL: schema ${s} quoted in docs but emitted nowhere" >&2
    status=1
  fi
done

# --- 4. every benchmark baseline referenced in docs is committed ---------
benches="$(grep -ohE 'BENCH_[A-Za-z0-9_]+\.json' "${doc_files[@]}" | sort -u)"
for b in ${benches}; do
  if [[ ! -f "${b}" ]]; then
    echo "docs_check: FAIL: ${b} referenced in docs but not committed" >&2
    status=1
  fi
done

# --- 5. every §8 inventory counter name is emitted by src/ -------------
# Table rows look like  | `prefix.` | `name`, `a.{b, c}` (notes), ... |.
# Parenthesized notes are dropped; tokens already carrying the prefix
# are taken whole, and tokens holding a '*' are placeholders.
counters="$(
  awk '/^\*\*Metric name inventory\*\*/ {on = 1; next}
       on && /^\| `/ {print; next}
       on && /^\*\*/ {exit}' DESIGN.md |
  sed -E 's/\([^)]*\)//g' |
  while IFS='|' read -r _ prefix names _; do
    prefix="$(grep -oE '`[a-z0-9_]+\.`' <<< "${prefix}" | tr -d '`')"
    for tok in $(grep -oE '`[^`]+`' <<< "${names}" | tr -d '` ' |
                 grep -v '[*]'); do
      [[ "${tok}" == "${prefix}"* ]] && tok="${tok#"${prefix}"}"
      if [[ "${tok}" =~ ^(.*)\{(.*)\}(.*)$ ]]; then
        IFS=',' read -ra parts <<< "${BASH_REMATCH[2]}"
        for part in "${parts[@]}"; do
          echo "${prefix}${BASH_REMATCH[1]}${part}${BASH_REMATCH[3]}"
        done
      else
        echo "${prefix}${tok}"
      fi
    done
  done | sort -u
)"
if [[ -z "${counters}" ]]; then
  echo "docs_check: FAIL: DESIGN.md §8 metric name inventory not found" >&2
  status=1
fi
for c in ${counters}; do
  if ! grep -rqF "\"${c}\"" src/; then
    echo "docs_check: FAIL: DESIGN.md §8 counter ${c} is emitted nowhere in src/" >&2
    status=1
  fi
done

# --- 6. no run artifact is tracked -------------------------------------
for a in $(git ls-files -- '*.store' '*.histore' '*.log' fleet.json \
                            '*/fleet.json'); do
  echo "docs_check: FAIL: run artifact ${a} is tracked by git" >&2
  status=1
done

# --- 7. encoding shapes in the docs match the shape test's pins ----------
shape_test="$(awk '/^TEST\(MilpEncoding, ModelKeepsItsShapeAcrossTheWalk\)/ {on = 1}
                   on {print}
                   on && /^}/ {exit}' tests/test_milp_encoding.cpp)"
pin_vars="$(grep -oE 'EXPECT_EQ\(vars, [0-9]+\)' <<< "${shape_test}" |
            grep -oE '[0-9]+' || true)"
pin_rows="$(grep -oE 'EXPECT_EQ\(rows, [0-9]+\)' <<< "${shape_test}" |
            grep -oE '[0-9]+' || true)"
if [[ -z "${pin_vars}" || -z "${pin_rows}" ]]; then
  echo "docs_check: FAIL: cannot read the encoding shape pins in tests/test_milp_encoding.cpp" >&2
  status=1
fi
while IFS= read -r shape; do
  [[ -z "${shape}" ]] && continue
  read -r vars _ _ rows _ <<< "${shape//,/}"
  if [[ "${vars}" != "${pin_vars}" || "${rows}" != "${pin_rows}" ]]; then
    echo "docs_check: FAIL: docs state an encoding of '${shape}'; the shape test pins ${pin_vars} variables × ${pin_rows} rows" >&2
    status=1
  fi
done <<< "$(grep -ohE '[0-9][0-9,]* (variables|columns) (×|x) [0-9][0-9,]* rows' \
              README.md DESIGN.md || true)"

if [[ "${status}" != 0 ]]; then
  echo "docs_check: FAILED" >&2
  exit 1
fi
echo "docs_check: OK (inventory rows, doc paths, schemas, bench baselines, counter names, no tracked artifacts, encoding shape)"
