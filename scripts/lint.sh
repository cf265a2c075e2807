#!/usr/bin/env bash
# Static-analysis gate: parva_audit (the project-specific determinism and
# concurrency contract checker) plus clang-tidy when available.
#
# Usage:
#   ./scripts/lint.sh                 # audit src/ + tools/ and run clang-tidy
#   ./scripts/lint.sh --audit-only    # skip clang-tidy even if installed
#   ./scripts/lint.sh --diff          # clang-tidy only on files changed vs HEAD
#   ./scripts/lint.sh --format sarif  # audit output format (text|json|sarif)
#   ./scripts/lint.sh --baseline F    # suppress findings accepted in F
#
# parva_audit is always required (it builds from this repo, or set
# PARVA_AUDIT_BIN to an existing binary to skip the build); clang-tidy is
# optional because the default container does not ship clang. When it is
# absent the stage is reported as skipped, not passed.
#
# Exit codes: 0 clean, 1 findings (or canary failure), 2 usage error.
# parva_audit's own exit codes are distinguished: 1 (findings) and >= 2
# (usage/IO error) both fail this script -- a crashed checker must never
# read as a clean pass.
set -euo pipefail
cd "$(dirname "$0")/.."

AUDIT_ONLY=0
DIFF_ONLY=0
FORMAT=text
BASELINE=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --audit-only) AUDIT_ONLY=1 ;;
    --diff) DIFF_ONLY=1 ;;
    --format)
      shift
      [[ $# -gt 0 ]] || { echo "usage: --format text|json|sarif" >&2; exit 2; }
      FORMAT="$1"
      ;;
    --baseline)
      shift
      [[ $# -gt 0 ]] || { echo "usage: --baseline FILE" >&2; exit 2; }
      BASELINE="$1"
      ;;
    *)
      echo "usage: $0 [--audit-only] [--diff] [--format text|json|sarif] [--baseline FILE]" >&2
      exit 2
      ;;
  esac
  shift
done

if [[ -n "${PARVA_AUDIT_BIN:-}" ]]; then
  AUDIT="${PARVA_AUDIT_BIN}"
  [[ -x "${AUDIT}" ]] || { echo "lint: PARVA_AUDIT_BIN=${AUDIT} is not executable" >&2; exit 2; }
else
  echo "== build parva_audit =="
  cmake --preset default >/dev/null
  cmake --build --preset default --target parva_audit -j "$(nproc)"
  AUDIT=./build/tools/parva_audit
fi

AUDIT_ARGS=(--format "${FORMAT}")
[[ -n "${BASELINE}" ]] && AUDIT_ARGS+=(--baseline "${BASELINE}")

SCRATCH_DIR="$(mktemp -d)"
trap 'rm -rf "${SCRATCH_DIR}"' EXIT
STALE_LOG="${SCRATCH_DIR}/stale.log"
RULE_LOG="${SCRATCH_DIR}/rules.log"
: > "${STALE_LOG}"
: > "${RULE_LOG}"

# One summary line over every audit scan (canary excluded): total findings
# plus per-rule counts, and any stale-baseline warnings exactly once even
# when several scans consult the same baseline.
print_summary() {
  if [[ -s "${STALE_LOG}" ]]; then
    sort -u "${STALE_LOG}" >&2
  fi
  local total per_rule
  total="$(wc -l < "${RULE_LOG}" | tr -d ' ')"
  per_rule="$(sort -V "${RULE_LOG}" | uniq -c | awk '{printf " %s=%s", substr($2, 2, length($2) - 2), $1}')"
  echo "lint: audit summary: ${total} finding(s)${per_rule}"
}

# Runs the audit and maps its exit codes: 0 passes through, 1 (findings)
# and >= 2 (usage/IO error) are reported distinctly and fail the script.
# Stale-baseline warnings are diverted to the deduped end-of-run report;
# per-rule finding markers feed the summary line.
run_audit() {
  local rc=0
  local log="${SCRATCH_DIR}/audit.log"
  "${AUDIT}" "${AUDIT_ARGS[@]}" "$@" >"${log}" 2>&1 || rc=$?
  grep "stale baseline entr" "${log}" >> "${STALE_LOG}" || true
  grep -v "stale baseline entr" "${log}" || true
  grep -oE '\[R[0-9]+\]' "${log}" >> "${RULE_LOG}" || true
  if [[ "${rc}" -ge 2 ]]; then
    echo "lint: parva_audit failed to run (exit ${rc}) -- not a clean pass" >&2
    exit "${rc}"
  elif [[ "${rc}" -ne 0 ]]; then
    print_summary
    echo "lint: parva_audit found violations (exit ${rc})" >&2
    exit 1
  fi
}

echo "== parva_audit: determinism/concurrency contracts (R1-R15) =="
run_audit --rules R1-R15 src/

echo "== parva_audit: self-check (the checker obeys its own rules, R1-R15) =="
run_audit tools/parva_audit/

echo "== parva_audit: tree scan (bench/ examples/ tools/ vs committed baseline) =="
run_audit --baseline tools/parva_audit/tree_baseline.txt bench/ examples/ tools/
print_summary

echo "== parva_audit: canary (planted R6-R15 violations must be caught) =="
CANARY_DIR="$(mktemp -d)"
trap 'rm -rf "${SCRATCH_DIR}" "${CANARY_DIR}"' EXIT
cat > "${CANARY_DIR}/canary.cpp" <<'EOF'
#include <mutex>
namespace canary {
enum class NvmlReturn { kSuccess };
NvmlReturn destroy_instance(int gpu);
inline void teardown() { destroy_instance(0); }
class Q { std::mutex m_; int unguarded_ = 0; };
constexpr int kCanaryStartSlots[] = {0, 2, 4};
}  // namespace canary

// R9 canary: a planted lock-order cycle (alpha->beta in one function,
// beta->alpha in another). Never compiled -- parva_audit scans lexically.
struct CanaryMutex {};
struct MutexLock {
  explicit MutexLock(CanaryMutex& m);
};
struct CanaryLocks {
  static CanaryMutex alpha;
  static CanaryMutex beta;
};
inline void canary_alpha_then_beta() {
  MutexLock l1(CanaryLocks::alpha);
  MutexLock l2(CanaryLocks::beta);
}
inline void canary_beta_then_alpha() {
  MutexLock l1(CanaryLocks::beta);
  MutexLock l2(CanaryLocks::alpha);
}

// R10 canary: a literal RNG stream tag. R11 canary: the blocking lock in
// canary_alpha_then_beta is reachable from the hot-path root Shard::advance.
struct Rng {
  static Rng stream(unsigned long long seed, unsigned long long tag,
                    unsigned long long index);
};
struct Shard {
  void advance();
};
inline void Shard::advance() {
  (void)Rng::stream(1, 7, 0);
  canary_alpha_then_beta();
}

// R12 canary helper: iterates an unordered container and is called from
// the fingerprint-named TU planted next to this one.
std::unordered_map<int, int>& canary_cells();
inline int canary_digest_helper() {
  int acc = 0;
  for (const auto& cell : canary_cells()) acc += cell.first;
  return acc;
}

// R13 canary: mixed-unit arithmetic (milliseconds plus seconds).
inline double canary_mixed_units(double span_ms, double budget_s) {
  return span_ms + budget_s;
}

// R15 canary: a reference taken before push_back is used after it.
#include <vector>
inline int canary_use_after_growth(std::vector<int>& v) {
  int& first = v.front();
  v.push_back(1);
  return first;
}
EOF
cat > "${CANARY_DIR}/canary_fingerprint.cpp" <<'EOF'
// R12 canary entry: the file name puts this TU on the export manifest,
// so the unordered iteration in canary.cpp is reachable from here.
// R14 canary: the same manifest membership makes the unsorted loop
// reduction below an export-path accumulation.
#include <vector>
int canary_digest_helper();
inline int canary_emit_fingerprint() { return canary_digest_helper(); }
inline double canary_rollup(const std::vector<double>& xs) {
  double total = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) total += xs[i];
  return total;
}
EOF
CANARY_RC=0
CANARY_OUT="$("${AUDIT}" --rules R6-R15 --format text "${CANARY_DIR}" 2>/dev/null)" || CANARY_RC=$?
if [[ "${CANARY_RC}" -ne 1 ]]; then
  echo "lint: canary failed -- expected exit 1 on planted R6-R15 violations, got ${CANARY_RC}" >&2
  exit 1
fi
for rule in R6 R7 R8 R9 R10 R11 R12 R13 R14 R15; do
  if ! grep -q "\[${rule}\]" <<< "${CANARY_OUT}"; then
    echo "lint: canary failed -- planted ${rule} violation was not detected" >&2
    exit 1
  fi
done

if [[ "${AUDIT_ONLY}" == 1 ]]; then
  echo "lint: OK (clang-tidy skipped: --audit-only)"
  exit 0
fi

if ! command -v clang-tidy >/dev/null 2>&1; then
  echo "lint: OK (clang-tidy skipped: not installed; CI runs it)"
  exit 0
fi

echo "== clang-tidy (.clang-tidy profile) =="
# The default preset exports compile_commands.json (CMAKE_EXPORT_COMPILE_COMMANDS).
if [[ "${DIFF_ONLY}" == 1 ]]; then
  mapfile -t FILES < <(git diff --name-only HEAD -- 'src/*.cpp' 'tools/*.cpp')
else
  mapfile -t FILES < <(git ls-files 'src/*.cpp' 'tools/*.cpp')
fi
if [[ "${#FILES[@]}" == 0 ]]; then
  echo "lint: OK (no files for clang-tidy)"
  exit 0
fi
clang-tidy -p build --quiet "${FILES[@]}"

echo "lint: OK"
