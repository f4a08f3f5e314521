#!/usr/bin/env bash
# Sanitizer gate, suitable for CI:
#   asan  ASan + UBSan build, fast tier-1 suite, run twice: unbudgeted
#         and under CONQUER_MEMORY_BUDGET=256k (memory / UB bugs; under the
#         budget, a read outside the blocks a pin faulted in touches either
#         an empty column vector or a block the fault left poisoned, which
#         ASan reports)
#   tsan  TSan build, concurrency-labeled suite  (data races in the
#         morsel-driven parallel executor and the task pool)
#
# Usage: scripts/check_sanitizers.sh [asan|tsan|all] [jobs]
#
# Build trees live in build-asan/ and build-tsan/ next to build/ and are
# reused across runs. Every requested configuration runs even when an
# earlier one fails; the exit code is non-zero if ANY configuration failed
# (not just the last one).

set -uo pipefail
cd "$(dirname "$0")/.."

CONFIG="${1:-all}"
JOBS="${2:-$(nproc)}"

case "$CONFIG" in
  asan|tsan|all) ;;
  *)
    echo "usage: $0 [asan|tsan|all] [jobs]" >&2
    exit 2
    ;;
esac

# run_suite <dir> <sanitizer> <label> [budget]: with a budget, the suite
# runs a second time with CONQUER_MEMORY_BUDGET set to it.
run_suite() {
  local dir="$1" sanitize="$2" label="$3" budget="${4:-}"
  echo "=== ${sanitize}: configuring ${dir} ===" &&
  # Instrumented trees only need the tests (examples included), not benches.
  cmake -B "${dir}" -S . -DCONQUER_SANITIZE="${sanitize}" \
        -DCONQUER_BUILD_AUX=OFF -DCMAKE_BUILD_TYPE=RelWithDebInfo &&
  echo "=== ${sanitize}: building ===" &&
  cmake --build "${dir}" -j "${JOBS}" &&
  echo "=== ${sanitize}: ctest -L ${label} ===" &&
  ctest --test-dir "${dir}" -L "${label}" --output-on-failure -j "${JOBS}" &&
  if [[ -n "${budget}" ]]; then
    echo "=== ${sanitize}: ctest -L ${label}, CONQUER_MEMORY_BUDGET=${budget} ===" &&
    CONQUER_MEMORY_BUDGET="${budget}" \
      ctest --test-dir "${dir}" -L "${label}" --output-on-failure -j "${JOBS}"
  fi
}

status=0

if [[ "$CONFIG" == "asan" || "$CONFIG" == "all" ]]; then
  if ! run_suite build-asan address tier1 256k; then
    echo "=== address: FAILED ===" >&2
    status=1
  fi
fi

if [[ "$CONFIG" == "tsan" || "$CONFIG" == "all" ]]; then
  if ! run_suite build-tsan thread concurrency; then
    echo "=== thread: FAILED ===" >&2
    status=1
  fi
fi

if [[ "$status" -eq 0 ]]; then
  echo "=== sanitizers clean ==="
else
  echo "=== sanitizer failures detected ===" >&2
fi
exit "$status"
