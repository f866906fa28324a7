#!/usr/bin/env bash
# Thread-count axis of the determinism contract (DESIGN §3d): every byte
# these six benches print is seed-determined, so each must print the same
# bytes at OMP_NUM_THREADS=1 and at 4. Between them they run the lockstep
# annealer and QAOA, at depth p > 1 (the depth ablation) and with the
# XY-mixer ansatz (the mixer ablation) included.
# Run by ctest as: bench_thread_identity.sh <directory of the bench binaries>
set -u

BENCH_DIR="$1"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

fails=0
check() {
  local name="$1"
  shift
  for threads in 1 4; do
    if ! OMP_NUM_THREADS=$threads "$BENCH_DIR/$name" "$@" \
        > "$TMP/$name.$threads" 2>&1; then
      echo "FAIL: $name $* exited non-zero at $threads thread(s)" >&2
      sed 's/^/  /' "$TMP/$name.$threads" >&2
      fails=$((fails + 1))
      return
    fi
  done
  if cmp -s "$TMP/$name.1" "$TMP/$name.4"; then
    echo "ok: $name $* prints the same bytes at 1 and 4 threads"
  else
    echo "FAIL: $name $* output differs between 1 and 4 threads" >&2
    diff "$TMP/$name.1" "$TMP/$name.4" | sed 's/^/  /' >&2
    fails=$((fails + 1))
  fi
}

check bench_fig7_dwave_optimality --quick
check bench_fig8_ibm_qubits --quick
check bench_fig9_ibm_depth --quick
check bench_ablation_anneal
check bench_ablation_mixer
check bench_ablation_qaoa_depth

if [ "$fails" -ne 0 ]; then
  echo "$fails bench(es) failed" >&2
  exit 1
fi
echo "all benches print the same bytes at 1 and 4 threads"
